"""The Poisson structure of a slice chart on the Zhu generators, kept as
the oracle for ``slice.PoissonStructure``.

This is the package's former presentation.  Its ring holds one
generator p_u per basis vector u of g_{<=0} + g_{1/2}, and its table
{p_u, p_v} = p_{[u,v]} (both in g_{<=0}), the constant (f|[u,v]) (both
in g_{1/2}), 0 when mixed, is read off dense brackets of basis vectors
and the form.  The generators are the affine functions
p_u = -(-1)^{|u|}(u|Z) for u in g_{<=0} and p_u = (u|Z) for u in
g_{1/2}, Z = f + sum z_b x_b the chart's generic point; that is
zeta = c + M z, with M and c taken here from ``form_value``
(tests/cross_checks.py) on basis vectors and M inverted by dense
Gauss-Jordan elimination (tests/dense_oracles.py).  ``to_poisson_ring`` and ``from_poisson_ring``
move polynomials through that identification, and ``bracket`` is the
finite Leibniz recursion of tests/finite_poisson_oracle.py on the
table.  The package builds its table on the chart coordinates directly
and shares none of this beyond the algebra and the chart.
"""

from fractions import Fraction

from cross_checks import form_value
from dense_oracles import dense_rref
from finite_poisson_oracle import finite_bracket
from superslice.superpoly import PolyRing, Variable

ONE = Fraction(1)


class ZhuPoisson:
    """Generator ring, table and affine identification of a chart's
    Poisson structure."""

    def __init__(self, chart):
        alg, w2 = chart.alg, chart.grading.weights2
        self.chart_ring = chart.ring
        self.gen_indices = [i for i in range(alg.dim)
                            if w2[i] <= 0 or w2[i] == 1]
        self.gen_pos = {b: a for a, b in enumerate(self.gen_indices)}
        ring = self.ring = PolyRing([
            Variable(f"p_{alg.labels[i]}", alg.parities[i], wt2=2 - w2[i])
            for i in self.gen_indices])
        f = chart.triple.f

        self.table = {}
        for a, ia in enumerate(self.gen_indices):
            for b, ib in enumerate(self.gen_indices):
                br = alg.bracket_num(alg.basis_vector(ia),
                                     alg.basis_vector(ib))
                if w2[ia] <= 0 and w2[ib] <= 0:
                    val = ring.zero()
                    for k, c in enumerate(br):
                        if c:
                            val = val + ring.gen(self.gen_pos[k]) * c
                elif w2[ia] == 1 and w2[ib] == 1:
                    val = ring.const(form_value(alg, f, br))
                else:
                    continue
                if not val.is_zero():
                    self.table[(a, b)] = val

        # zeta_a = c_a + sum_b M[a][b] z_b
        n = len(self.gen_indices)
        coords = chart.coord_indices
        if n != len(coords):
            raise ValueError("generator/coordinate count mismatch")
        self.M, self.const = [], []
        for ia in self.gen_indices:
            u = alg.basis_vector(ia)
            sgn = ONE if w2[ia] == 1 or alg.parities[ia] else -ONE
            self.const.append(sgn * form_value(alg, u, f))
            self.M.append([sgn * form_value(alg, u, alg.basis_vector(ib))
                           for ib in coords])
        red, piv = dense_rref([row + [ONE if i == j else 0 for j in range(n)]
                               for i, row in enumerate(self.M)], 2 * n)
        if piv != list(range(n)):
            raise ValueError("M is singular")
        self.Minv = [row[n:] for row in red]

    def from_poisson_ring(self, p):
        """p at p_a = c_a + sum_b M[a][b] z_b, on the chart ring."""
        if p.ring is not self.ring:
            raise ValueError("polynomial is not in the Poisson ring")
        z = self.chart_ring
        images = {}
        for a, row in enumerate(self.M):
            img = z.const(self.const[a])
            for b, co in enumerate(row):
                if co:
                    img = img + z.gen(b) * co
            images[a] = img
        return p.substitute(images, z)

    def to_poisson_ring(self, p):
        """p at z_b = sum_a Minv[b][a] (p_a - c_a), on the generator
        ring."""
        if p.ring is not self.chart_ring:
            raise ValueError("polynomial is not on the chart coordinates")
        ring = self.ring
        images = {}
        for b, row in enumerate(self.Minv):
            img = ring.zero()
            for a, co in enumerate(row):
                if co:
                    img = img + (ring.gen(a) - ring.const(self.const[a])) * co
            images[b] = img
        return p.substitute(images, ring)

    def bracket(self, p, q):
        """{p, q} on the generator ring."""
        return finite_bracket(self, p, q)

"""Slices through nilpotent orbits: gauge fixing, Poisson structure,
finite Miura map and its injectivity certificate.

The chart is computed once, symbolically, at the generic point
Z = f + sum z_a x_a over the degrees >= -1/2.  Degree by degree the
component of the gauged point splits as (centralizer part) + [f, lift];
the lift is gauged away and the centralizer coefficients accumulate into
the invariant polynomials.  Everything downstream (invariance trials,
Poisson tables, Miura images, certificates) is substitution into that
chart.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .liealg import (GoodGrading, LieSuperalgebra, Sl2Triple, _invert,
                     dense_to_poly, graded_slice_decomposition,
                     nilpotency_class)
from .linalg import RationalMatrix, exact_rank
from .supergroup import adjoint_orbit_map, bch_product
from .superpoly import PolyRing, SuperPolynomial, Variable

ZERO = Fraction(0)
ONE = Fraction(1)


def _render_vector(alg: LieSuperalgebra, v: Sequence[Fraction]) -> str:
    """Human-readable label for a basis combination, e.g. 'e12+e23'."""
    parts = []
    for i, c in enumerate(v):
        if not c:
            continue
        if c == 1:
            t = alg.labels[i]
        elif c == -1:
            t = "-" + alg.labels[i]
        else:
            t = f"{c}*{alg.labels[i]}"
        parts.append(t)
    out = parts[0] if parts else "0"
    for t in parts[1:]:
        out += "+" + t if not t.startswith("-") else t
    return out


class SliceChart:
    """Invariant generators and the gauge transformation at the generic
    point of f + g_{>=-1/2}.

    invariants[label] is the coefficient of the centralizer basis vector
    with that label after gauging; gauge[label] is the component of the
    gauge group element on the positive basis direction with that label.
    adjoint_orbit_map(Z, gauge) equals f + sum invariants * basis, and
    conjugating back by the negated gauge recovers Z exactly.
    """

    def __init__(self, alg, triple, grading, ring, coord_indices,
                 inv_order, invariants, inv_vectors, inv_wt2, gauge_vec):
        self.alg = alg
        self.triple = triple
        self.grading = grading
        self.ring = ring
        self.coord_indices = list(coord_indices)
        self.coord_pos = {b: a for a, b in enumerate(self.coord_indices)}
        self.inv_order = list(inv_order)
        self.invariants = dict(invariants)
        self.inv_vectors = dict(inv_vectors)
        self.inv_wt2 = dict(inv_wt2)
        self.gauge_vec = dict(gauge_vec)
        self.gauge = {alg.labels[i]: p for i, p in gauge_vec.items()}
        self.slice_ring = PolyRing([
            Variable(f"s{n + 1}", self.parity_of(lab),
                     wt2=2 + self.inv_wt2[lab])
            for n, lab in enumerate(self.inv_order)])
        self.slice_names = {lab: f"s{n + 1}"
                            for n, lab in enumerate(self.inv_order)}

    def parity_of(self, label: str) -> int:
        v = self.inv_vectors[label]
        for i, c in enumerate(v):
            if c:
                return self.alg.parities[i]
        raise ValueError("zero invariant vector")

    def generic_point(self) -> dict:
        out = dense_to_poly(self.alg, self.triple.f, self.ring)
        for pos, b in enumerate(self.coord_indices):
            out[b] = out.get(b, self.ring.zero()) + self.ring.gen(pos)
        return {k: v for k, v in out.items() if not v.is_zero()}

    def slice_point(self) -> dict:
        """f + sum s_n u_n over the slice coordinate ring."""
        out = dense_to_poly(self.alg, self.triple.f, self.slice_ring)
        for n, lab in enumerate(self.inv_order):
            s = self.slice_ring.gen(n)
            for i, c in enumerate(self.inv_vectors[lab]):
                if c:
                    add = s * c
                    out[i] = out.get(i, self.slice_ring.zero()) + add
        return {k: v for k, v in out.items() if not v.is_zero()}

    def evaluate_invariants(self, point: dict, ring: PolyRing) -> dict:
        """Invariant values at a polynomial vector in f + g_{>=-1/2}."""
        f = self.triple.f
        images = {}
        for pos, b in enumerate(self.coord_indices):
            images[pos] = point.get(b, ring.zero())
        for i in range(self.alg.dim):
            if i in self.coord_pos:
                continue
            comp = point.get(i)
            want = f[i]
            if comp is None:
                if want:
                    raise ValueError("point leaves f + g_{>=-1/2}")
            elif not (comp.is_constant() and comp.as_constant() == want):
                raise ValueError("point leaves f + g_{>=-1/2}")
        return {lab: self.invariants[lab].substitute(images, ring)
                for lab in self.inv_order}

    def check_homogeneity(self):
        """Each invariant is homogeneous of conformal weight 1 + j for its
        centralizer vector in degree j; parity matches.  Raises on failure."""
        for lab in self.inv_order:
            p = self.invariants[lab]
            want_par = self.parity_of(lab)
            if not p.is_zero() and p.parity() != want_par:
                raise ValueError(f"invariant {lab!r} has wrong parity")
            w2 = p.weight2()
            if w2 is None or w2 != 2 + self.inv_wt2[lab]:
                raise ValueError(
                    f"invariant {lab!r} not homogeneous of weight "
                    f"{Fraction(2 + self.inv_wt2[lab], 2)}")

    def round_trip_check(self):
        """conj(slice point(Z), -gauge) == Z, symbolically."""
        gauged = dense_to_poly(self.alg, self.triple.f, self.ring)
        for lab in self.inv_order:
            for i, c in enumerate(self.inv_vectors[lab]):
                if c:
                    add = self.invariants[lab] * c
                    gauged[i] = gauged.get(i, self.ring.zero()) + add
        neg = {i: -p for i, p in self.gauge_vec.items()}
        back = adjoint_orbit_map(self.alg, gauged, neg)
        want = self.generic_point()
        back = {k: v for k, v in back.items() if not v.is_zero()}
        if back != want:
            raise ValueError("round trip failed")


def gauge_fix(alg: LieSuperalgebra, triple: Sl2Triple,
              grading: GoodGrading) -> SliceChart:
    """Solve the gauge-fixing recursion at the symbolic generic point."""
    pieces = graded_slice_decomposition(alg, grading, triple)
    coord_indices = [i for i in range(alg.dim) if grading.weights2[i] >= -1]
    variables = []
    for b in coord_indices:
        variables.append(Variable(f"z_{alg.labels[b]}", alg.parities[b],
                                  wt2=2 + grading.weights2[b]))
    ring = PolyRing(variables)

    cur = dense_to_poly(alg, triple.f, ring)
    for pos, b in enumerate(coord_indices):
        cur[b] = cur.get(b, ring.zero()) + ring.gen(pos)

    pos_idx = grading.positive_indices()
    nclass = nilpotency_class(alg.restrict_to(pos_idx)) if pos_idx else 1
    gauge_total: dict = {}
    inv_order, invariants, inv_vectors, inv_wt2 = [], {}, {}, {}

    for lev in sorted(pieces):
        piece = pieces[lev]
        D = [cur.get(r, ring.zero()) for r in piece.row_indices]
        n_e = len(piece.e_basis)
        coords = []
        for r in range(piece.inverse.nrows):
            acc = ring.zero()
            for c, d in enumerate(D):
                coeff = piece.inverse[r, c]
                if coeff and not d.is_zero():
                    acc = acc + d * coeff
            coords.append(acc)
        for j in range(n_e):
            lab = _render_vector(alg, piece.e_basis[j])
            inv_order.append(lab)
            invariants[lab] = coords[j]
            inv_vectors[lab] = piece.e_basis[j]
            inv_wt2[lab] = lev
        step = {}
        for k, b_idx in enumerate(piece.lift_indices):
            c = coords[n_e + k]
            if not c.is_zero():
                step[b_idx] = -c
        if step:
            cur = adjoint_orbit_map(alg, cur, step)
            gauge_total = bch_product(alg, gauge_total, step, nclass) \
                if gauge_total else step

    # exact self-check: the gauged point is f + sum invariants * basis
    want = dense_to_poly(alg, triple.f, ring)
    for lab in inv_order:
        for i, c in enumerate(inv_vectors[lab]):
            if c:
                want[i] = want.get(i, ring.zero()) + invariants[lab] * c
    cur = {k: v for k, v in cur.items() if not v.is_zero()}
    want = {k: v for k, v in want.items() if not v.is_zero()}
    if cur != want:
        raise ValueError("gauge recursion did not land on the slice")

    return SliceChart(alg, triple, grading, ring, coord_indices,
                      inv_order, invariants, inv_vectors, inv_wt2,
                      gauge_total)


# -- invariance trials ---------------------------------------------------------

def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def verify_invariance(chart: SliceChart, trials: int,
                      seed: int = 0):
    """Random gauge trials: invariants(conj(Z, Y)) == invariants(Z) as
    polynomial identities in auxiliary odd symbols.  Returns (True, None)
    or (False, description of the first counterexample)."""
    alg, grading = chart.alg, chart.grading
    rng = random.Random(seed)
    for t in range(trials):
        variables = []
        for b in chart.coord_indices:
            variables.append(Variable(f"w{t}_{alg.labels[b]}",
                                      alg.parities[b]))
        gauge_odd = [i for i in grading.positive_indices() if alg.parities[i]]
        for i in gauge_odd:
            variables.append(Variable(f"g{t}_{alg.labels[i]}", 1))
        ring = PolyRing(variables)

        Z = dense_to_poly(alg, chart.triple.f, ring)
        for pos, b in enumerate(chart.coord_indices):
            if alg.parities[b]:
                comp = ring.gen(pos)  # odd coordinates stay formal
            else:
                comp = ring.const(_random_fraction(rng))
            Z[b] = Z.get(b, ring.zero()) + comp
        Y = {}
        for i in grading.positive_indices():
            c = _random_fraction(rng)
            if alg.parities[i]:
                gen = ring.gen(ring.index[f"g{t}_{alg.labels[i]}"])
                Y[i] = gen * c
            else:
                Y[i] = ring.const(c)
        moved = adjoint_orbit_map(alg, Z, Y)
        base = chart.evaluate_invariants(Z, ring)
        after = chart.evaluate_invariants(moved, ring)
        for lab in chart.inv_order:
            if base[lab] != after[lab]:
                return False, {
                    "trial": t, "invariant": lab,
                    "before": base[lab].text(), "after": after[lab].text(),
                }
    return True, None


# -- Poisson structure ---------------------------------------------------------

class PoissonStructure:
    """Poisson bracket on the coordinate ring of f + g_{>=-1/2}, presented
    on the generator ring S(g_{<=0} + g_{1/2}).

    Generators are labeled by basis vectors u of g_{<=0} + g_{1/2} and are
    identified with the affine functions u -> -(-1)^{|u|}(u|.) for
    u in g_{<=0} and u -> (u|.) for u in g_{1/2}; generator brackets are
    {u, v} = [u, v] (both in g_{<=0}), (f|[u,v]) (both in g_{1/2}), 0 mixed,
    extended as a biderivation.  The extension is delegated to
    ``pva.ArcBracket`` on the same table: the finite bracket is the
    lambda^0 part of the arc lambda bracket (De Sole and Kac, "Finite vs
    affine W-algebras").  Polynomials from any other ring are rejected.
    """

    def __init__(self, chart: SliceChart):
        alg, grading = chart.alg, chart.grading
        if alg.form is None:
            raise ValueError("Poisson structure needs the bilinear form")
        self.chart = chart
        self.alg = alg
        self.gen_indices = [i for i in range(alg.dim)
                            if grading.weights2[i] <= 0
                            or grading.weights2[i] == 1]
        self.gen_pos = {b: a for a, b in enumerate(self.gen_indices)}
        self.ring = PolyRing([
            Variable(f"p_{alg.labels[i]}", alg.parities[i],
                     wt2=2 - grading.weights2[i])
            for i in self.gen_indices])
        n = len(self.gen_indices)
        w2 = grading.weights2
        self._table: dict[tuple[int, int], SuperPolynomial] = {}
        f = chart.triple.f
        for a, ia in enumerate(self.gen_indices):
            for b, ib in enumerate(self.gen_indices):
                br = alg.bracket_num(alg.basis_vector(ia),
                                     alg.basis_vector(ib))
                if w2[ia] <= 0 and w2[ib] <= 0:
                    out = self.ring.zero()
                    for k, c in enumerate(br):
                        if c:
                            out = out + self.ring.gen(self.gen_pos[k]) * c
                    val = out
                elif w2[ia] == 1 and w2[ib] == 1:
                    val = self.ring.const(alg.form_value(f, br))
                else:
                    val = self.ring.zero()
                if not val.is_zero():
                    self._table[(a, b)] = val
        from .pva import ArcBracket  # pva imports this module
        self._arc = ArcBracket(self.ring, self._table)

        # affine identification with the z-coordinate ring of the chart:
        # zeta_a = c_a + sum_beta M[a, beta] z_beta
        m = len(chart.coord_indices)
        if n != m:
            raise ValueError("generator/coordinate count mismatch")
        M = RationalMatrix.zeros(n, m)
        const = []
        for a, ia in enumerate(self.gen_indices):
            sgn = ONE if w2[ia] == 1 else (ONE if alg.parities[ia] else -ONE)
            u = alg.basis_vector(ia)
            const.append(sgn * alg.form_value(u, f))
            for beta, ib in enumerate(chart.coord_indices):
                M[a, beta] = sgn * alg.form_value(u, alg.basis_vector(ib))
        self._fwd_M, self._fwd_c = M, const
        Minv = _invert(M)
        self._z_images = []  # z_beta as a polynomial in the generators
        for beta in range(m):
            acc = self.ring.zero()
            for a in range(n):
                co = Minv[beta, a]
                if co:
                    acc = acc + (self.ring.gen(a) - self.ring.const(const[a])) * co
            self._z_images.append(acc)
        self._gen_images = []  # zeta_a as a polynomial in the z-ring
        for a in range(n):
            acc = chart.ring.const(const[a])
            for beta in range(m):
                co = M[a, beta]
                if co:
                    acc = acc + chart.ring.gen(beta) * co
            self._gen_images.append(acc)

    def to_poisson_ring(self, p: SuperPolynomial) -> SuperPolynomial:
        if p.ring is not self.chart.ring:
            raise ValueError("polynomial is not on the chart coordinates")
        return p.substitute(dict(enumerate(self._z_images)), self.ring)

    def from_poisson_ring(self, p: SuperPolynomial) -> SuperPolynomial:
        if p.ring is not self.ring:
            raise ValueError("polynomial is not in the Poisson ring")
        return p.substitute(dict(enumerate(self._gen_images)), self.chart.ring)

    def bracket(self, p: SuperPolynomial, q: SuperPolynomial) -> SuperPolynomial:
        """{p, q}: the lambda^0 coefficient of the arc lambda bracket on the
        same generator table (no jets here, so it is the whole bracket)."""
        for x in (p, q):
            if x.ring is not self.ring:
                raise ValueError("polynomial is not in the Poisson ring")
        return self._arc.bracket(p, q).coefficient(0)


def slice_poisson_table(chart: SliceChart,
                        structure: Optional[PoissonStructure] = None) -> dict:
    """{I_a, I_b} for all invariant pairs, re-expressed exactly in the
    slice coordinates.  Raises if a bracket is not a function of the
    invariants (which would signal an invariance bug)."""
    ps = structure or PoissonStructure(chart)
    lifted = {lab: ps.to_poisson_ring(chart.invariants[lab])
              for lab in chart.inv_order}
    spoint = chart.slice_point()
    # z-coordinates of the slice point, as polynomials in s
    z_at_slice = {pos: spoint.get(b, chart.slice_ring.zero())
                  for pos, b in enumerate(chart.coord_indices)}
    for n, lab in enumerate(chart.inv_order):
        # on the slice itself the invariant IS the coordinate
        got = chart.invariants[lab].substitute(z_at_slice, chart.slice_ring)
        if got != chart.slice_ring.gen(n):
            raise ValueError(f"invariant {lab!r} does not restrict to its "
                             f"slice coordinate")
    out = {}
    for la in chart.inv_order:
        for lb in chart.inv_order:
            raw = ps.bracket(lifted[la], lifted[lb])
            on_z = ps.from_poisson_ring(raw)
            on_slice = on_z.substitute(z_at_slice, chart.slice_ring)
            # exactness: substituting s := I(z) must reproduce the bracket
            images = {n: chart.invariants[lab2]
                      for n, lab2 in enumerate(chart.inv_order)}
            recon = on_slice.substitute(images, chart.ring)
            if recon != on_z:
                raise ValueError(
                    f"bracket of invariants ({la},{lb}) is not a function "
                    f"of the invariants")
            out[(la, lb)] = on_slice
    return out


# -- Miura --------------------------------------------------------------------

class MiuraImage:
    """Invariants restricted to f + g_ini (all degree >= 1/2 coordinates
    set to zero)."""

    def __init__(self, chart: SliceChart):
        self.chart = chart
        alg, grading = chart.alg, chart.grading
        ring = chart.ring
        images = {}
        for pos, b in enumerate(chart.coord_indices):
            if grading.weights2[b] >= 1:
                images[pos] = ring.zero()
        self.images = {lab: chart.invariants[lab].substitute(images, ring)
                       for lab in chart.inv_order}
        self.ini_positions = [pos for pos, b in enumerate(chart.coord_indices)
                              if grading.weights2[b] <= 0]
        self.even_positions = [p for p in self.ini_positions
                               if alg.parities[chart.coord_indices[p]] == 0]
        self.odd_positions = [p for p in self.ini_positions
                              if alg.parities[chart.coord_indices[p]] == 1]


def finite_miura(chart: SliceChart) -> MiuraImage:
    return MiuraImage(chart)


class InjectivityCertificate:
    def __init__(self, even_rank, even_target, odd_rank, odd_target,
                 witness_points, verdict, note=""):
        self.even_rank = even_rank
        self.even_target = even_target
        self.odd_rank = odd_rank
        self.odd_target = odd_target
        self.witness_points = witness_points
        self.verdict = verdict
        self.note = note

    def as_dict(self):
        return {
            "even_rank": self.even_rank, "even_target": self.even_target,
            "odd_rank": self.odd_rank, "odd_target": self.odd_target,
            "witness_points": self.witness_points, "verdict": self.verdict,
            "note": self.note,
        }


def _zero_odd(p: SuperPolynomial, odd_positions) -> SuperPolynomial:
    ring = p.ring
    images = {pos: ring.zero() for pos in odd_positions}
    return p.substitute(images, ring)


def _eval_even(p: SuperPolynomial, assignment: dict) -> Fraction:
    val = p.substitute({pos: p.ring.const(v) for pos, v in assignment.items()},
                       p.ring)
    if not val.is_constant():
        raise ValueError("evaluation left free variables")
    return val.as_constant()


def injectivity_certificate(miura: MiuraImage, trials: int = 5,
                            seed: int = 0) -> InjectivityCertificate:
    """Exact-rank certificate of Miura injectivity at random rational
    points (with the conjugated-by-exp(e) fallback witness for the odd
    block).  A full-rank witness proves injectivity; exhausting the
    trials is reported as an inconclusive failure."""
    chart = miura.chart
    alg = chart.alg
    rng = random.Random(seed)
    even_labels = [l for l in chart.inv_order if chart.parity_of(l) == 0]
    odd_labels = [l for l in chart.inv_order if chart.parity_of(l) == 1]
    even_target = len(even_labels)
    odd_target = len(odd_labels)

    even_jac = []
    for lab in even_labels:
        img = _zero_odd(miura.images[lab], miura.odd_positions)
        even_jac.append([img.partial_derivative(pos)
                         for pos in miura.even_positions])
    odd_block = []
    for lab in odd_labels:
        img = miura.images[lab]
        odd_block.append([_zero_odd(img.partial_derivative(pos),
                                    miura.odd_positions)
                          for pos in miura.odd_positions])

    def witness_candidates():
        for _ in range(trials):
            yield {pos: _random_fraction(rng) for pos in miura.even_positions}
        # guaranteed fallback: even coordinates of exp(e) . f
        shifted = adjoint_orbit_map(
            alg, dense_to_poly(alg, chart.triple.f, chart.ring),
            dense_to_poly(alg, chart.triple.e, chart.ring))
        point = {}
        for pos in miura.even_positions:
            b = chart.coord_indices[pos]
            comp = shifted.get(b)
            point[pos] = comp.as_constant() if comp is not None else ZERO
        yield point

    witnesses = []
    even_rank = odd_rank = 0
    even_ok = even_target == 0
    odd_ok = odd_target == 0
    for point in witness_candidates():
        if not even_ok and even_target:
            m = RationalMatrix([[_eval_even(x, point) for x in row]
                                for row in even_jac])
            r = exact_rank(m)
            if r == even_target:
                even_ok, even_rank = True, r
                witnesses.append({"block": "even", "point": {
                    chart.ring.variables[pos].name: str(v)
                    for pos, v in point.items()}})
            else:
                even_rank = max(even_rank, r)
        if not odd_ok and odd_target:
            m = RationalMatrix([[_eval_even(x, point) for x in row]
                                for row in odd_block])
            r = exact_rank(m)
            if r == odd_target:
                odd_ok, odd_rank = True, r
                witnesses.append({"block": "odd", "point": {
                    chart.ring.variables[pos].name: str(v)
                    for pos, v in point.items()}})
            else:
                odd_rank = max(odd_rank, r)
        if even_ok and odd_ok:
            break

    if even_ok and odd_ok:
        return InjectivityCertificate(even_rank if even_target else 0,
                                      even_target,
                                      odd_rank if odd_target else 0,
                                      odd_target, witnesses, "pass")
    return InjectivityCertificate(
        even_rank, even_target, odd_rank, odd_target, witnesses, "fail",
        note="no full-rank witness found; inconclusive, not a disproof")

"""Arc spaces, lambda brackets, and the differential-graded side of the
slice construction.

Three layers:

* ``ArcRing``: the coordinate ring of the arc space of an affine
  presentation.  One differential variable per base coordinate; the jet
  of order k stands for the k-th derivative along the arc parameter, so
  the coefficient of z^k in the tautological series x(z) is x^(k)/k!.
  Induced relations are the divided-power derivatives of the base
  relations, and ``check_relations`` verifies them against the series
  expansion coefficient by coefficient.

* ``LambdaPolynomial`` and ``ArcBracket``: a lambda bracket on a
  differential polynomial ring, given by a table of generator brackets
  and extended by sesquilinearity and the left and right Leibniz rules.
  ``ArcBracket.bracket`` evaluates that extension in closed form by the
  master formula of Barakat, De Sole and Kac (Japan. J. Math. 4, 2009,
  eq. 1.33) with left partial derivatives, the Koszul sign of each
  term being (-1)^{|g||df/du_i^(m)|} (see the class docstring).  The
  engine takes any table, jets and lambda-dependent entries included;
  the tables built here are level zero, so their generator brackets are
  constant in lambda and all lambda dependence comes from jets.

* ``BRSTComplex``, ``h0_truncated``, ``GradedMiura``: the arc gauge
  complex on the Zhu generators of g_{<=0} + g_{1/2} with one ghost per
  positive direction, its degree-zero cohomology per conformal weight
  (sized against the free differential ring on the slice generators),
  and the arc functor applied to the finite Miura map together with the
  lambda-bracket intertwining check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .cohomology import (GradedComplex, _as_wt2, _ce_images,
                         _check_square_zero, _gauge_action_fields,
                         odd_derivation, weighted_monomial_counts)
from .linalg import nullspace
from .slice import PoissonStructure, SliceChart, finite_miura
from .superpoly import PolyRing, SuperPolynomial, Variable

ZERO = Fraction(0)
ONE = Fraction(1)


# -- arc spaces of affine presentations ----------------------------------

class ArcRing:
    """Arc space of an affine presentation (variables and relations).

    The coordinate at order k is the k-th derivative of the base
    coordinate, so the tautological series of coordinate i is

        x_i(z) = sum_k x_i^(k) / k! * z^k,

    and the relation f induces one relation per order, the coefficient
    of z^k in f(x(z)), which is the divided power d^k(f)/k!.
    """

    def __init__(self, base: PolyRing,
                 relations: Sequence[SuperPolynomial] = ()):
        if base.differential:
            raise ValueError("the presentation ring must not be differential")
        for r in relations:
            if r.ring is not base:
                raise ValueError("relation is not in the base ring")
        self.base = base
        self.ring = PolyRing([Variable(v.name, v.parity, wt2=v.wt2)
                              for v in base.variables], differential=True)
        self.relations = list(relations)

    def embed(self, p: SuperPolynomial) -> SuperPolynomial:
        """Pullback along the projection to order zero (x -> x at k=0)."""
        if p.ring is not self.base:
            raise ValueError("polynomial is not in the base ring")
        return p.substitute({}, self.ring)

    def jet(self, i: int, k: int) -> SuperPolynomial:
        """Coefficient of z^k in the series of coordinate i: x_i^(k)/k!."""
        out = self.ring.gen(i)
        for j in range(1, k + 1):
            out = out.total_derivative() * Fraction(1, j)
        return out

    def relation_jets(self, j: int, depth: int) -> list[SuperPolynomial]:
        """Induced relations of relation j through order depth."""
        out = [self.embed(self.relations[j])]
        for k in range(1, depth + 1):
            out.append(out[-1].total_derivative() * Fraction(1, k))
        return out

    def series_coefficients(self, p: SuperPolynomial,
                            depth: int) -> list[SuperPolynomial]:
        """Coefficients of p(x(z)) through z^depth."""
        if p.ring is not self.base:
            raise ValueError("polynomial is not in the base ring")
        ring = self.ring
        series: dict[int, list[SuperPolynomial]] = {}

        def var_series(i: int) -> list[SuperPolynomial]:
            got = series.get(i)
            if got is None:
                got = [self.jet(i, k) for k in range(depth + 1)]
                series[i] = got
            return got

        out = [ring.zero() for _ in range(depth + 1)]
        for mono, c in p.terms.items():
            acc = [ring.one()] + [ring.zero()] * depth
            for (i, e) in mono:
                for _ in range(e):
                    acc = _series_mul(acc, var_series(i), ring)
            for n in range(depth + 1):
                if not acc[n].is_zero():
                    out[n] = out[n] + acc[n] * c
        return out

    def check_relations(self, depth: int = 3) -> bool:
        """Every induced relation equals the series coefficient it names."""
        for j in range(len(self.relations)):
            jets = self.relation_jets(j, depth)
            coeffs = self.series_coefficients(self.relations[j], depth)
            for k in range(depth + 1):
                if jets[k] != coeffs[k]:
                    raise ValueError(
                        f"relation {j} fails the arc expansion at order {k}")
        return True


def _series_mul(a: list, b: list, ring: PolyRing) -> list:
    """Truncated product of coefficient lists (same length in and out)."""
    depth = len(a) - 1
    out = [ring.zero() for _ in range(depth + 1)]
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j in range(depth + 1 - i):
            bj = b[j]
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return out


def _add_to(out: dict, k: int, p: SuperPolynomial) -> None:
    q = out.get(k)
    out[k] = p if q is None else q + p


def _scaled(p: SuperPolynomial, c: int) -> SuperPolynomial:
    if c == 1:
        return p
    return -p if c == -1 else p * c


# -- lambda polynomials ---------------------------------------------------

class LambdaPolynomial:
    """Polynomial in an even indeterminate lam with coefficients in a
    differential ring; the value type of a lambda bracket."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: PolyRing,
                 coeffs: Optional[Mapping[int, SuperPolynomial]] = None):
        self.ring = ring
        out: dict[int, SuperPolynomial] = {}
        if coeffs:
            for k, p in coeffs.items():
                if p.ring is not ring:
                    raise ValueError("coefficient in wrong ring")
                if not p.is_zero():
                    out[int(k)] = p
        self.coeffs = out

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> SuperPolynomial:
        return self.coeffs.get(k, self.ring.zero())

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def parity(self) -> Optional[int]:
        seen = {p.parity() for p in self.coeffs.values()}
        seen.discard(None)
        return seen.pop() if len(seen) == 1 else None

    def __add__(self, other: "LambdaPolynomial") -> "LambdaPolynomial":
        if other.ring is not self.ring:
            raise ValueError("lambda polynomial in wrong ring")
        out = dict(self.coeffs)
        for k, p in other.coeffs.items():
            q = out.get(k)
            out[k] = p if q is None else q + p
        return LambdaPolynomial(self.ring, out)

    def scale(self, c) -> "LambdaPolynomial":
        return LambdaPolynomial(self.ring,
                                {k: p * c for k, p in self.coeffs.items()})

    def __neg__(self) -> "LambdaPolynomial":
        return self.scale(-ONE)

    def __sub__(self, other: "LambdaPolynomial") -> "LambdaPolynomial":
        return self + (-other)

    def lam_plus_d(self) -> "LambdaPolynomial":
        """Multiply by (lam + d), d the total derivative on coefficients."""
        out: dict[int, SuperPolynomial] = {}
        for k, p in self.coeffs.items():
            _add_to(out, k + 1, p)
            _add_to(out, k, p.total_derivative())
        return LambdaPolynomial(self.ring, out)

    def sub_neg_lam_d(self) -> "LambdaPolynomial":
        """Substitute lam -> -lam - d, the d landing on the coefficient."""
        out: dict[int, SuperPolynomial] = {}
        for k, p in self.coeffs.items():
            sgn = -1 if k % 2 else 1
            q = p
            for j in range(k, -1, -1):
                _add_to(out, j, _scaled(q, sgn * math.comb(k, j)))
                if j:
                    q = q.total_derivative()
        return LambdaPolynomial(self.ring, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LambdaPolynomial)
                and self.ring is other.ring and self.coeffs == other.coeffs)

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k].text()
            if k == 0:
                parts.append(c)
            elif k == 1:
                parts.append(f"({c})*lam")
            else:
                parts.append(f"({c})*lam^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LambdaPolynomial({self.text()})"


# -- lambda brackets on differential rings --------------------------------

class ArcBracket:
    """Lambda bracket on a differential polynomial ring.

    ``table`` maps pairs of order-zero variable positions to the bracket
    of the generators (a LambdaPolynomial, or a plain polynomial meaning
    its lambda-degree-zero part).  Jets follow by sesquilinearity and
    products by the two Leibniz rules:

        {a'_lam b}  = -lam {a_lam b}
        {a_lam b'}  = (lam + d) {a_lam b}
        {ab_lam c}  = (-1)^{|b||c|} {a_{lam+d} c}_> b
                      + (-1)^{|a|(|b|+|c|)} {b_{lam+d} c}_> a
        {a_lam bc}  = {a_lam b} c + (-1)^{|a||b|} b {a_lam c}

    where _> means the powers of lam + d act on the trailing factor.
    The left rule is the one forced by the right rule and
    skew-symmetry; at lambda-degree zero it reduces to the bracket
    convention of the finite Poisson structure.  Skew-symmetry itself
    is not imposed; it follows from a skew-consistent table and is
    covered by tests.

    ``bracket`` evaluates these rules in closed form by the master
    formula of Barakat, De Sole and Kac ("Poisson vertex algebras in the
    theory of Hamiltonian equations", Japan. J. Math. 4, 2009, eq. 1.33),
    written with left partial derivatives.  For f and g of pure parity,
    u_i the generators and u_i^(m) their jets:

        {f_lam g} = sum_i (-1)^{|g|(|f|+|u_i|)} G_i(lam + d)_> F_i,
        G_i(lam)  = {u_i _lam g}
                  = sum_{j,n} [(lam + d)^n {u_i _lam u_j}] dg/du_j^(n),
        F_i(lam)  = sum_m (-lam - d)^m df/du_i^(m).

    The right rule makes {u_i _lam .} the left derivation
    sum_y {u_i _lam y} d/dy, which gives G_i.  The left rule gives the
    sum over the jets of f by induction on f; its sign is the Koszul
    sign (-1)^{|g||df/du_i^(m)|} of moving g past the derivative, and
    |df/du_i^(m)| = |f| + |u_i|.  Mixed-parity arguments are split into
    parity parts.  Each G_i costs one product per table entry that meets
    a jet of g, and F_i one more; with no jets and a lambda-free entry,
    no power of lam + d is expanded.
    """

    def __init__(self, ring: PolyRing, table: Mapping[tuple, object]):
        self.ring = ring
        self.table: dict[tuple[int, int], LambdaPolynomial] = {}
        for (i, j), val in table.items():
            if isinstance(val, SuperPolynomial):
                val = LambdaPolynomial(ring, {0: val})
            if val.ring is not ring:
                raise ValueError("table value in wrong ring")
            if not val.is_zero():
                self.table[(i, j)] = val
        self._zero = LambdaPolynomial(ring)

    def _entry(self, i: int, y: int) -> LambdaPolynomial:
        """{u_i _lam y} for the jet y = u_j^(n): (lam + d)^n {u_i _lam u_j}."""
        v = self.ring.variables[y]
        out = self.table.get((i, self.ring.index[v.base]), self._zero)
        for _ in range(v.order):
            out = out.lam_plus_d()
        return out

    def _generator_bracket(self, i: int, dg: Sequence[tuple]) -> dict:
        """Coefficients of G_i = {u_i _lam g} from the pairs (y, dg/dy)."""
        out: dict[int, SuperPolynomial] = {}
        for y, d in dg:
            for k, c in self._entry(i, y).coeffs.items():
                _add_to(out, k, c * d)
        return out

    def _partials_by_generator(self, f: SuperPolynomial) -> dict:
        """{i: {m: df/du_i^(m)}} over the jets in f."""
        ring = self.ring
        out: dict[int, dict[int, SuperPolynomial]] = {}
        for x in sorted(f.variables_used()):
            v = ring.variables[x]
            out.setdefault(ring.index[v.base], {})[v.order] = \
                f.partial_derivative(x)
        return out

    def bracket(self, p: SuperPolynomial,
                q: SuperPolynomial) -> LambdaPolynomial:
        for x in (p, q):
            if x.ring is not self.ring:
                raise ValueError("polynomial is not in the bracket ring")
        ring = self.ring
        p_parts = [(par, self._partials_by_generator(pp))
                   for par, pp in enumerate(p.parity_split())
                   if not pp.is_zero()]
        out: dict[int, SuperPolynomial] = {}
        for q_par, qq in enumerate(q.parity_split()):
            if qq.is_zero():
                continue
            dq = [(y, qq.partial_derivative(y))
                  for y in sorted(qq.variables_used())]
            rows: dict[int, dict] = {}
            for p_par, partials in p_parts:
                for i, dp in partials.items():
                    G = rows.get(i)
                    if G is None:
                        G = rows[i] = self._generator_bracket(i, dq)
                    if not G:
                        continue
                    F = LambdaPolynomial(ring, dp).sub_neg_lam_d()
                    odd = q_par and (p_par + ring.parity_of(i)) % 2
                    _apply_shifted(out, G, F, -1 if odd else 1)
        return LambdaPolynomial(ring, out)


def _apply_shifted(out: dict, G: Mapping[int, SuperPolynomial],
                   F: LambdaPolynomial, sign: int) -> None:
    """Add sign * G(lam + d)_> F, that is sign * sum_k G_k (lam + d)^k F,
    to the coefficient dict out."""
    derivs = {l: [f] for l, f in F.coeffs.items()}
    for k, g in G.items():
        for l, ds in derivs.items():
            while len(ds) <= k:
                ds.append(ds[-1].total_derivative())
            for r in range(k + 1):
                _add_to(out, k - r + l,
                        _scaled(g * ds[r], sign * math.comb(k, r)))


def skew_defect(machine: ArcBracket, a: SuperPolynomial,
                b: SuperPolynomial) -> LambdaPolynomial:
    """{a_lam b} + (-1)^{|a||b|} {b_{-lam-d} a}; zero iff skew holds."""
    pa, pb = a.parity(), b.parity()
    if pa is None or pb is None:
        raise ValueError("skew check needs parity homogeneous arguments")
    lhs = machine.bracket(a, b)
    rhs = machine.bracket(b, a).sub_neg_lam_d()
    return lhs + (rhs.scale(-ONE) if pa and pb else rhs)


# -- transported generator tables -----------------------------------------

def coordinate_lambda_table(chart: SliceChart,
                            structure: Optional[PoissonStructure] = None,
                            positions: Optional[Sequence[int]] = None):
    """Differential ring on (a subset of) the chart coordinates with the
    level-zero generator table transported through the affine
    identification zeta = c + M z.

    Returns (ring, table).  Values are constant in lambda; all lambda
    dependence downstream comes from jets.  Raises if a bracket value
    needs a coordinate outside the selection (the g_ini selection is
    closed, so that signals a bad subset).
    """
    ps = structure if structure is not None else PoissonStructure(chart)
    chart = ps.chart
    m = len(chart.coord_indices)
    sel = list(range(m)) if positions is None else list(positions)
    ring = PolyRing([Variable(chart.ring.variables[b].name,
                              chart.ring.parity_of(b),
                              wt2=chart.ring.variables[b].wt2)
                     for b in sel], differential=True)
    where = {b: k for k, b in enumerate(sel)}
    lin = []
    for b in sel:
        row = {}
        for mono, c in ps._z_images[b].terms.items():
            if len(mono) == 1 and mono[0][1] == 1:
                row[mono[0][0]] = c
            elif mono:
                raise ValueError("affine identification is not linear")
        lin.append(row)
    table: dict[tuple[int, int], SuperPolynomial] = {}
    for ki in range(len(sel)):
        for kj in range(len(sel)):
            acc = None
            for a, ca in lin[ki].items():
                for b, cb in lin[kj].items():
                    val = ps._table.get((a, b))
                    if val is None:
                        continue
                    term = val * (ca * cb)
                    acc = term if acc is None else acc + term
            if acc is None or acc.is_zero():
                continue
            zval = ps.from_poisson_ring(acc)
            used = zval.variables_used()
            if not used <= set(where):
                raise ValueError("bracket value leaves the selected "
                                 "coordinates")
            table[(ki, kj)] = zval.substitute(
                {b: ring.gen(where[b]) for b in used}, ring)
    return ring, table


# -- jet-aware images and morphisms ----------------------------------------

class _JetImages:
    """Image table for a map commuting with the total derivative (the BRST
    derivation, a DifferentialMorphism): the image of a jet is the jet of
    the image of its base generator, computed once and cached."""

    def __init__(self, ring: PolyRing, base: Mapping[int, SuperPolynomial]):
        self.ring = ring
        self.cache = dict(base)

    def get(self, j: int, default=None):
        got = self.cache.get(j)
        if got is not None:
            return got
        v = self.ring.variables[j]
        if not v.order:
            return default
        img = self.cache.get(self.ring.index[v.base])
        if img is None:
            return default
        for _ in range(v.order):
            img = img.total_derivative()
        self.cache[j] = img
        return img


class DifferentialMorphism:
    """Morphism of differential polynomial rings from images of the
    order-zero generators; jets map to total derivatives of the images,
    so the morphism commutes with d by construction."""

    def __init__(self, src: PolyRing, dst: PolyRing,
                 base_images: Mapping[int, SuperPolynomial]):
        self.src = src
        self.dst = dst
        for img in base_images.values():
            if img.ring is not dst:
                raise ValueError("image polynomial in wrong ring")
        self.images = _JetImages(src, base_images)

    def image(self, i: int) -> SuperPolynomial:
        got = self.images.get(i)
        if got is None:
            raise ValueError(f"no image for generator "
                             f"{self.src.variables[i].name}")
        return got

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        if p.ring is not self.src:
            raise ValueError("polynomial is not in the source ring")
        return p.substitute({i: self.image(i) for i in p.variables_used()},
                            self.dst)

    def on_lambda(self, P: LambdaPolynomial) -> LambdaPolynomial:
        if P.ring is not self.src:
            raise ValueError("lambda polynomial is not in the source ring")
        return LambdaPolynomial(self.dst,
                                {k: self(c) for k, c in P.coeffs.items()})


# -- the arc gauge complex -------------------------------------------------

class BRSTComplex:
    """Differential ring on the Zhu generators of g_{<=0} + g_{1/2} plus
    one ghost per positive basis direction, carrying the level-zero
    lambda bracket and the odd differential Q.

    Q on a generator symbol is the gauge action transported through the
    affine identification, each ghost multiplying from the left; on a
    ghost it is the coadjoint half-sum over the positive part.  Jets
    follow by commuting Q with the total derivative.  The constructor
    checks Q^2 = 0 on every generator; an odd derivation commuting with
    d whose square kills the order-zero generators squares to zero
    everywhere.

    Conformal weights: a generator for u of grading weight j carries
    1 - j, the ghost for a positive direction of weight j carries j,
    each jet order adds 1, and Q preserves the weight.
    """

    def __init__(self, chart: SliceChart,
                 structure: Optional[PoissonStructure] = None):
        ps = structure if structure is not None else PoissonStructure(chart)
        alg, grading = chart.alg, chart.grading
        self.chart = chart
        self.structure = ps
        pos_idx = grading.positive_indices()
        n = len(ps.gen_indices)
        gens = [Variable(v.name, v.parity, wt2=v.wt2)
                for v in ps.ring.variables]
        for i in pos_idx:
            gens.append(Variable(f"ph_{alg.labels[i]}",
                                 1 - alg.parities[i],
                                 wt2=grading.weights2[i]))
        ring = PolyRing(gens, differential=True)
        self.ring = ring
        self.nmod = n
        self.nghost = len(pos_idx)

        gen_map = {a: ring.gen(a) for a in range(n)}
        table: dict[tuple[int, int], SuperPolynomial] = {}
        for (a, b), val in ps._table.items():
            table[(a, b)] = val.substitute(gen_map, ring)
        for aloc, ia in enumerate(pos_idx):
            for uloc, iu in enumerate(ps.gen_indices):
                acc = ring.zero()
                for bloc, ib in enumerate(pos_idx):
                    c = alg.bracket_num(alg.basis_vector(iu),
                                        alg.basis_vector(ib))[ia]
                    if c:
                        acc = acc + ring.gen(n + bloc) * c
                if acc.is_zero():
                    continue
                table[(n + aloc, uloc)] = acc
                # skew partner: {u_lam ph} = -(-1)^{|u||ph|} {ph_lam u}
                both_odd = alg.parities[iu] and not alg.parities[ia]
                table[(uloc, n + aloc)] = acc * (ONE if both_odd else -ONE)
        self.bracket_machine = ArcBracket(ring, table)

        # gauge fields on the f + g_{>=-1/2} coordinates, moved to the
        # generators: row u of _fwd_M, then z_b -> _z_images[b]
        m = len(chart.coord_indices)
        zimg = [ps._z_images[b].substitute(gen_map, ring) for b in range(m)]
        fields = []
        for row in _gauge_action_fields(chart, chart.ring):
            moved = []
            for uloc in range(n):
                comp = chart.ring.zero()
                for beta in range(m):
                    co = ps._fwd_M[uloc, beta]
                    if co:
                        comp = comp + row[beta] * co
                moved.append(comp.substitute(
                    {b: zimg[b] for b in comp.variables_used()}, ring))
            fields.append(moved)
        images = _ce_images(alg.restrict_to(pos_idx), ring, fields, n)
        self._images = images
        self.Q = odd_derivation(ring, _JetImages(ring, images))
        _check_square_zero(ring, self.Q, images, "Q")

    def generator(self, label: str) -> SuperPolynomial:
        return self.ring.gen(self.ring.index[f"p_{label}"])

    def ghost(self, label: str) -> SuperPolynomial:
        return self.ring.gen(self.ring.index[f"ph_{label}"])

    def lambda_bracket(self, a: SuperPolynomial,
                       b: SuperPolynomial) -> LambdaPolynomial:
        return self.bracket_machine.bracket(a, b)


def brst_complex(chart: SliceChart,
                 structure: Optional[PoissonStructure] = None) -> BRSTComplex:
    return BRSTComplex(chart, structure)


# -- degree-zero cohomology by conformal weight -----------------------------

class TruncatedH0:
    """Degree-zero cohomology of the arc gauge complex per conformal
    weight, against the free differential ring on the slice generators
    as the independent size oracle."""

    def __init__(self, chart: SliceChart, max_weight,
                 complex_: Optional[BRSTComplex] = None):
        w2cap = _as_wt2(max_weight)
        cx = complex_ if complex_ is not None else BRSTComplex(chart)
        self.chart = chart
        self.complex = cx
        self.max_wt2 = w2cap
        slice_w2 = [v.wt2 for v in chart.slice_ring.variables]
        if min(slice_w2) > w2cap:
            raise ValueError("truncation lies below every slice generator "
                             "weight")
        ring = cx.ring
        module: list[int] = []
        ghosts: list[int] = []
        for pos in range(cx.nmod + cx.nghost):
            target = module if pos < cx.nmod else ghosts
            idx, w = pos, ring.variables[pos].wt2
            while w <= w2cap:
                target.append(idx)
                if w + 2 > w2cap:
                    break
                idx = ring.derivative_index(idx)
                w += 2
        images = {i: cx.Q(ring.gen(i)) for i in module + ghosts}
        self.graded = GradedComplex(ring, images, module, ghosts, w2cap)
        gens = []
        for v in chart.slice_ring.variables:
            w = v.wt2
            while w <= w2cap:
                gens.append((w, v.parity))
                w += 2
        self.expected = weighted_monomial_counts(gens, w2cap)

    def dimension(self, weight) -> int:
        return self.graded.cohomology_dim(0, weight)

    def dimensions(self) -> dict:
        return {Fraction(n2, 2): self.graded.cohomology_dim(0, Fraction(n2, 2))
                for n2 in range(self.max_wt2 + 1)}

    def consistent(self, dims: Optional[dict] = None) -> bool:
        """Computed dimensions equal the free differential ring counts.

        ``dims`` is the result of ``dimensions()`` when the caller has it
        already; otherwise it is computed here."""
        if dims is None:
            dims = self.dimensions()
        have = {w: d for w, d in dims.items() if d}
        want = {Fraction(n2, 2): c for n2, c in self.expected.items() if c}
        return have == want

    def representatives(self, weight) -> list[SuperPolynomial]:
        """Basis of the degree-zero kernel of Q at the given weight."""
        n2 = _as_wt2(weight)
        basis = self.graded.block_basis(0, n2)
        if not basis:
            return []
        mat = self.graded.d_matrix(0, n2)
        ring = self.graded.ring
        if mat is None:
            return [SuperPolynomial(ring, {m: ONE}) for m in basis]
        out = []
        for vec in nullspace(mat):
            terms = {m: c for m, c in zip(basis, vec) if c}
            out.append(SuperPolynomial(ring, terms))
        return out


def h0_truncated(chart: SliceChart, max_weight,
                 complex_: Optional[BRSTComplex] = None) -> TruncatedH0:
    return TruncatedH0(chart, max_weight, complex_)


# -- the Miura map, one jet at a time ---------------------------------------

class GradedMiura:
    """Arc functor applied to the finite Miura map.

    Source: differential ring on the slice generators.  Target:
    differential ring on the f + g_ini coordinates with the transported
    level-zero lambda table.  The order-zero generator maps to the
    finite Miura image of its invariant; jets map to total derivatives.
    The finite map is injective (see the certificate); the jet extension
    adds one triangular block per derivative order, so injectivity
    carries over order by order.  No statement beyond the level-zero
    brackets is made here: the tables are constant in lambda and
    ``check_intertwining`` brackets order-zero generators and their
    images, so every bracket it compares has lambda-degree 0 and no
    jets, and the check re-derives the finite Poisson intertwining.
    """

    def __init__(self, chart: SliceChart,
                 structure: Optional[PoissonStructure] = None):
        ps = structure if structure is not None else PoissonStructure(chart)
        self.chart = chart
        self.finite = finite_miura(chart)
        self.source = PolyRing([Variable(v.name, v.parity, wt2=v.wt2)
                                for v in chart.slice_ring.variables],
                               differential=True)
        tgt_ring, tgt_table = coordinate_lambda_table(
            chart, ps, self.finite.ini_positions)
        self.target = tgt_ring
        self.target_bracket = ArcBracket(tgt_ring, tgt_table)
        where = {b: k for k, b in enumerate(self.finite.ini_positions)}
        base: dict[int, SuperPolynomial] = {}
        for nn, lab in enumerate(chart.inv_order):
            img = self.finite.images[lab]
            used = img.variables_used()
            if not used <= set(where):
                raise ValueError("Miura image leaves the g_ini coordinates")
            base[nn] = img.substitute(
                {b: tgt_ring.gen(where[b]) for b in used}, tgt_ring)
        self.morphism = DifferentialMorphism(self.source, self.target, base)

        amb_ring, amb_table = coordinate_lambda_table(chart, ps, None)
        self.ambient = amb_ring
        self.ambient_bracket = ArcBracket(amb_ring, amb_table)
        inv_hat = {}
        for nn, lab in enumerate(chart.inv_order):
            p = chart.invariants[lab]
            inv_hat[nn] = p.substitute(
                {b: amb_ring.gen(b) for b in p.variables_used()}, amb_ring)
        self._embed = DifferentialMorphism(self.source, self.ambient, inv_hat)
        spoint = chart.slice_point()
        rest: dict[int, SuperPolynomial] = {}
        for b, bi in enumerate(chart.coord_indices):
            comp = spoint.get(bi)
            if comp is None:
                rest[b] = self.source.zero()
            else:
                rest[b] = comp.substitute(
                    {i: self.source.gen(i) for i in comp.variables_used()},
                    self.source)
        self._restrict = DifferentialMorphism(self.ambient, self.source, rest)

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        return self.morphism(p)

    def source_bracket(self, a: SuperPolynomial,
                       b: SuperPolynomial) -> LambdaPolynomial:
        """{a_lam b} on the slice jets, computed through the ambient
        coordinates and re-expressed on the slice; raises if any
        coefficient fails to live on the slice jets."""
        P = self.ambient_bracket.bracket(self._embed(a), self._embed(b))
        out: dict[int, SuperPolynomial] = {}
        for k, c in P.coeffs.items():
            r = self._restrict(c)
            if self._embed(r) != c:
                raise ValueError("lambda bracket leaves the slice jets")
            out[k] = r
        return LambdaPolynomial(self.source, out)

    def check_intertwining(self) -> dict:
        """Target-side bracket of the images equals the image of the
        slice bracket, on every ordered generator pair."""
        labs = self.chart.inv_order
        out = {}
        for i, la in enumerate(labs):
            for j, lb in enumerate(labs):
                lhs = self.target_bracket.bracket(
                    self(self.source.gen(i)), self(self.source.gen(j)))
                rhs = self.morphism.on_lambda(
                    self.source_bracket(self.source.gen(i),
                                        self.source.gen(j)))
                if lhs != rhs:
                    raise ValueError("Miura images fail the lambda bracket "
                                     f"on ({la}, {lb})")
                out[(la, lb)] = True
        return out


def graded_miura(chart: SliceChart,
                 structure: Optional[PoissonStructure] = None) -> GradedMiura:
    return GradedMiura(chart, structure)

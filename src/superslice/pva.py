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
  the pipeline's tables are level zero, so their generator brackets are
  constant in lambda and all lambda dependence comes from jets.

* ``BRSTComplex``, ``h0_truncated``, ``GradedMiura``: arc objects built
  on the chart's one Poisson structure (``SliceChart.poisson``).  The
  arc gauge complex puts its generator table on the Zhu generators of
  g_{<=0} + g_{1/2} with one ghost per positive direction; its
  degree-zero cohomology is sized per conformal weight against the free
  differential ring on the slice generators.  The arc functor applied to
  the finite Miura map lands in one differential ring on the chart
  coordinates, carrying the Poisson structure's coordinate table, where
  the lambda-bracket intertwining check takes both of its brackets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .cohomology import (GradedComplex, OddDerivation, _as_wt2, _ce_images,
                         _check_square_zero, _gauge_action_fields,
                         weighted_monomial_counts)
from .slice import SliceChart, finite_miura
from .superpoly import (UNIT, PolyRing, SuperPolynomial, Variable, combine,
                        sum_of_products, unpack)

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

        out: dict[int, list] = {}
        for mono, c in p.terms.items():
            acc = [ring.one()] + [ring.zero()] * depth
            for i, e in unpack(mono):
                for _ in range(e):
                    acc = _series_mul(acc, var_series(i), ring)
            for n, a in enumerate(acc):
                out.setdefault(n, []).append((c, a.terms, UNIT))
        sums = combine(ring, out)
        return [sums.get(n, ring.zero()) for n in range(depth + 1)]

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
    acc: dict[int, list] = {}
    for i, ai in enumerate(a):
        for j in range(depth + 1 - i):
            acc.setdefault(i + j, []).append((1, ai.terms, b[j].terms))
    sums = combine(ring, acc)
    return [sums.get(n, ring.zero()) for n in range(depth + 1)]


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
        acc: dict[int, list] = {}
        for k, p in self.coeffs.items():
            acc.setdefault(k + 1, []).append((1, p.terms, UNIT))
            acc.setdefault(k, []).append((1, p.total_derivative().terms, UNIT))
        return LambdaPolynomial(self.ring, combine(self.ring, acc))

    def sub_neg_lam_d(self) -> "LambdaPolynomial":
        """Substitute lam -> -lam - d, the d landing on the coefficient."""
        acc: dict[int, list] = {}
        for k, p in self.coeffs.items():
            sgn = -1 if k % 2 else 1
            q = p
            for j in range(k, -1, -1):
                acc.setdefault(j, []).append(
                    (sgn * math.comb(k, j), q.terms, UNIT))
                if j:
                    q = q.total_derivative()
        return LambdaPolynomial(self.ring, combine(self.ring, acc))

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
    no power of lam + d is expanded.  The products of G_i and of each
    power of lam in the result are collected as (n, a, b) triples and
    summed by ``superpoly.sum_of_products`` in one integer accumulator.

    Arguments are ``BracketOperand``s: ``operand(p)`` prepares p once
    for this machine (its parity parts, its partials and F_i on the
    left, its pairs (y, dg/dy) on the right), and the operand keeps a
    memo of the rows G_i it has served as right argument, so an
    argument bracketed n times computes each of them once.  ``bracket``
    takes polynomials or operands and wraps polynomials itself, so both
    go through one evaluation.
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
        """Coefficient term dicts {k: ...} of G_i = {u_i _lam g} from the
        pairs (y, dg/dy), each power summed in one accumulator."""
        acc: dict[int, list] = {}
        for y, d in dg:
            for k, c in self._entry(i, y).coeffs.items():
                acc.setdefault(k, []).append((1, c.terms, d.terms))
        masks = self.ring.masks()  # after _entry may have added jets
        out = {}
        for k, triples in acc.items():
            terms = sum_of_products(triples, masks)
            if terms:
                out[k] = terms
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

    def operand(self, p: SuperPolynomial) -> "BracketOperand":
        """p prepared once as an argument of ``bracket`` on this machine."""
        return BracketOperand(self, p)

    def bracket(self, p, q) -> LambdaPolynomial:
        """{p _lam q} for polynomials or operands of this machine."""
        p, q = self._as_operand(p), self._as_operand(q)
        acc: dict[int, list] = {}
        for q_par, qq in enumerate(q.parts):
            if qq.is_zero():
                continue
            for p_par, partials in enumerate(p.partials()):
                for i in partials:
                    G = q.row(q_par, i)
                    if not G:
                        continue
                    odd = q_par and (p_par + self.ring.parity_of(i)) % 2
                    _collect_shifted(acc, G, p.shifted(p_par, i),
                                     -1 if odd else 1)
        # combine reads the parities after the derivatives of F_i
        return LambdaPolynomial(self.ring, combine(self.ring, acc))

    def _as_operand(self, x) -> "BracketOperand":
        if isinstance(x, BracketOperand):
            if x.machine is not self:
                raise ValueError("operand is prepared for another bracket")
            return x
        return BracketOperand(self, x)


class BracketOperand:
    """An argument of ``ArcBracket.bracket``, prepared once for reuse.

    Holds the parity parts of the polynomial.  On the left it supplies,
    per part and generator i, F_i = sum_m (-lam - d)^m df/du_i^(m) with
    the total derivatives of its coefficients, both computed on first
    use; on the right the pairs (y, dg/dy) per part and a memo of the
    rows G_i = {u_i _lam g}.  Every memo depends only on the polynomial
    and the machine's table, so an operand serves any number of brackets
    on its machine, on either side.
    """

    __slots__ = ("machine", "parts", "_partials", "_shifted", "_dg",
                 "_rows")

    def __init__(self, machine: ArcBracket, p: SuperPolynomial):
        if p.ring is not machine.ring:
            raise ValueError("polynomial is not in the bracket ring")
        self.machine = machine
        self.parts = p.parity_split()  # indexed by parity
        self._partials = None
        self._shifted: tuple[dict, dict] = ({}, {})
        self._dg = None
        self._rows: tuple[dict, dict] = ({}, {})

    def partials(self) -> list:
        """Per parity part, {i: {m: df/du_i^(m)}} over its jets."""
        if self._partials is None:
            self._partials = [self.machine._partials_by_generator(pp)
                              for pp in self.parts]
        return self._partials

    def shifted(self, par: int, i: int) -> dict:
        """F_i of the parity-par part as {l: [F_l, dF_l, d^2F_l, ...]};
        the derivative lists grow as the brackets need them."""
        got = self._shifted[par].get(i)
        if got is None:
            F = LambdaPolynomial(self.machine.ring,
                                 self.partials()[par][i]).sub_neg_lam_d()
            got = self._shifted[par][i] = {l: [f]
                                           for l, f in F.coeffs.items()}
        return got

    def row(self, par: int, i: int) -> dict:
        """G_i of the parity-par part as coefficient term dicts."""
        got = self._rows[par].get(i)
        if got is None:
            if self._dg is None:
                self._dg = [[(y, pp.partial_derivative(y))
                             for y in sorted(pp.variables_used())]
                            for pp in self.parts]
            got = self._rows[par][i] = \
                self.machine._generator_bracket(i, self._dg[par])
        return got


def _collect_shifted(acc: dict, G: Mapping[int, dict], F: Mapping[int, list],
                     sign: int) -> None:
    """Collect the products of sign * G(lam + d)_> F, that is
    sign * sum_k G_k (lam + d)^k F, as (n, a, b) triples per power of
    lam in acc; F maps each power l to the derivatives of its
    coefficient, extended here as far as k needs."""
    for k, g in G.items():
        for l, ds in F.items():
            while len(ds) <= k:
                ds.append(ds[-1].total_derivative())
            for r in range(k + 1):
                acc.setdefault(k - r + l, []).append(
                    (sign * math.comb(k, r), g, ds[r].terms))


def skew_defect(machine: ArcBracket, a: SuperPolynomial,
                b: SuperPolynomial) -> LambdaPolynomial:
    """{a_lam b} + (-1)^{|a||b|} {b_{-lam-d} a}; zero iff skew holds."""
    pa, pb = a.parity(), b.parity()
    if pa is None or pb is None:
        raise ValueError("skew check needs parity homogeneous arguments")
    lhs = machine.bracket(a, b)
    rhs = machine.bracket(b, a).sub_neg_lam_d()
    return lhs + (rhs.scale(-ONE) if pa and pb else rhs)


# -- jet-aware images and morphisms ----------------------------------------

class _JetImages:
    """Image table for a map commuting with the total derivative (the BRST
    derivation, a DifferentialMorphism): the image of a jet is the jet of
    the image of its base generator, computed once and cached.  Total
    derivatives multiply coefficients by integers only, so every jet
    image has denominators dividing the lcm of those of ``values()``,
    the base images (OddDerivation checks this on each image served)."""

    def __init__(self, ring: PolyRing, base: Mapping[int, SuperPolynomial]):
        self.ring = ring
        self.base = dict(base)
        self.cache = dict(base)

    def values(self):
        """The base images; jet images are served by ``get`` only."""
        return self.base.values()

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

    The generator rows of the lambda table are the chart's Poisson
    table (``SliceChart.poisson``); the ghost rows are read off the
    structure constants.  Q on a generator symbol is the gauge action
    pushed to the generators by the Poisson structure, each ghost
    multiplying from the left; on a ghost it is the coadjoint half-sum
    over the positive part.  Jets follow by commuting Q with the total
    derivative.  The constructor checks Q^2 = 0 on every generator; an
    odd derivation commuting with d whose square kills the order-zero
    generators squares to zero everywhere.

    Conformal weights: a generator for u of grading weight j carries
    1 - j, the ghost for a positive direction of weight j carries j,
    each jet order adds 1, and Q preserves the weight.
    """

    def __init__(self, chart: SliceChart):
        ps = chart.poisson
        alg, grading = chart.alg, chart.grading
        self.chart = chart
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

        table = {k: v.substitute({}, ring) for k, v in ps.table.items()}
        # {ph_a _lam u} = sum_b (coefficient of v_a in [u, v_b]) ph_b
        ghost_pos = {i: n + loc for loc, i in enumerate(pos_idx)}
        rows: dict[tuple[int, int], list] = {}
        for (iu, ib), br in alg.table.items():
            uloc, b = ps.gen_pos.get(iu), ghost_pos.get(ib)
            if uloc is None or b is None:
                continue
            for ia, c in br.items():
                a = ghost_pos.get(ia)
                if a is not None:
                    rows.setdefault((a, uloc), []).append(
                        (c, ring.gen(b).terms, UNIT))
        for (a, uloc), acc in combine(ring, rows).items():
            table[(a, uloc)] = acc
            # skew partner: {u_lam ph} = -(-1)^{|u||ph|} {ph_lam u}
            iu, ia = ps.gen_indices[uloc], pos_idx[a - n]
            both_odd = alg.parities[iu] and not alg.parities[ia]
            table[(uloc, a)] = acc * (ONE if both_odd else -ONE)
        self.bracket_machine = ArcBracket(ring, table)

        fields = ps.push_fields(_gauge_action_fields(chart, chart.ring), ring)
        images = _ce_images(alg.restrict_to(pos_idx), ring, fields, n)
        self._images = images
        self.Q = OddDerivation(ring, _JetImages(ring, images))
        _check_square_zero(ring, self.Q, images, "Q")

    def generator(self, label: str) -> SuperPolynomial:
        return self.ring.gen(self.ring.index[f"p_{label}"])

    def ghost(self, label: str) -> SuperPolynomial:
        return self.ring.gen(self.ring.index[f"ph_{label}"])

    def lambda_bracket(self, a: SuperPolynomial,
                       b: SuperPolynomial) -> LambdaPolynomial:
        return self.bracket_machine.bracket(a, b)


def brst_complex(chart: SliceChart) -> BRSTComplex:
    return BRSTComplex(chart)


# -- degree-zero cohomology by conformal weight -----------------------------

class TruncatedH0:
    """Degree-zero cohomology of the arc gauge complex per conformal
    weight, against the free differential ring on the slice generators
    as the independent size oracle."""

    def __init__(self, complex_: BRSTComplex, max_weight):
        w2cap = _as_wt2(max_weight)
        cx, chart = complex_, complex_.chart
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
        return self.graded.cocycles(0, _as_wt2(weight))


def h0_truncated(complex_: BRSTComplex, max_weight) -> TruncatedH0:
    return TruncatedH0(complex_, max_weight)


# -- the Miura map, one jet at a time ---------------------------------------

class GradedMiura:
    """Arc functor applied to the finite Miura map.

    Source: differential ring on the slice generators.  ``ring``: one
    differential ring on the chart coordinates, carrying the chart's
    Poisson structure moved to those coordinates
    (``PoissonStructure.coordinate_brackets``) in ``bracket_machine``.
    The order-zero generator maps to the finite Miura image of its
    invariant, a polynomial in the f + g_ini coordinates; jets map to
    total derivatives.  The constructor checks that brackets of g_ini
    coordinates stay in g_ini, so brackets of images never leave them.
    The finite map is injective (see the certificate); the jet extension
    adds one triangular block per derivative order, so injectivity
    carries over order by order.  No statement beyond the level-zero
    brackets is made here: the tables are constant in lambda and
    ``check_intertwining`` brackets order-zero generators and their
    images, so every bracket it compares has lambda-degree 0 and no
    jets, and the check re-derives the finite Poisson intertwining.
    """

    def __init__(self, chart: SliceChart):
        ps = chart.poisson
        self.chart = chart
        self.finite = finite_miura(chart)
        self.source = PolyRing([Variable(v.name, v.parity, wt2=v.wt2)
                                for v in chart.slice_ring.variables],
                               differential=True)
        self.ring = PolyRing([Variable(v.name, v.parity, wt2=v.wt2)
                              for v in chart.ring.variables],
                             differential=True)
        ini = set(self.finite.ini_positions)
        table = ps.coordinate_brackets(self.ring)
        for (b, c), val in table.items():
            if b in ini and c in ini and not val.variables_used() <= ini:
                raise ValueError("bracket value leaves the g_ini coordinates")
        self.bracket_machine = ArcBracket(self.ring, table)
        base: dict[int, SuperPolynomial] = {}
        for nn, lab in enumerate(chart.inv_order):
            img = self.finite.images[lab]
            if not img.variables_used() <= ini:
                raise ValueError("Miura image leaves the g_ini coordinates")
            base[nn] = img.substitute({}, self.ring)
        self.morphism = DifferentialMorphism(self.source, self.ring, base)
        self._embed = DifferentialMorphism(
            self.source, self.ring,
            {nn: chart.invariants[lab].substitute({}, self.ring)
             for nn, lab in enumerate(chart.inv_order)})
        spoint = chart.slice_point()
        rest: dict[int, SuperPolynomial] = {}
        for b, bi in enumerate(chart.coord_indices):
            comp = spoint.get(bi)
            rest[b] = self.source.zero() if comp is None \
                else comp.substitute({}, self.source)
        self._restrict = DifferentialMorphism(self.ring, self.source, rest)

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        return self.morphism(p)

    def source_bracket(self, a: SuperPolynomial,
                       b: SuperPolynomial) -> LambdaPolynomial:
        """{a_lam b} on the slice jets, computed through the chart
        coordinates and re-expressed on the slice; raises if any
        coefficient fails to live on the slice jets."""
        return self._to_slice(
            self.bracket_machine.bracket(self._embed(a), self._embed(b)))

    def _to_slice(self, P: LambdaPolynomial) -> LambdaPolynomial:
        out: dict[int, SuperPolynomial] = {}
        for k, c in P.coeffs.items():
            r = self._restrict(c)
            if self._embed(r) != c:
                raise ValueError("lambda bracket leaves the slice jets")
            out[k] = r
        return LambdaPolynomial(self.source, out)

    def check_intertwining(self) -> dict:
        """Bracket of the images equals the image of the slice bracket,
        on every ordered generator pair, both brackets taken in the one
        coordinate ring."""
        labs = self.chart.inv_order
        gens = [self.source.gen(i) for i in range(len(labs))]
        B = self.bracket_machine
        images = [B.operand(self(g)) for g in gens]
        embedded = [B.operand(self._embed(g)) for g in gens]
        out = {}
        for i, la in enumerate(labs):
            for j, lb in enumerate(labs):
                lhs = B.bracket(images[i], images[j])
                rhs = self.morphism.on_lambda(self._to_slice(
                    B.bracket(embedded[i], embedded[j])))
                if lhs != rhs:
                    raise ValueError("Miura images fail the lambda bracket "
                                     f"on ({la}, {lb})")
                out[(la, lb)] = True
        return out


def graded_miura(chart: SliceChart) -> GradedMiura:
    return GradedMiura(chart)

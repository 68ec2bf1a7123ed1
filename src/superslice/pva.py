"""Lambda brackets and the differential-graded side of the slice
construction.

Two layers:

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

* ``brst_complex``, ``h0_truncated``, ``GradedMiura``: arc objects on
  differential rings on the chart coordinates.  The arc gauge complex
  is Q, the chart's one gauge derivation (``SliceChart.gauge_ce``),
  which ``brst_complex`` returns once the chart's form is checked; its
  degree-zero cohomology is sized per conformal weight against the
  free differential ring on the slice generators.
  The arc functor applied to the chart's finite Miura image
  (``SliceChart.miura``) maps the chart's slice ring to its coordinate
  ring; both are differential, and the coordinate ring carries the
  chart's one Poisson structure (``SliceChart.poisson``).  The
  intertwining check takes both of its brackets there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .cohomology import (_as_wt2, _JetImages, OddDerivation,
                         kernel_generators, slice_ce_complex,
                         weighted_monomial_counts)
from .slice import SliceChart, check_poisson_form
from .superpoly import (UNIT, IntTerms, PolyRing, SuperPolynomial, combine,
                        sum_of_products)

ONE = Fraction(1)


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
            acc.setdefault(k + 1, []).append((1, p, UNIT))
            acc.setdefault(k, []).append((1, p.total_derivative(), UNIT))
        return LambdaPolynomial(self.ring, combine(self.ring, acc))

    def sub_neg_lam_d(self) -> "LambdaPolynomial":
        """Substitute lam -> -lam - d, the d landing on the coefficient."""
        acc: dict[int, list] = {}
        for k, p in self.coeffs.items():
            sgn = -1 if k % 2 else 1
            q = p
            for j in range(k, -1, -1):
                acc.setdefault(j, []).append(
                    (sgn * math.comb(k, j), q, UNIT))
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
    convention of the finite Poisson structure.  The engine does not
    impose skew-symmetry; it holds whenever the table is skew.
    ``GradedMiura.check_intertwining`` relies on it, and checks its
    table first.

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
        """Coefficients {k: IntTerms} of G_i = {u_i _lam g} from the
        pairs (y, dg/dy), each power summed in one accumulator."""
        acc: dict[int, list] = {}
        for y, d in dg:
            for k, c in self._entry(i, y).coeffs.items():
                acc.setdefault(k, []).append((1, c, d))
        masks = self.ring.masks()  # after _entry may have added jets
        out = {}
        for k, triples in acc.items():
            got = sum_of_products(triples, masks)
            if got.terms:
                out[k] = got
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
        """G_i of the parity-par part as {k: IntTerms}."""
        got = self._rows[par].get(i)
        if got is None:
            if self._dg is None:
                self._dg = [[(y, pp.partial_derivative(y))
                             for y in sorted(pp.variables_used())]
                            for pp in self.parts]
            got = self._rows[par][i] = \
                self.machine._generator_bracket(i, self._dg[par])
        return got


def _collect_shifted(acc: dict, G: Mapping[int, IntTerms],
                     F: Mapping[int, list],
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
                    (sign * math.comb(k, r), g, ds[r]))


# -- jet-aware images and morphisms ----------------------------------------

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

def brst_complex(chart: SliceChart) -> OddDerivation:
    """Q of the arc gauge complex: the chart's one gauge derivation
    (``SliceChart.gauge_ce``), built and squared on first use.  The
    complex belongs to the chart's Poisson reduction, so a formless or
    degenerate form is refused first, from the rank of M alone: Q
    reads no bracket, and the chart's Poisson structure is not built."""
    check_poisson_form(chart)
    return chart.gauge_ce


# -- degree-zero cohomology by conformal weight -----------------------------

class TruncatedH0:
    """Degree-zero cohomology of the arc gauge complex per conformal
    weight, against the free differential ring on the slice generators
    as the independent size oracle.  ``order_zero`` is the chart's
    ``slice_ce_complex``, Q on the order-zero coordinates and ghosts,
    where delta is read, built checking the exponent limit up to the
    cutoff; Q_0 is delta (x) C[d], so ``dimensions`` counts the jets of
    ker delta (``cohomology.kernel_generators``), taking no rank of Q."""

    def __init__(self, chart: SliceChart, max_weight):
        w2cap = _as_wt2(max_weight)
        self.max_wt2 = w2cap
        generators = chart.slice_generators()
        top = max(v.wt2 for v in generators)
        if top > w2cap:
            raise ValueError(
                f"max weight {Fraction(w2cap, 2)} is below the largest "
                f"slice generator weight {Fraction(top, 2)}")
        self.order_zero = slice_ce_complex(chart, max_weight)
        self.expected = _jet_counts(
            [(v.wt2, v.parity) for v in generators], w2cap)

    def dimensions(self) -> dict:
        h0 = _jet_counts(kernel_generators(self.order_zero), self.max_wt2)
        return {Fraction(n2, 2): h0.get(n2, 0)
                for n2 in range(self.max_wt2 + 1)}

    def consistent(self, dims: dict) -> bool:
        """``dims``, from ``dimensions``, equal the free differential
        ring counts."""
        have = {w: d for w, d in dims.items() if d}
        want = {Fraction(n2, 2): c for n2, c in self.expected.items() if c}
        return have == want


def _jet_counts(gens, max_wt2: int) -> dict[int, int]:
    """Monomial counts of the free differential ring on gens, a list of
    (wt2, parity), each jet order adding weight 1."""
    return weighted_monomial_counts(
        [(w, p) for w0, p in gens for w in range(w0, max_wt2 + 1, 2)],
        max_wt2)


def h0_truncated(chart: SliceChart, max_weight) -> TruncatedH0:
    return TruncatedH0(chart, max_weight)


# -- the Miura map, one jet at a time ---------------------------------------

class GradedMiura:
    """Arc functor applied to the finite Miura map.

    ``source`` is the chart's slice ring and ``ring`` its coordinate
    ring, both differential; ``bracket_machine`` carries the chart's
    Poisson table (``PoissonStructure.coordinate_table``) on ``ring``,
    and ``finite`` is the chart's finite Miura image
    (``SliceChart.miura``).  All are read as they are, so jets served
    here are added to the chart's rings.  The order-zero generator maps
    to the finite Miura image of its invariant, a polynomial in the
    f + g_ini coordinates; jets map to total derivatives.  The
    constructor checks that brackets of g_ini coordinates stay in g_ini,
    so brackets of images never leave them.
    The finite map is injective (see the certificate).  Whether the jet
    extension stays injective weight by weight is not checked here or
    by any stage; ROADMAP item 4 ("the jet Miura map is injective,
    weight by weight") describes that check, the arc-side one that
    would carry weight: ``pva-h0`` takes no rank of Q and rests on
    delta being onto, Q^2 = 0 and the degree-filtration bound
    (``cohomology``).  No statement beyond the level-zero brackets is
    made here: the tables are constant in lambda
    and ``check_intertwining`` brackets order-zero generators and their
    images, so every bracket it compares has lambda-degree 0 and no
    jets, and the check re-derives the finite Poisson intertwining.
    Because such a bracket is skew-symmetric, the check takes each
    source bracket once per unordered pair and none on an even
    diagonal (see ``check_intertwining``).
    """

    def __init__(self, chart: SliceChart):
        self.chart = chart
        self.finite = chart.miura
        self.source = chart.slice_ring
        self.ring = chart.ring
        ini = set(self.finite.ini_positions)
        table = chart.poisson.coordinate_table
        for (b, c), val in table.items():
            if b in ini and c in ini and not val.variables_used() <= ini:
                raise ValueError("bracket value leaves the g_ini coordinates")
        self.bracket_machine = ArcBracket(self.ring, table)
        base: dict[int, SuperPolynomial] = {}
        for nn, lab in enumerate(chart.inv_order):
            img = self.finite.images[lab]
            if not img.variables_used() <= ini:
                raise ValueError("Miura image leaves the g_ini coordinates")
            base[nn] = img
        self.morphism = DifferentialMorphism(self.source, self.ring, base)
        self._embed = DifferentialMorphism(
            self.source, self.ring,
            {nn: chart.invariants[lab]
             for nn, lab in enumerate(chart.inv_order)})
        spoint = chart.slice_point()
        rest = {b: spoint.get(bi, self.source.zero())
                for b, bi in enumerate(chart.coord_indices)}
        self._restrict = DifferentialMorphism(self.ring, self.source, rest)

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        return self.morphism(p)

    def _to_slice(self, P: LambdaPolynomial) -> LambdaPolynomial:
        out: dict[int, SuperPolynomial] = {}
        for k, c in P.coeffs.items():
            r = self._restrict(c)
            if self._embed(r) != c:
                raise ValueError("lambda bracket leaves the slice jets")
            out[k] = r
        return LambdaPolynomial(self.source, out)

    def _check_table(self) -> None:
        """Every generator bracket is constant in lambda and skew:
        {u_c _lam u_b} = -(-1)^{|b||c|} {u_b _lam u_c}, an absent entry
        counting as zero."""
        table, ring = self.bracket_machine.table, self.ring
        zero = LambdaPolynomial(ring)
        for (b, c), val in table.items():
            at = f"({ring.variables[b].name}, {ring.variables[c].name})"
            if val.degree() > 0:
                raise ValueError(f"bracket table is not constant in lambda "
                                 f"at {at}")
            both_odd = ring.parity_of(b) and ring.parity_of(c)
            if table.get((c, b), zero) != (val if both_odd else -val):
                raise ValueError(f"bracket table is not skew-symmetric "
                                 f"at {at}")

    def check_intertwining(self) -> dict:
        """Bracket of the images equals the image of the slice bracket,
        on every ordered generator pair, both brackets taken in the one
        coordinate ring.

        The left side {mu I_a _lam mu I_b} is computed for every ordered
        pair.  The right side mu{I_a _lam I_b} is computed for a < b and
        on odd diagonals, with the closure check of ``_to_slice``.  The
        rest follows from skew-symmetry of the source bracket, which
        holds when the table is constant in lambda and skew (checked
        first) and each invariant has the parity of its generator (as
        substitution checks): for b < a the right side is
        -(-1)^{|a||b|} times the (b, a) one with lam -> -lam - d, and on
        an even diagonal it is zero, since a bracket of lambda-degree 0
        equal to minus itself vanishes.  This halves the source brackets
        and skips the even diagonals, the costliest of them; each
        ordered pair still compares two independently computed sides."""
        self._check_table()
        labs = self.chart.inv_order
        gens = [self.source.gen(i) for i in range(len(labs))]
        par = [self.source.parity_of(i) for i in range(len(labs))]
        B = self.bracket_machine
        images = [B.operand(self(g)) for g in gens]
        embedded = [B.operand(self._embed(g)) for g in gens]
        upper: dict[tuple[int, int], LambdaPolynomial] = {}
        out = {}
        for i, la in enumerate(labs):
            for j, lb in enumerate(labs):
                if i < j or i == j and par[i]:
                    rhs = upper[(i, j)] = self.morphism.on_lambda(
                        self._to_slice(B.bracket(embedded[i], embedded[j])))
                elif i == j:
                    rhs = LambdaPolynomial(self.ring)
                else:
                    rhs = upper[(j, i)].sub_neg_lam_d()
                    if not (par[i] and par[j]):
                        rhs = -rhs
                if B.bracket(images[i], images[j]) != rhs:
                    raise ValueError("Miura images fail the lambda bracket "
                                     f"on ({la}, {lb})")
                out[(la, lb)] = True
        return out


def graded_miura(chart: SliceChart) -> GradedMiura:
    return GradedMiura(chart)

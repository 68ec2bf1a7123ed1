"""The chart's Poisson bracket and the differential-graded side of the
slice construction.

Two layers:

* ``ArcBracket``: the finite Poisson bracket on the chart coordinates,
  the biderivation extending the chart's table of generator brackets
  (``PoissonStructure.coordinate_table``).  The Miura check works at
  level zero: every generator bracket is constant in lambda, and
  ``GradedMiura.check_intertwining`` brackets order-zero generators and
  their images only, so each lambda bracket it compares has no jets,
  has lambda-degree 0 and is this finite bracket (De Sole and Kac,
  "Finite vs affine W-algebras", Japan. J. Math. 1, 2006).  The Miura
  map is a morphism of differential algebras, so sesquilinearity and
  the Leibniz rules carry the identity on generators to the whole arc
  algebra; no lambda bracket is evaluated.  A level would bring powers
  of lambda back (ROADMAP item 8), and so would a jet in an argument,
  which the bracket refuses.

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

from fractions import Fraction
from typing import Mapping, Optional

from .cohomology import (_as_wt2, _JetImages, OddDerivation,
                         kernel_generators, slice_ce_complex,
                         weighted_monomial_counts)
from .slice import SliceChart, check_poisson_form
from .superpoly import (UNIT, PolyRing, SuperPolynomial, _poly,
                        sum_of_products)


# -- the finite Poisson bracket on the chart coordinates -------------------

class ArcBracket:
    """Finite Poisson bracket on a polynomial ring: the biderivation
    extending ``table``, which maps pairs (i, j) of order-zero variable
    positions to the polynomial T_ij = {u_i, u_j}.

    For f and g of pure parity, with left partial derivatives d_i:

        {f, g} = sum_i (-1)^{|g|(|f|+|u_i|)} G_i d_i f,
        G_i    = {u_i, g} = sum_j T_ij d_j g.

    The right Leibniz rule makes {u_i, .} the left derivation
    sum_j T_ij d_j, which gives G_i; the left rule gives the sum over
    i, its sign the Koszul sign of moving g past d_i f, of parity
    |f| + |u_i|.  Mixed-parity arguments are split into parity parts.
    This is the lambda bracket of two arguments without jets on a table
    constant in lambda (see the module docstring), so an argument that
    holds a jet is refused rather than given a bracket without its
    powers of lambda.  The bracket does not impose skew-symmetry; it
    holds whenever the table is skew.
    ``GradedMiura.check_intertwining`` relies on it, and checks its
    table first.

    Arguments are ``BracketOperand``s: ``operand(p)`` prepares p once
    (its parity parts and their partials d_i), and the operand keeps a
    memo of the rows G_i it has served as right argument, so an
    argument bracketed n times computes each of them once.  A row is
    summed by ``superpoly.sum_of_products`` in one integer accumulator;
    each product G_i d_i f is taken with ``*``, and the products are
    summed once.  ``bracket`` takes polynomials or operands and wraps
    polynomials itself, so both go through one evaluation.
    """

    def __init__(self, ring: PolyRing,
                 table: Mapping[tuple, SuperPolynomial]):
        self.ring = ring
        self.table: dict[tuple[int, int], SuperPolynomial] = {}
        for (i, j), val in table.items():
            if val.ring is not ring:
                raise ValueError("table value in wrong ring")
            if not val.is_zero():
                self.table[(i, j)] = val

    def _row(self, i: int, dg: Mapping[int, SuperPolynomial]
             ) -> Optional[SuperPolynomial]:
        """G_i = sum_j T_ij d_j g from the partials {j: d_j g}; None when
        zero."""
        table = self.table
        got = sum_of_products([(1, table[(i, j)], d) for j, d in dg.items()
                               if (i, j) in table], self.ring.masks())
        return _poly(self.ring, *got) if got.terms else None

    def operand(self, p: SuperPolynomial) -> "BracketOperand":
        """p prepared once as an argument of ``bracket`` on this machine."""
        return BracketOperand(self, p)

    def bracket(self, p, q) -> SuperPolynomial:
        """{p, q} for polynomials or operands of this machine."""
        p, q = self._as_operand(p), self._as_operand(q)
        parity = self.ring.parity_of
        products = []
        for q_par, qq in enumerate(q.parts):
            if qq.is_zero():
                continue
            for p_par, partials in enumerate(p.partials()):
                for i, df in partials.items():
                    G = q.row(q_par, i)
                    if G is not None:
                        odd = q_par and (p_par + parity(i)) % 2
                        products.append((-1 if odd else 1, G * df, UNIT))
        return _poly(self.ring, *sum_of_products(products, self.ring.masks()))

    def _as_operand(self, x) -> "BracketOperand":
        if isinstance(x, BracketOperand):
            if x.machine is not self:
                raise ValueError("operand is prepared for another bracket")
            return x
        return BracketOperand(self, x)


class BracketOperand:
    """An argument of ``ArcBracket.bracket``, prepared once for reuse.

    Holds the parity parts of the polynomial and, computed on first use,
    their partials {i: d_i f}, read on the left as the d_i f and on the
    right as the d_j g of the rows; and a memo of the rows
    G_i = {u_i, g} per part.  Every memo depends only on the polynomial
    and the machine's table, so an operand serves any number of brackets
    on its machine, on either side.
    """

    __slots__ = ("machine", "parts", "_partials", "_rows")

    def __init__(self, machine: ArcBracket, p: SuperPolynomial):
        ring = machine.ring
        if p.ring is not ring:
            raise ValueError("polynomial is not in the bracket ring")
        for x in sorted(p.variables_used()):
            if ring.variables[x].order:
                raise ValueError(f"bracket argument holds the jet "
                                 f"{ring.variables[x].name}: the finite "
                                 f"bracket takes no jets")
        self.machine = machine
        self.parts = p.parity_split()  # indexed by parity
        self._partials = None
        self._rows: tuple[dict, dict] = ({}, {})

    def partials(self) -> list:
        """Per parity part, {i: d_i f} over its variables."""
        if self._partials is None:
            self._partials = [{x: pp.partial_derivative(x)
                               for x in sorted(pp.variables_used())}
                              for pp in self.parts]
        return self._partials

    def row(self, par: int, i: int) -> Optional[SuperPolynomial]:
        """G_i of the parity-par part; None when zero."""
        rows = self._rows[par]
        if i not in rows:
            rows[i] = self.machine._row(i, self.partials()[par])
        return rows[i]


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
    (``cohomology``).  The check is made at level zero: the table is
    constant in lambda and ``check_intertwining`` brackets order-zero
    generators and their images, so every lambda bracket it compares
    has no jets and is the finite Poisson bracket that
    ``bracket_machine`` takes.  The Miura map commutes with d, so
    sesquilinearity and the Leibniz rules carry the identity on the
    generators to every jet and product.  Because the finite bracket of
    a skew table is skew-symmetric, the check takes each source bracket
    once per unordered pair and none on an even diagonal (see
    ``check_intertwining``).
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

    def _to_slice(self, p: SuperPolynomial) -> SuperPolynomial:
        """A bracket of embedded invariants as a polynomial on the slice
        ring; raises when it is no function of the invariants."""
        r = self._restrict(p)
        if self._embed(r) != p:
            raise ValueError(
                "source bracket is no function of the invariants")
        return r

    def _check_table(self) -> None:
        """Every generator bracket is skew:
        {u_c, u_b} = -(-1)^{|b||c|} {u_b, u_c}, an absent entry counting
        as zero."""
        table, ring = self.bracket_machine.table, self.ring
        zero = ring.zero()
        for (b, c), val in table.items():
            both_odd = ring.parity_of(b) and ring.parity_of(c)
            if table.get((c, b), zero) != (val if both_odd else -val):
                raise ValueError(f"bracket table is not skew-symmetric at "
                                 f"({ring.variables[b].name}, "
                                 f"{ring.variables[c].name})")

    def check_intertwining(self) -> dict:
        """Bracket of the images equals the image of the slice bracket,
        on every ordered generator pair, both brackets taken in the one
        coordinate ring.

        The left side {mu I_a, mu I_b} is computed for every ordered
        pair.  The right side mu{I_a, I_b} is computed for a < b and on
        odd diagonals, with the closure check of ``_to_slice``.  The
        rest follows from skew-symmetry of the source bracket, which
        holds when the table is skew (checked first) and each invariant
        has the parity of its generator (as substitution checks): for
        b < a the right side is -(-1)^{|a||b|} times the (b, a) one, and
        on an even diagonal it is zero, being equal to minus itself.
        This halves the source brackets and skips the even diagonals,
        the costliest of them; each ordered pair still compares two
        independently computed sides."""
        self._check_table()
        labs = self.chart.inv_order
        gens = [self.source.gen(i) for i in range(len(labs))]
        par = [self.source.parity_of(i) for i in range(len(labs))]
        B = self.bracket_machine
        images = [B.operand(self(g)) for g in gens]
        embedded = [B.operand(self._embed(g)) for g in gens]
        upper: dict[tuple[int, int], SuperPolynomial] = {}
        out = {}
        for i, la in enumerate(labs):
            for j, lb in enumerate(labs):
                if i < j or i == j and par[i]:
                    rhs = upper[(i, j)] = self.morphism(self._to_slice(
                        B.bracket(embedded[i], embedded[j])))
                elif i == j:
                    rhs = self.ring.zero()
                elif par[i] and par[j]:
                    rhs = upper[(j, i)]
                else:
                    rhs = -upper[(j, i)]
                if B.bracket(images[i], images[j]) != rhs:
                    raise ValueError("Miura images fail the Poisson bracket "
                                     f"on ({la}, {lb})")
                out[(la, lb)] = True
        return out


def graded_miura(chart: SliceChart) -> GradedMiura:
    return GradedMiura(chart)

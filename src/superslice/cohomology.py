"""Weight-graded Chevalley-Eilenberg cohomology, exact, in closed form
from the linear part of d.

The whole complex lives in a single superpolynomial ring: module
variables first, then one ghost variable per basis vector of the acting
nilpotent algebra, with reversed parity.  The differential is the odd
derivation determined on generators by

    d(m)     = sum_a ph^a . R(v_a)(m)
    d(ph^c)  = -1/2 sum_{a,b} (-1)^{|v_a||v_c|} str^c_{ab} ph^a ph^b

where R is the infinitesimal action of the acting algebra: the right
regular representation on exponential group coordinates (a Bernoulli
series of brackets, see supergroup), or the gauge action R(v_a)(Z) =
[Z, v_a] on the coordinates of f + g_{>=-1/2}.  str^c_{ab} are the
structure constants of the acting algebra.  One routine, _ce_images,
builds these generator images for all three complexes; _gauge_ce builds
the gauge complex's ring and images.  OddDerivation applies d to a
polynomial p as sum_i d(x_i) . d_i p, left partials d_i, the one
Leibniz rule of the package (superpoly.total_derivative and the rows
of pva.ArcBracket take theirs the same way); every image has the
parity opposite to its generator, which OddDerivation checks.  The
ghost must multiply from the left: only then does the Leibniz extension
of the generator images reproduce sum_a ph^a . R(v_a)(.) on the whole
ring (R(v_a) is a superderivation of parity |v_a|, and moving ph^a in
from the right would cost monomial-dependent signs).  differential
builds every derivation, jets served by _JetImages, and checks d^2 on
the order-zero generators: an odd derivation commuting with the total
derivative squares to an even one that does too, so that is d^2 = 0
everywhere.
The chart squares its gauge derivation once (SliceChart.gauge_ce): d
of the slice complex, Q of the arc complex (pva.brst_complex).

Every variable carries a nonzero weight and all weights share one sign,
so each weight block is finite dimensional.  Give every complex
variable polynomial degree 1.  No image has a term of degree 0
(linear_part refuses one), so d = d_0 + d_1 + ..., d_i raising the
degree by i.  When the images are of Koszul shape (each degree-1 term
of a module image a ghost of its block, none in a ghost image, as for
any odd d raising the ghost degree by 1), d_0 sends z_b to
sum_a c_ab ph_a, the constant part of its field times the ghost, and
each ghost to zero: (C, d_0) is Sym(V, delta) for a constant delta:
span(z) -> span(ph) that keeps the weight and flips the parity, its
blocks the z of weight w and parity p against the ph of weight w and
parity 1 - p.  Over Q, Kunneth gives H(d_0) = Sym(ker delta) (x)
Sym(coker delta), coker delta in degree 1.  By degree, d is block
triangular with d_0 on its diagonal, so dim H^k(d) <= dim H^k(d_0),
with equal Euler characteristics (the degree filtration: Gan and
Ginzburg, IMRN 2002; Kostant, Invent. Math. 1978).

delta is onto on every complex built here: on the gauge complexes
delta(z_b) = sum_a ([f, v_a])_b ph_a, so rank delta = dim g_+ exactly
when ad_f is injective on g_+, which GoodGrading._validate checks; on
the regular complex delta is the identity.  So H^k(d) = 0 for k > 0
and H^0(d) has the monomial counts of ker delta at every weight (on
the arc complex, Q_0 = delta (x) C[d], those of its jets).
kernel_generators reads ker delta, one row_rank per block, and raises
ValueError where this does not hold: images not of Koszul shape,
delta not onto at a weight, a term of degree 0.  The tests check the
closed form, and that ker delta has the weights and parities of the
slice generators (the transversality of the slice, Gan and Ginzburg),
against the ranks of d: block_basis, d_matrix and cohomology_dim,
which no stage calls.  d^2 = 0 is checked on every complex.

Monomial keys hold exponents up to superpoly.EMAX = 127, and
GradedComplex refuses a deeper truncation at construction
(check_exponent_limit, OverflowError).  The reference ranks run in
Python ints: GradedComplex.d_matrix reads each row from the numerators
of d(m) for a basis monomial m, and linalg.row_rank eliminates them
fraction-free.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence

from .liealg import GoodGrading, LieSuperalgebra
from .linalg import row_rank
from .supergroup import regular_representation
from .superpoly import (EMAX, PolyRing, SuperPolynomial, Variable, _poly,
                        combine, lowest_variable, sum_of_products, var_key)


class OddDerivation:
    """Extension of generator images to an odd derivation of the whole ring.

    Calling it maps a polynomial p to d(p) = sum_i d(x_i) . d_i p over
    the variables of p, with left partial derivatives d_i, summed by one
    ``superpoly.sum_of_products`` (as ``total_derivative`` sums its
    even derivation); missing generators map to zero.  This is the left
    Leibniz rule d(ab) = d(a) b + (-1)^{|a|} a d(b) exactly when each
    image d(x_i) is zero or of parity |x_i| + 1, which ``_image`` checks
    once per generator, on its first use, raising ``ValueError`` naming
    the generator otherwise.  The images may be a lazy table whose
    ``get`` serves more generators than it was built with, as
    ``_JetImages`` serves jets; each image keeps its own denominator.
    """

    def __init__(self, ring: PolyRing, images: Mapping[int, SuperPolynomial]):
        self.ring = ring
        self.images = images
        self._checked: dict[int, SuperPolynomial] = {}

    def _image(self, i: int) -> SuperPolynomial:
        """d(x_i), zero if it has no image, its parity checked."""
        got = self._checked.get(i)
        if got is None:
            got = self.images.get(i)
            if got is None:
                got = self.ring.zero()
            elif got.terms and got.parity() != 1 - self.ring.parity_of(i):
                name = self.ring.variables[i].name
                raise ValueError(f"image of {name} must have the parity "
                                 f"opposite to {name}")
            self._checked[i] = got
        return got

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        ring = self.ring
        images = [(i, self._image(i)) for i in sorted(p.variables_used())]
        triples = [(1, img, p.partial_derivative(i))
                   for i, img in images if img.terms]
        return _poly(ring, *sum_of_products(triples, ring.masks()))


class _JetImages:
    """Image table for a map commuting with the total derivative (every
    derivation from ``differential``, a ``pva.DifferentialMorphism``):
    the image of a jet is the jet of the image of its base generator,
    computed once and cached, each jet as the total derivative of the
    one below, so serving jets 1..K takes K derivatives.  A jet image
    has the parity of its base image."""

    def __init__(self, ring: PolyRing, base: Mapping[int, SuperPolynomial]):
        self.ring = ring
        self.base = dict(base)
        self.cache = dict(base)

    def get(self, j: int, default=None):
        got = self.cache.get(j)
        if got is not None:
            return got
        ring = self.ring
        v = ring.variables[j]
        if not v.order:
            return default
        i = ring.index[v.base]
        img = self.cache.get(i)
        if img is None:
            return default
        # climb the jets of the base: one derivative per jet not cached
        for _ in range(v.order):
            i = ring.derivative_index(i)
            got = self.cache.get(i)
            img = got if got is not None else img.total_derivative()
            self.cache[i] = img
        return img


def differential(ring: PolyRing,
                 images: Mapping[int, SuperPolynomial]) -> OddDerivation:
    """The odd derivation with the given images of the order-zero
    generators, jets served by ``_JetImages``, once it kills each of
    those images; raises ``ValueError`` "d^2 != 0 on generator ..."
    otherwise.  Its square is an even derivation commuting with the
    total derivative, so it then vanishes on the whole ring."""
    d = OddDerivation(ring, _JetImages(ring, images))
    for pos, img in images.items():
        sq = d(img)
        if not sq.is_zero():
            raise ValueError(f"d^2 != 0 on generator "
                             f"{ring.variables[pos].name}: {sq.text()}")
    return d


def check_exponent_limit(ring: PolyRing, positions: Sequence[int],
                         max_wt2: int) -> None:
    """Raise OverflowError if a weight block up to ``max_wt2`` on the
    variables at ``positions`` holds a power above ``EMAX`` of an even
    variable.  The block of weight w holds x^e whenever e |wt(x)| <= |w|,
    so the lightest even variable sets the largest exponent; an odd one
    never exceeds 1.  GradedComplex runs this on construction, before
    it reads any image."""
    even = [ring.variables[p] for p in positions if not ring.parity_of(p)]
    if not even:
        return
    v = min(even, key=lambda v: abs(v.wt2))
    e = max_wt2 // abs(v.wt2)
    if e > EMAX:
        raise OverflowError(
            f"max weight {Fraction(max_wt2, 2)} needs {v.name}^{e} "
            f"({v.name} of weight {Fraction(v.wt2, 2)}), above the "
            f"exponent limit {EMAX}")


class GradedComplex:
    """Finite weight blocks of a ring with an odd square-zero derivation.

    ``d`` comes from ``differential``, its square checked.
    ``module_positions`` and ``ghost_positions`` list the ring variables
    the complex is built on (the ring may hold more: the arc jets);
    cohomological degree counts ghost factors with multiplicity.
    Weights are doubled integers internally, matching the ring's ``wt2``
    convention.  The constructor checks, in order, that the truncation
    is not negative, that every variable has a nonzero weight and all
    share a sign, and that no block needs an exponent above ``EMAX``
    (``OverflowError``); it builds no derivation and reads no image.

    A block (k, n2) has the monomials of ghost degree k and doubled
    weight n2 as its basis, in a fixed enumeration order (``_monomials``);
    ``max_degree`` reads a weight's highest ghost degree from a knapsack
    instead.  ``d_matrix`` gives d on a block as sparse integer rows,
    one per source monomial (the transpose of the matrix of d, each row
    over its own denominator), the rank reference of the module
    docstring; ranks are taken on those rows and cached, since H^k and
    H^{k+1} both need the rank of d on block k.
    """

    def __init__(self, d: OddDerivation, module_positions: Sequence[int],
                 ghost_positions: Sequence[int], max_wt2: int):
        if max_wt2 < 0:
            raise ValueError(f"max weight must be at least 0, got "
                             f"{Fraction(max_wt2, 2)}")
        self.d = d
        self.ring = ring = d.ring
        self.module_positions = list(module_positions)
        self.ghost_positions = list(ghost_positions)
        self.positions = self.module_positions + self.ghost_positions
        self.ghost_set = set(self.ghost_positions)
        self.max_wt2 = max_wt2
        w2s = [ring.variables[p].wt2 for p in self.positions]
        if any(w is None or w == 0 for w in w2s):
            raise ValueError("every complex variable needs a nonzero weight")
        if len({1 if w > 0 else -1 for w in w2s}) > 1:
            raise ValueError("variable weights must share a sign")
        self.sign = 1 if w2s[0] > 0 else -1
        check_exponent_limit(ring, self.positions, max_wt2)
        # by position of the complex: weight with the sign removed,
        # parity, ghost degree and key of one factor
        self._w2 = [w * self.sign for w in w2s]
        self._odd = [ring.parity_of(p) for p in self.positions]
        self._gdeg = [int(p in self.ghost_set) for p in self.positions]
        self._unit = [var_key(p) for p in self.positions]
        # no monomial in positions i.. has a weight below _min_w2[i]
        self._min_w2 = [min(self._w2[i:]) for i in range(len(w2s))]
        # bit k of _reach[r]: a monomial of weight r (doubled, sign
        # removed) has ghost degree k; odd positions are taken once
        reach = [1] + [0] * max_wt2
        for w, odd, g in zip(self._w2, self._odd, self._gdeg):
            for r in (range(max_wt2, w - 1, -1) if odd
                      else range(w, max_wt2 + 1)):
                reach[r] |= reach[r - w] << g
        self._reach = reach
        # (i, r) -> {k: monomials}, see _monomials
        self._memo: dict[tuple[int, int], dict[int, list[int]]] = {}
        # rank of d on block (k, n2); H^k and H^{k+1} both need it
        self._ranks: dict[tuple[int, int], int] = {}

    # -- weight blocks -----------------------------------------------------

    def _monomials(self, i: int, r: int) -> dict[int, list[int]]:
        """The monomials of weight r (doubled, sign removed) in positions
        i.. as {ghost degree k: keys}: first those without position i,
        then those with exponent e = 1, 2, ... of it, each times those
        of weight r - e w_i in positions i+1..; memoized by (i, r) for
        every weight, the lists shared between entries (do not modify)."""
        memo = self._memo
        got = memo.get((i, r))
        if got is not None:
            return got
        if r == 0:
            got = {0: [0]}
        elif i == len(self._w2) or r < self._min_w2[i]:
            got = {}
        else:
            w = self._w2[i]
            cap = r // w
            if cap > 1 and self._odd[i]:
                cap = 1
            got = self._monomials(i + 1, r)
            if cap:
                got = {k: list(ms) for k, ms in got.items()}
                unit, g = self._unit[i], self._gdeg[i]
                for e in range(1, cap + 1):
                    s = e * unit
                    for k, ms in self._monomials(i + 1, r - w * e).items():
                        got.setdefault(k + g * e, []).extend(
                            [m + s for m in ms])
        memo[(i, r)] = got
        return got

    def _abs_wt2(self, n2: int) -> int:
        if n2 * self.sign < 0 or abs(n2) > self.max_wt2:
            raise ValueError("weight block outside the truncation")
        return abs(n2)

    def block_basis(self, k: int, n2: int) -> list[int]:
        return self._monomials(0, self._abs_wt2(n2)).get(k, [])

    def block_dim(self, k: int, n2: int) -> int:
        return len(self.block_basis(k, n2))

    def d_matrix(self, k: int, n2: int) -> list[dict]:
        """The transpose of the matrix of d from block (k, n2) to block
        (k+1, n2), as sparse integer rows: row i holds the numerators of
        d(m) for the i-th basis monomial m of block (k, n2), as {index in
        the basis of block (k+1, n2): int} ({} for a cocycle), so row i
        over d(m).den is d(m).  Scaling a row by its denominator keeps
        the rank; rows are not made primitive: ``linalg.row_rank``
        divides out contents as it eliminates."""
        ring = self.ring
        where = {m: t for t, m in enumerate(self.block_basis(k + 1, n2))}
        rows = []
        for m in self.block_basis(k, n2):
            row = {}
            for mm, x in self.d(_poly(ring, {m: 1}, 1)).terms.items():
                t = where.get(mm)
                if t is None:
                    raise ValueError("differential left its weight block")
                row[t] = x
            rows.append(row)
        return rows

    def _rank(self, k: int, n2: int) -> int:
        if k < 0:
            return 0
        got = self._ranks.get((k, n2))
        if got is None:
            got = self._ranks[(k, n2)] = row_rank(self.d_matrix(k, n2))
        return got

    def cohomology_dim(self, k: int, weight) -> int:
        """dim H^k at the given weight (a half-integer; Fractions fine)."""
        n2 = _as_wt2(weight)
        dim = self.block_dim(k, n2)
        if dim == 0:
            return 0
        return dim - self._rank(k, n2) - self._rank(k - 1, n2)

    def max_degree(self, n2: int) -> int:
        """The highest ghost degree of a monomial of doubled weight n2
        (0 if none), enumerating no block."""
        return max(self._reach[self._abs_wt2(n2)].bit_length() - 1, 0)


def _as_wt2(weight) -> int:
    n2 = Fraction(weight) * 2
    if n2.denominator != 1:
        raise ValueError("weights are half-integers")
    return int(n2)


def linear_part(cx: GradedComplex) -> dict:
    """delta (module docstring) as {(w2, p): (rank, kernel, cokernel)}:
    the z of doubled weight w2 (sign removed) and parity p against the
    ghosts of weight w2 and parity 1 - p.  ValueError on a term of
    degree 0 or an image not of Koszul shape."""
    ring, ghosts = cx.ring, cx.ghost_set
    # a ghost's block holds the module variables of the other parity
    block = {j: (w, odd ^ (j in ghosts))
             for j, w, odd in zip(cx.positions, cx._w2, cx._odd)}
    rows: dict[tuple[int, int], list[dict]] = {b: [] for b in block.values()}
    for j in cx.positions:
        img = cx.d.images.get(j)
        terms = img.terms if img is not None else {}
        if 0 in terms:
            raise ValueError(f"image of {ring.variables[j].name} has a "
                             f"term of degree 0")
        row = {}  # columns are the ghosts' positions
        for m, n in terms.items():
            g = lowest_variable(m)
            if m != var_key(g):
                continue  # a term of degree 2 or more
            if j in ghosts or g not in ghosts or block[g] != block[j]:
                raise ValueError(f"image of {ring.variables[j].name} is "
                                 f"not of Koszul shape")
            row[g] = n
        if j not in ghosts:
            rows[block[j]].append(row)
    ncols = Counter(block[g] for g in cx.ghost_positions)
    out = {}
    for b, zs in rows.items():
        r = row_rank(zs)
        out[b] = (r, len(zs) - r, ncols[b] - r)
    return out


def kernel_generators(cx: GradedComplex) -> list[tuple[int, int]]:
    """(w2, parity) of a basis of ker delta, w2 with the sign removed;
    ValueError if delta is not onto (naming the lightest such weight)
    or from ``linear_part``."""
    blocks = linear_part(cx)
    short = [w for (w, _), (_, _, coker) in blocks.items() if coker]
    if short:
        raise ValueError(f"delta is not onto at weight "
                         f"{Fraction(min(short) * cx.sign, 2)}")
    return [(w, p) for (w, p), (_, ker, _) in blocks.items()
            for _ in range(ker)]


def cohomology_table(complex_: GradedComplex) -> dict:
    """{(degree, weight): dim} over every block inside the truncation,
    degrees up to ``max_degree``: H^0 the monomial counts of ker delta
    (``kernel_generators``), every higher degree 0."""
    h0 = weighted_monomial_counts(kernel_generators(complex_),
                                  complex_.max_wt2)
    out = {}
    for a2 in range(0, complex_.max_wt2 + 1):
        n2 = a2 * complex_.sign
        w = Fraction(n2, 2)
        out[(0, w)] = h0.get(a2, 0)
        out.update(((k, w), 0) for k in range(1, complex_.max_degree(n2) + 1))
    return out


# -- the three gauge complexes ------------------------------------------------

def _ghost_variables(alg: LieSuperalgebra, grading: GoodGrading,
                     sign: int = 1) -> list[Variable]:
    """The ghost ph_<label> of each positive direction, in the order of
    ``grading.positive_indices()``: reversed parity and doubled weight
    sign * wt2 of its direction."""
    return [Variable(f"ph_{alg.labels[i]}", 1 - alg.parities[i],
                     wt2=sign * grading.weights2[i])
            for i in grading.positive_indices()]


def _ghost_images(sub: LieSuperalgebra, ring: PolyRing,
                  ghost_offset: int) -> dict[int, SuperPolynomial]:
    acc: dict[int, list] = {}
    for c_loc in range(sub.dim):
        pc = sub.parities[c_loc]
        for (a_loc, b_loc), row in sub.table.items():
            coef = row.get(c_loc)
            if not coef:
                continue
            s = Fraction(-1, 2) * coef
            if sub.parities[a_loc] and pc:
                s = -s
            acc.setdefault(ghost_offset + c_loc, []).append(
                (s, ring.gen(ghost_offset + a_loc),
                 ring.gen(ghost_offset + b_loc)))
    return combine(ring, acc)


def _ce_images(sub: LieSuperalgebra, ring: PolyRing,
               fields: Sequence[Sequence[SuperPolynomial]],
               nmod: int) -> dict[int, SuperPolynomial]:
    """Generator images of the CE differential of the acting algebra sub.

    The module variables are ring positions 0..nmod-1 and the ghost ph^a
    of basis vector a of sub sits at nmod + a; fields[a][b] is R(v_a)
    applied to module variable b.  Then d(m_b) = sum_a ph^a . fields[a][b]
    and d(ph^c) is the half-sum of _ghost_images.
    """
    images = combine(ring, {
        b: [(1, ring.gen(nmod + a), row[b])
            for a, row in enumerate(fields)]
        for b in range(nmod)})
    images.update(_ghost_images(sub, ring, nmod))
    return images


def regular_ce_complex(alg: LieSuperalgebra, grading: GoodGrading,
                       max_weight=4) -> GradedComplex:
    """CE complex of g_+ with coefficients in the functions on its group.

    Group coordinates x_u are dual to the basis of g_+ and weighted by
    -wt(u); ghosts carry the same negative weights, so the blocks sit at
    weights 0, -1/2, -1, ...
    """
    pos_idx = grading.positive_indices()
    if not pos_idx:
        raise ValueError("positive part is zero")
    ring = PolyRing([Variable(f"x_{alg.labels[i]}", alg.parities[i],
                              wt2=-grading.weights2[i]) for i in pos_idx]
                    + _ghost_variables(alg, grading, -1))
    p = len(pos_idx)
    fields = regular_representation(alg, pos_idx, ring, list(range(p)))
    images = _ce_images(alg.restrict_to(pos_idx), ring, fields, p)
    return GradedComplex(differential(ring, images), list(range(p)),
                         list(range(p, 2 * p)), _as_wt2(max_weight))


def _gauge_action_fields(chart, ring: PolyRing):
    """fields[a][b]: the infinitesimal motion of coordinate z_b under the
    gauge flow of positive basis vector v_a at the generic point Z, whose
    coordinates are the first variables of ring:
    d/dt exp(-t v_a) Z exp(t v_a) at t = 0, which is [Z, v_a]."""
    alg, grading = chart.alg, chart.grading
    coords = chart.coord_indices
    pos_of = {b: pos for pos, b in enumerate(coords)}
    Z = chart.generic_point(ring)
    fields = []
    for i in grading.positive_indices():
        row = [ring.zero() for _ in coords]
        for j, comp in alg.bracket_poly(Z, {i: ring.one()}).items():
            if j not in pos_of:
                raise ValueError("gauge action left the coordinate domain")
            row[pos_of[j]] = comp
        fields.append(row)
    return fields


def _gauge_ce(chart):
    """(ring, generator images) of the gauge complex, from which
    ``SliceChart.gauge_ce`` builds the chart's one derivation: the
    chart coordinates z_b of grading weight j at conformal weight
    1 + j > 0, then the ghosts ph_a at +wt(v_a), in a new differential
    ring; a total derivative there adds jets after the ghosts, each
    jet order adding weight 1, and the derivation keeps the weight."""
    alg, grading = chart.alg, chart.grading
    m = len(chart.coord_indices)
    ring = PolyRing([Variable(v.name, v.parity, wt2=v.wt2)
                     for v in chart.ring.variables[:m]]
                    + _ghost_variables(alg, grading), differential=True)
    fields = _gauge_action_fields(chart, ring)
    sub = alg.restrict_to(grading.positive_indices())
    return ring, _ce_images(sub, ring, fields, m)


def slice_ce_complex(chart, max_weight=4) -> GradedComplex:
    """CE complex of g_+ with coefficients in the functions on
    f + g_{>=-1/2}, acting by the gauge flow: ``chart.gauge_ce`` on its
    m coordinates and n ghosts, counted, as the ring may hold jets; the
    one GradedComplex on it, ``pva.TruncatedH0``'s too.  Blocks sit at
    weights 0, 1/2, 1, ..., H^0 the gauge invariants."""
    m = len(chart.coord_indices)
    n = len(chart.grading.positive_indices())
    return GradedComplex(chart.gauge_ce, list(range(m)),
                         list(range(m, m + n)), _as_wt2(max_weight))


def weighted_monomial_counts(gens: Sequence[tuple[int, int]],
                             max_wt2: int) -> dict[int, int]:
    """Monomial counts of a free graded-commutative ring.

    gens is a list of (wt2, parity); returns {wt2: count} for all weights
    up to max_wt2.  Used as the independent size oracle for H^0.
    """
    counts = {0: 1}
    for w2, par in gens:
        if w2 <= 0:
            raise ValueError("generator weights must be positive")
        nxt: dict[int, int] = {}
        for n, c in counts.items():
            cap = 1 if par else (max_wt2 - n) // w2
            for e in range(0, cap + 1):
                m = n + e * w2
                if m > max_wt2:
                    break
                nxt[m] = nxt.get(m, 0) + c
        counts = nxt
    return counts

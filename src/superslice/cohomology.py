"""Weight-graded Chevalley-Eilenberg cohomology with exact ranks.

The whole complex lives in a single superpolynomial ring: module
variables first, then one ghost variable per basis vector of the acting
nilpotent algebra, with reversed parity.  The differential is the odd
derivation determined on generators by

    d(m)     = sum_a ph^a . R(v_a)(m)
    d(ph^c)  = -1/2 sum_{a,b} (-1)^{|v_a||v_c|} str^c_{ab} ph^a ph^b

where R is the infinitesimal action of the acting algebra: the right
regular representation on exponential group coordinates (a Bernoulli
series of brackets, see supergroup), the gauge action R(v_a)(Z) =
[Z, v_a] on the coordinates of f + g_{>=-1/2}, or that gauge action
moved to the Zhu generators of the arc complex in pva.  str^c_{ab} are
the structure constants of the acting algebra.  One routine,
_ce_images, builds these generator images for all three complexes.  The
ghost must multiply from the left: only then does the Leibniz extension
of the generator images reproduce sum_a ph^a . R(v_a)(.) on the whole
ring (R(v_a) is a superderivation of parity |v_a|, and moving ph^a in
from the right would cost monomial-dependent signs).  d^2 is checked on
every generator at construction; an odd derivation squares to an even
derivation, so vanishing on generators is vanishing everywhere.

Every variable carries a nonzero weight and all weights share one sign,
so each weight block is finite dimensional and cohomology is a matter
of exact ranks, block by block, with no analysis anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .liealg import GoodGrading, LieSuperalgebra, dense_to_poly
from .linalg import RationalMatrix, exact_rank
from .supergroup import regular_representation
from .superpoly import PolyRing, SuperPolynomial, Variable

ONE = Fraction(1)


def odd_derivation(ring: PolyRing, images: Mapping[int, SuperPolynomial]):
    """Extend generator images to an odd derivation of the whole ring.

    Missing generators map to zero.  Returns a callable poly -> poly;
    all Koszul signs come from the ring's own multiplication plus the
    single crossing sign for moving d past the leading factor.
    """
    cache: dict[tuple, SuperPolynomial] = {}

    def d_mono(mono: tuple) -> SuperPolynomial:
        if not mono:
            return ring.zero()
        got = cache.get(mono)
        if got is not None:
            return got
        (j, e) = mono[0]
        rest = mono[1:] if e == 1 else ((j, e - 1),) + mono[1:]
        out = ring.zero()
        head_img = images.get(j)
        if head_img is not None and not head_img.is_zero():
            out = head_img * SuperPolynomial(ring, {rest: ONE})
        tail = d_mono(rest)
        if not tail.is_zero():
            sgn = -ONE if ring.parity_of(j) else ONE
            out = out + SuperPolynomial(ring, {((j, 1),): ONE}) * tail * sgn
        cache[mono] = out
        return out

    def d(p: SuperPolynomial) -> SuperPolynomial:
        out = ring.zero()
        for mono, c in p.terms.items():
            t = d_mono(mono)
            if not t.is_zero():
                out = out + t * c
        return out

    return d


def _check_square_zero(ring: PolyRing, d,
                       images: Mapping[int, SuperPolynomial],
                       symbol: str) -> None:
    """Raise unless the odd derivation d kills the image of every
    generator; an odd derivation squares to an even one, so d^2 then
    vanishes on the whole ring."""
    for pos, img in images.items():
        if img.is_zero():
            continue
        sq = d(img)
        if not sq.is_zero():
            raise ValueError(f"{symbol}^2 != 0 on generator "
                             f"{ring.variables[pos].name}: {sq.text()}")


class GradedComplex:
    """Finite weight blocks of a ring with an odd square-zero derivation.

    ``module_positions`` and ``ghost_positions`` list the ring variables
    the complex is built on; cohomological degree counts ghost factors
    with multiplicity.  Weights are doubled integers internally, matching
    the ring's ``wt2`` convention.
    """

    def __init__(self, ring: PolyRing, images: Mapping[int, SuperPolynomial],
                 module_positions: Sequence[int],
                 ghost_positions: Sequence[int], max_wt2: int):
        self.ring = ring
        self.images = dict(images)
        self.module_positions = list(module_positions)
        self.ghost_positions = list(ghost_positions)
        self.positions = self.module_positions + self.ghost_positions
        self.ghost_set = set(self.ghost_positions)
        self.max_wt2 = max_wt2
        self.d = odd_derivation(ring, self.images)
        _check_square_zero(ring, self.d, self.images, "d")
        w2s = [ring.variables[p].wt2 for p in self.positions]
        if any(w is None or w == 0 for w in w2s):
            raise ValueError("every complex variable needs a nonzero weight")
        if len({1 if w > 0 else -1 for w in w2s}) > 1:
            raise ValueError("variable weights must share a sign")
        self.sign = 1 if w2s[0] > 0 else -1
        self._blocks: dict[int, dict[int, list[tuple]]] = {}
        # rank of d on block (k, n2); H^k and H^{k+1} both need it
        self._ranks: dict[tuple[int, int], int] = {}

    # -- weight blocks -----------------------------------------------------

    def _weight_blocks(self, n2: int) -> dict[int, list[tuple]]:
        if n2 * self.sign < 0 or abs(n2) > self.max_wt2:
            raise ValueError("weight block outside the truncation")
        got = self._blocks.get(n2)
        if got is not None:
            return got
        poss = self.positions
        w2 = [self.ring.variables[p].wt2 * self.sign for p in poss]
        par = [self.ring.parity_of(p) for p in poss]
        out: dict[int, list[tuple]] = {}
        mono: list[tuple[int, int]] = []

        def rec(i: int, rem: int):
            if rem == 0:
                # canonical monomial key: sorted by variable index (the
                # factors are distinct variables, so no sign is involved)
                m = tuple(sorted(mono))
                k = sum(e for pos, e in m if pos in self.ghost_set)
                out.setdefault(k, []).append(m)
                return
            if i == len(poss):
                return
            rec(i + 1, rem)
            cap = 1 if par[i] else rem // w2[i]
            for e in range(1, cap + 1):
                if w2[i] * e > rem:
                    break
                mono.append((poss[i], e))
                rec(i + 1, rem - w2[i] * e)
                mono.pop()

        rec(0, abs(n2))
        self._blocks[n2] = out
        return out

    def block_basis(self, k: int, n2: int) -> list[tuple]:
        return self._weight_blocks(n2).get(k, [])

    def block_dim(self, k: int, n2: int) -> int:
        return len(self.block_basis(k, n2))

    def d_matrix(self, k: int, n2: int) -> Optional[RationalMatrix]:
        """Matrix of d from block (k, n2) to (k+1, n2); None if either
        side is empty (then the map is zero)."""
        src = self.block_basis(k, n2)
        tgt = self.block_basis(k + 1, n2)
        if not src or not tgt:
            for m in src:
                if not self.d(SuperPolynomial(self.ring, {m: ONE})).is_zero():
                    raise ValueError("differential left its weight block")
            return None
        where = {m: r for r, m in enumerate(tgt)}
        out = RationalMatrix.zeros(len(tgt), len(src))
        for c, m in enumerate(src):
            img = self.d(SuperPolynomial(self.ring, {m: ONE}))
            for mm, coeff in img.terms.items():
                r = where.get(mm)
                if r is None:
                    raise ValueError("differential left its weight block")
                out[r, c] = coeff
        return out

    def _rank(self, k: int, n2: int) -> int:
        if k < 0:
            return 0
        got = self._ranks.get((k, n2))
        if got is None:
            m = self.d_matrix(k, n2)
            got = self._ranks[(k, n2)] = exact_rank(m) if m is not None else 0
        return got

    def cohomology_dim(self, k: int, weight) -> int:
        """dim H^k at the given weight (a half-integer; Fractions fine)."""
        n2 = _as_wt2(weight)
        dim = self.block_dim(k, n2)
        if dim == 0:
            return 0
        return dim - self._rank(k, n2) - self._rank(k - 1, n2)

    def max_degree(self, n2: int) -> int:
        blocks = self._weight_blocks(n2)
        return max(blocks) if blocks else 0


def _as_wt2(weight) -> int:
    n2 = Fraction(weight) * 2
    if n2.denominator != 1:
        raise ValueError("weights are half-integers")
    return int(n2)


def cohomology_table(complex_: GradedComplex) -> dict:
    """{(degree, weight): dim} over every block inside the truncation."""
    out = {}
    for a2 in range(0, complex_.max_wt2 + 1):
        n2 = a2 * complex_.sign
        for k in range(0, complex_.max_degree(n2) + 1):
            out[(k, Fraction(n2, 2))] = complex_.cohomology_dim(
                k, Fraction(n2, 2))
    return out


# -- the three gauge complexes ------------------------------------------------

def _ghost_images(sub: LieSuperalgebra, ring: PolyRing,
                  ghost_offset: int) -> dict[int, SuperPolynomial]:
    images: dict[int, SuperPolynomial] = {}
    for c_loc in range(sub.dim):
        acc = ring.zero()
        pc = sub.parities[c_loc]
        for (a_loc, b_loc), row in sub.table.items():
            coef = row.get(c_loc)
            if not coef:
                continue
            s = Fraction(-1, 2) * coef
            if sub.parities[a_loc] and pc:
                s = -s
            acc = acc + ring.gen(ghost_offset + a_loc) \
                * ring.gen(ghost_offset + b_loc) * s
        if not acc.is_zero():
            images[ghost_offset + c_loc] = acc
    return images


def _ce_images(sub: LieSuperalgebra, ring: PolyRing,
               fields: Sequence[Sequence[SuperPolynomial]],
               nmod: int) -> dict[int, SuperPolynomial]:
    """Generator images of the CE differential of the acting algebra sub.

    The module variables are ring positions 0..nmod-1 and the ghost ph^a
    of basis vector a of sub sits at nmod + a; fields[a][b] is R(v_a)
    applied to module variable b.  Then d(m_b) = sum_a ph^a . fields[a][b]
    and d(ph^c) is the half-sum of _ghost_images.
    """
    images: dict[int, SuperPolynomial] = {}
    for b in range(nmod):
        acc = ring.zero()
        for a, row in enumerate(fields):
            if not row[b].is_zero():
                acc = acc + ring.gen(nmod + a) * row[b]
        if not acc.is_zero():
            images[b] = acc
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
    variables = []
    for i in pos_idx:
        variables.append(Variable(f"x_{alg.labels[i]}", alg.parities[i],
                                  wt2=-grading.weights2[i]))
    for i in pos_idx:
        variables.append(Variable(f"ph_{alg.labels[i]}",
                                  1 - alg.parities[i],
                                  wt2=-grading.weights2[i]))
    ring = PolyRing(variables)
    p = len(pos_idx)
    fields = regular_representation(alg, pos_idx, ring, list(range(p)))
    images = _ce_images(alg.restrict_to(pos_idx), ring, fields, p)
    return GradedComplex(ring, images, list(range(p)),
                         list(range(p, 2 * p)), _as_wt2(max_weight))


def _gauge_action_fields(chart, ring: PolyRing):
    """fields[a][b]: the infinitesimal motion of coordinate z_b under the
    gauge flow of positive basis vector v_a at the generic point Z, whose
    coordinates are the first variables of ring:
    d/dt exp(-t v_a) Z exp(t v_a) at t = 0, which is [Z, v_a]."""
    alg, grading = chart.alg, chart.grading
    coords = chart.coord_indices
    pos_of = {b: pos for pos, b in enumerate(coords)}
    Z = dense_to_poly(alg, chart.triple.f, ring)
    for pos, b in enumerate(coords):
        Z[b] = Z.get(b, ring.zero()) + ring.gen(pos)
    fields = []
    for i in grading.positive_indices():
        row = [ring.zero() for _ in coords]
        for j, comp in alg.bracket_poly(Z, {i: ring.one()}).items():
            if j not in pos_of:
                raise ValueError("gauge action left the coordinate domain")
            row[pos_of[j]] = comp
        fields.append(row)
    return fields


def slice_ce_complex(chart, max_weight=4) -> GradedComplex:
    """CE complex of g_+ with coefficients in the functions on
    f + g_{>=-1/2}, acting by the gauge flow.

    Coordinates keep their conformal weights 1 + j > 0 and ghosts carry
    +wt(v_a), so blocks sit at weights 0, 1/2, 1, ... and H^0 consists of
    the gauge invariants, weight by weight.
    """
    alg, grading = chart.alg, chart.grading
    m = len(chart.coord_indices)
    variables = [Variable(v.name, v.parity, wt2=v.wt2)
                 for v in chart.ring.variables[:m]]
    pos_idx = grading.positive_indices()
    for i in pos_idx:
        variables.append(Variable(f"ph_{alg.labels[i]}",
                                  1 - alg.parities[i],
                                  wt2=grading.weights2[i]))
    ring = PolyRing(variables)
    p = len(pos_idx)
    fields = _gauge_action_fields(chart, ring)
    images = _ce_images(alg.restrict_to(pos_idx), ring, fields, m)
    return GradedComplex(ring, images, list(range(m)),
                         list(range(m, m + p)), _as_wt2(max_weight))


# -- independent cross-checks ----------------------------------------------------

def de_rham_check(p: int, q: int, max_degree: int = 4) -> dict:
    """Algebraic de Rham complex of the affine superspace C^{p|q}.

    d sends x_i to dx_i and th_j to -dth_j; dx is odd, dth is even, and
    everything has polynomial degree one, so the blocks are graded by
    total degree.  Returns {(form degree, total degree): dim H}; the
    expected answer is 1 at (0, 0) and 0 elsewhere.
    """
    variables = []
    for i in range(p):
        variables.append(Variable(f"x{i + 1}", 0, wt2=2))
    for j in range(q):
        variables.append(Variable(f"th{j + 1}", 1, wt2=2))
    for i in range(p):
        variables.append(Variable(f"dx{i + 1}", 1, wt2=2))
    for j in range(q):
        variables.append(Variable(f"dth{j + 1}", 0, wt2=2))
    ring = PolyRing(variables)
    n = p + q
    images: dict[int, SuperPolynomial] = {}
    for i in range(p):
        images[i] = ring.gen(n + i)
    for j in range(q):
        images[p + j] = -ring.gen(n + p + j)
    cx = GradedComplex(ring, images, list(range(n)),
                       list(range(n, 2 * n)), 2 * max_degree)
    out = {}
    for deg in range(max_degree + 1):
        for k in range(deg + 1):
            out[(k, deg)] = cx.cohomology_dim(k, deg)
    return out


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

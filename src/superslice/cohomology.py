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
of exact ranks, block by block, with no analysis anywhere.  The rank
path runs in Python ints from the differential to the pivot:
OddDerivation keeps every image as integer numerators over one
denominator, GradedComplex.d_matrix reads a block's rows straight from
those, and linalg.row_rank eliminates them fraction-free.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .liealg import GoodGrading, LieSuperalgebra
from .linalg import row_nullspace, row_rank
from .supergroup import regular_representation
from .superpoly import (EMAX, PolyRing, SuperPolynomial, Variable, combine,
                        common_denominator, fraction_terms, lowest_variable,
                        mul_int_terms, numerators, var_key)


class OddDerivation:
    """Extension of generator images to an odd derivation of the whole ring.

    Calling it maps a polynomial to its image.  Missing generators map to
    zero; all Koszul signs come from the ring's product plus the single
    crossing sign for moving d past the leading factor.

    Everything inside runs in Python ints over one denominator ``den``,
    the lcm of the coefficient denominators of ``images.values()``.  The
    images may be a lazy table whose ``get`` serves more generators than
    its ``values()`` lists (``pva._JetImages`` derives jet images by
    total derivatives, which multiply coefficients by integers only);
    every image is checked to have denominators dividing ``den`` and the
    derivation raises ``ValueError`` if one does not, so no numerator is
    ever floored.  ``mono(m)`` is den * d(m) for a monomial key m with
    coefficient 1, as a cached {monomial: int} dict, split off at the
    lowest variable of m; a polynomial's image becomes Fractions once,
    at the end.
    """

    def __init__(self, ring: PolyRing, images: Mapping[int, SuperPolynomial]):
        self.ring = ring
        self.images = images
        self.den = common_denominator(*(img.terms for img in images.values()))
        self._gens: dict[int, dict] = {}
        self._monos: dict[int, dict] = {}

    def _generator(self, j: int) -> dict:
        """den * d(x_j) as {monomial: int}."""
        got = self._gens.get(j)
        if got is None:
            img = self.images.get(j)
            got = {}
            if img is not None:
                for c in img.terms.values():
                    if self.den % c.denominator:
                        raise ValueError(
                            f"image of {self.ring.variables[j].name} has "
                            f"denominator {c.denominator}, which does not "
                            f"divide {self.den}")
                got = numerators(img.terms, self.den)
            self._gens[j] = got
        return got

    def mono(self, mono: int) -> dict:
        """den * d(mono) for a monomial key with coefficient 1, as
        {monomial: int} without zero entries (cached; do not modify)."""
        if not mono:
            return {}
        got = self._monos.get(mono)
        if got is not None:
            return got
        j = lowest_variable(mono)
        unit = var_key(j)
        rest = mono - unit
        # d(x_j rest) = d(x_j) rest + (-1)^{|x_j|} x_j d(rest)
        head = self._generator(j)
        tail = self.mono(rest)
        masks = self.ring.masks()
        got = mul_int_terms(head, {rest: 1}, masks)
        mul_int_terms({unit: -1 if self.ring.parity_of(j) else 1}, tail,
                      masks, got)
        self._monos[mono] = got
        return got

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        den = common_denominator(p.terms)
        acc: dict[int, int] = {}
        for mono, n in numerators(p.terms, den).items():
            # the constant n times den * d(mono), summed into acc; the
            # masks are read after mono may have added jets
            dm = self.mono(mono)
            mul_int_terms({0: n}, dm, self.ring.masks(), acc)
        return SuperPolynomial(self.ring, fraction_terms(acc, den * self.den))


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

    A block (k, n2) has the monomials of ghost degree k and doubled
    weight n2 as its basis, in a fixed enumeration order.  ``d_matrix``
    gives d on a block as sparse primitive integer rows, one per source
    monomial (the transpose of the matrix of d, each column scaled);
    ranks are taken on those rows and cached, since H^k and H^{k+1}
    both need the rank of d on block k.  ``cocycles`` takes the kernel
    from the unscaled integer images instead, where scaling would
    matter.
    """

    def __init__(self, ring: PolyRing, images: Mapping[int, SuperPolynomial],
                 module_positions: Sequence[int],
                 ghost_positions: Sequence[int], max_wt2: int):
        if max_wt2 < 0:
            raise ValueError(f"max weight must be at least 0, got "
                             f"{Fraction(max_wt2, 2)}")
        self.ring = ring
        self.images = dict(images)
        self.module_positions = list(module_positions)
        self.ghost_positions = list(ghost_positions)
        self.positions = self.module_positions + self.ghost_positions
        self.ghost_set = set(self.ghost_positions)
        self.max_wt2 = max_wt2
        self.d = OddDerivation(ring, self.images)
        _check_square_zero(ring, self.d, self.images, "d")
        w2s = [ring.variables[p].wt2 for p in self.positions]
        if any(w is None or w == 0 for w in w2s):
            raise ValueError("every complex variable needs a nonzero weight")
        if len({1 if w > 0 else -1 for w in w2s}) > 1:
            raise ValueError("variable weights must share a sign")
        self.sign = 1 if w2s[0] > 0 else -1
        self._blocks: dict[int, dict[int, list[int]]] = {}
        # rank of d on block (k, n2); H^k and H^{k+1} both need it
        self._ranks: dict[tuple[int, int], int] = {}

    # -- weight blocks -----------------------------------------------------

    def _weight_blocks(self, n2: int) -> dict[int, list[int]]:
        if n2 * self.sign < 0 or abs(n2) > self.max_wt2:
            raise ValueError("weight block outside the truncation")
        got = self._blocks.get(n2)
        if got is not None:
            return got
        poss = self.positions
        n = len(poss)
        w2 = [self.ring.variables[p].wt2 * self.sign for p in poss]
        odd = [self.ring.parity_of(p) for p in poss]
        ghost = [p in self.ghost_set for p in poss]
        unit = [var_key(p) for p in poss]
        # no monomial in positions i.. has weight below min_w2[i]; the
        # entry past the end is above every weight the block can reach
        min_w2 = [min(w2[i:]) for i in range(n)] + [abs(n2) + 1]
        out: dict[int, list[int]] = {}

        def rec(i: int, rem: int, k: int, key: int):
            """Monomials of weight rem in positions i.., times key
            (ghost degree k so far): first those without position i,
            then those with exponent 1, 2, ... of it."""
            if rem >= min_w2[i + 1]:
                rec(i + 1, rem, k, key)
            w = w2[i]
            cap = rem // w
            if odd[i] and cap > 1:
                cap = 1
            if cap > EMAX:
                raise OverflowError(
                    f"weight block {Fraction(n2, 2)} needs exponent {cap} "
                    f"of {self.ring.variables[poss[i]].name}, above {EMAX}")
            for e in range(1, cap + 1):
                left = rem - w * e
                ke = k + e if ghost[i] else k
                m = key + e * unit[i]
                if left == 0:
                    out.setdefault(ke, []).append(m)
                elif left >= min_w2[i + 1]:
                    rec(i + 1, left, ke, m)

        if n2 == 0:
            out[0] = [0]
        elif abs(n2) >= min_w2[0]:
            rec(0, abs(n2), 0, 0)
        self._blocks[n2] = out
        return out

    def block_basis(self, k: int, n2: int) -> list[int]:
        return self._weight_blocks(n2).get(k, [])

    def block_dim(self, k: int, n2: int) -> int:
        return len(self.block_basis(k, n2))

    def _image_rows(self, k: int, n2: int) -> list[dict]:
        """den * d(m) for each basis monomial m of block (k, n2), in
        basis order, as {index in the basis of block (k+1, n2): int}."""
        where = {m: t for t, m in enumerate(self.block_basis(k + 1, n2))}
        rows = []
        for m in self.block_basis(k, n2):
            row = {}
            for mm, x in self.d.mono(m).items():
                t = where.get(mm)
                if t is None:
                    raise ValueError("differential left its weight block")
                row[t] = x
            rows.append(row)
        return rows

    def d_matrix(self, k: int, n2: int) -> list[dict]:
        """The transpose of the matrix of d from block (k, n2) to block
        (k+1, n2) as sparse integer rows: row i is the image of the i-th
        basis monomial of block (k, n2), scaled to a primitive
        {target index: int} ({} for a cocycle).  The rows have the rank
        of d, not its kernel (see ``cocycles``)."""
        rows = self._image_rows(k, n2)
        for i, r in enumerate(rows):
            g = gcd(*r.values())
            if g > 1:
                rows[i] = {t: x // g for t, x in r.items()}
        return rows

    def _rank(self, k: int, n2: int) -> int:
        if k < 0:
            return 0
        got = self._ranks.get((k, n2))
        if got is None:
            got = self._ranks[(k, n2)] = row_rank(self.d_matrix(k, n2))
        return got

    def cocycles(self, k: int, n2: int) -> list[SuperPolynomial]:
        """Basis of the kernel of d on block (k, n2): one cocycle per
        free column of the reduced matrix of d, with coefficient 1 on
        its own basis monomial."""
        src = self.block_basis(k, n2)
        cols: list[dict] = [{} for _ in self.block_basis(k + 1, n2)]
        for c, row in enumerate(self._image_rows(k, n2)):
            for t, x in row.items():
                cols[t][c] = x
        return [SuperPolynomial(self.ring,
                                {m: x for m, x in zip(src, v) if x})
                for v in row_nullspace(cols, len(src))]

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
                (s, ring.gen(ghost_offset + a_loc).terms,
                 ring.gen(ghost_offset + b_loc).terms))
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
        b: [(1, ring.gen(nmod + a).terms, row[b].terms)
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

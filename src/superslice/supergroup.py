"""Nilpotent supergroup operations through exact Lie-algebra series.

Everything happens on even elements of g tensor a polynomial ring, where
coefficients carry the parity of their basis vector.  On those the
classical integrated Baker-Campbell-Hausdorff series (Dynkin form) and
the adjoint-orbit series apply verbatim, and the right regular action is
the Bernoulli series in ad of the group coordinate; all three terminate
because the relevant subalgebras are nilpotent, each at its first
length whose brackets all vanish.  An even element v has [v, v] = 0,
so the BCH series takes no bracket of a letter with itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Mapping, Sequence

from .liealg import LieSuperalgebra
from .superpoly import UNIT, PolyRing, SuperPolynomial, combine

ONE = Fraction(1)

PolyVector = Mapping[int, SuperPolynomial]


def vec_is_zero(a: PolyVector) -> bool:
    return all(v.is_zero() for v in a.values())


def _nested_series(alg: LieSuperalgebra, w: PolyVector, y: PolyVector,
                   weight, what: str, within=None) -> dict:
    """{k: [(weight(n), component k of [..[[w,y],y]..,y], UNIT), ...]}
    with n brackets, n = 0, 1, ... until the nested bracket vanishes, for
    ``combine`` to sum.  Raises when a bracket has a component outside
    ``within`` (if given) or, like ``bch_product``, when the term with
    dim g brackets is nonzero.  A nilpotent ad y never gets there, as
    every caller's y lies in the positive part of a grading or is
    numeric.  In the first case a nonzero n-fold bracket has a nonzero
    term in homogeneous pieces of w and y, whose n + 1 partial brackets
    sit at distinct levels, so n < dim g; in the second, ad y is a
    nilpotent operator on g, so (ad y)^dim g = 0."""
    acc: dict = {}
    term = w
    n = 0
    while not vec_is_zero(term):
        if within is not None and not term.keys() <= within:
            raise ValueError("group law left the subalgebra")
        c = weight(n)
        for k, v in term.items():
            acc.setdefault(k, []).append((c, v, UNIT))
        n += 1
        if n > alg.dim:
            raise ValueError(f"{what} series did not terminate")
        term = alg.bracket_poly(term, y)
    return acc


def adjoint_orbit_map(alg: LieSuperalgebra, w: PolyVector,
                      y: PolyVector) -> dict:
    """exp(-y) w exp(y) = sum_n (1/n!) [..[[w,y],y]..,y] (n brackets),
    summed once up to the last nonzero bracket; raises if there is none
    within dim g brackets (ad y not nilpotent)."""
    acc = _nested_series(alg, w, y, lambda n: Fraction(1, factorial(n)),
                         "adjoint")
    return combine(next(iter(w.values())).ring, acc) if acc else {}


@lru_cache(maxsize=None)
def _block_sums(r: int) -> dict:
    """{word: {n: sum of r! / prod pi! qi!}} over the spellings of each
    length-r word as n blocks x^p1 y^q1 ... x^pn y^qn (pi + qi >= 1),
    built first block outermost, so words keep the order in which the
    compositions ((p1,q1),...,(pn,qn)) first spell them."""
    if r == 0:
        return {(): {0: 1}}
    out: dict = {}
    for p in range(r + 1):
        for q in range(int(p == 0), r - p + 1):
            mult = comb(r, p) * comb(r - p, q)
            for tail, by_n in _block_sums(r - p - q).items():
                slot = out.setdefault((0,) * p + (1,) * q + tail, {})
                for n, w in by_n.items():
                    slot[n + 1] = slot.get(n + 1, 0) + mult * w
    return out


@lru_cache(maxsize=None)
def _word_table(total: int) -> tuple:
    """((word, coefficient), ...) of the Dynkin series at one word length:
    a composition into n blocks x^pi y^qi adds (-1)^(n-1) / (n * total *
    prod pi! qi!) to its word.  The sums are ints over D = total *
    lcm(1..total) * total!, each word becomes a Fraction once, and words
    whose sum vanishes are dropped."""
    lcm_n = lcm(*range(1, total + 1))
    denom = total * lcm_n * factorial(total)
    out = []
    for word, by_n in _block_sums(total).items():
        num = sum((-1) ** (n - 1) * (lcm_n // n) * w for n, w in by_n.items())
        if num:
            out.append((word, Fraction(num, denom)))
    return tuple(out)


def bch_product(alg: LieSuperalgebra, x: PolyVector,
                y: PolyVector) -> dict:
    """log(exp(x) exp(y)) by the integrated Dynkin series, one word
    length at a time, up to the last length with a nonzero word.

    A word (0 for x, 1 for y) stands for the right-nested bracket
    [w1,[w2,[...,wk]]]; ``_word_table`` gives each length's words and
    coefficients (Goldberg; per distinct word as in Casas and Murua).
    ``level`` holds the nonzero brackets of one length, and the next
    length's are [letter, term] over them, so each word is bracketed
    once, from its nonzero suffix.  A word whose suffix vanishes
    vanishes, so the series ends at the first length with none left.

    x and y must be even elements of g tensor R on a super-antisymmetric
    table (``validate`` checks it before any chart is built), so a word
    of two equal letters vanishes unbracketed: for v = sum a_i x_i the
    (i, j) and (j, i) terms of [v, v] cancel under the Koszul rule, and
    a_i^2 [x_i, x_i] = 0 as [x_i, x_i] = 0 for even x_i and a_i^2 = 0
    for odd x_i.

    Raises when a word longer than dim g is still nonzero.  Letters in
    the positive part of a grading, like every gauge step, never do: a
    nonzero right-nested bracket of T letters has a nonzero expansion
    term in homogeneous pieces, whose suffixes are nonzero at T distinct
    positive levels, so T is below dim g.
    """
    letters = [(a, v) for a, v in enumerate((x, y)) if not vec_is_zero(v)]
    level = {(a,): v for a, v in letters}
    acc: dict = {}
    total = 0
    while level:
        total += 1
        if total > alg.dim:
            raise ValueError("BCH series did not terminate")
        for word, coeff in _word_table(total):
            term = level.get(word)
            if term is not None:
                for k, v in term.items():
                    acc.setdefault(k, []).append((coeff, v, UNIT))
        longer: dict = {}
        for word, term in level.items():
            for a, v in letters:
                if total > 1 or a != word[0]:
                    got = alg.bracket_poly(v, term)
                    if got:
                        longer[(a,) + word] = got
        level = longer
    return combine(next(iter((x or y).values())).ring, acc) if acc else {}


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n, with B_1 = -1/2 (z/(e^z - 1))."""
    if n == 0:
        return ONE
    return -sum(comb(n + 1, k) * _bernoulli(k) for k in range(n)) / (n + 1)


def regular_representation(alg: LieSuperalgebra, sub_indices: Sequence[int],
                           ring: PolyRing, coord_index: Sequence[int]):
    """Right regular action of a nilpotent subalgebra on its exponential
    coordinates.

    sub_indices spans the subalgebra n; coord_index[a] is the ring
    variable dual to basis vector sub_indices[a] (matching parity).
    Returns fields[a][b] = SuperPolynomial c with
    R(v_a) = sum_b c_b d/dx_b, coefficients written to the left.

    At the generic point X = sum_b x_b v_b the field is the derivative of
    the group law, d/dt log(exp(X) exp(t v_a)) at t = 0, which is

        ad_X / (1 - exp(-ad_X)) v_a = sum_n B_n/n! [..[[v_a, X], X].., X]

    with n brackets and the Bernoulli numbers B_n (B_1 = -1/2).  The sum
    stops when the nested bracket vanishes.
    """
    sub_indices = list(sub_indices)
    X = {g: ring.gen(coord_index[a]) for a, g in enumerate(sub_indices)}
    fields = []
    for g in sub_indices:
        row = combine(ring, _nested_series(
            alg, {g: ring.one()}, X,
            lambda n: _bernoulli(n) / factorial(n), "regular", X.keys()))
        fields.append([row.get(b, ring.zero()) for b in sub_indices])
    return fields

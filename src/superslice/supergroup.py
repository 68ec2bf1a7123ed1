"""Nilpotent supergroup operations through exact Lie-algebra series.

Everything happens on even elements of g tensor a polynomial ring, where
coefficients carry the parity of their basis vector.  On those the
classical integrated Baker-Campbell-Hausdorff series (Dynkin form) and
the adjoint-orbit series apply verbatim, and the right regular action is
the Bernoulli series in ad of the group coordinate; all three terminate
because the relevant subalgebras are nilpotent.  An even element v has
[v, v] = 0, so the BCH series takes no bracket of a letter with itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, factorial, lcm
from typing import Mapping, Sequence

from .liealg import LieSuperalgebra
from .superpoly import UNIT, PolyRing, SuperPolynomial, combine

ONE = Fraction(1)
# brackets a nested-ad series may take before its nilpotent operand is
# declared not nilpotent enough
MAX_SERIES_TERMS = 64

PolyVector = Mapping[int, SuperPolynomial]


def vec_is_zero(a: PolyVector) -> bool:
    return all(v.is_zero() for v in a.values())


def adjoint_orbit_map(alg: LieSuperalgebra, w: PolyVector,
                      y: PolyVector) -> dict:
    """exp(-y) w exp(y) = sum_n (1/n!) [..[[w,y],y]..,y] (n brackets).

    Terminates when the iterated bracket vanishes; raises if it has not
    after MAX_SERIES_TERMS steps (y not nilpotent enough).  The nested
    brackets are taken unscaled and summed once, each with weight 1/n!.
    """
    acc: dict = {}
    term = w
    n = 0
    while not vec_is_zero(term):
        weight = Fraction(1, factorial(n))
        for k, v in term.items():
            acc.setdefault(k, []).append((weight, v, UNIT))
        n += 1
        if n > MAX_SERIES_TERMS:
            raise ValueError("adjoint series did not terminate")
        term = alg.bracket_poly(term, y)
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


@lru_cache(maxsize=None)
def _dynkin_words(max_word_len: int) -> tuple:
    """((word, coefficient), ...) of the Dynkin series up to max_word_len.

    A word is a tuple of letters, 0 for x and 1 for y, standing for the
    right-nested bracket [w1,[w2,[...,wk]]]; its coefficient is an exact
    rational (Goldberg).  The tables of each length are concatenated,
    shortest first, and shared by every depth that reaches them.
    """
    return tuple(chain.from_iterable(
        _word_table(total) for total in range(1, max_word_len + 1)))


def bch_product(alg: LieSuperalgebra, x: PolyVector, y: PolyVector,
                max_word_len: int) -> dict:
    """log(exp(x) exp(y)) by the integrated Dynkin series, truncated at
    word length max_word_len (exact when the span is nilpotent of class
    <= max_word_len).

    x and y must be even elements of g tensor R on a super-antisymmetric
    table, which ``validate`` checks before any chart is built.

    The series is summed one distinct word at a time (_dynkin_words, as
    in Casas and Murua), and the nested brackets go through a memo keyed
    by word suffix, [w1, term(w2...wk)], so each suffix is bracketed at
    most once per call; a vanishing suffix makes every word ending in it
    vanish without a bracket.  A suffix of two equal letters vanishes
    with no bracket taken: for even v = sum a_i x_i the (i, j) and
    (j, i) terms of [v, v] cancel under the Koszul rule, and the
    diagonal ones are a_i^2 [x_i, x_i] with [x_i, x_i] = 0 for even x_i
    and a_i^2 = 0 for odd x_i.
    """
    letters = (x, y)
    memo: dict = {}

    def term(word: tuple) -> PolyVector:
        if len(word) == 1:
            return letters[word[0]]
        got = memo.get(word)
        if got is None:
            inner = term(word[1:])
            got = {} if word in ((0, 0), (1, 1)) or vec_is_zero(inner) \
                else alg.bracket_poly(letters[word[0]], inner)
            memo[word] = got
        return got

    acc: dict = {}
    for word, coeff in _dynkin_words(max_word_len):
        for k, v in term(word).items():
            acc.setdefault(k, []).append((coeff, v, UNIT))
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
    pos = {g: a for a, g in enumerate(sub_indices)}
    X = {g: ring.gen(coord_index[a]) for a, g in enumerate(sub_indices)}
    fields = []
    for g in sub_indices:
        acc: dict = {}
        term = {g: ring.one()}
        n = 0
        while term:
            coeff = _bernoulli(n) / factorial(n)
            for i, comp in term.items():
                acc.setdefault(pos[i], []).append((coeff, comp, UNIT))
            n += 1
            if n > MAX_SERIES_TERMS:
                raise ValueError("regular series did not terminate")
            term = alg.bracket_poly(term, X)
            if not term.keys() <= pos.keys():
                raise ValueError("group law left the subalgebra")
        row = combine(ring, acc)
        fields.append([row.get(b, ring.zero()) for b in range(len(pos))])
    return fields

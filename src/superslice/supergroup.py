"""Nilpotent supergroup operations through exact Lie-algebra series.

Everything happens on even elements of g tensor a polynomial ring, where
coefficients carry the parity of their basis vector.  On those the
classical integrated Baker-Campbell-Hausdorff series (Dynkin form) and
the adjoint-orbit series apply verbatim, and the right regular action is
the Bernoulli series in ad of the group coordinate; all three terminate
because the relevant subalgebras are nilpotent.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Mapping, Sequence

from .liealg import LieSuperalgebra
from .superpoly import UNIT, PolyRing, SuperPolynomial, combine

ZERO = Fraction(0)
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
            acc.setdefault(k, []).append((weight, v.terms, UNIT))
        n += 1
        if n > MAX_SERIES_TERMS:
            raise ValueError("adjoint series did not terminate")
        term = alg.bracket_poly(term, y)
    return combine(next(iter(w.values())).ring, acc) if acc else {}


def _compositions(total: int):
    """All tuples ((p1,q1),...,(pn,qn)) with pi+qi >= 1 and sum == total."""
    def rec(remaining):
        if remaining == 0:
            yield ()
            return
        for p in range(remaining + 1):
            for q in range(remaining - p + 1):
                if p + q == 0:
                    continue
                for rest in rec(remaining - p - q):
                    yield ((p, q),) + rest
    yield from rec(total)


@lru_cache(maxsize=None)
def _dynkin_words(max_word_len: int) -> tuple:
    """((word, coefficient), ...) of the Dynkin series up to max_word_len.

    A word is a tuple of letters, 0 for x and 1 for y, standing for the
    right-nested bracket [w1,[w2,[...,wk]]].  Each composition
    ((p1,q1),...,(pn,qn)) of the word length contributes
    (-1)^(n-1) / (n * len * prod pi! qi!) to the word x^p1 y^q1 ...;
    the summed coefficients are exact rationals (Goldberg), and words
    whose sum vanishes are dropped.  Words keep the order in which the
    compositions first spell them.
    """
    coeffs: dict = {}
    for total in range(1, max_word_len + 1):
        for blocks in _compositions(total):
            n = len(blocks)
            denom = n * total
            word: tuple = ()
            for p, q in blocks:
                denom *= factorial(p) * factorial(q)
                word += (0,) * p + (1,) * q
            coeffs[word] = coeffs.get(word, ZERO) + Fraction(
                (-1) ** (n - 1), denom)
    return tuple((w, c) for w, c in coeffs.items() if c)


def bch_product(alg: LieSuperalgebra, x: PolyVector, y: PolyVector,
                max_word_len: int) -> dict:
    """log(exp(x) exp(y)) by the integrated Dynkin series, truncated at
    word length max_word_len (exact when the span is nilpotent of class
    <= max_word_len).

    The series is summed one distinct word at a time (_dynkin_words, as
    in Casas and Murua), and the nested brackets go through a memo keyed
    by word suffix, [w1, term(w2...wk)], so each suffix is bracketed at
    most once per call; a vanishing suffix makes every word ending in it
    vanish without a bracket.
    """
    letters = (x, y)
    memo: dict = {}

    def term(word: tuple) -> PolyVector:
        if len(word) == 1:
            return letters[word[0]]
        got = memo.get(word)
        if got is None:
            inner = term(word[1:])
            got = {} if vec_is_zero(inner) \
                else alg.bracket_poly(letters[word[0]], inner)
            memo[word] = got
        return got

    acc: dict = {}
    for word, coeff in _dynkin_words(max_word_len):
        for k, v in term(word).items():
            acc.setdefault(k, []).append((coeff, v.terms, UNIT))
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
                acc.setdefault(pos[i], []).append((coeff, comp.terms, UNIT))
            n += 1
            if n > MAX_SERIES_TERMS:
                raise ValueError("regular series did not terminate")
            term = alg.bracket_poly(term, X)
            if not term.keys() <= pos.keys():
                raise ValueError("group law left the subalgebra")
        row = combine(ring, acc)
        fields.append([row.get(b, ring.zero()) for b in range(len(pos))])
    return fields

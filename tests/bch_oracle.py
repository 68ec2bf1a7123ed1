"""Composition-by-composition BCH series, kept as the oracle for
supergroup.bch_product and supergroup._word_table.

bch_product is the package's first implementation: every composition
((p1,q1),...,(pn,qn)) of each total word length gets its own Dynkin
coefficient and its own right-nested bracket [w1,[w2,[...,wk]]], built
from scratch.  dynkin_words is the package's former word table, summed
in Fractions one composition at a time.  Neither shares code with the
per-length int tables and the length-by-length series in
superslice.supergroup, which the tests compare against them.  Both
truncate at a given word length; the package's series finds its own.
"""

from fractions import Fraction


def _compositions(total):
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


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def _is_zero(vec):
    return all(v.is_zero() for v in vec.values())


def _add_scaled(out, vec, c):
    out = dict(out)
    for k, v in vec.items():
        cur = out.get(k)
        s = v * c if cur is None else cur + v * c
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def dynkin_words(max_word_len):
    """((word, coefficient), ...) of the Dynkin series up to max_word_len,
    words as tuples of 0 (x) and 1 (y), in the order in which the
    compositions first spell them; words whose sum vanishes are
    dropped."""
    coeffs = {}
    for total in range(1, max_word_len + 1):
        for blocks in _compositions(total):
            n = len(blocks)
            denom = n * total
            word = ()
            for p, q in blocks:
                denom *= _factorial(p) * _factorial(q)
                word += (0,) * p + (1,) * q
            coeffs[word] = coeffs.get(word, Fraction(0)) + Fraction(
                (-1) ** (n - 1), denom)
    return tuple((w, c) for w, c in coeffs.items() if c)


def bch_product(alg, x, y, max_word_len):
    """log(exp(x) exp(y)) by the integrated Dynkin series, truncated at
    word length max_word_len."""
    out = {}
    for total in range(1, max_word_len + 1):
        for blocks in _compositions(total):
            n = len(blocks)
            denom = total
            for p, q in blocks:
                denom *= _factorial(p) * _factorial(q)
            coeff = Fraction((-1) ** (n - 1), n * denom)
            word = []
            for p, q in blocks:
                word.extend([x] * p)
                word.extend([y] * q)
            # right-nested bracketing [w1,[w2,[...,wk]]]
            term = word[-1]
            for v in reversed(word[:-1]):
                term = alg.bracket_poly(v, term)
                if _is_zero(term):
                    break
            else:
                out = _add_scaled(out, term, coeff)
    return out

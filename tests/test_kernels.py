"""The sparse product kernel, the (terms, den) polynomials, and the rank
oracles.

A polynomial is integer numerators over one positive denominator, in
canonical form.  Products, ``sum_of_products``, ``combine``,
``substitute`` and ``OddDerivation`` are compared with the Fraction
kernel in tests/fraction_kernel_oracle.py (the package's former
implementation, one Fraction per term), and ``text`` with the Fraction
rendering in tests/text_oracle.py, on operands with mixed
denominators, Fraction multipliers and sums that cancel to zero: the
same key set and the same exact coefficients, every result canonical
(no zero numerator, the numerators coprime to the denominator, zero as
({}, 1)), and a single product with its items in the same order.  A sum
promises no order once a running sum cancels, so sums, substitutions
and brackets are compared as canonical forms.  The scaled add that
replaces a product with a constant operand is compared with the tuple
merge's product loop on that operand.  The packed monomial keys are
compared with the tuple merge in tests/tuple_merge_oracle.py (the
package's former monomial product): mixed-parity rings, jets added
after the operands were packed, exponents next to the field limit, and
the same keys in the same order after unpacking; a product past the
limit raises.  The dense Bareiss rank in tests/dense_oracles.py (the
package's former rank kernel) is checked against the pivot count of
dense Gauss-Jordan elimination, and the package's sparse exact_rank
against both.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import fraction_kernel_oracle as oracle
import text_oracle
import tuple_merge_oracle
from dense_oracles import bareiss_rank, dense_rref
from superslice.cohomology import GradedComplex, OddDerivation, differential
from superslice.liealg import LieSuperalgebra, build_sl
from superslice.linalg import RationalMatrix, exact_rank, rref
from superslice.superpoly import (EMAX, UNIT, W, PolyRing, SuperPolynomial,
                                  Variable, add_scaled, combine, key_masks,
                                  mul_int_terms, pack, sum_of_products,
                                  unpack)

F = Fraction
ONE = F(1)
# a tuple on purpose: PolyRing.parities() hands out a tuple
PARITIES = (0, 1, 0, 1, 1, 0)
PRING = PolyRing([Variable(f"v{i}", p) for i, p in enumerate(PARITIES)])


def K(*pairs):
    """The key of the monomial with these (index, exponent) pairs."""
    return pack(pairs)


def packed(terms):
    return {pack(m): c for m, c in terms.items()}


def tupled(terms):
    return {unpack(k): c for k, c in terms.items()}


def oracle_mul(a, b, parities):
    """The Fraction oracle's product of two packed term dicts."""
    return packed(oracle.mul_terms(tupled(a), tupled(b), parities))


def oracle_sum(triples, parities):
    """The Fraction oracle's sum n * a * b of packed term dicts."""
    return packed(oracle.sum_of_products(
        [(n, tupled(a), tupled(b)) for n, a, b in triples], parities))


def rationals(x):
    """The coefficients of a polynomial or an IntTerms as Fractions,
    in term order."""
    return {m: F(n, x.den) for m, n in x.terms.items()}


def assert_canonical(x):
    """(terms, den) in canonical form: nonzero int numerators over a
    positive int den coprime to all of them; zero is ({}, 1)."""
    assert type(x.den) is int and x.den > 0
    assert all(type(n) is int and n for n in x.terms.values())
    assert gcd(x.den, *x.terms.values()) == 1


def assert_same(x, want):
    """x is canonical and has the Fraction term dict want: the same
    items in the same order."""
    assert_canonical(x)
    assert list(rationals(x).items()) == list(want.items())


def assert_equal(x, want):
    """x is canonical and has the Fraction term dict want: the same keys
    and the same exact coefficients, in any order."""
    assert_canonical(x)
    assert rationals(x) == want


P = SuperPolynomial


class TestMulTerms:
    """Fixed products of polynomials (the cases of the former Fraction
    ``mul_terms``)."""

    def test_fixed_koszul_sign(self):
        # x1 * x3 keeps order, x3 * x1 flips sign (both odd)
        a = P(PRING, {K((1, 1)): F(1)})
        b = P(PRING, {K((3, 1)): F(1)})
        assert_same(a * b, {K((1, 1), (3, 1)): F(1)})
        assert_same(b * a, {K((1, 1), (3, 1)): F(-1)})

    def test_fixed_odd_square_dies(self):
        a = P(PRING, {K((1, 1)): F(2, 3)})
        assert (a * a).terms == {} and (a * a).den == 1

    def test_fixed_cancellation_drops_key(self):
        a = P(PRING, {K((0, 1)): F(1, 2), 0: F(1, 2)})
        b = P(PRING, {K((0, 1)): F(2), 0: F(-2)})
        # (x + 1)/2 * 2(x - 1): the x-terms cancel exactly
        assert_same(a * b, {K((0, 2)): F(1), 0: F(-1)})


# -- the integer-numerator kernel against the Fraction oracle -----------------

# four variables, two of them odd: few enough monomials that products
# collide, cancel and square odd factors to zero
RING = PolyRing([Variable("x", 0), Variable("t", 1), Variable("y", 0),
                 Variable("s", 1)])
RPAR = RING.parities()
RMASKS = RING.masks()
# mixed denominators, so that operands are rescaled to a common one
COEFFS = st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 2), F(2, 3),
                          F(-3, 2), F(5, 6), F(-1, 6), F(3), F(7, 4)])
MONOS = st.lists(st.integers(0, 2), min_size=4, max_size=4).map(
    lambda es: K(*((i, 1 if RPAR[i] else e) for i, e in enumerate(es) if e)))


def term_dicts(min_size=0):
    return st.dictionaries(MONOS, COEFFS, min_size=min_size, max_size=5)


def polys(min_size=0):
    return term_dicts(min_size).map(lambda t: P(RING, t))


class TestIntegerKernel:
    @settings(max_examples=200, deadline=None)
    @given(term_dicts(min_size=1), term_dicts(min_size=1))
    def test_mul_terms_matches_oracle(self, a, b):
        assert_same(P(RING, a) * P(RING, b), oracle_mul(a, b, RPAR))

    @settings(max_examples=100, deadline=None)
    @given(term_dicts(min_size=2), st.data())
    def test_cancelling_cross_terms_match_oracle(self, a, data):
        # b is a scaled copy of a with some signs flipped: for commuting
        # monomials m, n the cross terms c_m c_n mn cancel in a * b
        k = data.draw(COEFFS)
        flips = data.draw(st.lists(st.booleans(), min_size=len(a),
                                   max_size=len(a)))
        b = {m: (-k if f else k) * c for (m, c), f in zip(a.items(), flips)}
        assert_same(P(RING, a) * P(RING, b), oracle_mul(a, b, RPAR))

    @given(term_dicts())
    def test_zero_operand(self, a):
        for got in (P(RING, a) * RING.zero(), RING.zero() * P(RING, a)):
            assert got.terms == {} and got.den == 1

    def test_fixed_cancelled_key_is_appended_again(self):
        # (1 + x + x^2)(1 - x + x^2) = 1 + x^2 + x^4: x^2 is met first,
        # cancels to zero, and comes back last
        x, x2 = K((0, 1)), K((0, 2))
        a = {0: F(1, 2), x: F(1, 2), x2: F(1, 2)}
        b = {x2: F(2, 3), x: F(-2, 3), 0: F(2, 3)}
        want = {0: F(1, 3), K((0, 4)): F(1, 3), x2: F(1, 3)}
        got = P(RING, a) * P(RING, b)
        assert_same(got, want)
        assert_same(got, oracle_mul(a, b, RPAR))
        assert got.terms == {0: 1, K((0, 4)): 1, x2: 1} and got.den == 3


# int and Fraction multipliers, zero included: a Fraction's denominator
# joins the product's denominator in the accumulator
MULTIPLIERS = st.integers(-3, 3) | st.sampled_from(
    [F(0), F(1, 2), F(-2, 3), F(5, 4), F(-7, 6), F(3)])
TRIPLES = st.lists(st.tuples(MULTIPLIERS, term_dicts(), term_dicts()),
                   max_size=5)


def poly_triples(triples):
    return [(n, P(RING, a), P(RING, b)) for n, a, b in triples]


class TestSumOfProducts:
    @settings(max_examples=200, deadline=None)
    @given(TRIPLES)
    def test_matches_oracle(self, triples):
        got = sum_of_products(poly_triples(triples), RMASKS)
        assert_canonical(got)
        assert rationals(got) == oracle_sum(triples, RPAR)

    @settings(max_examples=100, deadline=None)
    @given(TRIPLES, st.data())
    def test_cancellation_across_triples(self, triples, data):
        # each triple again with its multiplier negated, in a drawn order:
        # every product cancels against its partner, down to ({}, 1)
        back = data.draw(st.permutations([(-n, a, b) for n, a, b in triples]))
        assert sum_of_products(poly_triples(triples + back), RMASKS) == \
            ({}, 1)
        # a partial cancellation leaves the rest, as the oracle says
        mixed = triples + back[:len(back) // 2]
        got = sum_of_products(poly_triples(mixed), RMASKS)
        assert_canonical(got)
        assert rationals(got) == oracle_sum(mixed, RPAR)

    def test_fixed_cases(self):
        t, x = K((1, 1)), K((0, 1))
        half, third = P(RING, {x: F(1, 2)}), P(RING, {x: F(1, 3), 0: F(2, 3)})
        assert sum_of_products([], RMASKS) == ({}, 1)
        # odd square dies; zero multiplier and empty operands add nothing
        assert sum_of_products([(5, P(RING, {t: F(2, 3)}),
                                 P(RING, {t: F(1, 2)})),
                                (0, half, third), (1, RING.zero(), third)],
                               RMASKS) == ({}, 1)
        # 1/2 x (1/3 x + 2/3) * 3 - 1/4 x^2 over the lcm 6 * 4, made
        # canonical: (x^2 + 4 x) / 4
        got = sum_of_products([(3, half, third), (-1, half, half)], RMASKS)
        assert got == ({K((0, 2)): 1, x: 4}, 4)
        # 2/3 * (1/2 x) * 1 - 1/6 x over the lcm of 2 * 3 and 6
        assert sum_of_products([(F(2, 3), half, UNIT),
                                (F(-1, 6), RING.gen("x"), UNIT)],
                               RMASKS) == ({x: 1}, 6)


class TestCombine:
    @settings(max_examples=100, deadline=None)
    @given(term_dicts(), MULTIPLIERS)
    def test_unit_operand_is_scalar_multiple(self, a, c):
        p = P(RING, a)
        got = combine(RING, {"k": [(c, p, UNIT)]})
        assert got == ({"k": p * c} if a and c else {})

    @settings(max_examples=100, deadline=None)
    @given(TRIPLES, TRIPLES)
    def test_keys_match_sum_of_products(self, kept, other):
        # key "c" cancels exactly and is dropped; "k" and "o" are
        # summed on their own, in key order
        acc = {"c": poly_triples(kept + [(-n, a, b) for n, a, b in kept]),
               "k": poly_triples(kept), "o": poly_triples(other)}
        got = combine(RING, acc)
        want = {key: sum_of_products(acc[key], RMASKS) for key in ("k", "o")}
        assert list(got) == [key for key in ("k", "o") if want[key].terms]
        for key, v in got.items():
            assert v.ring is RING and (v.terms, v.den) == want[key]
            assert rationals(v) == oracle_sum(
                kept if key == "k" else other, RPAR)

    def test_fixed_cancellation_drops_key(self):
        x, t, s = RING.gen("x"), RING.gen("t"), RING.gen("s")
        # t s + s t = 0 for odd t, s
        got = combine(RING, {
            0: [(1, t, s), (1, s, t)],
            1: [(F(1, 2), x, UNIT), (-1, t, UNIT)],
            2: [], 3: [(0, x, UNIT)]})
        assert got == {1: x * F(1, 2) - t}

    def test_parities_read_at_the_call(self):
        # the operands name a jet that the ring gains after they are built
        ring = PolyRing([Variable("u", 1)], differential=True)
        u, du = ring.gen(0), P(ring, {K((1, 1)): F(1)})
        acc = {0: [(1, du, u)]}
        ring.derivative_index(0)
        assert combine(ring, acc) == {0: -(ring.gen(0) * ring.gen(1))}


# -- the canonical (terms, den) form -----------------------------------------

class TestCanonicalForm:
    def test_fixed_half_plus_half(self):
        x = RING.gen("x")
        half = x * F(1, 2)
        assert half.terms == {K((0, 1)): 1} and half.den == 2
        for two_halves in (half + half, x / 2 + x / 2,
                           P(RING, {K((0, 1)): 1}, 2) + half):
            assert two_halves == x
            assert hash(two_halves) == hash(x)
            assert two_halves.terms == {K((0, 1)): 1}
            assert two_halves.den == 1
        assert half != x and half == P(RING, {K((0, 1)): 3}, 6)

    def test_fixed_zero_is_empty_over_one(self):
        x = RING.gen("x")
        for zero in (RING.zero(), RING.const(0), RING.const(F(0, 7)),
                     P(RING, {0: F(0), K((0, 1)): 0}, 5),
                     x * F(1, 3) - x / 3, (x / 2) * 0):
            assert zero.terms == {} and zero.den == 1
            assert zero == RING.zero() and hash(zero) == hash(RING.zero())

    def test_constructor_rejects_inexact_input(self):
        with pytest.raises(TypeError):
            P(RING, {0: 0.5})
        for den in (0, -2, F(1, 2), True):
            with pytest.raises(ValueError):
                SuperPolynomial(RING, {0: 1}, den)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(MONOS, COEFFS | st.integers(-6, 6), max_size=5),
           st.integers(1, 12))
    def test_constructor(self, coeffs, den):
        p = SuperPolynomial(RING, coeffs, den)
        assert_same(p, {m: F(c) / den for m, c in coeffs.items() if c})
        assert dict(p.items()) == {m: p.coefficient(m) for m in p.terms}
        assert p.coefficient(K((3, 1), (2, 2))) == \
            F(coeffs.get(K((3, 1), (2, 2)), 0)) / den
        assert p.constant_term() == F(coeffs.get(0, 0)) / den

    @settings(max_examples=150, deadline=None)
    @given(term_dicts(), term_dicts(), MULTIPLIERS)
    def test_every_result_is_canonical(self, a, b, c):
        p, q = P(RING, a), P(RING, b)
        fa, fb = tupled(a), tupled(b)
        want_sum = packed(oracle.sum_of_products(
            [(ONE, fa, {(): ONE}), (ONE, fb, {(): ONE})], RPAR))
        assert_same(p + q, want_sum)
        assert rationals(p - q) == packed(oracle.sum_of_products(
            [(ONE, fa, {(): ONE}), (-ONE, fb, {(): ONE})], RPAR))
        assert_same(-p, {m: -v for m, v in a.items()})
        assert_same(p * c, {m: v * c for m, v in a.items() if c})
        assert_same(c * p, {m: v * c for m, v in a.items() if c})
        if c:
            assert_same(p / c, {m: v / c for m, v in a.items()})
        for part in p.parity_split():
            assert_canonical(part)
        assert p.parity_split()[0] + p.parity_split()[1] == p
        for i in range(len(RPAR)):
            assert_canonical(p.partial_derivative(i))

    def test_fixed_derivative_and_split_reduce(self):
        # x^2 / 2 -> x, and the odd part t y of x/2 + t y is over 1
        x, y, t = RING.gen("x"), RING.gen("y"), RING.gen("t")
        d = (x * x / 2).partial_derivative("x")
        assert d.terms == {K((0, 1)): 1} and d.den == 1
        ev, od = (x / 2 + t * y).parity_split()
        assert (ev.den, od.den) == (2, 1)
        dt = (x / 2 + t * y).partial_derivative("t")
        assert dt == y and dt.den == 1

    @settings(max_examples=100, deadline=None)
    @given(term_dicts(min_size=1), term_dicts(min_size=1))
    def test_text_matches_oracle_rendering(self, a, b):
        # the Fraction rendering of the oracle's product, byte for byte
        want = oracle.mul_terms(tupled(a), tupled(b), RPAR)
        assert (P(RING, a) * P(RING, b)).text() == \
            text_oracle.text(P(RING, packed(want)))
        assert P(RING, a).text() == text_oracle.text(P(RING, a))


# -- the scaled add that replaces a product with a constant operand ----------

class TestScaledAdd:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(1, 0, 1, 1, 0, 1), (0,) * 6]),
           st.data())
    def test_constant_operand_matches_product_loop(self, parities, data):
        # into an accumulator that already holds some terms, and some of
        # their negatives: the product loop of the tuple merge on the
        # constant monomial () against the package's scaled add
        a = data.draw(int_terms(parities))
        c = data.draw(st.integers(-4, 4).filter(bool))
        scale = data.draw(st.integers(-3, 3).filter(bool))
        prior = data.draw(int_terms(parities))
        prior.update({m: -scale * c * v for m, v in a.items()
                      if data.draw(st.booleans())})
        masks = key_masks(parities)
        scaled = {m: scale * v for m, v in a.items()}
        for got in (mul_int_terms(packed(a), {0: c}, masks, packed(prior),
                                  scale),
                    mul_int_terms({0: c}, packed(a), masks, packed(prior),
                                  scale)):
            want = tuple_merge_oracle.mul_int_terms(scaled, {(): c},
                                                    parities, dict(prior))
            assert list(tupled(got).items()) == list(want.items())
        got = add_scaled(packed(prior), packed(a), scale * c)
        assert list(tupled(got).items()) == list(want.items())

    @settings(max_examples=100, deadline=None)
    @given(term_dicts(), MULTIPLIERS)
    def test_unit_product(self, a, c):
        # (c, p, UNIT) and (c, UNIT, p) against the Fraction product of p
        # and the constant 1, and against p times the polynomial c
        p = P(RING, a)
        want = packed(oracle.sum_of_products(
            [(F(c), tupled(a), {(): ONE})], RPAR))
        for triple in ((c, p, UNIT), (c, UNIT, p), (1, p, RING.const(c))):
            assert_equal(sum_of_products([triple], RMASKS), want)
        assert_same(p * RING.const(c), want)
        assert_same(RING.const(c) * p, want)


# -- substitution and the odd derivation against the Fraction oracle ---------

@st.composite
def image_maps(draw):
    """Images of a random subset of RING's variables: polynomials of the
    variable's parity, with mixed denominators, zero included."""
    images = {}
    for i, par in enumerate(RPAR):
        if draw(st.booleans()):
            images[i] = P(RING, draw(term_dicts())).parity_split()[par]
    return images


class TestSubstitute:
    @settings(max_examples=150, deadline=None)
    @given(term_dicts(), image_maps())
    def test_matches_oracle(self, a, images):
        got = P(RING, a).substitute(images)
        want = oracle.substitute(
            tupled(a), {i: oracle.fractions(q) for i, q in images.items()},
            RPAR)
        assert_equal(got, packed(want))

    @settings(max_examples=100, deadline=None)
    @given(term_dicts(), term_dicts(), term_dicts(), image_maps(), COEFFS)
    def test_cancelling_terms_match_oracle(self, a, b, g, images, c):
        # x and y map to one even image g, so the terms of a (a polynomial
        # in x, t, s) cancel against those of c a with y put for x, down
        # to (1 - c) a at g, while b adds terms of its own
        images[0] = images[2] = P(RING, g).parity_split()[0]
        pa = P(RING, a).evaluate({2: 0})
        p = pa + P(RING, b) - c * pa.substitute({0: RING.gen("y")})
        got = p.substitute(images)
        want = oracle.substitute(
            tupled(dict(p.items())),
            {i: oracle.fractions(q) for i, q in images.items()}, RPAR)
        assert_equal(got, packed(want))
        if c == 1:
            assert got == P(RING, b).substitute(images)

    def test_fixed_cancellation_to_zero(self):
        # (x/2 + y/3) t at x -> 2y/3, y -> -y: every term cancels
        x, y, t = RING.gen("x"), RING.gen("y"), RING.gen("t")
        p = (x / 2 + y / 3) * t
        got = p.substitute({0: y * F(2, 3), 2: -y})
        assert got.terms == {} and got.den == 1
        got = (p + F(5, 4)).substitute({0: y * F(2, 3), 2: -y})
        assert got.terms == {0: 5} and got.den == 4


def oracle_derivation(terms, images, parities):
    """sum c d(m) for a Fraction term dict, d the odd derivation with
    d(x_i) = images[i] (zero if absent), by the Leibniz rule
    d(x_i r) = d(x_i) r + (-1)^{|x_i|} x_i d(r), in Fractions."""
    def d_mono(m):
        if not m:
            return {}
        (i, e), tail = m[0], m[1:]
        rest = ((i, e - 1),) + tail if e > 1 else tail
        return oracle.sum_of_products(
            [(ONE, images.get(i, {}), {rest: ONE}),
             (-ONE if parities[i] else ONE, {((i, 1),): ONE}, d_mono(rest))],
            parities)
    return oracle.sum_of_products(
        [(c, d_mono(m), {(): ONE}) for m, c in terms.items()], parities)


@st.composite
def derivation_images(draw):
    """Images of a random subset of RING's variables for an odd
    derivation: polynomials of the variable's opposite parity, with mixed
    denominators, zero included."""
    images = {}
    for i, par in enumerate(RPAR):
        if draw(st.booleans()):
            images[i] = P(RING, draw(term_dicts())).parity_split()[1 - par]
    return images


class TestOddDerivation:
    @settings(max_examples=150, deadline=None)
    @given(term_dicts(), derivation_images(),
           st.sampled_from(sorted(RING.index)), term_dicts(),
           st.sampled_from([1, 2, 3, 5, 6, 7]))
    def test_matches_oracle(self, a, images, extra, lazy_terms, d):
        # the table's get also serves the variable extra, when it has no
        # drawn image, with an image of the opposite parity over a further
        # denominator d, the way cohomology._JetImages serves jets
        j = RING.index[extra]
        lazy = P(RING, lazy_terms).parity_split()[1 - RPAR[j]] / d

        class LazyTable:
            def get(self, i, default=None):
                if i == j and i not in images:
                    return lazy
                return images.get(i, default)

        served = dict(images)
        served.setdefault(j, lazy)
        got = OddDerivation(RING, LazyTable())(P(RING, a))
        assert_canonical(got)
        want = oracle_derivation(
            tupled(a), {i: oracle.fractions(q) for i, q in served.items()},
            RPAR)
        assert rationals(got) == packed(want)

    @pytest.mark.parametrize("var,image", [
        ("x", lambda x, t, y, s: y * 2),
        ("t", lambda x, t, y, s: s / 3),
        ("x", lambda x, t, y, s: t + x * y),
        ("s", lambda x, t, y, s: x * y + t / 2)],
        ids=["even-to-even", "odd-to-odd", "even-to-mixed", "odd-to-mixed"])
    def test_wrong_parity_image_raises(self, var, image):
        # checked on the first polynomial that holds the variable: one
        # without it is mapped, and a zero image is allowed
        j = RING.index[var]
        gens = [RING.gen(i) for i in range(len(RPAR))]
        other = next(i for i in range(len(RPAR)) if i != j)
        d = OddDerivation(RING, {j: image(*gens), other: RING.zero()})
        assert d(gens[other] * gens[other]).is_zero()
        with pytest.raises(ValueError, match=f"image of {var} must have "
                                             f"the parity opposite"):
            d(gens[j] + gens[other])


# -- packed keys against the tuple merge ------------------------------------

# eight variables: odd ones interleaved with even ones, so that merges
# meet interleaved odd indices, disjoint ranges and shared indices
MPAR = (1, 0, 1, 1, 0, 1, 0, 1)
EVEN = (0,) * 8
# small exponents, and exponents one and two below the field limit:
# sums of two of them reach the limit or pass it
EXPS = st.sampled_from([1, 2, 3, EMAX - 2, EMAX - 1])


@st.composite
def monomials(draw, parities, exps=st.integers(1, 3)):
    idx = draw(st.lists(st.integers(0, len(parities) - 1), unique=True,
                        max_size=5))
    return tuple((i, 1 if parities[i] else draw(exps)) for i in sorted(idx))


@st.composite
def int_terms(draw, parities, exps=st.integers(1, 3)):
    """A tuple-keyed term dict with nonzero int coefficients."""
    monos = draw(st.lists(monomials(parities, exps), unique=True,
                          max_size=4))
    return {m: draw(st.integers(-3, 3).filter(bool)) for m in monos}


def passes_limit(a, b, parities):
    """Whether some pair of monomials of a and b, by the tuple merge,
    has a nonzero product with an exponent above EMAX."""
    for ma in a:
        for mb in b:
            mono, sign = tuple_merge_oracle.mul_monomials(ma, mb, parities)
            if sign and any(e > EMAX for _, e in mono):
                return True
    return False


def assert_packed_matches(a, b, parities, masks):
    """The packed kernel against the tuple merge: the same keys in the
    same order after unpacking, and a raise exactly when the product
    passes the field limit."""
    if passes_limit(a, b, parities):
        with pytest.raises(OverflowError):
            mul_int_terms(packed(a), packed(b), masks)
        return
    got = mul_int_terms(packed(a), packed(b), masks)
    want = tuple_merge_oracle.mul_int_terms(a, b, parities)
    assert list(tupled(got).items()) == list(want.items())


def monomial_product(ma, mb, parities):
    """(monomial, sign) of two tuple monomials by the packed kernel, or
    (None, 0) when the product is zero, as the tuple merge returns it."""
    got = tupled(mul_int_terms({pack(ma): 1}, {pack(mb): 1},
                               key_masks(parities)))
    if not got:
        return None, 0
    (mono, sign), = got.items()
    return mono, sign


class TestMulMonomials:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([MPAR, EVEN]), st.data())
    def test_matches_oracle(self, parities, data):
        ma = data.draw(monomials(parities))
        mb = data.draw(monomials(parities))
        want = tuple_merge_oracle.mul_monomials(ma, mb, parities)
        assert monomial_product(ma, mb, parities) == want
        assert oracle.mul_monomials(ma, mb, parities) == want

    def test_fixed_cases(self):
        def both(ma, mb, par=MPAR):
            got = monomial_product(ma, mb, par)
            assert got == tuple_merge_oracle.mul_monomials(ma, mb, par)
            assert got == oracle.mul_monomials(ma, mb, par)
            return got
        # interleaved odd indices: t0 t3 * t2 t5 moves t3 past t2
        assert both(((0, 1), (3, 1)), ((2, 1), (5, 1))) == \
            (((0, 1), (2, 1), (3, 1), (5, 1)), -1)
        # odd factors of ma left over once mb is used up
        assert both(((0, 1), (5, 1), (7, 1)), ((2, 1), (3, 1))) == \
            (((0, 1), (2, 1), (3, 1), (5, 1), (7, 1)), 1)
        assert both(((0, 1), (7, 1)), ((1, 2), (2, 1))) == \
            (((0, 1), (1, 2), (2, 1), (7, 1)), -1)
        # disjoint index ranges, in either order
        assert both(((0, 1), (2, 1)), ((3, 1), (5, 1))) == \
            (((0, 1), (2, 1), (3, 1), (5, 1)), 1)
        assert both(((3, 1), (4, 1)), ((0, 1), (1, 1))) == \
            (((0, 1), (1, 1), (3, 1), (4, 1)), -1)
        # a shared odd index dies, a shared even index adds exponents
        assert both(((0, 1), (3, 1)), ((3, 1),)) == (None, 0)
        assert both(((1, 2), (3, 1)), ((1, 1), (2, 1))) == \
            (((1, 3), (2, 1), (3, 1)), -1)
        # an all-even ring never changes sign
        assert both(((2, 1), (5, 2)), ((0, 1), (2, 3), (7, 1)), EVEN) == \
            (((0, 1), (2, 4), (5, 2), (7, 1)), 1)


class TestPackedKeys:
    def test_layout(self):
        assert pack(()) == 0 and unpack(0) == ()
        assert pack(((0, 1),)) == 1
        assert pack(((0, 2), (3, EMAX))) == 2 + (EMAX << (3 * W))
        assert unpack(pack(((1, 1), (4, 5)))) == ((1, 1), (4, 5))
        with pytest.raises(OverflowError):
            pack(((2, EMAX + 1),))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=10), st.data())
    def test_matches_tuple_merge_on_mixed_parities(self, parities, data):
        parities = tuple(parities)
        a = data.draw(int_terms(parities, EXPS))
        b = data.draw(int_terms(parities, EXPS))
        assert_packed_matches(a, b, parities, key_masks(parities))
        assert_packed_matches(b, a, parities, key_masks(parities))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([MPAR, EVEN]), st.data())
    def test_accumulates_like_tuple_merge(self, parities, data):
        # products summed into one dict, cancellations included
        pairs = data.draw(st.lists(st.tuples(int_terms(parities),
                                             int_terms(parities)),
                                   max_size=4))
        pairs += [({m: -c for m, c in a.items()}, b) for a, b in pairs[:2]]
        got, want = {}, {}
        for a, b in pairs:
            mul_int_terms(packed(a), packed(b), key_masks(parities), got)
            tuple_merge_oracle.mul_int_terms(a, b, parities, want)
        assert list(tupled(got).items()) == list(want.items())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=4), st.data())
    def test_jets_added_after_packing(self, parities, data):
        # operands on the order-zero variables are packed first; the
        # jets come later, and products with them read the new masks
        ring = PolyRing([Variable(f"u{i}", p) for i, p in
                         enumerate(parities)], differential=True)
        a = data.draw(int_terms(ring.parities()))
        pa = packed(a)
        for i in range(len(parities)):
            ring.derivative_index(ring.derivative_index(i))
        b = data.draw(int_terms(ring.parities()))
        got = mul_int_terms(pa, packed(b), ring.masks())
        want = tuple_merge_oracle.mul_int_terms(a, b, ring.parities())
        assert list(tupled(got).items()) == list(want.items())

    def test_overflow_raises(self):
        ring = PolyRing([Variable("x", 0), Variable("t", 1)])
        x, t = ring.gen("x"), ring.gen("t")
        top = x ** EMAX
        assert top.text() == f"x^{EMAX}"
        assert (top * t).text() == f"x^{EMAX}*t"
        # the carry would land in t's field: it must raise instead
        with pytest.raises(OverflowError):
            x ** (2 ** (W - 1))
        with pytest.raises(OverflowError):
            top * x
        # an odd square is zero, not an overflow, beside a full field
        assert (top * t * t).is_zero()

    def test_key_outside_the_ring_raises(self):
        # masks read before a jet was added do not cover the jet
        ring = PolyRing([Variable("u", 1)], differential=True)
        stale = ring.masks()
        du = ring.gen(ring.derivative_index(0))
        with pytest.raises(ValueError, match="outside the ring"):
            mul_int_terms(du.terms, ring.gen(0).terms, stale)
        with pytest.raises(ValueError, match="outside the ring"):
            mul_int_terms(ring.gen(0).terms, du.terms, stale)

    def test_weight_block_past_the_limit_raises(self):
        # the complex refuses a truncation whose top block needs x^(EMAX+1)
        ring = PolyRing([Variable("x", 0, wt2=1)])
        d = differential(ring, {})
        cx = GradedComplex(d, [0], [], EMAX)
        assert cx.block_basis(0, EMAX) == [pack(((0, EMAX),))]
        with pytest.raises(OverflowError, match=f"exponent limit {EMAX}"):
            GradedComplex(d, [0], [], EMAX + 1)
        # an odd variable never passes exponent 1, however light it is
        ring = PolyRing([Variable("x", 0, wt2=2), Variable("t", 1, wt2=1)])
        cx = GradedComplex(differential(ring, {}), [0], [1],
                           2 * EMAX + 1)
        assert cx.block_basis(1, 2 * EMAX + 1) == [pack(((0, EMAX), (1, 1)))]


def rescaled_sl21(label):
    """sl(2|1) with basis vector ``label`` scaled by 1/3: the structure
    constants [x_i, x_j] = sum_m c x_m become c s_i s_j / s_m."""
    alg = build_sl(2, 1)
    scale = [F(1)] * alg.dim
    scale[alg.index[label]] = F(1, 3)
    table = {(i, j): {m: c * scale[i] * scale[j] / scale[m]
                      for m, c in row.items()}
             for (i, j), row in alg.table.items()}
    return LieSuperalgebra(alg.labels, alg.parities, table)


@st.composite
def poly_vectors(draw, dim):
    """Basis index -> polynomial of any parity on RING, zero included."""
    idx = draw(st.lists(st.integers(0, dim - 1), max_size=4, unique=True))
    return {i: SuperPolynomial(RING, draw(term_dicts())) for i in idx}


def sharing_pairs(alg):
    """(i, j, i2, j2, k) with i != i2, j != j2, x_i and x_i2 of one
    parity, and k in the table rows of both (i, j) and (i2, j2)."""
    par = alg.parities
    return [(i, j, i2, j2, k)
            for (i, j), row in alg.table.items()
            for (i2, j2), row2 in alg.table.items()
            if i != i2 and j != j2 and par[i] == par[i2]
            for k in row if k in row2]


def assert_bracket_matches_oracle(alg, x, y):
    """bracket_poly against the Fraction oracle: the same components,
    each canonical with the same exact coefficients, and no component
    that sums to zero."""
    got = alg.bracket_poly(x, y)
    want = oracle.bracket_poly(alg, x, y)
    assert set(got) == set(want)
    for k, v in got.items():
        assert v.ring is RING and v.terms
        assert_equal(v, dict(want[k].items()))


class TestBracketPoly:
    @pytest.mark.parametrize("label", ["e13", "e12"])
    def test_rescaled_table_has_denominators(self, label):
        alg = rescaled_sl21(label)
        dens = {c.denominator for row in alg.table.values()
                for c in row.values()}
        assert max(dens) > 1

    @pytest.mark.parametrize("label", ["e13", "e12"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_on_rescaled_sl21(self, label, data):
        alg = rescaled_sl21(label)
        x = data.draw(poly_vectors(alg.dim))
        y = data.draw(poly_vectors(alg.dim))
        assert_bracket_matches_oracle(alg, x, y)

    @pytest.mark.parametrize("label", ["e13", "e12"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cancelling_pairs_match_oracle(self, label, data):
        # two pairs (i, j), (i2, j2) of one parity for i and i2 that meet
        # in a component k, with coefficients that cancel there exactly,
        # beside a drawn vector of other pairs
        alg = rescaled_sl21(label)
        i, j, i2, j2, k = data.draw(st.sampled_from(sharing_pairs(alg)))
        a, b = (P(RING, data.draw(term_dicts(min_size=1))) for _ in "ab")
        c, c2 = alg.table[i, j][k], alg.table[i2, j2][k]
        x = data.draw(poly_vectors(alg.dim))
        y = data.draw(poly_vectors(alg.dim))
        x.update({i: a * c2, i2: -(a * c)})
        y.update({j: b, j2: b})
        assert_bracket_matches_oracle(alg, x, y)

    @pytest.mark.parametrize("alg", [
        build_sl(2, 1), rescaled_sl21("e13"), rescaled_sl21("e12")],
        ids=["sl21", "rescaled-e13", "rescaled-e12"])
    def test_fixed_cancelled_component_is_absent(self, alg):
        # [e12, e23] and [h1, e13] both land on e13, and the coefficients
        # of e12 and h1 make the two products cancel there; the odd e31
        # with the odd t meets the odd t of y, whose product t t is zero
        e = alg.index
        x_, t = RING.gen("x"), RING.gen("t")
        a = x_ / 2 + 1
        c = alg.table[e["e12"], e["e23"]][e["e13"]]
        c2 = alg.table[e["h1"], e["e13"]][e["e13"]]
        x = {e["e12"]: a * c2, e["h1"]: -(a * c), e["e31"]: t}
        y = {e["e23"]: t, e["e13"]: t}
        got = alg.bracket_poly(x, y)
        assert set(got) == {e["e23"]}
        # [h1, e23] = c3 e23 leaves -c c3 a t
        c3 = alg.table[e["h1"], e["e23"]][e["e23"]]
        assert got[e["e23"]] == -(a * t) * c * c3
        assert_bracket_matches_oracle(alg, x, y)

    def test_rings_must_agree(self):
        alg = build_sl(2)
        other = PolyRing([Variable("x", 0)])
        x = {alg.index["e12"]: RING.gen("x")}
        y = {alg.index["e21"]: other.gen("x")}
        with pytest.raises(ValueError, match="different rings"):
            alg.bracket_poly(x, y)


class TestBareissRank:
    def test_fixed_ranks(self):
        cases = [
            ([[1, 2], [2, 4]], 1),
            ([[1, 0], [0, 1]], 2),
            ([[0, 0], [0, 0]], 0),
            ([[2, 3, 5], [7, 11, 13], [9, 14, 18]], 2),  # row3 = row1+row2
            ([[2, 3, 5], [7, 11, 13], [9, 14, 19]], 3),
        ]
        for rows, want in cases:
            assert bareiss_rank([list(r) for r in rows]) == want
            assert exact_rank(RationalMatrix(rows)) == want

    def test_no_input_mutation(self):
        rows = [[1, 2], [3, 4]]
        keep = [list(r) for r in rows]
        bareiss_rank(rows)
        assert rows == keep
        m = RationalMatrix(rows)
        exact_rank(m)
        rref(m)
        assert m.rows == keep

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_matches_gaussian_pivot_count(self, nr, nc, data):
        rows = [[data.draw(st.integers(-20, 20)) for _ in range(nc)]
                for _ in range(nr)]
        _, pivots = dense_rref(rows, nc)
        want = len(pivots)
        assert bareiss_rank(rows) == want
        assert exact_rank(RationalMatrix(rows)) == want

    def test_big_integer_entries(self):
        # growth control: determinants overflow machine words fast
        rows = [[10 ** 30 + i * j for j in range(5)] for i in range(5)]
        rows[2] = [2 * x for x in rows[1]]
        assert exact_rank(RationalMatrix(rows)) == bareiss_rank(rows) == 2

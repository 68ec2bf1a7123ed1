"""The sparse product kernel, and the rank oracles.

mul_terms is pinned on fixed cases: the Koszul sign of two odd factors,
an odd square dying, and exact cancellation dropping its key.  The
integer-numerator kernel under mul_terms, SuperPolynomial.__mul__ and
LieSuperalgebra.bracket_poly is compared with the Fraction kernel in
tests/fraction_kernel_oracle.py (the package's former implementation):
same items in the same order, every coefficient a Fraction.
sum_of_products, the one accumulator under mul_terms, the lambda
bracket and (through combine and UNIT) every linear combination of
polynomials, is compared with the oracle's products summed in
Fractions, for int and Fraction multipliers.  The packed monomial keys
are compared with the tuple merge in tests/tuple_merge_oracle.py (the
package's former monomial product): mixed-parity rings, jets added
after the operands were packed, exponents next to the field limit, and
the same keys in the same order after unpacking; a product past the
limit raises.  The dense Bareiss rank in tests/dense_oracles.py (the
package's former rank kernel) is checked against the pivot count of
dense Gauss-Jordan elimination, and the package's sparse exact_rank
against both.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_kernel_oracle as oracle
import tuple_merge_oracle
from dense_oracles import bareiss_rank, dense_rref
from superslice.cohomology import GradedComplex
from superslice.liealg import LieSuperalgebra, build_sl
from superslice.linalg import RationalMatrix, exact_rank, rref
from superslice.superpoly import (EMAX, UNIT, W, PolyRing, SuperPolynomial,
                                  Variable, combine, key_masks,
                                  mul_int_terms, mul_terms, pack,
                                  sum_of_products, unpack)

F = Fraction
# a tuple on purpose: PolyRing.parities() hands out a tuple
PARITIES = (0, 1, 0, 1, 1, 0)
PMASKS = key_masks(PARITIES)


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


class TestMulTerms:
    def test_fixed_koszul_sign(self):
        # x1 * x3 keeps order, x3 * x1 flips sign (both odd)
        a = {K((1, 1)): F(1)}
        b = {K((3, 1)): F(1)}
        assert mul_terms(a, b, PMASKS) == {K((1, 1), (3, 1)): F(1)}
        assert mul_terms(b, a, PMASKS) == {K((1, 1), (3, 1)): F(-1)}

    def test_fixed_odd_square_dies(self):
        a = {K((1, 1)): F(2)}
        assert mul_terms(a, a, PMASKS) == {}

    def test_fixed_cancellation_drops_key(self):
        a = {K((0, 1)): F(1), 0: F(1)}
        b = {K((0, 1)): F(1), 0: F(-1)}
        # (x + 1)(x - 1): the x-terms cancel exactly
        assert mul_terms(a, b, PMASKS) == {K((0, 2)): F(1), 0: F(-1)}


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


def assert_same(got, want):
    """Same items in the same order, every coefficient a Fraction."""
    assert list(got.items()) == list(want.items())
    assert all(type(c) is Fraction for c in got.values())


class TestIntegerKernel:
    @settings(max_examples=200, deadline=None)
    @given(term_dicts(min_size=1), term_dicts(min_size=1))
    def test_mul_terms_matches_oracle(self, a, b):
        assert_same(mul_terms(a, b, RMASKS), oracle_mul(a, b, RPAR))
        got = SuperPolynomial(RING, a) * SuperPolynomial(RING, b)
        assert_same(got.terms, oracle_mul(a, b, RPAR))

    @settings(max_examples=100, deadline=None)
    @given(term_dicts(min_size=2), st.data())
    def test_cancelling_cross_terms_match_oracle(self, a, data):
        # b is a scaled copy of a with some signs flipped: for commuting
        # monomials m, n the cross terms c_m c_n mn cancel in a * b
        k = data.draw(COEFFS)
        flips = data.draw(st.lists(st.booleans(), min_size=len(a),
                                   max_size=len(a)))
        b = {m: (-k if f else k) * c for (m, c), f in zip(a.items(), flips)}
        assert_same(mul_terms(a, b, RMASKS), oracle_mul(a, b, RPAR))

    @given(term_dicts())
    def test_zero_operand(self, a):
        assert mul_terms(a, {}, RMASKS) == {} == mul_terms({}, a, RMASKS)

    def test_fixed_cancelled_key_is_appended_again(self):
        # (1 + x + x^2)(1 - x + x^2) = 1 + x^2 + x^4: x^2 is met first,
        # cancels to zero, and comes back last
        x, x2 = K((0, 1)), K((0, 2))
        a = {0: F(1, 2), x: F(1, 2), x2: F(1, 2)}
        b = {x2: F(2, 3), x: F(-2, 3), 0: F(2, 3)}
        want = {0: F(1, 3), K((0, 4)): F(1, 3), x2: F(1, 3)}
        got = mul_terms(a, b, RMASKS)
        assert_same(got, want)
        assert_same(got, oracle_mul(a, b, RPAR))


def oracle_sum(triples, parities):
    """sum n * a * b, each product by the Fraction oracle, summed in
    Fractions one product at a time."""
    out = {}
    for n, a, b in triples:
        for m, c in oracle_mul(a, b, parities).items():
            s = out.get(m, 0) + n * c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


# int and Fraction multipliers, zero included: a Fraction's denominator
# joins the product's denominator in the accumulator
MULTIPLIERS = st.integers(-3, 3) | st.sampled_from(
    [F(0), F(1, 2), F(-2, 3), F(5, 4), F(-7, 6), F(3)])
TRIPLES = st.lists(st.tuples(MULTIPLIERS, term_dicts(), term_dicts()),
                   max_size=5)


class TestSumOfProducts:
    @settings(max_examples=200, deadline=None)
    @given(TRIPLES)
    def test_matches_oracle(self, triples):
        got = sum_of_products(triples, RMASKS)
        assert got == oracle_sum(triples, RPAR)
        assert all(type(c) is Fraction for c in got.values())

    @settings(max_examples=100, deadline=None)
    @given(TRIPLES, st.data())
    def test_cancellation_across_triples(self, triples, data):
        # each triple again with its multiplier negated, in a drawn order:
        # every product cancels against its partner
        back = data.draw(st.permutations([(-n, a, b) for n, a, b in triples]))
        assert sum_of_products(triples + back, RMASKS) == {}
        # a partial cancellation leaves the rest, as the oracle says
        mixed = triples + back[:len(back) // 2]
        got = sum_of_products(mixed, RMASKS)
        assert got == oracle_sum(mixed, RPAR)
        assert all(type(c) is Fraction for c in got.values())

    def test_fixed_cases(self):
        t, x = K((1, 1)), K((0, 1))
        half, third = {x: F(1, 2)}, {x: F(1, 3), 0: F(2, 3)}
        assert sum_of_products([], RMASKS) == {}
        # odd square dies; zero multiplier and empty operands add nothing
        assert sum_of_products([(5, {t: F(2, 3)}, {t: F(1, 2)}),
                                (0, half, third), (1, {}, third)],
                               RMASKS) == {}
        # 1/2 x (1/3 x + 2/3) * 3 - 1/4 x^2 over the lcm 6 * 4
        got = sum_of_products([(3, half, third), (-1, half, half)], RMASKS)
        assert got == {K((0, 2)): F(1, 4), x: F(1)}
        assert all(type(c) is Fraction for c in got.values())
        # 2/3 * (1/2 x) * 1 - 1/6 x over the lcm of 2 * 3 and 6
        assert sum_of_products([(F(2, 3), half, UNIT),
                                (F(-1, 6), {x: F(1)}, UNIT)], RMASKS) == \
            {x: F(1, 6)}


class TestCombine:
    @settings(max_examples=100, deadline=None)
    @given(term_dicts(), MULTIPLIERS)
    def test_unit_operand_is_scalar_multiple(self, a, c):
        p = SuperPolynomial(RING, a)
        got = combine(RING, {"k": [(c, p.terms, UNIT)]})
        assert got == ({"k": p * c} if a and c else {})

    @settings(max_examples=100, deadline=None)
    @given(TRIPLES, TRIPLES)
    def test_keys_match_sum_of_products(self, kept, other):
        # key "c" cancels exactly and is dropped; "k" and "o" are
        # summed on their own, in key order
        acc = {"c": kept + [(-n, a, b) for n, a, b in kept],
               "k": kept, "o": other}
        got = combine(RING, acc)
        want = {key: sum_of_products(acc[key], RMASKS) for key in ("k", "o")}
        assert list(got) == [key for key in ("k", "o") if want[key]]
        for key, v in got.items():
            assert v.ring is RING and v.terms == want[key]

    def test_fixed_cancellation_drops_key(self):
        x, t, s = RING.gen("x"), RING.gen("t"), RING.gen("s")
        # t s + s t = 0 for odd t, s
        got = combine(RING, {
            0: [(1, t.terms, s.terms), (1, s.terms, t.terms)],
            1: [(F(1, 2), x.terms, UNIT), (-1, t.terms, UNIT)],
            2: [], 3: [(0, x.terms, UNIT)]})
        assert got == {1: x * F(1, 2) - t}

    def test_parities_read_at_the_call(self):
        # the operands name a jet that the ring gains after they are built
        ring = PolyRing([Variable("u", 1)], differential=True)
        u, du = ring.gen(0).terms, {K((1, 1)): F(1)}
        acc = {0: [(1, du, u)]}
        ring.derivative_index(0)
        assert combine(ring, acc) == {0: -(ring.gen(0) * ring.gen(1))}


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
        ring = PolyRing([Variable("x", 0, wt2=1)])
        cx = GradedComplex(ring, {}, [0], [], 2 * EMAX + 2)
        assert cx.block_basis(0, EMAX) == [pack(((0, EMAX),))]
        with pytest.raises(OverflowError):
            cx.block_basis(0, EMAX + 1)


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
        got = alg.bracket_poly(x, y)
        want = oracle.bracket_poly(alg, x, y)
        assert list(got) == list(want)
        for k, v in got.items():
            assert v.ring is RING
            assert_same(v.terms, want[k].terms)

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

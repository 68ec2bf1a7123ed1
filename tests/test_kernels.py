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
Fractions, for int and Fraction multipliers, and mul_monomials with
the oracle's merge.  The dense
Bareiss rank in tests/dense_oracles.py (the package's former rank
kernel) is checked against the pivot count of dense Gauss-Jordan
elimination, and the package's sparse exact_rank against both.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_kernel_oracle as oracle
from dense_oracles import bareiss_rank, dense_rref
from superslice.liealg import LieSuperalgebra, build_sl
from superslice.linalg import RationalMatrix, exact_rank, rref
from superslice.superpoly import (UNIT, PolyRing, SuperPolynomial, Variable,
                                  combine, mul_monomials, mul_terms,
                                  sum_of_products)

F = Fraction
# a tuple on purpose: PolyRing.parities() hands the kernel a tuple
PARITIES = (0, 1, 0, 1, 1, 0)


class TestMulTerms:
    def test_fixed_koszul_sign(self):
        # x1 * x3 keeps order, x3 * x1 flips sign (both odd)
        a = {((1, 1),): F(1)}
        b = {((3, 1),): F(1)}
        assert mul_terms(a, b, PARITIES) == {((1, 1), (3, 1)): F(1)}
        assert mul_terms(b, a, PARITIES) == {((1, 1), (3, 1)): F(-1)}

    def test_fixed_odd_square_dies(self):
        a = {((1, 1),): F(2)}
        assert mul_terms(a, a, PARITIES) == {}

    def test_fixed_cancellation_drops_key(self):
        a = {((0, 1),): F(1), (): F(1)}
        b = {((0, 1),): F(1), (): F(-1)}
        # (x + 1)(x - 1): the x-terms cancel exactly
        assert mul_terms(a, b, PARITIES) == {((0, 2),): F(1), (): F(-1)}


# -- the integer-numerator kernel against the Fraction oracle -----------------

# four variables, two of them odd: few enough monomials that products
# collide, cancel and square odd factors to zero
RING = PolyRing([Variable("x", 0), Variable("t", 1), Variable("y", 0),
                 Variable("s", 1)])
RPAR = RING.parities()
# mixed denominators, so that operands are rescaled to a common one
COEFFS = st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 2), F(2, 3),
                          F(-3, 2), F(5, 6), F(-1, 6), F(3), F(7, 4)])
MONOS = st.lists(st.integers(0, 2), min_size=4, max_size=4).map(
    lambda es: tuple((i, 1 if RPAR[i] else e) for i, e in enumerate(es) if e))


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
        assert_same(mul_terms(a, b, RPAR), oracle.mul_terms(a, b, RPAR))
        got = SuperPolynomial(RING, a) * SuperPolynomial(RING, b)
        assert_same(got.terms, oracle.mul_terms(a, b, RPAR))

    @settings(max_examples=100, deadline=None)
    @given(term_dicts(min_size=2), st.data())
    def test_cancelling_cross_terms_match_oracle(self, a, data):
        # b is a scaled copy of a with some signs flipped: for commuting
        # monomials m, n the cross terms c_m c_n mn cancel in a * b
        k = data.draw(COEFFS)
        flips = data.draw(st.lists(st.booleans(), min_size=len(a),
                                   max_size=len(a)))
        b = {m: (-k if f else k) * c for (m, c), f in zip(a.items(), flips)}
        assert_same(mul_terms(a, b, RPAR), oracle.mul_terms(a, b, RPAR))

    @given(term_dicts())
    def test_zero_operand(self, a):
        assert mul_terms(a, {}, RPAR) == {} == mul_terms({}, a, RPAR)

    def test_fixed_cancelled_key_is_appended_again(self):
        # (1 + x + x^2)(1 - x + x^2) = 1 + x^2 + x^4: x^2 is met first,
        # cancels to zero, and comes back last
        x, x2 = ((0, 1),), ((0, 2),)
        a = {(): F(1, 2), x: F(1, 2), x2: F(1, 2)}
        b = {x2: F(2, 3), x: F(-2, 3), (): F(2, 3)}
        want = {(): F(1, 3), ((0, 4),): F(1, 3), x2: F(1, 3)}
        got = mul_terms(a, b, RPAR)
        assert_same(got, want)
        assert_same(got, oracle.mul_terms(a, b, RPAR))


def oracle_sum(triples, parities):
    """sum n * a * b, each product by the Fraction oracle, summed in
    Fractions one product at a time."""
    out = {}
    for n, a, b in triples:
        for m, c in oracle.mul_terms(a, b, parities).items():
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
        got = sum_of_products(triples, RPAR)
        assert got == oracle_sum(triples, RPAR)
        assert all(type(c) is Fraction for c in got.values())

    @settings(max_examples=100, deadline=None)
    @given(TRIPLES, st.data())
    def test_cancellation_across_triples(self, triples, data):
        # each triple again with its multiplier negated, in a drawn order:
        # every product cancels against its partner
        back = data.draw(st.permutations([(-n, a, b) for n, a, b in triples]))
        assert sum_of_products(triples + back, RPAR) == {}
        # a partial cancellation leaves the rest, as the oracle says
        mixed = triples + back[:len(back) // 2]
        got = sum_of_products(mixed, RPAR)
        assert got == oracle_sum(mixed, RPAR)
        assert all(type(c) is Fraction for c in got.values())

    def test_fixed_cases(self):
        t, x = ((1, 1),), ((0, 1),)
        half, third = {x: F(1, 2)}, {x: F(1, 3), (): F(2, 3)}
        assert sum_of_products([], RPAR) == {}
        # odd square dies; zero multiplier and empty operands add nothing
        assert sum_of_products([(5, {t: F(2, 3)}, {t: F(1, 2)}),
                                (0, half, third), (1, {}, third)],
                               RPAR) == {}
        # 1/2 x (1/3 x + 2/3) * 3 - 1/4 x^2 over the lcm 6 * 4
        got = sum_of_products([(3, half, third), (-1, half, half)], RPAR)
        assert got == {((0, 2),): F(1, 4), x: F(1)}
        assert all(type(c) is Fraction for c in got.values())
        # 2/3 * (1/2 x) * 1 - 1/6 x over the lcm of 2 * 3 and 6
        assert sum_of_products([(F(2, 3), half, UNIT),
                                (F(-1, 6), {x: F(1)}, UNIT)], RPAR) == \
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
        want = {key: sum_of_products(acc[key], RPAR) for key in ("k", "o")}
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
        u, du = ring.gen(0).terms, {((1, 1),): F(1)}
        acc = {0: [(1, du, u)]}
        ring.derivative_index(0)
        assert combine(ring, acc) == {0: -(ring.gen(0) * ring.gen(1))}


# eight variables: odd ones interleaved with even ones, so that merges
# meet interleaved odd indices, disjoint ranges and shared indices
MPAR = (1, 0, 1, 1, 0, 1, 0, 1)
EVEN = (0,) * 8


@st.composite
def monomials(draw, parities):
    idx = draw(st.lists(st.integers(0, 7), unique=True, max_size=5))
    return tuple((i, 1 if parities[i] else draw(st.integers(1, 3)))
                 for i in sorted(idx))


class TestMulMonomials:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([MPAR, EVEN]), st.data())
    def test_matches_oracle(self, parities, data):
        ma = data.draw(monomials(parities))
        mb = data.draw(monomials(parities))
        assert mul_monomials(ma, mb, parities) == \
            oracle.mul_monomials(ma, mb, parities)

    def test_fixed_cases(self):
        def both(ma, mb, par=MPAR):
            got = mul_monomials(ma, mb, par)
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

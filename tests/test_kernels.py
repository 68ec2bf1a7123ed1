"""The sparse product kernel, and the rank oracles.

mul_terms is pinned on fixed cases: the Koszul sign of two odd factors,
an odd square dying, and exact cancellation dropping its key.  The dense
Bareiss rank in tests/dense_oracles.py (the package's former rank
kernel) is checked against the pivot count of dense Gauss-Jordan
elimination, and the package's sparse exact_rank against both.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dense_oracles import bareiss_rank, dense_rref
from superslice.linalg import RationalMatrix, exact_rank, rref
from superslice.superpoly import mul_terms

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

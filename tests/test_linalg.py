"""Exact linear algebra: rank, RREF, solve, nullspace.

The fraction-free integer core is compared with two oracles that share
no code with it: the package's former sparse elimination over Fractions
(tests/fraction_elimination_oracle.py) and dense Bareiss and
Gauss-Jordan elimination (tests/dense_oracles.py).
"""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

import fraction_elimination_oracle as fraction_oracle
from dense_oracles import dense_nullspace, dense_rank, dense_rref, dense_solve
from superslice.linalg import (RationalMatrix, exact_rank, from_columns,
                               nullspace, row_nullspace, row_rank, row_solve,
                               rref, solve)


def transpose(m):
    """The transpose of a RationalMatrix."""
    return RationalMatrix([list(c) for c in zip(*m.rows)])


def times_vector(m, v):
    """The product of a RationalMatrix and a vector, as a list."""
    return [sum((a * x for a, x in zip(r, v)), Fraction(0)) for r in m.rows]


def test_rank_trivial():
    assert exact_rank(RationalMatrix.zeros(3, 4)) == 0
    assert exact_rank(RationalMatrix.identity(5)) == 5
    assert exact_rank(RationalMatrix([[Fraction(1, 2), 1], [1, 2]])) == 1


def test_rank_known():
    m = RationalMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert exact_rank(m) == 2


def test_rref_pivots():
    m = RationalMatrix([[0, 2, 4], [1, 1, 1]])
    r, piv = rref(m)
    assert piv == [0, 1]
    assert r.rows[0] == [1, 0, -1]
    assert r.rows[1] == [0, 1, 2]


def test_solve_and_inconsistent():
    m = RationalMatrix([[1, 1], [1, -1]])
    x = solve(m, [3, 1])
    assert x == [2, 1]
    bad = RationalMatrix([[1, 1], [2, 2]])
    assert solve(bad, [1, 3]) is None
    assert solve(bad, [1, 2]) is not None


def test_nullspace_annihilates():
    m = RationalMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    for v in nullspace(m):
        assert all(not x for x in times_vector(m, v))
    assert len(nullspace(m)) == 3 - exact_rank(m)


def test_from_columns():
    m = from_columns([[1, 0], [2, 3]])
    assert m.rows == [[1, 2], [0, 3]]


small = st.fractions(min_value=-5, max_value=5)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_rank_equals_transpose_rank(nr, nc, data):
    rows = [[data.draw(small) for _ in range(nc)] for _ in range(nr)]
    m = RationalMatrix(rows)
    assert exact_rank(m) == exact_rank(transpose(m))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_nullity(nr, nc, data):
    rows = [[data.draw(small) for _ in range(nc)] for _ in range(nr)]
    m = RationalMatrix(rows)
    assert exact_rank(m) + len(nullspace(m)) == nc


# -- sparse elimination against the dense oracles ----------------------------

def draw_sparse_rows(data, max_side=9):
    """A random mostly-zero matrix: integer or rational entries, shapes
    from 1 x n and n x 1 to tall and wide, forced all-zero rows and
    columns, and rows overwritten by combinations of other rows."""
    shape = data.draw(st.sampled_from(["any", "any", "any", "row", "col"]))
    rational = data.draw(st.booleans())
    density = data.draw(st.sampled_from([0.1, 0.2, 0.35, 0.6]))
    # sizes and cells from a seeded Random: hypothesis biases its own
    # draws towards small values, which would leave most matrices tiny
    rnd = data.draw(st.randoms(use_true_random=False))
    nr = 1 if shape == "row" else rnd.randint(1, max_side)
    nc = 1 if shape == "col" else rnd.randint(1, max_side)

    def entry():
        x = rnd.choice([-1, 1]) * rnd.randint(1, 9)
        return Fraction(x, rnd.randint(1, 7)) if rational else Fraction(x)

    rows = [[entry() if rnd.random() < density else Fraction(0)
             for _ in range(nc)] for _ in range(nr)]
    for r in rnd.sample(range(nr), rnd.randint(0, min(2, nr - 1))):
        rows[r] = [Fraction(0)] * nc
    for c in rnd.sample(range(nc), rnd.randint(0, min(2, nc - 1))):
        for row in rows:
            row[c] = Fraction(0)
    if nr >= 3:
        for _ in range(rnd.randint(0, 2)):
            i, j, t = (rnd.randrange(nr) for _ in range(3))
            a, b = entry(), entry()
            rows[t] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows, nc


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_rank_matches_dense_bareiss(data):
    rows, nc = draw_sparse_rows(data)
    m = RationalMatrix(rows)
    assert exact_rank(m) == dense_rank(rows)
    assert exact_rank(transpose(m)) == dense_rank(transpose(m).rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rref_nullspace_solve_match_dense_oracle(data):
    rows, nc = draw_sparse_rows(data, max_side=7)
    m = RationalMatrix(rows)
    r, pivots = rref(m)
    want_rows, want_pivots = dense_rref(rows, nc)
    assert pivots == want_pivots
    assert r.rows == want_rows
    assert (r.nrows, r.ncols) == (m.nrows, nc)
    assert nullspace(m) == dense_nullspace(rows, nc)
    # one right-hand side in the column space, one drawn freely
    x0 = [Fraction(data.draw(st.integers(-3, 3))) for _ in range(nc)]
    for b in (times_vector(m, x0),
              [Fraction(data.draw(st.integers(-3, 3))) for _ in rows]):
        assert solve(m, b) == dense_solve(rows, nc, b)


# -- the integer core against both oracles ------------------------------------

PRIMES = [2, 3, 5, 7, 11, 13, 1_000_003, 2_147_483_647, 2 ** 61 - 1,
          10 ** 18 + 9]


def draw_hard_rows(data, max_side=7):
    """Rows whose clearing and elimination stress integer growth: mixed
    denominators (several primes and their products), large prime
    numerators, and rows that are combinations of other rows with
    large coefficients."""
    rnd = data.draw(st.randoms(use_true_random=False))
    nr, nc = rnd.randint(1, max_side), rnd.randint(1, max_side)
    density = rnd.choice([0.3, 0.6, 0.9])

    def entry():
        num = rnd.choice([-1, 1]) * rnd.choice(PRIMES + [1, 4, 6, 9])
        den = rnd.choice([1, 1, 2, 3, 6, 7, 35, 1_000_003, 2 ** 61 - 1])
        return Fraction(num, den)

    rows = [[entry() if rnd.random() < density else Fraction(0)
             for _ in range(nc)] for _ in range(nr)]
    for _ in range(rnd.randint(0, nr // 2)):
        if nr < 2:
            break
        i, j, t = rnd.sample(range(nr), 2) + [rnd.randrange(nr)]
        a, b = entry(), entry()
        rows[t] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows, nc


def assert_matches_both_oracles(rows, nc, data):
    m = RationalMatrix(rows)
    assert exact_rank(m) == fraction_oracle.rank(rows) == dense_rank(rows)
    r, pivots = rref(m)
    want_rows, want_pivots = dense_rref(rows, nc)
    assert (r.rows, pivots) == fraction_oracle.rref(rows, nc)
    assert (r.rows, pivots) == (want_rows, want_pivots)
    assert all(type(x) is Fraction for row in r.rows for x in row)
    kernel = nullspace(m)
    assert kernel == fraction_oracle.nullspace(rows, nc)
    assert kernel == dense_nullspace(rows, nc)
    x0 = [Fraction(data.draw(st.integers(-3, 3))) for _ in range(nc)]
    for b in (times_vector(m, x0),
              [Fraction(data.draw(st.sampled_from([0, 1, -7, 2 ** 61 - 1])),
                        data.draw(st.sampled_from([1, 3, 35])))
               for _ in rows]):
        got = solve(m, b)
        assert got == fraction_oracle.solve(rows, nc, b)
        assert got == dense_solve(rows, nc, b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_core_matches_fraction_and_dense_oracles(data):
    rows, nc = draw_sparse_rows(data, max_side=7)
    assert_matches_both_oracles(rows, nc, data)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mixed_denominators_large_primes_dependent_rows(data):
    rows, nc = draw_hard_rows(data)
    assert_matches_both_oracles(rows, nc, data)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_entry_points_match_dense_oracle(data):
    rows, nc = draw_sparse_rows(data)
    # denominators are 1..7, so 420 = lcm(1..7) clears all of them
    ints = [[int(x * 420) for x in row] for row in rows]
    sparse = [{j: x for j, x in enumerate(row) if x} for row in ints]
    keep = [dict(r) for r in sparse]
    assert row_rank(sparse) == dense_rank(ints)
    assert row_nullspace(sparse, nc) == dense_nullspace(ints, nc)
    # one right side in the column space, one drawn freely
    x0 = [data.draw(st.integers(-3, 3)) for _ in range(nc)]
    for b in ([sum(a * x for a, x in zip(r, x0)) for r in ints],
              [data.draw(st.integers(-5, 5)) for _ in ints]):
        assert row_solve(sparse, b, nc) == dense_solve(ints, nc, b)
    assert sparse == keep  # the input rows are not work space


def test_row_rank_takes_empty_rows():
    assert row_rank([]) == 0
    assert row_rank([{}, {}]) == 0
    assert row_rank([{}, {3: -2, 5: 4}, {3: 1, 5: -2}, {}]) == 1
    assert row_nullspace([{}], 2) == [[1, 0], [0, 1]]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_rank_ignores_column_order(data):
    # under any permutation of the columns, which moves every leading
    # column, the rank must stay that of the Fraction oracle on the
    # matrix as given
    rows, nc = (draw_hard_rows if data.draw(st.booleans())
                else draw_sparse_rows)(data)
    ints = []
    for row in rows:
        den = lcm(*[x.denominator for x in row])
        ints.append([int(x * den) for x in row])
    want = fraction_oracle.rank(rows)
    perm = data.draw(st.permutations(range(nc)))
    for order in (list(range(nc)), perm):
        sparse = [{order[j]: x for j, x in enumerate(row) if x}
                  for row in ints]
        keep = [dict(r) for r in sparse]
        assert row_rank(sparse) == want
        assert sparse == keep  # the input rows are not work space

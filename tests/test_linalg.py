"""Exact linear algebra: rank, RREF, solve, nullspace."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dense_oracles import dense_rank, dense_rref
from superslice.linalg import (RationalMatrix, exact_rank, from_columns,
                               nullspace, rref, solve)


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
        assert all(not x for x in m.mul_vector(v))
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
    assert exact_rank(m) == exact_rank(m.transpose())


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


def oracle_nullspace(rows, nc):
    r, pivots = dense_rref(rows, nc)
    basis = []
    for fc in (c for c in range(nc) if c not in pivots):
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def oracle_solve(rows, nc, b):
    r, pivots = dense_rref([list(row) + [x] for row, x in zip(rows, b)],
                           nc + 1)
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for i, pc in enumerate(pivots):
        x[pc] = r[i][nc]
    return x


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_rank_matches_dense_bareiss(data):
    rows, nc = draw_sparse_rows(data)
    m = RationalMatrix(rows)
    assert exact_rank(m) == dense_rank(rows)
    assert exact_rank(m.transpose()) == dense_rank(m.transpose().rows)


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
    assert nullspace(m) == oracle_nullspace(rows, nc)
    # one right-hand side in the column space, one drawn freely
    x0 = [Fraction(data.draw(st.integers(-3, 3))) for _ in range(nc)]
    for b in (m.mul_vector(x0),
              [Fraction(data.draw(st.integers(-3, 3))) for _ in rows]):
        assert solve(m, b) == oracle_solve(rows, nc, b)

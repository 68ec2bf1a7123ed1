"""The catalogue builder against the package's former builders.

``liealg._from_matrices`` reads every built-in algebra off its matrices;
``tests/catalogue_oracle.py`` keeps the former ``build_sl`` (one
``solve`` per diagonal part, labels looked up per bracket) and the
hand-written osp(1|2) table.  Both must give the same basis, form and
structure constants, and for sl(m|n) and gl(n|n) the same key order of
the table and of every row, which ``_int_table`` and every sum over the
table inherit.
"""

from fractions import Fraction

import pytest

import catalogue_oracle
from superslice.liealg import _from_matrices, build_osp_1_2, build_sl

F = Fraction

# every sl(m|n) with m != n and m + n <= 7, then gl(1|1), gl(2|2), gl(3|3)
CATALOGUE_SL = [(m, s - m) for s in range(2, 8) for m in range(1, s + 1)
                if m != s - m] + [(1, 1), (2, 2), (3, 3)]


@pytest.mark.parametrize("m, n", CATALOGUE_SL)
def test_sl_matches_former_builder(m, n):
    # same basis, form and table as the former per-bracket decomposition,
    # down to the key order of the table and of every row
    got = build_sl(m, n, check=False)
    want = catalogue_oracle.build_sl(m, n, check=False)
    assert got.labels == want.labels
    assert got.parities == want.parities
    assert got.meta == want.meta
    assert got.form.rows == want.form.rows
    assert got.table == want.table
    assert list(got.table) == list(want.table)
    for ij, row in want.table.items():
        assert list(got.table[ij]) == list(row), ij


def test_osp12_matches_former_table():
    got, want = build_osp_1_2(), catalogue_oracle.build_osp_1_2()
    assert got.labels == want.labels
    assert got.parities == want.parities
    assert got.meta == want.meta
    assert got.form.rows == want.form.rows
    assert got.table == want.table


@pytest.mark.parametrize("mats, parity, message", [
    # [e12, e21] = e11 - e22 has no basis matrix to land on
    ([{(0, 1): F(1)}, {(1, 0): F(1)}], [0, 0], "leaves the span"),
    ([{(0, 1): F(1)}, {(0, 1): F(2)}], [0, 0], "dependent"),
    ([{(0, 1): F(1), (0, 0): F(1)}, {(1, 0): F(1)}], [0, 1],
     "not parity homogeneous"),
])
def test_from_matrices_rejects(mats, parity, message):
    with pytest.raises(ValueError, match=message):
        _from_matrices(["x", "y"], mats, parity, F(1), {}, False)

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
from superslice.cli import main
from superslice.liealg import (_from_matrices, build_osp_1_2, build_sl,
                               principal_nilpotent)

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
    assert got.form_rows == want.form_rows
    assert got.table == want.table
    assert list(got.table) == list(want.table)
    for ij, row in want.table.items():
        assert list(got.table[ij]) == list(row), ij


@pytest.mark.parametrize("size", range(2, 13))
def test_labels_are_unique_for_every_split(size):
    # e_(1)(11) and e_(11)(1) would both read "e111": from size 10 on an
    # underscore keeps the indices apart, and up to size 9 they run on
    sep = "_" if size >= 10 else ""
    off = [f"e{i}{sep}{j}" for i in range(1, size + 1)
           for j in range(1, size + 1) if i != j]
    for m in range(1, size + 1):
        alg = build_sl(m, size - m, check=False)
        assert len(set(alg.labels)) == len(alg.labels)
        diag = ([f"e{i}{sep}{i}" for i in range(1, size + 1)]
                if 2 * m == size else [])
        assert [lab for lab in alg.labels if lab[0] == "e"] == off + diag
        # the even principal nilpotent finds the labels of its simple
        # roots, one per block but the odd one between them
        simple = size - 1 - (m < size)
        if simple:
            assert sum(principal_nilpotent(alg)) == simple


@pytest.mark.parametrize("name", ["sl(10|1)", "sl11"])
def test_size_eleven_validates(name, capsys):
    assert main(["algebra", "validate", "--algebra", name]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_osp12_matches_former_table():
    got, want = build_osp_1_2(), catalogue_oracle.build_osp_1_2()
    assert got.labels == want.labels
    assert got.parities == want.parities
    assert got.meta == want.meta
    assert got.form_rows == want.form_rows
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

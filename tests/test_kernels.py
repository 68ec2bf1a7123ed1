"""Backend equivalence for the hot kernels, and the rank oracles.

The compiled extension must be a drop-in twin of _kernels_py: identical
dicts out of mul_terms over inputs drawn with mixed parities and
arbitrary-precision entries.  The dense Bareiss rank in
tests/dense_oracles.py (the package's former rank kernel, whose compiled
twin still ships in the extension) is checked against the pivot count of
dense Gauss-Jordan elimination, and the package's sparse exact_rank
against both.  Selector behavior (SUPERSLICE_PURE) is exercised in a
subprocess so the import-time switch is what's actually tested.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dense_oracles import bareiss_rank, dense_rref
from superslice import _kernels, _kernels_py
from superslice.linalg import RationalMatrix, exact_rank, rref

try:
    from superslice import _speedups
except ImportError:
    _speedups = None

needs_ext = pytest.mark.skipif(_speedups is None,
                               reason="compiled extension not built")

F = Fraction
# a tuple on purpose: PolyRing.parities() hands the kernels a tuple
PARITIES = (0, 1, 0, 1, 1, 0)

coeffs = st.fractions(min_value=-9, max_value=9).filter(bool)


def draw_monomial(data):
    idxs = data.draw(st.lists(st.integers(0, len(PARITIES) - 1),
                              unique=True, max_size=4))
    return tuple(sorted(
        (i, 1 if PARITIES[i] else data.draw(st.integers(1, 3)))
        for i in idxs))


def draw_terms(data, max_terms=4):
    out = {}
    for _ in range(data.draw(st.integers(0, max_terms))):
        out[draw_monomial(data)] = data.draw(coeffs)
    return out


class TestMulTerms:
    def test_fixed_koszul_sign(self):
        # x1 * x3 keeps order, x3 * x1 flips sign (both odd)
        a = {((1, 1),): F(1)}
        b = {((3, 1),): F(1)}
        for impl in filter(None, (_kernels_py, _speedups)):
            assert impl.mul_terms(a, b, PARITIES) == {((1, 1), (3, 1)): F(1)}
            assert impl.mul_terms(b, a, PARITIES) == {((1, 1), (3, 1)): F(-1)}

    def test_fixed_odd_square_dies(self):
        a = {((1, 1),): F(2)}
        for impl in filter(None, (_kernels_py, _speedups)):
            assert impl.mul_terms(a, a, PARITIES) == {}

    def test_fixed_cancellation_drops_key(self):
        a = {((0, 1),): F(1), (): F(1)}
        b = {((0, 1),): F(1), (): F(-1)}
        # (x + 1)(x - 1): the x-terms cancel exactly
        for impl in filter(None, (_kernels_py, _speedups)):
            out = impl.mul_terms(a, b, PARITIES)
            assert out == {((0, 2),): F(1), (): F(-1)}

    @needs_ext
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equivalence_random(self, data):
        a = draw_terms(data)
        b = draw_terms(data)
        assert _speedups.mul_terms(a, b, PARITIES) == \
            _kernels_py.mul_terms(a, b, PARITIES)

    @needs_ext
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_equivalence_is_associative_across_backends(self, data):
        a, b, c = (draw_terms(data, 3) for _ in range(3))
        ab_fast = _speedups.mul_terms(a, b, PARITIES)
        ab_slow = _kernels_py.mul_terms(a, b, PARITIES)
        assert _speedups.mul_terms(ab_fast, c, PARITIES) == \
            _kernels_py.mul_terms(ab_slow, c, PARITIES)


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
            if _speedups is not None:
                assert _speedups.bareiss_rank([list(r) for r in rows]) == want

    def test_no_input_mutation(self):
        rows = [[1, 2], [3, 4]]
        keep = [list(r) for r in rows]
        bareiss_rank(rows)
        assert rows == keep
        m = RationalMatrix(rows)
        exact_rank(m)
        rref(m)
        assert m.rows == keep
        if _speedups is not None:
            _speedups.bareiss_rank(rows)
            assert rows == keep

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_matches_gaussian_pivot_count(self, nr, nc, data):
        rows = [[data.draw(st.integers(-20, 20)) for _ in range(nc)]
                for _ in range(nr)]
        _, pivots = dense_rref(rows, nc)
        want = len(pivots)
        assert bareiss_rank(rows) == want
        assert exact_rank(RationalMatrix(rows)) == want
        if _speedups is not None:
            assert _speedups.bareiss_rank(rows) == want

    @needs_ext
    def test_big_integer_entries(self):
        # growth control: determinants overflow machine words fast
        rows = [[10 ** 30 + i * j for j in range(5)] for i in range(5)]
        rows[2] = [2 * x for x in rows[1]]
        assert _speedups.bareiss_rank(rows) == bareiss_rank(rows) == 2


class TestSelector:
    def test_implementation_flag_is_consistent(self):
        if os.environ.get("SUPERSLICE_PURE"):
            assert _kernels.IMPLEMENTATION == "python"
            assert _kernels.mul_terms is _kernels_py.mul_terms
        elif _speedups is None:
            assert _kernels.IMPLEMENTATION == "python"
        else:
            assert _kernels.IMPLEMENTATION == "compiled"
            assert _kernels.mul_terms is _speedups.mul_terms

    def test_pure_env_forces_python(self):
        env = dict(os.environ, SUPERSLICE_PURE="1")
        out = subprocess.run(
            [sys.executable, "-c",
             "from superslice import _kernels; print(_kernels.IMPLEMENTATION)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "python"

    def test_same_product_text_under_both_backends(self):
        code = (
            "from fractions import Fraction\n"
            "from superslice.superpoly import PolyRing, Variable\n"
            "R = PolyRing([Variable('a', 0), Variable('t', 1),"
            " Variable('u', 1)])\n"
            "p = (R.gen(0) + R.gen(1)) * (R.gen(2) + R.const(Fraction(1, 2)))\n"
            "print((p * p).text())\n"
        )
        runs = {}
        for tag, env in (("default", dict(os.environ)),
                         ("pure", dict(os.environ, SUPERSLICE_PURE="1"))):
            env.pop("SUPERSLICE_PURE", None) if tag == "default" else None
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            runs[tag] = out.stdout
        assert runs["default"] == runs["pure"]

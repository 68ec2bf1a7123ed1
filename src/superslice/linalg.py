"""Exact rational linear algebra.

RationalMatrix is a thin dense container of Fractions with the operations
the rest of the package needs: rank, reduced row echelon form, solving,
nullspaces.  All four run on one sparse elimination core over Q: rows
become {column: Fraction} dicts and are reduced shortest first, pivoting
on the leading column, so the mostly-zero coboundary matrices of the
cohomology layer cost in proportion to their nonzeros, not their cells.
RREF is unique, so the results do not depend on the pivot order.
Everything is exact; nothing here ever touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .superpoly import _as_fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class RationalMatrix:
    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [[_as_fraction(x) for x in r] for r in rows]
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        self.nrows = len(self.rows)
        self.ncols = self.rows[0].__len__() if self.rows else 0

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        m = cls.__new__(cls)
        m.rows = [[ZERO] * ncols for _ in range(nrows)]
        m.nrows, m.ncols = nrows, ncols
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.rows[i][i] = ONE
        return m

    def copy(self) -> "RationalMatrix":
        return RationalMatrix(self.rows)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix([[self.rows[r][c] for r in range(self.nrows)]
                               for c in range(self.ncols)])

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def __setitem__(self, rc, v):
        r, c = rc
        self.rows[r][c] = _as_fraction(v)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self.rows == other.rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = RationalMatrix.zeros(self.nrows, other.ncols)
        for i in range(self.nrows):
            ri = self.rows[i]
            oi = out.rows[i]
            for k in range(self.ncols):
                a = ri[k]
                if not a:
                    continue
                rk = other.rows[k]
                for j in range(other.ncols):
                    if rk[j]:
                        oi[j] += a * rk[j]
        return out

    def mul_vector(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        return [sum((r[j] * v[j] for j in range(self.ncols) if v[j]), ZERO)
                for r in self.rows]

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def __repr__(self):
        return f"<RationalMatrix {self.nrows}x{self.ncols}>"


def _sparse_rows(rows: Iterable[Sequence[Fraction]]) -> list[dict]:
    """Nonzero rows as {col: Fraction} dicts, in input order."""
    out = []
    for r in rows:
        # the identity test skips the shared ZERO cheaply
        sr = {j: x for j, x in enumerate(r) if x is not ZERO and x}
        if sr:
            out.append(sr)
    return out


def _subtract(r: dict, f: Fraction, p: dict) -> None:
    """r -= f * p in place, dropping entries that cancel."""
    for j, x in p.items():
        v = r.get(j, ZERO) - f * x
        if v:
            r[j] = v
        else:
            del r[j]


def _echelon(rows: list[dict]) -> dict[int, dict]:
    """Sparse Gaussian elimination over Q.

    Rows enter shortest first (a Markowitz-style order that keeps pivot
    rows short and fill-in low); each is reduced on its leading column
    against the pivot rows found so far until it is zero or claims a new
    leading column.  Returns {pivot column: row}, each row scaled to 1
    at its pivot and zero at every column before it.  The input dicts
    are used up as work space.
    """
    pivots: dict[int, dict] = {}
    for r in sorted(rows, key=len):
        while r:
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                inv = ONE / r[lead]
                pivots[lead] = {j: x * inv for j, x in r.items()}
                break
            _subtract(r, r[lead], p)
    return pivots


def _reduced(rows: list[dict]) -> tuple[list[int], list[dict]]:
    """Reduced row echelon form of sparse rows: (pivot columns in
    increasing order, the matching rows)."""
    pivots = _echelon(rows)
    cols = sorted(pivots)
    # Back substitution from the last pivot up.  Rows already reduced
    # vanish at every other pivot column, so subtracting them never
    # brings a pivot column back.
    for c in reversed(cols):
        r = pivots[c]
        for pc in [j for j in r if j != c and j in pivots]:
            _subtract(r, r[pc], pivots[pc])
    return cols, [pivots[c] for c in cols]


def exact_rank(m: RationalMatrix) -> int:
    """Rank via sparse elimination over Q (echelon form only)."""
    return len(_echelon(_sparse_rows(m.rows)))


def rref(m: RationalMatrix) -> tuple[RationalMatrix, list[int]]:
    """Reduced row echelon form over Q; returns (R, pivot_columns)."""
    cols, prows = _reduced(_sparse_rows(m.rows))
    out = RationalMatrix.zeros(m.nrows, m.ncols)
    for dense, r in zip(out.rows, prows):
        for j, x in r.items():
            dense[j] = x
    return out, cols


def nullspace(m: RationalMatrix) -> list[list[Fraction]]:
    """Canonical kernel basis (one vector per free column of the RREF)."""
    cols, prows = _reduced(_sparse_rows(m.rows))
    pivset = set(cols)
    basis = []
    for fc in range(m.ncols):
        if fc in pivset:
            continue
        v = [ZERO] * m.ncols
        v[fc] = ONE
        for pc, r in zip(cols, prows):
            x = r.get(fc)
            if x is not None:
                v[pc] = -x
        basis.append(v)
    return basis


def solve(m: RationalMatrix, b: Sequence) -> Optional[list[Fraction]]:
    """One particular solution of M x = b (free variables 0), or None."""
    bb = [_as_fraction(x) for x in b]
    if len(bb) != m.nrows:
        raise ValueError("shape mismatch")
    nc = m.ncols
    rows = _sparse_rows(list(r) + [bb[i]] for i, r in enumerate(m.rows))
    cols, prows = _reduced(rows)
    if cols and cols[-1] == nc:
        return None  # inconsistent
    x = [ZERO] * nc
    for pc, r in zip(cols, prows):
        x[pc] = r.get(nc, ZERO)
    return x


def from_columns(cols: Iterable[Sequence]) -> RationalMatrix:
    cols = [list(c) for c in cols]
    if not cols:
        return RationalMatrix.zeros(0, 0)
    n = len(cols[0])
    return RationalMatrix([[cols[j][i] for j in range(len(cols))] for i in range(n)])

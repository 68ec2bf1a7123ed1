"""Exact linear algebra on one fraction-free elimination core.

The core works on sparse integer rows {column: int}.  An elimination
step replaces r by (a/g) r - (b/g) p, where p is the pivot row, a and b
are the entries of p and r at the pivot column and g = gcd(a, b) with
the sign of a, and then divides r by its content (the gcd of its
entries); rows are reduced shortest first, pivoting on the leading
column.  So the
mostly-zero coboundary matrices of the cohomology layer cost in
proportion to their nonzeros, and every entry is a Python int: no
Fraction is built before the end.  The method is sparse fraction-free
elimination (Bareiss, Math. Comp. 22, 1968; Geddes, Czapor and Labahn,
Algorithms for Computer Algebra, ch. 9).

``row_rank`` and ``row_nullspace`` take integer rows directly; the
cohomology layer hands them its differential this way.  RationalMatrix
is a thin dense container of Fractions for everything else: its rank,
reduced row echelon form, kernel and solutions (``exact_rank``,
``rref``, ``nullspace``, ``solve``) clear each row's denominators and
run on the same core.  RREF divides each pivot row by its pivot once,
after back substitution; RREF is unique, so the results do not depend
on the pivot order.  Everything is exact; nothing here ever touches
floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

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

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def __repr__(self):
        return f"<RationalMatrix {self.nrows}x{self.ncols}>"


def _integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[dict]:
    """Nonzero rows of Fractions as {col: int} dicts, in input order, each
    multiplied by the lcm of its denominators (scaling a row by a nonzero
    number keeps the row space)."""
    out = []
    for r in rows:
        # the identity test skips the shared ZERO cheaply
        sr = {j: x for j, x in enumerate(r) if x is not ZERO and x}
        if not sr:
            continue
        den = lcm(*[x.denominator for x in sr.values()])
        out.append({j: x.numerator * (den // x.denominator)
                    for j, x in sr.items()})
    return out


def _eliminate(r: dict, p: dict, c: int) -> dict:
    """(a/g) r - (b/g) p for a = p[c], b = r[c] and g = gcd(a, b) taken
    with the sign of a, divided by its content: zero at column c,
    entries that cancel dropped.  Works in place on r when a/g is 1,
    which the sign of g makes the case whenever a divides b."""
    a, b = p[c], r[c]
    g = gcd(a, b) if a > 0 else -gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        r = {j: a * x for j, x in r.items()}
    for j, x in p.items():
        v = r.get(j, 0) - b * x
        if v:
            r[j] = v
        else:
            del r[j]
    g = gcd(*r.values())
    if g > 1:
        r = {j: x // g for j, x in r.items()}
    return r


def _echelon(rows: Iterable[Mapping[int, int]]) -> dict[int, dict]:
    """Sparse fraction-free elimination over Z.

    Rows enter shortest first (a Markowitz-style order that keeps pivot
    rows short and fill-in low); each is reduced on its leading column
    against the pivot rows found so far until it is zero or claims a new
    leading column.  A step is the two-row cross multiplication of
    Bareiss, with both multipliers divided by their gcd and the result
    by its content, so entries stay as small as the row space allows.
    Returns {pivot column: row}, each row primitive and zero at every
    column before its pivot.  The input rows are not modified.
    """
    pivots: dict[int, dict] = {}
    for r in sorted(rows, key=len):
        r = dict(r)
        while r:
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                g = gcd(*r.values())
                pivots[lead] = r if g == 1 else {j: x // g
                                                 for j, x in r.items()}
                break
            r = _eliminate(r, p, lead)
    return pivots


def _reduced(rows: Iterable[Mapping[int, int]]
             ) -> tuple[list[int], list[dict]]:
    """Reduced row echelon form of sparse integer rows: (pivot columns in
    increasing order, the matching rows as {col: Fraction}, 1 at the
    pivot)."""
    pivots = _echelon(rows)
    cols = sorted(pivots)
    # Back substitution from the last pivot up.  Rows already reduced
    # vanish at every other pivot column, so eliminating with them never
    # brings a pivot column back.
    for c in reversed(cols):
        r = pivots[c]
        for pc in [j for j in r if j != c and j in pivots]:
            r = _eliminate(r, pivots[pc], pc)
        pivots[c] = r
    out = []
    for c in cols:
        r = pivots[c]
        piv = r[c]
        out.append({j: Fraction(x, piv) for j, x in r.items()})
    return cols, out


def row_rank(rows: Iterable[Mapping[int, int]]) -> int:
    """Rank of a matrix given as sparse integer rows {col: int}; empty
    rows are allowed."""
    return len(_echelon(rows))


def row_nullspace(rows: Iterable[Mapping[int, int]],
                  ncols: int) -> list[list[Fraction]]:
    """Canonical kernel basis of the matrix with the given sparse integer
    rows and ncols columns: one vector per free column of its RREF, 1 at
    that column."""
    cols, prows = _reduced(rows)
    pivset = set(cols)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for pc, r in zip(cols, prows):
            x = r.get(fc)
            if x is not None:
                v[pc] = -x
        basis.append(v)
    return basis


def exact_rank(m: RationalMatrix) -> int:
    """Rank by fraction-free elimination (echelon form only)."""
    return len(_echelon(_integer_rows(m.rows)))


def rref(m: RationalMatrix) -> tuple[RationalMatrix, list[int]]:
    """Reduced row echelon form over Q; returns (R, pivot_columns)."""
    cols, prows = _reduced(_integer_rows(m.rows))
    out = RationalMatrix.zeros(m.nrows, m.ncols)
    for dense, r in zip(out.rows, prows):
        for j, x in r.items():
            dense[j] = x
    return out, cols


def nullspace(m: RationalMatrix) -> list[list[Fraction]]:
    """Canonical kernel basis (one vector per free column of the RREF)."""
    return row_nullspace(_integer_rows(m.rows), m.ncols)


def solve(m: RationalMatrix, b: Sequence) -> Optional[list[Fraction]]:
    """One particular solution of M x = b (free variables 0), or None."""
    bb = [_as_fraction(x) for x in b]
    if len(bb) != m.nrows:
        raise ValueError("shape mismatch")
    nc = m.ncols
    rows = _integer_rows(list(r) + [bb[i]] for i, r in enumerate(m.rows))
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

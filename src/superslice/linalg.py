"""Exact linear algebra on one fraction-free elimination core.

The core works on sparse integer rows {column: int}.  An elimination
step replaces r by (a/g) r - (b/g) p, where p is the pivot row, a and b
are the entries of p and r at the pivot column and g = gcd(a, b) with
the sign of a, and then divides r by its content (the gcd of its
entries); rows are reduced shortest first, pivoting on the leading
column.  So mostly-zero matrices cost in proportion to their nonzeros,
and every entry is a Python int until a result is written.  The method
is sparse fraction-free elimination (Bareiss, Math. Comp. 22, 1968;
Geddes, Czapor and Labahn, Algorithms for Computer Algebra, ch. 9).

``row_rank``, ``row_nullspace`` and ``row_solve`` take integer rows: the
cohomology layer's ker delta and the algebra layer's integer brackets.
``row_inverse`` takes sparse rational rows, clears each row's
denominators and inverts on the same core: the slice decomposition and
the Poisson form matrix M.  RationalMatrix is a thin dense container of
Fractions for the form and the certificate's Jacobians, ranked by
``exact_rank``; ``rref``, ``nullspace`` and ``solve`` have no caller in
the package, but the benchmark tracer wraps them by name.  RREF divides
each pivot row by its pivot once, after back substitution; RREF is
unique, so no result depends on the pivot order.  Nothing here touches
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

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def __setitem__(self, rc, v):
        r, c = rc
        self.rows[r][c] = _as_fraction(v)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self.rows == other.rows)

    def __repr__(self):
        return f"<RationalMatrix {self.nrows}x{self.ncols}>"


def _cleared(r: Mapping[int, Fraction]) -> dict:
    """A sparse row of nonzero rationals times the lcm of its
    denominators, as {col: int} (scaling a row by a nonzero number keeps
    the row space)."""
    den = lcm(*[x.denominator for x in r.values()])
    return {j: x.numerator * (den // x.denominator) for j, x in r.items()}


def _integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[dict]:
    """Nonzero dense rows of Fractions, ``_cleared``, in input order."""
    out = []
    for r in rows:
        # the identity test skips the shared ZERO cheaply
        sr = {j: x for j, x in enumerate(r) if x is not ZERO and x}
        if sr:
            out.append(_cleared(sr))
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


def row_solve(rows: Iterable[Mapping[int, int]], rhs: Sequence[int],
              ncols: int) -> Optional[list[Fraction]]:
    """One particular solution x of the system with the given sparse
    integer rows and integer right sides (sum_j r[j] x_j = b per row r
    and side b) in ncols unknowns, free variables 0, or None when it is
    inconsistent.  The right sides ride along as column ncols of the
    RREF; RREF is unique, so scaling a row changes nothing."""
    rows = list(rows)
    if len(rhs) != len(rows):
        raise ValueError("shape mismatch")
    cols, prows = _reduced({**r, ncols: b} if b else r
                           for r, b in zip(rows, rhs))
    if cols and cols[-1] == ncols:
        return None  # inconsistent
    x = [ZERO] * ncols
    for pc, r in zip(cols, prows):
        x[pc] = r.get(ncols, ZERO)
    return x


def row_inverse(rows: Sequence[Mapping[int, Fraction]]) -> list[dict]:
    """Inverse of the n x n matrix M with the given sparse rows of nonzero
    rationals {col: Fraction}, as sparse rows {col: Fraction} in column
    order: the right half of the RREF of [M | I].  Row i of [M | I], its
    unit at column n + i included, is ``_cleared`` first: a row
    operation, so the RREF is the same.  Raises ValueError("matrix is
    singular") when a pivot lies in the right half."""
    n = len(rows)
    cols, prows = _reduced(_cleared({**r, n + i: ONE})
                           for i, r in enumerate(rows))
    if cols != list(range(n)):
        raise ValueError("matrix is singular")
    return [{j - n: x for j, x in sorted(r.items()) if j >= n}
            for r in prows]


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
    """One particular solution of M x = b (free variables 0), or None:
    ``row_solve`` of the rows of [M | b], each with its denominators
    cleared."""
    bb = [_as_fraction(x) for x in b]
    if len(bb) != m.nrows:
        raise ValueError("shape mismatch")
    nc = m.ncols
    rows = _integer_rows(list(r) + [bb[i]] for i, r in enumerate(m.rows))
    return row_solve(rows, [r.pop(nc, 0) for r in rows], nc)


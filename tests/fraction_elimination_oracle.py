"""Sparse Gaussian elimination over Fractions, kept as the oracle for the
fraction-free integer core in superslice.linalg.

This is the package's former elimination core: rows become {column:
Fraction} dicts, are reduced shortest first on their leading column,
and every pivot row is scaled to 1 at its pivot as soon as it is found,
so every step is Fraction arithmetic.  ``rank``, ``rref``,
``nullspace`` and ``solve`` take dense lists of rows and return plain
lists, so they share nothing with superslice.linalg.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _sparse_rows(rows):
    """Nonzero rows as {col: Fraction} dicts, in input order."""
    out = []
    for r in rows:
        sr = {j: Fraction(x) for j, x in enumerate(r) if x}
        if sr:
            out.append(sr)
    return out


def _subtract(r, f, p):
    """r -= f * p in place, dropping entries that cancel."""
    for j, x in p.items():
        v = r.get(j, ZERO) - f * x
        if v:
            r[j] = v
        else:
            del r[j]


def _echelon(rows):
    """{pivot column: row}, each row scaled to 1 at its pivot and zero at
    every column before it; the input dicts are used up."""
    pivots = {}
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


def _reduced(rows):
    """(pivot columns in increasing order, the matching RREF rows)."""
    pivots = _echelon(rows)
    cols = sorted(pivots)
    for c in reversed(cols):
        r = pivots[c]
        for pc in [j for j in r if j != c and j in pivots]:
            _subtract(r, r[pc], pivots[pc])
    return cols, [pivots[c] for c in cols]


def rank(rows):
    return len(_echelon(_sparse_rows(rows)))


def rref(rows, ncols):
    """(dense RREF rows, one per input row, pivot columns)."""
    cols, prows = _reduced(_sparse_rows(rows))
    out = [[ZERO] * ncols for _ in rows]
    for dense, r in zip(out, prows):
        for j, x in r.items():
            dense[j] = x
    return out, cols


def nullspace(rows, ncols):
    cols, prows = _reduced(_sparse_rows(rows))
    basis = []
    for fc in range(ncols):
        if fc in cols:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for pc, r in zip(cols, prows):
            if fc in r:
                v[pc] = -r[fc]
        basis.append(v)
    return basis


def solve(rows, ncols, b):
    cols, prows = _reduced(_sparse_rows(
        list(r) + [x] for r, x in zip(rows, b)))
    if cols and cols[-1] == ncols:
        return None
    x = [ZERO] * ncols
    for pc, r in zip(cols, prows):
        x[pc] = r.get(ncols, ZERO)
    return x

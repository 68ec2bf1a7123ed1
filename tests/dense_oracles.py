"""Dense exact elimination, kept as the independent oracle for linalg.

These are the package's former rank and RREF routines: fraction-free
Bareiss elimination on a denominator-cleared integer copy, and textbook
Gauss-Jordan elimination over Fractions with the first nonzero entry of
each column as pivot.  They share no code with the sparse elimination
core in superslice.linalg, which the tests compare against them.
"""

from fractions import Fraction
from math import lcm


def bareiss_rank(rows):
    """Rank of an integer matrix (list of lists of int), fraction-free.

    Works on a copy; exact over arbitrary-precision ints.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(nc):
        piv = -1
        for r in range(row, nr):
            if m[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        for r in range(row + 1, nr):
            mr = m[r]
            mrc = mr[col]
            base = m[row]
            for c in range(col + 1, nc):
                mr[c] = (pv * mr[c] - mrc * base[c]) // prev
            mr[col] = 0
        prev = pv
        row += 1
        rank += 1
        if row == nr:
            break
    return rank


def clear_denominators(rows):
    """Scale each rational row to an integer row (rank-preserving)."""
    out = []
    for r in rows:
        denom = lcm(1, *(Fraction(x).denominator for x in r))
        out.append([int(Fraction(x) * denom) for x in r])
    return out


def dense_rank(rows):
    """Rank of a rational matrix given as a list of rows."""
    return bareiss_rank(clear_denominators(rows))


def dense_rref(rows, ncols):
    """Reduced row echelon form over Q: (rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nr = len(rows)
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nr:
            break
        piv = -1
        for r in range(row, nr):
            if rows[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        pv = rows[row][col]
        rows[row] = [x / pv for x in rows[row]]
        for r in range(nr):
            if r != row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[row])]
        pivots.append(col)
        row += 1
    return rows, pivots

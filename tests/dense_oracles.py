"""Dense exact elimination, kept as the independent oracle for linalg
and for the algebra layer's linear solves.

These are the package's former rank and RREF routines: fraction-free
Bareiss elimination on a denominator-cleared integer copy, and textbook
Gauss-Jordan elimination over Fractions with the first nonzero entry of
each column as pivot, with the solve and the kernel read off that RREF.
They share no code with the sparse elimination core in
superslice.linalg, which the tests compare against them.  On top of
them sit the package's former dense ad matrices and sl2-triple solve,
the oracle for the integer-row triple, grading and centralizer of
superslice.liealg.
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


def dense_solve(rows, ncols, b):
    """One solution of M x = b with every free variable 0, or None when
    the system is inconsistent, from dense_rref of [M | b]."""
    aug = [list(r) + [x] for r, x in zip(rows, b)]
    red, piv = dense_rref(aug, ncols + 1)
    if piv and piv[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, piv):
        x[pc] = row[ncols]
    return x


def dense_nullspace(rows, ncols):
    """Canonical kernel basis from dense_rref: one vector per free
    column, 1 there."""
    red, piv = dense_rref(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in piv:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, piv):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def ad_matrix(alg, x):
    """Dense rows of ad_x = [x, .] read from the algebra's Fraction
    table: entry (k, j) is sum_i x_i c_ij^k.  The package built this
    matrix for the triple, the grading and the centralizer before they
    moved to integer brackets."""
    n = alg.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), row in alg.table.items():
        if x[i]:
            for k, c in row.items():
                rows[k][j] += x[i] * c
    return rows


def sl2_triple(alg, f):
    """(e, h, f) by the package's former dense solves: ad_f^2 w = 2 f
    over the even part, h = [f, w], then [f, e] = -h and
    (ad_h - 2) e = 0 over the even part.  None where a solve fails."""
    n = alg.dim
    f = [Fraction(x) for x in f]
    even = [i for i in range(n) if alg.parities[i] == 0]
    adf = ad_matrix(alg, f)
    adf2 = [[sum(adf[r][m] * adf[m][c] for m in range(n)) for c in range(n)]
            for r in range(n)]
    w_even = dense_solve([[adf2[r][c] for c in even] for r in range(n)],
                         len(even), [2 * x for x in f])
    if w_even is None:
        return None
    w = [Fraction(0)] * n
    for pos, i in enumerate(even):
        w[i] = w_even[pos]
    h = [sum(adf[r][c] * w[c] for c in range(n)) for r in range(n)]
    adh = ad_matrix(alg, h)
    rows = ([[adf[r][c] for c in even] for r in range(n)]
            + [[adh[r][c] - 2 * (r == c) for c in even] for r in range(n)])
    e_even = dense_solve(rows, len(even), [-x for x in h] + [0] * n)
    if e_even is None:
        return None
    e = [Fraction(0)] * n
    for pos, i in enumerate(even):
        e[i] = e_even[pos]
    return e, h, f

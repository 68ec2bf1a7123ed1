"""Dense structure-constant checks, kept as the oracle for
LieSuperalgebra._verify and _verify_form.

This is the package's former implementation: super Jacobi on every
ordered basis triple (dim^3 of them), and evenness, supersymmetry and
invariance of the form on every dense entry and triple of a dense copy
of the form rows, all in Fractions, then nondegeneracy by the dense
Bareiss rank of ``dense_oracles``.  It reads only the algebra's
parities, labels, table and form rows, and has its own bracket helpers,
so it shares no code with the checks it is compared against: Jacobi
summed in integers from the nonzero structure constants, grouped by the
first index of the sorted triple, and the form checked on its sparse
rows, invariance once per table entry.  Raises ValueError with the same
messages as the package, triple labels included.
"""

from fractions import Fraction

from dense_oracles import dense_rank

ZERO = Fraction(0)
ONE = Fraction(1)


def _bb(table, i, j):
    return table.get((i, j), {})


def _b(table, i, v):
    out = {}
    for j, c in v.items():
        for k, s in _bb(table, i, j).items():
            t = out.get(k, ZERO) + c * s
            if t:
                out[k] = t
            else:
                out.pop(k, None)
    return out


def _b2(table, v, k):
    out = {}
    for i, c in v.items():
        for m, s in _bb(table, i, k).items():
            t = out.get(m, ZERO) + c * s
            if t:
                out[m] = t
            else:
                out.pop(m, None)
    return out


def verify(alg):
    """Raise the first structural violation of ``alg``, as the package
    used to: antisymmetry and parity, dense Jacobi, then the form."""
    p = alg.parities
    labels = alg.labels
    table = alg.table
    for (i, j), row in table.items():
        sgn = -ONE if not (p[i] and p[j]) else ONE
        mirror = table.get((j, i), {})
        keys = set(row) | set(mirror)
        for k in keys:
            if mirror.get(k, ZERO) != sgn * row.get(k, ZERO):
                raise ValueError(
                    f"super-antisymmetry fails at ({labels[i]},"
                    f"{labels[j]},{labels[k]})")
            if (p[i] + p[j]) % 2 != p[k] and row.get(k, ZERO):
                raise ValueError(
                    f"parity inhomogeneity in [{labels[i]},{labels[j]}]")
    n = alg.dim
    for i in range(n):
        for j in range(n):
            pij = p[i] * p[j]
            for k in range(n):
                # [x_i,[x_j,x_k]] = [[x_i,x_j],x_k] + (-1)^{ij}[x_j,[x_i,x_k]]
                lhs = _b(table, i, _bb(table, j, k))
                rhs = _b2(table, _bb(table, i, j), k)
                t = _b(table, j, _bb(table, i, k))
                for m, c in t.items():
                    rhs[m] = rhs.get(m, ZERO) + (-c if pij else c)
                for m in set(lhs) | set(rhs):
                    if lhs.get(m, ZERO) != rhs.get(m, ZERO):
                        raise ValueError(
                            f"super Jacobi fails at ({labels[i]},"
                            f"{labels[j]},{labels[k]})")
    if alg.form_rows is not None:
        verify_form(alg)


def verify_form(alg):
    n = alg.dim
    table = alg.table
    rows = alg.form_rows
    if len(rows) != n or any(set(r) - set(range(n)) for r in rows):
        raise ValueError("form shape mismatch")
    f = [[r.get(j, ZERO) for j in range(n)] for r in rows]
    p = alg.parities
    for i in range(n):
        for j in range(n):
            if p[i] != p[j] and f[i][j]:
                raise ValueError("form is not even")
            sgn = -ONE if p[i] and p[j] else ONE
            if f[i][j] != sgn * f[j][i]:
                raise ValueError("form is not supersymmetric")
    # invariance ([x,y],z) = (x,[y,z]) on basis triples
    for i in range(n):
        for j in range(n):
            bij = _bb(table, i, j)
            for k in range(n):
                lhs = sum((c * f[m][k] for m, c in bij.items()), ZERO)
                rhs = sum((c * f[i][m] for m, c in _bb(table, j, k).items()),
                          ZERO)
                if lhs != rhs:
                    raise ValueError("form is not invariant")
    if dense_rank(f) < n:
        raise ValueError("form is degenerate")

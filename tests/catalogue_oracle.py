"""The package's former catalogue builders, kept as the oracle for
liealg._from_matrices.

``build_sl`` multiplies matrix units with ``_matrix_bracket`` and reads
each bracket back in the basis by label lookup, with one ``solve`` per
diagonal part; ``build_osp_1_2`` is the hand-transcribed osp(1|2) table
with its form.  Both return a ``LieSuperalgebra`` whose labels,
parities, meta, form and table (with its key order) the new builder
must reproduce.
"""

from fractions import Fraction

from superslice.linalg import RationalMatrix, from_columns, solve
from superslice.liealg import LieSuperalgebra

ZERO = Fraction(0)
ONE = Fraction(1)


def _matrix_bracket(a, b, pa, pb, size):
    """Supercommutator of sparse matrices given as dict (r,c) -> Fraction."""
    out: dict[tuple[int, int], Fraction] = {}
    def acc(key, val):
        t = out.get(key, ZERO) + val
        if t:
            out[key] = t
        else:
            out.pop(key, None)
    for (r1, c1), x in a.items():
        for (r2, c2), y in b.items():
            if c1 == r2:
                acc((r1, c2), x * y)
    sgn = -ONE if (pa and pb) else ONE
    for (r1, c1), x in b.items():
        for (r2, c2), y in a.items():
            if c1 == r2:
                acc((r1, c2), -sgn * x * y)
    return out


def build_sl(m: int, n: int = 0, check: bool = True) -> LieSuperalgebra:
    """sl(m|n) (or gl(n|n) with a warning in meta when m == n) with the
    supertrace form normalized on the even highest root.  check=False
    skips the structural verification, as in load_algebra_file."""
    if m < 1 or n < 0 or m + n < 2:
        raise ValueError("need m >= 1, n >= 0, m + n >= 2")
    size = m + n
    par = lambda i: 0 if i < m else 1

    labels: list[str] = []
    mats: list[dict] = []
    parities: list[int] = []
    for i in range(size):
        for j in range(size):
            if i != j:
                labels.append(f"e{i + 1}{j + 1}")
                mats.append({(i, j): ONE})
                parities.append((par(i) + par(j)) % 2)
    gl_center = (m == n)
    if gl_center:
        for i in range(size):
            labels.append(f"e{i + 1}{i + 1}")
            mats.append({(i, i): ONE})
            parities.append(0)
    else:
        for i in range(size - 1):
            sign = ONE if (par(i) != par(i + 1)) else -ONE
            labels.append(f"h{i + 1}")
            mats.append({(i, i): ONE, (i + 1, i + 1): sign})
            parities.append(0)

    diag_idx = [k for k, M in enumerate(mats) if all(r == c for r, c in M)]
    diag_cols = []
    for k in diag_idx:
        diag_cols.append([mats[k].get((i, i), ZERO) for i in range(size)])
    diag_matrix = from_columns(diag_cols)

    def decompose(M: dict) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        diag = [ZERO] * size
        for (r, c), v in M.items():
            if r == c:
                diag[r] = v
            else:
                out[labels.index(f"e{r + 1}{c + 1}")] = v
        if any(diag):
            sol = solve(diag_matrix, diag)
            if sol is None:
                raise ValueError("diagonal part outside the basis span")
            for pos, k in enumerate(diag_idx):
                if sol[pos]:
                    out[k] = sol[pos]
        return out

    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    dim = len(labels)
    for a in range(dim):
        for b in range(dim):
            br = _matrix_bracket(mats[a], mats[b], parities[a], parities[b], size)
            if br:
                table[(a, b)] = decompose(br)

    # supertrace form, scaled so the even highest root theta has (theta,theta)=2
    if m >= 2 or n == 0:
        scale = ONE
    elif n >= 2:
        scale = -ONE
    else:
        scale = ONE  # gl(1|1): no even roots, normalization vacuous
    form = RationalMatrix.zeros(dim, dim)
    for a in range(dim):
        for b in range(dim):
            v = ZERO
            for (r, c), x in mats[a].items():
                y = mats[b].get((c, r))
                if y:
                    v += x * y * (ONE if par(r) == 0 else -ONE)
            form[a, b] = scale * v

    meta = {"type": "gl" if gl_center else "sl", "m": m, "n": n}
    if gl_center:
        meta["warning"] = ("sl(n|n) is not basic; returning gl(n|n) "
                           "with its center")
    return LieSuperalgebra(labels, parities, table, form=form, meta=meta,
                           check=check)


def build_osp_1_2(check: bool = True) -> LieSuperalgebra:
    """osp(1|2): even sl2 {e,h,f} plus odd {vp,vm}; check as in build_sl.

    Convention: [h,vp] = vp, [h,vm] = -vm, [vp,vm] = h, [vp,vp] = 2e,
    [vm,vm] = -2f, [e,vm] = -vp, [f,vp] = -vm.  Realized by 3x3 matrices
    preserving a split form on C^{1|2}; the form is -supertrace, which
    gives kappa(h,h) = 2.
    """
    labels = ["e", "h", "f", "vp", "vm"]
    parities = [0, 0, 0, 1, 1]
    ix = {l: i for i, l in enumerate(labels)}
    raw = {
        ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1},
        ("h", "vp"): {"vp": 1}, ("h", "vm"): {"vm": -1},
        ("e", "vm"): {"vp": -1}, ("f", "vp"): {"vm": -1},
        ("vp", "vp"): {"e": 2}, ("vm", "vm"): {"f": -2},
        ("vp", "vm"): {"h": 1},
    }
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (a, b), row in raw.items():
        i, j = ix[a], ix[b]
        r = {ix[k]: Fraction(c) for k, c in row.items()}
        table[(i, j)] = r
        if i != j:
            sgn = ONE if (parities[i] and parities[j]) else -ONE
            table[(j, i)] = {k: sgn * c for k, c in r.items()}
    form = RationalMatrix.zeros(5, 5)
    pairs = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2,
             ("vp", "vm"): 2, ("vm", "vp"): -2}
    for (a, b), v in pairs.items():
        form[ix[a], ix[b]] = Fraction(v)
    return LieSuperalgebra(labels, parities, table, form=form,
                           meta={"type": "osp12"}, check=check)

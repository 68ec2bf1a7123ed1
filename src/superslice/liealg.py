"""Lie superalgebras by structure constants, gradings, sl2-triples.

An algebra is a basis (labels + parities), a sparse table of structure
constants over Q, and an optional even supersymmetric invariant bilinear
form.  Construction re-verifies super-antisymmetry, parity homogeneity,
the super Jacobi identity and, when a form is given, its invariance and
nondegeneracy.  Jacobi is checked on sorted basis triples i <= j <= k
only: once super-antisymmetry holds, the Jacobiator is
super-alternating, so its value on any permutation of a triple is a
sign times its value on the sorted one (the proof is in
``LieSuperalgebra._verify``).  The form is held only as sparse rows
(``form_rows``) and checked only where an entry or a bracket can be
nonzero.

Every bracket reads the structure constants as one integer table: the
numerators n_ij^k over one common denominator d, so that
c_ij^k = n_ij^k / d.  ``_bracket`` sums u_i v_j n_ij^k over sparse
vectors and returns d [u, v]; the checks compare such scaled sums, and
each public bracket divides by d once.  The checks, the catalogue
builder, the triple, the grading and the centralizer run in Python ints
in the same way (the fraction-free discipline of ``linalg``): the
Jacobi check sums one integer accumulator per triple, the form checks
read the form rows as integer numerators over their common
denominator, the catalogue builder forms its supercommutators over one
denominator for the basis matrices and one for their coordinates, and
the triple, the grading and the centralizer hand integer brackets of
sparse vectors to ``linalg``'s ``row_solve``, ``row_rank`` and
``row_nullspace``.  A Fraction is built only where a result is
written.

Vectors come in two flavors: dense lists of Fractions, one entry per
basis element (``bracket_num``), and sparse dicts
mapping basis index -> SuperPolynomial for symbolic points
(``bracket_poly``).  The bracket on polynomial vectors applies the
Koszul rule [a x, b y] = (-1)^{|x||b|} a b [x, y], each component as
one ``superpoly.sum_of_products`` over the integer table.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .linalg import (_reduced, row_inverse, row_nullspace, row_rank,
                     row_solve)
from .superpoly import (IntTerms, PolyRing, SuperPolynomial, _as_fraction,
                        combine, common_denominator, key_parity,
                        numerators)

ZERO = Fraction(0)
ONE = Fraction(1)
# a form entry as algebra_to_json writes it: "3", "-3" or "-3/2"
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")

NumVector = list  # dense list of Fractions, one per basis element
PolyVector = dict  # basis index -> SuperPolynomial


class LieSuperalgebra:
    def __init__(self, labels: Sequence[str], parities: Sequence[int],
                 table: Mapping[tuple[int, int], Mapping[int, Fraction]],
                 form: Optional[Sequence[Mapping[int, Fraction]]] = None,
                 meta: Optional[dict] = None, check: bool = True):
        self.labels = list(labels)
        self.parities = list(parities)
        self.dim = len(self.labels)
        if len(self.parities) != self.dim:
            raise ValueError("labels/parities length mismatch")
        if len(set(self.labels)) != self.dim:
            raise ValueError("duplicate basis labels")
        self.index = {l: i for i, l in enumerate(self.labels)}
        self.table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), row in table.items():
            cleaned = {k: _as_fraction(c) for k, c in row.items() if c}
            if cleaned:
                self.table[(i, j)] = cleaned
        # the integer table every bracket reads: rows {k: n} with
        # table[i, j][k] = n / _int_den, in the key orders of ``table``
        self._int_den = common_denominator(*self.table.values())
        self._int_table = {ij: numerators(row, self._int_den)
                           for ij, row in self.table.items()}
        # the nonzero form entries, row by row in column order
        self.form_rows = None if form is None else [
            {c: _as_fraction(v) for c, v in sorted(r.items()) if v}
            for r in form]
        self.meta = dict(meta or {})
        if check:
            self._verify()

    # -- verification ------------------------------------------------------

    def validate(self) -> dict:
        """Re-run all structural checks (antisymmetry, parity, Jacobi,
        form); raises the first violation, returns a summary on success."""
        self._verify()
        ev = sum(1 for p in self.parities if p == 0)
        return {
            "dim_even": ev,
            "dim_odd": self.dim - ev,
            "structure_constants": sum(len(r) for r in self.table.values()),
            "has_form": self.form_rows is not None,
        }

    def _verify(self):
        """Super-antisymmetry and parity on every table entry, then super
        Jacobi on sorted basis triples i <= j <= k, then the form.

        Sorted triples suffice once antisymmetry and parity hold.  The
        Jacobiator J(x,y,z) = [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|}[y,[x,z]]
        is then super-alternating on homogeneous elements:

        - swapping x, y: [[y,x],z] = -(-1)^{|x||y|}[[x,y],z], so
          J(y,x,z) = [y,[x,z]] + (-1)^{|x||y|}[[x,y],z]
                     - (-1)^{|x||y|}[x,[y,z]] = -(-1)^{|x||y|} J(x,y,z);
        - swapping y, z: [x,[z,y]] = -(-1)^{|y||z|}[x,[y,z]],
          [[x,z],y] = -(-1)^{(|x|+|z|)|y|}[y,[x,z]] and
          [z,[x,y]] = -(-1)^{|z|(|x|+|y|)}[[x,y],z], so
          J(x,z,y) = -(-1)^{|y||z|} J(x,y,z).

        These transpositions generate every permutation, so J vanishes on
        a basis triple iff it vanishes on its sorted one.  Equal indices
        stay in: J(x,x,z) need not vanish for odd x.  A triple is skipped
        when [x_j,x_k], [x_i,x_j] and [x_i,x_k] are all absent from the
        table, since then all three terms of J are zero.

        Everything runs on the integer table (``_int_table``, over
        d = ``_int_den``).  Each triple sums d^2 J into one integer
        accumulator, each term read from ad rows: ad[a][b] is the row of
        [x_a, x_b], so [x_i,[x_j,x_k]] adds n_jk^m ad[i][m],
        -[[x_i,x_j],x_k] adds -n_ij^m ad[m][k] and
        -(-1)^{|i||j|}[x_j,[x_i,x_k]] adds -(-1)^{|i||j|} n_ik^m ad[j][m].
        The identity holds on the triple exactly when every accumulated
        entry is zero.
        """
        p, labels = self.parities, self.labels
        table = self._int_table
        none: dict[int, int] = {}  # the row of a bracket absent from the table
        for (i, j), row in table.items():
            sgn = -1 if not (p[i] and p[j]) else 1
            mirror = table.get((j, i), none)
            keys = set(row) | set(mirror)
            for k in keys:
                if mirror.get(k, 0) != sgn * row.get(k, 0):
                    raise ValueError(
                        f"super-antisymmetry fails at ({labels[i]},"
                        f"{labels[j]},{labels[k]})")
                if (p[i] + p[j]) % 2 != p[k] and row.get(k, 0):
                    raise ValueError(
                        f"parity inhomogeneity in [{labels[i]},"
                        f"{labels[j]}]")
        n = self.dim
        ad = [{} for _ in range(n)]
        for (a, b), row in table.items():
            ad[a][b] = row
        for i in range(n):
            adi = ad[i]
            for j in range(i, n):
                adj = ad[j]
                bij = adi.get(j, none)
                # the sign of -(-1)^{|i||j|}[x_j,[x_i,x_k]]
                third = 1 if p[i] and p[j] else -1
                for k in range(j, n):
                    bjk = adj.get(k, none)
                    bik = adi.get(k, none)
                    if not (bij or bjk or bik):
                        continue  # all three terms vanish
                    acc = {}
                    get = acc.get
                    for m, c in bjk.items():
                        for t, v in adi.get(m, none).items():
                            acc[t] = get(t, 0) + c * v
                    for m, c in bij.items():
                        for t, v in ad[m].get(k, none).items():
                            acc[t] = get(t, 0) - c * v
                    for m, c in bik.items():
                        c *= third
                        for t, v in adj.get(m, none).items():
                            acc[t] = get(t, 0) + c * v
                    if any(acc.values()):
                        raise ValueError(
                            f"super Jacobi fails at ({labels[i]},"
                            f"{labels[j]},{labels[k]})")
        if self.form_rows is not None:
            self._verify_form()

    def _verify_form(self):
        """The shape of the form (a row per basis element, columns in the
        basis), then its evenness, supersymmetry and invariance on the
        entries and triples where something can be nonzero, then its
        nondegeneracy.

        The form rows are read once as integer numerators over their
        common denominator e, so every comparison below is between
        Python ints: entries compare as e-scaled values, and the
        invariance sums as d e-scaled ones (d = ``_int_den``).

        Evenness and supersymmetry are checked at every position (a, b)
        where f[a,b] or f[b,a] is nonzero, in row-major order, so the
        first violation reported is the one a dense scan would meet
        first; at every other position both hold trivially.

        Invariance is checked on the triples reached from a table entry
        (i,j): some m in its support has f[m,k] != 0.  Write
        D(i,j,k) = ([x_i,x_j],x_k) - (x_i,[x_j,x_k]) and a, b, c for the
        parities of x_i, x_j, x_k.  Super-antisymmetry and parity of the
        table (checked in ``_verify``) and supersymmetry (checked just
        before) give ([x_k,x_j],x_i) = -(-1)^{ab+bc+ca} (x_i,[x_j,x_k])
        and (x_k,[x_j,x_i]) = -(-1)^{ab+bc+ca} ([x_i,x_j],x_k), so
        D(k,j,i) = (-1)^{ab+bc+ca} D(i,j,k).  A triple whose right side
        can be nonzero has a table entry (j,k) with some m in its
        support and f[i,m] != 0; its reverse (k,j,i) then has the table
        entry (k,j) with the same support and f[m,i] != 0, so it is
        reached, and its defect vanishes exactly when this one does.
        Triples reached from neither side have D = 0.

        Last, the Gram matrix must have full rank (``row_rank`` of the
        integer rows): a degenerate form, the zero form among them,
        cannot carry the slice's Poisson structure.
        """
        n = self.dim
        if len(self.form_rows) != n or any(
                not 0 <= c < n for r in self.form_rows for c in r):
            raise ValueError("form shape mismatch")
        p = self.parities
        den = common_denominator(*self.form_rows)
        rows = [numerators(r, den) for r in self.form_rows]
        nonzero = {(a, b) for a, row in enumerate(rows) for b in row}
        for a, b in sorted(nonzero | {(b, a) for a, b in nonzero}):
            v = rows[a].get(b, 0)
            if p[a] != p[b] and v:
                raise ValueError("form is not even")
            sgn = -1 if p[a] and p[b] else 1
            if v != sgn * rows[b].get(a, 0):
                raise ValueError("form is not supersymmetric")
        table = self._int_table
        triples = set()
        for (i, j), row in table.items():
            for m in row:
                triples.update((i, j, k) for k in rows[m])
        none: dict[int, int] = {}
        for i, j, k in triples:
            # d e D(i,j,k): the brackets and the form are integer rows
            lhs = sum(n * rows[m].get(k, 0) for m, n in table[i, j].items())
            rhs = sum(n * rows[i].get(m, 0)
                      for m, n in table.get((j, k), none).items())
            if lhs != rhs:
                raise ValueError("form is not invariant")
        if row_rank(rows) < n:
            raise ValueError("form is degenerate")

    # -- brackets -------------------------------------------------------------

    def _bracket(self, u: Mapping[int, object],
                 v: Mapping[int, object]) -> dict[int, object]:
        """d [u, v] = sum of u_i v_j n_ij^k over the integer table, for
        sparse vectors {index: coefficient} (d = ``_int_den``).

        Integers in give integers, Fractions give Fractions.  The result
        may hold zeros where contributions cancel."""
        table = self._int_table
        out: dict[int, object] = {}
        for i, a in u.items():
            for j, b in v.items():
                row = table.get((i, j))
                if row is None:
                    continue
                ab = a * b
                for k, n in row.items():
                    out[k] = out.get(k, 0) + ab * n
        return out

    def _dense(self, scaled: Mapping[int, object], den: int) -> list[Fraction]:
        """A sparse vector over den as a dense list of Fractions."""
        out = [ZERO] * self.dim
        for k, c in scaled.items():
            if c:
                out[k] = Fraction(c, den)
        return out

    def basis_vector(self, i: Union[int, str]) -> list[Fraction]:
        if isinstance(i, str):
            i = self.index[i]
        v = [ZERO] * self.dim
        v[i] = ONE
        return v

    def bracket_num(self, x: Sequence, y: Sequence) -> list[Fraction]:
        """[x, y] of dense vectors: ``_bracket`` of their nonzero entries,
        divided by ``_int_den`` once."""
        return self._dense(self._bracket(_sparse(x), _sparse(y)),
                           self._int_den)

    def bracket_poly(self, x: Mapping[int, SuperPolynomial],
                     y: Mapping[int, SuperPolynomial]) -> dict[int, SuperPolynomial]:
        """Bracket of polynomial-coefficient vectors with the Koszul rule
        [a x_i, b x_j] = a ((-1)^{|x_i||b|} b) [x_i, x_j].

        Each output component k is one ``sum_of_products`` (through
        ``combine``) over the triples (n_ij^k, a_i, eff_j) of the (i, j)
        whose table row holds k: n_ij^k from ``_int_table``, a_i over its
        denominator times ``_int_den``, and eff_j = b_j with its odd
        terms negated when x_i is odd, built once per j.  The result has
        the key set and the exact coefficients of the sum in Fractions,
        and a component that sums to zero is absent; the order of keys
        and terms after a cancellation is not promised.
        """
        x = [(i, a) for i, a in x.items() if a.terms]
        y = [(j, b) for j, b in y.items() if b.terms]
        if not x or not y:
            return {}
        ring = x[0][1].ring
        for _, p in x + y:
            if p.ring is not ring:
                raise ValueError("polynomials belong to different rings")
        odd = ring.masks()[0]
        d = self._int_den
        par = self.parities
        table = self._int_table
        twisted: dict[int, IntTerms] = {}
        acc: dict[int, list] = {}
        for i, a in x:
            a = IntTerms(a.terms, a.den * d)
            for j, b in y:
                row = table.get((i, j))
                if row is None:
                    continue
                if par[i]:
                    eff = twisted.get(j)
                    if eff is None:
                        eff = twisted[j] = IntTerms(
                            {m: -n if key_parity(m, odd) else n
                             for m, n in b.terms.items()}, b.den)
                else:
                    eff = b
                for k, n in row.items():
                    acc.setdefault(k, []).append((n, a, eff))
        return combine(ring, acc)

    # -- structure ----------------------------------------------------------

    def even_indices(self) -> list[int]:
        return [i for i in range(self.dim) if self.parities[i] == 0]

    def is_even(self, v: Sequence) -> bool:
        """Whether the dense vector v has no odd component."""
        return not any(c and self.parities[i] for i, c in enumerate(v))

    def restrict_to(self, indices: Sequence[int]) -> "LieSuperalgebra":
        """Subalgebra on a subset of basis elements (must close)."""
        idx = list(indices)
        pos = {b: a for a, b in enumerate(idx)}
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                row = self.table.get((i, j))
                if row is None:
                    continue
                out = {}
                for k, c in row.items():
                    if k not in pos:
                        raise ValueError(
                            f"subset does not close: [{self.labels[i]},"
                            f"{self.labels[j]}] leaves the span")
                    out[pos[k]] = c
                table[(a, b)] = out
        return LieSuperalgebra([self.labels[i] for i in idx],
                               [self.parities[i] for i in idx], table,
                               check=False)

    def __repr__(self):
        ev = sum(1 for p in self.parities if p == 0)
        return f"<LieSuperalgebra dim {ev}|{self.dim - ev}>"


def _sparse(v: Sequence) -> dict:
    """The nonzero entries of a dense vector, by index."""
    return {i: c for i, c in enumerate(v) if c}


def _int_vector(v: Sequence) -> tuple[dict[int, int], int]:
    """The nonzero entries of a dense rational vector as integer
    numerators over the lcm of their denominators: (numerators, lcm)."""
    s = _sparse(v)
    den = common_denominator(s)
    return numerators(s, den), den


def _ad_columns(alg: LieSuperalgebra, u: Mapping[int, int],
                indices: Sequence[int]) -> list[dict[int, int]]:
    """The columns [u, x_c] of ad_u for c in indices, each scaled by
    ``_int_den`` (``_bracket``), entries that cancel dropped."""
    bracket = alg._bracket
    return [{r: x for r, x in bracket(u, {c: 1}).items() if x}
            for c in indices]


def _transpose(cols: Sequence[Mapping[int, int]],
               nrows: int) -> list[dict[int, int]]:
    """The sparse rows of the matrix with these sparse columns."""
    rows = [{} for _ in range(nrows)]
    for c, col in enumerate(cols):
        for r, x in col.items():
            rows[r][c] = x
    return rows


def dense_to_poly(alg: LieSuperalgebra, v: Sequence, ring: PolyRing) -> dict:
    out = {}
    for i, c in enumerate(v):
        c = _as_fraction(c)
        if c:
            out[i] = ring.const(c)
    return out


# -- good gradings ------------------------------------------------------------

class GoodGrading:
    """Half-integer grading adapted to a nilpotent f.

    Weights are stored doubled (wt2), so g_{1/2} has wt2 = 1.  Checks at
    construction: bracket additivity, f in degree -1, ad_f injective in
    degrees >= 1/2 and surjective in degrees <= 1/2.
    """

    def __init__(self, alg: LieSuperalgebra, weights2: Sequence[int],
                 f: Sequence):
        self.alg = alg
        self.weights2 = [int(w) for w in weights2]
        if len(self.weights2) != alg.dim:
            raise ValueError("weights length mismatch")
        self.f = [_as_fraction(x) for x in f]
        self._validate()

    def _validate(self):
        alg, w2 = self.alg, self.weights2
        for (i, j), row in alg.table.items():
            for k, c in row.items():
                if c and w2[k] != w2[i] + w2[j]:
                    raise ValueError(
                        f"grading not additive on [{alg.labels[i]},"
                        f"{alg.labels[j]}]")
        for i, c in enumerate(self.f):
            if c and w2[i] != -2:
                raise ValueError("f has a component outside degree -1")
        if all(not c for c in self.f):
            raise ValueError("f is zero")
        # ad_f, column by column, in integers: rank is blind to scaling
        uf, _ = _int_vector(self.f)
        adf = _ad_columns(alg, uf, range(alg.dim))
        levels = sorted(set(w2))
        for lev in levels:
            dom = self.indices_at(lev)
            img_idx = self.indices_at(lev - 2)
            # the block from degree lev to lev - 2, one row per column
            r = row_rank({t: x for t, x in adf[c].items() if w2[t] == lev - 2}
                         for c in dom)
            if lev >= 1 and r != len(dom):
                raise ValueError(f"ad_f not injective from degree {lev}/2")
            if lev <= 1 and img_idx and r != len(img_idx):
                raise ValueError(f"ad_f not surjective onto degree {lev - 2}/2")

    def indices_at(self, wt2: int) -> list[int]:
        return [i for i, w in enumerate(self.weights2) if w == wt2]

    def indices_where(self, pred) -> list[int]:
        return [i for i, w in enumerate(self.weights2) if pred(w)]

    def positive_indices(self) -> list[int]:
        return self.indices_where(lambda w: w > 0)

    def levels(self) -> list[int]:
        return sorted(set(self.weights2))


def sl2_triple_for(alg: LieSuperalgebra, f: Sequence) -> "Sl2Triple":
    """Complete a nilpotent even f to an sl2-triple by exact linear solves.

    Solves ad_f^2 w = 2 f over the even part, sets h = [f, w], then solves
    the joint linear system [f, e] = -h, (ad_h - 2) e = 0.  Raises
    ValueError when f is zero or odd, or when no completion exists for
    the found h.

    Both systems are integer rows for ``row_solve``: f and h as integer
    numerators over their denominators df and dh, and the columns of
    ad_f and ad_h as ``_bracket``s, so each equation is its rational one
    times a nonzero integer.  That keeps the solution set, and RREF is
    unique with free variables 0, so the solutions are the ones a solve
    over Fractions gives.
    """
    f = [_as_fraction(x) for x in f]
    if not any(f):
        raise ValueError("f is zero: a nilpotent must be a nonzero vector")
    if not alg.is_even(f):
        raise ValueError("f must be even")
    dim, d = alg.dim, alg._int_den
    even = alg.even_indices()
    uf, df = _int_vector(f)
    adf = _ad_columns(alg, uf, even)  # d df [f, x_c]
    # column c of ad_f^2 is d^2 df^2 [f, [f, x_c]], so the right side of
    # ad_f^2 w = 2 f becomes 2 d^2 df^2 f = 2 d^2 df uf
    cols = [{r: x for r, x in alg._bracket(uf, col).items() if x}
            for col in adf]
    w_even = row_solve(_transpose(cols, dim),
                       [2 * d * d * df * uf.get(r, 0) for r in range(dim)],
                       len(even))
    if w_even is None:
        raise ValueError("no h with [h,f] = -2f in the image of ad_f")
    w = [ZERO] * dim
    for pos, i in enumerate(even):
        w[i] = w_even[pos]
    h = alg.bracket_num(f, w)
    uh, dh = _int_vector(h)
    # d df dh ([f, e] + h) = 0 and d dh ([h, e] - 2 e) = 0, unknowns on
    # the even part
    adh = _transpose(_ad_columns(alg, uh, even), dim)
    rows = [{c: dh * x for c, x in r.items()} for r in _transpose(adf, dim)]
    for pos, i in enumerate(even):
        r = adh[i]
        x = r.get(pos, 0) - 2 * d * dh
        if x:
            r[pos] = x
        else:
            del r[pos]
    rows += adh
    e_even = row_solve(rows, [-d * df * uh.get(r, 0) for r in range(dim)]
                       + [0] * dim, len(even))
    if e_even is None:
        raise ValueError("found h does not extend to an sl2-triple")
    e = [ZERO] * dim
    for pos, i in enumerate(even):
        e[i] = e_even[pos]
    return Sl2Triple(alg, e, h, f)


class Sl2Triple:
    def __init__(self, alg: LieSuperalgebra, e: Sequence, h: Sequence,
                 f: Sequence):
        self.alg = alg
        self.e = [_as_fraction(x) for x in e]
        self.h = [_as_fraction(x) for x in h]
        self.f = [_as_fraction(x) for x in f]
        b = alg.bracket_num
        checks = (
            (b(self.h, self.e), [2 * x for x in self.e], "[h,e] = 2e"),
            (b(self.h, self.f), [-2 * x for x in self.f], "[h,f] = -2f"),
            (b(self.e, self.f), self.h, "[e,f] = h"),
        )
        for got, want, name in checks:
            if got != want:
                raise ValueError(f"not an sl2-triple: {name} fails")
        if not all(map(alg.is_even, (self.e, self.h, self.f))):
            raise ValueError("triple vectors must be even")


def dynkin_grading(alg: LieSuperalgebra, triple: Sl2Triple) -> GoodGrading:
    """Grading by halved ad_h eigenvalues; requires an ad_h-diagonal basis.

    Column j of ad_h is ``_bracket`` of h's integer numerators (over dh)
    with x_j, so its diagonal entry is the eigenvalue times d dh."""
    uh, dh = _int_vector(triple.h)
    scale = alg._int_den * dh
    w2 = []
    for j, col in enumerate(_ad_columns(alg, uh, range(alg.dim))):
        if col.keys() - {j}:
            raise ValueError(
                f"basis vector {alg.labels[j]} is not an ad_h eigenvector")
        lam = Fraction(col.get(j, 0), scale)
        if lam.denominator != 1:
            raise ValueError("non-integral ad_h eigenvalue")
        w2.append(int(lam))
    return GoodGrading(alg, w2, triple.f)


def centralizer(alg: LieSuperalgebra, x: Sequence) -> list[list[Fraction]]:
    """Kernel of ad_x: ``row_nullspace`` of the integer rows of ad_x
    (scaling keeps the kernel).  Its RREF basis is independent with no
    check: each vector is 1 at its own free column and 0 at the others."""
    u, _ = _int_vector(x)
    rows = _transpose(_ad_columns(alg, u, range(alg.dim)), alg.dim)
    return row_nullspace(rows, alg.dim)


class GradedPiece(NamedTuple):
    """Degree-p data for the gauge recursion: g_p = g_p^e + [f, g_{p+1}].
    ``inverse`` (sparse rows) inverts the matrix with columns e_basis,
    then [f, x_j] for j in lift_indices, on the rows row_indices."""

    wt2: int
    row_indices: list[int]
    e_basis: list[list[Fraction]]
    lift_indices: list[int]
    inverse: list[dict[int, Fraction]]


def graded_slice_decomposition(alg: LieSuperalgebra, grading: GoodGrading,
                               triple: Sl2Triple) -> dict[int, GradedPiece]:
    """For each degree p >= -1/2 the exact splitting g_p = g_p^e +
    [f, g_{p+1}], the combined basis inverted by ``row_inverse``; the
    ``decomposition`` stage computes it once and ``gauge_fix`` reads it.
    Raises on a "direct sum dimension mismatch" or a singular basis."""
    w2 = grading.weights2
    ge_by_level: dict[int, list[list[Fraction]]] = {}
    for v in centralizer(alg, triple.e):
        levels = {w2[i] for i, c in enumerate(v) if c}
        if len(levels) != 1:
            raise ValueError("centralizer vector not weight homogeneous")
        ge_by_level.setdefault(levels.pop(), []).append(v)
    out: dict[int, GradedPiece] = {}
    for lev in grading.levels():
        if lev < -1:
            continue
        rows = grading.indices_at(lev)
        if not rows:
            continue
        e_basis = ge_by_level.get(lev, [])
        lift = grading.indices_at(lev + 2)
        cols = e_basis + [alg.bracket_num(triple.f, alg.basis_vector(j))
                          for j in lift]
        if len(cols) != len(rows):
            raise ValueError(
                f"degree {lev}/2: direct sum dimension mismatch "
                f"({len(cols)} vs {len(rows)})")
        inv = row_inverse([{k: v[r] for k, v in enumerate(cols) if v[r]}
                           for r in rows])
        out[lev] = GradedPiece(lev, rows, e_basis, lift, inv)
    return out


# -- catalogue ----------------------------------------------------------------

def _from_matrices(labels: Sequence[str], mats: Sequence[Mapping],
                   row_parity: Sequence[int], form_scale: Fraction,
                   meta: dict, check: bool) -> LieSuperalgebra:
    """The algebra spanned by square supermatrices {(row, col): Fraction}
    whose rows and columns have the parities ``row_parity``.

    The bracket is the supercommutator ab - (-1)^{|a||b|} ba, read back
    in the basis through one rref of [B | I], B with the flattened basis
    matrices as columns.  It gives E with E B = [I; 0]: the first dim
    rows of E are a left inverse of B, the others vanish exactly on its
    span.  Each position is mapped to its coordinates once, and each
    basis matrix is multiplied only with those whose entries meet its
    own; table rows list basis indices in increasing order.  The form
    is ``form_scale`` times the supertrace of the product.  Raises
    ValueError on a basis matrix that is not parity homogeneous, on
    dependent basis matrices and on a supercommutator outside their
    span.

    The arithmetic is in integers: the basis matrices are numerators
    over one denominator dm, and the columns of E over another, du.  A
    product of two basis matrices then sits over dm^2 and its
    coordinates over dm^2 du; a Fraction is built only when a table or
    form entry is written.
    """
    dim, size = len(mats), len(row_parity)
    parities = []
    for lab, a in zip(labels, mats):
        seen = {(row_parity[r] + row_parity[c]) & 1 for r, c in a}
        if len(seen) != 1:
            raise ValueError(f"basis matrix {lab} is not parity homogeneous")
        parities.append(seen.pop())
    dm = common_denominator(*mats)
    mats = [numerators(a, dm) for a in mats]
    n = size * size
    aug = []  # [B | I] as integer rows, row q times dm
    for q in range(n):
        rc = divmod(q, size)
        row = {k: a[rc] for k, a in enumerate(mats) if rc in a}
        row[dim + q] = dm
        aug.append(row)
    piv, red = _reduced(aug)
    if piv[:dim] != list(range(dim)):
        raise ValueError("basis matrices are linearly dependent")
    du = common_denominator(*red)
    # column dim + q of E over du: the coordinates of the unit at
    # position q (rows k < dim) and its part off the span (the others)
    on_span = [[] for _ in range(n)]
    off_span = [[] for _ in range(n)]
    for k, row in enumerate(red):
        out = on_span if k < dim else off_span
        for q, x in row.items():
            if q >= dim:
                out[q - dim].append((k, x.numerator * (du // x.denominator)))
    unit = {divmod(q, size): (on_span[q], off_span[q]) for q in range(n)}
    # the entries of every basis matrix by row and by column:
    # starts[r] lists (j, c, x) and ends[c] lists (j, r, x) for each
    # entry x at (r, c) of basis matrix j
    starts = [[] for _ in range(size)]
    ends = [[] for _ in range(size)]
    for j, a in enumerate(mats):
        for (r, c), x in a.items():
            starts[r].append((j, c, x))
            ends[c].append((j, r, x))

    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    form = [{} for _ in range(dim)]
    pden, cden = dm * dm, dm * dm * du
    for i, (a, frow) in enumerate(zip(mats, form)):
        # a b_j for every j it can meet, its supertrace, then -+ b_j a
        prods = {}
        for (r, c), x in a.items():
            for j, c2, y in starts[c]:
                prod = prods.setdefault(j, {})
                prod[r, c2] = prod.get((r, c2), 0) + x * y
        for j, prod in prods.items():
            tr = sum(-v if row_parity[r] else v
                     for (r, c), v in prod.items() if r == c)
            if tr:
                frow[j] = form_scale * Fraction(tr, pden)
        for (r, c), x in a.items():
            for j, r0, y in ends[r]:
                v = y * x
                prod = prods.setdefault(j, {})
                prod[r0, c] = prod.get((r0, c), 0) + (
                    v if parities[i] and parities[j] else -v)
        for j in sorted(prods):
            row, outside = {}, {}
            for rc, v in prods[j].items():
                if v:
                    coords, defect = unit[rc]
                    for k, x in coords:
                        row[k] = row.get(k, 0) + v * x
                    for k, x in defect:
                        outside[k] = outside.get(k, 0) + v * x
            if any(outside.values()):
                raise ValueError(f"[{labels[i]},{labels[j]}] leaves the "
                                 "span of the basis matrices")
            row = {k: Fraction(row[k], cden) for k in sorted(row) if row[k]}
            if row:
                table[i, j] = row
    return LieSuperalgebra(labels, parities, table, form=form, meta=meta,
                           check=check)


def unit_label(i: int, j: int, size: int) -> str:
    """e_(i+1)(j+1): "e21"; from size 10 on "e2_1", as "e111" is ambiguous."""
    return f"e{i + 1}_{j + 1}" if size >= 10 else f"e{i + 1}{j + 1}"


def build_sl(m: int, n: int = 0, check: bool = True) -> LieSuperalgebra:
    """sl(m|n), or gl(n|n) with a warning in meta when m == n, from the
    matrix units e_ij (i != j) and h_i = e_ii -+ e_(i+1)(i+1) (every e_ii
    for gl(n|n)) through ``_from_matrices``, with the supertrace form
    normalized on the even highest root.  check=False skips the
    structural verification, as in load_algebra_file."""
    if m < 1 or n < 0 or m + n < 2:
        raise ValueError("need m >= 1, n >= 0, m + n >= 2")
    size = m + n
    par = [0] * m + [1] * n
    basis = [(unit_label(i, j, size), {(i, j): ONE})
             for i in range(size) for j in range(size) if i != j]
    meta = {"type": "gl" if m == n else "sl", "m": m, "n": n}
    if m == n:
        basis += [(unit_label(i, i, size), {(i, i): ONE})
                  for i in range(size)]
        meta["warning"] = ("sl(n|n) is not basic; returning gl(n|n) "
                           "with its center")
    else:
        basis += [(f"h{i + 1}", {(i, i): ONE, (i + 1, i + 1):
                                 ONE if par[i] != par[i + 1] else -ONE})
                  for i in range(size - 1)]
    # (theta,theta) = 2 on the even highest root theta, which lies in the
    # gl(n) block of sl(1|n) for n >= 2; gl(1|1) has no even root
    scale = -ONE if m == 1 and n >= 2 else ONE
    return _from_matrices([lab for lab, _ in basis], [a for _, a in basis],
                          par, scale, meta, check)


def build_osp_1_2(check: bool = True) -> LieSuperalgebra:
    """osp(1|2): even sl2 {e,h,f} plus odd {vp,vm}, through
    ``_from_matrices``; check as in build_sl.

    Realized by 3x3 matrices preserving a split form on C^{1|2} (row 0
    even, rows 1 and 2 odd), so that [h,vp] = vp, [h,vm] = -vm,
    [vp,vm] = h, [vp,vp] = 2e, [vm,vm] = -2f, [e,vm] = -vp and
    [f,vp] = -vm.  The form is -supertrace, which gives kappa(h,h) = 2.
    """
    mats = [{(1, 2): ONE}, {(1, 1): ONE, (2, 2): -ONE}, {(2, 1): ONE},
            {(0, 2): ONE, (1, 0): ONE}, {(0, 1): ONE, (2, 0): -ONE}]
    return _from_matrices(["e", "h", "f", "vp", "vm"], mats, [0, 1, 1],
                          -ONE, {"type": "osp12"}, check)


def principal_nilpotent(alg: LieSuperalgebra) -> list[Fraction]:
    """Sum of the simple negative root vectors of the even part.  Raises
    ValueError when the catalogue metadata lacks an integer field or
    names a basis label the algebra does not have."""
    t = alg.meta.get("type")

    def unit(label: str) -> int:
        if label not in alg.index:
            raise ValueError(f"catalogue metadata of type {t!r} needs the "
                             f"basis label {label!r}, which is missing")
        return alg.index[label]

    if t in ("sl", "gl"):
        for key in ("m", "n"):
            if type(alg.meta.get(key)) is not int:
                raise ValueError(f"catalogue metadata of type {t!r} needs "
                                 f"an integer field {key!r}")
        m, n = alg.meta["m"], alg.meta["n"]
        f = [ZERO] * alg.dim
        for i in range(m + n - 1):
            if i + 1 == m:
                continue  # odd direction, not part of the even principal
            f[unit(unit_label(i + 1, i, m + n))] = ONE
        if not any(f):
            raise ValueError("even part has no principal nilpotent")
        return f
    if t == "osp12":
        return alg.basis_vector(unit("f"))
    raise ValueError("principal nilpotent needs catalogue metadata")


def parse_nilpotent(alg: LieSuperalgebra, expr: str) -> list[Fraction]:
    """Parse 'e21+e32' / '2*e21 - 1/3*e31' / 'principal' into a vector;
    an empty term, as in 'e21+' or 'e21++e32', an empty basis label, as
    in '2*', and a coefficient that is not a number raise ValueError."""
    expr = expr.strip()
    if expr == "principal":
        return principal_nilpotent(alg)
    out = [ZERO] * alg.dim
    # "+-" is the minus sign of a term; a leading sign opens no term
    terms = expr.replace(" ", "").replace("+-", "-").replace("-", "+-")
    for part in terms.split("+")[expr.startswith(("+", "-")):]:
        if part in ("", "-"):
            raise ValueError(f"empty term in nilpotent {expr!r}")
        sign = ONE
        if part.startswith("-"):
            sign = -ONE
            part = part[1:]
        if "*" in part:
            c, name = part.split("*", 1)
            try:
                coeff = Fraction(c)
            except ZeroDivisionError:
                raise ValueError(
                    f"coefficient {c!r} has a zero denominator") from None
            except ValueError:
                raise ValueError(f"coefficient {c!r} of term {part!r} is "
                                 "not a number") from None
        else:
            coeff, name = ONE, part
        if not name:
            raise ValueError(f"empty basis label in term {part!r}")
        if name not in alg.index:
            raise ValueError(f"unknown basis label {name!r}")
        out[alg.index[name]] += sign * coeff
    return out


# -- JSON interchange ---------------------------------------------------------

def algebra_to_json(alg: LieSuperalgebra) -> dict:
    brackets = []
    for (i, j), row in sorted(alg.table.items()):
        for k, c in sorted(row.items()):
            brackets.append({"i": i, "j": j, "k": k,
                             "c_num": c.numerator, "c_den": c.denominator})
    out = {
        "basis": [{"label": l, "parity": p}
                  for l, p in zip(alg.labels, alg.parities)],
        "brackets": brackets,
    }
    if alg.form_rows is not None:
        out["form"] = [[str(row.get(j, ZERO)) for j in range(alg.dim)]
                       for row in alg.form_rows]
    return out


def _form_entry(x, r: int, c: int) -> Fraction:
    """A JSON integer or an exact rational string, nothing else: a float
    such as 0.1 is a binary fraction, and true would read as 1."""
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        return Fraction(x)
    raise ValueError(f"form entry ({r}, {c}): {x!r} is not an integer or "
                     "an exact rational string such as '-3/2'")


def algebra_from_json(data: dict, check: bool = True) -> LieSuperalgebra:
    """Algebra from its JSON form; raises ValueError on entries that no
    algebra can have (a label that is not a string, a number that is not
    a JSON integer, parity outside {0, 1}, a bracket index outside the
    basis, a zero denominator, a form entry that is neither a JSON
    integer nor an exact rational string, a form whose rows differ in
    length or that is not dim x dim, a meta that is not a JSON object),
    whatever ``check`` says."""
    basis = data["basis"]
    labels = [b["label"] for b in basis]
    parities = [b["parity"] for b in basis]
    for n, (lab, p) in enumerate(zip(labels, parities)):
        if not isinstance(lab, str):
            raise ValueError(f"basis entry {n}: label {lab!r} is not a "
                             "string")
        # JSON integers only: 0.9 or true must not pass as a parity
        if type(p) is not int or p not in (0, 1):
            raise ValueError(f"basis entry {n} ({lab!r}): parity {p!r} "
                             "is not 0 or 1")
    dim = len(labels)
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    keys = ("i", "j", "k", "c_num", "c_den")
    for n, ent in enumerate(data["brackets"]):
        for key in keys:
            # JSON integers only: int() would truncate 1.5 to 1
            if type(ent[key]) is not int:
                raise ValueError(f"bracket entry {n}: {key} = "
                                 f"{ent[key]!r} is not an integer")
        i, j, k, num, den = (ent[key] for key in keys)
        for key, idx in (("i", i), ("j", j), ("k", k)):
            if not 0 <= idx < dim:
                raise ValueError(f"bracket entry {n}: {key} = {idx} is "
                                 f"outside the basis (dimension {dim})")
        if den == 0:
            raise ValueError(f"bracket entry {n}: c_den is 0")
        c = Fraction(num, den)
        table.setdefault((i, j), {})[k] = table.get((i, j), {}).get(k, ZERO) + c
    form = data.get("form")
    if form is not None:
        form = [[_form_entry(x, r, c) for c, x in enumerate(row)]
                for r, row in enumerate(form)]
        if len({len(row) for row in form}) > 1:
            raise ValueError("ragged rows")
        if len(form) != dim or any(len(row) != dim for row in form):
            raise ValueError("form shape mismatch")
        form = [_sparse(row) for row in form]
    meta = data.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValueError(f"meta {meta!r} is not a JSON object")
    return LieSuperalgebra(labels, parities, table, form=form, meta=meta,
                           check=check)


def load_algebra_file(path: str, check: bool = True) -> LieSuperalgebra:
    with open(path) as fh:
        return algebra_from_json(json.load(fh), check=check)

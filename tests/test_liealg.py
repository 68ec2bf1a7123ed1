"""Structure constants checked against literal matrix arithmetic.

The oracle here is deliberately independent of the library: matrices are
dicts (row, col) -> Fraction, multiplied and supercommuted by hand, and
every structure constant of the catalogue algebras is compared entry by
entry against that.
"""

import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import dense_oracles
import validate_oracle
from cross_checks import form_value
from nilpotency_oracle import descending_central_series, nilpotency_class
from superslice.cli import resolve_algebra
from superslice.linalg import row_solve
from superslice.liealg import (GoodGrading, LieSuperalgebra,
                               algebra_from_json, algebra_to_json, build_osp_1_2,
                               build_sl, centralizer, dynkin_grading,
                               graded_slice_decomposition, parse_nilpotent,
                               principal_nilpotent, sl2_triple_for)
from superslice.liealg import _ad_columns, _int_vector
from superslice.superpoly import PolyRing, Variable

F = Fraction


# -- oracle helpers -----------------------------------------------------------

def mat_mul(a, b):
    out = {}
    for (r1, c1), x in a.items():
        for (r2, c2), y in b.items():
            if c1 == r2:
                out[(r1, c2)] = out.get((r1, c2), F(0)) + x * y
    return {k: v for k, v in out.items() if v}


def mat_scale(a, c):
    return {k: c * v for k, v in a.items() if c * v}


def mat_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, F(0)) + v
    return {k: v for k, v in out.items() if v}


def supercomm(a, b, pa, pb):
    ab = mat_mul(a, b)
    ba = mat_mul(b, a)
    return mat_add(ab, mat_scale(ba, F(1) if (pa and pb) else F(-1)))


def vec_to_matrix(alg, v, mats):
    out = {}
    for i, c in enumerate(v):
        if c:
            out = mat_add(out, mat_scale(mats[i], c))
    return out


def sl_matrices(alg, m, n):
    """Rebuild each basis label as an explicit matrix unit combination."""
    mats = []
    for lab in alg.labels:
        if lab.startswith("e"):
            r, c = int(lab[1]) - 1, int(lab[2]) - 1
            mats.append({(r, c): F(1)})
        else:
            i = int(lab[1:]) - 1
            sign = F(1) if (i < m) != (i + 1 < m) else F(-1)
            mats.append({(i, i): F(1), (i + 1, i + 1): sign})
    return mats


def check_table_against_matrices(alg, mats, parities_of_index):
    """Every bracket of basis elements must match the supercommutator."""
    for i in range(alg.dim):
        for j in range(alg.dim):
            got = vec_to_matrix(alg, alg.bracket_num(alg.basis_vector(i),
                                                     alg.basis_vector(j)), mats)
            want = supercomm(mats[i], mats[j], alg.parities[i], alg.parities[j])
            assert got == want, (alg.labels[i], alg.labels[j])


# -- catalogue vs oracle ------------------------------------------------------

def test_sl2_against_matrix_oracle():
    alg = build_sl(2)
    assert alg.labels == ["e12", "e21", "h1"]
    check_table_against_matrices(alg, sl_matrices(alg, 2, 0), None)


def test_sl3_against_matrix_oracle():
    alg = build_sl(3)
    assert alg.dim == 8
    check_table_against_matrices(alg, sl_matrices(alg, 3, 0), None)


def test_sl21_against_matrix_oracle():
    alg = build_sl(2, 1)
    assert alg.dim == 8
    ev, od = sum(1 for p in alg.parities if p == 0), sum(alg.parities)
    assert (ev, od) == (4, 4)
    check_table_against_matrices(alg, sl_matrices(alg, 2, 1), None)


def test_sl21_supertrace_form():
    # kappa(e_ij, e_kl) = delta_jk delta_il (-1)^{|i|} with |1|=|2|=0, |3|=1
    alg = build_sl(2, 1)
    ix = alg.index

    def form(a, b):
        return form_value(alg, alg.basis_vector(a), alg.basis_vector(b))

    assert form("e12", "e21") == 1
    assert form("e13", "e31") == 1
    assert form("e31", "e13") == -1
    assert form("e23", "e32") == 1
    assert form("e12", "e12") == 0
    assert form("h1", "h1") == 2  # (theta,theta)=2 normalization


def test_gl22_center_warning():
    alg = build_sl(2, 2)
    assert alg.meta.get("warning")
    assert alg.dim == 16
    # identity is central
    ident = [F(0)] * 16
    for i in range(4):
        ident[alg.index[f"e{i + 1}{i + 1}"]] = F(1)
    for j in range(16):
        assert not any(alg.bracket_num(ident, alg.basis_vector(j)))


def test_osp12_against_matrix_oracle():
    # 3x3 realization on C^{1|2}: index 1 even, indices 2,3 odd
    alg = build_osp_1_2()
    E = lambda r, c: {(r - 1, c - 1): F(1)}
    mats = [
        E(2, 3),                       # e
        mat_add(E(2, 2), mat_scale(E(3, 3), F(-1))),  # h
        E(3, 2),                       # f
        mat_add(E(1, 3), E(2, 1)),     # vp
        mat_add(E(1, 2), mat_scale(E(3, 1), F(-1))),  # vm
    ]
    check_table_against_matrices(alg, mats, None)

    def neg_str(a):  # -supertrace, parity pattern (+,-,-) on the diagonal
        return -(a.get((0, 0), F(0)) - a.get((1, 1), F(0)) - a.get((2, 2), F(0)))

    for i in range(5):
        for j in range(5):
            want = neg_str(mat_mul(mats[i], mats[j]))
            assert alg.form_rows[i].get(j, 0) == want, (alg.labels[i],
                                                        alg.labels[j])


def test_antisymmetry_violation_rejected():
    with pytest.raises(ValueError, match="antisymmetry"):
        LieSuperalgebra(["x", "y"], [0, 0],
                        {(0, 1): {0: F(1)}, (1, 0): {0: F(1)}})


def test_jacobi_violation_rejected():
    # [x,y]=z, [y,z]=x, [z,x]=x: the (x,y,z) Jacobiator is z, not 0
    with pytest.raises(ValueError, match="Jacobi"):
        LieSuperalgebra(
            ["x", "y", "z"], [0, 0, 0],
            {(0, 1): {2: F(1)}, (1, 0): {2: F(-1)},
             (1, 2): {0: F(1)}, (2, 1): {0: F(-1)},
             (2, 0): {0: F(1)}, (0, 2): {0: F(-1)}})


@pytest.mark.parametrize("x, h", [(0, 1), (1, 0)])
def test_jacobi_on_equal_indices_checked(x, h):
    # odd x, even h, [x,x] = h, [h,x] = x: antisymmetric and parity
    # homogeneous, but J(x,x,x) = -3x; every violated triple repeats x,
    # which sorts first or last depending on the basis order
    table = {(x, x): {h: F(1)}, (h, x): {x: F(1)}, (x, h): {x: F(-1)}}
    labels, parities = ["", ""], [0, 0]
    labels[x], labels[h], parities[x] = "x", "h", 1
    with pytest.raises(ValueError, match="Jacobi"):
        LieSuperalgebra(labels, parities, table)
    with pytest.raises(ValueError, match="Jacobi"):
        validate_oracle.verify(
            LieSuperalgebra(labels, parities, table, check=False))


@pytest.mark.parametrize("brackets", [
    [(1, 2, 3), (0, 3, 3)],  # J(a,b,c) = [a,[b,c]] = d
    [(0, 1, 3), (3, 2, 3)],  # J(a,b,c) = -[[a,b],c] = -d
    [(0, 2, 3), (1, 3, 3)],  # J(a,b,c) = -[b,[a,c]] = -d
])
def test_jacobi_fails_on_one_term_of_one_triple(brackets):
    # four even elements and two brackets [x,y] = z: (a,b,c) is the only
    # failing triple, through only one of the three terms of J
    table = {}
    for x, y, z in brackets:
        table[(x, y)] = {z: F(1)}
        table[(y, x)] = {z: F(-1)}
    alg = LieSuperalgebra(list("abcd"), [0] * 4, table, check=False)
    with pytest.raises(ValueError, match=r"Jacobi fails at \(a,b,c\)"):
        alg._verify()
    with pytest.raises(ValueError, match=r"Jacobi fails at \(a,b,c\)"):
        validate_oracle.verify(alg)


def test_jacobi_odd_pair_caught_by_third_term():
    # odd a, b, d, even c, e: [a,c] = d and [b,d] = [d,b] = e.  Every
    # sorted triple before (a,b,c) passes or is skipped, and at (a,b,c)
    # only -(-1)^{|a||b|}[b,[a,c]] = [b,d] = e is nonzero, so dropping
    # that term, or skipping triples where only [a,c] is in the table,
    # would let the algebra pass
    table = {(0, 2): {3: F(1)}, (2, 0): {3: F(-1)},
             (1, 3): {4: F(1)}, (3, 1): {4: F(1)}}
    alg = LieSuperalgebra(list("abcde"), [1, 1, 0, 1, 0], table, check=False)
    want = "super Jacobi fails at (a,b,c)"
    assert _failure(lambda a: a._verify(), alg) == want
    assert _failure(validate_oracle.verify, alg) == want


# -- sorted-triple and sparse-form checks against the dense oracle -------------

_CATALOGUE = {"sl3": build_sl(3), "sl(2|1)": build_sl(2, 1),
              "osp12": build_osp_1_2()}

def _failure(check, alg):
    """The message of the first violation check raises, None on PASS:
    comparing messages compares the kind and, for antisymmetry, parity
    and Jacobi, the labels of the offending entry or triple."""
    try:
        check(alg)
    except ValueError as exc:
        return str(exc)
    return None


def _perturb(draw, labels, p, table, form):
    """The algebra on table and form with one table entry (optionally
    with its mirror) or one form entry (optionally with its mirror)
    moved."""
    n = len(labels)
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    on_table = draw(st.booleans())
    mirror = draw(st.booleans())
    if on_table:
        old = table.get((i, j), {}).get(k, F(0))
    else:
        old = form[i].get(j, F(0))
    # either clear the entry or add a small nonzero rational to it
    delta = -old if old and draw(st.booleans()) else draw(
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
    sgn = F(1) if p[i] and p[j] else F(-1)
    if on_table:
        table.setdefault((i, j), {})[k] = old + delta
        if mirror and i != j:
            row = table.setdefault((j, i), {})
            row[k] = row.get(k, F(0)) + sgn * delta
    else:
        form[i][j] = old + delta
        if mirror and i != j:
            form[j][i] = form[j].get(i, F(0)) + (-sgn) * delta
    return LieSuperalgebra(labels, p, table, form, check=False)


@st.composite
def perturbed_algebras(draw):
    """A catalogue algebra with one table or form entry moved."""
    base = _CATALOGUE[draw(st.sampled_from(sorted(_CATALOGUE)))]
    table = {key: dict(row) for key, row in base.table.items()}
    return _perturb(draw, base.labels, base.parities, table,
                    [dict(r) for r in base.form_rows])


@settings(max_examples=150, deadline=None)
@given(perturbed_algebras())
def test_verify_matches_dense_oracle(alg):
    assert (_failure(lambda a: a._verify(), alg)
            == _failure(validate_oracle.verify, alg))


@st.composite
def sparse_algebras(draw):
    """Up to four basis elements of random parity, a few antisymmetric
    parity-homogeneous brackets and a few even supersymmetric form
    entries: the Jacobi and invariance violations of such tables sit on
    one or two triples, so no missed triple hides behind another."""
    n = draw(st.integers(2, 4))
    p = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    coeff = st.sampled_from([F(-2), F(-1), F(1), F(1, 2), F(2)])
    table = {}
    for _ in range(draw(st.integers(1, 3))):
        a, b = sorted(draw(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1))))
        outs = [k for k in range(n) if p[k] == (p[a] + p[b]) % 2]
        if (a == b and not p[a]) or not outs:
            continue
        k, c = draw(st.sampled_from(outs)), draw(coeff)
        table.setdefault((a, b), {})[k] = c
        if a != b:
            table.setdefault((b, a), {})[k] = c if p[a] and p[b] else -c
    form = None
    if draw(st.booleans()):
        form = [{} for _ in range(n)]
        for _ in range(draw(st.integers(1, 3))):
            a, b = draw(st.tuples(st.integers(0, n - 1),
                                  st.integers(0, n - 1)))
            if p[a] != p[b] or (a == b and p[a]):
                continue
            c = draw(coeff)
            form[a][b] = c
            form[b][a] = -c if p[a] else c
    return LieSuperalgebra([f"x{i}" for i in range(n)], p, table, form,
                           check=False)


@settings(max_examples=300, deadline=None)
@given(sparse_algebras())
def test_verify_matches_dense_oracle_on_sparse_tables(alg):
    assert (_failure(lambda a: a._verify(), alg)
            == _failure(validate_oracle.verify, alg))


def _rescale(base, s):
    """Table and form of ``base`` in the basis s_i x_i:
    c_ij^k -> c_ij^k s_i s_j / s_k and F_ij -> F_ij s_i s_j."""
    table = {(i, j): {k: c * s[i] * s[j] / s[k] for k, c in row.items()}
             for (i, j), row in base.table.items()}
    form = [{j: v * s[i] * s[j] for j, v in row.items()}
            for i, row in enumerate(base.form_rows)]
    return table, form


@st.composite
def rescaled_algebras(draw, perturb=True):
    """A catalogue algebra in the basis s_i x_i for random nonzero
    rationals s_i, so the integer table has a common denominator above 1
    and the form has denominators.  With ``perturb``, one entry may then
    be moved as in ``perturbed_algebras``."""
    base = _CATALOGUE[draw(st.sampled_from(sorted(_CATALOGUE)))]
    s = draw(st.lists(st.fractions(min_value=-4, max_value=4,
                                   max_denominator=5).filter(bool),
                      min_size=base.dim, max_size=base.dim))
    table, form = _rescale(base, s)
    if perturb and draw(st.booleans()):
        return _perturb(draw, base.labels, base.parities, table, form)
    return LieSuperalgebra(base.labels, base.parities, table, form,
                           check=False)


def _has_denominators(alg):
    return alg._int_den > 1 and any(
        v.denominator > 1 for row in alg.form_rows for v in row.values())


@settings(max_examples=150, deadline=None)
@given(rescaled_algebras())
def test_verify_matches_dense_oracle_on_rescaled_bases(alg):
    assume(_has_denominators(alg))
    assert (_failure(lambda a: a._verify(), alg)
            == _failure(validate_oracle.verify, alg))


@pytest.mark.parametrize("name", ["sl3", "sl(2|1)"])
def test_rescaled_basis_keeps_checks_and_triple(name):
    # the same algebra in the basis s_i x_i, s = (1/2, 2/3, 1, 1, ...):
    # it passes both checks, and the principal triple found in it is the
    # catalogue's, with coordinates divided by s
    base = _CATALOGUE[name]
    s = [F(1, 2), F(2, 3)] + [F(1)] * (base.dim - 2)
    alg = LieSuperalgebra(base.labels, base.parities, *_rescale(base, s))
    assert _has_denominators(alg)
    validate_oracle.verify(alg)
    want = sl2_triple_for(base, parse_nilpotent(base, "principal"))
    got = sl2_triple_for(alg, [c / si for c, si in zip(want.f, s)])
    for u, v in ((got.e, want.e), (got.h, want.h)):
        assert [c * si for c, si in zip(u, s)] == v


def _assert_triple_matches_dense(alg, f):
    """The integer-row triple, grading and centralizer of f against the
    package's former dense solves, ad matrices and RREF kernel."""
    t = sl2_triple_for(alg, f)
    assert (t.e, t.h, t.f) == dense_oracles.sl2_triple(alg, f)
    adh = dense_oracles.ad_matrix(alg, t.h)
    assert dynkin_grading(alg, t).weights2 == [adh[j][j]
                                               for j in range(alg.dim)]
    assert centralizer(alg, t.e) == dense_oracles.dense_nullspace(
        dense_oracles.ad_matrix(alg, t.e), alg.dim)


@pytest.mark.parametrize("name, nilpotent", [
    ("sl2", "principal"), ("sl3", "principal"), ("sl3", "e21"),
    ("sl4", "e21+e43"), ("sl4", "2*e21 - 1/3*e32"), ("sl(2|1)", "principal"),
    ("sl(2|1)", "e21"), ("sl(3|1)", "e21"), ("sl(3|2)", "principal"),
    ("osp12", "principal")])
def test_triple_grading_centralizer_match_dense_oracle(name, nilpotent):
    alg, _ = resolve_algebra(name)
    _assert_triple_matches_dense(alg, parse_nilpotent(alg, nilpotent))


@st.composite
def rescaled_nilpotents(draw):
    """A catalogue algebra in the basis s_i x_i (as in
    ``rescaled_algebras``) with its principal nilpotent in that basis,
    so the integer table, f, h and e all carry denominators."""
    base = _CATALOGUE[draw(st.sampled_from(sorted(_CATALOGUE)))]
    s = draw(st.lists(st.fractions(min_value=-4, max_value=4,
                                   max_denominator=5).filter(bool),
                      min_size=base.dim, max_size=base.dim))
    alg = LieSuperalgebra(base.labels, base.parities, *_rescale(base, s),
                          check=False)
    f = principal_nilpotent(base)
    return alg, [c / si for c, si in zip(f, s)]


@settings(max_examples=40, deadline=None)
@given(rescaled_nilpotents())
def test_triple_matches_dense_oracle_on_rescaled_bases(case):
    _assert_triple_matches_dense(*case)


def _dense(alg, sparse):
    out = [F(0)] * alg.dim
    for k, c in sparse.items():
        out[k] = c
    return out


@st.composite
def algebras_with_vectors(draw):
    alg = draw(rescaled_algebras(perturb=False))
    coeff = st.one_of(st.just(F(0)), st.fractions(
        min_value=-3, max_value=3, max_denominator=4))
    vec = st.lists(coeff, min_size=alg.dim, max_size=alg.dim)
    return alg, draw(vec), draw(vec)


@settings(max_examples=100, deadline=None)
@given(algebras_with_vectors())
def test_numeric_brackets_match_dense_fraction_sums(case):
    # the dense sums read the Fraction table and the form matrix through
    # the oracle's own bracket helpers
    alg, x, y = case
    table = alg.table
    xs = {i: c for i, c in enumerate(x) if c}
    want = {}
    for i, a in xs.items():
        for k, c in validate_oracle._b(
                table, i, {j: b for j, b in enumerate(y) if b}).items():
            want[k] = want.get(k, F(0)) + a * c
    assert alg.bracket_num(x, y) == _dense(alg, want)
    # the integer ad_x columns of the triple, grading and centralizer
    u, den = _int_vector(x)
    scale = alg._int_den * den
    for j, col in enumerate(_ad_columns(alg, u, range(alg.dim))):
        assert 0 not in col.values()
        assert (_dense(alg, {k: F(c, scale) for k, c in col.items()})
                == _dense(alg, validate_oracle._b2(table, xs, j)))
    assert form_value(alg, x, y) == sum(
        (x[i] * alg.form_rows[i].get(j, F(0)) * y[j]
         for i in range(alg.dim) for j in range(alg.dim)), F(0))


@pytest.mark.parametrize("name", sorted(_CATALOGUE))
def test_catalogue_passes_both(name):
    alg = _CATALOGUE[name]
    alg._verify()
    validate_oracle.verify(alg)


# -- triples and gradings -----------------------------------------------------

def test_sl2_triple():
    alg = build_sl(2)
    t = sl2_triple_for(alg, alg.basis_vector("e21"))
    assert t.f == alg.basis_vector("e21")
    assert t.e == alg.basis_vector("e12")
    assert t.h == alg.basis_vector("h1")


def test_sl3_principal_triple_canonical():
    alg = build_sl(3)
    f = parse_nilpotent(alg, "principal")
    assert f == parse_nilpotent(alg, "e21+e32")
    t = sl2_triple_for(alg, f)
    # h = diag(2,0,-2) = 2 h1 + 2 h2, e = 2 e12 + 2 e23
    want_h = [F(0)] * 8
    want_h[alg.index["h1"]] = F(2)
    want_h[alg.index["h2"]] = F(2)
    want_e = [F(0)] * 8
    want_e[alg.index["e12"]] = F(2)
    want_e[alg.index["e23"]] = F(2)
    assert t.h == want_h
    assert t.e == want_e


def test_osp12_triple_from_catalogue_f():
    alg = build_osp_1_2()
    t = sl2_triple_for(alg, alg.basis_vector("f"))
    assert t.e == alg.basis_vector("e")
    assert t.h == alg.basis_vector("h")


def test_sl21_triple():
    alg = build_sl(2, 1)
    t = sl2_triple_for(alg, parse_nilpotent(alg, "e21"))
    # h = diag(1,-1,0) = h1
    assert t.h == alg.basis_vector("h1")
    assert t.e == alg.basis_vector("e12")


def test_dynkin_grading_sl3():
    alg = build_sl(3)
    t = sl2_triple_for(alg, parse_nilpotent(alg, "principal"))
    g = dynkin_grading(alg, t)
    w = {alg.labels[i]: g.weights2[i] for i in range(8)}
    assert w == {"e12": 2, "e23": 2, "e13": 4,
                 "e21": -2, "e32": -2, "e31": -4, "h1": 0, "h2": 0}


def test_dynkin_grading_sl21_has_half_integer_weights():
    alg = build_sl(2, 1)
    t = sl2_triple_for(alg, parse_nilpotent(alg, "e21"))
    g = dynkin_grading(alg, t)
    w = {alg.labels[i]: g.weights2[i] for i in range(8)}
    # odd root vectors sit at ad_h eigenvalue +-1, i.e. degree +-1/2
    assert w["e13"] == 1 and w["e23"] == -1
    assert w["e31"] == -1 and w["e32"] == 1
    assert w["e12"] == 2 and w["e21"] == -2


def test_osp12_dynkin_grading():
    alg = build_osp_1_2()
    t = sl2_triple_for(alg, alg.basis_vector("f"))
    g = dynkin_grading(alg, t)
    assert g.weights2 == [2, 0, -2, 1, -1]


def test_good_grading_rejects_bad_weights():
    alg = build_sl(2)
    with pytest.raises(ValueError, match="additive"):
        GoodGrading(alg, [2, -2, 1], alg.basis_vector("e21"))
    with pytest.raises(ValueError, match="degree -1"):
        GoodGrading(alg, [2, -2, 0], alg.basis_vector("h1"))


def in_span(vectors, v):
    """Whether v lies in the span of the vectors, by an exact solve
    against the integer rows of the vectors as columns."""
    den = math.lcm(*(x.denominator for u in vectors + [v] for x in u))
    rows = [{c: int(u[r] * den) for c, u in enumerate(vectors) if u[r]}
            for r in range(len(v))]
    return row_solve(rows, [int(x * den) for x in v],
                     len(vectors)) is not None


def parity_counts(alg, basis):
    """(even, odd) counts of a basis of parity homogeneous vectors."""
    parities = []
    for u in basis:
        seen = {alg.parities[i] for i, c in enumerate(u) if c}
        assert len(seen) == 1, "basis vector is not parity homogeneous"
        parities.extend(seen)
    return parities.count(0), parities.count(1)


def test_centralizer_sl3():
    alg = build_sl(3)
    t = sl2_triple_for(alg, parse_nilpotent(alg, "principal"))
    c = centralizer(alg, t.e)
    assert len(c) == 2  # principal: dim g^e = rank
    v = [F(0)] * 8
    v[alg.index["e12"]] = F(1)
    v[alg.index["e23"]] = F(1)
    assert in_span(c, v)
    assert in_span(c, alg.basis_vector("e13"))
    assert not in_span(c, alg.basis_vector("e21"))


def test_centralizer_sl21():
    alg = build_sl(2, 1)
    t = sl2_triple_for(alg, parse_nilpotent(alg, "e21"))
    c = centralizer(alg, t.e)
    assert parity_counts(alg, c) == (2, 2)
    assert in_span(c, alg.basis_vector("e12"))
    assert in_span(c, alg.basis_vector("e13"))


def test_centralizer_osp12():
    alg = build_osp_1_2()
    c = centralizer(alg, alg.basis_vector("e"))
    assert parity_counts(alg, c) == (1, 1)
    assert in_span(c, alg.basis_vector("e"))
    assert in_span(c, alg.basis_vector("vp"))


def test_graded_slice_decomposition_sl2():
    alg = build_sl(2)
    t = sl2_triple_for(alg, alg.basis_vector("e21"))
    g = dynkin_grading(alg, t)
    pieces = graded_slice_decomposition(alg, g, t)
    assert sorted(pieces) == [0, 2]
    assert pieces[0].e_basis == [] and pieces[0].lift_indices == [alg.index["e12"]]
    assert len(pieces[2].e_basis) == 1 and pieces[2].lift_indices == []


def test_graded_slice_decomposition_osp12():
    alg = build_osp_1_2()
    t = sl2_triple_for(alg, alg.basis_vector("f"))
    g = dynkin_grading(alg, t)
    pieces = graded_slice_decomposition(alg, g, t)
    assert sorted(pieces) == [-1, 0, 1, 2]
    # degree -1/2 is pure image, degree 1/2 is pure centralizer
    assert pieces[-1].e_basis == [] and pieces[-1].lift_indices
    assert pieces[1].lift_indices == [] and len(pieces[1].e_basis) == 1


# -- polynomial-coefficient brackets -----------------------------------------

def test_bracket_poly_koszul_sign():
    alg = build_osp_1_2()
    ring = PolyRing([Variable("t1", 1), Variable("t2", 1)])
    th1, th2 = ring.gen("t1"), ring.gen("t2")
    x = {alg.index["vp"]: th1}
    y = {alg.index["vm"]: th2}
    out = alg.bracket_poly(x, y)
    # [t1 vp, t2 vm] = -t1 t2 [vp, vm] = -t1 t2 h
    assert set(out) == {alg.index["h"]}
    assert out[alg.index["h"]] == -(th1 * th2)


def test_bracket_poly_even_coefficients_plain():
    alg = build_sl(2)
    ring = PolyRing([Variable("a", 0)])
    a = ring.gen("a")
    x = {alg.index["e12"]: a}
    y = {alg.index["e21"]: ring.one()}
    out = alg.bracket_poly(x, y)
    assert out == {alg.index["h1"]: a}


def test_bracket_poly_matches_scalar_bracket():
    alg = build_sl(2, 1)
    ring = PolyRing([])
    xs = alg.basis_vector("e13")
    ys = alg.basis_vector("e31")
    from superslice.liealg import dense_to_poly
    xp, yp = dense_to_poly(alg, xs, ring), dense_to_poly(alg, ys, ring)
    want = alg.bracket_num(xs, ys)
    got = alg.bracket_poly(xp, yp)
    for i, c in enumerate(want):
        if c:
            assert got[i] == ring.const(c)
    assert set(got) == {i for i, c in enumerate(want) if c}


# -- series, restriction, serialization ---------------------------------------

def test_descending_central_series_positive_part_sl3():
    alg = build_sl(3)
    t = sl2_triple_for(alg, parse_nilpotent(alg, "principal"))
    g = dynkin_grading(alg, t)
    pos = alg.restrict_to(g.positive_indices())
    dims = [len(s) for s in descending_central_series(pos)]
    assert dims == [3, 1, 0]
    assert nilpotency_class(pos) == 2


def test_restrict_to_non_closing_subset():
    alg = build_sl(2)
    with pytest.raises(ValueError, match="close"):
        alg.restrict_to([alg.index["e12"], alg.index["e21"]])


def test_json_round_trip():
    alg = build_osp_1_2()
    data = algebra_to_json(alg)
    back = algebra_from_json(data)
    assert back.labels == alg.labels
    assert back.parities == alg.parities
    assert back.table == alg.table
    assert back.form_rows == alg.form_rows


# sha256 of json.dumps(algebra_to_json(alg)), pinned when the form was
# still a dense matrix: the rows write the same bytes, key order included
_JSON_DIGESTS = {
    "sl2": "658854660bff85aad0f66530549add3817a14ab35b4c0837a8aa3af944d2fec5",
    "sl(2|1)":
        "066b46c0656713c1893c2865dd512dec6bcba7991fefcc699822d2dd9a24fcc6",
    "sl(3|2)":
        "b2f06fd611478a050b11d75c22a62cd2123d516a308555440eebd108bcbe1f5a",
    "sl(3|3)":
        "645181cfadf0d454fe54723587bdcb92f7a8ec67592eddad9a4a498799ced3b9",
    "osp12":
        "849bc7718a413bd8dd1b1a8d11d4255f9fe10b78603ad007d29492b477cb0a26",
}


@pytest.mark.parametrize("name", sorted(_JSON_DIGESTS))
def test_json_bytes_are_pinned(name):
    alg, _ = resolve_algebra(name)
    data = json.dumps(algebra_to_json(alg)).encode()
    assert hashlib.sha256(data).hexdigest() == _JSON_DIGESTS[name]
    # and reading them back writes them again
    again = algebra_to_json(algebra_from_json(json.loads(data)))
    assert json.dumps(again).encode() == data


@pytest.mark.parametrize("reshape, message", [
    (lambda form: form[0].pop(), "ragged rows"),
    (lambda form: form.append(list(form[0])), "form shape mismatch"),
    (lambda form: [row.pop() for row in form], "form shape mismatch"),
])
def test_json_form_shape_is_checked_on_reading(reshape, message):
    # a schema error, refused before any structural check is asked for
    data = algebra_to_json(build_sl(2))
    reshape(data["form"])
    with pytest.raises(ValueError) as exc:
        algebra_from_json(data, check=False)
    assert str(exc.value) == message


@pytest.mark.parametrize("form", [
    [{0: F(1)}, {1: F(1)}],                       # one row short
    [{0: F(1)}, {1: F(1)}, {2: F(1)}, {3: F(1)}],  # one row too many
    [{1: F(1)}, {0: F(1)}, {2: F(2), 3: F(1)}],   # column 3 of 3
    [{1: F(1)}, {0: F(1)}, {-1: F(2)}],           # column -1
])
def test_form_rows_outside_the_basis_rejected(form):
    base = build_sl(2)
    alg = LieSuperalgebra(base.labels, base.parities, base.table, form,
                          check=False)
    assert _failure(lambda a: a._verify(), alg) == "form shape mismatch"
    assert _failure(validate_oracle.verify, alg) == "form shape mismatch"


def test_parse_nilpotent_coefficients():
    alg = build_sl(2)
    v = parse_nilpotent(alg, "2*e21 - 1/3*e12")
    assert v[alg.index["e21"]] == 2
    assert v[alg.index["e12"]] == F(-1, 3)
    with pytest.raises(ValueError, match="unknown"):
        parse_nilpotent(alg, "e99")
    with pytest.raises(ValueError, match="'3/0' has a zero denominator"):
        parse_nilpotent(alg, "e21 + 3/0*e12")


@pytest.mark.parametrize("expr", [
    "e21+", "e21++e32", "+", "-", "", "e21 -", "e21--e32", "e21 + - e32 +"])
def test_parse_nilpotent_refuses_an_empty_term(expr):
    alg = build_sl(3)
    with pytest.raises(ValueError, match="empty term in nilpotent"):
        parse_nilpotent(alg, expr)


@pytest.mark.parametrize("expr,want", [
    ("-e21", {"e21": -1}),
    ("e21 - e32", {"e21": 1, "e32": -1}),
    ("1/2*e21", {"e21": F(1, 2)}),
    ("+e21", {"e21": 1}),
    ("- e21 + e32", {"e21": -1, "e32": 1}),
    ("e21 + -e32", {"e21": 1, "e32": -1}),
    ("-1/2*e21 - 2*e32", {"e21": F(-1, 2), "e32": -2})])
def test_parse_nilpotent_accepts_signed_terms(expr, want):
    alg = build_sl(3)
    v = parse_nilpotent(alg, expr)
    assert {alg.labels[i]: x for i, x in enumerate(v) if x} == want


def test_sl2_triple_rejects_zero_f():
    alg = build_sl(2)
    for expr in ("0*e21", "e21 - e21"):
        with pytest.raises(ValueError, match="f is zero"):
            sl2_triple_for(alg, parse_nilpotent(alg, expr))


@pytest.mark.parametrize("name,nilpotent", [
    ("sl3", "principal"), ("sl4", "e21+e43"), ("sl(2|1)", "e21"),
    ("sl(3|2)", "principal"), ("osp12", "principal")])
def test_centralizer_basis_is_independent(name, nilpotent):
    # each vector has a unit at its own free column, where the others
    # vanish: the argument that lets centralizer skip a rank check
    alg, _ = resolve_algebra(name)
    t = sl2_triple_for(alg, parse_nilpotent(alg, nilpotent))
    c = centralizer(alg, t.e)
    assert c and all(len(v) == alg.dim for v in c)
    free = [max(j for j, x in enumerate(v) if x) for v in c]
    assert len(set(free)) == len(c)
    for k, v in enumerate(c):
        assert [v[j] for j in free] == [int(i == k) for i in range(len(c))]
    assert dense_oracles.dense_rank(c) == len(c)

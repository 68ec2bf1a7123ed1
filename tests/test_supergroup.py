"""BCH and adjoint-orbit series against exact matrix exponentials.

Matrices over the polynomial ring are multiplied entry by entry in the
test itself, so exp(A) exp(B) = exp(bch(A,B)) is checked against nothing
but arithmetic.  The word-table BCH series is also compared with the
former composition-by-composition series in bch_oracle, its per-length
word tables with the former Fraction word table there, and the
Bernoulli-series regular representation with the former linearisation
of the BCH series in gauge_action_oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bch_oracle
import gauge_action_oracle

from superslice.cli import resolve_algebra
from superslice.liealg import (LieSuperalgebra, build_osp_1_2, build_sl,
                               dynkin_grading, parse_nilpotent, sl2_triple_for)
from superslice.supergroup import (_dynkin_words, adjoint_orbit_map,
                                   bch_product, regular_representation)
from superslice.superpoly import PolyRing, Variable

F = Fraction


def heisenberg():
    return LieSuperalgebra(
        ["p", "q", "z"], [0, 0, 0],
        {(0, 1): {2: F(1)}, (1, 0): {2: F(-1)}})


# -- polynomial-entried matrix helpers ---------------------------------------

def pmat_mul(a, b, ring):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), ring.zero())
             for j in range(n)] for i in range(n)]


def pmat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def pmat_scale(a, c):
    return [[x * c for x in row] for row in a]


def pmat_eye(n, ring):
    return [[ring.one() if i == j else ring.zero() for j in range(n)]
            for i in range(n)]


def pmat_exp(a, ring, max_pow=12):
    out = pmat_eye(len(a), ring)
    term = pmat_eye(len(a), ring)
    for n in range(1, max_pow + 1):
        term = pmat_scale(pmat_mul(term, a, ring), F(1, n))
        out = pmat_add(out, term)
        if all(x.is_zero() for row in term for x in row):
            return out
    raise AssertionError("matrix not nilpotent enough for exact exp")


def vec_to_pmat(alg, vec, unit_of, size, ring):
    out = [[ring.zero()] * size for _ in range(size)]
    for i, c in vec.items():
        lab = alg.labels[i]
        if lab.startswith("h"):
            k = int(lab[1:]) - 1
            out[k][k] = out[k][k] + c
            out[k + 1][k + 1] = out[k + 1][k + 1] - c
        else:
            r, cc = unit_of(lab)
            out[r][cc] = out[r][cc] + c
    return out


def sl_unit(label):
    return int(label[1]) - 1, int(label[2]) - 1


def const_vec(alg, ring, pairs):
    return {alg.index[l]: ring.const(c) for l, c in pairs.items()}


# -- BCH ----------------------------------------------------------------------

def test_bch_heisenberg_half_term():
    alg = heisenberg()
    ring = PolyRing([])
    x = const_vec(alg, ring, {"p": F(1)})
    y = const_vec(alg, ring, {"q": F(1)})
    out = bch_product(alg, x, y, 2)
    assert out[0].as_constant() == 1
    assert out[1].as_constant() == 1
    assert out[2].as_constant() == F(1, 2)


def test_bch_symbolic_heisenberg():
    alg = heisenberg()
    ring = PolyRing([Variable("a", 0), Variable("b", 0)])
    a, b = ring.gen("a"), ring.gen("b")
    out = bch_product(alg, {0: a}, {1: b}, 2)
    assert out[2] == a * b / 2


def test_bch_inverse_and_identity():
    alg = build_sl(3)
    ring = PolyRing([])
    gp = const_vec(alg, ring, {"e12": F(2), "e23": F(-3), "e13": F(1, 5)})
    neg = {k: -v for k, v in gp.items()}
    assert bch_product(alg, gp, neg, 2) == {}
    assert bch_product(alg, gp, {}, 2) == gp


def test_bch_matches_matrix_exponential_sl3():
    alg = build_sl(3)
    ring = PolyRing([])
    x = const_vec(alg, ring, {"e12": F(1), "e13": F(2)})
    y = const_vec(alg, ring, {"e23": F(3), "e13": F(5, 7)})
    z = bch_product(alg, x, y, 2)
    X = vec_to_pmat(alg, x, sl_unit, 3, ring)
    Y = vec_to_pmat(alg, y, sl_unit, 3, ring)
    Z = vec_to_pmat(alg, z, sl_unit, 3, ring)
    lhs = pmat_mul(pmat_exp(X, ring), pmat_exp(Y, ring),
                   ring)
    rhs = pmat_exp(Z, ring)
    assert lhs == rhs


def test_bch_matches_matrix_exponential_sl4_depth3():
    # class-3 nilpotent: exercises the 1/12 double-bracket terms
    alg = build_sl(4)
    ring = PolyRing([])
    x = const_vec(alg, ring, {"e12": F(1), "e23": F(2), "e34": F(-1)})
    y = const_vec(alg, ring, {"e12": F(1, 2), "e23": F(-1, 3), "e34": F(1),
                              "e13": F(1)})
    z = bch_product(alg, x, y, 3)
    X = vec_to_pmat(alg, x, sl_unit, 4, ring)
    Y = vec_to_pmat(alg, y, sl_unit, 4, ring)
    Z = vec_to_pmat(alg, z, sl_unit, 4, ring)
    lhs = pmat_mul(pmat_exp(X, ring), pmat_exp(Y, ring),
                   ring)
    rhs = pmat_exp(Z, ring)
    assert lhs == rhs


def test_bch_matches_matrix_exponential_sl6_depth5():
    # strictly upper-triangular sl6 has class 5: every length-4 and
    # length-5 Dynkin coefficient enters exp(X) exp(Y)
    alg = build_sl(6)
    ring = PolyRing([])
    x = const_vec(alg, ring, {"e12": F(1), "e23": F(2), "e34": F(-1),
                              "e45": F(1, 2), "e56": F(3), "e24": F(1, 3)})
    y = const_vec(alg, ring, {"e12": F(-2), "e23": F(1, 2), "e34": F(1),
                              "e45": F(-3), "e56": F(1, 5), "e13": F(2),
                              "e46": F(-1)})
    z = bch_product(alg, x, y, 5)
    X = vec_to_pmat(alg, x, sl_unit, 6, ring)
    Y = vec_to_pmat(alg, y, sl_unit, 6, ring)
    Z = vec_to_pmat(alg, z, sl_unit, 6, ring)
    assert Z[0][5] != 0  # the length-5 brackets reach the corner
    lhs = pmat_mul(pmat_exp(X, ring), pmat_exp(Y, ring), ring)
    assert lhs == pmat_exp(Z, ring)
    # and depth 4 is not enough
    Z4 = vec_to_pmat(alg, bch_product(alg, x, y, 4), sl_unit, 6, ring)
    assert lhs != pmat_exp(Z4, ring)


def test_bch_associative_depth3():
    alg = build_sl(4)
    ring = PolyRing([])
    x = const_vec(alg, ring, {"e12": F(1)})
    y = const_vec(alg, ring, {"e23": F(1), "e13": F(2)})
    w = const_vec(alg, ring, {"e34": F(-2), "e14": F(1, 3)})
    lhs = bch_product(alg, bch_product(alg, x, y, 3), w, 3)
    rhs = bch_product(alg, x, bch_product(alg, y, w, 3), 3)
    assert lhs == rhs


def test_bch_odd_directions_osp12():
    # exp(t vp) exp(s vm) in the 3x3 realization, t, s odd parameters
    alg = build_osp_1_2()
    ring = PolyRing([Variable("t", 1), Variable("s", 1)])
    t, s = ring.gen("t"), ring.gen("s")
    x = {alg.index["vp"]: t}
    y = {alg.index["vm"]: s}
    z = bch_product(alg, x, y, 2)
    # [t vp, s vm] = -ts [vp,vm] = -ts h
    assert set(z) == {alg.index["vp"], alg.index["vm"], alg.index["h"]}
    assert z[alg.index["h"]] == -(t * s) / 2

    mats = {
        "e": [(1, 2, F(1))], "f": [(2, 1, F(1))],
        "h": [(1, 1, F(1)), (2, 2, F(-1))],
        "vp": [(0, 2, F(1)), (1, 0, F(1))],
        "vm": [(0, 1, F(1)), (2, 0, F(-1))],
    }
    row_parity = [0, 1, 1]  # C^{1|2}

    def to_pmat(vec):
        # embed c (x) X into matrices over the ring; entrywise products
        # only represent the tensor bracket after the row-parity twist
        # (c (x) X)_{rj} = (-1)^{|c| p(r)} c X_{rj}
        out = [[ring.zero()] * 3 for _ in range(3)]
        for i, c in vec.items():
            codd = alg.parities[i]  # coefficient parity matches the vector
            for r, cc, v in mats[alg.labels[i]]:
                sgn = F(-1) if (codd and row_parity[r]) else F(1)
                out[r][cc] = out[r][cc] + c * (sgn * v)
        return out

    lhs = pmat_mul(pmat_exp(to_pmat(x), ring),
                   pmat_exp(to_pmat(y), ring), ring)
    rhs = pmat_exp(to_pmat(z), ring)
    assert lhs == rhs


# -- word table and suffix memo against the composition oracle -----------------

def positive_part(alg):
    """Basis indices of n+: e_ij with i < j for sl(m|n), e and vp for
    osp(1|2)."""
    if alg.meta["type"] == "osp12":
        return [alg.index["e"], alg.index["vp"]]
    return [i for i, lab in enumerate(alg.labels)
            if lab[0] == "e" and lab[1] < lab[2]]


def _bch_cases():
    out = {}
    for name, alg in (("sl4", build_sl(4)), ("sl5", build_sl(5)),
                      ("sl(2|1)", build_sl(2, 1)),
                      ("osp(1|2)", build_osp_1_2())):
        out[name + " n+"] = (alg, positive_part(alg))
    # n+ above has class <= 4, so length-5 words vanish there; whole
    # small algebras keep every word length alive
    for name in ("sl(2|1)", "osp(1|2)"):
        alg = out[name + " n+"][0]
        out[name] = (alg, list(range(alg.dim)))
    return out


BCH_CASES = _bch_cases()
SYMBOLS = PolyRing([Variable("a", 0), Variable("b", 0), Variable("s", 1),
                    Variable("t", 1)])


def random_even_vector(data, alg, support):
    """Even element of span(support) tensor the ring: coefficient parity
    follows the basis vector, so odd directions carry odd symbols."""
    ring = SYMBOLS
    a, b, s, t = (ring.gen(v) for v in "abst")
    monomials = {0: [ring.one(), a, b, s * t], 1: [s, t, a * s, b * t]}
    out = {}
    for i in data.draw(st.lists(st.sampled_from(support), min_size=1,
                                max_size=3, unique=True)):
        c = ring.zero()
        for m in data.draw(st.lists(
                st.sampled_from(monomials[alg.parities[i]]),
                min_size=1, max_size=2)):
            c = c + m * F(data.draw(st.integers(-3, 3)),
                          data.draw(st.integers(1, 3)))
        out[i] = c
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bch_matches_composition_oracle(data):
    alg, support = BCH_CASES[data.draw(st.sampled_from(sorted(BCH_CASES)))]
    x = random_even_vector(data, alg, support)
    y = random_even_vector(data, alg, support)
    for depth in range(1, 6):
        assert bch_product(alg, x, y, depth) == \
            bch_oracle.bch_product(alg, x, y, depth), depth


def test_bch_brackets_each_suffix_at_most_once():
    alg = build_sl(6)
    ring = PolyRing([Variable(f"x{k}", 0) for k in range(5)]
                    + [Variable(f"y{k}", 0) for k in range(5)])
    simple = ["e12", "e23", "e34", "e45", "e56"]
    x = {alg.index[l]: ring.gen(f"x{k}") for k, l in enumerate(simple)}
    y = {alg.index[l]: ring.gen(f"y{k}") for k, l in enumerate(simple)}
    suffixes = {w[i:] for w, _ in _dynkin_words(5)
                for i in range(len(w) - 1)}
    assert len(_dynkin_words(5)) == 44

    calls = []
    real = alg.bracket_poly

    def counted(u, v):
        calls.append(1)
        return real(u, v)

    alg.bracket_poly = counted
    got = bch_product(alg, x, y, 5)
    memo_calls = len(calls)
    calls.clear()
    want = bch_oracle.bch_product(alg, x, y, 5)
    assert got == want
    assert memo_calls <= len(suffixes) <= 62
    assert len(calls) > 4 * memo_calls  # the oracle rebuilds every bracket


def test_word_tables_match_composition_oracle():
    # same words, same order, same coefficients as the composition sums
    for n in range(1, 9):
        assert _dynkin_words(n) == bch_oracle.dynkin_words(n), n


def test_bch_never_brackets_a_letter_with_itself():
    # [v, v] = 0 for even v: the suffix memo takes no bracket for a
    # repeated letter, and every word ending in one vanishes with it
    alg = build_sl(6)
    ring = PolyRing([Variable(f"x{k}", 0) for k in range(5)]
                    + [Variable(f"y{k}", 0) for k in range(5)])
    simple = ["e12", "e23", "e34", "e45", "e56"]
    x = {alg.index[l]: ring.gen(f"x{k}") for k, l in enumerate(simple)}
    y = {alg.index[l]: ring.gen(f"y{k}") for k, l in enumerate(simple)}
    calls = []
    real = alg.bracket_poly

    def recorded(u, v):
        calls.append((u, v))
        return real(u, v)

    alg.bracket_poly = recorded
    got = bch_product(alg, x, y, 5)
    alg.bracket_poly = real
    assert calls
    assert not any(u is v or u == v for u, v in calls)
    assert got == bch_oracle.bch_product(alg, x, y, 5)


# -- adjoint orbit map ---------------------------------------------------------

def test_adjoint_orbit_matches_matrix_conjugation():
    alg = build_sl(3)
    ring = PolyRing([Variable("c", 0)])
    c = ring.gen("c")
    w = const_vec(alg, ring, {"e21": F(1), "e32": F(1)})
    y = {alg.index["e12"]: c}
    out = adjoint_orbit_map(alg, w, y)
    W = vec_to_pmat(alg, w, sl_unit, 3, ring)
    Y = vec_to_pmat(alg, y, sl_unit, 3, ring)
    negY = pmat_scale(Y, F(-1))
    conj = pmat_mul(pmat_mul(pmat_exp(negY, ring), W, ring),
                    pmat_exp(Y, ring), ring)
    got = vec_to_pmat(alg, out, sl_unit, 3, ring)
    assert got == conj


def test_adjoint_orbit_identity_and_composition():
    alg = build_sl(3)
    ring = PolyRing([])
    w = const_vec(alg, ring, {"e21": F(1), "h1": F(2)})
    assert adjoint_orbit_map(alg, w, {}) == w
    y1 = const_vec(alg, ring, {"e12": F(1)})
    y2 = const_vec(alg, ring, {"e13": F(-2)})
    once = adjoint_orbit_map(alg, adjoint_orbit_map(alg, w, y1), y2)
    both = adjoint_orbit_map(alg, w, bch_product(alg, y1, y2, 2))
    assert once == both


def test_adjoint_orbit_non_nilpotent_raises():
    alg = build_sl(2)
    ring = PolyRing([])
    w = const_vec(alg, ring, {"e12": F(1)})
    y = const_vec(alg, ring, {"h1": F(1)})
    with pytest.raises(ValueError, match="terminate"):
        adjoint_orbit_map(alg, w, y)


# -- regular representation ----------------------------------------------------

def test_regular_representation_heisenberg():
    alg = heisenberg()
    ring = PolyRing([Variable("xp", 0), Variable("xq", 0), Variable("xz", 0)])
    fields = regular_representation(alg, [0, 1, 2], ring, [0, 1, 2])
    xp, xq = ring.gen("xp"), ring.gen("xq")
    one, zero = ring.one(), ring.zero()
    assert fields[0] == [one, zero, -xq / 2]   # R(p) = d/dp - xq/2 d/dz
    assert fields[1] == [zero, one, xp / 2]    # R(q) = d/dq + xp/2 d/dz
    assert fields[2] == [zero, zero, one]      # R(z) = d/dz


def commutator_fields(ring, var_idx, f1, p1, f2, p2):
    """[D1, D2] coefficients: D1(c2_b) - (-1)^{p1 p2} D2(c1_b)."""
    sgn = F(-1) if p1 and p2 else F(1)
    out = []
    for b in range(len(f1)):
        t1 = sum((c * f2[b].partial_derivative(v)
                  for c, v in zip(f1, var_idx)), ring.zero())
        t2 = sum((c * f1[b].partial_derivative(v)
                  for c, v in zip(f2, var_idx)), ring.zero())
        out.append(t1 - t2 * sgn)
    return out


def test_regular_representation_is_homomorphism_heisenberg():
    alg = heisenberg()
    ring = PolyRing([Variable("xp", 0), Variable("xq", 0), Variable("xz", 0)])
    fields = regular_representation(alg, [0, 1, 2], ring, [0, 1, 2])
    got = commutator_fields(ring, [0, 1, 2], fields[0], 0, fields[1], 0)
    assert got == fields[2]  # [R(p), R(q)] = R([p,q]) = R(z)


def test_regular_representation_is_homomorphism_osp_positive():
    # positive part of osp(1|2): span{e, vp}, [vp,vp] = 2e
    alg = build_osp_1_2()
    idx = [alg.index["e"], alg.index["vp"]]
    ring = PolyRing([Variable("xe", 0), Variable("xv", 1)])
    fields = regular_representation(alg, idx, ring, [0, 1])
    got = commutator_fields(ring, [0, 1], fields[1], 1, fields[1], 1)
    want = [c * F(2) for c in fields[0]]  # [R(vp), R(vp)] = R(2e)
    assert got == want


def test_regular_representation_is_homomorphism_sl21_positive():
    alg = build_sl(2, 1)
    t = sl2_triple_for(alg, parse_nilpotent(alg, "e21"))
    g = dynkin_grading(alg, t)
    idx = g.positive_indices()
    variables = [Variable(f"x{alg.labels[i]}", alg.parities[i]) for i in idx]
    ring = PolyRing(variables)
    fields = regular_representation(alg, idx, ring, list(range(len(idx))))
    for a, ga in enumerate(idx):
        for b, gb in enumerate(idx):
            got = commutator_fields(ring, list(range(len(idx))),
                                    fields[a], alg.parities[ga],
                                    fields[b], alg.parities[gb])
            br = alg.bracket_num(alg.basis_vector(ga), alg.basis_vector(gb))
            # want = sum_k c_k fields[k] = R([v_a, v_b])
            want = [ring.zero() for _ in idx]
            for k, c in enumerate(br):
                if c:
                    kk = idx.index(k)
                    want = [w + fld * c for w, fld in zip(want, fields[kk])]
            assert got == want, (alg.labels[ga], alg.labels[gb])


@pytest.mark.parametrize("name,nilpotent", [
    ("sl2", "principal"), ("sl3", "principal"), ("osp12", "principal"),
    ("sl(2|1)", "principal"), ("sl(3|1)", "principal"), ("sl4", "e21"),
    ("sl5", "principal"), ("sl(3|2)", "principal"), ("sl4", "principal"),
    ("sl(2|2)", "principal"), ("sl6", "principal")])
def test_regular_representation_matches_bch_oracle(name, nilpotent):
    # n+ of sl6 has class 5, the first case where B_4 contributes
    alg, _ = resolve_algebra(name)
    t = sl2_triple_for(alg, parse_nilpotent(alg, nilpotent))
    idx = dynkin_grading(alg, t).positive_indices()
    ring = PolyRing([Variable(f"x{alg.labels[i]}", alg.parities[i])
                     for i in idx])
    coords = list(range(len(idx)))
    got = regular_representation(alg, idx, ring, coords)
    assert len(ring.variables) == len(idx)
    # the oracle appends its scratch parameters to the same ring
    want = gauge_action_oracle.regular_representation(alg, idx, ring, coords)
    assert got == want


def test_regular_representation_guards():
    alg = build_sl(2)
    ring = PolyRing([Variable("x1", 0), Variable("x2", 0)])
    e, f, h = (alg.index[lab] for lab in ("e12", "e21", "h1"))
    with pytest.raises(ValueError, match="left the subalgebra"):
        regular_representation(alg, [e, f], ring, [0, 1])  # [e, f] = h
    with pytest.raises(ValueError, match="did not terminate"):
        regular_representation(alg, [h, e], ring, [0, 1])  # not nilpotent

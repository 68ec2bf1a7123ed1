"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Every criterion is a single test so `pytest -v tests/test_acceptance.py`
prints exactly one verdict line per criterion.  All equality is exact
(Fraction arithmetic, no tolerances) and each test asserts its own wall
clock budget.

Oracle notes.  The sl3 criterion recomputes characteristic polynomials
by literal cofactor expansion on 3x3 matrices built from the catalogue
matrix units, independently of the chart code: the slice must give
lam^3 - 2x*lam - y on the nose, and the Miura side must factor as
(lam - b1)(lam - b2)(lam - b3) over the diagonal entries, with the
library's restricted images matching the symmetric functions of the
b's.  Cohomology criteria compare against closed-form counts (a single
class for the positive-part complex, the one-point answer for the
polynomial de Rham complexes, free superfield monomial counts for the
arc complex).  The remaining pins (chart polynomials for sl2, ranks,
remaining dimensions) are stated directly and cross-checked elsewhere
in the suite against independent oracles.
"""

import time
from fractions import Fraction

from charts import make_chart
from cross_checks import de_rham_check
from nilpotency_oracle import nilpotency_class
from slice_bracket_oracle import slice_poisson_table
from superslice.cli import JobConfig, body_bytes, report_text, run_pipeline
from superslice.cohomology import (cohomology_table, regular_ce_complex,
                                   weighted_monomial_counts)
from superslice.liealg import (build_osp_1_2, build_sl, centralizer,
                               dynkin_grading, principal_nilpotent,
                               sl2_triple_for)
from superslice.pva import (ArcBracket, brst_complex, graded_miura,
                            h0_truncated)
from superslice.slice import (PoissonStructure, injectivity_certificate,
                              verify_invariance)
from superslice.superpoly import PolyRing, Variable

F = Fraction


def principal_chart(alg):
    triple = sl2_triple_for(alg, principal_nilpotent(alg))
    return make_chart(alg, triple)


def sub_by_name(p, mapping, target):
    return p.substitute({p.ring.index[n]: img for n, img in mapping.items()},
                        target)


def det3(m):
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def sl3_matrix(alg, vec, ring):
    """Dense coefficient vector -> 3x3 matrix of ring elements, using the
    matrix units the catalogue basis names: eij -> E_ij,
    hi -> E_ii - E_{i+1,i+1}."""
    m = [[ring.zero() for _ in range(3)] for _ in range(3)]
    for idx, coeff in vec.items() if isinstance(vec, dict) else enumerate(vec):
        lab = alg.labels[idx]
        entries = []
        if lab.startswith("e"):
            entries = [(int(lab[1]) - 1, int(lab[2]) - 1, 1)]
        else:
            i = int(lab[1]) - 1
            entries = [(i, i, 1), (i + 1, i + 1, -1)]
        for r, c, s in entries:
            term = coeff if hasattr(coeff, "ring") else ring.const(F(coeff))
            if s == -1:
                term = ring.zero() - term
            m[r][c] = m[r][c] + term
    return m


def char_poly(m, lam, ring):
    a = [[(lam if i == j else ring.zero()) - m[i][j] for j in range(3)]
         for i in range(3)]
    return det3(a)


# -- criterion 1: sl2 ----------------------------------------------------------

def test_sl2_chart_miura_certificate_exact():
    t0 = time.perf_counter()
    alg = build_sl(2)
    chart = principal_chart(alg)
    assert chart.inv_order == ["e12"]
    assert chart.invariants["e12"].text() == "z_e12 + z_h1^2"
    assert {k: v.text() for k, v in chart.gauge.items()} == {"e12": "z_h1"}
    chart.check_homogeneity()
    chart.round_trip_check()
    mi = chart.miura
    assert mi.images["e12"].text() == "z_h1^2"
    cert = injectivity_certificate(mi)
    assert cert.verdict == "pass"
    assert cert.even_rank == cert.even_target == 1
    assert cert.odd_target == 0
    assert time.perf_counter() - t0 < 1.0


# -- criterion 2: sl3 ----------------------------------------------------------

def test_sl3_slice_is_char_poly_and_miura_factors():
    t0 = time.perf_counter()
    alg = build_sl(3)
    chart = principal_chart(alg)
    assert len(chart.inv_order) == 2

    T = PolyRing([Variable("x", 0), Variable("y", 0), Variable("lam", 0)])
    x, y, lam = T.gen(0), T.gen(1), T.gen(2)
    sp = {i: sub_by_name(p, {"s1": x, "s2": y}, T)
          for i, p in chart.slice_point().items()}
    cp = char_poly(sl3_matrix(alg, sp, T), lam, T)
    assert cp.text() == (lam ** 3 - x * lam * T.const(F(2)) - y).text()

    # Miura side: f plus the Cartan part is lower triangular with
    # diagonal (b1, b2, b3), so its char poly factors completely
    U = PolyRing([Variable("u", 0), Variable("v", 0), Variable("lam", 0)])
    u, v, lamu = U.gen(0), U.gen(1), U.gen(2)
    triple = chart.triple
    point = {i: U.const(c) for i, c in enumerate(triple.f) if c}
    point[alg.index["h1"]] = u
    point[alg.index["h2"]] = v
    cpm = char_poly(sl3_matrix(alg, point, U), lamu, U)
    b = [u, v - u, U.zero() - v]
    factored = (lamu - b[0]) * (lamu - b[1]) * (lamu - b[2])
    assert cpm.text() == factored.text()

    # and the restricted invariants are exactly the symmetric functions
    # the factorization produces: coeff(lam) = -2*mu1, coeff(1) = -mu2
    mi = chart.miura
    mu = {chart.slice_names[lab]: sub_by_name(
        mi.images[lab], {"z_h1": u, "z_h2": v}, U)
        for lab in chart.inv_order}
    rebuilt = (lamu ** 3 - mu["s1"] * lamu * U.const(F(2)) - mu["s2"])
    assert cpm.text() == rebuilt.text()

    cert = injectivity_certificate(mi)
    assert cert.verdict == "pass" and cert.even_rank == 2
    assert time.perf_counter() - t0 < 10.0


# -- criterion 3: osp(1|2) ------------------------------------------------------

def test_osp12_odd_sector_and_poisson_table():
    t0 = time.perf_counter()
    alg = build_osp_1_2()
    chart = principal_chart(alg)
    parities = [chart.parity_of(lab) for lab in chart.inv_order]
    assert sorted(parities) == [0, 1]
    chart.check_homogeneity()
    chart.round_trip_check()

    mi = chart.miura
    cert = injectivity_certificate(mi)
    assert cert.verdict == "pass"
    assert cert.odd_rank == cert.odd_target == 1
    assert cert.even_rank == cert.even_target == 1

    table = slice_poisson_table(chart)
    par = {lab: chart.parity_of(lab) for lab in chart.inv_order}
    for a in chart.inv_order:
        for bl in chart.inv_order:
            lhs = table[(a, bl)]
            sign = F(-1) if par[a] * par[bl] == 0 else F(1)
            rhs = table[(bl, a)]
            assert (lhs - rhs * sign).is_zero()
    odd = next(l for l in chart.inv_order if par[l])
    assert not table[(odd, odd)].is_zero()

    # super Jacobi on the invariants inside the ambient bracket: the
    # finite bracket on the chart's coordinate table
    br = ArcBracket(chart.ring,
                    PoissonStructure(chart).coordinate_table).bracket

    imgs = [chart.invariants[lab] for lab in chart.inv_order]
    pars = [chart.parity_of(lab) for lab in chart.inv_order]
    for ia, a in enumerate(imgs):
        for ib, b in enumerate(imgs):
            for c in imgs:
                sgn = F(-1) if pars[ia] and pars[ib] else F(1)
                jac = (br(a, br(b, c)) - br(br(a, b), c)
                       - br(b, br(a, c)) * sgn)
                assert jac.is_zero()
    assert time.perf_counter() - t0 < 10.0


# -- criterion 4: sl(2|1) --------------------------------------------------------

def test_sl21_invariant_count_matches_centralizer():
    t0 = time.perf_counter()
    alg = build_sl(2, 1)
    chart = principal_chart(alg)
    cent = centralizer(alg, chart.triple.e)
    cpar = []
    for vec in cent:
        cpar.append(next(alg.parities[i] for i, c in enumerate(vec) if c))
    inv_par = [chart.parity_of(lab) for lab in chart.inv_order]
    assert sorted(inv_par) == sorted(cpar)
    assert inv_par.count(0) == 2 and inv_par.count(1) == 2
    chart.round_trip_check()
    cert = injectivity_certificate(chart.miura)
    assert cert.verdict == "pass"
    assert cert.even_rank == cert.even_target
    assert cert.odd_rank == cert.odd_target
    assert time.perf_counter() - t0 < 60.0


# -- criterion 5: gauge invariance ------------------------------------------------

def test_invariants_survive_random_gauges_all_catalogue_cases():
    for build in (lambda: build_sl(2), lambda: build_sl(3),
                  build_osp_1_2, lambda: build_sl(2, 1)):
        chart = principal_chart(build())
        ok, counterexample = verify_invariance(chart, trials=5, seed=1)
        assert ok, counterexample


# -- criterion 6: finite cohomology -----------------------------------------------

def test_positive_part_cohomology_is_one_point_and_de_rham_is_trivial():
    t0 = time.perf_counter()
    alg = build_sl(3)
    triple = sl2_triple_for(alg, principal_nilpotent(alg))
    grading = dynkin_grading(alg, triple)
    # the positive part here is the 3-dimensional Heisenberg algebra
    sub = alg.restrict_to(grading.positive_indices())
    assert sub.dim == 3 and nilpotency_class(sub) == 2
    table = cohomology_table(regular_ce_complex(alg, grading, F(4)))
    for (k, w), dim in table.items():
        assert dim == (1 if (k, w) == (0, F(0)) else 0), (k, w, dim)
    for p, q in ((1, 0), (0, 1), (1, 1)):
        dr = de_rham_check(p, q, 4)
        for (k, deg), dim in dr.items():
            assert dim == (1 if (k, deg) == (0, 0) else 0), (p, q, k, deg)
    assert time.perf_counter() - t0 < 30.0


# -- criterion 7: arc complex -----------------------------------------------------

def test_arc_differential_squares_to_zero_and_h0_counts():
    t0 = time.perf_counter()
    sl2_chart = principal_chart(build_sl(2))
    osp_chart = principal_chart(build_osp_1_2())
    # each chart's gauge derivation checks Q^2 = 0 on every generator
    # and ghost when the complex reads it
    brst_complex(sl2_chart)
    brst_complex(osp_chart)

    h2 = h0_truncated(sl2_chart, F(3))
    dims = h2.dimensions()
    assert [dims[F(w)] for w in range(4)] == [1, 0, 1, 1]
    assert h2.consistent(dims)

    ho = h0_truncated(osp_chart, F(2))
    have = {w: d for w, d in ho.dimensions().items() if d}
    gens = [(v.wt2, v.parity) for v in osp_chart.slice_ring.variables]
    want = {F(n2, 2): c
            for n2, c in weighted_monomial_counts(gens, 4).items() if c}
    assert have == want == {F(0): 1, F(3, 2): 1, F(2): 1}
    assert ho.consistent(ho.dimensions())
    assert time.perf_counter() - t0 < 60.0


# -- criterion 8: arc Miura -------------------------------------------------------

def test_graded_miura_intertwines_lambda_brackets():
    t0 = time.perf_counter()
    for build in (lambda: build_sl(2), build_osp_1_2):
        chart = principal_chart(build())
        gm = graded_miura(chart)
        outcome = gm.check_intertwining()
        n = len(chart.inv_order)
        assert len(outcome) == n * n
        assert all(outcome.values())
    assert time.perf_counter() - t0 < 60.0


# -- criterion 9: determinism -----------------------------------------------------

def test_report_bodies_are_byte_identical_across_runs():
    config = JobConfig(algebra="osp12", trials=5, seed=1, max_weight=F(2))
    first = run_pipeline(config)
    second = run_pipeline(config)
    assert first["body"]["verdict"] == "pass"
    assert body_bytes(first) == body_bytes(second)
    assert report_text(first) == report_text(second)

"""Slice charts: gauge fixing, invariance, Poisson tables, Miura maps.

Oracles used here:

* sl2, by hand.  Conjugating f + a.e + b.h by exp(t.e) moves the h
  component by -2t, so t = b/... the recursion lands on f + (a + b^2).e;
  the invariant is a + b^2 and the gauge parameter is b.
* sl3, characteristic polynomial.  The coefficients of det(lambda - Z)
  do not move under conjugation, so on the chart they must be exact
  polynomial functions of the invariants.  We verify the identity
  det(lambda - Z) = lambda^3 - 2.I1(z).lambda - I2(z) at the fully
  symbolic generic point, which pins both invariants at once, and its
  restriction to f + (diagonal) factors as (lambda-b1)(lambda-b2)(lambda-b3).
* osp(1|2) and sl(2|1), structural: invariance under random gauge moves
  with formal odd symbols, weight/parity homogeneity, exact round trips,
  Poisson antisymmetry / Jacobi / Leibniz on the chart coordinates, and
  the bracket (``pva.ArcBracket``, the biderivation on the coordinate
  table) against the finite Leibniz recursion in
  tests/finite_poisson_oracle.py on the Zhu generators of
  tests/zhu_poisson_oracle.py, which also gates the coordinate table
  and the generators zeta on principal and minimal charts.  On top of
  that the computed charts and bracket tables are frozen as regression
  values.
"""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charts import make_chart
from finite_poisson_oracle import finite_bracket
from miura_pairs_oracle import source_bracket
from nilpotency_oracle import nilpotency_class
from slice_bracket_oracle import slice_poisson_table
from zhu_poisson_oracle import ZhuPoisson
from superslice import slice as slice_module
from superslice.cli import resolve_algebra
from superslice.liealg import (GoodGrading, build_osp_1_2, build_sl,
                               dynkin_grading, parse_nilpotent,
                               principal_nilpotent, sl2_triple_for)
from superslice.pva import ArcBracket, graded_miura
from superslice.slice import (MiuraImage, injectivity_certificate,
                              verify_invariance)
from superslice import supergroup
from superslice.supergroup import bch_product
from superslice.superpoly import PolyRing, Variable

HALF = Fraction(1, 2)


def principal_chart(alg):
    f = principal_nilpotent(alg)
    triple = sl2_triple_for(alg, f)
    return make_chart(alg, triple)


@pytest.fixture(scope="module")
def sl2_chart():
    return principal_chart(build_sl(2))


@pytest.fixture(scope="module")
def sl3_chart():
    return principal_chart(build_sl(3))


@pytest.fixture(scope="module")
def osp_chart():
    return principal_chart(build_osp_1_2())


@pytest.fixture(scope="module")
def sl21_chart():
    return principal_chart(build_sl(2, 1))


# -- sl2: the hand-checkable case ----------------------------------------------


class TestSl2:
    def test_chart_shape(self, sl2_chart):
        c = sl2_chart
        assert [v.name for v in c.ring.variables] == ["z_e12", "z_h1"]
        assert c.inv_order == ["e12"]

    def test_invariant_is_a_plus_b_squared(self, sl2_chart):
        ring = sl2_chart.ring
        a, b = ring.gen("z_e12"), ring.gen("z_h1")
        assert sl2_chart.invariants["e12"] == a + b * b

    def test_gauge_parameter(self, sl2_chart):
        ring = sl2_chart.ring
        assert set(sl2_chart.gauge) == {"e12"}
        assert sl2_chart.gauge["e12"] == ring.gen("z_h1")

    def test_homogeneity_and_round_trip(self, sl2_chart):
        sl2_chart.check_homogeneity()
        sl2_chart.round_trip_check()

    def test_miura_is_b_squared(self, sl2_chart):
        m = sl2_chart.miura
        b = sl2_chart.ring.gen("z_h1")
        assert m.images["e12"] == b * b

    def test_certificate_passes(self, sl2_chart):
        cert = injectivity_certificate(sl2_chart.miura)
        assert cert.verdict == "pass"
        assert (cert.even_rank, cert.even_target) == (1, 1)
        assert (cert.odd_rank, cert.odd_target) == (0, 0)
        assert cert.witness_points and cert.witness_points[0]["block"] == "even"

    def test_poisson_table_trivial(self, sl2_chart):
        table = slice_poisson_table(sl2_chart)
        assert table[("e12", "e12")].is_zero()

    def test_invariance_trials(self, sl2_chart):
        ok, bad = verify_invariance(sl2_chart, trials=5, seed=1)
        assert ok and bad is None


# -- sl3: characteristic polynomial oracle --------------------------------------


def sl_matrix_entry(label, size):
    """Positions touched by a basis vector of sl_n, as {(r, c): coeff}."""
    if label.startswith("h"):
        k = int(label[1:]) - 1
        return {(k, k): Fraction(1), (k + 1, k + 1): Fraction(-1)}
    r, c = int(label[1]) - 1, int(label[2]) - 1
    return {(r, c): Fraction(1)}


def char_poly_3(point, alg, ring, lam):
    """det(lambda - M) for a 3x3 matrix point given as basis coefficients."""
    m = [[ring.zero() for _ in range(3)] for _ in range(3)]
    for idx, coeff in point.items():
        for (r, c), v in sl_matrix_entry(alg.labels[idx], 3).items():
            m[r][c] = m[r][c] + coeff * v
    a = [[lam * (1 if r == c else 0) - m[r][c] for c in range(3)]
         for r in range(3)]
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def with_lambda(ring):
    """A copy of `ring` with a fresh even variable lam in front."""
    return PolyRing([Variable("lam", 0)] +
                    [Variable(v.name, v.parity) for v in ring.variables])


class TestSl3:
    def test_chart_shape(self, sl3_chart):
        c = sl3_chart
        assert c.inv_order == ["e12+e23", "e13"]
        assert [v.name for v in c.ring.variables] == [
            "z_e12", "z_e13", "z_e23", "z_h1", "z_h2"]

    def test_charpoly_at_generic_point(self, sl3_chart):
        c = sl3_chart
        big = with_lambda(c.ring)
        lam = big.gen("lam")
        shift = {i: big.gen(i + 1) for i in range(len(c.ring.variables))}
        point = {idx: p.substitute(shift, big)
                 for idx, p in c.generic_point().items()}
        got = char_poly_3(point, c.alg, big, lam)
        i1 = c.invariants["e12+e23"].substitute(shift, big)
        i2 = c.invariants["e13"].substitute(shift, big)
        assert got == lam * lam * lam - lam * i1 * 2 - i2

    def test_charpoly_on_slice(self, sl3_chart):
        c = sl3_chart
        big = with_lambda(c.slice_ring)
        lam, s1, s2 = big.gen("lam"), big.gen("s1"), big.gen("s2")
        shift = {0: s1, 1: s2}
        point = {idx: p.substitute(shift, big)
                 for idx, p in c.slice_point().items()}
        got = char_poly_3(point, c.alg, big, lam)
        assert got == lam * lam * lam - lam * s1 * 2 - s2

    def test_miura_factors_through_diagonal(self, sl3_chart):
        c = sl3_chart
        m = c.miura
        big = with_lambda(c.ring)
        lam = big.gen("lam")
        shift = {i: big.gen(i + 1) for i in range(len(c.ring.variables))}
        x = m.images["e12+e23"].substitute(shift, big)
        y = m.images["e13"].substitute(shift, big)
        # f + diagonal has eigenvalue-like entries b = (h1, h2-h1, -h2)
        b1, b2 = big.gen("z_h1"), big.gen("z_h2")
        factors = (lam - b1) * (lam - (b2 - b1)) * (lam + b2)
        assert factors == lam * lam * lam - lam * x * 2 - y

    def test_certificate_rank_two(self, sl3_chart):
        cert = injectivity_certificate(sl3_chart.miura)
        assert cert.verdict == "pass"
        assert (cert.even_rank, cert.even_target) == (2, 2)

    def test_kostant_slice_is_poisson_commutative(self, sl3_chart):
        table = slice_poisson_table(sl3_chart)
        assert all(v.is_zero() for v in table.values())

    def test_homogeneity_round_trip_invariance(self, sl3_chart):
        sl3_chart.check_homogeneity()
        sl3_chart.round_trip_check()
        ok, bad = verify_invariance(sl3_chart, trials=3, seed=2)
        assert ok, bad


# -- osp(1|2): odd directions in play -------------------------------------------


class TestOsp12:
    def test_chart_values(self, osp_chart):
        c = osp_chart
        assert c.inv_order == ["vp", "e"]
        ring = c.ring
        ze, zh = ring.gen("z_e"), ring.gen("z_h")
        zvp, zvm = ring.gen("z_vp"), ring.gen("z_vm")
        assert c.invariants["vp"] == zvp + zh * zvm
        assert c.invariants["e"] == ze + zh * zh - zvp * zvm * 2
        assert c.gauge["e"] == zh
        assert c.gauge["vp"] == zvm

    def test_parities_and_weights(self, osp_chart):
        c = osp_chart
        assert c.parity_of("vp") == 1 and c.parity_of("e") == 0
        # conformal weights 1 + j: 3/2 for the odd generator, 2 for the even
        assert c.inv_wt2 == {"vp": 1, "e": 2}
        c.check_homogeneity()

    def test_round_trip_with_odd_symbols(self, osp_chart):
        osp_chart.round_trip_check()

    def test_invariance_with_formal_odd_coordinates(self, osp_chart):
        ok, bad = verify_invariance(osp_chart, trials=5, seed=3)
        assert ok and bad is None

    def test_miura_images(self, osp_chart):
        m = osp_chart.miura
        ring = osp_chart.ring
        zh, zvm = ring.gen("z_h"), ring.gen("z_vm")
        assert m.images["vp"] == zh * zvm
        assert m.images["e"] == zh * zh

    def test_certificate_odd_block_full_rank(self, osp_chart):
        cert = injectivity_certificate(osp_chart.miura)
        assert cert.verdict == "pass"
        assert (cert.even_rank, cert.even_target) == (1, 1)
        assert (cert.odd_rank, cert.odd_target) == (1, 1)
        blocks = {w["block"] for w in cert.witness_points}
        assert blocks == {"even", "odd"}

    def test_poisson_table_regression(self, osp_chart):
        # frozen from the first validated run; the odd-odd self bracket
        # picks up the even invariant with coefficient 1/2
        table = slice_poisson_table(osp_chart)
        s2 = osp_chart.slice_ring.gen("s2")
        assert table[("vp", "vp")] == s2 * HALF
        assert table[("vp", "e")].is_zero()
        assert table[("e", "vp")].is_zero()
        assert table[("e", "e")].is_zero()


# -- sl(2|1): the full super case ----------------------------------------------


class TestSl21:
    def test_chart_regression(self, sl21_chart):
        c = sl21_chart
        assert c.inv_order == ["1/2*h1+h2", "e13", "e32", "e12"]
        r = c.ring
        ze12, ze13, ze23 = r.gen("z_e12"), r.gen("z_e13"), r.gen("z_e23")
        ze31, ze32 = r.gen("z_e31"), r.gen("z_e32")
        zh1, zh2 = r.gen("z_h1"), r.gen("z_h2")
        assert c.invariants["1/2*h1+h2"] == zh2 - ze23 * ze31
        assert c.invariants["e13"] == ze13 - ze23 * zh1 + ze23 * zh2
        assert c.invariants["e32"] == ze32 + ze31 * zh1
        assert c.invariants["e12"] == (
            ze12 - ze13 * ze31 - ze23 * ze32 - zh1 * zh2
            + zh1 * zh1 + zh2 * zh2 * Fraction(1, 4)
            - ze23 * ze31 * zh2 * HALF)

    def test_generator_counts_match_centralizer(self, sl21_chart):
        c = sl21_chart
        parities = [c.parity_of(lab) for lab in c.inv_order]
        assert parities.count(0) == 2 and parities.count(1) == 2
        assert [c.inv_wt2[lab] for lab in c.inv_order] == [0, 1, 1, 2]

    def test_structural_checks(self, sl21_chart):
        sl21_chart.check_homogeneity()
        sl21_chart.round_trip_check()
        ok, bad = verify_invariance(sl21_chart, trials=3, seed=4)
        assert ok, bad

    def test_poisson_table_regression(self, sl21_chart):
        table = slice_poisson_table(sl21_chart)
        ring = sl21_chart.slice_ring
        s1, s2, s3, s4 = (ring.gen(i) for i in range(4))
        h, x13, x32, top = sl21_chart.inv_order
        assert table[(h, x13)] == s2
        assert table[(h, x32)] == -s3
        assert table[(top, x13)] == s1 * s2 * HALF
        assert table[(top, x32)] == -(s1 * s3 * HALF)
        assert table[(x13, x32)] == s4 - s1 * s1 * Fraction(1, 4)
        # everything else follows by antisymmetry or vanishes
        known = {(h, x13), (h, x32), (top, x13), (top, x32), (x13, x32)}
        par = {lab: sl21_chart.parity_of(lab) for lab in sl21_chart.inv_order}
        for (la, lb), val in table.items():
            flip = table[(lb, la)]
            sgn = -1 if (par[la] and par[lb]) else 1
            assert val == flip * Fraction(-sgn)
            if (la, lb) not in known and (lb, la) not in known:
                assert val.is_zero(), (la, lb)

    def test_certificate_both_blocks(self, sl21_chart):
        cert = injectivity_certificate(sl21_chart.miura)
        assert cert.verdict == "pass"
        assert (cert.even_rank, cert.even_target) == (2, 2)
        assert (cert.odd_rank, cert.odd_target) == (2, 2)
        d = cert.as_dict()
        assert d["verdict"] == "pass" and d["even_rank"] == 2


# -- invariance trials catch a moved invariant ----------------------------------


def with_coordinate_added(chart, label, pos):
    """A copy of chart whose invariant at label has the coordinate at
    pos added; the chart itself is left as it is."""
    bad = copy.copy(chart)
    bad.invariants = dict(chart.invariants)
    bad.invariants[label] = chart.invariants[label] + chart.ring.gen(pos)
    return bad


class TestInvarianceFailure:
    @pytest.mark.parametrize("name", ["sl3_chart", "sl21_chart"])
    def test_perturbed_invariant_is_named(self, name, request):
        # each invariant plus a coordinate of its parity moves under the
        # first gauge, and the counterexample names that invariant only
        chart = request.getfixturevalue(name)
        for lab in chart.inv_order:
            pos = next(p for p, v in enumerate(chart.ring.variables)
                       if v.parity == chart.parity_of(lab))
            ok, bad = verify_invariance(with_coordinate_added(chart, lab, pos),
                                        trials=3, seed=1)
            assert not ok
            assert set(bad) == {"trial", "invariant", "before", "after"}
            assert (bad["trial"], bad["invariant"]) == (0, lab)
            assert bad["before"] != bad["after"]
        ok, bad = verify_invariance(chart, trials=3, seed=1)
        assert ok and bad is None

    @pytest.mark.parametrize("name", ["sl3_chart", "sl21_chart"])
    def test_copy_after_a_passing_run_reads_its_own_invariants(self, name,
                                                               request):
        # the compiled invariants belong to one run, not to the chart: a
        # copy made after the chart passed, with one invariant moved,
        # fails, and the chart itself still passes
        chart = request.getfixturevalue(name)
        assert verify_invariance(chart, trials=2, seed=3) == (True, None)
        lab = chart.inv_order[-1]
        pos = next(p for p, v in enumerate(chart.ring.variables)
                   if v.parity == chart.parity_of(lab))
        moved = with_coordinate_added(chart, lab, pos)
        ok, bad = verify_invariance(moved, trials=2, seed=3)
        assert not ok and bad["invariant"] == lab
        point = moved.generic_point()
        assert (moved.evaluate_invariants(point, moved.ring)[lab]
                == moved.invariants[lab] != chart.invariants[lab])
        assert verify_invariance(chart, trials=2, seed=3) == (True, None)


# -- the round trip catches a wrong gauge ---------------------------------------


class TestRoundTripFailure:
    @pytest.mark.parametrize("name", ["sl3", "sl(2|1)", "osp12", "sl4"])
    def test_doubled_gauge_component_fails(self, name):
        # N acts freely on f + g_{>=-1/2} (N x S = f + g_{>=-1/2}), so no
        # other gauge element takes the generic point onto the slice
        chart = chart_for(name)
        chart.round_trip_check()
        doubled = [i for i, p in chart.gauge_vec.items() if not p.is_zero()]
        assert doubled
        for i in doubled:
            bad = copy.copy(chart)
            bad.gauge_vec = dict(chart.gauge_vec)
            bad.gauge_vec[i] = 2 * chart.gauge_vec[i]
            with pytest.raises(ValueError, match="round trip failed"):
                bad.round_trip_check()


# -- Poisson axioms on the chart coordinates ------------------------------------


def finite_on_chart(chart):
    """The chart's finite bracket: the biderivation on its coordinate
    table."""
    return ArcBracket(chart.ring, chart.poisson.coordinate_table).bracket


def zeta_of(chart, label):
    ps = chart.poisson
    return ps.zeta[ps.gen_pos[chart.alg.index[label]]]


class TestPoissonAxioms:
    def test_antisymmetry(self, osp_chart, sl21_chart):
        for chart in (osp_chart, sl21_chart):
            br = finite_on_chart(chart)
            gens = [chart.ring.gen(i)
                    for i in range(len(chart.ring.variables))]
            par = chart.ring.parities()
            for a, ga in enumerate(gens):
                for b, gb in enumerate(gens):
                    sgn = Fraction(1 if (par[a] and par[b]) else -1)
                    assert br(ga, gb) == br(gb, ga) * sgn

    def test_super_jacobi(self, osp_chart, sl21_chart):
        for chart in (osp_chart, sl21_chart):
            br = finite_on_chart(chart)
            gens = [chart.ring.gen(i)
                    for i in range(len(chart.ring.variables))]
            par = chart.ring.parities()
            n = len(gens)
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        lhs = br(gens[a], br(gens[b], gens[c]))
                        r1 = br(br(gens[a], gens[b]), gens[c])
                        r2 = br(gens[b], br(gens[a], gens[c]))
                        sgn = Fraction(-1 if (par[a] and par[b]) else 1)
                        assert lhs == r1 + r2 * sgn, (a, b, c)

    def test_leibniz(self, osp_chart):
        br = finite_on_chart(osp_chart)
        a = osp_chart.ring.gen("z_vp")
        b = osp_chart.ring.gen("z_h")
        c = osp_chart.ring.gen("z_vm")
        lhs = br(a, b * c)
        rhs = br(a, b) * c + b * br(a, c)  # b is even
        assert lhs == rhs
        # quadratic first slot, odd second slot
        lhs2 = br(b * b, c)
        rhs2 = b * br(b, c) + br(b, c) * b
        assert lhs2 == rhs2

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_finite_leibniz_oracle(self, osp_chart, sl21_chart,
                                           data):
        # random products of mixed parity, up to three factors per term
        def draw_poly(ring):
            out = ring.zero()
            for _ in range(data.draw(st.integers(1, 3))):
                term = ring.const(data.draw(st.integers(-3, 3).filter(bool)))
                for i in data.draw(st.lists(
                        st.integers(0, len(ring.variables) - 1), max_size=3)):
                    term = term * ring.gen(i)
                out = out + term
            return out

        for chart, zp in ((osp_chart, ZhuPoisson(osp_chart)),
                          (sl21_chart, ZhuPoisson(sl21_chart))):
            p, q = draw_poly(chart.ring), draw_poly(chart.ring)
            want = finite_bracket(zp, zp.to_poisson_ring(p),
                                  zp.to_poisson_ring(q))
            assert finite_on_chart(chart)(p, q) == zp.from_poisson_ring(want)

    def test_mixed_degree_pairs_vanish(self, osp_chart):
        # one generator in degree <= 0, the other in degree 1/2
        br = finite_on_chart(osp_chart)
        vp, vm = zeta_of(osp_chart, "vp"), zeta_of(osp_chart, "vm")
        assert br(vp, vm).is_zero()

    def test_affine_identification_round_trip(self, osp_chart, sl21_chart):
        # z_b = sum_a Minv[b, a] (zeta_a - c_a), c_a the constant of zeta_a
        for chart in (osp_chart, sl21_chart):
            ps, ring = chart.poisson, chart.ring
            lin = {a: z - ring.const(z.constant_term())
                   for a, z in ps.zeta.items()}
            for b, row in enumerate(ps.minv_rows):
                back = ring.zero()
                for a, co in row.items():
                    back = back + lin[a] * co
                assert back == ring.gen(b)
        zp = ZhuPoisson(osp_chart)
        for pos in range(len(osp_chart.coord_indices)):
            z = osp_chart.ring.gen(pos)
            assert zp.from_poisson_ring(zp.to_poisson_ring(z)) == z

    def test_structure_keeps_no_chart(self, sl21_chart):
        # a chart -> structure -> chart cycle would keep finished jobs
        # alive; the structure keeps the chart's ring, not the chart
        ps = sl21_chart.poisson
        assert ps.ring is sl21_chart.ring
        assert all(v is not sl21_chart for v in vars(ps).values())

    def test_wrong_ring_rejected(self, osp_chart):
        br = finite_on_chart(osp_chart)
        s = osp_chart.slice_ring.gen(0)
        with pytest.raises(ValueError, match="not in the bracket ring"):
            br(s, osp_chart.ring.gen(0))
        with pytest.raises(ValueError, match="not in the bracket ring"):
            br(osp_chart.ring.gen(0), s)


def chart_for(name, nilpotent="principal"):
    alg, _ = resolve_algebra(name)
    triple = sl2_triple_for(alg, parse_nilpotent(alg, nilpotent))
    return make_chart(alg, triple)


@pytest.mark.parametrize("name, nilpotent", [
    ("sl6", "principal"), ("sl(5|1)", "principal"), ("osp12", "principal"),
    ("sl4", "e21"), ("sl(3|2)", "e21"), ("sl4", "e21+e43")])
def test_gauge_composite_equals_left_fold(monkeypatch, name, nilpotent):
    # exp(s_1)...exp(s_k) is associative: folding the steps from the
    # right gives the left fold BCH(BCH(s_1, s_2), ...) exactly; sl4
    # e21+e43 has a single level, whose step is the composite
    steps = []
    real = slice_module.adjoint_orbit_map

    def recorded(alg, w, y):
        steps.append(y)
        return real(alg, w, y)

    monkeypatch.setattr(slice_module, "adjoint_orbit_map", recorded)
    chart = chart_for(name, nilpotent)
    assert len(steps) >= (1 if nilpotent == "e21+e43" else 2)
    left = steps[0]
    for step in steps[1:]:
        left = bch_product(chart.alg, left, step)
    assert chart.gauge_vec == left


GATE_CASES = [("sl5", "principal"), ("osp12", "principal"),
              ("sl(2|1)", "principal"), ("sl(3|2)", "principal"),
              ("sl4", "e21"), ("sl3", "e21"), ("sl(3|1)", "e21"),
              ("sl(1|2)", "e32")]


class TestZhuPoissonOracle:
    """The structure built on the chart coordinates against the former
    one on the Zhu generators p_u (tests/zhu_poisson_oracle.py)."""

    @pytest.mark.parametrize("name,nilpotent", GATE_CASES)
    def test_coordinate_table_is_the_oracle_table_moved(self, name,
                                                        nilpotent):
        # {z_b, z_c} = {Minv (p - c), Minv (p - c)} through the oracle's
        # own Minv, read back on the chart coordinates
        chart = chart_for(name, nilpotent)
        ps, zp = chart.poisson, ZhuPoisson(chart)
        zero = chart.ring.zero()
        lifted = [zp.to_poisson_ring(chart.ring.gen(b))
                  for b in range(len(chart.coord_indices))]
        for b, pb in enumerate(lifted):
            for c, pc in enumerate(lifted):
                want = zp.from_poisson_ring(zp.bracket(pb, pc))
                assert ps.coordinate_table.get((b, c), zero) == want, (b, c)

    @pytest.mark.parametrize("name,nilpotent", GATE_CASES)
    def test_zeta_is_the_oracle_generator(self, name, nilpotent):
        chart = chart_for(name, nilpotent)
        ps, zp = chart.poisson, ZhuPoisson(chart)
        assert ps.gen_indices == zp.gen_indices
        assert sorted(ps.zeta) == list(range(len(zp.gen_indices)))
        for a in range(len(zp.gen_indices)):
            assert ps.zeta[a] == zp.from_poisson_ring(zp.ring.gen(a)), a


# -- edge behavior ---------------------------------------------------------------


class TestSourceBracketOracle:
    """The bracket of slice invariants through the chart's Poisson
    bracket (miura_pairs_oracle.source_bracket), against the finite-chart
    bracket that tests/slice_bracket_oracle.py keeps."""

    @pytest.mark.parametrize("name", ["sl2_chart", "sl3_chart", "osp_chart",
                                      "sl21_chart"])
    def test_agrees_on_every_invariant_pair(self, name, request):
        chart = request.getfixturevalue(name)
        table = slice_poisson_table(chart)
        gm = graded_miura(chart)
        src = gm.source
        assert [v.name for v in src.variables] == \
            [v.name for v in chart.slice_ring.variables]
        for i, la in enumerate(chart.inv_order):
            for j, lb in enumerate(chart.inv_order):
                c = source_bracket(gm, src.gen(i), src.gen(j))
                want = table[(la, lb)]
                assert (c.terms, c.den) == (want.terms, want.den)
                assert c.text() == want.text()


class TestEdges:
    def test_zero_trials_rejected(self, sl2_chart):
        # no trial would make the PASS vacuous
        for trials in (0, -2):
            with pytest.raises(ValueError, match="at least 1 trial"):
                verify_invariance(sl2_chart, trials=trials)

    def test_point_outside_domain_rejected(self, sl2_chart):
        with pytest.raises(ValueError, match="leaves f"):
            sl2_chart.evaluate_invariants({}, sl2_chart.ring)

    def test_evaluate_at_slice_point_recovers_coordinates(self, osp_chart):
        c = osp_chart
        vals = c.evaluate_invariants(c.slice_point(), c.slice_ring)
        for n, lab in enumerate(c.inv_order):
            assert vals[lab] == c.slice_ring.gen(n)

    def test_degenerate_map_reported_inconclusive(self, sl2_chart):
        m = MiuraImage(sl2_chart)  # a fresh image; the chart's stays
        m.images = {lab: sl2_chart.ring.zero() for lab in m.images}
        cert = injectivity_certificate(m, trials=2)
        assert cert.verdict == "fail"
        assert "inconclusive" in cert.note
        assert cert.even_rank == 0 and cert.even_target == 1

    def test_odd_block_failure_keeps_even_witness(self, sl21_chart):
        # the even block passes and the zeroed odd block never does: one
        # even witness, and the verdict is inconclusive
        m = MiuraImage(sl21_chart)  # a fresh image; the chart's stays
        for lab in m.images:
            if sl21_chart.parity_of(lab):
                m.images[lab] = sl21_chart.ring.zero()
        cert = injectivity_certificate(m, trials=2, seed=3)
        assert cert.verdict == "fail"
        assert (cert.even_rank, cert.even_target) == (2, 2)
        assert (cert.odd_rank, cert.odd_target) == (0, 2)
        assert [w["block"] for w in cert.witness_points] == ["even"]
        assert "inconclusive" in cert.note

    def test_fallback_witness_with_zero_trials(self, osp_chart):
        cert = injectivity_certificate(osp_chart.miura, trials=0)
        assert cert.verdict == "pass"


# -- the longest BCH word against the nilpotency class -------------------------

# the Dynkin gradings of these charts, and sl2 with its explicit grading
# "1,-1,0" (the one explicit grading the CLI tests run to a chart)
_WORD_BOUND_CHARTS = [
    ("sl2", "principal"), ("sl3", "principal"), ("sl4", "principal"),
    ("sl5", "principal"), ("sl6", "principal"), ("sl7", "principal"),
    ("sl(2|1)", "principal"), ("sl(1|2)", "principal"),
    ("sl(3|1)", "principal"), ("sl(3|2)", "principal"),
    ("sl(5|1)", "principal"), ("sl(6|1)", "principal"),
    ("sl(2|2)", "principal"), ("osp12", "principal"),
    ("sl3", "e21"), ("sl3", "e31"), ("sl4", "e21"), ("sl4", "e31"),
    ("sl4", "e41"), ("sl4", "e21+e32"), ("sl4", "e31+e42"),
    ("sl4", "e21+e43"), ("sl(2|1)", "e21"), ("sl(1|2)", "e32"),
    ("sl(3|1)", "e21"), ("sl(3|2)", "e21"), ("sl(2|2)", "e21"),
    ("sl2", "explicit 2,-2,0"),
]


@pytest.mark.parametrize("name, nilpotent", _WORD_BOUND_CHARTS)
def test_bch_word_bound_is_the_nilpotency_class(monkeypatch, name, nilpotent):
    # bch_product fetches the word table of each length that still has a
    # nonzero word, and every gauge step lies in g_+, so no word of the
    # gauge composite that gauge_fix meets is longer than the class of g_+
    alg, _ = resolve_algebra(name)
    if nilpotent.startswith("explicit"):
        triple = sl2_triple_for(alg, parse_nilpotent(alg, "e21"))
        w2 = [int(w) for w in nilpotent.split()[1].split(",")]
        grading = GoodGrading(alg, w2, triple.f)
    else:
        triple = sl2_triple_for(alg, parse_nilpotent(alg, nilpotent))
        grading = dynkin_grading(alg, triple)
    lengths = []
    real = supergroup._word_table

    def recorded(total):
        lengths.append(total)
        return real(total)

    monkeypatch.setattr(supergroup, "_word_table", recorded)
    make_chart(alg, triple, grading)
    nclass = nilpotency_class(alg.restrict_to(grading.positive_indices()))
    assert max(lengths, default=0) <= nclass

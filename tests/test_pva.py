"""Arc rings, lambda brackets, the arc gauge complex, and the graded
Miura morphism.

Oracles:

* Arc relations: the induced relation of order k must equal the z^k
  coefficient of f(x(z)), both computed mechanically (series expansion
  vs divided-power derivatives).  For x^2 the first few coefficients
  are also written out by hand.
* Lambda brackets: generator pairs come from the structure constants;
  products and jets are checked against hand Leibniz/sesquilinearity
  expansions (a Virasoro central charge among them), skew-symmetry is
  verified as a property, the master formula is compared with the
  per-monomial Leibniz recursion kept in tests/leibniz_bracket_oracle.py
  on random polynomials with jets (and, through prepared operands used
  on either side and reused, on a table with lambda-dependent entries),
  and the lambda-degree-zero sector is
  cross-checked against the finite Leibniz recursion kept in
  tests/finite_poisson_oracle.py.
* Q: squares to zero (constructor trap plus explicit), commutes with
  the total derivative, is an odd derivation; the sl2 generator images
  and the weight-2 harmonic representative are pinned by hand.
* H^0 sizes: weighted monomial counts over the jet-expanded slice
  generators, an independent knapsack count.
* Miura: images are the finite images one jet at a time; the
  lambda-bracket intertwining compares two independently computed
  sides.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finite_poisson_oracle import finite_bracket
from leibniz_bracket_oracle import leibniz_bracket
from superslice import pva
from superslice.liealg import (build_osp_1_2, build_sl, dynkin_grading,
                               principal_nilpotent, sl2_triple_for)
from superslice.pva import (ArcBracket, ArcRing, BRSTComplex,
                            DifferentialMorphism, LambdaPolynomial,
                            brst_complex, graded_miura, h0_truncated,
                            skew_defect)
from superslice.slice import gauge_fix
from superslice.superpoly import PolyRing, Variable

ONE = Fraction(1)


def principal_chart(alg):
    f = principal_nilpotent(alg)
    triple = sl2_triple_for(alg, f)
    return gauge_fix(alg, triple, dynkin_grading(alg, triple))


@pytest.fixture(scope="module")
def sl2_chart():
    return principal_chart(build_sl(2, 0))


@pytest.fixture(scope="module")
def osp_chart():
    return principal_chart(build_osp_1_2())


@pytest.fixture(scope="module")
def sl2_cx(sl2_chart):
    return brst_complex(sl2_chart)


@pytest.fixture(scope="module")
def osp_cx(osp_chart):
    return brst_complex(osp_chart)


# -- arc rings -------------------------------------------------------------


class TestArcRing:
    def test_affine_line_is_free(self):
        base = PolyRing([Variable("x", 0)])
        arc = ArcRing(base)
        assert arc.relations == []
        assert arc.check_relations(depth=3)
        x = arc.ring.gen(0)
        assert arc.jet(0, 0) == x
        assert arc.jet(0, 2) == x.total_derivative().total_derivative() * Fraction(1, 2)

    def test_product_presentation_is_union(self):
        bx = PolyRing([Variable("x", 0)])
        by = PolyRing([Variable("y", 0)])
        both = PolyRing([Variable("x", 0), Variable("y", 0)])
        rx = bx.gen(0) * bx.gen(0)
        ry = by.gen(0) * by.gen(0) * by.gen(0)
        rboth = [both.gen(0) * both.gen(0),
                 both.gen(1) * both.gen(1) * both.gen(1)]
        arc = ArcRing(both, rboth)
        assert arc.check_relations(depth=3)
        # each induced relation only mentions the jets of its own factor
        for k, jet in enumerate(arc.relation_jets(0, 3)):
            assert all(arc.ring.variables[i].base == "x"
                       for i in jet.variables_used())
        for k, jet in enumerate(arc.relation_jets(1, 3)):
            assert all(arc.ring.variables[i].base == "y"
                       for i in jet.variables_used())
        # and matches the standalone arc rings term for term
        ax = ArcRing(bx, [rx])
        assert [p.text() for p in ax.relation_jets(0, 3)] == \
            [p.text() for p in arc.relation_jets(0, 3)]
        ay = ArcRing(by, [ry])
        assert [p.text() for p in ay.relation_jets(0, 3)] == \
            [p.text() for p in arc.relation_jets(1, 3)]

    def test_double_point_relations_by_hand(self):
        # Spec of the double point: one relation x^2.  The induced
        # relations, written in jets:
        #   order 0: x^2
        #   order 1: 2 x x'
        #   order 2: x x'' + x'^2        (= d(2xx')/2)
        #   order 3: x x'''/3 + x' x''
        base = PolyRing([Variable("x", 0)])
        x = base.gen(0)
        arc = ArcRing(base, [x * x])
        R = arc.ring
        x0 = R.gen(0)
        x1 = x0.total_derivative()
        x2 = x1.total_derivative()
        x3 = x2.total_derivative()
        jets = arc.relation_jets(0, 3)
        assert jets[0] == x0 * x0
        assert jets[1] == x0 * x1 * 2
        assert jets[2] == x0 * x2 + x1 * x1
        assert jets[3] == x0 * x3 * Fraction(1, 3) + x1 * x2
        assert arc.check_relations(depth=5)

    def test_series_coefficients_match_jets(self):
        base = PolyRing([Variable("x", 0), Variable("y", 0)])
        p = base.gen(0) * base.gen(0) * base.gen(1)
        arc = ArcRing(base, [p])
        want = arc.relation_jets(0, 4)
        got = arc.series_coefficients(p, 4)
        assert want == got

    def test_check_relations_reports_failure(self, monkeypatch):
        # the two sides are computed independently (divided-power
        # derivatives vs truncated series), so a mismatch must be forced
        base = PolyRing([Variable("x", 0)])
        x = base.gen(0)
        arc = ArcRing(base, [x * x])
        monkeypatch.setattr(
            arc, "relation_jets",
            lambda j, depth: [arc.ring.zero()] * (depth + 1))
        with pytest.raises(ValueError, match="fails the arc expansion"):
            arc.check_relations(depth=1)

    def test_rejects_wrong_rings(self):
        base = PolyRing([Variable("x", 0)])
        other = PolyRing([Variable("x", 0)])
        with pytest.raises(ValueError, match="not in the base ring"):
            ArcRing(base, [other.gen(0)])
        diff = PolyRing([Variable("x", 0)], differential=True)
        with pytest.raises(ValueError, match="must not be differential"):
            ArcRing(diff)
        arc = ArcRing(base)
        with pytest.raises(ValueError, match="not in the base ring"):
            arc.embed(other.gen(0))

    def test_embed_is_order_zero(self):
        base = PolyRing([Variable("x", 0), Variable("th", 1)])
        arc = ArcRing(base)
        p = base.gen(0) * base.gen(1)
        q = arc.embed(p)
        assert q.text() == p.text()
        assert all(arc.ring.variables[i].order == 0
                   for i in q.variables_used())


# -- lambda polynomials ------------------------------------------------------


@pytest.fixture(scope="module")
def lam_ring():
    return PolyRing([Variable("a", 0), Variable("b", 1)], differential=True)


class TestLambdaPolynomial:
    def test_zero_normalization(self, lam_ring):
        R = lam_ring
        P = LambdaPolynomial(R, {0: R.zero(), 2: R.gen(0)})
        assert list(P.coeffs) == [2]
        assert LambdaPolynomial(R).is_zero()
        assert P.coefficient(0).is_zero()
        assert P.degree() == 2
        assert LambdaPolynomial(R).degree() == -1

    def test_arithmetic(self, lam_ring):
        R = lam_ring
        a = R.gen(0)
        P = LambdaPolynomial(R, {0: a, 1: R.one()})
        Q = LambdaPolynomial(R, {1: -R.one()})
        assert (P + Q) == LambdaPolynomial(R, {0: a})
        assert (P - P).is_zero()
        assert P.scale(Fraction(2)).coefficient(0) == a * 2

    def test_lam_plus_d(self, lam_ring):
        R = lam_ring
        a = R.gen(0)
        P = LambdaPolynomial(R, {0: a}).lam_plus_d()
        assert P == LambdaPolynomial(R, {1: a, 0: a.total_derivative()})

    def test_sub_neg_lam_d_involutive_on_constants(self, lam_ring):
        R = lam_ring
        c = R.one() * Fraction(3)
        P = LambdaPolynomial(R, {0: c})
        assert P.sub_neg_lam_d() == P
        # (-lam-d)^1 applied to a constant coefficient is just -lam
        Q = LambdaPolynomial(R, {1: c})
        assert Q.sub_neg_lam_d() == LambdaPolynomial(R, {1: -c})

    def test_text_deterministic(self, lam_ring):
        R = lam_ring
        P = LambdaPolynomial(R, {2: R.one(), 0: R.gen(0)})
        assert P.text() == "a + (1)*lam^2"
        assert LambdaPolynomial(R).text() == "0"

    def test_wrong_ring_rejected(self, lam_ring):
        other = PolyRing([Variable("a", 0)], differential=True)
        with pytest.raises(ValueError, match="wrong ring"):
            LambdaPolynomial(lam_ring, {0: other.gen(0)})
        P = LambdaPolynomial(lam_ring, {0: lam_ring.gen(0)})
        Q = LambdaPolynomial(other, {0: other.gen(0)})
        with pytest.raises(ValueError, match="wrong ring"):
            P + Q


# -- the free boson: one even generator, {b_lam b} = lam --------------------


@pytest.fixture(scope="module")
def boson():
    R = PolyRing([Variable("b", 0, wt2=2)], differential=True)
    table = {(0, 0): LambdaPolynomial(R, {1: R.one()})}
    return R, ArcBracket(R, table)


class TestFreeBoson:
    """Hand-checkable sesquilinearity and Leibniz expansions."""

    def test_generator_pair(self, boson):
        R, B = boson
        b = R.gen(0)
        assert B.bracket(b, b) == LambdaPolynomial(R, {1: R.one()})

    def test_sesquilinearity_first_slot(self, boson):
        R, B = boson
        b = R.gen(0)
        assert B.bracket(b.total_derivative(), b) == \
            LambdaPolynomial(R, {2: -R.one()})

    def test_sesquilinearity_second_slot(self, boson):
        R, B = boson
        b = R.gen(0)
        # {b_lam b'} = (lam+d) lam = lam^2
        assert B.bracket(b, b.total_derivative()) == \
            LambdaPolynomial(R, {2: R.one()})

    def test_right_leibniz_by_hand(self, boson):
        R, B = boson
        b = R.gen(0)
        # {b_lam b^2} = 2 b lam
        assert B.bracket(b, b * b) == LambdaPolynomial(R, {1: b * 2})

    def test_left_leibniz_by_hand(self, boson):
        R, B = boson
        b = R.gen(0)
        # {b^2_lam b} = 2 {b_{lam+d} b}_> b = 2 (lam + d) b = 2b lam + 2b'
        got = B.bracket(b * b, b)
        assert got == LambdaPolynomial(
            R, {1: b * 2, 0: b.total_derivative() * 2})

    def test_virasoro_element(self, boson):
        R, B = boson
        b = R.gen(0)
        L = b * b
        # {b^2_lam b^2} = (2lam + 2d)(2b.b)/... expand by hand:
        # {b^2_lam b^2} = 2 {b_{lam+d} b^2}_> b with {b_lam b^2} = 2b lam
        #              = 2 [2b(lam+d)]_> b = 4b^2 lam + 4 b'b
        got = B.bracket(L, L)
        want = LambdaPolynomial(R, {1: b * b * 4,
                                    0: b.total_derivative() * b * 4})
        assert got == want

    def test_skew_on_samples(self, boson):
        R, B = boson
        b = R.gen(0)
        samples = [b, b * b, b.total_derivative(),
                   b * b.total_derivative()]
        for x in samples:
            for y in samples:
                assert skew_defect(B, x, y).is_zero()

    @pytest.mark.parametrize("a", [Fraction(1, 2), ONE])
    def test_virasoro_central_charge_by_hand(self, a):
        # {h_lam h} = 2 lam and L = h^2/4 + a h'.  By the right rule
        #   {L_lam h}  = lam h + h' - 2a lam^2,
        #   {L_lam h'} = (lam + d){L_lam h}
        #              = lam^2 h + 2 lam h' + h'' - 2a lam^3,
        # and dL/dh = h/2, dL/dh' = a, so
        #   {L_lam L} = {L_lam h} h/2 + a {L_lam h'}
        #             = (d + 2 lam) L - 2a^2 lam^3:
        # central term -1/2 lam^3 at a = 1/2 and -2 lam^3 at a = 1.
        R = PolyRing([Variable("h", 0, wt2=2)], differential=True)
        B = ArcBracket(R, {(0, 0): LambdaPolynomial(R, {1: R.const(2)})})
        h = R.gen(0)
        L = h * h * Fraction(1, 4) + h.total_derivative() * a
        want = LambdaPolynomial(R, {0: L.total_derivative(), 1: L * 2,
                                    3: R.const(-2 * a * a)})
        assert B.bracket(L, L) == want


# -- the master formula against the Leibniz recursion -----------------------


def _lambda_table_machine():
    """Even h and L, odd psi, with lambda-dependent entries whose
    coefficients carry jets: {h_lam h} = 2 lam, {psi_lam psi} = 1 + lam^2,
    {L_lam L} = (d + 2 lam) L + lam^3, and L acting on h and psi with
    weights 1 and 3/2.  The oracle comparison needs no Jacobi identity."""
    R = PolyRing([Variable("h", 0, wt2=2), Variable("psi", 1, wt2=3),
                  Variable("L", 0, wt2=4)], differential=True)
    h, psi, L = R.gen(0), R.gen(1), R.gen(2)

    def lam(*coeffs):
        return LambdaPolynomial(R, dict(enumerate(coeffs)))

    half = Fraction(1, 2)
    table = {(0, 0): lam(R.zero(), R.const(2)),
             (1, 1): lam(R.one(), R.zero(), R.one()),
             (2, 2): lam(L.total_derivative(), L * 2, R.zero(), R.one()),
             (2, 0): lam(h.total_derivative(), h),
             (0, 2): lam(R.zero(), h),
             (2, 1): lam(psi.total_derivative(), psi * 3 * half),
             (1, 2): lam(psi.total_derivative() * half, psi * 3 * half)}
    return ArcBracket(R, table)


@pytest.fixture(scope="module")
def oracle_machines(boson, osp_chart, osp_cx):
    sl21 = graded_miura(principal_chart(build_sl(2, 1)))
    return [boson[1], _lambda_table_machine(),
            graded_miura(osp_chart).bracket_machine, sl21.bracket_machine,
            osp_cx.bracket_machine]


class TestMasterFormula:
    """ArcBracket.bracket against the per-monomial Leibniz recursion."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_leibniz_oracle(self, oracle_machines, data):
        # random mixed-parity polynomials in jets of order <= 2
        def draw_poly(ring):
            n = sum(1 for v in ring.variables if v.order == 0)
            out = ring.zero()
            for _ in range(data.draw(st.integers(1, 3))):
                term = ring.const(data.draw(st.integers(-3, 3).filter(bool)))
                for i, m in data.draw(st.lists(
                        st.tuples(st.integers(0, n - 1), st.integers(0, 2)),
                        max_size=3)):
                    for _ in range(m):
                        i = ring.derivative_index(i)
                    term = term * ring.gen(i)
                out = out + term
            return out

        for B in oracle_machines:
            p, q = draw_poly(B.ring), draw_poly(B.ring)
            assert B.bracket(p, q) == leibniz_bracket(B, p, q)

    def test_lambda_table_jets_by_hand(self):
        # {h_lam h'} = (lam + d) 2 lam = 2 lam^2; {psi'_lam psi} =
        # -lam (1 + lam^2); {h'_lam psi h} = -lam psi {h_lam h} = -2 lam^2 psi
        B = _lambda_table_machine()
        R = B.ring
        h, psi = R.gen(0), R.gen(1)
        assert B.bracket(h, h.total_derivative()) == \
            LambdaPolynomial(R, {2: R.const(2)})
        assert B.bracket(psi.total_derivative(), psi) == \
            LambdaPolynomial(R, {1: -R.one(), 3: -R.one()})
        assert B.bracket(h.total_derivative(), psi * h) == \
            LambdaPolynomial(R, {2: psi * (-2)})


class TestOperands:
    """Prepared arguments give the brackets of the plain polynomials."""

    def _samples(self):
        B = _lambda_table_machine()
        R = B.ring
        h, psi, L = R.gen(0), R.gen(1), R.gen(2)
        dh, dpsi = h.total_derivative(), psi.total_derivative()
        return B, [h * L + dpsi * psi, psi * dh + L.total_derivative(),
                   L * L * Fraction(1, 3) - psi * h, dh * dh + psi]

    def test_operands_match_polynomials_and_oracle(self):
        B, polys = self._samples()
        ops = [B.operand(p) for p in polys]
        for p, a in zip(polys, ops):
            for q, b in zip(polys, ops):
                want = leibniz_bracket(B, p, q)
                assert B.bracket(p, q) == want
                assert B.bracket(a, b) == want
                assert B.bracket(a, q) == want == B.bracket(p, b)

    def test_reused_operand_on_both_sides(self):
        B, polys = self._samples()
        p = polys[1]  # mixed parity, with jets
        a = B.operand(p)
        want = leibniz_bracket(B, p, p)
        for _ in range(3):
            assert B.bracket(a, a) == want
        other = B.operand(polys[2])
        for _ in range(2):
            assert B.bracket(a, other) == leibniz_bracket(B, p, polys[2])
            assert B.bracket(other, a) == leibniz_bracket(B, polys[2], p)

    def test_operand_of_another_ring_rejected(self, boson):
        B, polys = self._samples()
        R, other = boson[0], boson[1]
        with pytest.raises(ValueError, match="not in the bracket ring"):
            B.operand(R.gen(0))
        with pytest.raises(ValueError, match="another bracket"):
            B.bracket(other.operand(R.gen(0)), polys[0])
        with pytest.raises(ValueError, match="another bracket"):
            B.bracket(polys[0], other.operand(R.gen(0)))


# -- the arc gauge complex ---------------------------------------------------


class TestBRSTComplex:
    def test_sl2_ring_layout(self, sl2_cx):
        names = [v.name for v in sl2_cx.ring.variables[:3]]
        assert names == ["p_e21", "p_h1", "ph_e12"]
        # conformal doubled weights: 1-j doubled for generators, j for ghosts
        assert [v.wt2 for v in sl2_cx.ring.variables[:3]] == [4, 2, 2]
        assert sl2_cx.ring.parity_of(2) == 1  # ghost of an even root flips

    def test_sl2_generator_images_by_hand(self, sl2_cx):
        # [PAPER]-style pins: Q(h-hat) = 2 ph, Q(f-hat) = h-hat ph.
        cx = sl2_cx
        h = cx.generator("h1")
        f = cx.generator("e21")
        ph = cx.ghost("e12")
        assert cx.Q(h) == ph * 2
        assert cx.Q(f) == h * ph
        assert cx.Q(ph).is_zero()  # abelian positive part

    def test_q_squares_to_zero(self, sl2_cx, osp_cx):
        for cx in (sl2_cx, osp_cx):
            for pos in range(cx.nmod + cx.nghost):
                g = cx.ring.gen(pos)
                assert cx.Q(cx.Q(g)).is_zero()
                jet = g.total_derivative()
                assert cx.Q(cx.Q(jet)).is_zero()

    def test_q_square_trap(self, osp_chart, monkeypatch):
        # doubling the ghost half-sum breaks Q^2 = 0 on the generators,
        # and the constructor must say so
        real = pva._ce_images

        def doubled_ghosts(sub, ring, fields, nmod):
            images = real(sub, ring, fields, nmod)
            return {k: v * 2 if k >= nmod else v for k, v in images.items()}

        monkeypatch.setattr(pva, "_ce_images", doubled_ghosts)
        with pytest.raises(ValueError, match=r"Q\^2 != 0 on generator p_"):
            BRSTComplex(osp_chart)

    def test_q_commutes_with_d(self, osp_cx):
        cx = osp_cx
        R = cx.ring
        samples = [R.gen(0), R.gen(2), R.gen(0) * R.gen(3),
                   R.gen(2) * R.gen(4) + R.gen(1)]
        for p in samples:
            assert cx.Q(p.total_derivative()) == cx.Q(p).total_derivative()

    def test_q_is_an_odd_derivation(self, osp_cx):
        cx = osp_cx
        R = cx.ring
        pairs = [(R.gen(0), R.gen(1)),
                 (R.gen(2), R.gen(3)),
                 (R.gen(2), R.gen(0) * R.gen(3)),
                 (R.gen(3).total_derivative(), R.gen(4))]
        for a, b in pairs:
            pa = a.parity()
            lhs = cx.Q(a * b)
            rhs = cx.Q(a) * b + (a * cx.Q(b) if pa == 0 else -(a * cx.Q(b)))
            assert lhs == rhs

    def test_q_preserves_conformal_weight(self, osp_cx):
        cx = osp_cx
        for pos in range(cx.nmod + cx.nghost):
            img = cx._images.get(pos)
            if img is None or img.is_zero():
                continue
            assert img.weight2() == cx.ring.variables[pos].wt2

    def test_sl2_weight2_cocycle_by_hand(self, sl2_cx):
        # f-hat - h-hat^2/4 is Q-closed: Q(f) = h ph, Q(h^2/4) = h ph.
        cx = sl2_cx
        h = cx.generator("h1")
        f = cx.generator("e21")
        w = f - h * h * Fraction(1, 4)
        assert cx.Q(w).is_zero()

    def test_ghost_lambda_rows(self, sl2_cx):
        # {ph^e_lam h-hat} = coefficient of e in [h, e] = 2 ph^e; skew
        # partner picks up the minus sign (|u| |ph| both-odd rule).
        cx = sl2_cx
        h = cx.generator("h1")
        ph = cx.ghost("e12")
        assert cx.lambda_bracket(ph, h) == \
            LambdaPolynomial(cx.ring, {0: ph * 2})
        assert cx.lambda_bracket(h, ph) == \
            LambdaPolynomial(cx.ring, {0: ph * (-2)})
        assert cx.lambda_bracket(ph, ph).is_zero()

    def test_even_generator_self_bracket_vanishes(self, sl2_cx):
        # [u, u] = 0 for even u, so {u_lam u} = 0 on the nose
        h = sl2_cx.generator("h1")
        assert sl2_cx.lambda_bracket(h, h).is_zero()

    def test_osp_odd_half_pair_is_chi(self, osp_cx):
        # {vp-hat_lam vp-hat} = (f | [vp, vp]), a nonzero constant
        cx = osp_cx
        alg, ch = cx.chart.alg, cx.chart
        vp = cx.generator("vp")
        got = cx.lambda_bracket(vp, vp)
        i = alg.labels.index("vp")
        br = alg.bracket_num(alg.basis_vector(i), alg.basis_vector(i))
        want = alg.form_value(ch.triple.f, br)
        assert want != 0
        assert got == LambdaPolynomial(cx.ring, {0: cx.ring.const(want)})

    def test_skew_symmetry_property(self, osp_cx):
        cx = osp_cx
        R = cx.ring
        gens = [R.gen(i) for i in range(cx.nmod + cx.nghost)]
        samples = gens + [gens[0].total_derivative(),
                          gens[2] * gens[1],
                          gens[2] * gens[3],
                          gens[3].total_derivative() * gens[0]]
        for a in samples:
            for b in samples:
                assert skew_defect(cx.bracket_machine, a, b).is_zero()

    def test_lambda_zero_sector_matches_finite_bracket(self, osp_chart):
        # Independent implementations: ArcBracket's recursion vs the
        # finite Leibniz oracle, compared on all product pairs.
        ch = osp_chart
        ps = ch.poisson
        gm = graded_miura(ch)
        amb, B = gm.ring, gm.bracket_machine
        m = len(ch.coord_indices)
        for i in range(m):
            for j in range(m):
                p = ch.ring.gen(i) * ch.ring.gen(j)
                q = ch.ring.gen((i + 1) % m)
                P = B.bracket(amb.gen(i) * amb.gen(j), amb.gen((i + 1) % m))
                fin = finite_bracket(ps, ps.to_poisson_ring(p),
                                     ps.to_poisson_ring(q))
                finz = ps.from_poisson_ring(fin)
                hat = finz.substitute(
                    {b: amb.gen(b) for b in finz.variables_used()}, amb)
                assert P.coefficient(0) == hat
                assert all(k == 0 for k in P.coeffs)


# -- truncated degree-zero cohomology ----------------------------------------


class TestTruncatedH0:
    def test_sl2_dimensions(self, sl2_chart, sl2_cx):
        h0 = h0_truncated(sl2_cx, 3)
        dims = h0.dimensions()
        assert [dims[Fraction(w)] for w in range(4)] == [1, 0, 1, 1]
        assert h0.consistent()

    def test_sl2_weight_two_representative(self, sl2_chart, sl2_cx):
        h0 = h0_truncated(sl2_cx, 3)
        reps = h0.representatives(2)
        assert len(reps) == 1
        cx = sl2_cx
        f = cx.generator("e21")
        h = cx.generator("h1")
        want = f - h * h * Fraction(1, 4)
        assert reps[0] == want or reps[0] == -want

    def test_sl2_weight_three_representative_is_the_jet(self, sl2_chart,
                                                        sl2_cx):
        h0 = h0_truncated(sl2_cx, 3)
        reps = h0.representatives(3)
        assert len(reps) == 1
        cx = sl2_cx
        w = cx.generator("e21") - cx.generator("h1") ** 2 * Fraction(1, 4)
        jet = w.total_derivative()
        got = reps[0]
        # same line: proportional with a rational factor
        scale = None
        for mono, c in jet.terms.items():
            assert mono in got.terms
            s = got.terms[mono] / c
            assert scale is None or s == scale
            scale = s
        assert got == jet * scale

    def test_osp_dimensions_include_odd_generator(self, osp_chart, osp_cx):
        h0 = h0_truncated(osp_cx, 2)
        dims = {w: d for w, d in h0.dimensions().items() if d}
        assert dims == {Fraction(0): 1, Fraction(3, 2): 1, Fraction(2): 1}
        assert h0.consistent()

    def test_osp_deeper_truncation_consistent(self, osp_chart, osp_cx):
        h0 = h0_truncated(osp_cx, 3)
        assert h0.consistent()
        # the two truncations agree where they overlap
        shallow = h0_truncated(osp_cx, 2)
        deep = h0.dimensions()
        for w, d in shallow.dimensions().items():
            assert deep[w] == d

    def test_weight_zero_is_constants(self, sl2_chart, sl2_cx):
        h0 = h0_truncated(sl2_cx, 2)
        assert h0.dimension(0) == 1
        assert [r.text() for r in h0.representatives(0)] == ["1"]

    def test_representatives_are_cocycles(self, osp_chart, osp_cx):
        h0 = h0_truncated(osp_cx, 3)
        for n2 in range(7):
            for r in h0.representatives(Fraction(n2, 2)):
                assert osp_cx.Q(r).is_zero()

    def test_truncation_below_generators_rejected(self, sl2_chart, sl2_cx):
        with pytest.raises(ValueError, match="below every slice generator"):
            h0_truncated(sl2_cx, 1)

    def test_half_integer_weights_only(self, sl2_chart, sl2_cx):
        with pytest.raises(ValueError, match="half-integers"):
            h0_truncated(sl2_cx, Fraction(7, 3))


# -- graded Miura -------------------------------------------------------------


class TestGradedMiura:
    def test_sl2_image_is_the_square(self, sl2_chart):
        gm = graded_miura(sl2_chart)
        s = gm.source.gen(0)
        b = gm.ring.gen(gm.ring.index["z_h1"])
        assert gm(s) == b * b

    def test_commutes_with_d(self, sl2_chart):
        gm = graded_miura(sl2_chart)
        s = gm.source.gen(0)
        b = gm.ring.gen(gm.ring.index["z_h1"])
        assert gm(s.total_derivative()) == b * b.total_derivative() * 2
        assert gm(s.total_derivative()) == gm(s).total_derivative()

    def test_morphism_jets_and_missing_images(self):
        src = PolyRing([Variable("a", 0), Variable("b", 0)],
                       differential=True)
        dst = PolyRing([Variable("x", 0)], differential=True)
        x = dst.gen(0)
        mor = DifferentialMorphism(src, dst, {0: x * x})
        da = src.derivative_index(0)
        assert mor.image(da) == x * x.total_derivative() * 2
        assert mor.image(da) is mor.image(da)  # computed once
        for i in (1, src.derivative_index(1)):
            with pytest.raises(ValueError, match="no image for generator"):
                mor.image(i)

    def test_constants_map_to_constants(self, sl2_chart):
        gm = graded_miura(sl2_chart)
        c = gm.source.const(Fraction(5, 3))
        assert gm(c) == gm.ring.const(Fraction(5, 3))

    def test_osp_images(self, osp_chart):
        gm = graded_miura(osp_chart)
        T = gm.ring
        zh = T.gen(T.index["z_h"])
        zvm = T.gen(T.index["z_vm"])
        images = {lab: gm(gm.source.gen(i))
                  for i, lab in enumerate(osp_chart.inv_order)}
        assert images["vp"] == zh * zvm
        assert images["e"] == zh * zh

    def test_sl2_intertwining(self, sl2_chart):
        gm = graded_miura(sl2_chart)
        out = gm.check_intertwining()
        assert out == {("e12", "e12"): True}

    def test_osp_intertwining(self, osp_chart):
        gm = graded_miura(osp_chart)
        out = gm.check_intertwining()
        assert set(out) == {(a, b) for a in osp_chart.inv_order
                            for b in osp_chart.inv_order}
        assert all(out.values())

    def test_osp_source_bracket_matches_finite_table(self, osp_chart):
        # {s_vp lam s_vp} on the slice jets is 1/2 s_e, constant in lam,
        # the finite table value
        gm = graded_miura(osp_chart)
        vp_pos = osp_chart.inv_order.index("vp")
        P = gm.source_bracket(gm.source.gen(vp_pos), gm.source.gen(vp_pos))
        e_pos = osp_chart.inv_order.index("e")
        assert P == LambdaPolynomial(
            gm.source, {0: gm.source.gen(e_pos) * Fraction(1, 2)})

    def test_osp_odd_image_bracket_reproduces_even_image(self, osp_chart):
        # the two sides of the intertwining identity for the odd pair,
        # spelled out: {mu(s_vp)_lam mu(s_vp)} = 1/2 mu(s_e)
        gm = graded_miura(osp_chart)
        mu_vp = gm(gm.source.gen(osp_chart.inv_order.index("vp")))
        mu_e = gm(gm.source.gen(osp_chart.inv_order.index("e")))
        got = gm.bracket_machine.bracket(mu_vp, mu_vp)
        assert got == LambdaPolynomial(gm.ring,
                                       {0: mu_e * Fraction(1, 2)})

    def test_sl3_and_sl21_intertwine(self):
        for alg in (build_sl(3, 0), build_sl(2, 1)):
            ch = principal_chart(alg)
            gm = graded_miura(ch)
            out = gm.check_intertwining()
            n = len(ch.inv_order)
            assert len(out) == n * n and all(out.values())

    def test_gini_closure_trap(self, monkeypatch):
        # {z_vm, z_vm} = 1/2 on osp(1|2); moving it onto z_e, a degree-1
        # coordinate, breaks closure of the g_ini brackets
        ch = principal_chart(build_osp_1_2())
        R = ch.ring
        vm, e = R.index["z_vm"], R.index["z_e"]
        table = ch.poisson.coordinate_table
        assert table[(vm, vm)] == R.const(Fraction(1, 2))
        monkeypatch.setitem(table, (vm, vm), R.const(Fraction(1, 2)) + R.gen(e))
        with pytest.raises(ValueError,
                           match="bracket value leaves the g_ini coordinates"):
            graded_miura(ch)

    def test_miura_image_trap(self, sl2_chart, monkeypatch):
        real = pva.finite_miura

        def leaky(chart):
            mi = real(chart)
            lab = chart.inv_order[0]
            mi.images[lab] = mi.images[lab] + chart.ring.gen("z_e12")
            return mi

        monkeypatch.setattr(pva, "finite_miura", leaky)
        with pytest.raises(ValueError,
                           match="Miura image leaves the g_ini coordinates"):
            graded_miura(sl2_chart)

    def test_source_bracket_off_the_slice_raises(self, osp_chart,
                                                 monkeypatch):
        # {z_h lam z_h} = z_vp * z_vm is no table entry of osp(1|2); with
        # it, {s_e lam s_e} picks up 4 z_h^2 z_vp z_vm, which is not a
        # function of the invariants
        gm = graded_miura(osp_chart)
        R = gm.ring
        h = R.index["z_h"]
        bogus = R.gen("z_vp") * R.gen("z_vm")
        monkeypatch.setitem(gm.bracket_machine.table, (h, h),
                            LambdaPolynomial(R, {0: bogus}))
        s_e = gm.source.gen(osp_chart.inv_order.index("e"))
        with pytest.raises(ValueError,
                           match="lambda bracket leaves the slice jets"):
            gm.source_bracket(s_e, s_e)

    def test_source_bracket_trap_message(self, osp_chart):
        # a polynomial off the invariant subalgebra trips the re-embed
        # check when smuggled through the restriction
        gm = graded_miura(osp_chart)
        amb = gm.ring
        stray = amb.gen(0)  # a bare coordinate is not a slice function
        r = gm._restrict(stray)
        assert gm._embed(r) != stray

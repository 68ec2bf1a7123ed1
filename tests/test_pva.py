"""The chart's Poisson bracket, the arc gauge complex, and the graded
Miura morphism.

Oracles:

* Poisson bracket: generator pairs come from the structure constants;
  products are checked against hand Leibniz expansions with their
  Koszul signs on a constant table, skew-symmetry is verified as a
  property (``skew_defect``, tests/cross_checks.py), jets are refused,
  and the biderivation is compared with the finite Leibniz recursion
  kept in tests/finite_poisson_oracle.py: on random polynomials (the
  hand table, and osp(1|2) and sl(2|1) through the Zhu generators of
  tests/zhu_poisson_oracle.py), through prepared operands used on
  either side and reused, and on all product pairs of principal and
  minimal charts.
* Q: squares to zero (build trap plus explicit), commutes with
  the total derivative, is an odd derivation; the sl2 generator images
  and the weight-2 cocycle are pinned by hand.  The complex on the
  chart coordinates is compared with the former one on the Zhu
  generators, kept in tests/zhu_brst_oracle.py: Q agrees under
  u-hat -> zeta_u, on principal and minimal charts, and the H^0
  dimensions with the jets of ker delta read on the oracle's complex;
  Q is the finite slice complex's derivation, the chart's one.
* H^0 sizes: weighted monomial counts over the jet-expanded slice
  generators, an independent knapsack count.
* Miura: images are the finite images one jet at a time; the
  level-zero intertwining compares two independently computed sides.
  The check, which brackets each source pair once and skips the even
  diagonals by skew-symmetry, has the outcome of the former
  all-ordered-pairs loop kept in tests/miura_pairs_oracle.py, with the
  Miura map intact and with one image doubled; the source bracket is
  checked skew on every pair, and a table that is not skew is
  refused.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charts import make_chart
from cross_checks import skew_defect
from finite_poisson_oracle import finite_bracket
from miura_pairs_oracle import check_all_ordered_pairs, source_bracket
from zhu_brst_oracle import ZhuBRST
from zhu_poisson_oracle import ZhuPoisson
from superslice import cohomology
from superslice.cli import JobConfig, _stage_cohomology, resolve_algebra
from superslice.cohomology import (GradedComplex, kernel_generators,
                                   slice_ce_complex)
from superslice.liealg import (algebra_to_json, build_osp_1_2, build_sl,
                               parse_nilpotent, principal_nilpotent,
                               sl2_triple_for)
from superslice.pva import (ArcBracket, DifferentialMorphism, GradedMiura,
                            _jet_counts, brst_complex, graded_miura,
                            h0_truncated)
from superslice.superpoly import PolyRing, SuperPolynomial, Variable

ONE = Fraction(1)


def principal_chart(alg):
    f = principal_nilpotent(alg)
    triple = sl2_triple_for(alg, f)
    return make_chart(alg, triple)


@pytest.fixture(scope="module")
def sl2_chart():
    return principal_chart(build_sl(2, 0))


@pytest.fixture(scope="module")
def osp_chart():
    return principal_chart(build_osp_1_2())


@pytest.fixture(scope="module")
def sl2_Q(sl2_chart):
    return brst_complex(sl2_chart)


@pytest.fixture(scope="module")
def osp_Q(osp_chart):
    return brst_complex(osp_chart)


# -- the finite Poisson bracket ---------------------------------------------


def hand_machine():
    """Even q, p with {q, p} = 1 and odd psi, phi with {psi, psi} =
    {phi, phi} = 1: constant brackets, so Jacobi holds and every bracket
    can be expanded by hand."""
    R = PolyRing([Variable("q", 0), Variable("p", 0), Variable("psi", 1),
                  Variable("phi", 1)], differential=True)
    return ArcBracket(R, {(0, 1): R.one(), (1, 0): -R.one(),
                          (2, 2): R.one(), (3, 3): R.one()})


def zhu_oracle(chart):
    """The chart's bracket through the finite Leibniz recursion on the
    Zhu generators (tests/zhu_poisson_oracle.py), back on the chart
    coordinates."""
    zp = ZhuPoisson(chart)
    return lambda p, q: zp.from_poisson_ring(finite_bracket(
        zp, zp.to_poisson_ring(p), zp.to_poisson_ring(q)))


@pytest.fixture(scope="module")
def oracle_machines(osp_chart):
    """(machine, number of order-zero variables, oracle bracket): the
    hand table against the recursion on its own table, and two charts
    with odd coordinates against the recursion on their Zhu
    generators."""
    B = hand_machine()
    out = [(B, 4, lambda p, q: finite_bracket(B, p, q))]
    for chart in (osp_chart, principal_chart(build_sl(2, 1))):
        out.append((ArcBracket(chart.ring, chart.poisson.coordinate_table),
                    len(chart.coord_indices), zhu_oracle(chart)))
    return out


class TestFiniteBracket:
    """Hand-checkable Leibniz expansions with their Koszul signs, jets
    refused, and the bracket against the finite Leibniz recursion."""

    def test_generator_pair(self):
        B = hand_machine()
        R = B.ring
        q, p, psi, phi = (R.gen(i) for i in range(4))
        assert B.bracket(q, p) == R.one()
        assert B.bracket(p, q) == -R.one()
        assert B.bracket(psi, psi) == R.one()
        assert B.bracket(psi, phi).is_zero()

    def test_right_leibniz_by_hand(self):
        # {a, bc} = {a, b} c + (-1)^{|a||b|} b {a, c}
        B = hand_machine()
        R = B.ring
        q, p, psi, phi = (R.gen(i) for i in range(4))
        assert B.bracket(q, p * p) == p * 2
        # {psi, psi q} = {psi, psi} q - psi {psi, q} = q
        assert B.bracket(psi, psi * q) == q
        # {psi, phi psi} = {psi, phi} psi - phi {psi, psi} = -phi
        assert B.bracket(psi, phi * psi) == -phi

    def test_left_leibniz_by_hand(self):
        # {ab, c} = a {b, c} + (-1)^{|b||c|} {a, c} b
        B = hand_machine()
        R = B.ring
        q, p, psi, phi = (R.gen(i) for i in range(4))
        assert B.bracket(q * q, p) == q * 2
        # {psi phi, psi} = psi {phi, psi} - {psi, psi} phi = -phi: the
        # sign of the odd u_i = psi, (-1)^{|g|(|f| + |u_i|)} = -1
        assert B.bracket(psi * phi, psi) == -phi
        assert B.bracket(phi * psi, psi) == phi
        assert B.bracket(q * psi, psi) == q

    def test_skew_on_samples(self):
        B = hand_machine()
        R = B.ring
        q, p, psi, phi = (R.gen(i) for i in range(4))
        samples = [q, p * p, psi, q * psi, psi * phi + q * p, phi * p * p]
        for x in samples:
            for y in samples:
                assert skew_defect(B, x, y).is_zero()

    # the finite formula is the bracket of jet-free arguments only

    def test_jet_in_first_slot_refused(self):
        B = hand_machine()
        q, p = B.ring.gen(0), B.ring.gen(1)
        with pytest.raises(ValueError, match="holds the jet q'"):
            B.bracket(q.total_derivative(), p)

    def test_jet_in_second_slot_refused(self):
        B = hand_machine()
        q, p = B.ring.gen(0), B.ring.gen(1)
        with pytest.raises(ValueError, match="holds the jet q'"):
            B.bracket(p, p * q.total_derivative())

    def test_jet_operand_refused(self):
        B = hand_machine()
        q = B.ring.gen(0)
        with pytest.raises(ValueError, match="holds the jet q'"):
            B.operand(q + q.total_derivative())

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_finite_oracle(self, oracle_machines, data):
        # random mixed-parity polynomials in the order-zero variables
        def draw_poly(ring, n):
            out = ring.zero()
            for _ in range(data.draw(st.integers(1, 3))):
                term = ring.const(data.draw(st.integers(-3, 3).filter(bool)))
                for i in data.draw(st.lists(st.integers(0, n - 1),
                                            max_size=3)):
                    term = term * ring.gen(i)
                out = out + term
            return out

        for B, n, oracle in oracle_machines:
            p, q = draw_poly(B.ring, n), draw_poly(B.ring, n)
            assert B.bracket(p, q) == oracle(p, q)


class TestOperands:
    """Prepared arguments give the brackets of the plain polynomials."""

    def _samples(self):
        B = hand_machine()
        R = B.ring
        q, p, psi, phi = (R.gen(i) for i in range(4))
        return B, [q * p + psi * phi, psi * q + phi * p * p,
                   p * p * Fraction(1, 3) - psi * phi * q, q * q + psi]

    def test_operands_match_polynomials_and_oracle(self):
        B, polys = self._samples()
        ops = [B.operand(p) for p in polys]
        for p, a in zip(polys, ops):
            for q, b in zip(polys, ops):
                want = finite_bracket(B, p, q)
                assert B.bracket(p, q) == want
                assert B.bracket(a, b) == want
                assert B.bracket(a, q) == want == B.bracket(p, b)

    def test_reused_operand_on_both_sides(self):
        B, polys = self._samples()
        p = polys[3]  # mixed parity
        a = B.operand(p)
        want = finite_bracket(B, p, p)
        for _ in range(3):
            assert B.bracket(a, a) == want
        other = B.operand(polys[2])
        for _ in range(2):
            assert B.bracket(a, other) == finite_bracket(B, p, polys[2])
            assert B.bracket(other, a) == finite_bracket(B, polys[2], p)

    def test_operand_of_another_ring_rejected(self, osp_chart):
        B, polys = self._samples()
        other = graded_miura(osp_chart).bracket_machine
        R = other.ring
        with pytest.raises(ValueError, match="not in the bracket ring"):
            B.operand(R.gen(0))
        with pytest.raises(ValueError, match="another bracket"):
            B.bracket(other.operand(R.gen(0)), polys[0])
        with pytest.raises(ValueError, match="another bracket"):
            B.bracket(polys[0], other.operand(R.gen(0)))


# -- the arc gauge complex ---------------------------------------------------


def zeta(chart, label):
    """The Zhu generator u-hat on the ring of the chart's gauge
    derivation: zeta_u (``PoissonStructure.zeta``), an affine function
    of the chart coordinates."""
    ps = chart.poisson
    return ps.zeta[ps.gen_pos[chart.alg.index[label]]].substitute(
        {}, chart.gauge_ce.ring)


def order_zero(chart):
    """Positions of the order-zero coordinates and ghosts of the
    chart's gauge ring, counted as ``slice_ce_complex`` counts them."""
    return range(len(chart.coord_indices)
                 + len(chart.grading.positive_indices()))


class TestBRSTComplex:
    def test_sl2_ring_layout(self, sl2_Q):
        names = [v.name for v in sl2_Q.ring.variables[:3]]
        assert names == ["z_e12", "z_h1", "ph_e12"]
        # conformal doubled weights: 1+j doubled for coordinates, j for ghosts
        assert [v.wt2 for v in sl2_Q.ring.variables[:3]] == [4, 2, 2]
        assert sl2_Q.ring.parity_of(2) == 1  # ghost of an even root flips

    def test_sl2_generator_images_by_hand(self, sl2_chart, sl2_Q):
        # [PAPER]-style pins: Q(h-hat) = 2 ph, Q(f-hat) = h-hat ph.
        Q = sl2_Q
        h = zeta(sl2_chart, "h1")
        f = zeta(sl2_chart, "e21")
        ph = Q.ring.gen("ph_e12")
        assert Q(h) == ph * 2
        assert Q(f) == h * ph
        assert Q(ph).is_zero()  # abelian positive part

    def test_builds_no_poisson_structure(self, tmp_path):
        # Q reads no bracket: the form is refused from the rank of M
        # alone, and the chart's Poisson structure is never built
        chart = principal_chart(build_sl(2, 1))
        assert brst_complex(chart) is chart.gauge_ce
        assert "poisson" not in vars(chart)
        # a formless chart is refused before its derivation is built
        data = algebra_to_json(build_sl(2, 1))
        del data["form"]
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(data))
        formless = chart_for(str(path), "e21")
        with pytest.raises(ValueError, match="needs the bilinear form"):
            brst_complex(formless)
        assert not {"gauge_ce", "poisson"} & set(vars(formless))

    def test_q_squares_to_zero(self, sl2_chart, osp_chart):
        for chart in (sl2_chart, osp_chart):
            Q = brst_complex(chart)
            for pos in order_zero(chart):
                g = Q.ring.gen(pos)
                assert Q(Q(g)).is_zero()
                jet = g.total_derivative()
                assert Q(Q(jet)).is_zero()

    def test_q_square_trap(self, monkeypatch):
        # doubling the ghost half-sum breaks Q^2 = 0 on the generators,
        # and brst_complex must say so; a fresh chart, because a chart
        # keeps the gauge derivation it built first
        osp_chart = principal_chart(build_osp_1_2())
        real = cohomology._ce_images

        def doubled_ghosts(sub, ring, fields, nmod):
            images = real(sub, ring, fields, nmod)
            return {k: v * 2 if k >= nmod else v for k, v in images.items()}

        monkeypatch.setattr(cohomology, "_ce_images", doubled_ghosts)
        with pytest.raises(ValueError, match=r"d\^2 != 0 on generator z_"):
            brst_complex(osp_chart)

    def test_q_commutes_with_d(self, osp_Q):
        Q = osp_Q
        R = Q.ring
        samples = [R.gen(0), R.gen(2), R.gen(0) * R.gen(3),
                   R.gen(2) * R.gen(4) + R.gen(1)]
        for p in samples:
            assert Q(p.total_derivative()) == Q(p).total_derivative()

    def test_q_is_an_odd_derivation(self, osp_Q):
        Q = osp_Q
        R = Q.ring
        pairs = [(R.gen(0), R.gen(1)),
                 (R.gen(2), R.gen(3)),
                 (R.gen(2), R.gen(0) * R.gen(3)),
                 (R.gen(3).total_derivative(), R.gen(4))]
        for a, b in pairs:
            pa = a.parity()
            lhs = Q(a * b)
            rhs = Q(a) * b + (a * Q(b) if pa == 0 else -(a * Q(b)))
            assert lhs == rhs

    def test_jet_images_cost_one_derivative_each(self, sl2_chart,
                                                 monkeypatch):
        # serving jets 1..K of one generator takes K total derivatives,
        # each jet from the one below, and the same images as K
        # derivatives of the base image
        Q, K = brst_complex(sl2_chart), 12
        R = Q.ring
        base = R.index["z_e12"]
        jets = [base]
        for _ in range(K):
            jets.append(R.derivative_index(jets[-1]))
        images = cohomology._JetImages(R, Q.images.base)
        calls = []
        real = SuperPolynomial.total_derivative

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(SuperPolynomial, "total_derivative", counted)
        served = [images.get(j) for j in jets[1:]]
        assert len(calls) == K
        monkeypatch.undo()
        want = Q.images.base[base]
        for got in served:
            want = want.total_derivative()
            assert list(got.terms.items()) == list(want.terms.items())
            assert got.den == want.den

    def test_q_preserves_conformal_weight(self, osp_chart, osp_Q):
        for pos in order_zero(osp_chart):
            img = osp_Q.images.base.get(pos)
            if img is None or img.is_zero():
                continue
            assert img.weight2() == osp_Q.ring.variables[pos].wt2

    def test_sl2_weight2_cocycle_by_hand(self, sl2_chart, sl2_Q):
        # f-hat - h-hat^2/4 is Q-closed: Q(f) = h ph, Q(h^2/4) = h ph.
        h = zeta(sl2_chart, "h1")
        f = zeta(sl2_chart, "e21")
        w = f - h * h * Fraction(1, 4)
        assert sl2_Q(w).is_zero()

    def test_lambda_zero_sector_matches_finite_bracket(self, osp_chart):
        # Independent implementations: the chart's bracket, the lambda^0
        # and jet-free sector of the arc bracket, vs the finite Leibniz
        # oracle on the Zhu generators, compared on all product pairs;
        # the minimal charts add constant g_{1/2} brackets
        for ch in (osp_chart, chart_for("sl(2|1)"),
                   chart_for("sl(3|1)", "e21"), chart_for("sl4", "e21")):
            oracle = zhu_oracle(ch)
            B, R = graded_miura(ch).bracket_machine, ch.ring
            m = len(ch.coord_indices)
            for i in range(m):
                for j in range(m):
                    p, q = R.gen(i) * R.gen(j), R.gen((i + 1) % m)
                    assert B.bracket(p, q) == oracle(p, q)


# -- the complex on the chart coordinates against the Zhu generators ---------


def chart_for(name, nilpotent="principal"):
    alg, _ = resolve_algebra(name)
    triple = sl2_triple_for(alg, parse_nilpotent(alg, nilpotent))
    return make_chart(alg, triple)


ORACLE_CASES = ["sl2", "osp12", "sl(2|1)", "sl3"]
# minimal nilpotents too: their g_{1/2} brackets are constants of the form
Q_ORACLE_CASES = [(name, "principal") for name in ORACLE_CASES] + [
    ("sl4", "e21"), ("sl(3|1)", "e21")]


class TestZhuGeneratorOracle:
    """The chart's Q against the former complex on the Zhu generators
    p_u (tests/zhu_brst_oracle.py) under p_u -> zeta_u, each ghost to
    the ghost of the same name."""

    @staticmethod
    def transported(chart):
        Q, old = brst_complex(chart), ZhuBRST(chart)
        alg, ps = chart.alg, chart.poisson
        base = {a: zeta(chart, alg.labels[i])
                for a, i in enumerate(ps.gen_indices)}
        for pos in range(old.nmod, old.nmod + old.nghost):
            name = old.ring.variables[pos].name
            base[pos] = Q.ring.gen(name)
        return Q, old, DifferentialMorphism(old.ring, Q.ring, base)

    @pytest.mark.parametrize("name,nilpotent", Q_ORACLE_CASES,
                             ids=[n if nil == "principal" else f"{n}-{nil}"
                                  for n, nil in Q_ORACLE_CASES])
    def test_q_matches_the_oracle(self, name, nilpotent):
        chart = chart_for(name, nilpotent)
        Q, old, phi = self.transported(chart)
        assert old.nmod == len(chart.coord_indices)
        assert old.nghost == len(chart.grading.positive_indices())
        for pos in range(old.nmod + old.nghost):
            g = old.ring.gen(pos)
            for x in (g, g.total_derivative()):
                assert phi(old.Q(x)) == Q(phi(x)), x.text()

    @pytest.mark.parametrize("name,nilpotent,weight", [
        ("sl(2|1)", "principal", 6), ("sl4", "e21", 2)])
    def test_h0_dimensions_match_the_oracle(self, name, nilpotent, weight):
        # the jets of ker delta read on the oracle's own complex, not on
        # the chart's, against the chart's truncation
        chart = chart_for(name, nilpotent)
        old, w2 = ZhuBRST(chart), 2 * weight
        n = old.nmod + old.nghost
        zhu = GradedComplex(old.Q, range(old.nmod), range(old.nmod, n), w2)
        counts = _jet_counts(kernel_generators(zhu), w2)
        want = {Fraction(n2, 2): counts.get(n2, 0) for n2 in range(w2 + 1)}
        assert h0_truncated(chart, weight).dimensions() == want

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_base_images_are_the_slice_complex_images(self, name):
        # one gauge complex per chart: Q and d of the finite slice
        # complex are the chart's one derivation on its one ring
        chart = chart_for(name)
        sx = slice_ce_complex(chart, max_weight=2)
        assert brst_complex(chart) is chart.gauge_ce is sx.d
        assert sx.ring is chart.gauge_ce.ring
        assert sx.positions == list(order_zero(chart))


# -- truncated degree-zero cohomology ----------------------------------------


class TestTruncatedH0:
    def test_sl2_dimensions(self, sl2_chart):
        h0 = h0_truncated(sl2_chart, 3)
        dims = h0.dimensions()
        assert [dims[Fraction(w)] for w in range(4)] == [1, 0, 1, 1]
        assert h0.consistent(dims)

    def test_past_the_exponent_limit_refused_before_images(self, sl2_chart,
                                                           sl2_Q,
                                                           monkeypatch):
        # weight 128 needs z_h1^128; the chart's Q was built and squared
        # with sl2_Q, and the truncation is refused before Q is applied
        # to any jet
        served = []
        real = cohomology.OddDerivation.mono

        def counted(self, mono):
            served.append(mono)
            return real(self, mono)

        monkeypatch.setattr(cohomology.OddDerivation, "mono", counted)
        with pytest.raises(OverflowError, match="exponent limit 127"):
            h0_truncated(sl2_chart, 128)
        assert served == []
        monkeypatch.undo()
        h0 = h0_truncated(sl2_chart, 3)
        assert h0.consistent(h0.dimensions())

    def test_osp_dimensions_include_odd_generator(self, osp_chart):
        h0 = h0_truncated(osp_chart, 2)
        dims = {w: d for w, d in h0.dimensions().items() if d}
        assert dims == {Fraction(0): 1, Fraction(3, 2): 1, Fraction(2): 1}
        assert h0.consistent(h0.dimensions())

    def test_osp_deeper_truncation_consistent(self, osp_chart):
        h0 = h0_truncated(osp_chart, 3)
        deep = h0.dimensions()
        assert h0.consistent(deep)
        # the two truncations agree where they overlap
        shallow = h0_truncated(osp_chart, 2)
        for w, d in shallow.dimensions().items():
            assert deep[w] == d

    def test_weight_zero_is_constants(self, sl2_chart):
        # H^0 at weight 0 is one line, and the block holds only 1
        h0 = h0_truncated(sl2_chart, 2)
        assert h0.dimensions()[Fraction(0)] == 1
        ring = sl2_chart.gauge_ce.ring
        assert [SuperPolynomial(ring, {m: 1}).text()
                for m in h0.order_zero.block_basis(0, 0)] == ["1"]

    def test_truncation_below_generators_rejected(self, sl2_chart):
        with pytest.raises(ValueError,
                           match="below the largest slice generator weight"):
            h0_truncated(sl2_chart, 1)

    def test_truncation_below_the_largest_generator_rejected(self):
        # sl3's slice generators weigh 2 and 3: a cutoff at 2 keeps the
        # first and loses the second, and is refused before the chart
        # builds its gauge derivation
        chart = principal_chart(build_sl(3, 0))
        with pytest.raises(ValueError, match="max weight 2 is below the "
                           "largest slice generator weight 3"):
            h0_truncated(chart, 2)
        assert "gauge_ce" not in vars(chart)

    def test_half_integer_weights_only(self, sl2_chart):
        with pytest.raises(ValueError, match="half-integers"):
            h0_truncated(sl2_chart, Fraction(7, 3))


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
        # {s_vp, s_vp} on the slice is 1/2 s_e, the finite table value
        gm = graded_miura(osp_chart)
        vp_pos = osp_chart.inv_order.index("vp")
        P = source_bracket(gm, gm.source.gen(vp_pos),
                           gm.source.gen(vp_pos))
        e_pos = osp_chart.inv_order.index("e")
        assert P == gm.source.gen(e_pos) * Fraction(1, 2)

    def test_osp_odd_image_bracket_reproduces_even_image(self, osp_chart):
        # the two sides of the intertwining identity for the odd pair,
        # spelled out: {mu(s_vp), mu(s_vp)} = 1/2 mu(s_e)
        gm = graded_miura(osp_chart)
        mu_vp = gm(gm.source.gen(osp_chart.inv_order.index("vp")))
        mu_e = gm(gm.source.gen(osp_chart.inv_order.index("e")))
        got = gm.bracket_machine.bracket(mu_vp, mu_vp)
        assert got == mu_e * Fraction(1, 2)

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

    def test_miura_image_trap(self):
        # planted in the image a fresh chart owns, so the module's
        # sl2_chart keeps its own
        ch = principal_chart(build_sl(2, 0))
        lab = ch.inv_order[0]
        ch.miura.images[lab] = ch.miura.images[lab] + ch.ring.gen("z_e12")
        with pytest.raises(ValueError,
                           match="Miura image leaves the g_ini coordinates"):
            graded_miura(ch)

    def test_source_bracket_off_the_slice_raises(self, osp_chart,
                                                 monkeypatch):
        # {z_h, z_h} = z_vp * z_vm is no table entry of osp(1|2); with
        # it, {s_e, s_e} picks up 4 z_h^2 z_vp z_vm, which is not a
        # function of the invariants
        gm = graded_miura(osp_chart)
        R = gm.ring
        h = R.index["z_h"]
        bogus = R.gen("z_vp") * R.gen("z_vm")
        monkeypatch.setitem(gm.bracket_machine.table, (h, h), bogus)
        s_e = gm.source.gen(osp_chart.inv_order.index("e"))
        with pytest.raises(
                ValueError,
                match="source bracket is no function of the invariants"):
            source_bracket(gm, s_e, s_e)

    def test_source_bracket_trap_message(self, osp_chart):
        # a polynomial off the invariant subalgebra trips the re-embed
        # check when smuggled through the restriction
        gm = graded_miura(osp_chart)
        amb = gm.ring
        stray = amb.gen(0)  # a bare coordinate is not a slice function
        r = gm._restrict(stray)
        assert gm._embed(r) != stray


# -- the chart's rings, shared with the arc side ------------------------------


class TestSharedRings:
    def test_graded_miura_reads_the_chart(self):
        ch = principal_chart(build_sl(3, 0))
        gm = graded_miura(ch)
        assert gm.ring is ch.ring and gm.source is ch.slice_ring
        assert gm.finite is ch.miura
        assert gm.bracket_machine.ring is ch.ring

    def test_served_jets_leave_the_generator_counts(self):
        # jets served through the Miura morphism land in the chart's own
        # rings; the cohomology oracle and the H^0 counts read the
        # order-zero slice generators only
        config = JobConfig(algebra="sl3", max_weight=Fraction(4))
        untouched = principal_chart(build_sl(3, 0))
        ch = principal_chart(build_sl(3, 0))
        gm = graded_miura(ch)
        for n in range(len(ch.inv_order)):
            gm.morphism.image(ch.slice_ring.derivative_index(n))
        assert len(ch.slice_ring.variables) > len(ch.inv_order)
        assert len(ch.ring.variables) > len(ch.coord_indices)
        assert ch.slice_generators() == ch.slice_ring.variables[:2]
        assert _stage_cohomology(config, {"chart": ch}) \
            == _stage_cohomology(config, {"chart": untouched})
        h0 = h0_truncated(ch, 4)
        assert h0.expected == {0: 1, 4: 1, 6: 2, 8: 3}
        assert h0.consistent(h0.dimensions())


# -- the intertwining check against the all-ordered-pairs loop ----------------


MIURA_CASES = ["sl2", "sl3", "osp12", "sl(2|1)", "sl(3|2)"]


@pytest.fixture(scope="module")
def miura_charts():
    return {name: chart_for(name) for name in MIURA_CASES}


def _outcome(check, gm):
    try:
        return check(gm)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _double_last_image(gm):
    """Replace the Miura map by one whose last generator image is doubled."""
    n = len(gm.chart.inv_order)
    gm.morphism = DifferentialMorphism(
        gm.source, gm.ring,
        {k: gm.morphism.image(k) * (2 if k == n - 1 else 1)
         for k in range(n)})


class TestIntertwiningOnUnorderedPairs:
    @pytest.mark.parametrize("name", MIURA_CASES)
    def test_matches_all_pairs_oracle(self, miura_charts, name):
        ch = miura_charts[name]
        got = graded_miura(ch).check_intertwining()
        assert got == check_all_ordered_pairs(graded_miura(ch))
        assert len(got) == len(ch.inv_order) ** 2

    @pytest.mark.parametrize("name", MIURA_CASES)
    def test_broken_map_fails_like_the_oracle(self, miura_charts, name):
        # with one image doubled both checks stop on the same pair; on
        # sl2 and sl3, whose slice brackets vanish, both still pass
        gm, oracle = graded_miura(miura_charts[name]), \
            graded_miura(miura_charts[name])
        _double_last_image(gm)
        _double_last_image(oracle)
        want = _outcome(check_all_ordered_pairs, oracle)
        assert _outcome(GradedMiura.check_intertwining, gm) == want
        if name not in ("sl2", "sl3"):
            assert want.startswith(
                "ValueError: Miura images fail the Poisson bracket")

    @pytest.mark.parametrize("name", MIURA_CASES)
    def test_source_bracket_is_skew(self, miura_charts, name):
        gm = graded_miura(miura_charts[name])
        src = gm.source
        n = len(gm.chart.inv_order)
        for a in range(n):
            for b in range(n):
                back = source_bracket(gm, src.gen(a), src.gen(b))
                if not (src.parity_of(a) and src.parity_of(b)):
                    back = -back
                assert source_bracket(gm, src.gen(b),
                                      src.gen(a)) == back
            if not src.parity_of(a):
                assert source_bracket(gm, src.gen(a),
                                      src.gen(a)).is_zero()

    @pytest.mark.parametrize("name", ["osp12", "sl(2|1)", "sl(3|2)"])
    def test_source_brackets_taken(self, miura_charts, name, monkeypatch):
        # one per unordered pair of distinct generators, one per odd
        # diagonal
        gm = graded_miura(miura_charts[name])
        calls = []
        real = gm._to_slice
        monkeypatch.setattr(gm, "_to_slice",
                            lambda P: calls.append(1) or real(P))
        gm.check_intertwining()
        n = len(gm.chart.inv_order)
        odd = sum(gm.source.parity_of(k) for k in range(n))
        assert odd and len(calls) == n * (n - 1) // 2 + odd

    def test_non_skew_table_entry_refused(self, osp_chart, monkeypatch):
        # {z_h, z_h} = z_vp * z_vm: an even diagonal must vanish
        gm = graded_miura(osp_chart)
        R = gm.ring
        bogus = R.gen("z_vp") * R.gen("z_vm")
        monkeypatch.setitem(gm.bracket_machine.table,
                            (R.index["z_h"], R.index["z_h"]), bogus)
        with pytest.raises(ValueError, match=r"bracket table is not "
                           r"skew-symmetric at \(z_h, z_h\)"):
            gm.check_intertwining()

    def test_one_sided_table_entry_refused(self, osp_chart, monkeypatch):
        # {z_vp, z_h} present without its partner {z_h, z_vp}
        gm = graded_miura(osp_chart)
        R = gm.ring
        vp, h = R.index["z_vp"], R.index["z_h"]
        table = gm.bracket_machine.table
        assert (h, vp) in table and (vp, h) in table
        monkeypatch.delitem(table, (h, vp))
        with pytest.raises(ValueError,
                           match="bracket table is not skew-symmetric"):
            gm.check_intertwining()

"""Weight-graded CE cohomology: block machinery, both coefficient
modules, and the de Rham cross-check.

Size oracles: H^0 of the slice module must match the monomial counts of
the free graded ring on the chart's invariant generators (computed by an
independent knapsack count), and the regular module must have the
cohomology of a point.  Small blocks are pinned by hand.  The gauge
action fields are compared with the former scratch-parameter
linearisation of the adjoint orbit series in gauge_action_oracle.
"""

from fractions import Fraction

import pytest

import block_enumeration_oracle
import gauge_action_oracle
from charts import make_chart
from cross_checks import de_rham_check
from dense_oracles import dense_rank
from koszul_oracle import arc_complex, full_rank_table, leading_part

from superslice.cli import resolve_algebra
from superslice.cohomology import (GradedComplex, OddDerivation,
                                   cohomology_table, differential,
                                   kernel_generators, linear_part,
                                   regular_ce_complex, slice_ce_complex,
                                   weighted_monomial_counts,
                                   _gauge_action_fields)
from superslice.liealg import (build_osp_1_2, build_sl, dynkin_grading,
                               parse_nilpotent, principal_nilpotent,
                               sl2_triple_for)
from superslice.linalg import row_rank
from superslice.pva import brst_complex, h0_truncated
from superslice.superpoly import (PolyRing, SuperPolynomial, Variable, pack,
                                  unpack)


def principal_setup(alg):
    f = principal_nilpotent(alg)
    triple = sl2_triple_for(alg, f)
    grading = dynkin_grading(alg, triple)
    return triple, grading


def chart_for(name, nilpotent):
    alg, _ = resolve_algebra(name)
    triple = sl2_triple_for(alg, parse_nilpotent(alg, nilpotent))
    return make_chart(alg, triple)


def names(ring):
    return [v.name for v in ring.variables]


@pytest.fixture(scope="module")
def sl2_data():
    alg = build_sl(2)
    return (alg,) + principal_setup(alg)


@pytest.fixture(scope="module")
def sl3_data():
    alg = build_sl(3)
    return (alg,) + principal_setup(alg)


@pytest.fixture(scope="module")
def osp_data():
    alg = build_osp_1_2()
    return (alg,) + principal_setup(alg)


@pytest.fixture(scope="module")
def sl21_data():
    alg = build_sl(2, 1)
    return (alg,) + principal_setup(alg)


# -- regular coefficients --------------------------------------------------------


class TestRegular:
    def test_sl2_blocks_by_hand(self, sl2_data):
        alg, triple, grading = sl2_data
        cx = regular_ce_complex(alg, grading, max_weight=3)
        # one even coordinate x, one odd ghost ph, both of weight -1
        assert cx.block_basis(0, -2) == [pack(((0, 1),))]
        assert cx.block_basis(1, -2) == [pack(((1, 1),))]
        x, ph = cx.ring.gen(0), cx.ring.gen(1)
        assert cx.d(x * x) == x * ph * 2  # d(x^2) = 2 x ph
        # the transpose as integer rows den * d(m): one source, one target
        assert cx.d.den == 1
        assert cx.d_matrix(0, -4) == [{0: 2}]

    def test_sl2_point_cohomology(self, sl2_data):
        alg, triple, grading = sl2_data
        cx = regular_ce_complex(alg, grading, max_weight=3)
        table = cohomology_table(cx)
        for (k, w), dim in table.items():
            assert dim == (1 if (k == 0 and w == 0) else 0), (k, w)

    def test_heisenberg_point_cohomology(self, sl3_data):
        # positive part of sl3 = Heisenberg; all weights down to -4
        alg, triple, grading = sl3_data
        cx = regular_ce_complex(alg, grading, max_weight=4)
        table = cohomology_table(cx)
        weights = {w for _, w in table}
        assert {Fraction(0), Fraction(-2), Fraction(-4)} <= weights
        for (k, w), dim in table.items():
            assert dim == (1 if (k == 0 and w == 0) else 0), (k, w)

    def test_super_positive_parts(self, osp_data, sl21_data):
        for alg, triple, grading in (osp_data, sl21_data):
            cx = regular_ce_complex(alg, grading, max_weight=3)
            for (k, w), dim in cohomology_table(cx).items():
                assert dim == (1 if (k == 0 and w == 0) else 0), (k, w)


# -- slice-module coefficients ---------------------------------------------------


class TestSliceModule:
    def test_sl3_h0_counts_invariant_monomials(self, sl3_data):
        alg, triple, grading = sl3_data
        chart = make_chart(alg, triple, grading)
        cx = slice_ce_complex(chart, max_weight=6)
        gens = [(v.wt2, v.parity) for v in chart.slice_ring.variables]
        want = weighted_monomial_counts(gens, 12)
        for n2 in range(0, 13):
            got = cx.cohomology_dim(0, Fraction(n2, 2))
            assert got == want.get(n2, 0), n2
        # spot values: generators at weights 2 and 3, and both s1^3, s2^2
        # plus s1 s2... weight 6 holds s1^3 and s2^2
        assert cx.cohomology_dim(0, 6) == 2

    def test_osp_h0_includes_odd_generator(self, osp_data):
        alg, triple, grading = osp_data
        chart = make_chart(alg, triple, grading)
        cx = slice_ce_complex(chart, max_weight=3)
        assert cx.cohomology_dim(0, Fraction(3, 2)) == 1
        assert cx.cohomology_dim(0, 2) == 1
        assert cx.cohomology_dim(0, 3) == 0  # odd square is zero
        gens = [(v.wt2, v.parity) for v in chart.slice_ring.variables]
        want = weighted_monomial_counts(gens, 6)
        for n2 in range(0, 7):
            assert cx.cohomology_dim(0, Fraction(n2, 2)) == want.get(n2, 0)

    def test_sl21_h0_counts(self, sl21_data):
        alg, triple, grading = sl21_data
        chart = make_chart(alg, triple, grading)
        cx = slice_ce_complex(chart, max_weight=3)
        gens = [(v.wt2, v.parity) for v in chart.slice_ring.variables]
        want = weighted_monomial_counts(gens, 6)
        got = {n2: cx.cohomology_dim(0, Fraction(n2, 2)) for n2 in range(7)}
        assert got == {n2: want.get(n2, 0) for n2 in range(7)}

    def test_gauge_fields_are_a_homomorphism(self, osp_data):
        alg, triple, grading = osp_data
        chart = make_chart(alg, triple, grading)
        m = len(chart.coord_indices)
        ring = PolyRing([Variable(v.name, v.parity, wt2=v.wt2)
                         for v in chart.ring.variables[:m]])
        fields = _gauge_action_fields(chart, ring)
        pos_idx = grading.positive_indices()
        var_idx = list(range(m))

        def compose(fa, fb):
            # (sum_b fa[b] d/dz_b) applied to each component of fb
            return [sum((c * comp.partial_derivative(v)
                         for c, v in zip(fa, var_idx)), ring.zero())
                    for comp in fb]

        for a, ia in enumerate(pos_idx):
            for b, ib in enumerate(pos_idx):
                sgn = -1 if (alg.parities[ia] and alg.parities[ib]) else 1
                ab, ba = compose(fields[a], fields[b]), \
                    compose(fields[b], fields[a])
                comm = [x - y * Fraction(sgn) for x, y in zip(ab, ba)]
                br = alg.bracket_num(alg.basis_vector(ia),
                                     alg.basis_vector(ib))
                want = [ring.zero() for _ in range(m)]
                for k, c in enumerate(br):
                    if c:
                        want = [w + x * c
                                for w, x in zip(want, fields[pos_idx.index(k)])]
                assert all((x - y).is_zero() for x, y in zip(comm, want))

    @pytest.mark.parametrize("name,nilpotent", [
        ("sl2", "principal"), ("sl3", "principal"), ("osp12", "principal"),
        ("sl(2|1)", "principal"), ("sl(3|1)", "principal"), ("sl4", "e21"),
        ("sl5", "principal"), ("sl(3|2)", "principal")])
    def test_gauge_fields_match_orbit_series_oracle(self, name, nilpotent):
        chart = chart_for(name, nilpotent)
        before = names(chart.ring)
        got = _gauge_action_fields(chart, chart.ring)
        assert names(chart.ring) == before
        # the oracle appends its scratch parameters to the same ring
        want = gauge_action_oracle.gauge_action_fields(chart, chart.ring)
        assert got == want

    def test_truncation_consistency(self, sl3_data):
        alg, triple, grading = sl3_data
        chart = make_chart(alg, triple, grading)
        small = slice_ce_complex(chart, max_weight=3)
        large = slice_ce_complex(chart, max_weight=4)
        for n2 in range(0, 7):
            for k in range(0, small.max_degree(n2) + 1):
                w = Fraction(n2, 2)
                assert small.cohomology_dim(k, w) == large.cohomology_dim(k, w)

    def test_block_outside_truncation(self, osp_data):
        alg, triple, grading = osp_data
        chart = make_chart(alg, triple, grading)
        cx = slice_ce_complex(chart, max_weight=2)
        with pytest.raises(ValueError, match="outside the truncation"):
            cx.cohomology_dim(0, 3)
        with pytest.raises(ValueError, match="outside the truncation"):
            cx.cohomology_dim(0, -1)  # wrong sign for this complex


# -- builders and guards ---------------------------------------------------------


class TestBuildDispatch:
    def test_regular_and_slice_alias(self, osp_data):
        alg, triple, grading = osp_data
        chart = make_chart(alg, triple, grading)
        cx = regular_ce_complex(alg, grading, max_weight=2)
        assert cx.cohomology_dim(0, 0) == 1
        sx = slice_ce_complex(chart, max_weight=2)
        assert sx.cohomology_dim(0, 2) == 1

    @pytest.mark.parametrize("name,nilpotent", [
        ("sl(2|1)", "principal"), ("sl4", "e21")])
    def test_builders_leave_every_ring_unchanged(self, name, nilpotent):
        chart = chart_for(name, nilpotent)
        given = [chart.ring, chart.slice_ring]
        before = [names(r) for r in given]
        reg = regular_ce_complex(chart.alg, chart.grading, max_weight=2)
        sx = slice_ce_complex(chart, max_weight=2)
        Q = brst_complex(chart)
        assert [names(r) for r in given] == before
        # each complex's own ring holds its module variables and ghosts,
        # and the arc complex's Q is the slice complex's d
        assert len(reg.ring.variables) == len(reg.positions)
        assert len(sx.ring.variables) == len(sx.positions)
        assert Q is sx.d

    def test_slice_complex_after_the_arc_jets(self):
        # the jet-level arc complex adds jets to the chart's gauge ring
        # after the ghosts; a slice complex built after it still sits on
        # the m coordinates and n ghosts, and its table is an untouched
        # chart's
        chart = chart_for("sl(2|1)", "principal")
        arc_complex(chart, 4)
        ring = chart.gauge_ce.ring
        m = len(chart.coord_indices)
        n = len(chart.grading.positive_indices())
        assert len(ring.variables) > m + n
        sx = slice_ce_complex(chart, 4)
        assert sx.ring is ring and sx.positions == list(range(m + n))
        untouched = slice_ce_complex(chart_for("sl(2|1)", "principal"), 4)
        assert len(untouched.ring.variables) == m + n
        assert cohomology_table(sx) == cohomology_table(untouched)

    @pytest.mark.parametrize("name,nilpotent", [
        ("sl(2|1)", "principal"), ("sl4", "e21")])
    def test_h0_truncation_adds_no_jet(self, name, nilpotent):
        # pva-h0 reads delta on the order-zero positions: the chart's
        # gauge ring keeps its m coordinates and n ghosts
        chart = chart_for(name, nilpotent)
        before = len(chart.gauge_ce.ring.variables)
        h0 = h0_truncated(chart, 4)
        assert h0.consistent(h0.dimensions())
        assert len(chart.gauge_ce.ring.variables) == before

    def test_non_half_integer_weight_rejected(self, osp_data):
        alg, triple, grading = osp_data
        cx = regular_ce_complex(alg, grading, max_weight=2)
        with pytest.raises(ValueError, match="half-integer"):
            cx.cohomology_dim(0, Fraction(1, 3))

    def test_square_trap(self):
        # d(x) = ph, d(ph) = x is not a differential: d^2(x) = x
        ring = PolyRing([Variable("x", 0, wt2=-2), Variable("ph", 1, wt2=-2)])
        images = {0: ring.gen(1), 1: ring.gen(0)}
        with pytest.raises(ValueError, match=r"d\^2 != 0"):
            GradedComplex(differential(ring, images), [0], [1], 6)

    def test_mixed_weight_signs_rejected(self):
        ring = PolyRing([Variable("x", 0, wt2=-2), Variable("ph", 1, wt2=2)])
        with pytest.raises(ValueError, match="share a sign"):
            GradedComplex(differential(ring, {}), [0], [1], 6)

    @pytest.mark.parametrize("max_wt2", [-1, -2])
    def test_negative_truncation_rejected(self, max_wt2):
        # no block would survive, so every table would be vacuously empty
        ring = PolyRing([Variable("x", 0, wt2=-2), Variable("ph", 1, wt2=-2)])
        with pytest.raises(ValueError, match="at least 0"):
            GradedComplex(differential(ring, {0: ring.gen(1)}),
                          [0], [1], max_wt2)

    def test_negative_max_weight_rejected_by_builders(self, sl3_data):
        alg, triple, grading = sl3_data
        with pytest.raises(ValueError, match="at least 0"):
            regular_ce_complex(alg, grading, max_weight=-1)
        with pytest.raises(ValueError, match="at least 0"):
            slice_ce_complex(make_chart(alg, triple, grading), max_weight=-1)

    def test_missing_weight_rejected(self):
        ring = PolyRing([Variable("x", 0), Variable("ph", 1, wt2=-2)])
        with pytest.raises(ValueError, match="nonzero weight"):
            GradedComplex(differential(ring, {}), [0], [1], 6)


# -- de Rham cross-check ---------------------------------------------------------


class TestDeRham:
    @pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (1, 1), (2, 1)])
    def test_poincare(self, p, q):
        table = de_rham_check(p, q, max_degree=4)
        for (k, deg), dim in table.items():
            assert dim == (1 if (k, deg) == (0, 0) else 0), (k, deg)

    def test_odd_line_differential_by_hand(self):
        # on C^{0|1}: d(th . dth^m) = -dth^{m+1}, so every positive-degree
        # block is exact
        ring = PolyRing([Variable("th", 1, wt2=2), Variable("dth", 0, wt2=2)])
        d = OddDerivation(ring, {0: -ring.gen(1)})
        th, dth = ring.gen(0), ring.gen(1)
        assert d(th) == -dth
        assert d(th * dth) == -(dth * dth)
        assert d(dth * dth).is_zero()


# -- the integer differential against the polynomial one ------------------------


def dense_d_rows(cx, k, n2):
    """The transpose of the matrix of d on block (k, n2) in Fractions,
    built from cx.d applied to each basis monomial."""
    where = {m: t for t, m in enumerate(cx.block_basis(k + 1, n2))}
    rows = []
    for m in cx.block_basis(k, n2):
        row = [Fraction(0)] * len(where)
        for mm, c in cx.d(SuperPolynomial(cx.ring, {m: Fraction(1)})
                          ).items():
            row[where[mm]] = c
        rows.append(row)
    return rows


def assert_block_ranks_match_dense(cx):
    """Rank of d and dim H^k against the dense oracle on every block."""
    blocks = 0
    for a2 in range(cx.max_wt2 + 1):
        n2 = a2 * cx.sign
        below = 0  # rank of d from block k - 1 into block k
        for k in range(cx.max_degree(n2) + 1):
            rows = dense_d_rows(cx, k, n2)
            rank = dense_rank(rows) if rows and rows[0] else 0
            assert row_rank(cx.d_matrix(k, n2)) == rank, (k, n2)
            assert cx.cohomology_dim(k, Fraction(n2, 2)) == \
                cx.block_dim(k, n2) - rank - below, (k, n2)
            below = rank
            blocks += 1
    assert blocks > 10


class TestIntegerRows:
    def test_slice_sl21_block_ranks(self, sl21_data):
        alg, triple, grading = sl21_data
        assert_block_ranks_match_dense(
            slice_ce_complex(make_chart(alg, triple, grading), max_weight=4))

    def test_regular_sl4_block_ranks(self):
        alg = build_sl(4)
        _, grading = principal_setup(alg)
        assert_block_ranks_match_dense(
            regular_ce_complex(alg, grading, max_weight=6))

    def test_brst_h0_block_ranks(self, sl21_data):
        alg, triple, grading = sl21_data
        chart = make_chart(alg, triple, grading)
        assert_block_ranks_match_dense(arc_complex(chart, 3))

    def test_rows_are_exact_images(self, sl21_data):
        alg, triple, grading = sl21_data
        cx = slice_ce_complex(make_chart(alg, triple, grading), max_weight=4)
        den = cx.d.den
        for k in range(3):
            rows = cx.d_matrix(k, 6)
            dense = dense_d_rows(cx, k, 6)
            assert len(rows) == len(dense) == cx.block_dim(k, 6)
            for row, want in zip(rows, dense):
                assert all(isinstance(x, int) for x in row.values())
                # row = den * d(m), entry for entry
                assert row == {t: den * c for t, c in enumerate(want) if c}


class TestOneDenominator:
    def test_lazy_image_outside_the_denominator_raises(self):
        # values() lists d(x) = 2 th over the denominator 1; get also
        # serves d(y) = th / 3, the way cohomology._JetImages serves jets
        ring = PolyRing([Variable("x", 0, wt2=2), Variable("y", 0, wt2=2),
                         Variable("th", 1, wt2=2)])
        th = ring.gen(2)

        class LazyTable:
            base = {0: th * 2}

            def values(self):
                return self.base.values()

            def get(self, j, default=None):
                return th * Fraction(1, 3) if j == 1 else \
                    self.base.get(j, default)

        d = OddDerivation(ring, LazyTable())
        assert d.den == 1
        assert d(ring.gen(0)) == th * 2
        with pytest.raises(ValueError, match="denominator 3"):
            d(ring.gen(1))
        with pytest.raises(ValueError, match="denominator 3"):
            d(ring.gen(0) * ring.gen(1))

    def test_jet_images_share_the_denominator(self, sl2_data):
        alg, triple, grading = sl2_data
        Q = brst_complex(make_chart(alg, triple, grading))
        ring = Q.ring
        jet = ring.derivative_index(ring.derivative_index(0))
        got = Q(ring.gen(jet))
        want = Q(ring.gen(0)).total_derivative().total_derivative()
        assert got == want
        assert all(Q.den % c.denominator == 0
                   for _, c in got.items())


# -- the closed form from delta and the block enumerator -----------------------


CERTIFIED_SLICES = [("sl2", "principal"), ("sl3", "principal"),
                    ("sl5", "principal"), ("osp12", "principal"),
                    ("sl(2|1)", "principal"), ("sl(1|2)", "principal"),
                    ("sl(2|2)", "principal"), ("sl(3|2)", "principal"),
                    ("sl3", "e21"), ("sl4", "e21"), ("sl4", "e21+e43"),
                    ("sl4", "e31"), ("sl(2|1)", "e21"), ("sl(3|1)", "e21")]
CERTIFIED_REGULAR = [("sl3", "principal"), ("osp12", "principal"),
                     ("sl(2|1)", "principal"), ("sl4", "e21")]
CERTIFIED_ARCS = [("sl2", "principal"), ("sl3", "principal"),
                  ("osp12", "principal"), ("sl(2|1)", "principal"),
                  ("sl(3|2)", "principal"), ("sl4", "e21")]


@pytest.fixture
def d_matrix_calls(monkeypatch):
    """The doubled weight of every GradedComplex.d_matrix call."""
    calls = []
    real = GradedComplex.d_matrix

    def counting(self, k, n2):
        calls.append(n2)
        return real(self, k, n2)

    monkeypatch.setattr(GradedComplex, "d_matrix", counting)
    return calls


class TestKoszulCertificate:
    @staticmethod
    def assert_certified(cx, calls):
        """The closed form takes no rank of d and equals the full-rank
        table; and H(d_0) is Sym(ker delta), all in degree 0 (Kunneth),
        by the ranks of d_0."""
        h0 = weighted_monomial_counts(kernel_generators(cx), cx.max_wt2)
        table = cohomology_table(cx)
        assert calls == []
        assert table == full_rank_table(cx)
        for (k, w), dim in full_rank_table(leading_part(cx)).items():
            want = h0.get(abs(2 * w), 0) if k == 0 else 0
            assert dim == want, (k, w)

    @pytest.mark.parametrize("name,nilpotent", CERTIFIED_SLICES)
    def test_slice_tables(self, name, nilpotent, d_matrix_calls):
        chart = chart_for(name, nilpotent)
        cx = slice_ce_complex(chart, max_weight=3)
        # the transversality of the slice: ker delta has the weights and
        # parities of the slice generators
        assert sorted(kernel_generators(cx)) == sorted(
            (v.wt2, v.parity) for v in chart.slice_generators())
        self.assert_certified(cx, d_matrix_calls)

    @pytest.mark.parametrize("name,nilpotent", CERTIFIED_SLICES)
    def test_delta_is_onto(self, name, nilpotent):
        # delta(z_b) = sum_a ([f, v_a])_b ph_a and ad_f is injective on
        # g_+ on every good grading: rank delta is dim g_+
        chart = chart_for(name, nilpotent)
        blocks = linear_part(slice_ce_complex(chart, max_weight=1))
        assert sum(r for r, _, _ in blocks.values()) == \
            len(chart.grading.positive_indices())

    @pytest.mark.parametrize("name,nilpotent", CERTIFIED_REGULAR)
    def test_regular_tables(self, name, nilpotent, d_matrix_calls):
        chart = chart_for(name, nilpotent)
        cx = regular_ce_complex(chart.alg, chart.grading, max_weight=3)
        assert kernel_generators(cx) == []  # delta is an isomorphism
        self.assert_certified(cx, d_matrix_calls)

    @pytest.mark.parametrize("name,nilpotent", CERTIFIED_ARCS)
    def test_arc_h0_dimensions(self, name, nilpotent, d_matrix_calls):
        chart = chart_for(name, nilpotent)
        h0 = h0_truncated(chart, 4)
        got = h0.dimensions()
        assert d_matrix_calls == []
        assert h0.consistent(got)
        # the ranks of Q on every jet up to the cutoff
        arc = arc_complex(chart, 4)
        assert got == {w: arc.cohomology_dim(0, w) for w in got}

    def test_linear_part_of_a_super_chart(self):
        # sl(2|1): the odd z_e23, z_e31 of weight 1/2 meet the even
        # ghosts ph_e13, ph_e32, and z_h1, z_h2 of weight 1 the odd
        # ph_e12; the kernel is s1 (1, even), s2, s3 (3/2, odd), s4 (2)
        cx = slice_ce_complex(chart_for("sl(2|1)", "principal"), 3)
        assert linear_part(cx) == {(1, 1): (2, 0, 0), (2, 0): (1, 1, 0),
                                   (3, 1): (0, 2, 0), (4, 0): (0, 1, 0)}

    def test_leading_part_of_the_slice_complex(self, sl2_data):
        # d(z_e12) = 2 z_h1 ph_e12 and d(z_h1) = -ph_e12 on sl2: d_0 keeps
        # the constant part of each gauge field times its ghost
        alg, triple, grading = sl2_data
        cx = slice_ce_complex(make_chart(alg, triple, grading), 2)
        lead = leading_part(cx)
        assert lead._memo is cx._memo
        ring = cx.ring
        ph = ring.gen("ph_e12")
        assert lead.d.images.get(ring.index["z_e12"]).is_zero()
        assert lead.d.images.get(ring.index["z_h1"]) == -ph
        for j, img in cx.d.images.base.items():
            low = {m: c for m, c in img.items()
                   if sum(e for _, e in unpack(m)) == 1}
            assert dict(lead.d.images.get(j).items()) == low
        # delta: z_h1 onto ph_e12 at weight 1, z_e12 in the kernel
        assert linear_part(cx) == {(2, 0): (1, 0, 0), (4, 0): (0, 1, 0)}

    def test_leading_part_drops_the_ghost_images(self, sl3_data):
        alg, triple, grading = sl3_data
        cx = slice_ce_complex(make_chart(alg, triple, grading), 2)
        lead = leading_part(cx)
        images, low = cx.d.images, lead.d.images
        ghosts = [j for j in cx.ghost_positions if j in images.base]
        assert any(not images.get(j).is_zero() for j in ghosts)
        assert all(low.get(j).is_zero() for j in ghosts)

    def test_inexact_leading_part_falls_back(self, d_matrix_calls):
        # d(u) = c x has degree 2, so delta = 0 and H^1(d_0) at weight 1
        # holds c x, which d hits: the closed form does not hold there,
        # so the table is refused and only the ranks of d give it
        ring = PolyRing([Variable("x", 0, wt2=1), Variable("u", 0, wt2=2),
                         Variable("c", 1, wt2=1)])
        x, c = ring.gen(0), ring.gen(2)
        cx = GradedComplex(differential(ring, {1: c * x}),
                           [0, 1], [2], 4)
        assert linear_part(cx) == {(1, 0): (0, 1, 1), (2, 0): (0, 1, 0)}
        with pytest.raises(ValueError,
                           match=r"delta is not onto at weight 1/2$"):
            cohomology_table(cx)
        assert d_matrix_calls == []
        assert leading_part(cx).cohomology_dim(1, 1) == 1
        table = full_rank_table(cx)
        # weight 1: u and x^2 in degree 0, c x in degree 1, d(u) = c x
        assert table[(0, 1)] == 1 and table[(1, 1)] == 0

    def test_heavy_cokernel_falls_back_from_its_weight(self, d_matrix_calls):
        # d(y) = a is onto at weight 1; the ghost b of weight 3 is hit by
        # no degree-1 term, so the closed form would hold only below
        # weight 3, and the table is refused naming that weight; the
        # ranks of d find that d(u) = b x kills the class b x that d_0
        # leaves at weight 4
        ring = PolyRing([Variable("x", 0, wt2=2), Variable("y", 0, wt2=2),
                         Variable("u", 0, wt2=8), Variable("a", 1, wt2=2),
                         Variable("b", 1, wt2=6)])
        x, a, b = ring.gen(0), ring.gen(3), ring.gen(4)
        cx = GradedComplex(differential(ring, {1: a, 2: b * x}),
                           [0, 1, 2], [3, 4], 10)
        assert linear_part(cx) == {(2, 0): (1, 1, 0), (6, 0): (0, 0, 1),
                                   (8, 0): (0, 1, 0)}
        with pytest.raises(ValueError,
                           match=r"delta is not onto at weight 3$"):
            kernel_generators(cx)
        with pytest.raises(ValueError,
                           match=r"delta is not onto at weight 3$"):
            cohomology_table(cx)
        assert d_matrix_calls == []
        table = full_rank_table(cx)
        assert leading_part(cx).cohomology_dim(1, 4) == 1
        assert table[(1, 4)] == 0
        # below weight 3 the ranks agree with the counts of ker delta
        assert table[(0, 1)] == table[(0, 2)] == 1

    def test_non_koszul_shape_falls_back_everywhere(self, d_matrix_calls):
        # d(x) = e meets a ghost of the module variable's own parity, not
        # a ghost of its block: no weight is taken from the closed form
        ring = PolyRing([Variable("x", 0, wt2=2), Variable("e", 0, wt2=2)])
        cx = GradedComplex(differential(ring, {0: ring.gen(1)}),
                           [0], [1], 6)
        for read in (linear_part, kernel_generators, cohomology_table):
            with pytest.raises(ValueError,
                               match="image of x is not of Koszul shape"):
                read(cx)
        assert d_matrix_calls == []
        table = full_rank_table(cx)
        assert table[(0, 0)] == 1 and table[(0, 1)] == 0

    @pytest.mark.parametrize("images", [
        # a degree-1 term on a module variable: d(t) = x
        lambda ring: {1: ring.gen(0)},
        # a ghost image with a degree-1 part: d(c) = e
        lambda ring: {2: ring.gen(3)}])
    def test_ghost_degree_kept_reaches_the_rank_path(self, images):
        # neither is of Koszul shape, so the table is refused, and the
        # rank reference finds that d keeps the ghost degree
        ring = PolyRing([Variable("x", 0, wt2=2), Variable("t", 1, wt2=2),
                         Variable("c", 1, wt2=2), Variable("e", 0, wt2=2)])
        cx = GradedComplex(differential(ring, images(ring)),
                           [0, 1], [2, 3], 6)
        with pytest.raises(ValueError, match="is not of Koszul shape"):
            cohomology_table(cx)
        with pytest.raises(ValueError, match="left its weight block"):
            full_rank_table(cx)

    def test_degree_zero_image_raises(self):
        ring = PolyRing([Variable("x", 0, wt2=2), Variable("c", 1, wt2=2)])
        images = {0: ring.one() + ring.gen(1)}
        cx = GradedComplex(differential(ring, images), [0], [1], 4)
        with pytest.raises(ValueError, match="term of degree 0"):
            cohomology_table(cx)


class TestBlockEnumeration:
    @pytest.mark.parametrize("name,nilpotent", [
        ("sl(2|1)", "principal"), ("sl4", "e21"), ("osp12", "principal")])
    def test_memoized_blocks_match_the_recursion(self, name, nilpotent):
        chart = chart_for(name, nilpotent)
        for cx in (slice_ce_complex(chart, max_weight=4),
                   regular_ce_complex(chart.alg, chart.grading, 4),
                   arc_complex(chart, 4)):
            for a2 in range(cx.max_wt2 + 1):
                n2 = a2 * cx.sign
                want = block_enumeration_oracle.weight_blocks(cx, n2)
                got = {k: cx.block_basis(k, n2) for k in want}
                assert got == want, n2  # same monomials, same order
                assert cx.max_degree(n2) == max(want, default=0)

    def test_max_degree_takes_an_odd_variable_once(self):
        # the odd ghost c of weight 1/2 squares to zero: weight 1 holds
        # only x, so an exponent 2 of c would give degree 2 there
        ring = PolyRing([Variable("x", 0, wt2=2), Variable("c", 1, wt2=1)])
        cx = GradedComplex(differential(ring, {}), [0], [1], 4)
        got = [cx.max_degree(n2) for n2 in range(5)]
        assert got == [0, 1, 0, 1, 0]
        assert got == [max(block_enumeration_oracle.weight_blocks(cx, n2),
                           default=0) for n2 in range(5)]


# -- counting helper -------------------------------------------------------------


class TestCounts:
    def test_single_even_generator(self):
        assert weighted_monomial_counts([(2, 0)], 8) == {
            0: 1, 2: 1, 4: 1, 6: 1, 8: 1}

    def test_single_odd_generator(self):
        assert weighted_monomial_counts([(3, 1)], 8) == {0: 1, 3: 1}

    def test_mixed(self):
        got = weighted_monomial_counts([(2, 0), (3, 1)], 7)
        assert got == {0: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}

    def test_bad_weight(self):
        with pytest.raises(ValueError, match="positive"):
            weighted_monomial_counts([(0, 0)], 4)

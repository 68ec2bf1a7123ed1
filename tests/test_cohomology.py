"""Weight-graded CE cohomology: block machinery, both coefficient
modules, and the de Rham cross-check.

Size oracles: H^0 of the slice module must match the monomial counts of
the free graded ring on the chart's invariant generators (computed by an
independent knapsack count), and the regular module must have the
cohomology of a point.  Small blocks are pinned by hand.  The gauge
action fields are compared with the former scratch-parameter
linearisation of the adjoint orbit series in gauge_action_oracle.
"""

import math
from fractions import Fraction

import pytest

import gauge_action_oracle
from dense_oracles import dense_rank

from superslice.cli import resolve_algebra
from superslice.cohomology import (GradedComplex, OddDerivation,
                                   cohomology_table, de_rham_check,
                                   regular_ce_complex, slice_ce_complex,
                                   weighted_monomial_counts,
                                   _gauge_action_fields)
from superslice.liealg import (build_osp_1_2, build_sl, dynkin_grading,
                               parse_nilpotent, principal_nilpotent,
                               sl2_triple_for)
from superslice.linalg import row_rank
from superslice.pva import BRSTComplex, h0_truncated
from superslice.slice import gauge_fix
from superslice.superpoly import PolyRing, SuperPolynomial, Variable, pack


def principal_setup(alg):
    f = principal_nilpotent(alg)
    triple = sl2_triple_for(alg, f)
    grading = dynkin_grading(alg, triple)
    return triple, grading


def chart_for(name, nilpotent):
    alg, _ = resolve_algebra(name)
    triple = sl2_triple_for(alg, parse_nilpotent(alg, nilpotent))
    return gauge_fix(alg, triple, dynkin_grading(alg, triple))


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
        # the transpose as primitive integer rows: one source, one target
        assert cx.d_matrix(0, -4) == [{0: 1}]

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
        chart = gauge_fix(alg, triple, grading)
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
        chart = gauge_fix(alg, triple, grading)
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
        chart = gauge_fix(alg, triple, grading)
        cx = slice_ce_complex(chart, max_weight=3)
        gens = [(v.wt2, v.parity) for v in chart.slice_ring.variables]
        want = weighted_monomial_counts(gens, 6)
        got = {n2: cx.cohomology_dim(0, Fraction(n2, 2)) for n2 in range(7)}
        assert got == {n2: want.get(n2, 0) for n2 in range(7)}

    def test_gauge_fields_are_a_homomorphism(self, osp_data):
        alg, triple, grading = osp_data
        chart = gauge_fix(alg, triple, grading)
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
        chart = gauge_fix(alg, triple, grading)
        small = slice_ce_complex(chart, max_weight=3)
        large = slice_ce_complex(chart, max_weight=4)
        for n2 in range(0, 7):
            for k in range(0, small.max_degree(n2) + 1):
                w = Fraction(n2, 2)
                assert small.cohomology_dim(k, w) == large.cohomology_dim(k, w)

    def test_block_outside_truncation(self, osp_data):
        alg, triple, grading = osp_data
        chart = gauge_fix(alg, triple, grading)
        cx = slice_ce_complex(chart, max_weight=2)
        with pytest.raises(ValueError, match="outside the truncation"):
            cx.cohomology_dim(0, 3)
        with pytest.raises(ValueError, match="outside the truncation"):
            cx.cohomology_dim(0, -1)  # wrong sign for this complex


# -- builders and guards ---------------------------------------------------------


class TestBuildDispatch:
    def test_regular_and_slice_alias(self, osp_data):
        alg, triple, grading = osp_data
        chart = gauge_fix(alg, triple, grading)
        cx = regular_ce_complex(alg, grading, max_weight=2)
        assert cx.cohomology_dim(0, 0) == 1
        sx = slice_ce_complex(chart, max_weight=2)
        assert sx.cohomology_dim(0, 2) == 1

    @pytest.mark.parametrize("name,nilpotent", [
        ("sl(2|1)", "principal"), ("sl4", "e21")])
    def test_builders_leave_every_ring_unchanged(self, name, nilpotent):
        chart = chart_for(name, nilpotent)
        ps = chart.poisson
        given = [chart.ring, chart.slice_ring, ps.ring]
        before = [names(r) for r in given]
        reg = regular_ce_complex(chart.alg, chart.grading, max_weight=2)
        sx = slice_ce_complex(chart, max_weight=2)
        brst = BRSTComplex(chart)
        assert [names(r) for r in given] == before
        # each complex's own ring holds its module variables and ghosts
        assert len(reg.ring.variables) == len(reg.positions)
        assert len(sx.ring.variables) == len(sx.positions)
        assert len(brst.ring.variables) == brst.nmod + brst.nghost

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
            GradedComplex(ring, images, [0], [1], 6)

    def test_mixed_weight_signs_rejected(self):
        ring = PolyRing([Variable("x", 0, wt2=-2), Variable("ph", 1, wt2=2)])
        with pytest.raises(ValueError, match="share a sign"):
            GradedComplex(ring, {}, [0], [1], 6)

    @pytest.mark.parametrize("max_wt2", [-1, -2])
    def test_negative_truncation_rejected(self, max_wt2):
        # no block would survive, so every table would be vacuously empty
        ring = PolyRing([Variable("x", 0, wt2=-2), Variable("ph", 1, wt2=-2)])
        with pytest.raises(ValueError, match="at least 0"):
            GradedComplex(ring, {0: ring.gen(1)}, [0], [1], max_wt2)

    def test_negative_max_weight_rejected_by_builders(self, sl3_data):
        alg, triple, grading = sl3_data
        with pytest.raises(ValueError, match="at least 0"):
            regular_ce_complex(alg, grading, max_weight=-1)
        with pytest.raises(ValueError, match="at least 0"):
            slice_ce_complex(gauge_fix(alg, triple, grading), max_weight=-1)

    def test_missing_weight_rejected(self):
        ring = PolyRing([Variable("x", 0), Variable("ph", 1, wt2=-2)])
        with pytest.raises(ValueError, match="nonzero weight"):
            GradedComplex(ring, {}, [0], [1], 6)


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
                          ).terms.items():
            row[where[mm]] = c
        rows.append(row)
    return rows


def assert_block_ranks_match_dense(cx):
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
            slice_ce_complex(gauge_fix(alg, triple, grading), max_weight=4))

    def test_regular_sl4_block_ranks(self):
        alg = build_sl(4)
        _, grading = principal_setup(alg)
        assert_block_ranks_match_dense(
            regular_ce_complex(alg, grading, max_weight=6))

    def test_brst_h0_block_ranks(self, sl21_data):
        alg, triple, grading = sl21_data
        chart = gauge_fix(alg, triple, grading)
        assert_block_ranks_match_dense(
            h0_truncated(BRSTComplex(chart), 3).graded)

    def test_rows_are_primitive_images(self, sl21_data):
        alg, triple, grading = sl21_data
        cx = slice_ce_complex(gauge_fix(alg, triple, grading), max_weight=4)
        for k in range(3):
            rows = cx.d_matrix(k, 6)
            dense = dense_d_rows(cx, k, 6)
            assert len(rows) == len(dense) == cx.block_dim(k, 6)
            for row, want in zip(rows, dense):
                assert all(isinstance(x, int) for x in row.values())
                assert math.gcd(*row.values()) in (0, 1)
                nz = {t: c for t, c in enumerate(want) if c}
                assert set(row) == set(nz)
                # row = s * d(m) for one positive rational s
                assert len({Fraction(row[t]) / c
                            for t, c in nz.items()}) <= 1
                assert all(row[t] * c > 0 for t, c in nz.items())


class TestOneDenominator:
    def test_lazy_image_outside_the_denominator_raises(self):
        # values() lists d(x) = 2 th over the denominator 1; get also
        # serves d(y) = th / 3, the way pva._JetImages serves jets
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
        cx = BRSTComplex(gauge_fix(alg, triple, grading))
        ring = cx.ring
        jet = ring.derivative_index(ring.derivative_index(0))
        got = cx.Q(ring.gen(jet))
        want = cx.Q(ring.gen(0)).total_derivative().total_derivative()
        assert got == want
        assert all(cx.Q.den % c.denominator == 0
                   for c in got.terms.values())


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

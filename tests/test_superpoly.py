"""Superpolynomial arithmetic: signs, derivatives, substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import substitute_oracle
import text_oracle
from superslice.superpoly import (MonomialTrie, PolyRing, RingMap,
                                  SuperPolynomial, Variable, pack)


def ring_xts():
    return PolyRing([Variable("x", 0), Variable("y", 0),
                     Variable("t", 1), Variable("s", 1)])


def test_odd_square_is_zero():
    r = ring_xts()
    t = r.gen("t")
    assert (t * t).is_zero()


def test_koszul_anticommute():
    r = ring_xts()
    t, s = r.gen("t"), r.gen("s")
    assert (t * s + s * t).is_zero()
    assert (t * s).text() == "t*s"
    assert (s * t).text() == "-t*s"


def test_even_odd_commute():
    r = ring_xts()
    x, t = r.gen("x"), r.gen("t")
    assert x * t == t * x


def test_mixed_product_example():
    # (x + t*s)(x*t - s) = x^2 t - x s; the odd-odd-odd terms die
    r = ring_xts()
    x, t, s = r.gen("x"), r.gen("t"), r.gen("s")
    p = (x + t * s) * (x * t - s)
    assert p == x * x * t - x * s


def test_left_derivative_convention():
    r = ring_xts()
    t, s = r.gen("t"), r.gen("s")
    # d/dt (t*s) = s ; d/dt (s*t) = -s
    assert (t * s).partial_derivative("t") == s
    assert (s * t).partial_derivative("t") == -s
    # d/ds (t*s) = -t (move past the odd t)
    assert (t * s).partial_derivative("s") == -t


def test_even_partial():
    r = ring_xts()
    x, y = r.gen("x"), r.gen("y")
    p = x * x * y + 3 * y
    assert p.partial_derivative("x") == 2 * x * y
    assert p.partial_derivative("y") == x * x + 3


def test_total_derivative_orders():
    r = PolyRing([Variable("u", 0, wt2=2)], differential=True)
    u = r.gen("u")
    du = u.total_derivative()
    assert du.text() == "u'"
    assert (u * u).total_derivative() == 2 * u * du
    # order bumps by one each time, names stay deterministic
    assert du.total_derivative().text() == "u''"
    # weights ride along: wt2(u') = wt2(u) + 2
    i = r.index["u'"]
    assert r.variables[i].wt2 == 4


def test_total_derivative_odd_leibniz():
    r = PolyRing([Variable("a", 1, wt2=1), Variable("b", 1, wt2=1)],
                 differential=True)
    a, b = r.gen("a"), r.gen("b")
    d_ab = (a * b).total_derivative()
    da, db = a.total_derivative(), b.total_derivative()
    assert d_ab == da * b + a * db


def test_substitute_parity_checked():
    r = ring_xts()
    x, t = r.gen("x"), r.gen("t")
    with pytest.raises(ValueError):
        (x * t).substitute({r.index["t"]: x})  # odd var, even image
    p = (x * t).substitute({r.index["t"]: 2 * t})
    assert p == 2 * x * t


def test_substitute_odd_images_keep_signs():
    r = ring_xts()
    t, s = r.gen("t"), r.gen("s")
    # map t -> s, s -> t in t*s: image s*t = -t*s
    p = (t * s).substitute({r.index["t"]: s, r.index["s"]: t})
    assert p == -(t * s)


def test_evaluate():
    r = ring_xts()
    x, y = r.gen("x"), r.gen("y")
    p = x * x + y
    assert p.evaluate({r.index["x"]: Fraction(1, 2),
                       r.index["y"]: 3}).as_constant() == Fraction(13, 4)


def test_weight2_homogeneity():
    r = PolyRing([Variable("a", 0, wt2=2), Variable("b", 0, wt2=1)])
    a, b = r.gen("a"), r.gen("b")
    assert (a + b * b).weight2() == 2
    assert (a + b).weight2() is None


def test_text_deterministic():
    r = ring_xts()
    x, y = r.gen("x"), r.gen("y")
    p = y * x - 2 + x * x
    assert p.text() == "-2 + x*y + x^2"


# unit coefficients, integers and reduced fractions
TEXT_COEFFS = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=12))


@st.composite
def rendered_polys(draw):
    """Polynomials on x, y (even) and t, s (odd) with a constant term
    and terms whose even exponents reach 4, over mixed denominators."""
    terms = {0: draw(TEXT_COEFFS)}
    for _ in range(draw(st.integers(1, 6))):
        es = [draw(st.integers(0, 4)), draw(st.integers(0, 4)),
              draw(st.integers(0, 1)), draw(st.integers(0, 1))]
        terms[pack((i, e) for i, e in enumerate(es) if e)] = \
            draw(TEXT_COEFFS)
    return SuperPolynomial(ring_xts(), terms)


@settings(max_examples=200, deadline=None)
@given(rendered_polys())
def test_text_matches_fraction_rendering(p):
    for q in (p, -p, p / 6):
        assert q.text() == text_oracle.text(q)


def test_text_fixed_mixed_parity():
    r = ring_xts()
    x, y, t, s = (r.gen(v) for v in "xyts")
    p = Fraction(-3, 4) + x * x * t - Fraction(2, 3) * y ** 3 * t * s - s
    assert p.text() == text_oracle.text(p) \
        == "-3/4 - s + x^2*t - 2/3*y^3*t*s"


# -- property tests ---------------------------------------------------------

def polys(r, max_terms=4, max_exp=2):
    par = r.parities()
    def mono(draw_exps):
        pairs = []
        for i, e in enumerate(draw_exps):
            if e:
                pairs.append((i, 1 if par[i] else e))
        return tuple(pairs)
    exp = st.lists(st.integers(min_value=0, max_value=max_exp),
                   min_size=len(par), max_size=len(par))
    coeff = st.fractions(min_value=-4, max_value=4).filter(lambda c: c != 0)
    term = st.tuples(exp, coeff)
    def build(ts):
        p = r.zero()
        for e, c in ts:
            p = p + SuperPolynomial(r, {pack(mono(e)): Fraction(c)})
        return p
    return st.lists(term, max_size=max_terms).map(build)


R = ring_xts()


@settings(max_examples=60, deadline=None)
@given(polys(R), polys(R))
def test_supercommutativity(p, q):
    pe, po = p.parity_split()
    qe, qo = q.parity_split()
    # a*b = (-1)^{|a||b|} b*a on homogeneous parts
    assert pe * qe == qe * pe
    assert pe * qo == qo * pe
    assert po * qo == -(qo * po)


@settings(max_examples=60, deadline=None)
@given(polys(R), polys(R))
def test_product_rule_even_var(p, q):
    i = R.index["x"]
    lhs = (p * q).partial_derivative(i)
    rhs = p.partial_derivative(i) * q + p * q.partial_derivative(i)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(polys(R), polys(R))
def test_product_rule_odd_var_koszul(p, q):
    i = R.index["t"]
    pe, po = p.parity_split()
    for hom, sign in ((pe, 1), (po, -1)):
        lhs = (hom * q).partial_derivative(i)
        rhs = hom.partial_derivative(i) * q + sign * (hom * q.partial_derivative(i))
        assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(polys(R), polys(R), polys(R))
def test_associativity(p, q, s):
    assert (p * q) * s == p * (q * s)


# -- substitute against the term-by-term oracle --------------------------------

# the target extends the source, so unmapped variables keep their index
T = PolyRing([Variable("x", 0), Variable("y", 0), Variable("t", 1),
              Variable("s", 1), Variable("u", 0), Variable("v", 1)])


@st.composite
def image_maps(draw, src, tgt):
    """Images for a random subset of the variables of src: homogeneous
    polynomials of the variable's parity in tgt, zero included."""
    images = {}
    for i, p in enumerate(src.parities()):
        if draw(st.booleans()):
            q = draw(polys(tgt, max_terms=3))
            images[i] = q.parity_split()[p]
    return images


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_substitute_matches_oracle(data):
    src = R
    tgt = data.draw(st.sampled_from([R, T]))
    p = data.draw(polys(src, max_terms=5, max_exp=3))
    images = data.draw(image_maps(src, tgt))
    target = None if tgt is src and data.draw(st.booleans()) else tgt
    got = p.substitute(images, target)
    want = substitute_oracle.substitute(p, images, target)
    assert got.ring is want.ring is tgt
    # the same canonical form: key set, numerators and denominator
    assert got.terms == want.terms and got.den == want.den


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shared_ring_map_matches_oracle(data):
    # one map, and so one head memo, for several polynomials in turn
    tgt = data.draw(st.sampled_from([R, T]))
    images = data.draw(image_maps(R, tgt))
    ring_map = RingMap(R, images, tgt)
    for p in data.draw(st.lists(polys(R, max_terms=5, max_exp=3),
                                min_size=2, max_size=5)):
        got = ring_map(p)
        assert got.ring is tgt
        assert got == substitute_oracle.substitute(p, images, tgt)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shared_ring_map_folds_constant_images(data):
    # x -> a constant, t -> 0, y and s -> polynomials, in one map: a
    # head times x's image scales the head and shares its terms
    tgt = data.draw(st.sampled_from([R, T]))
    c = data.draw(st.fractions(min_value=-4, max_value=4,
                               max_denominator=6).filter(bool))
    images = {0: tgt.const(c), 1: data.draw(polys(tgt)).parity_split()[0],
              2: tgt.zero(), 3: data.draw(polys(tgt)).parity_split()[1]}
    ring_map = RingMap(R, images, tgt)
    for p in data.draw(st.lists(polys(R, max_terms=5, max_exp=3),
                                min_size=2, max_size=5)):
        got = ring_map(p)
        want = substitute_oracle.substitute(p, images, tgt)
        assert got.ring is tgt
        assert got.terms == want.terms and got.den == want.den
    ring_map(R.gen("x") ** 3)
    x2 = ring_map.trie.node(pack([(0, 2)]))
    assert ring_map.heads[x2][1] is ring_map.heads[0][1]


@st.composite
def point_images(draw, src, tgt):
    """Images of every variable of src at one point: a constant (zero
    for an odd variable, zero or not for an even one), a generator of
    tgt of the same parity, or a homogeneous polynomial of tgt."""
    images = {}
    for i, p in enumerate(src.parities()):
        kind = draw(st.sampled_from(["const", "gen", "poly"]))
        if kind == "const":
            c = 0 if p else draw(st.fractions(min_value=-4, max_value=4,
                                              max_denominator=6))
            images[i] = tgt.const(c)
        elif kind == "gen":
            images[i] = tgt.gen(draw(st.sampled_from(
                [j for j, q in enumerate(tgt.parities()) if q == p])))
        else:
            images[i] = draw(polys(tgt, max_terms=3)).parity_split()[p]
    return images


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shared_trie_matches_oracle_at_every_point(data):
    # mixed-parity polynomials compiled once, then run at several
    # points, each with its own target and head values
    ps = data.draw(st.lists(polys(R, max_terms=5, max_exp=3),
                            min_size=2, max_size=4))
    trie = MonomialTrie()
    programs = [trie.compile(p) for p in ps]
    for _ in range(3):
        tgt = data.draw(st.sampled_from([R, T]))
        images = data.draw(point_images(R, tgt))
        at = RingMap(R, images, tgt, trie)
        for p, program in zip(ps, programs):
            got = at.run(program)
            want = substitute_oracle.substitute(p, images, tgt)
            fresh = RingMap(R, images, tgt)(p)
            assert got.ring is fresh.ring is tgt
            assert (got.terms, got.den) == (want.terms, want.den)
            assert (fresh.terms, fresh.den) == (want.terms, want.den)


@pytest.mark.parametrize("bad, message", [
    (T.gen("u"), "parity mismatch"), (R.gen("t"), "wrong ring"),
    (T.gen("t") + T.gen("x"), "parity homogeneous")])
def test_shared_trie_checks_a_bad_image_at_every_point(bad, message):
    # t as a head factor and as a last factor raises at each point on
    # its first use, and a program without t still runs there
    x, y, t, s = (R.gen(v) for v in "xyts")
    trie = MonomialTrie()
    uses = [trie.compile(t * s), trie.compile(x * t)]
    clean = x * y + 3
    program = trie.compile(clean)
    for c in (1, 2):
        images = {0: T.const(c), 2: bad}
        at = RingMap(R, images, T, trie)
        for use in uses:
            with pytest.raises(ValueError, match=message):
                at.run(use)
        assert at.run(program) == T.const(c) * T.gen("y") + 3


def test_ring_map_result_is_canonical_when_a_running_sum_cancels():
    # y -> ab makes the running sum of ab zero on the first pair of
    # (a + b)^2 that meets it, and the second pair brings it back
    src = PolyRing([Variable("x", 0), Variable("y", 0)])
    tgt = PolyRing([Variable("a", 0), Variable("b", 0)])
    a, b = tgt.gen("a"), tgt.gen("b")
    x, y = src.gen("x"), src.gen("y")
    p = -y + x * x  # the y term first
    images = {0: a + b, 1: a * b}
    got = RingMap(src, images, tgt)(p)
    assert got == a * a + a * b + b * b
    assert got == substitute_oracle.substitute(p, images, tgt)


def through_a_shared_map(p, images, target):
    """p through a RingMap that has already mapped every variable p
    does not use, so p is the first to use an image of its own."""
    ring_map = RingMap(p.ring, images, target)
    used = p.variables_used()
    for i in range(len(p.ring.variables)):
        if i not in used:
            ring_map(p.ring.gen(i))
    return ring_map(p)


@pytest.mark.parametrize("subst", [
    lambda p, imgs, tgt: p.substitute(imgs, tgt),
    through_a_shared_map,
    substitute_oracle.substitute])
def test_substitute_errors(subst):
    x, t = R.gen("x"), R.gen("t")
    p = x * x * t
    with pytest.raises(ValueError, match="wrong ring"):
        subst(p, {R.index["x"]: R.gen("y")}, T)
    with pytest.raises(ValueError, match="parity homogeneous"):
        subst(p, {R.index["x"]: x + t}, None)
    with pytest.raises(ValueError, match="parity mismatch"):
        subst(p, {R.index["t"]: T.gen("u")}, T)
    # zero images are homogeneous of either parity
    assert subst(p, {R.index["t"]: T.zero()}, T).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_substitute_without_images_moves_rings(data):
    # no images and a target that keeps every index and parity: a copy
    # of the terms over the same denominator, as the oracle's products
    # give, never the source's own dict
    p = data.draw(polys(R, max_terms=5, max_exp=3))
    tgt = data.draw(st.sampled_from([R, T]))
    got = p.substitute({}, tgt)
    want = substitute_oracle.substitute(p, {}, tgt)
    assert got.ring is tgt and (got.terms, got.den) == (p.terms, p.den)
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.terms is not p.terms


def test_substitute_without_images_keeps_the_general_path():
    x, y, t = R.gen("x"), R.gen("y"), R.gen("t")
    # a variable the target lacks still raises
    with pytest.raises(ValueError, match="outside the ring"):
        (x * t + y).substitute({}, PolyRing([Variable("x", 0),
                                             Variable("y", 0)]))
    # a used variable whose parity differs in the target is substituted
    # by products, as before: x odd there, so x^2 vanishes
    flip = PolyRing([Variable("x", 1), Variable("y", 0)])
    got = (x * x + y).substitute({}, flip)
    assert got.ring is flip and got == flip.gen("y")
    assert got == substitute_oracle.substitute(x * x + y, {}, flip)


def test_ring_map_checks_a_bad_image_on_every_use():
    x, y, t = R.gen("x"), R.gen("y"), R.gen("t")
    ring_map = RingMap(R, {R.index["t"]: T.gen("u")}, T)
    for _ in range(2):
        with pytest.raises(ValueError, match="parity mismatch"):
            ring_map(x * t)
        assert ring_map(x * y) == T.gen("x") * T.gen("y")
    with pytest.raises(ValueError, match="not in the source ring"):
        ring_map(T.gen("x"))


def test_ring_map_maps_a_jet_added_after_it_was_built():
    # the source's parities are read when an image is first used, and
    # the target's masks once a polynomial's images are served
    ring = PolyRing([Variable("x", 0), Variable("t", 1)], differential=True)
    x, t = ring.gen("x"), ring.gen("t")

    class Served(dict):
        """Images made on request, as differential morphisms serve
        jets: t' -> (x t)', which adds the jet x' to the ring."""
        def get(self, i, default=None):
            if ring.variables[i].name == "t'":
                return (x * t).total_derivative()
            return super().get(i, default)

    ring_map = RingMap(ring, Served({1: x * t}))
    assert ring_map(x * t) == x * x * t
    dt = ring.derivative_index(1)  # an odd jet the map has never seen
    p = ring.gen(dt) * t + x
    got = ring_map(p)
    assert "x'" in ring.index
    assert got == substitute_oracle.substitute(
        p, {1: x * t, dt: (x * t).total_derivative()})


def test_substitute_drops_cancelled_terms():
    x, y, t = R.gen("x"), R.gen("y"), R.gen("t")
    p = x * t + y * t + 3
    images = {R.index["x"]: T.gen("y"), R.index["y"]: -T.gen("y")}
    got = p.substitute(images, T)
    assert got.terms == {0: Fraction(3)}
    assert got.terms == substitute_oracle.substitute(p, images, T).terms

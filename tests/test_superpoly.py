"""Superpolynomial arithmetic: signs, derivatives, substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import substitute_oracle
from superslice.superpoly import PolyRing, SuperPolynomial, Variable, pack


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
    # same terms, in the same order
    assert list(got.terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("subst", [
    lambda p, imgs, tgt: p.substitute(imgs, tgt),
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


def test_substitute_drops_cancelled_terms():
    x, y, t = R.gen("x"), R.gen("y"), R.gen("t")
    p = x * t + y * t + 3
    images = {R.index["x"]: T.gen("y"), R.index["y"]: -T.gen("y")}
    got = p.substitute(images, T)
    assert got.terms == {0: Fraction(3)}
    assert got.terms == substitute_oracle.substitute(p, images, T).terms

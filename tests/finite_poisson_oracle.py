"""Finite Leibniz recursion, kept as the independent oracle for the
finite Poisson bracket.

This is the package's former finite Poisson bracket: the generator table
of a Poisson structure on the Zhu generators (tests/zhu_poisson_oracle.py)
extended as a biderivation by recursing on the leading factor of each
monomial.  It shares no code with the package's finite bracket
(superslice.pva.ArcBracket, the biderivation on the chart's
``coordinate_table`` in closed form), and the tests compare the two.
"""

from fractions import Fraction

from superslice.superpoly import SuperPolynomial, pack, unpack

ONE = Fraction(1)


def _gen_bracket(ps, a, b):
    return ps.table.get((a, b), ps.ring.zero())


def _bracket_gen_mono(ps, a, mono):
    """{zeta_a, monomial} by left Leibniz."""
    if not mono:
        return ps.ring.zero()
    ring = ps.ring
    par = ring.parities()
    (j, e) = mono[0]
    head = (j, 1)
    rest = mono[1:] if e == 1 else ((j, e - 1),) + mono[1:]
    first = _gen_bracket(ps, a, j)
    rest_poly = SuperPolynomial(ring, {pack(rest): ONE})
    out = first * rest_poly
    tail = _bracket_gen_mono(ps, a, rest)
    if not tail.is_zero():
        head_poly = SuperPolynomial(ring, {pack((head,)): ONE})
        sgn = -ONE if (par[a] and par[j]) else ONE
        out = out + head_poly * tail * sgn
    return out


def _bracket_mono_poly(ps, mono, q, q_parity):
    """{monomial, q} for parity-homogeneous q."""
    ring = ps.ring
    if not mono:
        return ring.zero()
    (j, e) = mono[0]
    rest = mono[1:] if e == 1 else ((j, e - 1),) + mono[1:]
    rest_parity = sum(ring.parity_of(v) * k for v, k in rest) % 2
    head_poly = ring.gen(j)
    out = head_poly * _bracket_mono_poly(ps, rest, q, q_parity)
    gen_q = _bracket_gen_poly(ps, j, q)
    if not gen_q.is_zero():
        rest_poly = SuperPolynomial(ring, {pack(rest): ONE})
        sgn = -ONE if (rest_parity and q_parity) else ONE
        out = out + gen_q * rest_poly * sgn
    return out


def _bracket_gen_poly(ps, a, q):
    out = ps.ring.zero()
    for mono, c in q.items():
        t = _bracket_gen_mono(ps, a, unpack(mono))
        if not t.is_zero():
            out = out + t * c
    return out


def finite_bracket(ps, p, q):
    """{p, q} on ps.ring: biderivation extension of ps.table."""
    qe, qo = q.parity_split()
    out = ps.ring.zero()
    for mono, c in p.items():
        for qq, qpar in ((qe, 0), (qo, 1)):
            if qq.is_zero():
                continue
            t = _bracket_mono_poly(ps, unpack(mono), qq, qpar)
            if not t.is_zero():
                out = out + t * c
    return out

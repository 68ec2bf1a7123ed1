"""Per-monomial Leibniz recursion, kept as the independent oracle for
ArcBracket.bracket.

This is the package's former lambda bracket: the generator table is
extended to jets by sesquilinearity and to products by recursing on the
leading factor of each monomial, through the two Leibniz rules of the
ArcBracket docstring, one monomial at a time.  It reads only the
bracket's ring and generator table and shares no code with the master
formula that ArcBracket now evaluates; the tests compare the two.
"""

import math
from fractions import Fraction

from superslice.pva import LambdaPolynomial
from superslice.superpoly import SuperPolynomial, pack, unpack

ONE = Fraction(1)


def _lam_plus_d(P):
    """(lam + d) P, d the total derivative on the coefficients."""
    out = {}
    for k, p in P.coeffs.items():
        for kk, pp in ((k + 1, p), (k, p.total_derivative())):
            out[kk] = pp if kk not in out else out[kk] + pp
    return LambdaPolynomial(P.ring, out)


def _shift(P, m):
    """(-lam)^m P."""
    sgn = ONE if m % 2 == 0 else -ONE
    return LambdaPolynomial(P.ring,
                            {k + m: p * sgn for k, p in P.coeffs.items()})


def _lmul(p, P):
    return LambdaPolynomial(P.ring, {k: p * q for k, q in P.coeffs.items()})


def _rmul(P, p):
    return LambdaPolynomial(P.ring, {k: q * p for k, q in P.coeffs.items()})


def _base(machine, i):
    return machine.ring.index[machine.ring.variables[i].base]


def _gen_pair(machine, i, j):
    """{x_i _lam x_j} for jets x_i, x_j by sesquilinearity."""
    out = machine.table.get((_base(machine, i), _base(machine, j)))
    if out is None:
        return LambdaPolynomial(machine.ring)
    for _ in range(machine.ring.variables[j].order):
        out = _lam_plus_d(out)
    return _shift(out, machine.ring.variables[i].order)


def _gen_mono(machine, i, mono):
    """{x_i _lam monomial} by the right Leibniz rule."""
    ring = machine.ring
    if not mono:
        return LambdaPolynomial(ring)
    (j, e) = mono[0]
    rest = mono[1:] if e == 1 else ((j, e - 1),) + mono[1:]
    out = _gen_pair(machine, i, j)
    if not rest:
        return out
    out = _rmul(out, SuperPolynomial(ring, {pack(rest): ONE}))
    tail = _gen_mono(machine, i, rest)
    tail = _lmul(ring.gen(j), tail)
    if ring.parity_of(i) and ring.parity_of(j):
        tail = tail.scale(-ONE)
    return out + tail


def _gen_poly(machine, i, q):
    out = LambdaPolynomial(machine.ring)
    for mono, c in q.terms.items():
        out = out + _gen_mono(machine, i, unpack(mono)).scale(c)
    return out


def _arrow(P, r):
    """sum_k c_k (lam + d)^k r for P = sum_k c_k lam^k."""
    out = {}
    for k, c in P.coeffs.items():
        derivs = [r]
        for _ in range(k):
            derivs.append(derivs[-1].total_derivative())
        for j in range(k + 1):
            t = c * derivs[k - j] * math.comb(k, j)
            out[j] = t if j not in out else out[j] + t
    return LambdaPolynomial(P.ring, out)


def _mono_poly(machine, mono, q, q_parity):
    """{monomial _lam q} by the left Leibniz rule, q parity homogeneous."""
    ring = machine.ring
    if not mono:
        return LambdaPolynomial(ring)
    (j, e) = mono[0]
    rest = mono[1:] if e == 1 else ((j, e - 1),) + mono[1:]
    first = _gen_poly(machine, j, q)
    if not rest:
        return first
    rest_parity = sum(ring.parity_of(v) * k for v, k in rest) % 2
    out = _arrow(first, SuperPolynomial(ring, {pack(rest): ONE}))
    if rest_parity and q_parity:
        out = out.scale(-ONE)
    t = _arrow(_mono_poly(machine, rest, q, q_parity), ring.gen(j))
    if ring.parity_of(j) and (rest_parity + q_parity) % 2:
        t = t.scale(-ONE)
    return out + t


def leibniz_bracket(machine, p, q):
    """{p _lam q} on machine.ring from machine.table, monomial by monomial."""
    out = LambdaPolynomial(machine.ring)
    for qq, qpar in zip(q.parity_split(), (0, 1)):
        if qq.is_zero():
            continue
        for mono, c in p.terms.items():
            out = out + _mono_poly(machine, unpack(mono), qq, qpar).scale(c)
    return out

"""The Fraction rendering, kept as the oracle for SuperPolynomial.text.

This is the package's former ``text``: each coefficient is built as a
Fraction n/den, its absolute value is rendered reduced, and the sign
and the unit coefficient are read off the Fraction.  Terms sort by
(degree, unpacked key), as in the package.
"""

from fractions import Fraction

from superslice.superpoly import unpack


def _frac_str(c):
    return str(c.numerator) if c.denominator == 1 \
        else f"{c.numerator}/{c.denominator}"


def text(p):
    if not p.terms:
        return "0"
    mono = {m: unpack(m) for m in p.terms}

    def key(m):
        return (sum(e for _, e in mono[m]), mono[m])
    pieces = []
    for m in sorted(p.terms, key=key):
        c = Fraction(p.terms[m], p.den)
        factors = []
        for i, e in mono[m]:
            nm = p.ring.variables[i].name
            factors.append(nm if e == 1 else f"{nm}^{e}")
        body = "*".join(factors)
        a = abs(c)
        if not body:
            pieces.append((c, _frac_str(a)))
        elif a == 1:
            pieces.append((c, body))
        else:
            pieces.append((c, f"{_frac_str(a)}*{body}"))
    out = []
    for n, (c, s) in enumerate(pieces):
        if n == 0:
            out.append(("-" if c < 0 else "") + s)
        else:
            out.append((" - " if c < 0 else " + ") + s)
    return "".join(out)

"""The Fraction product kernel, kept as the oracle for the integer
numerator kernel and the (terms, den) polynomials of superslice.superpoly.

This is the package's former implementation of ``mul_monomials``,
``mul_terms``, ``sum_of_products``, ``substitute`` and
``LieSuperalgebra.bracket_poly``, when a polynomial stored one Fraction
per term: every coefficient pair is multiplied and summed as Fractions,
one gcd per operation, and every monomial pair is merged by counting
odd inversions.  ``bracket_poly`` builds (-1)^{|x_i||b|} b as
``be - bo``, forms ``a * eff`` with the ``mul_terms`` below, and adds
``coeff * c`` for each structure constant c of the algebra's Fraction
table into a running SuperPolynomial per component.  None of it touches
the package's product kernel or the algebra's integer table.  Monomials
here are tuples of (index, exponent) pairs and term dicts map them to
Fractions; ``fractions`` and ``times`` convert the package's
polynomials at the edges.
"""

from fractions import Fraction

from superslice.superpoly import SuperPolynomial, pack, unpack

ONE = Fraction(1)


def mul_monomials(ma, mb, parities):
    """Merge two sorted (index, exp) monomials: (monomial, sign), or
    (None, 0) when an odd variable squares to zero."""
    if not ma:
        return mb, 1
    if not mb:
        return ma, 1
    odd_a = [i for i, e in ma if parities[i]]
    odd_b = [i for i, e in mb if parities[i]]
    sign = 1
    if odd_a and odd_b:
        seen_b = set(odd_b)
        for i in odd_a:
            if i in seen_b:
                return None, 0
        inv = 0
        for x in odd_a:
            for y in odd_b:
                if x > y:
                    inv += 1
        if inv & 1:
            sign = -1
    out = []
    ia = ib = 0
    na, nb = len(ma), len(mb)
    while ia < na and ib < nb:
        va, ea = ma[ia]
        vb, eb = mb[ib]
        if va < vb:
            out.append((va, ea))
            ia += 1
        elif vb < va:
            out.append((vb, eb))
            ib += 1
        else:
            if parities[va]:
                return None, 0
            out.append((va, ea + eb))
            ia += 1
            ib += 1
    out.extend(ma[ia:])
    out.extend(mb[ib:])
    return tuple(out), sign


def mul_terms(terms_a, terms_b, parities):
    """Sparse product of two term dicts; drops zero coefficients."""
    out = {}
    for ma, ca in terms_a.items():
        for mb, cb in terms_b.items():
            mono, sign = mul_monomials(ma, mb, parities)
            if sign == 0:
                continue
            c = ca * cb if sign == 1 else -(ca * cb)
            prev = out.get(mono)
            if prev is None:
                out[mono] = c
            else:
                s = prev + c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
    return out


def sum_of_products(triples, parities):
    """sum n * a * b over (n, a, b) triples of a rational n and term
    dicts a, b: each product by ``mul_terms``, summed in Fractions one
    product at a time; a sum that reaches zero drops its key."""
    out = {}
    for n, a, b in triples:
        for m, c in mul_terms(a, b, parities).items():
            s = out.get(m, 0) + n * c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def substitute(terms, images, parities):
    """The term dict ``terms`` with the term dict images[i] put for each
    variable i it names (variables without an image stay as they are),
    each term's product of images taken factor by factor by
    ``mul_terms`` and summed in Fractions."""
    triples = []
    for m, c in terms.items():
        acc = {(): ONE}
        for i, e in m:
            for _ in range(e):
                acc = mul_terms(acc, images.get(i, {((i, 1),): ONE}),
                                parities)
        triples.append((c, acc, {(): ONE}))
    return sum_of_products(triples, parities)


def fractions(p):
    """A package polynomial as a term dict: tuple monomials to Fraction
    coefficients, in term order."""
    return {unpack(m): c for m, c in p.items()}


def times(a, b):
    """a * b for two SuperPolynomials of one ring, through mul_terms on
    the unpacked monomials."""
    if a.ring is not b.ring:
        raise ValueError("polynomials belong to different rings")
    return SuperPolynomial(a.ring, {
        pack(m): c for m, c in mul_terms(fractions(a), fractions(b),
                                         a.ring.parities()).items()})


def bracket_poly(alg, x, y):
    """Bracket of polynomial-coefficient vectors with the Koszul rule."""
    out = {}
    par = alg.parities
    for i, a in x.items():
        if a.is_zero():
            continue
        for j, b in y.items():
            row = alg.table.get((i, j), {})
            if not row or b.is_zero():
                continue
            if par[i]:
                be, bo = b.parity_split()
                eff = be - bo  # (-1)^{|x_i||b|} b
            else:
                eff = b
            coeff = times(a, eff)
            if coeff.is_zero():
                continue
            for k, c in row.items():
                cur = out.get(k)
                add = coeff * c
                out[k] = add if cur is None else cur + add
    return {k: v for k, v in out.items() if not v.is_zero()}

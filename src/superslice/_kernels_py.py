"""Pure-Python hot kernel: the sparse term-merge product.

The compiled twin of mul_terms lives in _speedups.pyx; _kernels picks
one at import.  Both operate on plain containers so results are
interchangeable.
"""

from __future__ import annotations


def mul_monomials(ma, mb, parities):
    """Merge two sorted (index, exp) monomials.

    Returns (monomial, sign) with sign in {1, -1}, or (None, 0) when an odd
    variable squares to zero.  The sign is the Koszul sign for interleaving
    the odd factors into index order.
    """
    if not ma:
        return mb, 1
    if not mb:
        return ma, 1
    # count inversions between odd factors of ma and mb
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
                return None, 0  # odd variable squared
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

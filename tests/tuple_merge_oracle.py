"""The tuple-merge product kernel, kept as the oracle for the packed
monomial keys of superslice.superpoly.

This is the package's former implementation of ``mul_monomials`` and
``mul_int_terms``: a monomial is a tuple of (index, exponent) pairs
sorted by index, and two monomials are merged pair by pair, the Koszul
sign counted during the merge (an odd factor of ma placed by the merge
passes the odd factors of mb placed before it).  Two concatenation fast
paths skip the merge when the index ranges do not overlap.  Nothing
here reads a packed key; tests convert at the edges with
``superpoly.pack`` and ``superpoly.unpack``.
"""


def mul_monomials(ma, mb, parities):
    """Merge two sorted (index, exp) monomials: (monomial, sign) with
    sign in {1, -1}, or (None, 0) when an odd variable squares to zero."""
    if not ma:
        return mb, 1
    if not mb:
        return ma, 1
    if ma[-1][0] < mb[0][0]:
        return ma + mb, 1  # already in index order: no factor moves
    if mb[-1][0] < ma[0][0]:
        # every factor of mb moves left past every factor of ma
        odd = (sum(parities[i] for i, _ in ma)
               & sum(parities[i] for i, _ in mb) & 1)
        return mb + ma, -1 if odd else 1
    out = []
    ia = ib = 0
    na, nb = len(ma), len(mb)
    odd_b = inv = 0  # odd factors of mb placed, inversions counted
    while ia < na and ib < nb:
        va, ea = ma[ia]
        vb, eb = mb[ib]
        if va < vb:
            out.append((va, ea))
            if parities[va]:
                inv += odd_b
            ia += 1
        elif vb < va:
            out.append((vb, eb))
            odd_b += parities[vb]
            ib += 1
        else:
            if parities[va]:
                return None, 0  # odd variable squared
            out.append((va, ea + eb))
            ia += 1
            ib += 1
    if ia < na:
        # mb is used up: every odd factor left in ma passes all of its odd ones
        if odd_b:
            for va, _ in ma[ia:]:
                if parities[va]:
                    inv += odd_b
        out.extend(ma[ia:])
    else:
        out.extend(mb[ib:])
    return tuple(out), -1 if inv & 1 else 1


def mul_int_terms(terms_a, terms_b, parities, out=None):
    """Sparse product of two tuple-keyed term dicts over integer
    numerators, added into ``out``: a-major pair order, a sum that
    reaches zero drops its key."""
    if out is None:
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

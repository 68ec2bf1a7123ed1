"""The package's former weight-block enumeration, an oracle for
``cohomology.GradedComplex._monomials``.

It recurses over the positions of the complex afresh for every weight,
with no memo and no cap on the ghost degree, and appends each monomial
to the list of its ghost degree as the recursion reaches it.
"""

from superslice.superpoly import var_key


def weight_blocks(cx, n2: int) -> dict[int, list[int]]:
    """{ghost degree: monomial keys} of the block of doubled weight n2
    of the GradedComplex cx, in the enumeration order of the package."""
    poss = cx.positions
    n = len(poss)
    w2 = [cx.ring.variables[p].wt2 * cx.sign for p in poss]
    odd = [cx.ring.parity_of(p) for p in poss]
    ghost = [p in cx.ghost_set for p in poss]
    unit = [var_key(p) for p in poss]
    # no monomial in positions i.. has weight below min_w2[i]; the
    # entry past the end is above every weight the block can reach
    min_w2 = [min(w2[i:]) for i in range(n)] + [abs(n2) + 1]
    out: dict[int, list[int]] = {}

    def rec(i: int, rem: int, k: int, key: int):
        """Monomials of weight rem in positions i.., times key (ghost
        degree k so far): first those without position i, then those
        with exponent 1, 2, ... of it."""
        if rem >= min_w2[i + 1]:
            rec(i + 1, rem, k, key)
        w = w2[i]
        cap = rem // w
        if odd[i] and cap > 1:
            cap = 1
        for e in range(1, cap + 1):
            left = rem - w * e
            ke = k + e if ghost[i] else k
            m = key + e * unit[i]
            if left == 0:
                out.setdefault(ke, []).append(m)
            elif left >= min_w2[i + 1]:
                rec(i + 1, left, ke, m)

    if n2 == 0:
        out[0] = [0]
    elif abs(n2) >= min_w2[0]:
        rec(0, abs(n2), 0, 0)
    return out

"""Term-by-term substitution, kept as the oracle for
SuperPolynomial.substitute.

This is the package's former implementation: each term is built as a
SuperPolynomial by one product per factor and added to a running
result with ``out = out + acc``, which copies the result once per term.
It goes through the public polynomial arithmetic only, not through the
term-dict product and in-place sum that substitute now uses, and raises
the same errors for images in the wrong ring, images that are not
parity homogeneous and images of the wrong parity.
"""

from superslice.superpoly import unpack


def substitute(p, images, target=None):
    tgt = target if target is not None else p.ring
    par = p.ring.parities()
    cache = {}

    def image(i):
        got = cache.get(i)
        if got is not None:
            return got
        if i in images:
            q = images[i]
            if q.ring is not tgt:
                raise ValueError("image polynomial in wrong ring")
            iq = q.parity()
            if q.is_zero():
                pass  # zero is homogeneous of every parity
            elif iq is None:
                raise ValueError("image must be parity homogeneous")
            elif iq != par[i]:
                raise ValueError(
                    f"parity mismatch substituting variable "
                    f"{p.ring.variables[i].name}")
        else:
            # unmapped variables pass through; extensions keep indices stable
            q = tgt.gen(i)
        cache[i] = q
        return q

    out = tgt.zero()
    for m, c in p.items():
        acc = tgt.const(c)
        for i, e in unpack(m):
            gi = image(i)
            for _ in range(e):
                acc = acc * gi
        out = out + acc
    return out

"""The descending central series and the nilpotency class, computed
from the span of iterated brackets with one dense rref per step.

A right-nested bracket of more elements of g_+ than its class vanishes.
The tests check that the BCH series of slice.gauge_fix, which ends by
itself at its last nonzero word length, meets no nonzero word longer
than the class of g_+, and compare supergroup.bch_product with the
composition-by-composition series of bch_oracle truncated at the class
of n+.  The class was once the truncation length gauge_fix passed to
bch_product.
"""

from dense_oracles import dense_rref


def descending_central_series(alg):
    """g^0 = g, g^n = [g, g^{n-1}], each term a basis (a list of dense
    vectors; the nonzero rows of an rref are independent); stops when
    stable.  Last entry is the first repeated (for nilpotent algebras:
    zero) term."""
    current = [alg.basis_vector(i) for i in range(alg.dim)]
    out = [current]
    while True:
        spans = []
        for i in range(alg.dim):
            for v in current:
                w = alg.bracket_num(alg.basis_vector(i), v)
                if any(w):
                    spans.append(w)
        if spans:
            r, piv = dense_rref(spans, alg.dim)
            new = r[:len(piv)]
        else:
            new = []
        out.append(new)
        if len(new) == len(current):
            break
        current = new
        if not new:
            break
    return out


def nilpotency_class(alg):
    series = descending_central_series(alg)
    for n, s in enumerate(series):
        if len(s) == 0:
            return n
    raise ValueError("algebra is not nilpotent")


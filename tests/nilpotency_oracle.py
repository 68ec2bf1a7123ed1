"""The descending central series and the nilpotency class, kept as the
oracle for the BCH word bound of slice.gauge_fix.

This is the package's former way of choosing that bound: the class of
the positive part g_+, computed from the span of iterated brackets with
one rref per step.  gauge_fix now reads the bound off the grading
(slice.bch_word_bound: max_wt2 // min_wt2 over g_+), which is at least
the class; the tests compare the two.
"""

from superslice.linalg import RationalMatrix, rref


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
            r, piv = rref(RationalMatrix(spans))
            new = [r.rows[n] for n in range(len(piv))]
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


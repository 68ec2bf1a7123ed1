"""Independent cross-checks that no stage of the pipeline runs.

* ``de_rham_check``: the algebraic de Rham complex of the affine
  superspace C^{p|q}, built as a ``GradedComplex``; its cohomology is
  known in closed form (one constant, nothing else), so it checks the
  complex, its blocks and its ranks on a case with a written-down
  answer.
* ``skew_defect``: {a, b} + (-1)^{|a||b|} {b, a}, zero when a Poisson
  bracket is skew-symmetric on a pair.
* ``form_value``: the invariant form on two dense vectors, read from
  the algebra's sparse form rows.
"""

from fractions import Fraction

from superslice.cohomology import GradedComplex, differential
from superslice.superpoly import PolyRing, SuperPolynomial, Variable

ZERO = Fraction(0)


def de_rham_check(p: int, q: int, max_degree: int = 4) -> dict:
    """Algebraic de Rham complex of the affine superspace C^{p|q}.

    d sends x_i to dx_i and th_j to -dth_j; dx is odd, dth is even, and
    everything has polynomial degree one, so the blocks are graded by
    total degree.  Returns {(form degree, total degree): dim H}; the
    expected answer is 1 at (0, 0) and 0 elsewhere.
    """
    variables = []
    for i in range(p):
        variables.append(Variable(f"x{i + 1}", 0, wt2=2))
    for j in range(q):
        variables.append(Variable(f"th{j + 1}", 1, wt2=2))
    for i in range(p):
        variables.append(Variable(f"dx{i + 1}", 1, wt2=2))
    for j in range(q):
        variables.append(Variable(f"dth{j + 1}", 0, wt2=2))
    ring = PolyRing(variables)
    n = p + q
    images: dict[int, SuperPolynomial] = {}
    for i in range(p):
        images[i] = ring.gen(n + i)
    for j in range(q):
        images[p + j] = -ring.gen(n + p + j)
    cx = GradedComplex(differential(ring, images), list(range(n)),
                       list(range(n, 2 * n)), 2 * max_degree)
    out = {}
    for deg in range(max_degree + 1):
        for k in range(deg + 1):
            out[(k, deg)] = cx.cohomology_dim(k, deg)
    return out


def skew_defect(machine, a, b):
    """{a, b} + (-1)^{|a||b|} {b, a} on the ArcBracket machine; zero iff
    skew holds."""
    pa, pb = a.parity(), b.parity()
    if pa is None or pb is None:
        raise ValueError("skew check needs parity homogeneous arguments")
    lhs = machine.bracket(a, b)
    rhs = machine.bracket(b, a)
    return lhs - rhs if pa and pb else lhs + rhs


def form_value(alg, x, y) -> Fraction:
    """(x | y) for dense vectors x and y of the algebra."""
    if alg.form_rows is None:
        raise ValueError("algebra carries no bilinear form")
    return sum((a * v * y[j] for i, a in enumerate(x) if a
                for j, v in alg.form_rows[i].items() if y[j]), ZERO)

"""The package's former rank certificate and arc complex, oracles for
the closed form of ``cohomology.linear_part``.

``leading_part`` builds the complex of d_0, the part of d that keeps the
polynomial degree (every complex variable of degree 1), as a second
``GradedComplex`` on the same ring, positions and weight blocks; its
ranks bound those of d (the degree filtration, see the cohomology
module docstring).  ``full_rank_table`` is ``cohomology_table`` with no
bound at all: every block's dimension from the ranks of d.
``arc_complex`` is the jet-level complex of Q up to a weight, whose
ranks give the H^0 that ``pva.TruncatedH0`` reads from delta.
"""

from fractions import Fraction

from superslice.cohomology import GradedComplex, _as_wt2, differential
from superslice.superpoly import SuperPolynomial, unpack


def leading_part(cx: GradedComplex) -> GradedComplex:
    """The complex of d_0: the images of d_0 are the degree-1 parts of
    those of d.  Raises ValueError if an image has a term of degree 0:
    d then lowers the degree, and d_0 bounds nothing.  The weight blocks
    are shared with cx."""
    ring, low = cx.ring, {}
    for j in cx.positions:
        img = cx.d.images.get(j, ring.zero())
        if 0 in img.terms:
            raise ValueError(f"image of {ring.variables[j].name} has a "
                             f"term of degree 0")
        low[j] = SuperPolynomial(
            ring, {m: n for m, n in img.terms.items()
                   if sum(e for _, e in unpack(m)) == 1},
            img.den)
    lead = GradedComplex(differential(ring, low), cx.module_positions,
                         cx.ghost_positions, cx.max_wt2)
    lead._memo = cx._memo
    return lead


def full_rank_table(cx: GradedComplex) -> dict:
    """{(degree, weight): dim} of every block, from the ranks of d."""
    out = {}
    for a2 in range(cx.max_wt2 + 1):
        w = Fraction(a2 * cx.sign, 2)
        for k in range(cx.max_degree(a2 * cx.sign) + 1):
            out[(k, w)] = cx.cohomology_dim(k, w)
    return out


def arc_complex(chart, max_weight) -> GradedComplex:
    """The GradedComplex of Q, the chart's gauge derivation, on every jet
    of the chart's coordinates and ghosts up to max_weight, each jet
    order adding weight 1, with no cap on the ghost degree.  Adds those
    jets to the chart's gauge ring."""
    Q, w2cap = chart.gauge_ce, _as_wt2(max_weight)
    ring, nmod = Q.ring, len(chart.coord_indices)
    module: list[int] = []
    ghosts: list[int] = []
    for pos in range(nmod + len(chart.grading.positive_indices())):
        target = module if pos < nmod else ghosts
        idx, w = pos, ring.variables[pos].wt2
        while w <= w2cap:
            target.append(idx)
            if w + 2 > w2cap:
                break
            idx = ring.derivative_index(idx)
            w += 2
    return GradedComplex(Q, module, ghosts, w2cap)

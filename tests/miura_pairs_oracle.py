"""The intertwining check on every ordered pair, kept as the oracle for
``pva.GradedMiura.check_intertwining``, and the bracket of slice
invariants through the chart's Poisson bracket that both checks take on
the source side.

This is the package's former loop: for every ordered pair (a, b) of
slice generators it brackets the Miura images and, separately, the
embedded invariants, restricts the second bracket to the slice (with
the closure check) and maps it forward.  It brackets every source pair,
diagonals included, and uses no skew-symmetry, so it shares with the
package check only the bracket, the morphisms and the closure check.
"""

from superslice.pva import GradedMiura
from superslice.superpoly import SuperPolynomial


def source_bracket(gm: GradedMiura, a: SuperPolynomial,
                   b: SuperPolynomial) -> SuperPolynomial:
    """{a, b} on gm.source, computed through the chart coordinates and
    re-expressed on the slice (the package's former
    ``GradedMiura.source_bracket``); raises if the bracket is no
    function of the invariants."""
    return gm._to_slice(
        gm.bracket_machine.bracket(gm._embed(a), gm._embed(b)))


def check_all_ordered_pairs(gm: GradedMiura) -> dict:
    """{(a, b): True} over every ordered pair of generator labels; raises
    ValueError on the first pair whose two sides differ."""
    labs = gm.chart.inv_order
    gens = [gm.source.gen(i) for i in range(len(labs))]
    B = gm.bracket_machine
    images = [B.operand(gm(g)) for g in gens]
    embedded = [B.operand(gm._embed(g)) for g in gens]
    out = {}
    for i, la in enumerate(labs):
        for j, lb in enumerate(labs):
            lhs = B.bracket(images[i], images[j])
            rhs = gm.morphism(gm._to_slice(
                B.bracket(embedded[i], embedded[j])))
            if lhs != rhs:
                raise ValueError("Miura images fail the Poisson bracket "
                                 f"on ({la}, {lb})")
            out[(la, lb)] = True
    return out

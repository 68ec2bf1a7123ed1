"""The bracket of slice invariants on the finite chart, kept as the
oracle for the bracket of slice invariants through the chart's Poisson
bracket ``pva.ArcBracket`` (``source_bracket`` in
tests/miura_pairs_oracle.py).

This is the package's former ``slice.slice_poisson_table``: each pair of
invariants is lifted to the ring of Zhu generators
(tests/zhu_poisson_oracle.py), bracketed there by the finite Leibniz
recursion, moved back to the chart coordinates and restricted to the
slice point, and the result is checked to be a function of the
invariants by substituting them back.  It takes the bracket on the
finite chart, one pair at a time, and shares no code with the bracket
of ``GradedMiura`` or with ``slice.PoissonStructure``.
"""

from superslice.slice import SliceChart
from zhu_poisson_oracle import ZhuPoisson


def slice_poisson_table(chart: SliceChart) -> dict:
    """{I_a, I_b} for all invariant pairs, re-expressed exactly in the
    slice coordinates.  Raises if a bracket is not a function of the
    invariants (which would signal an invariance bug)."""
    ps = ZhuPoisson(chart)
    lifted = {lab: ps.to_poisson_ring(chart.invariants[lab])
              for lab in chart.inv_order}
    spoint = chart.slice_point()
    # z-coordinates of the slice point, as polynomials in s
    z_at_slice = {pos: spoint.get(b, chart.slice_ring.zero())
                  for pos, b in enumerate(chart.coord_indices)}
    for n, lab in enumerate(chart.inv_order):
        # on the slice itself the invariant IS the coordinate
        got = chart.invariants[lab].substitute(z_at_slice, chart.slice_ring)
        if got != chart.slice_ring.gen(n):
            raise ValueError(f"invariant {lab!r} does not restrict to its "
                             f"slice coordinate")
    out = {}
    for la in chart.inv_order:
        for lb in chart.inv_order:
            raw = ps.bracket(lifted[la], lifted[lb])
            on_z = ps.from_poisson_ring(raw)
            on_slice = on_z.substitute(z_at_slice, chart.slice_ring)
            # exactness: substituting s := I(z) must reproduce the bracket
            images = {n: chart.invariants[lab2]
                      for n, lab2 in enumerate(chart.inv_order)}
            recon = on_slice.substitute(images, chart.ring)
            if recon != on_z:
                raise ValueError(
                    f"bracket of invariants ({la},{lb}) is not a function "
                    f"of the invariants")
            out[(la, lb)] = on_slice
    return out

"""The arc gauge complex on the Zhu generators, kept as the oracle for
Q, the chart's gauge derivation that pva.brst_complex returns.

This is the package's former construction.  Its ring holds one
generator p_u per basis vector u of g_{<=0} + g_{1/2} (the ring of
tests/zhu_poisson_oracle.py, made differential) plus the ghosts, and Q
pushes the gauge action on the chart coordinates through the affine
identification zeta = c + M z: component u of a field is
sum_b M[u, b] R(v_a)(z_b), evaluated at z = Minv (zeta - c).  The
package instead keeps the chart coordinates z_b; the two complexes are
isomorphic under p_u -> zeta_u, ghosts fixed.

``ZhuBRST`` holds its own Q on its own ring (chart, ring, nmod, nghost,
Q), built without the chart's gauge derivation, so the tests read ker
delta on a ``GradedComplex`` of this Q and compare the jet counts with
``pva.TruncatedH0``, which reads the chart's.
"""

from superslice.cohomology import (OddDerivation, _ce_images,
                                   _gauge_action_fields, _ghost_variables,
                                   _JetImages)
from superslice.superpoly import PolyRing, Variable
from zhu_poisson_oracle import ZhuPoisson


def push_fields(ps, fields, ring):
    """Vector fields on the chart coordinates, fields[k][b] being the
    motion of z_b, written on the generators p_u of the ZhuPoisson ps,
    which are the first variables of ring: component u of field k is
    sum_b M[u, b] fields[k][b] at z = Minv (zeta - c), zeta_u being p_u."""
    m = len(ps.gen_indices)
    z = {b: ps.to_poisson_ring(ps.chart_ring.gen(b)).substitute({}, ring)
         for b in range(m)}
    out = []
    for field in fields:
        moved = []
        for u in range(m):
            comp = ps.chart_ring.zero()
            for b, co in enumerate(ps.M[u]):
                if co:
                    comp = comp + field[b] * co
            moved.append(comp.substitute(
                {b: z[b] for b in comp.variables_used()}, ring))
        out.append(moved)
    return out


class ZhuBRST:
    """Differential ring on the Zhu generators p_u plus one ghost per
    positive direction, with Q."""

    def __init__(self, chart):
        ps = ZhuPoisson(chart)
        alg, grading = chart.alg, chart.grading
        self.chart = chart
        pos_idx = grading.positive_indices()
        n = len(ps.gen_indices)
        ring = PolyRing([Variable(v.name, v.parity, wt2=v.wt2)
                         for v in ps.ring.variables]
                        + _ghost_variables(alg, grading), differential=True)
        self.ring = ring
        self.nmod = n
        self.nghost = len(pos_idx)

        fields = push_fields(ps, _gauge_action_fields(chart, chart.ring),
                             ring)
        images = _ce_images(alg.restrict_to(pos_idx), ring, fields, n)
        self.Q = OddDerivation(ring, _JetImages(ring, images))
        # its own square check, so the oracle does not lean on
        # cohomology.differential: Q kills every generator image
        for pos, img in images.items():
            sq = self.Q(img)
            if not sq.is_zero():
                raise ValueError(f"Q^2 != 0 on generator "
                                 f"{ring.variables[pos].name}: {sq.text()}")


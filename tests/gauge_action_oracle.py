"""Group-level linearisation of the gauge and regular actions, kept as the
oracle for cohomology._gauge_action_fields and
supergroup.regular_representation.

This is the package's former implementation: it appends a scratch
parameter t (of the parity of the acting direction) to the ring, runs
the whole group-level series, the adjoint orbit exp(-t v) Z exp(t v) for
the gauge action and the BCH product log(exp(X) exp(t v)) for the
regular one, takes the left derivative in t and drops every term that
still contains t.  It shares no code with the bracket series in the
package beyond the bracket itself and the two series it linearises.

Both functions grow the ring they are given by one or two variables.
"""

from superslice.liealg import dense_to_poly, nilpotency_class
from superslice.superpoly import SuperPolynomial, Variable, unpack
from superslice.supergroup import adjoint_orbit_map, bch_product


def _scratch_parameter(ring, parity):
    name = "_todd" if parity else "_teven"
    if name in ring.index:
        return ring.index[name]
    return ring.add_variable(Variable(name, parity))


def _drop_terms_with(poly, idx):
    kept = {m: c for m, c in poly.terms.items()
            if all(v != idx for v, _ in unpack(m))}
    return SuperPolynomial(poly.ring, kept)


def regular_representation(alg, sub_indices, ring, coord_index):
    """fields[a][b]: d/dt of log(exp(X) exp(t v_a)) at t = 0, component b."""
    sub_indices = list(sub_indices)
    sub = alg.restrict_to(sub_indices)
    nclass = nilpotency_class(sub)
    pos = {g: a for a, g in enumerate(sub_indices)}
    X = {g: ring.gen(coord_index[a]) for a, g in enumerate(sub_indices)}
    fields = []
    for g in sub_indices:
        t = _scratch_parameter(ring, alg.parities[g])
        B = bch_product(alg, X, {g: ring.gen(t)}, nclass)
        row = [ring.zero() for _ in sub_indices]
        for i, comp in B.items():
            if i not in pos:
                raise ValueError("group law left the subalgebra")
            row[pos[i]] = _drop_terms_with(comp.partial_derivative(t), t)
        fields.append(row)
    return fields


def gauge_action_fields(chart, ring):
    """fields[a][b]: d/dt of exp(-t v_a) Z exp(t v_a) at t = 0, coordinate
    b, at the generic point Z on the first variables of ring."""
    alg, grading = chart.alg, chart.grading
    coords = chart.coord_indices
    pos_of = {b: pos for pos, b in enumerate(coords)}
    Z = dense_to_poly(alg, chart.triple.f, ring)
    for pos, b in enumerate(coords):
        Z[b] = Z.get(b, ring.zero()) + ring.gen(pos)
    fields = []
    for i in grading.positive_indices():
        t = _scratch_parameter(ring, alg.parities[i])
        moved = adjoint_orbit_map(alg, Z, {i: ring.gen(t)})
        row = [ring.zero() for _ in coords]
        for j, comp in moved.items():
            lin = _drop_terms_with(comp.partial_derivative(t), t)
            if lin.is_zero():
                continue
            if j not in pos_of:
                raise ValueError("gauge action left the coordinate domain")
            row[pos_of[j]] = lin
        fields.append(row)
    return fields

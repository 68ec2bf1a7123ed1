"""Slices through nilpotent orbits: gauge fixing, Poisson structure,
finite Miura map and its injectivity certificate.

The chart is computed once, symbolically, at the generic point
Z = f + sum z_a x_a over the degrees >= -1/2.  Degree by degree the
component of the gauged point splits as (centralizer part) + [f, lift];
the lift is gauged away and the centralizer coefficients accumulate into
the invariant polynomials.  Everything downstream (invariance trials,
Poisson tables, Miura images, certificates) is substitution into that
chart.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from . import cohomology
from .liealg import (GoodGrading, GradedPiece, LieSuperalgebra, Sl2Triple,
                     dense_to_poly)
from .linalg import RationalMatrix, exact_rank, row_inverse
from .supergroup import adjoint_orbit_map, bch_product
from .superpoly import (UNIT, MonomialTrie, PolyRing, RingMap,
                        SuperPolynomial, Variable, combine)

ZERO = Fraction(0)
ONE = Fraction(1)


def _render_vector(alg: LieSuperalgebra, v: Sequence[Fraction]) -> str:
    """Human-readable label for a basis combination, e.g. 'e12+e23'."""
    parts = []
    for i, c in enumerate(v):
        if not c:
            continue
        if c == 1:
            t = alg.labels[i]
        elif c == -1:
            t = "-" + alg.labels[i]
        else:
            t = f"{c}*{alg.labels[i]}"
        parts.append(t)
    out = parts[0] if parts else "0"
    for t in parts[1:]:
        out += "+" + t if not t.startswith("-") else t
    return out


class SliceChart:
    """Invariant generators and the gauge transformation at the generic
    point of f + g_{>=-1/2}.

    invariants[label] is the coefficient of the centralizer basis vector
    with that label after gauging; gauge[label] is the component of the
    gauge group element on the positive basis direction with that label.
    adjoint_orbit_map(Z, gauge) equals f + sum invariants * basis
    (``round_trip_check``), so conjugating back by the negated gauge
    recovers Z exactly.

    The chart owns two differential rings, built once: ``ring`` on the
    coordinates z_b and ``slice_ring`` on the slice generators s_n.  The
    arc side (``pva``) works on them as they are, so each may gain jets
    after its order-zero variables; ``slice_generators`` lists those
    variables alone.  The chart also owns its Poisson structure,
    ``poisson``, its finite Miura image, ``miura``, and its gauge
    complex's derivation, ``gauge_ce``, each built on first use, so
    jobs that stop at the chart build none of them.
    """

    def __init__(self, alg, triple, grading, ring, coord_indices,
                 inv_order, invariants, inv_vectors, inv_wt2, gauge_vec):
        self.alg = alg
        self.triple = triple
        self.grading = grading
        self.ring = ring
        self.coord_indices = list(coord_indices)
        self.coord_pos = {b: a for a, b in enumerate(self.coord_indices)}
        self.inv_order = list(inv_order)
        self.invariants = dict(invariants)
        self.inv_vectors = dict(inv_vectors)
        self.inv_wt2 = dict(inv_wt2)
        self.gauge_vec = dict(gauge_vec)
        self.gauge = {alg.labels[i]: p for i, p in gauge_vec.items()}
        self.slice_ring = PolyRing([
            Variable(f"s{n + 1}", self.parity_of(lab),
                     wt2=2 + self.inv_wt2[lab])
            for n, lab in enumerate(self.inv_order)], differential=True)
        self.slice_names = {lab: f"s{n + 1}"
                            for n, lab in enumerate(self.inv_order)}

    @cached_property
    def poisson(self) -> "PoissonStructure":
        """The chart's Poisson structure, built the first time it is used."""
        return PoissonStructure(self)

    @cached_property
    def miura(self) -> "MiuraImage":
        """The finite Miura image, built the first time it is used."""
        return MiuraImage(self)

    @cached_property
    def gauge_ce(self) -> "cohomology.OddDerivation":
        """The gauge complex's derivation (``cohomology._gauge_ce``),
        built and squared on first use: d of the slice complex, Q of
        the arc one.  ``.ring`` gains jets; ``.images.base`` holds the
        order-zero images."""
        return cohomology.differential(*cohomology._gauge_ce(self))

    def slice_generators(self) -> list[Variable]:
        """The order-zero variables of ``slice_ring``, one per invariant
        in ``inv_order``; jets the arc side adds come after them."""
        return self.slice_ring.variables[:len(self.inv_order)]

    def parity_of(self, label: str) -> int:
        v = self.inv_vectors[label]
        for i, c in enumerate(v):
            if c:
                return self.alg.parities[i]
        raise ValueError("zero invariant vector")

    def generic_point(self, ring: Optional[PolyRing] = None) -> dict:
        """Z = f + sum z_b x_b, z_b the variable at b's chart position in
        ring (default: the chart ring)."""
        ring = self.ring if ring is None else ring
        return affine_point(ring, self.triple.f,
                            [(self.alg.basis_vector(b), ring.gen(pos))
                             for pos, b in enumerate(self.coord_indices)])

    def slice_point(self) -> dict:
        """f + sum s_n u_n over the slice coordinate ring."""
        return affine_point(self.slice_ring, self.triple.f,
                            [(self.inv_vectors[lab], self.slice_ring.gen(n))
                             for n, lab in enumerate(self.inv_order)])

    def compile_invariants(self) -> tuple[MonomialTrie, dict]:
        """(trie, {label: program}) of the invariants, new at each call."""
        trie = MonomialTrie()
        return trie, {lab: trie.compile(self.invariants[lab])
                      for lab in self.inv_order}

    def evaluate_invariants(self, point: dict, ring: PolyRing,
                            compiled=None) -> dict:
        """Invariant values at a polynomial vector in f + g_{>=-1/2}, by
        one map running ``compiled`` (default: ``compile_invariants()``)."""
        f = self.triple.f
        images = {}
        for pos, b in enumerate(self.coord_indices):
            images[pos] = point.get(b, ring.zero())
        for i in range(self.alg.dim):
            if i in self.coord_pos:
                continue
            comp = point.get(i)
            want = f[i]
            if comp is None:
                if want:
                    raise ValueError("point leaves f + g_{>=-1/2}")
            elif not (comp.is_constant() and comp.as_constant() == want):
                raise ValueError("point leaves f + g_{>=-1/2}")
        trie, programs = compiled or self.compile_invariants()
        at = RingMap(self.ring, images, ring, trie)
        return {lab: at.run(programs[lab]) for lab in self.inv_order}

    def check_homogeneity(self):
        """Each invariant is homogeneous of conformal weight 1 + j for its
        centralizer vector in degree j; parity matches.  Raises on failure."""
        for lab in self.inv_order:
            p = self.invariants[lab]
            want_par = self.parity_of(lab)
            if not p.is_zero() and p.parity() != want_par:
                raise ValueError(f"invariant {lab!r} has wrong parity")
            w2 = p.weight2()
            if w2 is None or w2 != 2 + self.inv_wt2[lab]:
                raise ValueError(
                    f"invariant {lab!r} not homogeneous of weight "
                    f"{Fraction(2 + self.inv_wt2[lab], 2)}")

    def round_trip_check(self):
        """conj(Z, gauge) == f + sum invariants * basis, symbolically:
        the composite gauge element takes the generic point Z onto the
        slice point.

        This is the round trip read forwards.  ad(gauge) is nilpotent on
        g_+ tensor the ring, so conj(., -gauge) is the exact inverse of
        conj(., gauge), and conj(slice point, -gauge) == Z holds exactly
        when this does.  The series runs on Z, which is linear in the
        variables, rather than on the gauged point."""
        gauged = affine_point(self.ring, self.triple.f,
                              [(self.inv_vectors[lab], self.invariants[lab])
                               for lab in self.inv_order])
        if adjoint_orbit_map(self.alg, self.generic_point(),
                             self.gauge_vec) != gauged:
            raise ValueError("round trip failed")


def affine_point(ring: PolyRing, f: Sequence, terms) -> dict:
    """f + sum p v over the (v, p) in terms, v a dense vector like f and
    p a polynomial of ring, as {basis index: polynomial} without zero
    components; each component is summed once (``combine``)."""
    acc: dict = {i: [(c, UNIT, UNIT)] for i, c in enumerate(f) if c}
    for v, p in terms:
        for i, c in enumerate(v):
            if c:
                acc.setdefault(i, []).append((c, p, UNIT))
    return combine(ring, acc)


def bch_word_bound(alg: LieSuperalgebra, grading: GoodGrading) -> int:
    """The word length at which ``bch_product`` may truncate the Dynkin
    series on g_+ exactly, read off the supports of the table.

    S_1 is the set of positive basis indices and S_{n+1} the union of
    the supports of the table rows [x_i, x_m], i in S_1 and m in S_n.
    A right-nested bracket of n elements of g_+ lies in the span of
    S_n, so every word longer than the last nonempty S_n vanishes, and
    that length is the bound (1 when g_+ is zero).  Each bracket raises
    the grading level by at least the lowest positive level, so S_n is
    empty once n exceeds max_wt2 // min_wt2, which bounds the loop.

    Supports ignore cancellation, so the bound is at least the
    nilpotency class of g_+, and equal to it when brackets of basis
    vectors do not cancel, as in every catalogue chart the tests check.
    The grading's own bound max_wt2 // min_wt2 can be far larger: 10
    against a class of 6 on sl(6|1) principal, where the extra words of
    ``supergroup._dynkin_words`` cost more than the rest of the chart.
    """
    pos = grading.positive_indices()
    table = alg.table
    level, n = set(pos), 0
    while level:
        n += 1
        level = {k for i in pos for m in level
                 for k in table.get((i, m), ())}
    return max(n, 1)


def gauge_fix(alg: LieSuperalgebra, triple: Sl2Triple, grading: GoodGrading,
              pieces: dict[int, GradedPiece]) -> SliceChart:
    """Solve the gauge-fixing recursion at the symbolic generic point.

    ``pieces`` is the ``decomposition`` stage's
    ``graded_slice_decomposition`` of the same data; a level's
    coordinates are its ``inverse`` rows applied to that level of the
    point.  Once the point has landed, the steps s_1 ... s_k are
    composed from the right, BCH(s_1, BCH(s_2, ... BCH(s_{k-1}, s_k))),
    by ``bch_product`` truncated at ``bch_word_bound`` letters, so each
    fold brackets one level's step against the higher steps' composite.
    """
    coord_indices = [i for i in range(alg.dim) if grading.weights2[i] >= -1]
    variables = []
    for b in coord_indices:
        variables.append(Variable(f"z_{alg.labels[b]}", alg.parities[b],
                                  wt2=2 + grading.weights2[b]))
    ring = PolyRing(variables, differential=True)

    cur = affine_point(ring, triple.f,
                       [(alg.basis_vector(b), ring.gen(pos))
                        for pos, b in enumerate(coord_indices)])

    steps = []
    inv_order, invariants, inv_vectors, inv_wt2 = [], {}, {}, {}
    zero = ring.zero()

    for lev in sorted(pieces):
        piece = pieces[lev]
        D = [cur.get(r, zero) for r in piece.row_indices]
        n_e = len(piece.e_basis)
        sums = combine(ring, {
            r: [(x, D[c], UNIT) for c, x in row.items()]
            for r, row in enumerate(piece.inverse)})
        coords = [sums.get(r, zero) for r in range(len(piece.inverse))]
        for j in range(n_e):
            lab = _render_vector(alg, piece.e_basis[j])
            inv_order.append(lab)
            invariants[lab] = coords[j]
            inv_vectors[lab] = piece.e_basis[j]
            inv_wt2[lab] = lev
        step = {}
        for k, b_idx in enumerate(piece.lift_indices):
            c = coords[n_e + k]
            if not c.is_zero():
                step[b_idx] = -c
        if step:
            cur = adjoint_orbit_map(alg, cur, step)
            steps.append(step)

    # exact self-check: the gauged point is f + sum invariants * basis
    want = affine_point(ring, triple.f,
                        [(inv_vectors[lab], invariants[lab])
                         for lab in inv_order])
    if cur != want:
        raise ValueError("gauge recursion did not land on the slice")

    words = bch_word_bound(alg, grading)
    gauge_total = steps[-1] if steps else {}
    for step in reversed(steps[:-1]):
        gauge_total = bch_product(alg, step, gauge_total, words)
    return SliceChart(alg, triple, grading, ring, coord_indices,
                      inv_order, invariants, inv_vectors, inv_wt2,
                      gauge_total)


# -- invariance trials ---------------------------------------------------------

def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def verify_invariance(chart: SliceChart, trials: int,
                      seed: int = 0):
    """Random gauge trials: invariants(conj(Z, Y)) == invariants(Z) as
    polynomial identities in auxiliary odd symbols.  Returns (True, None)
    or (False, description of the first counterexample); raises when
    trials is below 1, which would make the PASS vacuous.  Every point
    of every trial, each trial with its own ring, runs on one trie."""
    if trials < 1:
        raise ValueError(f"invariance needs at least 1 trial, got {trials}")
    alg, grading = chart.alg, chart.grading
    compiled = chart.compile_invariants()
    rng = random.Random(seed)
    for t in range(trials):
        variables = []
        for b in chart.coord_indices:
            variables.append(Variable(f"w{t}_{alg.labels[b]}",
                                      alg.parities[b]))
        gauge_odd = [i for i in grading.positive_indices() if alg.parities[i]]
        for i in gauge_odd:
            variables.append(Variable(f"g{t}_{alg.labels[i]}", 1))
        ring = PolyRing(variables)

        # odd coordinates stay formal, even ones are drawn in chart order
        Z = affine_point(ring, chart.triple.f, [
            (alg.basis_vector(b), ring.gen(pos) if alg.parities[b]
             else ring.const(_random_fraction(rng)))
            for pos, b in enumerate(chart.coord_indices)])
        Y = {}
        for i in grading.positive_indices():
            c = _random_fraction(rng)
            if alg.parities[i]:
                gen = ring.gen(ring.index[f"g{t}_{alg.labels[i]}"])
                Y[i] = gen * c
            else:
                Y[i] = ring.const(c)
        moved = adjoint_orbit_map(alg, Z, Y)
        base = chart.evaluate_invariants(Z, ring, compiled)
        after = chart.evaluate_invariants(moved, ring, compiled)
        for lab in chart.inv_order:
            if base[lab] != after[lab]:
                return False, {
                    "trial": t, "invariant": lab,
                    "before": base[lab].text(), "after": after[lab].text(),
                }
    return True, None


# -- Poisson structure ---------------------------------------------------------

DEGENERATE_FORM = ("the bilinear form is degenerate on g_{<=0} + g_{1/2} "
                   "against the chart coordinates")


class PoissonStructure:
    """Poisson bracket on the coordinate ring of f + g_{>=-1/2}, built on
    the chart coordinates z_b.

    Each basis vector u of g_{<=0} + g_{1/2} (``gen_indices``) gives the
    affine function zeta_u = -(-1)^{|u|}(u|.) for u in g_{<=0} and
    zeta_u = (u|.) for u in g_{1/2}; at the generic point it reads
    zeta_a = c_a + sum_beta M[a, beta] z_beta (``zeta``, one chart
    polynomial per generator).  The generator brackets are
    {zeta_u, zeta_v} = zeta_{[u,v]} (both in g_{<=0}), the constant
    (f|[u,v]) (both in g_{1/2}) and 0 when mixed, extended as a
    biderivation (De Sole and Kac, "Finite vs affine W-algebras"); they
    are read off the nonzero structure constants and form entries
    straight into zeta.  The constant c_a = sgn_a (u_a|f) vanishes on
    every grading the catalogue produces, but nothing rules it out for
    an algebra read from JSON, so it stays inside zeta.  Both c_a and
    the g_{1/2} brackets read the one pairing (f|x_k): the form is even
    and supersymmetric and f is even, so (u|f) = (f|u).

    The constructor is the one place that reads M: it refuses a chart
    without a form, generators and chart coordinates that differ in
    number, and a singular M (``DEGENERATE_FORM``), in that order.  It
    reads M's sparse rows straight from the form rows and inverts them
    once: ``minv_rows`` holds the nonzero entries of the rows of Minv,
    from ``linalg.row_inverse``, so z_b = sum_a Minv[b, a]
    (zeta_a - c_a).  ``zeta`` and ``coordinate_table`` are built on
    first use, so a job that only needs the form checked builds neither.
    ``coordinate_table`` is the generator table moved to the chart
    coordinates: {z_b, z_c} = sum Minv[b,a] Minv[c,a'] {zeta_a, zeta_a'}
    over the nonzero entries of rows b and c of Minv (constants bracket
    to zero).  The arc side (``pva``) reads it as it is: the chart ring
    is differential.  The structure keeps the chart's ring, algebra and
    grading weights, not the chart itself.
    """

    def __init__(self, chart: SliceChart):
        alg, w2 = chart.alg, chart.grading.weights2
        form = alg.form_rows
        if form is None:
            raise ValueError("Poisson structure needs the bilinear form")
        self.gen_indices = [i for i in range(alg.dim)
                            if w2[i] <= 0 or w2[i] == 1]
        if len(self.gen_indices) != len(chart.coord_indices):
            raise ValueError("generator/coordinate count mismatch")
        self.gen_pos = {b: a for a, b in enumerate(self.gen_indices)}
        self.ring, self.alg, self.weights2 = chart.ring, alg, w2
        self._f_pairing: dict[int, Fraction] = {}  # k -> (f|x_k)
        for j, c in enumerate(chart.triple.f):
            if c:
                for k, v in form[j].items():
                    self._f_pairing[k] = self._f_pairing.get(k, ZERO) + c * v
        # zeta_a = c_a + sum_beta M[a, beta] z_beta, M by its sparse rows
        self._const, self._m_rows = [], []
        for ia in self.gen_indices:
            sgn = ONE if w2[ia] == 1 or alg.parities[ia] else -ONE
            self._const.append(sgn * self._f_pairing.get(ia, ZERO))
            self._m_rows.append({chart.coord_pos[ib]: sgn * v
                                 for ib, v in form[ia].items()
                                 if ib in chart.coord_pos})
        try:
            self.minv_rows = row_inverse(self._m_rows)
        except ValueError:
            raise ValueError(DEGENERATE_FORM) from None

    @cached_property
    def zeta(self) -> dict[int, SuperPolynomial]:
        """zeta_a as a chart polynomial, for every generator a: M is
        invertible, so no row is zero."""
        ring = self.ring
        return combine(ring, {
            a: [(self._const[a], UNIT, UNIT)]
            + [(co, ring.gen(beta), UNIT) for beta, co in r.items()]
            for a, r in enumerate(self._m_rows)})

    @cached_property
    def coordinate_table(self) -> dict[tuple[int, int], SuperPolynomial]:
        """{(b, c): {z_b, z_c}} over the nonzero brackets."""
        ring, w2, pos = self.ring, self.weights2, self.gen_pos
        acc: dict = {}
        for (ia, ib), row in self.alg.table.items():
            if ia not in pos or ib not in pos:
                continue
            if w2[ia] <= 0 and w2[ib] <= 0:
                val = [(c, self.zeta[pos[k]], UNIT) for k, c in row.items()]
            elif w2[ia] == 1 and w2[ib] == 1:
                val = [(c * self._f_pairing.get(k, ZERO), UNIT, UNIT)
                       for k, c in row.items()]
            else:
                continue
            acc[(pos[ia], pos[ib])] = val
        on_zeta = combine(ring, acc)
        return combine(ring, {
            (b, c): [(ca * cc, on_zeta[(a, a2)], UNIT)
                     for a, ca in row_b.items()
                     for a2, cc in row_c.items() if (a, a2) in on_zeta]
            for b, row_b in enumerate(self.minv_rows)
            for c, row_c in enumerate(self.minv_rows)})


# -- Miura --------------------------------------------------------------------

class MiuraImage:
    """Invariants restricted to f + g_ini (all degree >= 1/2 coordinates
    set to zero)."""

    def __init__(self, chart: SliceChart):
        self.chart = chart
        alg, grading = chart.alg, chart.grading
        at = RingMap(chart.ring, dict.fromkeys(
            (pos for pos, b in enumerate(chart.coord_indices)
             if grading.weights2[b] >= 1), chart.ring.zero()))
        self.images = {lab: at(chart.invariants[lab])
                       for lab in chart.inv_order}
        self.ini_positions = [pos for pos, b in enumerate(chart.coord_indices)
                              if grading.weights2[b] <= 0]
        self.even_positions = [p for p in self.ini_positions
                               if alg.parities[chart.coord_indices[p]] == 0]
        self.odd_positions = [p for p in self.ini_positions
                              if alg.parities[chart.coord_indices[p]] == 1]


class InjectivityCertificate:
    def __init__(self, even_rank, even_target, odd_rank, odd_target,
                 witness_points, verdict, note=""):
        self.even_rank = even_rank
        self.even_target = even_target
        self.odd_rank = odd_rank
        self.odd_target = odd_target
        self.witness_points = witness_points
        self.verdict = verdict
        self.note = note

    def as_dict(self):
        return {
            "even_rank": self.even_rank, "even_target": self.even_target,
            "odd_rank": self.odd_rank, "odd_target": self.odd_target,
            "witness_points": self.witness_points, "verdict": self.verdict,
            "note": self.note,
        }


def injectivity_certificate(miura: MiuraImage, trials: int = 5,
                            seed: int = 0) -> InjectivityCertificate:
    """Exact-rank certificate of Miura injectivity at random rational
    points (with the conjugated-by-exp(e) fallback witness for the odd
    block).  A full-rank witness proves injectivity; exhausting the
    trials is reported as an inconclusive failure."""
    chart = miura.chart
    alg = chart.alg
    rng = random.Random(seed)
    even, odd = miura.even_positions, miura.odd_positions
    zero_odd = RingMap(chart.ring, dict.fromkeys(odd, chart.ring.zero()))
    labels = [[l for l in chart.inv_order if chart.parity_of(l) == par]
              for par in (0, 1)]
    # even block: odd coordinates zeroed once per image, then
    # differentiated; odd block: differentiated, then odd coordinates zeroed
    jacobians = (
        [[img.partial_derivative(pos) for pos in even]
         for img in (zero_odd(miura.images[l]) for l in labels[0])],
        [[zero_odd(miura.images[l].partial_derivative(pos))
          for pos in odd] for l in labels[1]])
    targets = [len(l) for l in labels]

    def witness_candidates():
        for _ in range(trials):
            yield {pos: _random_fraction(rng) for pos in even}
        # guaranteed fallback: even coordinates of exp(e) . f
        shifted = adjoint_orbit_map(
            alg, dense_to_poly(alg, chart.triple.f, chart.ring),
            dense_to_poly(alg, chart.triple.e, chart.ring))
        point = {}
        for pos in even:
            b = chart.coord_indices[pos]
            comp = shifted.get(b)
            point[pos] = comp.as_constant() if comp is not None else ZERO
        yield point

    # per block: the best rank so far (the target once it passes, 0 when
    # the block is empty) and whether it has passed
    witnesses = []
    ranks = [0, 0]
    done = [not t for t in targets]
    for point in witness_candidates():
        at = RingMap(chart.ring, {pos: chart.ring.const(v)
                                  for pos, v in point.items()})
        for blk, name in enumerate(("even", "odd")):
            if done[blk]:
                continue
            r = exact_rank(RationalMatrix([[at(x).as_constant() for x in row]
                                           for row in jacobians[blk]]))
            ranks[blk] = max(ranks[blk], r)
            if r == targets[blk]:
                done[blk] = True
                witnesses.append({"block": name, "point": {
                    chart.ring.variables[pos].name: str(v)
                    for pos, v in point.items()}})
        if all(done):
            return InjectivityCertificate(ranks[0], targets[0], ranks[1],
                                          targets[1], witnesses, "pass")
    return InjectivityCertificate(
        ranks[0], targets[0], ranks[1], targets[1], witnesses, "fail",
        note="no full-rank witness found; inconclusive, not a disproof")

"""Outside-in span tracer for the superslice layers.

The tracer replaces selected public functions and methods of the
package with thin wrappers, wherever callers look them up: a function
is rebound in every ``superslice`` module namespace that holds it (for
example ``exact_rank`` in ``linalg``, ``cohomology``, ``slice`` and
``liealg``), a method is replaced on its class.  No program file is
edited.

Each call records one span (name, start, end, parent) in flat arrays
that stay in memory; ``aggregate`` derives inclusive and self time from
the parent links once the run is over, and ``dump`` writes the spans
out.  Counts (calls, term pairs, matrix cells, nonzeros, distinct
arguments) are computed from the arguments, never from timings, so they
repeat exactly between runs at the same seed.

Hooks that walk a whole matrix run inside a span of their own, named
``trace.hook``, so their cost is subtracted from the self time of both
the traced function and its caller.
"""

from __future__ import annotations

import sys
import time
import weakref
from array import array

HOOK = "trace.hook"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.maxima: dict[str, int] = {}
        self.mul_pairs = [0]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrapping -------------------------------------------------------

    def wrap(self, fn, name: str, hook=None):
        """Wrapper recording one span per call of ``fn``; ``hook(args)``
        runs first, inside a ``trace.hook`` span."""
        nid = self.name_id(name)
        hid = self.name_id(HOOK)
        clock = time.perf_counter
        stack, name_of, parent = self.stack, self.name_of, self.parent
        start, end = self.start, self.end

        def open_span(n):
            i = len(start)
            name_of.append(n)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            return i

        def close_span(i):
            end[i] = clock()
            stack.pop()

        def traced(*args, **kwargs):
            if hook is not None:
                h = open_span(hid)
                hook(args)
                close_span(h)
            i = open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(i)

        return traced

    def wrap_mul(self, fn, poly_type, name: str):
        """Specialised wrapper for the product operator, the hottest call
        (hundreds of thousands per pass): everything is inlined."""
        nid = self.name_id(name)
        clock = time.perf_counter
        stack, name_of, parent = self.stack, self.name_of, self.parent
        start, end = self.start, self.end
        pairs = self.mul_pairs

        def traced(a, b):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            if isinstance(b, poly_type):  # scaling by a number is no pair
                pairs[0] += len(a.terms) * len(b.terms)
            start.append(clock())
            try:
                return fn(a, b)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def patch_function(self, module, attr: str, name: str, hook=None):
        """Rebind ``module.attr`` in every superslice namespace holding it."""
        fn = getattr(module, attr)
        traced = self.wrap(fn, name, hook)
        for modname, mod in list(sys.modules.items()):
            if modname != "superslice" and not modname.startswith(
                    "superslice."):
                continue
            ns = vars(mod)
            for key, val in list(ns.items()):
                if val is fn:
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, hook=None):
        setattr(cls, attr, self.wrap(cls.__dict__[attr], name, hook))

    # -- counters ------------------------------------------------------

    def add(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def see(self, key: str, item):
        self.distinct.setdefault(key, set()).add(item)

    def peak(self, key: str, n: int):
        if n > self.maxima.get(key, -1):
            self.maxima[key] = n

    # -- results -------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost calls only,
        so recursion is not counted twice) and self seconds."""
        n = len(self.start)
        start, end, parent, name_of = (self.start, self.end, self.parent,
                                       self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        outer_end = [float("-inf")] * len(self.names)
        for i in range(n):
            k = name_of[i]
            s = stats[self.names[k]]
            dur = end[i] - start[i]
            s[0] += 1
            s[2] += dur - child[i]
            if start[i] >= outer_end[k]:
                s[1] += dur
                outer_end[k] = end[i]
        out = {name: {"calls": c, "s": incl, "self_s": own}
               for name, (c, incl, own) in stats.items()}
        return out

    def dump(self, path: str):
        """Write the spans as tab-separated text: index, parent, job,
        name, start and end in microseconds from the first span."""
        n = len(self.start)
        t0 = self.start[0] if n else 0.0
        job = array("i", [0]) * n
        jobs = 0
        with open(path, "w") as fh:
            fh.write("span\tparent\tjob\tname\tstart_us\tend_us\n")
            for i in range(n):
                p = self.parent[i]
                if p < 0:
                    jobs += 1
                    job[i] = jobs
                else:
                    job[i] = job[p]
                fh.write(f"{i}\t{p}\t{job[i]}\t"
                         f"{self.names[self.name_of[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.end[i] - t0) * 1e6:.1f}\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each layer the benchmark reports on."""
    from superslice import (cohomology, liealg, linalg, pva, slice,
                            supergroup, superpoly)

    def rank_hook(args):
        m = args[0]
        rows, cols = m.nrows, m.ncols
        zero = linalg.ZERO
        key = []
        nnz = 0
        for r in m.rows:
            z = r.count(zero)
            if z == cols:
                key.append(())
                continue
            nnz += cols - z
            key.append(tuple((j, x) for j, x in enumerate(r)
                             if x is not zero and x))
        tracer.add("linalg.exact_rank.cells", rows * cols)
        tracer.add("linalg.exact_rank.nnz", nnz)
        tracer.peak("linalg.exact_rank.rows_max", rows)
        tracer.peak("linalg.exact_rank.cols_max", cols)
        tracer.see("linalg.exact_rank", (rows, cols, tuple(key)))

    # Complexes are numbered in creation order, so argument keys repeat
    # exactly between runs (object ids would not).
    serial: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def d_matrix_hook(args):
        cx, k, n2 = args
        sid = serial.setdefault(cx, len(serial))
        tracer.see("cohomology.d_matrix", (sid, k, n2))

    for module, attr, name, hook in (
            (linalg, "exact_rank", "linalg.exact_rank", rank_hook),
            (linalg, "rref", "linalg.rref", None),
            (linalg, "solve", "linalg.solve", None),
            (linalg, "nullspace", "linalg.nullspace", None),
            (liealg, "build_sl", "liealg.build", None),
            (liealg, "build_osp_1_2", "liealg.build", None),
            (supergroup, "bch_product", "supergroup.bch_product", None),
            (supergroup, "adjoint_orbit_map", "supergroup.adjoint_orbit_map",
             None),
            (slice, "gauge_fix", "slice.gauge_fix", None),
            (slice, "verify_invariance", "slice.verify_invariance", None),
            (slice, "injectivity_certificate", "slice.injectivity_certificate",
             None),
            (pva, "brst_complex", "pva.brst_complex", None),
            (pva, "h0_truncated", "pva.h0_truncated", None)):
        tracer.patch_function(module, attr, name, hook)

    SP = superpoly.SuperPolynomial
    SP.__mul__ = tracer.wrap_mul(SP.__mul__, SP, "superpoly.mul")
    for cls, attr, name, hook in (
            (SP, "substitute", "superpoly.substitute", None),
            (SP, "total_derivative", "superpoly.total_derivative", None),
            (liealg.LieSuperalgebra, "validate", "liealg.validate", None),
            (liealg.LieSuperalgebra, "bracket_poly", "liealg.bracket_poly",
             None),
            (cohomology.GradedComplex, "d_matrix", "cohomology.d_matrix",
             d_matrix_hook),
            (pva.TruncatedH0, "dimensions", "pva.h0.dimensions", None),
            (pva.ArcBracket, "bracket", "pva.bracket", None),
            (pva.GradedMiura, "check_intertwining", "pva.check_intertwining",
             None)):
        tracer.patch_method(cls, attr, name, hook)

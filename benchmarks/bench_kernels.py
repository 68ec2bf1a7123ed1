"""Timing comparison of the pure and compiled product kernels.

Two workloads: raw sparse products, and an end-to-end chart+certificate
build that swaps the product kernel in place so everything downstream
is identical apart from the backend.

Run:  python3 benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import random
import time
from fractions import Fraction

from superslice import _kernels, _kernels_py

try:
    from superslice import _speedups
except ImportError:
    _speedups = None


def random_terms(rng, nvars, parities, nterms):
    out = {}
    while len(out) < nterms:
        idxs = sorted(rng.sample(range(nvars), rng.randint(1, 5)))
        mono = tuple((i, 1 if parities[i] else rng.randint(1, 3))
                     for i in idxs)
        out[mono] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
    return out


def bench_mul(repeat):
    rng = random.Random(12345)
    nvars = 30
    parities = tuple(rng.randint(0, 1) for _ in range(nvars))
    pairs = [(random_terms(rng, nvars, parities, 120),
              random_terms(rng, nvars, parities, 120)) for _ in range(6)]

    def run(impl):
        t0 = time.perf_counter()
        for _ in range(repeat):
            for a, b in pairs:
                impl.mul_terms(a, b, parities)
        return time.perf_counter() - t0

    return run(_kernels_py), run(_speedups) if _speedups else None


def bench_end_to_end(repeat):
    from superslice.liealg import (build_sl, dynkin_grading,
                                   principal_nilpotent, sl2_triple_for)
    from superslice.slice import (finite_miura, gauge_fix,
                                  injectivity_certificate)

    def job():
        alg = build_sl(2, 1)
        triple = sl2_triple_for(alg, principal_nilpotent(alg))
        chart = gauge_fix(alg, triple, dynkin_grading(alg, triple))
        injectivity_certificate(finite_miura(chart))

    def run(impl):
        keep = _kernels.mul_terms
        _kernels.mul_terms = impl.mul_terms
        try:
            t0 = time.perf_counter()
            for _ in range(repeat):
                job()
            return time.perf_counter() - t0
        finally:
            _kernels.mul_terms = keep

    return run(_kernels_py), run(_speedups) if _speedups else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    if _speedups is None:
        print("compiled extension not built; showing pure timings only")
    rows = [("sparse products (6 pairs x 120 terms)", bench_mul(args.repeat)),
            ("sl(2|1) chart + certificate", bench_end_to_end(args.repeat))]
    print(f"{'workload':40} {'pure':>9} {'compiled':>9} {'speedup':>8}")
    for name, (pure, fast) in rows:
        if fast is None:
            print(f"{name:40} {pure:8.3f}s {'-':>9} {'-':>8}")
        else:
            print(f"{name:40} {pure:8.3f}s {fast:8.3f}s "
                  f"{pure / fast:7.2f}x")


if __name__ == "__main__":
    main()

"""Spread and comparison of saved benchmark runs.

    python3 perfbench/compare.py BASE.log            # spread of one set
    python3 perfbench/compare.py BASE.log NEW.log    # NEW against BASE

A log is the standard output of one or more ``perfbench/run.py`` runs,
concatenated; only their ``detail`` lines are read.  For each workload
and end-to-end metric the script prints the number of runs, the median
and the quartiles of the per-run values, and the spread (distance
between the quartiles over the median) against the metric's bound in
``BENCHMARK.json``.  With two logs it adds the change of the median and
calls it a regression when NEW is worse than BASE by more than the
bound, unresolved when either spread exceeds the bound.

Runs whose Python version or kernel implementation differ are never
compared: the script refuses, with exit code 2.  So are runs with a
failed job.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("python", "kernel")


def read_log(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line[len("detail "):]) for line in fh
                if line.startswith("detail ")]


def summary(values: list) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def grouped(records: list) -> dict:
    out: dict = {}
    for r in records:
        if r["trace"]:
            continue
        out.setdefault(r["fingerprint"]["workload"], []).append(r)
    return out


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    sets = [read_log(p) for p in argv]
    everything = [r for s in sets for r in s]
    if not everything:
        print("no detail lines in the logs", file=sys.stderr)
        return 2
    for key in MUST_MATCH:
        seen = {r["fingerprint"][key] for r in everything}
        if len(seen) > 1:
            print(f"refused: runs differ in {key} ({', '.join(sorted(seen))})",
                  file=sys.stderr)
            return 2
    bad = [r for r in everything if r["problems"]]
    if bad:
        print(f"refused: {len(bad)} run(s) had failed jobs", file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    base = grouped(sets[0])
    new = grouped(sets[1]) if len(sets) == 2 else {}
    worst = 0
    for workload, runs in base.items():
        for name, m in bounds.items():
            b = summary([r["metrics"][name]["value"] for r in runs])
            line = (f"{workload:6s} {name:12s} n={len(runs):2d} "
                    f"median={b[0]:.6g} q1={b[1]:.6g} q3={b[2]:.6g} "
                    f"spread={b[3]:.3f} bound={m['bound']}")
            if workload in new:
                n = summary([r["metrics"][name]["value"]
                             for r in new[workload]])
                change = (n[0] - b[0]) / b[0]
                if m["better"] == "higher":
                    change = -change
                if name != "setup_s" and max(b[3], n[3]) > m["bound"]:
                    verdict = "unresolved"
                elif change > m["bound"]:
                    verdict, worst = "REGRESSION", 1
                else:
                    verdict = "ok"
                line += (f" | new median={n[0]:.6g} spread={n[3]:.3f} "
                         f"worse by {change:+.3f}: {verdict}")
            elif name == "setup_s":
                line += " (spread not gated)"
            else:
                line += " steady" if b[3] <= m["bound"] / 3 else " NOISY"
            print(line)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

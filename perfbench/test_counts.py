"""Every count the tracer reports repeats exactly between two traced runs.

    python3 perfbench/test_counts.py [WORKLOAD ...]
    python3 -m pytest perfbench/test_counts.py

Each run is a fresh traced pass interpreter at the default seed, so the
two runs also differ in their string hash seeds.  Counts are calls,
term pairs, matrix cells and nonzeros, maxima and the ratios between
them; none is derived from a timing.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

COUNT_UNITS = ("count", "ratio")


def traced_counts(workload: str) -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((run.HERE / "workloads.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = run.tracer_metrics(bench)
    jobs = run.job_argvs(spec["workloads"][workload]["jobs"],
                         spec["default_seed"])
    p = run.spawn({"jobs": jobs, "trace": True, "layer_metrics": names,
                   "spans": None}, run.DEADLINE_S)
    assert all(j["rc"] == 0 and j["verdict"] == "pass" for j in p["jobs"])
    return {n: p["layers"][n] for n in names if units[n] in COUNT_UNITS}


@pytest.mark.parametrize("workload", ["chart", "rank", "arc"])
def test_counts_repeat_exactly(workload):
    first, second = traced_counts(workload), traced_counts(workload)
    assert first["superpoly.mul.calls"] > 0
    assert first == second, {n: (first[n], second[n]) for n in first
                             if first[n] != second[n]}


if __name__ == "__main__":
    for w in sys.argv[1:] or ["chart", "rank", "arc"]:
        test_counts_repeat_exactly(w)
        print(f"{w}: counts repeat exactly")

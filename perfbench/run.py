"""The repository benchmark: superslice CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload chart --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  The model is a closed loop with one client: a pass runs the
workload's jobs back to back in one fresh interpreter
(``perfbench/passrun.py``), and the next pass starts when it has ended.
Passes start while less than ``--seconds`` have gone by, or fewer than
three have run, as long as the next pass is expected to end within
1.4 x ``--seconds``; a run has at least one pass (one of each kind when
traced).

A job is a CLI argument list passed to ``superslice.cli.main`` with
``--format json`` and ``--seed``.  A job counts only when its report body
is verified: exit code 0, verdict ``pass``, the pinned digest of the
body without its seed-chosen fields at every seed, the pinned digest of
the whole body at the default seed, and byte-identical bodies in every
pass of the run.  No time is reported from a pass with a failed job.

``--trace 0`` reports the end-to-end metrics: median pass
``norm_wall_s`` (job time rescaled to the nominal machine speed, see
``perfbench/speed.py``), median ``peak_rss_mb`` of the pass process, and
median ``setup_s``, from spawning a pass interpreter until
``superslice.cli`` is imported, rescaled the same way.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
from the tracer (``perfbench/tracer.py``) plus the raw pass times and
the stage timings of the untraced passes.

The metric names and units come from ``BENCHMARK.json``.  The output is
a table, a ``detail`` line (environment fingerprint, every sample,
verification) and, last, one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 when every job verified.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "superslice"

DEADLINE_S = 165.0   # a run must end well inside 180 s
SETUP_PROBES = 7     # set-up-only interpreters per run, besides the passes
MIN_PASSES = 3       # a median of two would be a mean
RUN_CAP = 1.4        # passes must be expected to end within this x --seconds


class BenchError(Exception):
    pass


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise BenchError(f"cannot read {path.name}: {e}")


def spawn(spec: dict, timeout: float) -> dict:
    """Run one pass interpreter; returns its result with ``setup_s``
    (raw) and ``norm_setup_s`` (rescaled by the reference kernel's time
    right after the import)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py"), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a pass overran the run deadline")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"pass interpreter exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["imported"] - t0
    result["norm_setup_s"] = result["setup_s"] * REF_NOMINAL_S / \
        result["import_kernel_s"]
    return result


def fingerprint(probe: dict, workload: str, seed: int) -> dict:
    """What a comparison between two results must hold equal."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0")
        src.update(path.read_bytes())
    return {"python": probe["python"], "kernel": probe["kernel"],
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "source_sha256": src.hexdigest(), "workload": workload,
            "seed": seed}


def job_argvs(pinned: list, seed: int) -> list:
    return [job["argv"] + ["--format", "json", f"--seed={seed}"]
            for job in pinned]


def tracer_metrics(bench: dict) -> list:
    """Per-layer metrics the tracer computes inside the pass; the stage
    times and the overhead ratio are derived here from the passes."""
    return [m["name"] for m in bench["per_layer"]
            if not m["name"].startswith(("cli.", "trace."))]


def verify(passes: list, pinned: list, seed: int, default_seed: int):
    """Mark each job and pass ok or not; returns the list of problems."""
    problems = []
    first = {}
    for n, p in enumerate(passes):
        p["ok"] = True
        for k, (job, pin) in enumerate(zip(p["jobs"], pinned)):
            why = None
            if job["error"]:
                why = "raised: " + job["error"].strip().splitlines()[-1]
            elif job["rc"] != 0 or job["verdict"] != "pass":
                why = f"exit {job['rc']}, verdict {job['verdict']}"
            elif job["seed_free_sha256"] != pin.get("seed_free_sha256"):
                why = "seed-free body digest differs from the pinned one"
            elif seed == default_seed and \
                    job["body_sha256"] != pin.get("body_sha256"):
                why = "body digest differs from the one pinned at the " \
                      "default seed"
            elif first.setdefault(k, job["body_sha256"]) != \
                    job["body_sha256"]:
                why = "body bytes differ between passes"
            job["ok"] = why is None
            if why:
                p["ok"] = False
                problems.append(f"pass {n} job {' '.join(job['argv'])}: "
                                f"{why}")
    return problems


def stage_times(p: dict) -> dict:
    out: dict = {}
    for job in p["jobs"]:
        for name, s in job["stages"].items():
            out[name] = out.get(name, 0.0) + s
    return out


def end_to_end(passes: list, setups: list) -> dict:
    med = statistics.median
    return {"norm_wall_s": med(p["norm_wall_s"] for p in passes),
            "peak_rss_mb": med(p["peak_rss_kb"] / 1024 for p in passes),
            "setup_s": med(s["norm_setup_s"] for s in setups)}


def per_layer(plain: list, traced: list, names: list, units: dict,
              problems: list) -> dict:
    """Times are medians over passes; counts come from the first traced
    pass and must repeat exactly in the others."""
    med = statistics.median
    out = {}
    for name in names:
        if name == "trace.overhead_ratio":
            out[name] = med(p["wall_s"] for p in traced) / \
                med(p["wall_s"] for p in plain)
        elif name.startswith("cli.pass."):
            field = name[len("cli.pass."):]
            out[name] = med(p[field] for p in plain)
        elif name.startswith("cli.stage."):
            stage = name[len("cli.stage."):-len("_s")]
            out[name] = med(stage_times(p).get(stage, 0.0) for p in plain)
        elif units[name] == "s":
            out[name] = med(p["layers"][name] for p in traced)
        else:
            out[name] = traced[0]["layers"][name]
            if any(p["layers"][name] != out[name] for p in traced[1:]):
                problems.append(f"count {name} differs between traced passes")
    return out


def run(args) -> tuple[dict, dict]:
    if not (PACKAGE / "cli.py").is_file():
        raise BenchError(f"no superslice sources under {PACKAGE.parent}; "
                         "run from the root of a source checkout")
    bench = load_json(ROOT / "BENCHMARK.json")
    spec = load_json(HERE / "workloads.json")
    workloads = spec["workloads"]
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads)}")
    pinned = workloads[args.workload]["jobs"]
    jobs = job_argvs(pinned, args.seed)
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[section]]
    units = {m["name"]: m["unit"] for m in bench[section]}
    layer_names = tracer_metrics(bench)
    if args.trace:
        (HERE / "traces").mkdir(exist_ok=True)
    t_start = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - t_start)

    # The first interpreter compiles the bytecode caches, as an install
    # does once; it is not timed.
    probe = spawn({"probe": True}, left())
    setups = [spawn({"probe": True}, left())
              for _ in range(SETUP_PROBES)]
    passes: list = []
    t_passes = time.monotonic()

    def another() -> bool:
        if len(passes) < (2 if args.trace else 1):
            return True
        elapsed = time.monotonic() - t_passes
        expected = 1.5 * passes[-1]["wall_s"]
        if left() < expected + 5 or \
                elapsed + passes[-1]["wall_s"] > RUN_CAP * args.seconds:
            return False
        return elapsed < args.seconds or len(passes) < MIN_PASSES

    while another():
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = spawn({"jobs": jobs, "trace": traced,
                   "layer_metrics": layer_names,
                   "spans": str(HERE / "traces" /
                                f"{args.workload}-seed{args.seed}.tsv")
                   if traced else None}, left())
        p["traced"] = traced
        passes.append(p)
        setups.append(p)
    problems = verify(passes, pinned, args.seed, spec["default_seed"])
    good = [p for p in passes if p["ok"]]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    metrics = {}
    if plain and (traced or not args.trace):
        if args.trace:
            metrics = per_layer(plain, traced, names, units, problems)
        else:
            metrics = end_to_end(plain, setups)
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for j in p["jobs"] if not j["ok"])
    result = {"correct": not problems and bool(metrics),
              "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]}
                          for n in names if n in metrics}}
    detail = {
        "fingerprint": fingerprint(probe, args.workload, args.seed),
        "trace": bool(args.trace), "seconds": args.seconds,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "setup_samples": [{"setup_s": s["setup_s"],
                           "norm_setup_s": s["norm_setup_s"]}
                          for s in setups],
        "passes": [{"traced": p["traced"], "ok": p["ok"],
                    "wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                    "norm_wall_s": p.get("norm_wall_s"),
                    "kernel_s": p.get("kernel_s"),
                    "peak_rss_mb": p["peak_rss_kb"] / 1024,
                    "setup_s": p["setup_s"],
                    "stages": stage_times(p),
                    "layers": p.get("layers")} for p in passes],
        "jobs": [{"argv": j["argv"], "body_sha256": j["body_sha256"],
                  "seed_free_sha256": j["seed_free_sha256"]}
                 for j in passes[0]["jobs"]],
        "metrics": result["metrics"],
    }
    return result, detail


def print_table(result: dict, detail: dict):
    fp = detail["fingerprint"]
    n_plain = sum(1 for p in detail["passes"] if not p["traced"])
    n_traced = len(detail["passes"]) - n_plain
    print(f"workload {fp['workload']}  seed {fp['seed']}  python "
          f"{fp['python']}  kernel {fp['kernel']}  nproc {fp['nproc']}  "
          f"commit {fp['commit'] or 'none (not a git checkout)'}")
    print(f"passes: {n_plain} untraced, {n_traced} traced; set-up samples: "
          f"{len(detail['setup_samples'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {detail['fail_ratio']:>14.6g} "
          f"({result['failed']} of {result['attempted']} jobs failed)")
    for line in detail["problems"]:
        print(f"  FAIL {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, detail = run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print_table(result, detail)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

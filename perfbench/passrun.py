"""One benchmark pass, in a fresh interpreter.

    python3 perfbench/passrun.py SPEC

SPEC is a JSON object: ``jobs`` (a list of CLI argument lists),
``trace`` (wrap the layers with the span tracer), ``layer_metrics`` (the
per-layer metric names to compute when traced), ``spans`` (a file to
write the spans to, or null) and ``probe`` (stop right after the
import, to time set-up only).  Each job runs in this process through the
public ``superslice.cli.main``, so the pass pays the import and cold
caches once, like a user starting the CLI.  An untraced pass also
samples the machine's speed while each job runs (``speed.py``).  The
pass prints one JSON object on stdout: the moment ``superslice.cli``
finished importing, the reference kernel's time right after it, the
kernel and Python in use, and per job its exit code, verdict, body
digests and stage timings; then the pass totals and, when traced, the
per-layer numbers.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import superslice.cli as cli  # noqa: E402

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import superslice  # noqa: E402
from speed import SpeedProbe, kernel_s  # noqa: E402


def seed_free_body(body: dict) -> dict:
    """The body without the fields the seed chooses: the seed itself and
    the random witness points (with the note on how they were found).
    Every other byte of the body is the same at every seed."""
    body["inputs"].pop("seed", None)
    for stage in body["stages"]:
        if stage["name"] == "invariance":
            stage.pop("seed", None)
        elif stage["name"] == "certificate":
            stage.pop("witness_points", None)
            stage.pop("note", None)
    return body


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_job(main, argv: list, probe: bool) -> dict:
    """One job; with ``probe`` its time is also taken at nominal speed."""
    buf = io.StringIO()
    speed = SpeedProbe() if probe else contextlib.nullcontext()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with speed, contextlib.redirect_stdout(buf):
            rc = main(argv)
        error = None
    except Exception:  # a crash is a failed job, recorded and reported
        rc, error = None, traceback.format_exc(limit=5)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    out = {"argv": argv, "rc": rc, "error": error, "wall_s": wall,
           "cpu_s": cpu, "norm_wall_s": None, "kernel_s": None,
           "verdict": None, "body_sha256": None,
           "seed_free_sha256": None, "stages": {}}
    if probe:
        out["wall_s"] = speed.job_s()
        out["cpu_s"] = cpu - speed.probe_s()
        out["norm_wall_s"] = speed.norm_s()
        out["kernel_s"] = speed.kernel_s()
    if error is None:
        try:
            report = json.loads(buf.getvalue())
        except json.JSONDecodeError as e:
            out["error"] = f"report is not JSON: {e}"
            return out
        out["verdict"] = report["body"]["verdict"]
        out["stages"] = report["timings"]["stages"]
        out["body_sha256"] = sha256(cli.body_bytes(report))
        seed_free = seed_free_body(report["body"])
        out["seed_free_sha256"] = sha256(cli.body_bytes({"body": seed_free}))
    return out


def layer_metrics(tracer, names: list) -> dict:
    """Per-layer values for the metric names asked for.  A name is a span
    name plus a field: calls, s (inclusive) or self_s, or one of the
    argument-derived counts."""
    spans = tracer.aggregate()
    counts = dict(tracer.counts)
    counts.update(tracer.maxima)
    counts["superpoly.mul.term_pairs"] = tracer.mul_pairs[0]

    def calls(span):
        return spans.get(span, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in names:
        span, field = name.rsplit(".", 1)
        if field in ("calls", "s", "self_s"):
            out[name] = spans.get(span, {}).get(field, 0)
        elif field == "distinct_ratio":
            out[name] = ratio(len(tracer.distinct.get(span, ())),
                              calls(span))
        elif field == "density":
            out[name] = ratio(counts.get(span + ".nnz", 0),
                              counts.get(span + ".cells", 0))
        elif field == "pairs_per_call":
            out[name] = ratio(counts.get(span + ".term_pairs", 0),
                              calls(span))
        else:
            out[name] = counts.get(name, 0)
    out["trace.hook_s"] = spans.get("trace.hook", {}).get("s", 0.0)
    out["trace.spans"] = len(tracer.start)
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = {"imported": IMPORTED, "import_kernel_s": kernel_s(7),
              "kernel": superslice.kernel_implementation,
              "python": platform.python_version()}
    if spec.get("probe"):
        print(json.dumps(result))
        return 0
    entry = cli.main
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
        entry = tracer.wrap(cli.main, "cli.main")
    jobs = [run_job(entry, argv, tracer is None) for argv in spec["jobs"]]
    result["jobs"] = jobs
    result["wall_s"] = sum(j["wall_s"] for j in jobs)
    result["cpu_s"] = sum(j["cpu_s"] for j in jobs)
    if tracer is None:
        result["norm_wall_s"] = sum(j["norm_wall_s"] for j in jobs)
        result["kernel_s"] = statistics.median(j["kernel_s"] for j in jobs)
    result["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, spec["layer_metrics"])
        if spec.get("spans"):
            tracer.dump(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

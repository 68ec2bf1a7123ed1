"""Command line front end.

Loads an algebra (catalogue name or JSON file), runs the slice pipeline
stage by stage (triple, grading, decomposition, chart, invariance, Miura,
certificate, optional cohomology and arc checks), and emits a
reproducible report: a JSON body whose bytes depend only on the job
configuration, with wall-clock timings segregated so re-runs compare
equal.  Exit code 0 exactly when every executed stage passes; otherwise
1 for a failed check, 2 for rejected input (a failed load or validate
stage, a stage that met the exponent limit, bad arguments, or an
``--output`` file that cannot be written) and 3 for an internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .cohomology import (_as_wt2, cohomology_table, regular_ce_complex,
                         slice_ce_complex, weighted_monomial_counts)
from .liealg import (GoodGrading, build_osp_1_2, build_sl, dense_to_poly,
                     dynkin_grading, graded_slice_decomposition,
                     load_algebra_file, parse_nilpotent, sl2_triple_for)
from .pva import brst_complex, graded_miura, h0_truncated
from .slice import (_render_vector, gauge_fix, injectivity_certificate,
                    verify_invariance)
from .supergroup import adjoint_orbit_map
from .superpoly import PolyRing


# -- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class JobConfig:
    """Everything a job depends on.  The seed fixes all random draws, so
    two runs with equal configs produce byte-identical report bodies."""

    algebra: str
    nilpotent: str = "principal"
    grading: str = "dynkin"
    trials: int = 5
    seed: int = 1
    max_weight: Optional[Fraction] = None
    coefficients: str = "slice"
    output: Optional[str] = None
    fmt: str = "text"


_SL_NAME = re.compile(r"^sl\(?(\d+)(?:\|(\d+))?\)?$")


def resolve_algebra(name_or_path: str, check: bool = True):
    """Catalogue name (sl2, sl3, sl2|1, osp12) or JSON file path.

    Returns (algebra, source_kind).  check=False defers the structural
    verification to the validate stage, for catalogue algebras and files
    alike, so schema problems and invariant violations are reported
    separately and each algebra is verified once per pipeline.
    """
    s = name_or_path.strip()
    m = _SL_NAME.match(s)
    if m:
        return build_sl(int(m.group(1)), int(m.group(2) or 0),
                        check=check), "catalogue"
    if s in ("osp12", "osp(1|2)"):
        return build_osp_1_2(check=check), "catalogue"
    if os.path.exists(s):
        try:
            return load_algebra_file(s, check=check), "file"
        except json.JSONDecodeError as e:
            raise ValueError(f"algebra file {s!r} is not valid JSON: {e}")
        except (KeyError, TypeError) as e:
            raise ValueError(
                f"algebra file {s!r} does not match the schema: {e}")
    raise ValueError(f"unknown algebra {name_or_path!r}: not a catalogue "
                     "name (sl<m>, sl<m>|<n>, osp12) and not a file")


# -- stages -------------------------------------------------------------------

class StageError(Exception):
    def __init__(self, message: str, data: Optional[dict] = None):
        super().__init__(message)
        self.message = message
        self.data = data


def _stage_load(config: JobConfig, ctx: dict) -> dict:
    alg, source = resolve_algebra(config.algebra, check=False)
    ctx["alg"] = alg
    ev = sum(1 for p in alg.parities if p == 0)
    out = {"source": source, "dim_even": ev, "dim_odd": alg.dim - ev,
           "labels": list(alg.labels)}
    if alg.meta.get("warning"):
        out["warning"] = alg.meta["warning"]
    return out


def _stage_validate(config: JobConfig, ctx: dict) -> dict:
    return ctx["alg"].validate()


def _stage_triple(config: JobConfig, ctx: dict) -> dict:
    alg = ctx["alg"]
    f = parse_nilpotent(alg, config.nilpotent)
    triple = sl2_triple_for(alg, f)
    ctx["triple"] = triple
    return {"nilpotent": config.nilpotent,
            "e": _render_vector(alg, triple.e),
            "h": _render_vector(alg, triple.h),
            "f": _render_vector(alg, triple.f)}


def _stage_grading(config: JobConfig, ctx: dict) -> dict:
    alg, triple = ctx["alg"], ctx["triple"]
    if config.grading == "dynkin":
        grading = dynkin_grading(alg, triple)
        mode = "dynkin"
    else:
        parts = []
        for x in config.grading.split(","):
            try:
                parts.append(Fraction(x))
            except ZeroDivisionError:
                raise StageError(f"grading weight {x!r} has a zero "
                                 "denominator") from None
        if len(parts) != alg.dim:
            raise StageError(f"need {alg.dim} grading weights, "
                             f"got {len(parts)}")
        w2 = []
        for x in parts:
            d = x * 2
            if d.denominator != 1:
                raise StageError("grading weights must be half-integers")
            w2.append(int(d))
        grading = GoodGrading(alg, w2, triple.f)
        mode = "explicit"
    ctx["grading"] = grading
    return {"mode": mode,
            "weights": {alg.labels[i]: str(Fraction(w, 2))
                        for i, w in enumerate(grading.weights2)},
            "levels": [str(Fraction(w, 2)) for w in grading.levels()]}


def _stage_decomposition(config: JobConfig, ctx: dict) -> dict:
    alg = ctx["alg"]
    pieces = ctx["pieces"] = graded_slice_decomposition(
        alg, ctx["grading"], ctx["triple"])
    rows = []
    even = odd = 0
    for lev in sorted(pieces):
        p = pieces[lev]
        rows.append({"level": str(Fraction(lev, 2)),
                     "dim": len(p.row_indices),
                     "centralizer": len(p.e_basis),
                     "lift": len(p.lift_indices)})
        for v in p.e_basis:
            par = next(alg.parities[i] for i, c in enumerate(v) if c)
            if par:
                odd += 1
            else:
                even += 1
    return {"levels": rows, "slice_dim_even": even, "slice_dim_odd": odd}


def _stage_chart(config: JobConfig, ctx: dict) -> dict:
    chart = gauge_fix(ctx["alg"], ctx["triple"], ctx["grading"],
                      ctx["pieces"])
    chart.check_homogeneity()
    chart.round_trip_check()
    ctx["chart"] = chart
    m = len(chart.coord_indices)
    return {
        "coordinates": [v.name for v in chart.ring.variables[:m]],
        "invariants": {lab: chart.invariants[lab].text()
                       for lab in chart.inv_order},
        "gauge": {lab: p.text() for lab, p in sorted(chart.gauge.items())},
        "slice_generators": [
            {"name": chart.slice_names[lab], "invariant": lab,
             "parity": chart.parity_of(lab),
             "weight": str(Fraction(2 + chart.inv_wt2[lab], 2))}
            for lab in chart.inv_order],
        "round_trip": "pass",
        "homogeneous": "pass",
    }


def _stage_invariance(config: JobConfig, ctx: dict) -> dict:
    ok, ce = verify_invariance(ctx["chart"], config.trials, seed=config.seed)
    if not ok:
        raise StageError("invariants moved under a random gauge", data=ce)
    return {"trials": config.trials, "seed": config.seed,
            "result": "invariants fixed by all sampled gauges"}


def _stage_miura(config: JobConfig, ctx: dict) -> dict:
    chart = ctx["chart"]
    mi = chart.miura
    return {"images": {lab: mi.images[lab].text()
                       for lab in chart.inv_order},
            "ini_coordinates": [chart.ring.variables[p].name
                                for p in mi.ini_positions]}


def _stage_certificate(config: JobConfig, ctx: dict) -> dict:
    cert = injectivity_certificate(ctx["chart"].miura, trials=config.trials,
                                   seed=config.seed)
    if cert.verdict != "pass":
        raise StageError("no full-rank witness found", data=cert.as_dict())
    return cert.as_dict()


def _stage_cohomology(config: JobConfig, ctx: dict) -> dict:
    mw = config.max_weight if config.max_weight is not None else Fraction(4)
    if config.coefficients == "regular":
        cx = regular_ce_complex(ctx["alg"], ctx["grading"], mw)
        table = cohomology_table(cx)
        bad = {f"H^{k}(weight {w})": d for (k, w), d in sorted(table.items())
               if d != (1 if (k, w) == (0, Fraction(0)) else 0)}
        oracle = "one-dimensional H^0 at weight 0, zero elsewhere"
    else:
        chart = ctx["chart"]
        cx = slice_ce_complex(chart, mw)
        table = cohomology_table(cx)
        gens = [(v.wt2, v.parity) for v in chart.slice_generators()]
        want = weighted_monomial_counts(gens, _as_wt2(mw))
        # H^k vanishes for k > 0 (Gan and Ginzburg): the chart's round
        # trip N x S = f + g_{>=-1/2} reduces it to regular coefficients
        bad = {f"H^{k}(weight {w})": d for (k, w), d in sorted(table.items())
               if d != (want.get(_as_wt2(w), 0) if k == 0 else 0)}
        oracle = "H^0 counts monomials in the slice generators"
    if bad:
        raise StageError("cohomology does not match the oracle", data=bad)
    return {"coefficients": config.coefficients, "max_weight": str(mw),
            "oracle": oracle,
            "table": [{"degree": k, "weight": str(w), "dim": d}
                      for (k, w), d in sorted(table.items())]}


def _stage_pva_qcheck(config: JobConfig, ctx: dict) -> dict:
    chart = ctx["chart"]
    brst_complex(chart)
    return {"generators": len(chart.coord_indices),
            "ghosts": len(chart.grading.positive_indices()),
            "q_squared": "zero on all generators and ghosts"}


def _stage_pva_h0(config: JobConfig, ctx: dict) -> dict:
    mw = config.max_weight
    if mw is None:
        raise StageError("pva h0 needs --max-weight")
    h0 = h0_truncated(ctx["chart"], mw)
    dims = h0.dimensions()
    if not h0.consistent(dims):
        raise StageError(
            "H^0 dimensions disagree with the free superfield count",
            data={"computed": {str(w): d for w, d in sorted(dims.items())},
                  "expected": {str(Fraction(n2, 2)): c
                               for n2, c in sorted(h0.expected.items())}})
    return {"max_weight": str(mw),
            "dimensions": {str(w): d for w, d in sorted(dims.items()) if d},
            "free_superfield_counts": {
                str(Fraction(n2, 2)): c
                for n2, c in sorted(h0.expected.items()) if c},
            "consistent": True}


def _stage_pva_miura(config: JobConfig, ctx: dict) -> dict:
    chart = ctx["chart"]
    gm = graded_miura(chart)
    out = gm.check_intertwining()
    return {"generators": list(chart.inv_order),
            "pairs_checked": len(out),
            "result": "lambda brackets intertwined exactly on all "
                      "ordered generator pairs"}


_STAGES = {
    "load": _stage_load,
    "validate": _stage_validate,
    "triple": _stage_triple,
    "grading": _stage_grading,
    "decomposition": _stage_decomposition,
    "chart": _stage_chart,
    "invariance": _stage_invariance,
    "miura": _stage_miura,
    "certificate": _stage_certificate,
    "cohomology": _stage_cohomology,
    "pva-qcheck": _stage_pva_qcheck,
    "pva-h0": _stage_pva_h0,
    "pva-miura": _stage_pva_miura,
}

_STAGE_ORDER = list(_STAGES)


def _targets(command: str, action: Optional[str],
             config: JobConfig) -> list[str]:
    core = ["load", "validate"]
    if command == "algebra":
        return core
    chain = core + ["triple", "grading"]
    if command == "cohomology" and config.coefficients == "regular":
        return chain + ["cohomology"]
    chain = chain + ["decomposition", "chart"]
    if command == "slice":
        return chain if action == "chart" else chain + ["invariance"]
    if command == "miura":
        return chain + (["miura"] if action == "show"
                        else ["miura", "certificate"])
    if command == "cohomology":
        return chain + ["cohomology"]
    if command == "pva":
        if action == "qcheck":
            return chain + ["pva-qcheck"]
        if action == "h0":
            return chain + ["pva-qcheck", "pva-h0"]
        return chain + ["pva-miura"]
    out = chain + ["invariance", "miura", "certificate"]
    if config.max_weight is not None:
        out += ["cohomology", "pva-qcheck", "pva-h0", "pva-miura"]
    return out


# -- reports -------------------------------------------------------------------

def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


INTERNAL_ERROR = "internal-error"
_REJECTED_INPUT = ("load", "validate")


def _internal_error(stage: str, e: Exception) -> dict:
    """Failed-stage entry for an exception no stage anticipated, with the
    innermost frame it was raised from."""
    frame = traceback.extract_tb(e.__traceback__)[-1]
    return {"name": INTERNAL_ERROR, "verdict": "fail", "stage": stage,
            "exception": type(e).__name__, "error": str(e),
            "at": f"{os.path.basename(frame.filename)}:{frame.lineno} "
                  f"in {frame.name}"}


def exit_code(report: dict) -> int:
    """0 pass, 1 failed check, 2 rejected input (the load or validate
    stage failed, or a stage met the exponent limit), 3 internal
    error."""
    body = report["body"]
    if body["verdict"] == "pass":
        return 0
    failed = body["stages"][-1]
    if failed["name"] == INTERNAL_ERROR:
        return 3
    if failed["name"] in _REJECTED_INPUT or \
            failed.get("exception") == "OverflowError":
        return 2
    return 1


def run_pipeline(config: JobConfig, command: str = "run") -> dict:
    """Execute the stages of ``command`` (``_targets``; an action follows
    the command after a space) in order; a failing stage is recorded
    with its name and counterexample data and everything after it is
    skipped.  An OverflowError (a monomial past the exponent limit) is
    a failed stage of that name marked with its exception type; any
    other exception but StageError or ValueError is recorded as an
    internal-error stage naming the stage that raised it.
    Returns {"body": ..., "timings": ...}."""
    head, _, action = command.partition(" ")
    targets = _targets(head, action or None, config)
    body = {
        "tool": "superslice",
        "command": command,
        "inputs": {
            "algebra": config.algebra,
            "nilpotent": config.nilpotent,
            "grading": config.grading,
            "trials": config.trials,
            "seed": config.seed,
            "max_weight": None if config.max_weight is None
            else str(config.max_weight),
            "coefficients": config.coefficients,
        },
        "stages": [],
        "verdict": "pass",
    }
    timings: dict = {}
    ctx: dict = {}
    for name in _STAGE_ORDER:
        if name not in targets:
            continue
        t0 = time.perf_counter()
        failure = None
        try:
            payload = _STAGES[name](config, ctx)
        except (StageError, ValueError) as e:
            failure = {"name": name, "verdict": "fail",
                       "error": getattr(e, "message", None) or str(e)}
            data = getattr(e, "data", None)
            if data:
                failure["counterexample"] = _jsonable(data)
        except OverflowError as e:
            # every OverflowError in the package is a monomial past the
            # exponent limit of the packed keys: the job asked for more
            # than the keys hold, which is rejected input
            failure = {"name": name, "verdict": "fail", "error": str(e),
                       "exception": "OverflowError"}
        except Exception as e:
            failure = _internal_error(name, e)
        timings[name] = round(time.perf_counter() - t0, 6)
        if failure is not None:
            body["stages"].append(failure)
            body["verdict"] = "fail"
            break
        entry = {"name": name, "verdict": "pass"}
        entry.update(_jsonable(payload))
        body["stages"].append(entry)
    return {"body": body,
            "timings": {"stages": timings,
                        "total_s": round(sum(timings.values()), 6)}}


def run_orbit(config: JobConfig, element: str, by: str) -> dict:
    """Conjugate a basis combination by the exponential of another,
    which must be even; the element may be odd."""
    body = {"tool": "superslice", "command": "orbit",
            "inputs": {"algebra": config.algebra, "element": element,
                       "by": by},
            "stages": [], "verdict": "pass"}
    t0 = time.perf_counter()
    stage = "load"  # a rejected algebra fails here, as in run_pipeline
    try:
        alg, _ = resolve_algebra(config.algebra)
        stage = "orbit"
        w = parse_nilpotent(alg, element)
        y = parse_nilpotent(alg, by)
        if not alg.is_even(y):
            # an odd direction needs odd (Grassmann) coefficients, which
            # a numeric --by cannot carry
            raise ValueError("--by must be even: with numeric coefficients "
                             "exp(y) is a group element only for even y")
        ring = PolyRing([])
        moved = adjoint_orbit_map(alg, dense_to_poly(alg, w, ring),
                                  dense_to_poly(alg, y, ring))
        dense = [moved[i].as_constant() if i in moved else Fraction(0)
                 for i in range(alg.dim)]
        body["stages"].append({
            "name": "orbit", "verdict": "pass",
            "element": _render_vector(alg, w),
            "by": _render_vector(alg, y),
            "result": _render_vector(alg, dense),
            "components": {alg.labels[i]: str(c)
                           for i, c in enumerate(dense) if c},
        })
    except ValueError as e:
        body["stages"].append({"name": stage, "verdict": "fail",
                               "error": str(e)})
        body["verdict"] = "fail"
    except Exception as e:
        body["stages"].append(_internal_error(stage, e))
        body["verdict"] = "fail"
    dt = round(time.perf_counter() - t0, 6)
    return {"body": body,
            "timings": {"stages": {stage: dt}, "total_s": dt}}


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def body_bytes(report: dict) -> bytes:
    """Canonical serialization of the deterministic part of a report."""
    return json.dumps(report["body"], indent=2, sort_keys=True).encode()


def _render_field(key: str, val, indent: str) -> list[str]:
    if isinstance(val, dict):
        out = [f"{indent}{key}:"]
        for k in sorted(val, key=str):
            v = val[k]
            if isinstance(v, (dict, list)):
                out.extend(_render_field(str(k), v, indent + "  "))
            else:
                out.append(f"{indent}  {k} = {v}")
        return out
    if isinstance(val, list):
        if all(not isinstance(x, (dict, list)) for x in val):
            return [f"{indent}{key}: " + ", ".join(str(x) for x in val)]
        out = [f"{indent}{key}:"]
        for x in val:
            out.append(f"{indent}  - " + json.dumps(x, sort_keys=True))
        return out
    return [f"{indent}{key}: {val}"]


def report_text(report: dict) -> str:
    """Text mirror of the report body (timings deliberately omitted so
    the text is as reproducible as the JSON body)."""
    body = report["body"]
    lines = [f"superslice {body['command']}"]
    inp = body["inputs"]
    lines.append("  " + " ".join(
        f"{k}={inp[k]}" for k in sorted(inp) if inp[k] is not None))
    for st in body["stages"]:
        lines.append("")
        lines.append(f"[{st['verdict']}] {st['name']}")
        for k in sorted(st):
            if k in ("name", "verdict"):
                continue
            lines.extend(_render_field(k, st[k], "  "))
    lines.append("")
    lines.append(f"verdict: {body['verdict'].upper()}")
    return "\n".join(lines) + "\n"


# -- argument parsing -----------------------------------------------------------

def _half_integer(s: str) -> Fraction:
    try:
        v = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {s!r}")
    if (v * 2).denominator != 1:
        raise argparse.ArgumentTypeError(
            f"{s!r} is not a half-integer weight")
    if v < 0:
        # a negative cutoff keeps no weight block: an empty, vacuous table
        raise argparse.ArgumentTypeError(f"must be at least 0, got {s!r}")
    return v


def _positive_int(s: str) -> int:
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {s!r}")
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {v}")
    return v


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``main`` runs
    any number of jobs in one interpreter on the same parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", required=True,
                        help="catalogue name (sl2, sl3, sl2|1, osp12) "
                             "or JSON file path")
    common.add_argument("--nilpotent", default="principal",
                        help="'principal' or a basis combination "
                             "like 'e21+e32'")
    common.add_argument("--grading", default="dynkin",
                        help="'dynkin' or comma-separated half-integer "
                             "weights, one per basis element")
    common.add_argument("--trials", type=_positive_int, default=5,
                        help="seeded random gauge trials (at least 1)")
    common.add_argument("--seed", type=int, default=1)
    common.add_argument("--max-weight", dest="max_weight",
                        type=_half_integer, default=None,
                        help="half-integer conformal weight cutoff")
    common.add_argument("--output", default=None,
                        help="write the full JSON report here")
    common.add_argument("--format", dest="fmt", choices=("json", "text"),
                        default="text")

    ap = argparse.ArgumentParser(
        prog="superslice",
        description="Exact slices of basic classical Lie superalgebras: "
                    "charts, Miura maps, cohomology, arc checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("algebra", help="structure constant checks")
    gs = g.add_subparsers(dest="action", required=True)
    gs.add_parser("validate", parents=[common],
                  help="verify antisymmetry, parity, Jacobi, form")

    g = sub.add_parser("orbit", parents=[common],
                       help="conjugate an element by a unipotent exponential")
    g.add_argument("--element", required=True,
                   help="basis combination to move")
    g.add_argument("--by", required=True,
                   help="basis combination generating the conjugation")

    g = sub.add_parser("slice", help="gauge-fixed chart")
    gs = g.add_subparsers(dest="action", required=True)
    gs.add_parser("chart", parents=[common],
                  help="invariants and gauge at the generic point")
    gs.add_parser("check-invariance", parents=[common],
                  help="seeded random gauge trials")

    g = sub.add_parser("miura", help="finite free-field realization")
    gs = g.add_subparsers(dest="action", required=True)
    gs.add_parser("show", parents=[common], help="restricted images")
    gs.add_parser("certify", parents=[common],
                  help="exact-rank injectivity certificate")

    g = sub.add_parser("cohomology", parents=[common],
                       help="graded complex dimension tables")
    g.add_argument("--coefficients", choices=("regular", "slice"),
                   default="slice")

    g = sub.add_parser("pva", help="arc-space checks")
    gs = g.add_subparsers(dest="action", required=True)
    gs.add_parser("qcheck", parents=[common],
                  help="build the arc gauge complex and verify Q^2 = 0")
    gs.add_parser("h0", parents=[common],
                  help="degree-zero cohomology per conformal weight")
    gs.add_parser("miura-check", parents=[common],
                  help="Poisson-bracket intertwining of the Miura map")

    g = sub.add_parser("run", parents=[common], help="full pipeline")
    g.add_argument("--coefficients", choices=("regular", "slice"),
                   default="slice")
    return ap


def _emit(report: dict, config: JobConfig) -> bool:
    """Write the report to stdout and to ``--output``; False, after one
    line on stderr, when the output file cannot be written."""
    if config.fmt == "json":
        sys.stdout.write(report_json(report))
    else:
        sys.stdout.write(report_text(report))
    if config.output:
        try:
            with open(config.output, "w") as fh:
                fh.write(report_json(report))
        except OSError as e:
            sys.stderr.write(f"superslice: cannot write --output "
                             f"{config.output!r}: {e.strerror or e}\n")
            return False
    return True


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    action = getattr(args, "action", None)
    command = args.command + (f" {action}" if action else "")
    config = JobConfig(
        algebra=args.algebra, nilpotent=args.nilpotent,
        grading=args.grading, trials=args.trials, seed=args.seed,
        max_weight=args.max_weight,
        coefficients=getattr(args, "coefficients", "slice"),
        output=args.output, fmt=args.fmt)
    if args.command == "orbit":
        report = run_orbit(config, args.element, args.by)
    else:
        if command == "pva h0" and config.max_weight is None:
            config = replace(config, max_weight=Fraction(3))
        report = run_pipeline(config, command=command)
    if not _emit(report, config):
        return 2  # an unwritable --output is rejected input
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())

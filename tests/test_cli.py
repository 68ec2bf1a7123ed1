"""End-to-end checks of the command line front end.

Reports are driven through main() with argv lists and parsed back from
JSON, so every assertion here sees exactly what a shell user would.
Expected stage payloads come from the library calls the stages wrap
(which carry their own oracle-backed tests); what is tested here is the
orchestration itself: stage order, failure attribution, skipping after
a failure, exit codes, file round-trips, and byte-level determinism of
the report body.
"""

import argparse
import copy
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from charts import make_chart
from koszul_oracle import full_rank_table

from superslice import cli, cohomology, liealg, linalg, pva
from superslice import slice as slice_module
from superslice.cli import (JobConfig, body_bytes, main, report_text,
                            resolve_algebra, run_pipeline)
from superslice.cohomology import slice_ce_complex
from superslice.liealg import (GoodGrading, LieSuperalgebra, algebra_to_json,
                               build_osp_1_2, build_sl, dynkin_grading,
                               load_algebra_file, parse_nilpotent,
                               principal_nilpotent, sl2_triple_for)
from superslice.pva import (ArcBracket, brst_complex, graded_miura,
                            h0_truncated)
from superslice.slice import PoissonStructure

F = Fraction


def run_cli(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


def run_json(args, capsys):
    code, out = run_cli(args + ["--format", "json"], capsys)
    return code, json.loads(out)


def stage(report, name):
    for st in report["body"]["stages"]:
        if st["name"] == name:
            return st
    raise AssertionError(f"no stage named {name}")


# -- algebra resolution --------------------------------------------------------

class TestResolveAlgebra:
    def test_catalogue_names(self):
        for name, dims in [("sl2", (3, 0)), ("sl3", (8, 0)),
                           ("sl2|1", (4, 4)), ("sl(2|1)", (4, 4)),
                           ("osp12", (3, 2)), ("osp(1|2)", (3, 2))]:
            alg, source = resolve_algebra(name)
            ev = sum(1 for p in alg.parities if p == 0)
            assert source == "catalogue"
            assert (ev, alg.dim - ev) == dims

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="not a catalogue name"):
            resolve_algebra("e8")

    def test_catalogue_round_trip_through_file(self, tmp_path):
        alg = build_sl(2)
        path = tmp_path / "sl2.json"
        path.write_text(json.dumps(algebra_to_json(alg)))
        back = load_algebra_file(str(path))
        assert back.labels == alg.labels
        assert back.parities == alg.parities
        assert back.table == alg.table
        assert all(back.form[i, j] == alg.form[i, j]
                   for i in range(3) for j in range(3))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            resolve_algebra(str(path))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "noschema.json"
        path.write_text(json.dumps({"basis": [{"label": "x", "parity": 0}]}))
        with pytest.raises(ValueError, match="does not match the schema"):
            resolve_algebra(str(path))


# -- algebra files through the validate stage -----------------------------------

def write_alg(tmp_path, name, basis, brackets):
    data = {"basis": [{"label": l, "parity": p} for l, p in basis],
            "brackets": [{"i": i, "j": j, "k": k, "c_num": n, "c_den": d}
                         for i, j, k, n, d in brackets]}
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestAlgebraValidate:
    def test_heisenberg_file_accepted(self, tmp_path, capsys):
        # [x, y] = z and its mirror; Jacobi is trivial
        path = write_alg(tmp_path, "heis.json",
                         [("x", 0), ("y", 0), ("z", 0)],
                         [(0, 1, 2, 1, 1), (1, 0, 2, -1, 1)])
        code, rep = run_json(["algebra", "validate", "--algebra", path],
                             capsys)
        assert code == 0
        assert rep["body"]["verdict"] == "pass"
        assert [s["name"] for s in rep["body"]["stages"]] == \
            ["load", "validate"]
        assert stage(rep, "validate")["structure_constants"] == 2
        assert stage(rep, "validate")["has_form"] is False

    def test_antisymmetry_violation_names_the_triple(self, tmp_path, capsys):
        # missing mirror entry: c_xy^z = 1 but c_yx^z = 0
        path = write_alg(tmp_path, "bad.json",
                         [("x", 0), ("y", 0), ("z", 0)],
                         [(0, 1, 2, 1, 1)])
        code, rep = run_json(["algebra", "validate", "--algebra", path],
                             capsys)
        assert code == 2
        st = stage(rep, "validate")
        assert st["verdict"] == "fail"
        assert "antisymmetry" in st["error"]
        assert "(x,y,z)" in st["error"]

    def test_jacobi_failure_names_the_triple(self, tmp_path, capsys):
        # sl2 table with [h, e] = 2e corrupted to 3e (both directions,
        # so antisymmetry still holds and Jacobi is the first failure)
        path = write_alg(tmp_path, "jac.json",
                         [("e", 0), ("f", 0), ("h", 0)],
                         [(0, 1, 2, 1, 1), (1, 0, 2, -1, 1),
                          (2, 0, 0, 3, 1), (0, 2, 0, -3, 1),
                          (2, 1, 1, -2, 1), (1, 2, 1, 2, 1)])
        code, rep = run_json(["algebra", "validate", "--algebra", path],
                             capsys)
        assert code == 2
        st = stage(rep, "validate")
        assert "Jacobi" in st["error"]
        assert "(" in st["error"] and "," in st["error"]

    def test_load_failure_skips_validate(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("[1, 2")
        code, rep = run_json(["algebra", "validate", "--algebra", str(path)],
                             capsys)
        assert code == 2
        assert [s["name"] for s in rep["body"]["stages"]] == ["load"]
        assert stage(rep, "load")["verdict"] == "fail"

    def load_error(self, tmp_path, capsys, basis, brackets):
        path = write_alg(tmp_path, "bad.json", basis, brackets)
        return self.load_failure(path, capsys)

    def load_failure(self, path, capsys):
        code, rep = run_json(["algebra", "validate", "--algebra", path],
                             capsys)
        assert code == 2
        assert rep["body"]["verdict"] == "fail"
        assert [s["name"] for s in rep["body"]["stages"]] == ["load"]
        st = stage(rep, "load")
        assert st["verdict"] == "fail"
        return st["error"]

    def test_parity_outside_0_1_fails_at_load(self, tmp_path, capsys):
        # 2 used to load and be counted as odd, 0.9 as even, with verdict
        # PASS; only the JSON integers 0 and 1 are parities
        for bad in (2, 0.9, True, "1"):
            err = self.load_error(tmp_path, capsys,
                                  [("x", 0), ("y", bad)], [])
            assert f"parity {bad!r}" in err and "'y'" in err
        # a label must be a string too
        err = self.load_error(tmp_path, capsys, [("x", 0), (7, 0)], [])
        assert "label 7 is not a string" in err

    def test_bracket_index_out_of_range_fails_at_load(self, tmp_path,
                                                      capsys):
        # used to end in an IndexError traceback
        err = self.load_error(tmp_path, capsys,
                              [("x", 0), ("y", 0), ("z", 0)],
                              [(99, 1, 2, 1, 1), (1, 99, 2, -1, 1)])
        assert "bracket entry 0" in err and "i = 99" in err
        # an index must be a JSON integer, not 0.0, false or "0"
        for bad in (0.0, False, "0"):
            err = self.load_error(tmp_path, capsys,
                                  [("x", 0), ("y", 0), ("z", 0)],
                                  [(bad, 1, 2, 1, 1), (1, 0, 2, -1, 1)])
            assert f"i = {bad!r} is not an integer" in err

    def test_zero_denominator_fails_at_load(self, tmp_path, capsys):
        # used to end in a ZeroDivisionError traceback
        err = self.load_error(tmp_path, capsys,
                              [("x", 0), ("y", 0), ("z", 0)],
                              [(0, 1, 2, 1, 0), (1, 0, 2, -1, 1)])
        assert "c_den is 0" in err
        # c_num 1.5 used to be truncated to 1, with verdict PASS
        for num, den, want in ((1.5, 1, "c_num = 1.5"),
                               (3, 2.0, "c_den = 2.0"),
                               ("1", 1, "c_num = '1'")):
            err = self.load_error(tmp_path, capsys,
                                  [("x", 0), ("y", 0), ("z", 0)],
                                  [(0, 1, 2, num, den), (1, 0, 2, -1, 1)])
            assert f"{want} is not an integer" in err

    def form_error(self, tmp_path, capsys, entry):
        data = algebra_to_json(build_sl(2))
        data["form"][0][1] = entry
        path = tmp_path / "form.json"
        path.write_text(json.dumps(data))
        return self.load_failure(str(path), capsys)

    def test_float_form_entry_fails_at_load(self, tmp_path, capsys):
        # 0.1 used to load as the binary float 3602879701896397/2^55,
        # with verdict PASS
        err = self.form_error(tmp_path, capsys, 0.1)
        assert "form entry (0, 1): 0.1 is not an integer" in err

    def test_bool_form_entry_fails_at_load(self, tmp_path, capsys):
        # true used to load as 1
        err = self.form_error(tmp_path, capsys, True)
        assert "form entry (0, 1): True is not an integer" in err

    def test_zero_denominator_form_entry_fails_at_load(self, tmp_path,
                                                        capsys):
        # "1/0" used to end in an internal-error stage with exit code 3
        err = self.form_error(tmp_path, capsys, "1/0")
        assert "form entry (0, 1): '1/0' is not an integer" in err


class TestPoissonRefusals:
    """An algebra file without a form fails the arc stage that needs the
    slice's Poisson structure, with exit code 1.  A degenerate form is
    rejected input (exit 2 at validate); the arc stage's own refusal of
    it is reached through an algebra built with check=False."""

    @staticmethod
    def failure(tmp_path, capsys, command):
        data = algebra_to_json(build_sl(2, 1))
        del data["form"]
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(data))
        code, rep = run_json(["pva", command, "--algebra", str(path),
                              "--nilpotent", "e21"], capsys)
        assert code == 1 and rep["body"]["verdict"] == "fail"
        failed = [s for s in rep["body"]["stages"] if s["verdict"] != "pass"]
        assert [s["name"] for s in failed] == [
            {"qcheck": "pva-qcheck", "miura-check": "pva-miura"}[command]]
        return failed[0]["error"]

    @pytest.mark.parametrize("command", ["qcheck", "miura-check"])
    def test_formless_algebra(self, tmp_path, capsys, command):
        err = self.failure(tmp_path, capsys, command)
        assert err == "Poisson structure needs the bilinear form"

    @pytest.mark.parametrize("command", ["qcheck", "miura-check"])
    def test_zero_form(self, tmp_path, capsys, command):
        data = algebra_to_json(build_sl(2, 1))
        data["form"] = [[0] * len(r) for r in data["form"]]
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(data))
        code, rep = run_json(["pva", command, "--algebra", str(path),
                              "--nilpotent", "e21"], capsys)
        assert code == 2 and rep["body"]["verdict"] == "fail"
        failed = [s for s in rep["body"]["stages"] if s["verdict"] != "pass"]
        assert [(s["name"], s["error"]) for s in failed] == [
            ("validate", "form is degenerate")]
        # past validate, the arc stage refuses the form with its own
        # message (it used to be the bare "matrix is singular")
        alg = load_algebra_file(str(path), check=False)
        triple = sl2_triple_for(alg, parse_nilpotent(alg, "e21"))
        chart = make_chart(alg, triple)
        build = {"qcheck": brst_complex, "miura-check": graded_miura}[command]
        with pytest.raises(ValueError) as exc:
            build(chart)
        assert str(exc.value) == ("the bilinear form is degenerate on "
                                  "g_{<=0} + g_{1/2} against the chart "
                                  "coordinates")


# -- stage orchestration ---------------------------------------------------------

class TestStageIsolation:
    CHAIN = ["load", "validate", "triple", "grading", "decomposition",
             "chart"]

    @pytest.mark.parametrize("argv,want", [
        (["algebra", "validate"], ["load", "validate"]),
        (["slice", "chart"], CHAIN),
        (["slice", "check-invariance"], CHAIN + ["invariance"]),
        (["miura", "show"], CHAIN + ["miura"]),
        (["miura", "certify"], CHAIN + ["miura", "certificate"]),
        (["cohomology"], CHAIN + ["cohomology"]),
        (["cohomology", "--coefficients", "regular"],
         ["load", "validate", "triple", "grading", "cohomology"]),
        (["pva", "qcheck"], CHAIN + ["pva-qcheck"]),
        (["pva", "h0"], CHAIN + ["pva-qcheck", "pva-h0"]),
        (["pva", "miura-check"], CHAIN + ["pva-miura"]),
        (["run"], CHAIN + ["invariance", "miura", "certificate"]),
        (["run", "--max-weight", "3"],
         CHAIN + ["invariance", "miura", "certificate", "cohomology",
                  "pva-qcheck", "pva-h0", "pva-miura"]),
        (["run", "--coefficients", "regular", "--max-weight", "3"],
         CHAIN + ["invariance", "miura", "certificate", "cohomology",
                  "pva-qcheck", "pva-h0", "pva-miura"])])
    def test_every_command_runs_its_stages_in_order(self, argv, want,
                                                    capsys):
        # the stages run as _targets lists them: no second ordering
        code, rep = run_json(argv + ["--algebra", "sl2"], capsys)
        assert code == 0
        assert [s["name"] for s in rep["body"]["stages"]] == want
        assert all(s["verdict"] == "pass" for s in rep["body"]["stages"])

    def test_run_with_max_weight_appends_arc_stages(self, capsys):
        code, rep = run_json(["run", "--algebra", "sl2",
                              "--max-weight", "3"], capsys)
        assert code == 0
        names = [s["name"] for s in rep["body"]["stages"]]
        assert names[-4:] == ["cohomology", "pva-qcheck", "pva-h0",
                              "pva-miura"]

    @pytest.mark.parametrize("algebra", ["sl3", "sl(2|1)"])
    def test_moved_invariant_fails_the_invariance_stage(self, algebra,
                                                        capsys, monkeypatch):
        # the first invariant plus the first coordinate, both even, after
        # the chart stage has checked the chart
        run_stage = cli._STAGES["invariance"]
        moved = []

        def perturbed(config, ctx):
            chart = ctx["chart"] = copy.copy(ctx["chart"])
            lab = chart.inv_order[0]
            chart.invariants = dict(chart.invariants)
            chart.invariants[lab] = chart.invariants[lab] + chart.ring.gen(0)
            moved.append(lab)
            return run_stage(config, ctx)

        monkeypatch.setitem(cli._STAGES, "invariance", perturbed)
        code, rep = run_json(["run", "--algebra", algebra], capsys)
        assert code == 1
        assert rep["body"]["verdict"] == "fail"
        assert [s["name"] for s in rep["body"]["stages"]] == self.CHAIN + [
            "invariance"]
        st = stage(rep, "invariance")
        assert st["verdict"] == "fail"
        assert st["error"] == "invariants moved under a random gauge"
        assert st["counterexample"]["invariant"] == moved[0]

    def test_bad_grading_fails_at_grading_stage(self, capsys):
        # hand-edited weights that are not additive on the bracket
        code, rep = run_json(["run", "--algebra", "sl2",
                              "--grading", "1,-1,1"], capsys)
        assert code == 1
        assert rep["body"]["verdict"] == "fail"
        names = [s["name"] for s in rep["body"]["stages"]]
        assert names == ["load", "validate", "triple", "grading"]
        st = stage(rep, "grading")
        assert st["verdict"] == "fail"
        assert "not additive" in st["error"]

    def test_good_explicit_grading_matches_dynkin(self, capsys):
        code, rep = run_json(["run", "--algebra", "sl2",
                              "--grading", "1,-1,0"], capsys)
        assert code == 0
        st = stage(rep, "grading")
        assert st["mode"] == "explicit"
        assert st["weights"] == {"e12": "1", "e21": "-1", "h1": "0"}

    def test_non_dynkin_grading_passes_every_stage(self, capsys):
        # a good grading of sl3 at e21 other than the Dynkin one: delta
        # is onto there too, and the table is the one the ranks of d give
        weights = "1,1,-1,0,-1,0,0,0"
        code, rep = run_json(["run", "--algebra", "sl3", "--nilpotent",
                              "e21", "--grading", weights,
                              "--max-weight", "4"], capsys)
        assert code == 0
        assert all(s["verdict"] == "pass" for s in rep["body"]["stages"])
        assert stage(rep, "grading")["mode"] == "explicit"
        alg = build_sl(3)
        triple = sl2_triple_for(alg, parse_nilpotent(alg, "e21"))
        grading = GoodGrading(alg, [2 * int(w) for w in weights.split(",")],
                              triple.f)
        assert grading.weights2 != dynkin_grading(alg, triple).weights2
        want = full_rank_table(
            slice_ce_complex(make_chart(alg, triple, grading), 4))
        got = {(row["degree"], F(row["weight"])): row["dim"]
               for row in stage(rep, "cohomology")["table"]}
        assert got == want

    def test_wrong_weight_count_rejected(self, capsys):
        code, rep = run_json(["run", "--algebra", "sl2",
                              "--grading", "1,-1"], capsys)
        assert code == 1
        assert "3 grading weights" in stage(rep, "grading")["error"]

    def test_bad_nilpotent_fails_at_triple_stage(self, capsys):
        code, rep = run_json(["run", "--algebra", "sl2",
                              "--nilpotent", "e99"], capsys)
        assert code == 1
        names = [s["name"] for s in rep["body"]["stages"]]
        assert names == ["load", "validate", "triple"]
        assert "unknown basis label" in stage(rep, "triple")["error"]

    def test_zero_denominator_fails_at_triple_stage(self, capsys):
        # Fraction("1/0") raises ZeroDivisionError, which is no internal
        # error but a malformed coefficient
        code, rep = run_json(["slice", "chart", "--algebra", "sl3",
                              "--nilpotent", "1/0*e21"], capsys)
        assert code == 1
        names = [s["name"] for s in rep["body"]["stages"]]
        assert names == ["load", "validate", "triple"]
        assert "'1/0' has a zero denominator" in stage(rep, "triple")["error"]

    @pytest.mark.parametrize("nilpotent", ["e21+", "e21++e32"])
    def test_empty_nilpotent_term_fails_at_triple_stage(self, nilpotent,
                                                        capsys):
        # both used to pass as e21 and e21+e32
        code, rep = run_json(["run", "--algebra", "sl3",
                              "--nilpotent", nilpotent], capsys)
        assert code == 1
        names = [s["name"] for s in rep["body"]["stages"]]
        assert names == ["load", "validate", "triple"]
        assert stage(rep, "triple")["error"] == \
            f"empty term in nilpotent {nilpotent!r}"

    def test_zero_denominator_fails_at_grading_stage(self, capsys):
        # a bare Fraction("1/0") on a weight used to end in an
        # internal-error stage with exit code 3
        code, rep = run_json(["run", "--algebra", "sl2",
                              "--grading", "1/0,0,0"], capsys)
        assert code == 1
        names = [s["name"] for s in rep["body"]["stages"]]
        assert names == ["load", "validate", "triple", "grading"]
        assert "grading weight '1/0' has a zero denominator" in \
            stage(rep, "grading")["error"]

    def test_non_numeric_grading_weight_fails_at_grading_stage(self,
                                                               capsys):
        # used to report Python's "Invalid literal for Fraction: 'x'"
        code, rep = run_json(["run", "--algebra", "sl2",
                              "--grading", "1,x,-1"], capsys)
        assert code == 1
        names = [s["name"] for s in rep["body"]["stages"]]
        assert names == ["load", "validate", "triple", "grading"]
        assert stage(rep, "grading")["error"] == \
            "grading weight 'x' is not a number"

    def test_non_numeric_coefficient_fails_at_triple_stage(self, capsys):
        code, rep = run_json(["run", "--algebra", "sl3",
                              "--nilpotent", "a*e21"], capsys)
        assert code == 1
        names = [s["name"] for s in rep["body"]["stages"]]
        assert names == ["load", "validate", "triple"]
        assert stage(rep, "triple")["error"] == \
            "coefficient 'a' of term 'a*e21' is not a number"

    def test_empty_basis_label_fails_at_triple_stage(self, capsys):
        # used to report "unknown basis label ''"
        code, rep = run_json(["run", "--algebra", "sl3",
                              "--nilpotent", "2*"], capsys)
        assert code == 1
        names = [s["name"] for s in rep["body"]["stages"]]
        assert names == ["load", "validate", "triple"]
        assert stage(rep, "triple")["error"] == \
            "empty basis label in term '2*'"

    @pytest.mark.parametrize("nilpotent", ["0*e21", "e21-e21"])
    def test_zero_nilpotent_fails_at_triple_stage(self, nilpotent, capsys):
        code, rep = run_json(["run", "--algebra", "sl3",
                              "--nilpotent", nilpotent], capsys)
        assert code == 1
        names = [s["name"] for s in rep["body"]["stages"]]
        assert names == ["load", "validate", "triple"]
        assert "f is zero" in stage(rep, "triple")["error"]

    def test_non_nilpotent_choice_reported(self, capsys):
        # h1 is semisimple, so no sl2-triple has it as the f element
        code, rep = run_json(["run", "--algebra", "sl2",
                              "--nilpotent", "h1"], capsys)
        assert code == 1
        assert stage(rep, "triple")["verdict"] == "fail"


# -- stage payloads ---------------------------------------------------------------

class TestStagePayloads:
    def test_sl2_chart_payload(self, capsys):
        code, rep = run_json(["slice", "chart", "--algebra", "sl2"], capsys)
        assert code == 0
        st = stage(rep, "chart")
        assert st["invariants"] == {"e12": "z_e12 + z_h1^2"}
        assert st["gauge"] == {"e12": "z_h1"}
        assert st["slice_generators"] == [
            {"name": "s1", "invariant": "e12", "parity": 0, "weight": "2"}]
        assert st["round_trip"] == "pass"
        names = [s["name"] for s in rep["body"]["stages"]]
        assert names[-1] == "chart"
        assert "invariance" not in names

    def test_check_invariance_appends_trials(self, capsys):
        code, rep = run_json(["slice", "check-invariance", "--algebra",
                              "osp12", "--trials", "3", "--seed", "7"],
                             capsys)
        assert code == 0
        st = stage(rep, "invariance")
        assert st["trials"] == 3 and st["seed"] == 7

    def test_miura_show_sl2(self, capsys):
        code, rep = run_json(["miura", "show", "--algebra", "sl2"], capsys)
        assert code == 0
        st = stage(rep, "miura")
        assert st["images"] == {"e12": "z_h1^2"}
        assert st["ini_coordinates"] == ["z_h1"]
        assert "certificate" not in [s["name"]
                                     for s in rep["body"]["stages"]]

    def test_miura_certify_osp(self, capsys):
        code, rep = run_json(["miura", "certify", "--algebra", "osp12"],
                             capsys)
        assert code == 0
        st = stage(rep, "certificate")
        assert st["even_rank"] == st["even_target"] == 1
        assert st["odd_rank"] == st["odd_target"] == 1
        blocks = {w["block"] for w in st["witness_points"]}
        assert blocks == {"even", "odd"}

    def test_decomposition_counts_sl21(self, capsys):
        code, rep = run_json(["run", "--algebra", "sl2|1"], capsys)
        assert code == 0
        st = stage(rep, "decomposition")
        assert st["slice_dim_even"] == 2
        assert st["slice_dim_odd"] == 2

    def test_cohomology_regular_is_one_point(self, capsys):
        code, rep = run_json(["cohomology", "--algebra", "sl3",
                              "--coefficients", "regular",
                              "--max-weight", "2"], capsys)
        assert code == 0
        st = stage(rep, "cohomology")
        nonzero = [row for row in st["table"] if row["dim"]]
        assert nonzero == [{"degree": 0, "weight": "0", "dim": 1}]
        # regular coefficients never build a chart
        assert "chart" not in [s["name"] for s in rep["body"]["stages"]]

    def test_cohomology_slice_h0_counts(self, capsys):
        code, rep = run_json(["cohomology", "--algebra", "sl2",
                              "--coefficients", "slice",
                              "--max-weight", "4"], capsys)
        assert code == 0
        st = stage(rep, "cohomology")
        h0 = {row["weight"]: row["dim"] for row in st["table"]
              if row["degree"] == 0}
        # monomials in one weight-2 generator: 1, s, s^2
        assert h0["0"] == 1 and h0["2"] == 1 and h0["4"] == 1
        assert h0["1"] == 0 and h0["3"] == 0

    def test_cohomology_slice_positive_degree_must_vanish(self, capsys,
                                                          monkeypatch):
        # H^0 still matches its count; a stray H^1 alone fails the stage
        real = cli.cohomology_table

        def with_h1(cx):
            table = real(cx)
            table[(1, F(2))] = 1
            return table

        monkeypatch.setattr(cli, "cohomology_table", with_h1)
        code, rep = run_json(["cohomology", "--algebra", "sl2",
                              "--coefficients", "slice",
                              "--max-weight", "4"], capsys)
        assert code == 1
        st = stage(rep, "cohomology")
        assert st["verdict"] == "fail"
        assert st["counterexample"] == {"H^1(weight 2)": 1}

    def test_pva_h0_default_cutoff(self, capsys):
        code, rep = run_json(["pva", "h0", "--algebra", "sl2"], capsys)
        assert code == 0
        st = stage(rep, "pva-h0")
        assert st["max_weight"] == "3"
        assert st["dimensions"] == {"0": 1, "2": 1, "3": 1}
        assert st["consistent"] is True

    def test_pva_h0_cutoff_below_generators_fails(self, capsys):
        code, rep = run_json(["pva", "h0", "--algebra", "sl2",
                              "--max-weight", "1"], capsys)
        assert code == 1
        assert "below the largest slice generator weight" in \
            stage(rep, "pva-h0")["error"]

    def test_pva_qcheck_osp(self, capsys):
        code, rep = run_json(["pva", "qcheck", "--algebra", "osp12"],
                             capsys)
        assert code == 0
        st = stage(rep, "pva-qcheck")
        assert st["generators"] == 4 and st["ghosts"] == 2

    def test_pva_miura_check_pair_count(self, capsys):
        code, rep = run_json(["pva", "miura-check", "--algebra", "sl2"],
                             capsys)
        assert code == 0
        assert stage(rep, "pva-miura")["pairs_checked"] == 1

    def test_orbit_matches_hand_series(self, capsys):
        # exp(-2e) f exp(2e) = f + [f,2e] + [[f,2e],2e]/2 = f - 2h - 4e
        code, rep = run_json(["orbit", "--algebra", "sl2",
                              "--element", "e21", "--by", "2*e12"], capsys)
        assert code == 0
        st = stage(rep, "orbit")
        assert st["components"] == {"e12": "-4", "e21": "1", "h1": "-2"}

    def test_orbit_rejects_unknown_label(self, capsys):
        code, rep = run_json(["orbit", "--algebra", "sl2",
                              "--element", "nope", "--by", "e12"], capsys)
        assert code == 1
        assert "unknown basis label" in stage(rep, "orbit")["error"]

    def test_orbit_rejects_zero_denominator(self, capsys):
        code, rep = run_json(["orbit", "--algebra", "sl3",
                              "--element", "1/0*e21", "--by", "e12"], capsys)
        assert code == 1
        st = stage(rep, "orbit")
        assert st["verdict"] == "fail"
        assert "'1/0' has a zero denominator" in st["error"]

    @pytest.mark.parametrize("algebra, element, by", [
        ("sl(2|1)", "e21", "e13"),  # at the parent: PASS with e21+e23
        ("osp12", "vp", "vm"),      # at the parent: PASS, parity mixed
        ("sl(2|1)", "e21", "e21+e13"),
    ])
    def test_orbit_rejects_odd_direction(self, algebra, element, by, capsys):
        code, rep = run_json(["orbit", "--algebra", algebra,
                              "--element", element, "--by", by], capsys)
        assert code == 1
        (st,) = rep["body"]["stages"]
        assert st["name"] == "orbit" and st["verdict"] == "fail"
        assert "--by must be even" in st["error"]

    def test_orbit_moves_odd_element_by_even_direction(self, capsys):
        code, rep = run_json(["orbit", "--algebra", "sl(2|1)",
                              "--element", "e13", "--by", "e21"], capsys)
        assert code == 0
        assert stage(rep, "orbit")["components"] == {"e13": "1", "e23": "-1"}


# -- report mechanics --------------------------------------------------------------

class TestReportMechanics:
    def test_bodies_byte_identical_across_reruns(self):
        config = JobConfig(algebra="osp12", trials=4, seed=11,
                           max_weight=F(2))
        r1 = run_pipeline(config)
        r2 = run_pipeline(config)
        assert body_bytes(r1) == body_bytes(r2)

    def test_seed_changes_the_witness_but_not_the_verdict(self):
        r1 = run_pipeline(JobConfig(algebra="sl3", seed=1))
        r2 = run_pipeline(JobConfig(algebra="sl3", seed=2))
        assert r1["body"]["verdict"] == r2["body"]["verdict"] == "pass"
        w1 = [s for s in r1["body"]["stages"]
              if s["name"] == "certificate"][0]["witness_points"]
        w2 = [s for s in r2["body"]["stages"]
              if s["name"] == "certificate"][0]["witness_points"]
        assert w1 != w2

    def test_timings_live_outside_the_body(self):
        rep = run_pipeline(JobConfig(algebra="sl2"))
        assert "timings" not in rep["body"]
        assert set(rep["timings"]) == {"stages", "total_s"}
        assert set(rep["timings"]["stages"]) == \
            {s["name"] for s in rep["body"]["stages"]}

    def test_two_main_calls_build_one_parser(self, monkeypatch, capsys):
        built = []
        real = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        counts = []
        for name in ("sl2", "osp12"):
            code, _ = run_cli(["algebra", "validate", "--algebra", name],
                              capsys)
            assert code == 0
            counts.append(len(built))
        # the second call builds no parser, subparsers included
        assert built.count("superslice") == 1 and counts[0] == counts[1]
        monkeypatch.undo()
        cli.build_parser.cache_clear()

    def test_output_file_holds_the_full_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _ = run_cli(["run", "--algebra", "sl2", "--output", str(out)],
                          capsys)
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["body"]["tool"] == "superslice"
        assert rep["body"]["command"] == "run"
        assert rep["timings"]["total_s"] >= 0

    def test_text_mirror_contains_stages_and_verdict(self, capsys):
        code, out = run_cli(["run", "--algebra", "sl2"], capsys)
        assert code == 0
        assert out.startswith("superslice run\n")
        for name in ("[pass] load", "[pass] chart", "[pass] certificate"):
            assert name in out
        assert out.rstrip().endswith("verdict: PASS")
        assert "total_s" not in out

    def test_text_mirror_is_deterministic(self):
        config = JobConfig(algebra="sl2", seed=3)
        t1 = report_text(run_pipeline(config))
        t2 = report_text(run_pipeline(config))
        assert t1 == t2

    def test_inputs_recorded(self, capsys):
        code, rep = run_json(["run", "--algebra", "osp12", "--trials", "2",
                              "--seed", "9"], capsys)
        inp = rep["body"]["inputs"]
        assert inp["algebra"] == "osp12"
        assert inp["trials"] == 2 and inp["seed"] == 9
        assert inp["nilpotent"] == "principal"
        assert inp["max_weight"] is None

    def test_half_integer_flag_rejected_when_not_half_integer(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pva", "h0", "--algebra", "sl2", "--max-weight", "1/3"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("coefficients", ["slice", "regular"])
    @pytest.mark.parametrize("weight", ["-1", "-1/2"])
    def test_negative_max_weight_rejected(self, weight, coefficients,
                                          capsys):
        # a negative cutoff keeps no block: an empty table would PASS
        with pytest.raises(SystemExit) as exc:
            main(["cohomology", "--algebra", "sl3", f"--max-weight={weight}",
                  "--coefficients", coefficients])
        assert exc.value.code == 2
        assert "--max-weight" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cohomology", "--coefficients", "regular", "--max-weight", "130"],
        ["cohomology", "--max-weight", "128"],
        ["pva", "h0", "--max-weight", "128"],
        ["run", "--max-weight", "128"]])
    def test_max_weight_past_the_exponent_limit_rejected(self, argv, capsys):
        # sl2's lightest even generator weighs 1 in every complex: a
        # cutoff of 128 needs x^128, one past EMAX = 127, and the stage
        # that builds the complex refuses it
        code, rep = run_json(argv + ["--algebra", "sl2"], capsys)
        assert code == 2 and cli.exit_code(rep) == 2
        st = rep["body"]["stages"][-1]
        failed = "pva-h0" if argv[0] == "pva" else "cohomology"
        assert st["name"] == failed and st["verdict"] == "fail"
        assert st["exception"] == "OverflowError"
        assert "exponent limit 127" in st["error"]

    @pytest.mark.parametrize("weight", ["127", "255/2"])
    def test_max_weight_at_the_exponent_limit_runs(self, weight, capsys):
        # 255/2 still needs only x^127
        code, out = run_json(["cohomology", "--algebra", "sl2",
                              "--coefficients", "regular",
                              "--max-weight", weight], capsys)
        assert code == 0 and out["body"]["verdict"] == "pass"

    def test_library_max_weight_past_the_exponent_limit_fails_cohomology(
            self):
        # run_pipeline has no argparse in front of it: the complex itself
        # refuses the cutoff, and the failure is rejected input
        rep = run_pipeline(JobConfig(algebra="sl2", max_weight=F(130),
                                     coefficients="regular"),
                           command="cohomology")
        assert rep["body"]["verdict"] == "fail"
        st = rep["body"]["stages"][-1]
        assert st["name"] == "cohomology"
        assert "exponent limit 127" in st["error"]
        assert cli.exit_code(rep) == 2

    @pytest.mark.parametrize("coefficients", ["slice", "regular"])
    def test_library_negative_max_weight_fails_cohomology(self, coefficients):
        rep = run_pipeline(JobConfig(algebra="sl3", max_weight=F(-1),
                                     coefficients=coefficients),
                           command="cohomology")
        assert rep["body"]["verdict"] == "fail"
        # the command alone names the stages: no run-only stage ran
        names = [st["name"] for st in rep["body"]["stages"]]
        assert "invariance" not in names and "miura" not in names
        st = rep["body"]["stages"][-1]
        assert st["name"] == "cohomology"
        assert "at least 0" in st["error"]
        assert cli.exit_code(rep) == 1

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_rejected(self, trials, capsys):
        # no sampled gauge would leave invariance a vacuous PASS
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algebra", "sl3", "--trials", trials])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", [0, -2])
    def test_library_trials_below_one_fail_invariance(self, trials):
        # run_pipeline has no argparse in front of it; the stage itself
        # must refuse a vacuous PASS
        rep = run_pipeline(JobConfig(algebra="sl3", trials=trials))
        assert rep["body"]["verdict"] == "fail"
        st = rep["body"]["stages"][-1]
        assert st["name"] == "invariance"
        assert "at least 1 trial" in st["error"]
        assert cli.exit_code(rep) == 1


# -- failure taxonomy and entry points ---------------------------------------------

class TestExitCodes:
    def test_pass_is_0(self, capsys):
        code, rep = run_json(["slice", "chart", "--algebra", "sl2"], capsys)
        assert code == 0 and cli.exit_code(rep) == 0

    def test_failed_check_is_1(self, capsys):
        code, rep = run_json(["run", "--algebra", "sl2",
                              "--nilpotent", "h1"], capsys)
        assert code == 1
        assert rep["body"]["stages"][-1]["name"] == "triple"

    def test_rejected_input_is_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, rep = run_json(["run", "--algebra", str(path)], capsys)
        assert code == 2
        assert rep["body"]["stages"][-1]["name"] == "load"
        code, rep = run_json(["run", "--algebra", "e8"], capsys)
        assert code == 2
        # a table that loads but breaks antisymmetry fails validate
        path = write_alg(tmp_path, "bad.json",
                         [("x", 0), ("y", 0), ("z", 0)], [(0, 1, 2, 1, 1)])
        code, rep = run_json(["run", "--algebra", path], capsys)
        assert code == 2
        assert rep["body"]["stages"][-1]["name"] == "validate"

    def test_unwritable_output_is_2(self, tmp_path, capsys):
        # one stderr line naming the path, no traceback
        path = str(tmp_path / "nonexistent" / "x.json")
        code = main(["algebra", "validate", "--algebra", "sl2",
                     "--output", path])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and path in err
        assert "Traceback" not in err

    def test_orbit_rejected_algebra_is_2(self, tmp_path, capsys):
        # an unknown name and a file that fails validation both fail the
        # load stage, as in every other command
        bad = write_alg(tmp_path, "bad.json",
                        [("x", 0), ("y", 0), ("z", 0)], [(0, 1, 2, 1, 1)])
        for name, msg in (("nosuch", "unknown algebra"),
                          (bad, "super-antisymmetry fails")):
            code, rep = run_json(["orbit", "--algebra", name,
                                  "--element", "e21", "--by", "e12"], capsys)
            assert code == 2
            (st,) = rep["body"]["stages"]
            assert st["name"] == "load" and st["verdict"] == "fail"
            assert msg in st["error"]
            assert list(rep["timings"]["stages"]) == ["load"]

    @pytest.mark.parametrize("relabel, meta, msg", [
        (True, {"type": "sl", "m": 3, "n": 0}, "basis label 'e21'"),
        (False, {"type": "sl", "m": 3}, "integer field 'n'"),
    ], ids=["relabelled-basis", "meta-without-n"])
    def test_inconsistent_catalogue_meta_fails_triple(self, tmp_path,
                                                      relabel, meta, msg,
                                                      capsys):
        # the file loads and validates; only the principal nilpotent,
        # read off the metadata, cannot be formed
        data = algebra_to_json(build_sl(3))
        if relabel:
            for b in data["basis"]:
                b["label"] = "x" + b["label"]
        data["meta"] = meta
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(data))
        code, rep = run_json(["run", "--algebra", str(path)], capsys)
        assert code == 1
        st = rep["body"]["stages"][-1]
        assert st["name"] == "triple" and msg in st["error"]

    def test_non_object_meta_is_2(self, tmp_path, capsys):
        data = algebra_to_json(build_sl(3))
        data["meta"] = ["sl"]
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(data))
        code, rep = run_json(["run", "--algebra", str(path)], capsys)
        assert code == 2
        (st,) = rep["body"]["stages"]
        assert st["name"] == "load"
        assert "is not a JSON object" in st["error"]

    def test_internal_error_is_3(self, capsys, monkeypatch):
        def broken(config, ctx):
            return {}["no such key"]

        monkeypatch.setitem(cli._STAGES, "chart", broken)
        code, rep = run_json(["run", "--algebra", "sl2"], capsys)
        assert code == 3
        assert rep["body"]["verdict"] == "fail"
        assert [s["name"] for s in rep["body"]["stages"]] == [
            "load", "validate", "triple", "grading", "decomposition",
            "internal-error"]
        st = rep["body"]["stages"][-1]
        assert st["at"].startswith("test_cli.py:") and \
            st.pop("at").endswith(" in broken")
        assert st == {"name": "internal-error", "verdict": "fail",
                      "stage": "chart", "exception": "KeyError",
                      "error": "'no such key'"}
        assert "chart" in rep["timings"]["stages"]

    def test_orbit_internal_error_is_3(self, capsys, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(cli, "adjoint_orbit_map", broken)
        code, rep = run_json(["orbit", "--algebra", "sl2",
                              "--element", "e21", "--by", "e12"], capsys)
        assert code == 3
        (st,) = rep["body"]["stages"]
        assert st.pop("at").endswith(" in broken")
        assert st == {"name": "internal-error", "verdict": "fail",
                      "stage": "orbit", "exception": "ZeroDivisionError",
                      "error": "boom"}


class TestVerifyOnce:
    @pytest.fixture
    def verify_calls(self, monkeypatch):
        calls = []
        real = LieSuperalgebra._verify

        def counted(self):
            calls.append(self.dim)
            return real(self)

        monkeypatch.setattr(LieSuperalgebra, "_verify", counted)
        return calls

    def test_catalogue_run_verifies_once(self, verify_calls, capsys):
        for name in ("sl3", "sl(2|1)", "osp12"):
            verify_calls.clear()
            code, rep = run_json(["run", "--algebra", name], capsys)
            assert code == 0
            assert len(verify_calls) == 1, name

    def test_bare_builders_still_verify(self, verify_calls):
        build_sl(3)
        assert verify_calls == [8]
        build_osp_1_2()
        assert verify_calls == [8, 5]
        build_sl(3, check=False)
        build_osp_1_2(check=False)
        assert verify_calls == [8, 5]

    def test_one_poisson_structure_per_chart(self, monkeypatch, capsys):
        # the arc stages share the chart's structure; chart jobs build none
        built = []
        real = PoissonStructure.__init__

        def counted(self, chart):
            built.append(chart)
            real(self, chart)

        monkeypatch.setattr(PoissonStructure, "__init__", counted)
        code, _ = run_cli(["run", "--algebra", "sl(2|1)",
                           "--max-weight", "2"], capsys)
        assert code == 0 and len(built) == 1
        built.clear()
        code, _ = run_cli(["slice", "chart", "--algebra", "sl(2|1)"], capsys)
        assert code == 0 and built == []

    @pytest.mark.parametrize("argv", [
        ["run", "--algebra", "sl(2|1)", "--max-weight", "2"],
        ["pva", "qcheck", "--algebra", "sl(2|1)"]])
    def test_one_inversion_of_m_and_no_rank(self, argv, monkeypatch, capsys):
        # the chart's Poisson structure is the one place that reads M:
        # it inverts M once, and no stage ranks M (every package module
        # that holds exact_rank records what it ranks)
        inverted, ranked = [], []
        real_inverse, real_rank = slice_module.row_inverse, linalg.exact_rank

        def counted_inverse(rows):
            inverted.append(rows)
            return real_inverse(rows)

        def counted_rank(m):
            ranked.append(m.rows)
            return real_rank(m)

        monkeypatch.setattr(slice_module, "row_inverse", counted_inverse)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "superslice" and \
                    getattr(mod, "exact_rank", None) is real_rank:
                monkeypatch.setattr(mod, "exact_rank", counted_rank)
        code, _ = run_cli(argv, capsys)
        assert code == 0 and len(inverted) == 1
        n = len(inverted[0])
        M = [[r.get(c, 0) for c in range(n)] for r in inverted[0]]
        assert M not in ranked

    def test_one_decomposition_per_chart(self, monkeypatch, capsys):
        # the decomposition stage's pieces are the ones gauge_fix reads:
        # every package module that holds the function counts its calls
        calls = []
        real = liealg.graded_slice_decomposition

        def counted(alg, grading, triple):
            calls.append(alg.dim)
            return real(alg, grading, triple)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "superslice" and \
                    getattr(mod, "graded_slice_decomposition", None) is real:
                monkeypatch.setattr(mod, "graded_slice_decomposition",
                                    counted)
        code, _ = run_cli(["slice", "chart", "--algebra", "sl(2|1)"], capsys)
        assert code == 0 and calls == [8]
        code, _ = run_cli(["run", "--algebra", "sl4", "--nilpotent", "e21",
                           "--max-weight", "2"], capsys)
        assert code == 0 and calls == [8, 15]

    def test_one_gauge_complex_per_chart(self, monkeypatch, capsys):
        # the finite and the arc complex read the chart's one gauge
        # derivation, built and squared once; chart jobs build none, and
        # the H^0 truncation reads Q itself, building no derivation
        built = []
        real = cohomology.differential

        def counted(ring, images):
            built.append(ring)
            return real(ring, images)

        monkeypatch.setattr(cohomology, "differential", counted)
        code, _ = run_cli(["run", "--algebra", "sl(2|1)",
                           "--max-weight", "2"], capsys)
        assert code == 0 and len(built) == 1
        built.clear()
        code, _ = run_cli(["slice", "chart", "--algebra", "sl(2|1)"], capsys)
        assert code == 0 and built == []
        monkeypatch.undo()

        alg = build_sl(2, 1)
        triple = sl2_triple_for(alg, principal_nilpotent(alg))
        chart = make_chart(alg, triple)
        Q = brst_complex(chart)
        derivations = []
        real_init = cohomology.OddDerivation.__init__

        def counted_init(self, ring, images):
            derivations.append(ring)
            real_init(self, ring, images)

        monkeypatch.setattr(cohomology.OddDerivation, "__init__",
                            counted_init)
        h0 = h0_truncated(chart, 4)
        assert h0.consistent(h0.dimensions())
        assert h0.order_zero.d is Q and derivations == []

    def test_one_h0_per_pva_h0_stage(self, monkeypatch, capsys):
        # the stage compares the dimensions it computed with the free
        # counts, computing H^0 once
        calls = []
        real = pva.TruncatedH0.dimensions

        def counted(self):
            calls.append(self.max_wt2)
            return real(self)

        monkeypatch.setattr(pva.TruncatedH0, "dimensions", counted)
        code, _ = run_cli(["run", "--algebra", "sl(2|1)",
                           "--max-weight", "2"], capsys)
        assert code == 0 and calls == [4]
        code, _ = run_cli(["pva", "h0", "--algebra", "sl2",
                           "--max-weight", "3"], capsys)
        assert code == 0 and calls == [4, 6]

    def test_brst_bracket_built_on_first_use(self, monkeypatch, capsys):
        # the chart's Poisson bracket is built only when something
        # brackets: qcheck builds none, and a full run builds only
        # graded_miura's, so the running count goes 0, then 1
        built = []
        real = ArcBracket.__init__

        def counted(self, ring, table):
            built.append(ring)
            real(self, ring, table)

        monkeypatch.setattr(ArcBracket, "__init__", counted)
        code, _ = run_cli(["pva", "qcheck", "--algebra", "sl5"], capsys)
        assert code == 0 and len(built) == 0
        code, _ = run_cli(["run", "--algebra", "sl(2|1)",
                           "--max-weight", "2"], capsys)
        assert code == 0 and len(built) == 1

    def test_orbit_verifies_its_load(self, verify_calls, capsys):
        code, _ = run_cli(["orbit", "--algebra", "sl2", "--element", "e21",
                           "--by", "e12"], capsys)
        assert code == 0 and verify_calls == [3]


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "superslice", "slice", "chart",
         "--algebra", "sl2", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    direct = run_pipeline(JobConfig(algebra="sl2"), command="slice chart")
    assert rep["body"] == direct["body"]

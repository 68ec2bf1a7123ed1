"""Report bodies of the benchmark jobs are byte-identical to their pins.

Each job of ``perfbench/workloads.json`` runs once at the workload
file's ``default_seed`` through ``cli.main`` (with ``--format json``, as
the benchmark runs it), and the SHA-256 of its ``body_bytes`` must equal
the pinned ``body_sha256``.  A refactor that keeps every verdict but
moves one coefficient or one digit of a report fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from superslice import cli

SPEC = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                   / "workloads.json").read_text())
JOBS = [(name, job) for name, w in SPEC["workloads"].items()
        for job in w["jobs"]]


@pytest.mark.parametrize("workload,job", JOBS,
                         ids=[f"{n}:{' '.join(j['argv'])}" for n, j in JOBS])
def test_body_matches_pinned_digest(workload, job, capsys):
    argv = job["argv"] + ["--format", "json",
                          f"--seed={SPEC['default_seed']}"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    digest = hashlib.sha256(cli.body_bytes(report)).hexdigest()
    assert digest == job["body_sha256"], workload

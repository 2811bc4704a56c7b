"""Self-test of the benchmark harness, on the four workloads shrunk to tiny sizes.

Checks that a run reports every metric BENCHMARK.json names, with its
unit, that corrupted outputs trip the correctness gate, and that the
benchmark refuses to run without the lokpde sources.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# The same CLI paths at a few hundred points.  Bandwidths are scaled to the
# coarser spacing and the error gates to the accuracy these sizes reach;
# the auto selection is what the seed code picks at this size.
TINY = {
    "torus_fixed": dict(
        n_points=400, flags=("--k", "32", "--epsilon", "0.04", "--tilde-epsilon", "0.3"),
        max_error=0.3),
    "ellipse_fixed": dict(
        n_points=200, flags=("--k", "40", "--epsilon", "0.003", "--tilde-epsilon", "0.003"),
        max_error=0.1),
    "half_torus_auto": dict(n_points=200),
    "sphere_cloud_direct": dict(
        n_points=400, flags=("--k", "60", "--epsilon", "0.02", "--tilde-epsilon", "0.02",
                             "--shift-a", "-1"),
        max_error=0.5),
}


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_run_reports_every_metric_with_its_unit(name, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, name, tiny(name))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
        out = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert code == 0
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= run.MIN_SOLVES
        units = {metric: m["unit"] for metric, m in out["metrics"].items()}
        assert units == declared(section)
        assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def _corrupt_u_hat(csv_path):
    lines = csv_path.read_text().splitlines()
    col = lines[0].split(",").index("u_hat")
    row = lines[1].split(",")
    row[col] = repr(float(row[col]) + 1.0)
    lines[1] = ",".join(row)
    csv_path.write_text("\r\n".join(lines) + "\r\n")


def _corrupt_selection(report):
    report["record"]["epsilon"] /= 2.0


@pytest.mark.parametrize("name, corrupt", [
    ("torus_fixed", "u_hat"),          # CSV error disagrees with the record
    ("sphere_cloud_direct", "u_hat"),  # CSV error above the gate
    ("half_torus_auto", "selection"),  # auto picked another bandwidth
])
def test_corrupted_output_trips_the_gate(name, corrupt, tmp_path):
    w = tiny(name)
    argv, cloud = run.prepare(w, 3, tmp_path)
    report = run.spawn(argv, False, tmp_path, timeout=120.0)
    csv_path = tmp_path / "u.csv"
    assert run.check(w, report, csv_path, cloud)[1] is None
    if corrupt == "u_hat":
        _corrupt_u_hat(csv_path)
    else:
        _corrupt_selection(report)
    error, reason = run.check(w, report, csv_path, cloud)
    assert error is None and reason


def test_failed_solve_trips_the_gate(tmp_path):
    w = dataclasses.replace(tiny("sphere_cloud_direct"), flags=("--k", "1"))
    argv, cloud = run.prepare(w, 3, tmp_path)
    error, reason = run.check(w, run.spawn(argv, False, tmp_path, timeout=120.0),
                              tmp_path / "u.csv", cloud)
    assert error is None and "exit" in reason


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "torus_fixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

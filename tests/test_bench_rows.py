"""The committed benchmark rows: every ``BENCH_<n>.json`` at the repository
root is the ``results.json`` of one ``perfbench/report.py --out`` run."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
ROWS = sorted(ROOT.glob("BENCH_*.json"))
# the workloads every row has run since the first; rows may hold more
WORKLOADS = {"torus_fixed", "ellipse_fixed", "half_torus_auto", "sphere_cloud_direct"}


def test_a_row_is_committed():
    assert ROWS


@pytest.mark.parametrize("path", ROWS, ids=[path.name for path in ROWS])
def test_row_covers_the_workloads_without_a_failed_solve(path):
    record = json.loads(path.read_text())
    assert isinstance(record["seed"], int) and record["seconds"] > 0
    assert WORKLOADS <= set(record["workloads"])
    for result in record["workloads"].values():
        assert result["attempted"] > 0
        assert result["failed"] == 0 and result["failures"] == []
        assert set(result["end_to_end"]) == {"wall_s", "setup_s", "peak_rss_mb", "error_inf"}

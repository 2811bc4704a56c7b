"""Smoke test: every demo script runs to completion at a reduced size."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script,n_points",
    [
        ("interval_bvp.py", 200),
        ("ellipse_variable_coefficients.py", 300),
        ("torus_surface.py", 900),
        ("ambient_point_cloud.py", 500),
    ],
)
def test_demo_runs(script, n_points, capsys):
    spec = importlib.util.spec_from_file_location(script[:-3], DEMOS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(n_points)
    assert "error" in capsys.readouterr().out

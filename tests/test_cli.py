import csv
import dataclasses
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lokpde
from lokpde.cli import (
    _SCHEMA,
    ConfigError,
    RunConfig,
    _fmt,
    _load_rhs,
    load_coefficient_file,
    main,
    parse_config,
    run_solve,
    run_study,
    run_tune,
    validate_config,
)
from lokpde.geometry import load_cloud, sample_points, sample_sphere
from lokpde.kernels import KernelConfig
from lokpde.operator import build_operator, tune_bandwidth
from lokpde.problems import PROBLEM_IDS, analytic_pair, problem_coefficients


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# the bandwidths and k of a solve on the three-point cloud np.eye(3)
SMALL = ["--epsilon", "0.5", "--tilde-epsilon", "0.5", "--k", "2"]


def write_cloud(tmp_path, points, name="cloud.txt"):
    path = tmp_path / name
    path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in points) + "\n")
    return str(path)


def assert_stages(record, solve_stage):
    """The record times each stage, and the stages fit inside the run."""
    stages = record["stages"]
    assert set(stages) == {"operator.tune_s", "kernels.knn_s", "operator.build_s", solve_stage, "cli.output_s"}
    assert all(seconds >= 0.0 for seconds in stages.values())
    assert sum(stages.values()) <= record["wall_time_seconds"]


_REALS = st.floats(allow_nan=False, allow_infinity=False)
_BANDWIDTHS = st.one_of(st.just("auto"), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
_PATHS = st.text(min_size=1)
# one strategy of valid values per _SCHEMA key
CONFIG_VALUES = {
    "problem": st.one_of(st.sampled_from(PROBLEM_IDS), _PATHS),
    "N": st.one_of(st.none(), st.integers(2, 10**7)),
    "mode": st.sampled_from(["uniform_grid", "iid_density"]),
    "seed": st.integers(-(2**63), 2**63 - 1),
    "k": st.integers(2, 10**6),
    "epsilon": _BANDWIDTHS,
    "tilde_epsilon": _BANDWIDTHS,
    "debias": st.booleans(),
    "shift_a": st.one_of(st.just("problem-default"), _REALS),
    "rhs": st.one_of(st.just("problem"), _REALS, _PATHS),
    "coefficients": st.one_of(st.none(), _PATHS),
    "output": st.one_of(st.none(), _PATHS),
}


INF, NAN = float("inf"), float("nan")
# each input with validate_config's config (the keys off their defaults) or its exact message;
# several bad keys raise the first in field order, and a missing problem comes last
MESSAGE_TABLE = [
    ({}, "config key 'problem' is required"),
    ({"problem": ""}, "config key 'problem' must be a non-empty string, got ''"),
    ({"problem": 5}, "config key 'problem' must be a non-empty string, got 5"),
    ({"problem": None}, "config key 'problem' must be a non-empty string, got None"),
    ({"problem": "bvp1d"}, {"problem": "bvp1d"}),
    ({"problem": "some/cloud.txt"}, {"problem": "some/cloud.txt"}),
    ({"problem": "bvp1d", "bandwidth": 1.0}, "unknown config key 'bandwidth'"),
    ({"zeta": 2, "bandwidth": 1, "N": -5}, "unknown config key 'bandwidth'"),
    ({"N": -5}, "config key 'N' must be >= 2, got -5"),
    ({"problem": "bvp1d", "N": 1}, "config key 'N' must be >= 2, got 1"),
    ({"problem": "bvp1d", "N": 2}, {"problem": "bvp1d", "N": 2}),
    ({"problem": "bvp1d", "N": None}, {"problem": "bvp1d"}),
    ({"problem": "bvp1d", "N": 2.5}, "config key 'N' must be an integer, got 2.5"),
    ({"problem": "bvp1d", "N": "12"}, {"problem": "bvp1d", "N": 12}),
    ({"problem": "bvp1d", "N": True}, "config key 'N' must be an integer, got True"),
    ({"problem": "bvp1d", "N": "abc"}, "config key 'N' must be an integer, got 'abc'"),
    ({"problem": "bvp1d", "N": INF}, "config key 'N' must be an integer, got inf"),
    ({"problem": "bvp1d", "N": 100.0}, {"problem": "bvp1d", "N": 100}),
    ({"problem": "bvp1d", "mode": "random"},
     "config key 'mode' must be 'uniform_grid' or 'iid_density', got 'random'"),
    ({"problem": "bvp1d", "mode": None},
     "config key 'mode' must be 'uniform_grid' or 'iid_density', got None"),
    ({"problem": "bvp1d", "mode": "iid_density"}, {"problem": "bvp1d", "mode": "iid_density"}),
    ({"problem": "bvp1d", "seed": -1}, {"problem": "bvp1d", "seed": -1}),
    ({"problem": "bvp1d", "seed": 1.5}, "config key 'seed' must be an integer, got 1.5"),
    ({"problem": "bvp1d", "seed": [1]}, "config key 'seed' must be an integer, got [1]"),
    ({"problem": "bvp1d", "k": 1}, "config key 'k' must be >= 2, got 1"),
    ({"problem": "bvp1d", "k": "2"}, {"problem": "bvp1d", "k": 2}),
    ({"problem": "bvp1d", "k": False}, "config key 'k' must be an integer, got False"),
    ({"problem": "bvp1d", "epsilon": 0}, "config key 'epsilon' must be positive, got 0.0"),
    ({"problem": "bvp1d", "epsilon": "tiny"},
     "config key 'epsilon' must be a real number or one of ('auto',), got 'tiny'"),
    ({"problem": "bvp1d", "epsilon": "1e-3"}, {"problem": "bvp1d", "epsilon": 0.001}),
    ({"problem": "bvp1d", "epsilon": NAN}, "config key 'epsilon' must be finite, got nan"),
    ({"problem": "bvp1d", "epsilon": True},
     "config key 'epsilon' must be a real number or one of ('auto',), got True"),
    ({"problem": "bvp1d", "tilde_epsilon": -0.5}, "config key 'tilde_epsilon' must be positive, got -0.5"),
    ({"problem": "bvp1d", "tilde_epsilon": "AUTO"},
     "config key 'tilde_epsilon' must be a real number or one of ('auto',), got 'AUTO'"),
    ({"problem": "bvp1d", "debias": "maybe"}, "config key 'debias' must be a boolean, got 'maybe'"),
    ({"problem": "bvp1d", "debias": "TRUE"}, {"problem": "bvp1d"}),
    ({"problem": "bvp1d", "debias": 1}, "config key 'debias' must be a boolean, got 1"),
    ({"problem": "bvp1d", "shift_a": "zero"},
     "config key 'shift_a' must be a real number or one of ('problem-default',), got 'zero'"),
    ({"problem": "bvp1d", "shift_a": 0.5}, {"problem": "bvp1d", "shift_a": 0.5}),
    ({"problem": "bvp1d", "shift_a": -INF}, "config key 'shift_a' must be finite, got -inf"),
    ({"problem": "bvp1d", "rhs": True},
     "config key 'rhs' must be a real, a file path, or 'problem', got True"),
    ({"problem": "bvp1d", "rhs": None},
     "config key 'rhs' must be a real, a file path, or 'problem', got None"),
    ({"problem": "bvp1d", "rhs": [1.0]},
     "config key 'rhs' must be a real, a file path, or 'problem', got [1.0]"),
    ({"problem": "bvp1d", "rhs": 2}, {"problem": "bvp1d", "rhs": 2.0}),
    ({"problem": "bvp1d", "rhs": INF}, "config key 'rhs' must be finite, got inf"),
    ({"problem": "bvp1d", "coefficients": "", "output": ""},
     {"problem": "bvp1d", "coefficients": "", "output": ""}),
    ({"problem": "bvp1d", "coefficients": 3}, "config key 'coefficients' must be a path or null, got 3"),
    ({"problem": "bvp1d", "output": ["a"]}, "config key 'output' must be a path or null, got ['a']"),
    ({"problem": "", "N": 1, "k": 1}, "config key 'N' must be >= 2, got 1"),
    ({"mode": "x", "epsilon": -1.0}, "config key 'mode' must be 'uniform_grid' or 'iid_density', got 'x'"),
    ({"rhs": True, "output": 3}, "config key 'rhs' must be a real, a file path, or 'problem', got True"),
    ({"problem": 7, "debias": "x", "shift_a": "y"}, "config key 'debias' must be a boolean, got 'x'"),
]


class TestConfigValidation:
    @settings(max_examples=100)
    @given(st.fixed_dictionaries(CONFIG_VALUES))
    def test_every_schema_key_round_trips(self, raw):
        assert set(raw) == set(_SCHEMA)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(raw, fh)
            cfg = parse_config(path)
        assert dataclasses.asdict(cfg) == raw
        assert validate_config(dataclasses.asdict(cfg)) == cfg

    @pytest.mark.parametrize("raw, expected", MESSAGE_TABLE)
    def test_message_table(self, raw, expected):
        if isinstance(expected, dict):
            assert repr(validate_config(raw)) == repr(RunConfig(**expected))  # repr tells 2 from 2.0
        else:
            with pytest.raises(ConfigError) as info:
                validate_config(raw)
            assert str(info.value) == expected

    def test_every_key_declares_its_rule_and_runs(self):
        runs = {"study", "tune", "zoo problem", "cloud file"}
        for f in dataclasses.fields(RunConfig):
            assert set(f.metadata) == {"help", "rule", "skip"} and f.metadata["help"] == _SCHEMA[f.name]
            assert set(f.metadata["skip"]) <= runs
            if f.default is not dataclasses.MISSING:
                assert repr(f.metadata["rule"](f.name, f.default)) == repr(f.default)
        assert validate_config({"problem": "bvp1d"}) == RunConfig("bvp1d")


    def test_minimal_paper_config(self, tmp_path):
        path = write_config(
            tmp_path,
            {"problem": "bvp1d", "N": 1000, "k": 100, "epsilon": 2e-6},
        )
        cfg = parse_config(path)
        assert cfg.problem == "bvp1d" and cfg.N == 1000 and cfg.k == 100
        assert cfg.epsilon == 2e-6 and cfg.tilde_epsilon == "auto"

    def test_auto_epsilon(self):
        cfg = validate_config({"problem": "torus", "epsilon": "auto", "N": 1600})
        assert cfg.epsilon == "auto"

    def test_negative_n_named_in_error(self):
        with pytest.raises(ConfigError, match="'N'"):
            validate_config({"N": -5})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bandwidth"):
            validate_config({"problem": "bvp1d", "N": 10, "bandwidth": 1.0})

    def test_missing_problem(self):
        with pytest.raises(ConfigError, match="'problem'"):
            validate_config({"N": 10})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mode": "random"},
            {"shift_a": "zero"},
            {"epsilon": -1.0},
            {"epsilon": "tiny"},
            {"k": 1},
            {"debias": "maybe"},
            # a JSON integer beyond the float range
            {"epsilon": 10**400},
            {"tilde_epsilon": 10**400},
            {"shift_a": -(10**400)},
            {"rhs": 10**400},
        ],
    )
    def test_invalid_values(self, overrides):
        (key,) = overrides
        with pytest.raises(ConfigError, match=f"config key {key!r}"):
            validate_config({"problem": "bvp1d", "N": 100, **overrides})

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_rhs_rejected(self, flag):
        # bool is an int subtype; taken as a path, open(True) would read fd 1
        with pytest.raises(ConfigError, match="'rhs'"):
            validate_config({"problem": "bvp1d", "rhs": flag})

    @pytest.mark.parametrize("token", ["nan", "-inf"])
    @pytest.mark.parametrize("key", ["epsilon", "tilde_epsilon", "shift_a", "rhs"])
    def test_non_finite_real_named(self, key, token, capsys):
        argv = ["solve", "--problem", "bvp1d", "--N", "100", "--k", "20",
                "--epsilon", "1e-4", "--tilde-epsilon", "1e-4",
                f"--{key.replace('_', '-')}={token}"]
        assert main(argv) == 1
        assert f"config key {key!r} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", ["N", "k", "seed"])
    def test_infinite_integer_named(self, tmp_path, capsys, key, value):
        # json writes these as Infinity / -Infinity, which json.load reads back
        path = write_config(tmp_path, {"problem": "bvp1d", "N": 100, key: value})
        assert main(["solve", "--config", path]) == 1
        assert f"config key {key!r} must be an integer" in capsys.readouterr().err

    def test_solver_key_rejected(self, tmp_path, capsys):
        # solve() picks the route from the sign of a; there is no key for it
        path = write_config(tmp_path, {"problem": "bvp1d", "N": 100, "solver": "direct"})
        assert main(["solve", "--config", path]) == 1
        assert "unknown config key 'solver'" in capsys.readouterr().err

    def test_flag_overrides_beat_file(self, tmp_path):
        path = write_config(tmp_path, {"problem": "bvp1d", "N": 100, "epsilon": 1e-5})
        cfg = parse_config(path, {"epsilon": 2e-5})
        assert cfg.epsilon == 2e-5

    def test_integer_past_the_digit_limit_is_a_config_error(self, tmp_path, capsys):
        # json.load raises a plain ValueError for an integer of more than 4300 digits
        path = tmp_path / "config.json"
        path.write_text('{"problem": "bvp1d", "N": 100, "epsilon": ' + "1" * 5000 + "}")
        assert main(["solve", "--config", str(path)]) == 1
        assert "is not valid JSON" in capsys.readouterr().err

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config("does-not-exist.json")


class TestRunSolve:
    def test_cloud_direct_zero_rhs(self, tmp_path):
        cloud_path = write_cloud(tmp_path, np.eye(3))
        out = str(tmp_path / "sol.csv")
        cfg = validate_config(
            {
                "problem": cloud_path,
                "shift_a": -1.0,
                "rhs": 0.0,
                "epsilon": 0.5,
                "tilde_epsilon": 0.5,
                "k": 2,
                "output": out,
            }
        )
        record = run_solve(cfg)
        assert record["error_inf"] is None
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(float(r["u_hat"]) == 0.0 for r in rows)

    @pytest.mark.parametrize(
        "settings,stored",
        [
            # eps = 1e-4 is narrow against the ellipse's 200 neighbours: S keeps few entries
            ({"problem": "ellipse", "N": 1000, "k": 200, "epsilon": 1e-4, "tilde_epsilon": 1e-4}, "fewer"),
            # 793 523 of the torus's 819 200 entries are links
            ({"problem": "torus", "N": 6400, "k": 128, "epsilon": 0.0024, "tilde_epsilon": 0.0179}, "fewer"),
        ],
        ids=["ellipse", "torus"],
    )
    def test_record_counts_the_entries_s_stores(self, settings, stored):
        record = run_solve(validate_config(settings))
        n_k = settings["N"] * settings["k"]
        assert isinstance(record["nnz"], int)
        assert record["nnz"] < n_k if stored == "fewer" else record["nnz"] == n_k

    def test_csv_bytes_are_per_cell_fmt(self, tmp_path):
        out = tmp_path / "ellipse.csv"
        cfg = validate_config(
            {"problem": "ellipse", "N": 120, "k": 30, "epsilon": 1e-3,
             "tilde_epsilon": 1e-3, "output": str(out)}
        )
        run_solve(cfg)
        written = out.read_bytes()
        with open(out, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["x1", "x2", "u_hat", "u_true", "abs_error"] and len(rows) == 120
        # repr round-trips, so re-formatting each parsed cell must give the file
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows([[_fmt(float(cell)) for cell in row] for row in rows])
        assert written == expected.getvalue().encode()

    def test_bvp1d_record_and_csv_round_trip(self, tmp_path):
        out = str(tmp_path / "bvp.csv")
        cfg = validate_config(
            {
                "problem": "bvp1d",
                "N": 200,
                "k": 50,
                "epsilon": 1e-5,
                "tilde_epsilon": 1e-5,
                "debias": False,
                "output": out,
            }
        )
        record = run_solve(cfg)
        assert record["solver"] == "direct"
        assert record["error_inf"] is not None and record["error_inf"] < 0.2
        assert record["epsilon"] == 1e-5 and record["tilde_epsilon"] == 1e-5
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "u_hat", "u_true", "abs_error"]
        # full-precision round trip: printed decimals reparse to the exact doubles
        u_col = np.array([float(r[1]) for r in rows[1:]])
        cfg2 = validate_config(
            {
                "problem": "bvp1d",
                "N": 200,
                "k": 50,
                "epsilon": 1e-5,
                "tilde_epsilon": 1e-5,
                "debias": False,
            }
        )
        # reproducibility of the pipeline itself
        from lokpde.geometry import sample_points
        from lokpde.kernels import KernelConfig
        from lokpde.operator import build_operator
        from lokpde.problems import PROBLEM_IDS, analytic_pair, problem_coefficients
        from lokpde.solver import LinearProblem, solve_direct

        problem = analytic_pair("bvp1d")
        cloud = sample_points(problem.manifold, 200, "uniform_grid", 0)
        coeffs = problem_coefficients(problem, cloud)
        gen = build_operator(cloud, coeffs, KernelConfig(1e-5, 1e-5, 50), debias=False)
        rep = solve_direct(
            LinearProblem(gen, problem.shift(cloud.intrinsic), problem.f(cloud.intrinsic))
        )
        np.testing.assert_array_equal(u_col, rep.u_hat)

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            cfg = validate_config(
                {
                    "problem": "ellipse",
                    "N": 150,
                    "mode": "iid_density",
                    "seed": 5,
                    "k": 40,
                    "epsilon": 0.01,
                    "tilde_epsilon": 0.01,
                    "output": str(tmp_path / name),
                }
            )
            run_solve(cfg)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_auto_bandwidths_echoed(self, tmp_path):
        cfg = validate_config(
            {"problem": "ellipse", "N": 200, "k": 40}
        )
        record = run_solve(cfg)
        assert isinstance(record["epsilon"], float) and record["epsilon"] > 0
        assert isinstance(record["tilde_epsilon"], float) and record["tilde_epsilon"] > 0
        assert record["d_hat"] is not None
        assert 0 < record["pair_evals"] < 2 * 41 * 200**2  # both scans ran
        assert_stages(record, "solver.min_norm_s")
        assert record["stages"]["operator.tune_s"] > 0.0

    def test_bvp1d_paper_configuration(self):
        cfg = validate_config(
            {
                "problem": "bvp1d",
                "N": 1000,
                "k": 100,
                "epsilon": 2e-6,
                "tilde_epsilon": 2e-6,
                "debias": False,
            }
        )
        record = run_solve(cfg)
        assert record["error_inf"] <= 0.004

    def test_half_torus_paper_configuration(self):
        cfg = validate_config(
            {
                "problem": "half_torus",
                "N": 3200,
                "k": 128,
                "epsilon": 0.0026,
                "tilde_epsilon": 0.0179,
            }
        )
        record = run_solve(cfg)
        assert record["error_inf"] <= 0.16

    def test_positive_shift_is_a_config_error(self, capsys):
        # a + L with a > 0 is outside both solve routes; it is not a numerical failure
        argv = ["solve", "--problem", "bvp1d", "--N", "200", "--k", "20", "--epsilon", "1e-3",
                "--tilde-epsilon", "1e-3", "--shift-a", "0.5"]
        assert main(argv) == 1
        assert "config key 'shift_a' must be <= 0, got 0.5" in capsys.readouterr().err

    def test_cloud_needs_rhs(self, tmp_path):
        cloud_path = write_cloud(tmp_path, np.eye(3))
        cfg = validate_config({"problem": cloud_path, "epsilon": 0.5, "tilde_epsilon": 0.5, "k": 2})
        with pytest.raises(ConfigError, match="rhs"):
            run_solve(cfg)

    def test_zoo_problem_rejects_coefficients(self, capsys):
        # a zoo problem lifts its own coefficients; a coefficient file would go unread
        argv = ["solve", "--problem", "ellipse", "--N", "100", "--k", "200", "--epsilon", "1e-3",
                "--tilde-epsilon", "1e-3", "--coefficients", "/nonexistent.csv"]
        assert main(argv) == 1
        assert "config key 'coefficients' does not apply to a zoo problem" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("N", "7"), ("mode", "iid_density"), ("seed", "9")])
    def test_cloud_file_rejects_the_sampling_keys(self, tmp_path, capsys, key, value):
        theta = 2 * np.pi * np.arange(50) / 50
        cloud_path = write_cloud(tmp_path, np.stack([np.cos(theta), np.sin(theta)], axis=1))
        argv = ["solve", "--problem", cloud_path, "--rhs", "1", "--shift-a", "-1", "--k", "10",
                "--epsilon", "0.01", "--tilde-epsilon", "0.01", f"--{key}", value]
        assert main(argv) == 1
        assert f"config key {key!r} does not apply to a cloud file" in capsys.readouterr().err
        record = run_solve(validate_config({"problem": cloud_path, "rhs": 1.0, "shift_a": -1.0, "k": 10,
                                            "epsilon": 0.01, "tilde_epsilon": 0.01}))
        assert record["N"] == 50 and not {"mode", "seed"} & set(record)

    def test_record_k_is_the_k_the_operator_used(self):
        record = run_solve(validate_config(
            {"problem": "ellipse", "N": 100, "k": 200, "epsilon": 1e-3, "tilde_epsilon": 1e-3}
        ))
        assert record["k"] == 100
        assert "coefficients" not in record  # a zoo problem does not read it


class TestCoefficientFile:
    def test_round_trip(self, tmp_path):
        # index, B (2 cols), upper triangle of C^-1 (3 cols)
        path = tmp_path / "coeffs.csv"
        path.write_text("0,1.0,0.0,2.0,0.5,3.0\r\n1,0.0,1.0,1.0,0.0,1.0\r\n")
        field = load_coefficient_file(str(path), 2, 2)
        np.testing.assert_array_equal(field.drift[0], [1.0, 0.0])
        np.testing.assert_array_equal(field.diffusion_inv[0], [[2.0, 0.5], [0.5, 3.0]])

    def test_missing_index(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("0,1.0,0.0,2.0,0.5,3.0\n")
        with pytest.raises(ConfigError, match="point index 1"):
            load_coefficient_file(str(path), 2, 2)

    def test_wrong_width(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("0,1.0\n")
        with pytest.raises(ConfigError, match="columns"):
            load_coefficient_file(str(path), 1, 2)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_token(self, tmp_path, token):
        path = tmp_path / "coeffs.csv"
        path.write_text(f"0,1.0,0.0,2.0,0.5,3.0\n1,0.0,{token},1.0,0.0,1.0\n")
        with pytest.raises(ConfigError, match=f"line 2: non-finite value '{token}'"):
            load_coefficient_file(str(path), 2, 2)

    def test_indefinite_diffusion(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("0,1.0,0.0,2.0,0.5,3.0\n1,0.0,1.0,1.0,2.0,1.0\n")
        with pytest.raises(ConfigError, match="line 2: C\\^-1 for point index 1 is not positive"):
            load_coefficient_file(str(path), 2, 2)

    def test_fractional_index_rejected(self, tmp_path, capsys):
        cloud_path = write_cloud(tmp_path, np.eye(2))
        path = tmp_path / "coeffs.csv"
        path.write_text("0,1.0,0.0,2.0,0.5,3.0\n1.7,0.0,1.0,1.0,0.0,1.0\n")
        code = main(["tune", "--problem", cloud_path, "--coefficients", str(path)])
        assert code == 1
        assert "line 2: point index '1.7' is not an integer" in capsys.readouterr().err

    def test_fractional_first_index_is_not_a_header(self, tmp_path, capsys):
        cloud_path = write_cloud(tmp_path, np.eye(2))
        path = tmp_path / "coeffs.csv"
        path.write_text("1.5,1.0,0.0,2.0,0.5,3.0\n0,0.0,1.0,1.0,0.0,1.0\n")
        code = main(["tune", "--problem", cloud_path, "--coefficients", str(path)])
        assert code == 1
        assert "line 1: point index '1.5' is not an integer" in capsys.readouterr().err

    def test_duplicate_index_names_both_lines(self, tmp_path, capsys):
        cloud_path = write_cloud(tmp_path, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        path = tmp_path / "coeffs.csv"
        rows = [f"{i},0.0,0.0,1.0,0.0,1.0" for i in (0, 1, 2, 3, 3)]
        path.write_text("\n".join(rows) + "\n")
        code = main(["tune", "--problem", cloud_path, "--coefficients", str(path)])
        assert code == 1
        assert "line 5: point index 3 already given on line 4" in capsys.readouterr().err

    def test_indefinite_diffusion_exit_code(self, tmp_path, capsys):
        cloud_path = write_cloud(tmp_path, np.eye(2))
        path = tmp_path / "coeffs.csv"
        path.write_text("0,1.0,0.0,2.0,0.5,3.0\n1,0.0,1.0,1.0,2.0,1.0\n")
        code = main(["tune", "--problem", cloud_path, "--coefficients", str(path)])
        assert code == 1
        assert "point index 1" in capsys.readouterr().err


class TestRhsFile:
    def solve_with_rhs(self, tmp_path, text):
        cloud_path = write_cloud(tmp_path, np.eye(3))
        rhs_path = tmp_path / "f.txt"
        rhs_path.write_text(text)
        cfg = validate_config(
            {"problem": cloud_path, "rhs": str(rhs_path), "shift_a": -1.0,
             "epsilon": 0.5, "tilde_epsilon": 0.5, "k": 2}
        )
        return run_solve(cfg)

    def test_two_values_on_a_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2: expected one value per line"):
            self.solve_with_rhs(tmp_path, "1.0\n1.0 2.0\n3.0\n")

    def test_non_numeric_token(self, tmp_path):
        with pytest.raises(ConfigError, match="line 3: non-numeric token"):
            self.solve_with_rhs(tmp_path, "1.0\n2.0\nabc\n")

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_value(self, tmp_path, token):
        with pytest.raises(ConfigError, match=f"line 1: non-finite value '{token}'"):
            self.solve_with_rhs(tmp_path, f"{token}\n2.0\n3.0\n")

    def test_values_file(self, tmp_path):
        record = self.solve_with_rhs(tmp_path, "1.0\n\n2.0\n3.0\n")
        assert record["pair_evals"] is None  # no bandwidth was tuned


@st.composite
def numeric_files(draw):
    """One file of each reader's format, with and without one bad token:
    (format, point count, good text, bad text, the bad token's line, token).
    Blank lines fall anywhere and lines end in LF or CRLF.  The token never
    replaces a coefficient row's index: a non-numeric first cell on line 1
    reads as a header."""
    fmt = draw(st.sampled_from(["cloud", "rhs", "csv", "csv_header"]))
    n = draw(st.integers(2, 12))
    if fmt in ("cloud", "rhs"):
        width = draw(st.integers(1, 4)) if fmt == "cloud" else 1
        rows = [[repr(draw(_REALS)) for _ in range(width)] for _ in range(n)]
    else:  # index, B (2 columns), C^-1 upper triangle (3 columns)
        rows = [[str(i), repr(draw(_REALS)), repr(draw(_REALS)), "1.0", "0.0", "1.0"] for i in range(n)]
    bad_row = draw(st.integers(0, n - 1))
    bad_col = draw(st.integers(1 if fmt.startswith("csv") else 0, len(rows[0]) - 1))
    token = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "abc", "1.0.0", "0x1f", "--1"]))
    blanks = draw(st.lists(st.integers(0, n), max_size=3))  # a blank line before row i (or at the end)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    sep = "," if fmt.startswith("csv") else " "
    lines = ["index,b1,b2,c11,c12,c22"] if fmt == "csv_header" else []
    for i in range(n + 1):
        lines += [""] * blanks.count(i)
        if i == bad_row:
            bad_line = len(lines) + 1
        if i < n:
            lines.append(sep.join(rows[i]))
    good = newline.join(lines) + newline
    lines[bad_line - 1] = sep.join(token if c == bad_col else cell for c, cell in enumerate(rows[bad_row]))
    return fmt, n, good, newline.join(lines) + newline, bad_line, token


def read_with(fmt, path, n):
    """The values the loader of ``fmt`` reads from ``path`` for ``n`` points."""
    if fmt == "cloud":
        return load_cloud(path).ambient
    if fmt == "rhs":
        return _load_rhs(path, n, "test")
    return load_coefficient_file(path, n, 2).diffusion_inv


class TestNumericReader:
    """One reader tokenises clouds, rhs files and coefficient CSVs."""

    @settings(max_examples=100)
    @given(st.integers(2, 30), st.integers(1, 4), st.data())
    def test_repr_matrix_round_trips_bit_for_bit(self, n, dim, data):
        values = data.draw(st.lists(_REALS, min_size=n * dim, max_size=n * dim))
        matrix = np.array(values).reshape(n, dim)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_cloud(pathlib.Path(tmp), matrix)
            loaded = load_cloud(path).ambient
        assert loaded.tobytes() == matrix.tobytes()

    @settings(max_examples=200)
    @given(numeric_files())
    def test_bad_token_names_its_line(self, case):
        fmt, n, good, bad, bad_line, token = case
        if token.lstrip("-").lower() in ("nan", "inf"):
            expected = f"line {bad_line}: non-finite value {token!r}"
        else:
            expected = f"line {bad_line}: non-numeric token"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "values.txt")
            with open(path, "w", newline="") as fh:
                fh.write(good)
            read_with(fmt, path, n)  # the file without the bad token reads
            with open(path, "w", newline="") as fh:
                fh.write(bad)
            with pytest.raises(ValueError) as info:
                read_with(fmt, path, n)
        assert str(info.value) == f"{path}: {expected}"
        assert fmt == "cloud" or isinstance(info.value, ConfigError)


class TestRunStudy:
    def test_needs_four_sizes(self):
        cfg = validate_config({"problem": "bvp1d", "k": 50, "debias": False})
        with pytest.raises(ConfigError, match="at least 4"):
            run_study(cfg, [100])

    def test_study_csv(self, tmp_path):
        out = str(tmp_path / "study.csv")
        cfg = validate_config({"problem": "bvp1d", "k": 50, "debias": False, "output": out})
        record = run_study(cfg, [100, 200, 400, 800])
        assert -2.5 <= record["fitted_slope"] <= -1.5
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "epsilon", "error_inf"]
        assert rows[-1][0] == "slope"
        assert float(rows[-1][2]) == record["fitted_slope"]
        assert [r[0] for r in rows[1:-1]] == ["100", "200", "400", "800"]
        # the keys a study does not read stay out of its record
        assert not {"epsilon", "tilde_epsilon", "shift_a", "rhs", "coefficients"} & set(record)

    def test_keys_a_study_ignores_are_rejected(self, capsys):
        code = main(
            ["study", "--problem", "bvp1d", "--N-values", "100,200,300,400", "--k", "30",
             "--epsilon", "1e-3", "--shift-a", "-5", "--rhs", "2", "--debias", "false"]
        )
        assert code == 1
        assert "'epsilon' does not apply to a study" in capsys.readouterr().err
        for key, value in [("tilde_epsilon", 1e-3), ("shift_a", -5.0), ("rhs", 2.0), ("coefficients", "c.csv"),
                           ("N", 5)]:
            cfg = validate_config({"problem": "bvp1d", key: value})
            with pytest.raises(ConfigError, match=f"{key!r} does not apply to a study"):
                run_study(cfg, [100, 200, 300, 400])

    @pytest.mark.parametrize("n_values, message", [
        ("400,300,200,100", "N values must be strictly increasing"),
        ("1,200,300,400", "config key 'N' must be >= 2, got 1"),
    ])
    def test_bad_n_values_are_a_usage_error(self, capsys, n_values, message):
        code = main(["study", "--problem", "bvp1d", "--N-values", n_values, "--k", "30", "--debias", "false"])
        assert code == 1
        assert message in capsys.readouterr().err



class TestRunTune:
    def test_degenerate_two_point_cloud(self, tmp_path):
        cloud_path = write_cloud(tmp_path, [[0.0, 0.0], [1.0, 0.0]])
        out = str(tmp_path / "tune.csv")
        cfg = validate_config({"problem": cloud_path, "output": out})
        record = run_tune(cfg)
        assert np.isfinite(record["epsilon_star"])
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epsilon", "Q", "slope"]
        assert rows[-2][0] == "epsilon_star" and rows[-1][0] == "d_hat"

    def test_circle_cloud_dimension(self, tmp_path):
        theta = 2 * np.pi * np.arange(500) / 500
        cloud_path = write_cloud(tmp_path, np.stack([np.cos(theta), np.sin(theta)], axis=1))
        record = run_tune(validate_config({"problem": cloud_path}))
        assert abs(record["d_hat"] - 1.0) <= 0.2

    def test_torus_dimension(self):
        record = run_tune(validate_config({"problem": "torus", "N": 1600}))
        assert abs(record["d_hat"] - 2.0) <= 0.4
        # the record counts the exp evaluations the scan really made
        problem = analytic_pair("torus")
        cloud = sample_points(problem.manifold, 1600, "uniform_grid")
        report = tune_bandwidth(cloud, problem_coefficients(problem, cloud))
        assert record["pair_evals"] == report.pair_evals < report.epsilon_grid.size * 1600**2


    def test_keys_a_tune_ignores_are_rejected(self, capsys):
        code = main(
            ["tune", "--problem", "ellipse", "--N", "200", "--epsilon", "1e-3", "--k", "7",
             "--shift-a", "-2", "--debias", "false"]
        )
        assert code == 1
        assert "config key 'k' does not apply to a tune" in capsys.readouterr().err
        for key, value in [("epsilon", 1e-3), ("tilde_epsilon", 1e-3), ("debias", False),
                           ("shift_a", -2.0), ("rhs", 2.0)]:
            cfg = validate_config({"problem": "ellipse", "N": 200, key: value})
            with pytest.raises(ConfigError, match=f"{key!r} does not apply to a tune"):
                run_tune(cfg)
        # and the record leaves them out
        record = run_tune(validate_config({"problem": "ellipse", "N": 200}))
        assert not {"k", "epsilon", "tilde_epsilon", "debias", "shift_a", "rhs"} & set(record)
        assert record["N"] == 200


class TestMainEntry:
    @pytest.mark.parametrize("command, extra", [
        ("solve", set()), ("study", {"--N-values", "--tuning"}), ("tune", set()),
    ])
    def test_help_shows_one_flag_per_config_field(self, monkeypatch, capsys, command, extra):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        fields = dataclasses.fields(RunConfig)
        flags = {f.name: "--" + f.name.replace("_", "-") for f in fields}
        listed = re.findall(r"^\s+(--[\w-]+)", out, flags=re.MULTILINE)
        assert sorted(listed) == sorted({"--config", *extra, *flags.values()})
        text = " ".join(out.split())  # help lines wrap at the terminal width
        for f in fields:
            assert f"{flags[f.name]} {f.name.upper()} {f.metadata['help']}" in text

    def test_exit_codes(self, capsys):
        assert main(["solve", "--problem", "bvp1d"]) == 1  # missing N
        err = capsys.readouterr().err
        assert "'N'" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["solve", "--problem", "{tmp}/nofile.txt", "--rhs", "1", *SMALL], "nofile.txt"),
            (["solve", "--problem", "{cloud}", "--rhs", "1", "--coefficients", "{tmp}/nocoef.csv", *SMALL],
             "nocoef.csv"),
            (["solve", "--problem", "{tmp}/bad.txt", "--rhs", "1", *SMALL], "line 2: non-numeric token"),
            (["solve", "--problem", "{cloud}", "--rhs", "{tmp}/norhs.txt", *SMALL], "norhs.txt"),
            (["solve", "--problem", "{cloud}", "--rhs", "1", *SMALL, "--output", "{tmp}/nodir/u.csv"],
             "config key 'output' cannot be written"),
            (["study", "--problem", "bvp1d", "--N-values", "100,200,300,400", "--k", "30", "--debias", "false",
              "--tuning", "auto", "--output", "{tmp}/nodir/study.csv"], "config key 'output' cannot be written"),
            (["tune", "--problem", "{cloud}", "--output", "{tmp}/nodir/tune.csv"],
             "config key 'output' cannot be written"),
        ],
        ids=["missing-cloud", "missing-coefficients", "malformed-cloud-line", "missing-rhs",
             "unwritable-solve-output", "unwritable-study-output", "unwritable-tune-output"],
    )
    def test_bad_input_file_is_a_usage_error(self, tmp_path, capsys, argv, named):
        # exit 2 means a numerical failure; an input file that cannot be read,
        # or an output file that cannot be opened, is exit 1
        cloud = write_cloud(tmp_path, np.eye(3))
        (tmp_path / "bad.txt").write_text("0 0 1\n0 x 1\n1 0 0\n")
        code = main([a.format(tmp=tmp_path, cloud=cloud) for a in argv])
        assert code == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "torus", "--N", "6400", "--k", "128", "--epsilon", "0.0024",
             "--tilde-epsilon", "0.0179"],
            ["study", "--problem", "bvp1d", "--N-values", "100,200,300,400", "--k", "30", "--debias", "false"],
            ["tune", "--problem", "ellipse", "--N", "200"],
        ],
        ids=["solve", "study", "tune"],
    )
    def test_output_is_opened_before_the_numerics(self, tmp_path, monkeypatch, capsys, argv):
        # an output path in a missing directory exits 1 before the kNN search
        # (or the Q(eps) scan) runs, not after the whole solve
        import lokpde.cli as cli
        import lokpde.operator as operator
        import lokpde.solver as solver_module

        def numerics(*args, **kwargs):
            raise AssertionError("the numerics ran")

        for module in (cli, operator, solver_module):
            monkeypatch.setattr(module, "build_knn_graph", numerics)
        monkeypatch.setattr(cli, "tune_bandwidth", numerics)
        assert main([*argv, "--output", str(tmp_path / "nodir" / "out.csv")]) == 1
        assert "config key 'output' cannot be written" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--problem", "torus", "--N", "401"], "does not factor"),
            (["--problem", "ellipse", "--N", "100", "--mode", "iid_density", "--seed", "-1"], "non-negative"),
        ],
        ids=["grid-does-not-factor", "negative-seed"],
    )
    def test_unsamplable_cloud_is_a_config_error(self, capsys, flags, named):
        # sample_points rejects the config before any numerics run: exit 1, not 2
        code = main(["solve", *flags, "--epsilon", "1e-3", "--tilde-epsilon", "1e-3", "--k", "20"])
        assert code == 1
        assert named in capsys.readouterr().err

    def test_solve_stdout_record(self, tmp_path, capsys):
        code = main(
            ["solve", "--problem", "bvp1d", "--N", "120", "--k", "40", "--epsilon", "2e-5",
             "--tilde-epsilon", "2e-5", "--debias", "false"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["N"] == 120
        assert record["error_inf"] is not None
        assert isinstance(record["iterations"], int) and record["iterations"] > 0
        assert isinstance(record["coarse_size"], int) and record["coarse_size"] > 0
        assert_stages(record, "solver.direct_s")
        assert record["stages"]["kernels.knn_s"] > 0.0  # timed apart from the build
        assert record["stages"]["operator.tune_s"] == 0.0  # pinned bandwidths

    def test_record_carries_the_pool_width(self, monkeypatch, capsys):
        flags = ["solve", "--problem", "bvp1d", "--N", "120", "--k", "40", "--epsilon", "2e-5",
                 "--tilde-epsilon", "2e-5", "--debias", "false"]
        assert main(flags) == 0
        workers = json.loads(capsys.readouterr().out.strip())["workers"]
        assert isinstance(workers, int) and workers > 0
        assert workers == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert main(flags) == 0
        assert json.loads(capsys.readouterr().out.strip())["workers"] == 3

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the resident set from /proc")
    def test_record_carries_the_peak_rss(self):
        # a fresh process, so the peak is this solve's: ru_maxrss is the
        # largest resident set so far, at least the one left after the solve
        src = os.path.dirname(os.path.dirname(os.path.abspath(lokpde.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import json, os, lokpde.cli\n"
            "config = lokpde.cli.RunConfig(problem='ellipse', N=1000, k=200, epsilon=1e-4, tilde_epsilon=1e-4)\n"
            "peak = lokpde.cli.run_solve(config)['peak_rss_mb']\n"
            "with open('/proc/self/statm') as fh:\n"
            "    rss = int(fh.read().split()[1]) * os.sysconf('SC_PAGE_SIZE') / 2**20\n"
            "print(json.dumps([peak, rss]))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        peak, rss = json.loads(result.stdout)
        assert isinstance(peak, float) and peak > 0.0
        assert peak >= rss

    def test_auto_solver_record(self, capsys):
        # a = 0 on the ellipse: "auto" takes the minimum-norm route
        code = main(
            ["solve", "--problem", "ellipse", "--N", "200", "--k", "40", "--epsilon", "2e-3",
             "--tilde-epsilon", "2e-3"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["solver"] == "min_norm"
        assert record["iterations"] > 0 and record["coarse_size"] == 200 // 8

    def test_disconnected_cloud_exit_code(self, tmp_path, capsys):
        pts = np.vstack([np.eye(3) * 0.1, np.eye(3) * 0.1 + 50.0])
        cloud_path = write_cloud(tmp_path, pts)
        code = main(
            ["solve", "--problem", cloud_path, "--rhs", "1", "--epsilon", "0.5",
             "--tilde-epsilon", "0.5", "--k", "2"]
        )
        assert code == 2
        assert "closed classes" in capsys.readouterr().err

    def test_drift_past_the_underflow_is_named(self, capsys):
        # eps B pushes every neighbour of a row, the point itself too, past
        # exp's underflow: the row is empty for a large epsilon, not a small one
        code = main(["solve", "--problem", "half_torus", "--N", "200", "--k", "20", "--epsilon", "1e9",
                     "--tilde-epsilon", "1e-3"])
        assert code == 2
        assert "or epsilon too large for the drift" in capsys.readouterr().err

    def test_overflowing_kernel_prints_only_the_named_error(self):
        # quad overflows to inf at eps = 1e300, whose entry exp(-inf) = 0.0 is
        # exact; numpy's overflow warning must not precede the named error
        src = os.path.dirname(os.path.dirname(os.path.abspath(lokpde.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-m", "lokpde.cli", "solve", "--problem", "bvp1d", "--N", "50", "--k", "50",
             "--epsilon", "1e300", "--tilde-epsilon", "1e300"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: kernel row 0 has non-positive sum"), lines

    def test_overflowing_drift_shift_is_named_before_the_assembly(self):
        # eps B = 1e200 B on the torus: x - y + eps B and C^-1 v overflow,
        # and a rank-2 C^-1 in three dimensions would give inf - inf = nan
        src = os.path.dirname(os.path.dirname(os.path.abspath(lokpde.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-m", "lokpde.cli", "solve", "--problem", "torus", "--N", "400", "--k", "20",
             "--epsilon", "1e200", "--tilde-epsilon", "1e-3"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and "overflow" in lines[0] and "epsilon" in lines[0], lines
        assert "RuntimeWarning" not in result.stderr

    def test_import_defers_kd_tree_and_thread_pool(self):
        # no solve uses scipy.spatial or scipy.sparse.csgraph; the thread
        # pool loads on first use (map_row_blocks, behind the kNN search, the
        # assembly and tune_bandwidth); at import they would add to the
        # start-up time of every solve
        src = os.path.dirname(os.path.dirname(os.path.abspath(lokpde.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys, lokpde.cli; "
            "print([m for m in ('scipy.spatial', 'scipy.sparse.csgraph', 'concurrent.futures.thread') "
            "if m in sys.modules])"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize("problem", ["ellipse", "cloud", "bvp1d"])
    def test_solve_loads_neither_spatial_nor_special(self, tmp_path, problem):
        # the kNN search needs only numpy, and the solve numpy and
        # scipy.sparse: scipy.spatial and the scipy.special it pulls in would
        # add about 0.13 s to every solve, scipy.sparse.linalg and the
        # scipy.linalg it loads 0.1 s and 10 MB; the ellipse takes the
        # singular GMRES route, and bvp1d and a cloud without coefficients
        # (a < 0) the direct one
        src = os.path.dirname(os.path.dirname(os.path.abspath(lokpde.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        absent = ["scipy.spatial", "scipy.special", "scipy.sparse.linalg", "scipy.linalg", "scipy.sparse.csgraph"]
        if problem == "cloud":
            cloud_path = write_cloud(tmp_path, sample_sphere(300, seed=1).ambient)
            flags = ["--problem", cloud_path, "--rhs", "1", "--k", "40", "--shift-a", "-1"]
        elif problem == "bvp1d":
            flags = ["--problem", "bvp1d", "--N", "200", "--k", "50", "--debias", "false"]
        else:
            flags = ["--problem", "ellipse", "--N", "200", "--k", "40"]
        code = (
            "import json, sys, lokpde.cli; assert lokpde.cli.main(sys.argv[1:]) == 0; "
            f"print([m for m in {absent!r} if m in sys.modules])"
        )
        epsilon = "1e-5" if problem == "bvp1d" else "0.01"
        result = subprocess.run(
            [sys.executable, "-c", code, "solve", *flags, "--epsilon", epsilon, "--tilde-epsilon", epsilon],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.strip().splitlines()
        record = json.loads(lines[-2])
        expected = {"ellipse": "min_norm", "cloud": "direct", "bvp1d": "direct"}
        assert record["solver"] == expected[problem] and record["coarse_size"] > 0
        assert lines[-1] == "[]"

    def test_installed_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "lokpde.cli", "solve", "--problem", "bvp1d", "--N", "80",
             "--k", "20", "--epsilon", "5e-5", "--tilde-epsilon", "5e-5",
             "--debias", "false"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        record = json.loads(result.stdout.strip())
        assert record["solver"] == "direct"


class TestSphereCloudPathway:
    def test_laplace_beltrami_default(self, tmp_path):
        cloud = sample_sphere(400, seed=1)
        cloud_path = write_cloud(tmp_path, cloud.ambient)
        rhs_path = tmp_path / "f.txt"
        u = cloud.ambient[:, 0] * cloud.ambient[:, 1]
        rhs_path.write_text("\n".join(repr(float(v)) for v in -6.0 * u) + "\n")
        cfg = validate_config(
            {
                "problem": cloud_path,
                "rhs": str(rhs_path),
                "epsilon": 0.1,
                "tilde_epsilon": 0.05,
                "k": 80,
            }
        )
        record = run_solve(cfg)
        assert record["debias"] is True  # the default, which the ambient pathway needs
        assert record["solver"] == "min_norm"

    def test_cloud_without_coefficients_takes_gmres(self, tmp_path, capsys):
        # the Laplace-Beltrami field is isotropic and drift-free, so its
        # kernel is symmetric, and S keeps the kNN pattern all the same
        cloud_path = write_cloud(tmp_path, sample_sphere(400, seed=1).ambient)
        flags = ["--problem", cloud_path, "--rhs", "1", "--k", "60", "--epsilon", "0.05", "--tilde-epsilon", "0.05"]
        for shift, route in (("-1", "direct"), ("0", "min_norm")):
            assert main(["solve", *flags, "--shift-a", shift]) == 0
            record = json.loads(capsys.readouterr().out)
            assert (record["solver"], record["coarse_size"]) == (route, 400 // 8)
            assert record["iterations"] > 0 and record["nnz"] == 400 * 60

    def test_zoo_problems_take_gmres(self, capsys):
        # lifted (ellipse) and drifted (bvp1d) fields keep the kNN pattern
        for flags in (["--problem", "ellipse", "--N", "200", "--k", "40", "--epsilon", "3e-3"],
                      ["--problem", "bvp1d", "--N", "200", "--k", "50", "--epsilon", "1e-5", "--debias", "false"]):
            assert main(["solve", *flags, "--tilde-epsilon", "3e-3"]) == 0
            record = json.loads(capsys.readouterr().out)
            assert record["coarse_size"] > 0

    def test_debias_false_is_rejected(self, tmp_path, capsys):
        cloud_path = write_cloud(tmp_path, sample_sphere(200, seed=1).ambient)
        argv = ["solve", "--problem", cloud_path, "--rhs", "1", "--shift-a", "-1", "--k", "40",
                "--epsilon", "0.1", "--tilde-epsilon", "0.05"]
        assert main([*argv, "--debias", "false"]) == 1
        assert "config key 'debias' must be true" in capsys.readouterr().err
        for flags in (["--debias", "true"], []):
            assert main([*argv, *flags]) == 0
            assert json.loads(capsys.readouterr().out)["debias"] is True


class TestBenchmarkSpans:
    """The benchmark times ``solver.direct_s`` and ``solver.min_norm_s`` as
    spans of ``solve_direct`` and ``solve_min_norm``: one solve must pass
    through exactly one of them, once."""

    @pytest.mark.parametrize("shift, route", [(-1.0, "direct"), (0.0, "min_norm")])
    def test_each_solve_reaches_its_route_once(self, monkeypatch, shift, route):
        import lokpde.solver as solver_module

        calls = {"direct": 0, "min_norm": 0}
        for name in calls:
            real = getattr(solver_module, f"solve_{name}")

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(solver_module, f"solve_{name}", counted)
        expected = {"direct": 0, "min_norm": 0, route: 1}

        problem = analytic_pair("ellipse")
        cloud = sample_points(problem.manifold, 120, "uniform_grid")
        gen = build_operator(cloud, problem_coefficients(problem, cloud), KernelConfig(1e-3, 1e-3, 30))
        f = problem.f(cloud.intrinsic)
        solver_module.solve(solver_module.LinearProblem(gen, np.full(120, shift), f))
        assert calls == expected

        calls.update(direct=0, min_norm=0)
        record = run_solve(validate_config(
            {"problem": "ellipse", "N": 120, "k": 30, "epsilon": 1e-3, "tilde_epsilon": 1e-3,
             "shift_a": shift}
        ))
        assert calls == expected
        assert record["solver"] == route

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from lokpde.cli import (
    ConfigError,
    load_coefficient_file,
    main,
    parse_config,
    run_solve,
    run_study,
    run_tune,
    validate_config,
)
from lokpde.geometry import sample_points, sample_sphere
from lokpde.operator import tune_bandwidth
from lokpde.problems import analytic_pair, problem_coefficients


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_cloud(tmp_path, points, name="cloud.txt"):
    path = tmp_path / name
    path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in points) + "\n")
    return str(path)


def assert_stages(record, solve_stage):
    """The record times each stage, and the stages fit inside the run."""
    stages = record["stages"]
    assert set(stages) == {"operator.tune_s", "operator.build_s", solve_stage, "cli.output_s"}
    assert all(seconds >= 0.0 for seconds in stages.values())
    assert sum(stages.values()) <= record["wall_time_seconds"]


class TestConfigValidation:
    def test_minimal_paper_config(self, tmp_path):
        path = write_config(
            tmp_path,
            {"problem": "bvp1d", "N": 1000, "k": 100, "epsilon": 2e-6, "solver": "direct"},
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
            {"solver": "cg"},
            {"epsilon": -1.0},
            {"epsilon": "tiny"},
            {"k": 1},
            {"debias": "maybe"},
        ],
    )
    def test_invalid_values(self, overrides):
        with pytest.raises(ConfigError):
            validate_config({"problem": "bvp1d", "N": 100, **overrides})

    @pytest.mark.parametrize("token", ["nan", "-inf"])
    @pytest.mark.parametrize("key", ["epsilon", "tilde_epsilon", "shift_a", "rhs"])
    def test_non_finite_real_named(self, key, token, capsys):
        argv = ["solve", "--problem", "bvp1d", "--N", "100", "--k", "20",
                "--epsilon", "1e-4", "--tilde-epsilon", "1e-4",
                f"--{key.replace('_', '-')}={token}"]
        assert main(argv) == 1
        assert f"config key {key!r} must be finite" in capsys.readouterr().err

    def test_flag_overrides_beat_file(self, tmp_path):
        path = write_config(tmp_path, {"problem": "bvp1d", "N": 100, "epsilon": 1e-5})
        cfg = parse_config(path, {"epsilon": 2e-5})
        assert cfg.epsilon == 2e-5

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
                "solver": "direct",
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
                "solver": "direct",
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
                "solver": "direct",
            }
        )
        # reproducibility of the pipeline itself
        from lokpde.geometry import sample_points
        from lokpde.kernels import KernelConfig
        from lokpde.operator import build_operator
        from lokpde.problems import analytic_pair, problem_coefficients
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
                    "solver": "min_norm",
                    "output": str(tmp_path / name),
                }
            )
            run_solve(cfg)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_auto_bandwidths_echoed(self, tmp_path):
        cfg = validate_config(
            {"problem": "ellipse", "N": 200, "k": 40, "solver": "min_norm"}
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
                "solver": "direct",
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
                "solver": "min_norm",
            }
        )
        record = run_solve(cfg)
        assert record["error_inf"] <= 0.16

    def test_cloud_needs_rhs(self, tmp_path):
        cloud_path = write_cloud(tmp_path, np.eye(3))
        cfg = validate_config({"problem": cloud_path, "epsilon": 0.5, "tilde_epsilon": 0.5, "k": 2})
        with pytest.raises(ConfigError, match="rhs"):
            run_solve(cfg)


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
        with pytest.raises(ConfigError, match="line 2: non-finite value for point index 1"):
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


class TestMainEntry:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["solve", "--problem", "bvp1d"]) == 1  # missing N
        err = capsys.readouterr().err
        assert "'N'" in err

        cloud_path = write_cloud(tmp_path, np.eye(3))
        # direct solve demands a strictly negative shift: numerical failure
        code = main(
            ["solve", "--problem", cloud_path, "--rhs", "1", "--solver", "direct",
             "--epsilon", "0.5", "--tilde-epsilon", "0.5", "--k", "2"]
        )
        assert code == 2

    def test_solve_stdout_record(self, tmp_path, capsys):
        code = main(
            ["solve", "--problem", "bvp1d", "--N", "120", "--k", "40", "--epsilon", "2e-5",
             "--tilde-epsilon", "2e-5", "--debias", "false", "--solver", "direct"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["N"] == 120
        assert record["error_inf"] is not None
        assert isinstance(record["iterations"], int) and record["iterations"] > 0
        assert isinstance(record["factor_nnz"], int) and record["factor_nnz"] > 0
        assert_stages(record, "solver.direct_s")
        assert record["stages"]["operator.tune_s"] == 0.0  # pinned bandwidths

    def test_auto_solver_record(self, capsys):
        # a = 0 on the ellipse: "auto" takes the minimum-norm route
        code = main(
            ["solve", "--problem", "ellipse", "--N", "200", "--k", "40", "--epsilon", "2e-3",
             "--tilde-epsilon", "2e-3"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["solver"] == "min_norm"
        assert record["iterations"] > 0 and record["factor_nnz"] > 0

    def test_disconnected_cloud_exit_code(self, tmp_path, capsys):
        pts = np.vstack([np.eye(3) * 0.1, np.eye(3) * 0.1 + 50.0])
        cloud_path = write_cloud(tmp_path, pts)
        code = main(
            ["solve", "--problem", cloud_path, "--rhs", "1", "--epsilon", "0.5",
             "--tilde-epsilon", "0.5", "--k", "2"]
        )
        assert code == 2
        assert "closed classes" in capsys.readouterr().err

    def test_installed_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "lokpde.cli", "solve", "--problem", "bvp1d", "--N", "80",
             "--k", "20", "--epsilon", "5e-5", "--tilde-epsilon", "5e-5",
             "--debias", "false", "--solver", "direct"],
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
                "solver": "min_norm",
            }
        )
        record = run_solve(cfg)
        assert record["debias"] is True  # forced on the ambient pathway
        assert record["solver"] == "min_norm"

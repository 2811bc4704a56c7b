"""Command-line front end: ``lokpde solve | study | tune``.

Runs are described by a JSON config (``--config``) whose keys can be
overridden by flags of the same name.  Every run resolves "auto" bandwidth
fields before solving and echoes the resolved values, writes RFC-4180 CSV
output, and prints one machine-readable JSON result record to stdout.
Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .geometry import CoefficientField, PointCloud, load_cloud, sample_points
from .kernels import KernelConfig
from .operator import (
    build_operator,
    default_epsilon_grid,
    psd_eigenvalues,
    tune_bandwidth,
    tune_gaussian_bandwidth,
)
from .problems import PROBLEM_IDS, analytic_pair, problem_coefficients
from .solver import LinearProblem, convergence_study, solve, solve_direct, solve_min_norm

__all__ = ["RunConfig", "ConfigError", "parse_config", "run_solve", "run_study", "run_tune", "main"]


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 1)."""


_SCHEMA = {
    # key: (type description, validator); validators raise ConfigError
    "problem": "problem id or point-cloud file path (string)",
    "N": "positive integer >= 2",
    "mode": '"uniform_grid" or "iid_density"',
    "seed": "integer",
    "k": "integer >= 2",
    "epsilon": 'positive real or "auto"',
    "tilde_epsilon": 'positive real or "auto"',
    "debias": "boolean",
    "solver": '"direct", "min_norm" or "auto"',
    "shift_a": 'real or "problem-default"',
    "rhs": 'real, values-file path, or "problem"',
    "coefficients": "per-point coefficient CSV path or null",
    "output": "output file path or null",
}

_DEFAULTS = {
    "N": None,
    "mode": "uniform_grid",
    "seed": 0,
    "k": 128,
    "epsilon": "auto",
    "tilde_epsilon": "auto",
    "debias": True,
    "solver": "auto",
    "shift_a": "problem-default",
    "rhs": "problem",
    "coefficients": None,
    "output": None,
}


@dataclass(frozen=True)
class RunConfig:
    problem: str
    N: int | None
    mode: str
    seed: int
    k: int
    epsilon: float | str
    tilde_epsilon: float | str
    debias: bool
    solver: str
    shift_a: float | str
    rhs: float | str
    coefficients: str | None
    output: str | None

    @property
    def is_cloud_file(self) -> bool:
        return self.problem not in PROBLEM_IDS


def _as_bool(key, value):
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise ConfigError(f"config key {key!r} must be a boolean, got {value!r}")


def _as_int(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}") from None
    if isinstance(value, float) and value != out:
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return out


def _as_real_or(key, value, *allowed):
    """A finite float, or ``value`` itself when it is one of ``allowed``."""
    if isinstance(value, str) and value in allowed:
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"config key {key!r} must be a real number or one of {allowed}, got {value!r}")
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(
            f"config key {key!r} must be a real number or one of {allowed}, got {value!r}"
        ) from None
    if not math.isfinite(out):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return out


def validate_config(raw: dict) -> RunConfig:
    """Validate a raw key/value mapping into a RunConfig.

    Unknown keys are rejected by name; "auto" bandwidths stay symbolic here
    and are resolved at run time.
    """
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
    merged = {**_DEFAULTS, **raw}

    n = merged["N"]
    if n is not None:
        n = _as_int("N", n)
        if n < 2:
            raise ConfigError(f"config key 'N' must be >= 2, got {n}")
    mode = merged["mode"]
    if mode not in ("uniform_grid", "iid_density"):
        raise ConfigError(f"config key 'mode' must be 'uniform_grid' or 'iid_density', got {mode!r}")
    seed = _as_int("seed", merged["seed"])
    k = _as_int("k", merged["k"])
    if k < 2:
        raise ConfigError(f"config key 'k' must be >= 2, got {k}")
    epsilon = _as_real_or("epsilon", merged["epsilon"], "auto")
    if isinstance(epsilon, float) and epsilon <= 0:
        raise ConfigError(f"config key 'epsilon' must be positive, got {epsilon}")
    tilde = _as_real_or("tilde_epsilon", merged["tilde_epsilon"], "auto")
    if isinstance(tilde, float) and tilde <= 0:
        raise ConfigError(f"config key 'tilde_epsilon' must be positive, got {tilde}")
    debias = _as_bool("debias", merged["debias"])
    solver = merged["solver"]
    if solver not in ("direct", "min_norm", "auto"):
        raise ConfigError(f"config key 'solver' must be 'direct', 'min_norm' or 'auto', got {solver!r}")
    shift = _as_real_or("shift_a", merged["shift_a"], "problem-default")
    rhs = merged["rhs"]
    if not (isinstance(rhs, str) or isinstance(rhs, (int, float))):
        raise ConfigError(f"config key 'rhs' must be a real, a file path, or 'problem', got {rhs!r}")
    if isinstance(rhs, (int, float)) and not isinstance(rhs, bool):
        rhs = _as_real_or("rhs", rhs)
    coeff = merged["coefficients"]
    if coeff is not None and not isinstance(coeff, str):
        raise ConfigError(f"config key 'coefficients' must be a path or null, got {coeff!r}")
    output = merged["output"]
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"config key 'output' must be a path or null, got {output!r}")
    if "problem" not in raw:
        raise ConfigError("config key 'problem' is required")
    problem = merged["problem"]
    if not isinstance(problem, str) or not problem:
        raise ConfigError(f"config key 'problem' must be a non-empty string, got {problem!r}")

    return RunConfig(
        problem, n, mode, seed, k, epsilon, tilde, debias, solver, shift, rhs, coeff, output
    )


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Load a JSON config file and/or inline overrides into a RunConfig."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path!r} must hold a JSON object")
        raw.update(loaded)
    if overrides:
        raw.update(overrides)
    return validate_config(raw)


def _parses_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_coefficient_file(path: str, n_points: int, ambient_dim: int) -> CoefficientField:
    """Per-point ambient coefficients from CSV: index, B, C^-1 upper triangle.

    Every token must be finite and every C^-1 positive semidefinite (no
    eigenvalue below -1e-12 max|eig|); violations name the line.
    """
    n_tri = ambient_dim * (ambient_dim + 1) // 2
    drift = np.full((n_points, ambient_dim), np.nan)
    diff_inv = np.full((n_points, ambient_dim, ambient_dim), np.nan)
    line_of = np.zeros(n_points, dtype=int)
    iu = np.triu_indices(ambient_dim)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or not row[0].strip():
                continue
            if lineno == 1 and not _parses_as_float(row[0]):
                continue  # header row
            if len(row) != 1 + ambient_dim + n_tri:
                raise ConfigError(
                    f"{path}: line {lineno}: expected {1 + ambient_dim + n_tri} columns, got {len(row)}"
                )
            try:
                values = [float(t) for t in row]
            except ValueError:
                raise ConfigError(f"{path}: line {lineno}: non-numeric token") from None
            if not all(map(math.isfinite, values)):
                raise ConfigError(
                    f"{path}: line {lineno}: non-finite value for point index {row[0].strip()}"
                )
            if not values[0].is_integer():
                raise ConfigError(
                    f"{path}: line {lineno}: point index {row[0].strip()!r} is not an integer"
                )
            idx = int(values[0])
            if not 0 <= idx < n_points:
                raise ConfigError(f"{path}: line {lineno}: point index {idx} out of range")
            line_of[idx] = lineno
            drift[idx] = values[1 : 1 + ambient_dim]
            tri = values[1 + ambient_dim :]
            mat = np.zeros((ambient_dim, ambient_dim))
            mat[iu] = tri
            diff_inv[idx] = mat + np.triu(mat, 1).T
    if np.isnan(drift).any():
        missing = int(np.flatnonzero(np.isnan(drift).any(axis=1))[0])
        raise ConfigError(f"{path}: no coefficient row for point index {missing}")
    eig, bad = psd_eigenvalues(diff_inv)
    if bad is not None:
        raise ConfigError(
            f"{path}: line {line_of[bad]}: C^-1 for point index {bad} is not positive "
            f"semidefinite (eigenvalue {eig[bad, 0]!r})"
        )
    return CoefficientField(drift, diff_inv)


def _load_rhs(rhs, n_points: int, path_hint: str) -> np.ndarray:
    if isinstance(rhs, float):
        return np.full(n_points, rhs)
    try:
        with open(rhs) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read rhs file {rhs!r}: {exc}") from exc
    values = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 1:
            raise ConfigError(f"{rhs}: line {lineno}: expected one value per line")
        try:
            value = float(tokens[0])
        except ValueError:
            raise ConfigError(f"{rhs}: line {lineno}: non-numeric token") from None
        if not math.isfinite(value):
            raise ConfigError(f"{rhs}: line {lineno}: non-finite value {tokens[0]!r}")
        values.append(value)
    if len(values) != n_points:
        raise ConfigError(f"{rhs}: got {len(values)} values for {n_points} points ({path_hint})")
    return np.array(values)


def _build_cloud(config: RunConfig):
    """Resolve a config into (cloud, coeffs, problem-or-None, debias)."""
    if config.is_cloud_file:
        cloud = load_cloud(config.problem)
        n, dim = cloud.n_points, cloud.ambient_dim
        if config.coefficients is not None:
            coeffs = load_coefficient_file(config.coefficients, n, dim)
            debias = config.debias
        else:
            # unknown embedding: Laplace-Beltrami operator on i.i.d. samples,
            # so the debiasing normalization is forced on
            coeffs = CoefficientField.laplace_beltrami(n, dim)
            debias = True
        return cloud, coeffs, None, debias
    problem = analytic_pair(config.problem)
    if config.N is None:
        raise ConfigError(f"config key 'N' is required for zoo problem {config.problem!r}")
    cloud = sample_points(problem.manifold, config.N, config.mode, config.seed)
    return cloud, problem_coefficients(problem, cloud), problem, config.debias


def _build_system(config: RunConfig, cloud, problem):
    """Resolve the shift vector a and right-hand side f for a solve."""
    n = cloud.n_points
    if problem is None:
        shift_value = 0.0 if config.shift_a == "problem-default" else float(config.shift_a)
        shift = np.full(n, shift_value)
        if config.rhs == "problem":
            raise ConfigError("point-cloud runs need an explicit 'rhs' (constant or values file)")
        rhs = _load_rhs(config.rhs, n, config.problem)
        return shift, rhs
    x = cloud.intrinsic
    if config.shift_a == "problem-default":
        shift = problem.shift(x)
    else:
        shift = np.full(n, float(config.shift_a))
    rhs = problem.f(x) if config.rhs == "problem" else _load_rhs(config.rhs, n, config.problem)
    return shift, rhs


def _resolve_bandwidths(config: RunConfig, cloud, coeffs):
    """(epsilon, tilde_epsilon, d_hat, pair_evals, tune_seconds); d_hat and
    pair_evals are None and tune_seconds 0.0 unless a bandwidth is "auto"."""
    eps, tilde = config.epsilon, config.tilde_epsilon
    d_hat = pair_evals = None
    start = time.perf_counter()
    if eps == "auto":
        report = tune_bandwidth(cloud, coeffs)
        eps, d_hat, pair_evals = report.epsilon_star, report.d_hat, report.pair_evals
    if tilde == "auto":
        report = tune_gaussian_bandwidth(cloud)
        tilde = report.epsilon_star
        if d_hat is None:
            d_hat = report.d_hat
        pair_evals = (pair_evals or 0) + report.pair_evals
    tune_seconds = 0.0 if pair_evals is None else time.perf_counter() - start
    return float(eps), float(tilde), d_hat, pair_evals, tune_seconds


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # RFC-4180: CRLF line terminator
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    # repr gives the shortest decimal that round-trips the double exactly
    return repr(float(value))


def run_solve(config: RunConfig) -> dict:
    """Full pipeline for one solve; returns the result record.

    The record's ``stages`` holds the seconds of the bandwidth scans
    (``operator.tune_s``, 0.0 when no bandwidth is "auto"), the operator
    build, the solve (``solver.direct_s`` or ``solver.min_norm_s``) and
    the CSV output.
    """
    start = time.perf_counter()
    cloud, coeffs, problem, debias = _build_cloud(config)
    shift, rhs = _build_system(config, cloud, problem)
    epsilon, tilde_epsilon, d_hat, pair_evals, tune_s = _resolve_bandwidths(config, cloud, coeffs)
    stages = {"operator.tune_s": tune_s}
    k = min(config.k, cloud.n_points)
    mark = time.perf_counter()
    gen = build_operator(cloud, coeffs, KernelConfig(epsilon, tilde_epsilon, k), debias=debias)
    lin = LinearProblem(gen, shift, rhs)
    stages["operator.build_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    if config.solver == "direct":
        report = solve_direct(lin)
    elif config.solver == "min_norm":
        report = solve_min_norm(lin)
    else:
        report = solve(lin)
    solver = "direct" if report.method == "direct" else "min_norm"
    stages[f"solver.{solver}_s"] = time.perf_counter() - mark

    u_true = problem.u(cloud.intrinsic) if problem is not None else None
    if u_true is not None:
        report = report.with_errors(u_true)

    mark = time.perf_counter()
    if config.output is not None:
        dim = cloud.ambient_dim
        header = [f"x{i + 1}" for i in range(dim)] + ["u_hat"]
        columns = [cloud.ambient[:, i] for i in range(dim)] + [report.u_hat]
        if u_true is not None:
            header += ["u_true", "abs_error"]
            columns += [u_true, np.abs(report.u_hat - u_true)]
        rows = [[_fmt(col[i]) for col in columns] for i in range(cloud.n_points)]
        _write_csv(config.output, header, rows)
    stages["cli.output_s"] = time.perf_counter() - mark

    record = dataclasses.asdict(config)
    record.update(
        {
            "N": cloud.n_points,
            "epsilon": epsilon,
            "tilde_epsilon": tilde_epsilon,
            "debias": debias,
            "solver": solver,
            "error_inf": report.error_inf,
            "error_l2": report.error_l2,
            "residual_inf": report.residual_inf,
            "iterations": report.iterations,
            "factor_nnz": report.factor_nnz,
            "d_hat": d_hat,
            "pair_evals": pair_evals,
            "stages": stages,
            "wall_time_seconds": time.perf_counter() - start,
        }
    )
    return record


def run_study(config: RunConfig, n_values, tuning: str = "oracle") -> dict:
    """Convergence study over N; writes CSV rows plus a slope summary row."""
    start = time.perf_counter()
    if config.is_cloud_file:
        raise ConfigError("studies need a zoo problem with analytic truth, not a cloud file")
    if len(n_values) < 4:
        raise ConfigError("study needs at least 4 values of N")
    study = convergence_study(
        config.problem,
        n_values,
        tuning=tuning,
        k=config.k,
        mode=config.mode,
        seed=config.seed,
        debias=config.debias,
    )
    if config.output is not None:
        rows = [
            [str(int(n)), _fmt(eps), _fmt(err)]
            for n, eps, err in zip(study.n_values, study.epsilons, study.errors_inf)
        ]
        rows.append(["slope", "", _fmt(study.fitted_slope)])
        _write_csv(config.output, ["N", "epsilon", "error_inf"], rows)
    record = dataclasses.asdict(config)
    record.update(
        {
            "N_values": [int(n) for n in study.n_values],
            "errors_inf": [float(e) for e in study.errors_inf],
            "epsilons": [float(e) for e in study.epsilons],
            "fitted_slope": study.fitted_slope,
            "tuning": tuning,
            "wall_time_seconds": time.perf_counter() - start,
        }
    )
    return record


def run_tune(config: RunConfig) -> dict:
    """Q(eps) bandwidth scan; writes (epsilon, Q, slope) rows plus the selection."""
    start = time.perf_counter()
    cloud, coeffs, _, _ = _build_cloud(config)
    report = tune_bandwidth(cloud, coeffs, default_epsilon_grid())
    if config.output is not None:
        rows = [
            [_fmt(eps), _fmt(np.exp(lq)), _fmt(sl)]
            for eps, lq, sl in zip(report.epsilon_grid, report.log_q, report.slope)
        ]
        rows.append(["epsilon_star", _fmt(report.epsilon_star), ""])
        rows.append(["d_hat", _fmt(report.d_hat), ""])
        _write_csv(config.output, ["epsilon", "Q", "slope"], rows)
    record = dataclasses.asdict(config)
    record.update(
        {
            "N": cloud.n_points,
            "epsilon_star": report.epsilon_star,
            "d_hat": report.d_hat,
            "pair_evals": report.pair_evals,
            "wall_time_seconds": time.perf_counter() - start,
        }
    )
    return record


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--problem", help="problem id or point-cloud file")
    parser.add_argument("--N", help="number of points")
    parser.add_argument("--mode", help="uniform_grid or iid_density")
    parser.add_argument("--seed", help="RNG seed for iid sampling")
    parser.add_argument("--k", help="number of nearest neighbors")
    parser.add_argument("--epsilon", help="kernel bandwidth or 'auto'")
    parser.add_argument("--tilde-epsilon", dest="tilde_epsilon", help="density bandwidth or 'auto'")
    parser.add_argument("--debias", help="true/false")
    parser.add_argument("--solver", help="direct, min_norm or auto")
    parser.add_argument("--shift-a", dest="shift_a", help="zeroth-order shift or 'problem-default'")
    parser.add_argument("--rhs", help="constant, values file, or 'problem'")
    parser.add_argument("--coefficients", help="per-point coefficient CSV")
    parser.add_argument("--output", help="output CSV path")


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for key in _SCHEMA:
        value = getattr(args, key, None)
        if value is None:
            continue
        if key in ("N", "seed", "k"):
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"config key {key!r} must be an integer, got {value!r}") from None
        elif key == "debias":
            value = _as_bool(key, value)
        elif key == "rhs":
            # a numeric flag value means a constant right-hand side; a file
            # literally named like a number can be passed as "./<name>"
            try:
                value = float(value)
            except ValueError:
                pass
        overrides[key] = value
    return overrides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lokpde",
        description="Mesh-free solver for elliptic PDEs of Kolmogorov type on point clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run one solve")
    _add_common_flags(p_solve)
    p_study = sub.add_parser("study", help="convergence study over N")
    _add_common_flags(p_study)
    p_study.add_argument("--N-values", dest="n_values", required=True,
                         help="comma-separated N list (at least 4)")
    p_study.add_argument("--tuning", default="oracle", choices=("oracle", "auto"))
    p_tune = sub.add_parser("tune", help="bandwidth scan")
    _add_common_flags(p_tune)
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config, _collect_overrides(args))
        if args.command == "solve":
            record = run_solve(config)
        elif args.command == "study":
            try:
                n_values = [int(tok) for tok in args.n_values.split(",") if tok.strip()]
            except ValueError:
                raise ConfigError(f"--N-values must be a comma-separated integer list, got {args.n_values!r}") from None
            record = run_study(config, n_values, tuning=args.tuning)
        else:
            record = run_tune(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: ``lokpde solve | study | tune``.

Runs are described by a JSON config (``--config``) whose keys can be
overridden by flags of the same name.  Every run resolves "auto" bandwidth
fields before solving and echoes the resolved values, writes RFC-4180 CSV
output, and prints one machine-readable JSON result record to stdout.

A key that a run does not read must stay at its default, and the record
leaves it out.  Each ``RunConfig`` field declares these runs as its skip:

- a study sizes, tunes and solves each zoo problem itself: N, epsilon,
  tilde_epsilon, shift_a, rhs, coefficients;
- a tune reads only the cloud and its coefficients: k, epsilon,
  tilde_epsilon, debias, shift_a, rhs;
- a zoo problem lifts its own coefficients: coefficients;
- a cloud file is read, not sampled: N, mode, seed.

A cloud file without coefficients runs the Laplace-Beltrami operator on
i.i.d. samples, which debiases: there ``debias`` must stay true.

Exit codes: 0 success; 1 usage or config error, including an input file
that cannot be read and a cloud that cannot be sampled; 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .geometry import CoefficientField, load_cloud, psd_eigenvalues, read_numeric_rows, sample_points
from .kernels import KernelConfig, build_knn_graph, pool_width, row_blocks
from .operator import build_operator, select_bandwidths, tune_bandwidth
from .problems import PROBLEM_IDS, analytic_pair, problem_coefficients
from .solver import LinearProblem, convergence_study, solve

__all__ = ["RunConfig", "ConfigError", "parse_config", "run_solve", "run_study", "run_tune", "main"]


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 1)."""


def _key(meaning, rule, default=dataclasses.MISSING, skip=()):
    # meaning: what the key holds; also the help of the flag --<key with - for _>
    # rule(key, value): the checked value, or a ConfigError naming the key
    # skip: the runs that do not read the key ("study", "tune", "zoo problem", "cloud file")
    return dataclasses.field(default=default, metadata={"help": meaning, "rule": rule, "skip": skip})


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
    except (TypeError, ValueError, OverflowError):  # OverflowError: a JSON Infinity
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
    except (ValueError, OverflowError):  # OverflowError: an int beyond the float range
        raise ConfigError(
            f"config key {key!r} must be a real number or one of {allowed}, got {value!r}"
        ) from None
    if not math.isfinite(out):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return out


def _problem(key, value):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"config key {key!r} must be a non-empty string, got {value!r}")
    return value


def _size(key, value):
    out = _as_int(key, value)
    if out < 2:
        raise ConfigError(f"config key {key!r} must be >= 2, got {out}")
    return out


def _size_or_null(key, value):
    return None if value is None else _size(key, value)


def _mode(key, value):
    if value not in ("uniform_grid", "iid_density"):
        raise ConfigError(f"config key {key!r} must be 'uniform_grid' or 'iid_density', got {value!r}")
    return value


def _bandwidth(key, value):
    out = _as_real_or(key, value, "auto")
    if isinstance(out, float) and out <= 0:
        raise ConfigError(f"config key {key!r} must be positive, got {out}")
    return out


def _shift(key, value):
    # a > 0 is checked by the solve, the only run that reads the shift
    return _as_real_or(key, value, "problem-default")


def _rhs(key, value):
    # a bool is an int; taken as a path, open(True) would read fd 1
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"config key {key!r} must be a real, a file path, or 'problem', got {value!r}")
    return value if isinstance(value, str) else _as_real_or(key, value)


def _path_or_null(key, value):
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"config key {key!r} must be a path or null, got {value!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """One run's settings: each field is a config key and a ``--<key>`` flag."""

    problem: str = _key("problem id or point-cloud file path (string)", _problem)
    N: int | None = _key("positive integer >= 2", _size_or_null, None, ("study", "cloud file"))
    mode: str = _key('"uniform_grid" or "iid_density"', _mode, "uniform_grid", ("cloud file",))
    seed: int = _key("integer", _as_int, 0, ("cloud file",))
    k: int = _key("integer >= 2", _size, 128, ("tune",))
    epsilon: float | str = _key('positive real or "auto"', _bandwidth, "auto", ("study", "tune"))
    tilde_epsilon: float | str = _key('positive real or "auto"', _bandwidth, "auto", ("study", "tune"))
    debias: bool = _key("boolean", _as_bool, True, ("tune",))
    shift_a: float | str = _key('real <= 0 or "problem-default"', _shift, "problem-default", ("study", "tune"))
    rhs: float | str = _key('real, values-file path, or "problem"', _rhs, "problem", ("study", "tune"))
    coefficients: str | None = _key(
        "per-point coefficient CSV path or null", _path_or_null, None, ("study", "zoo problem")
    )
    output: str | None = _key("output file path or null", _path_or_null, None)

    @property
    def is_cloud_file(self) -> bool:
        return self.problem not in PROBLEM_IDS


_SCHEMA = {f.name: f.metadata["help"] for f in dataclasses.fields(RunConfig)}


def validate_config(raw: dict) -> RunConfig:
    """Validate a raw key/value mapping into a RunConfig.

    Unknown keys are rejected by name; each other key, or its default, goes
    through its field's rule, in field order and ``problem`` last.  "auto"
    bandwidths stay symbolic here and are resolved at run time.
    """
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
    problem, *keys = dataclasses.fields(RunConfig)
    checked = {f.name: f.metadata["rule"](f.name, raw.get(f.name, f.default)) for f in keys}
    if "problem" not in raw:
        raise ConfigError("config key 'problem' is required")
    return RunConfig(problem.metadata["rule"]("problem", raw["problem"]), **checked)


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Load a JSON config file and/or inline overrides into a RunConfig."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path!r} must hold a JSON object")
        raw.update(loaded)
    if overrides:
        raw.update(overrides)
    return validate_config(raw)


def _read_rows(path, **fmt):
    """The rows of :func:`read_numeric_rows`; an unreadable file or a bad
    token is a ConfigError."""
    try:
        yield from read_numeric_rows(path, **fmt)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_coefficient_file(path: str, n_points: int, ambient_dim: int) -> CoefficientField:
    """Per-point ambient coefficients from CSV: index, B, C^-1 upper triangle.

    An optional header line is skipped.  A bad token, a malformed row, a
    missing or repeated index and a C^-1 that ``CoefficientField`` rejects
    as not positive semidefinite are ConfigErrors naming the line.
    """
    n_tri = ambient_dim * (ambient_dim + 1) // 2
    drift = np.zeros((n_points, ambient_dim))
    diff_inv = np.zeros((n_points, ambient_dim, ambient_dim))
    line_of = np.zeros(n_points, dtype=int)
    iu = np.triu_indices(ambient_dim)
    for lineno, values in _read_rows(path, sep=",", header=True):
        if len(values) != 1 + ambient_dim + n_tri:
            raise ConfigError(
                f"{path}: line {lineno}: expected {1 + ambient_dim + n_tri} columns, got {len(values)}"
            )
        if not values[0].is_integer():
            raise ConfigError(f"{path}: line {lineno}: point index '{values[0]}' is not an integer")
        idx = int(values[0])
        if not 0 <= idx < n_points:
            raise ConfigError(f"{path}: line {lineno}: point index {idx} out of range")
        if line_of[idx]:
            raise ConfigError(
                f"{path}: line {lineno}: point index {idx} already given on line {line_of[idx]}"
            )
        line_of[idx] = lineno
        drift[idx] = values[1 : 1 + ambient_dim]
        diff_inv[idx][iu] = diff_inv[idx].T[iu] = values[1 + ambient_dim :]
    if not line_of.all():
        raise ConfigError(f"{path}: no coefficient row for point index {int(np.argmin(line_of))}")
    try:
        return CoefficientField(drift, diff_inv)
    except ValueError:  # the rows are finite, so C^-1 is indefinite somewhere
        eig, bad = psd_eigenvalues(diff_inv)
        raise ConfigError(
            f"{path}: line {line_of[bad]}: C^-1 for point index {bad} is not positive "
            f"semidefinite (eigenvalue {float(eig[bad, 0])!r})"
        ) from None


def _load_rhs(rhs, n_points: int, path_hint: str) -> np.ndarray:
    if isinstance(rhs, float):
        return np.full(n_points, rhs)
    values = []
    for lineno, row in _read_rows(rhs):
        if len(row) != 1:
            raise ConfigError(f"{rhs}: line {lineno}: expected one value per line")
        values.append(row[0])
    if len(values) != n_points:
        raise ConfigError(f"{rhs}: got {len(values)} values for {n_points} points ({path_hint})")
    return np.array(values)


def _build_cloud(config: RunConfig):
    """Resolve a config into (cloud, coeffs, problem-or-None)."""
    if config.is_cloud_file:
        if config.coefficients is None and not config.debias:
            raise ConfigError(
                f"config key 'debias' must be true for a cloud file without coefficients, got {config.debias!r}"
            )
        try:
            cloud = load_cloud(config.problem)
            n, dim = cloud.n_points, cloud.ambient_dim
            if config.coefficients is None:
                return cloud, CoefficientField.laplace_beltrami(n, dim), None
            return cloud, load_coefficient_file(config.coefficients, n, dim), None
        except (OSError, ValueError) as exc:  # an unreadable or malformed input file
            raise ConfigError(str(exc)) from exc
    problem = analytic_pair(config.problem)
    if config.N is None:
        raise ConfigError(f"config key 'N' is required for zoo problem {config.problem!r}")
    try:
        cloud = sample_points(problem.manifold, config.N, config.mode, config.seed)
    except ValueError as exc:  # an N the grid cannot take, or a seed numpy rejects
        raise ConfigError(str(exc)) from exc
    return cloud, problem_coefficients(problem, cloud), problem


def _build_system(config: RunConfig, cloud, problem):
    """Resolve the shift vector a and right-hand side f for a solve."""
    n = cloud.n_points
    if config.shift_a == "problem-default":
        shift = np.zeros(n) if problem is None else problem.shift(cloud.intrinsic)
    elif config.shift_a > 0:
        # a + L with a > 0 somewhere is neither route's regime (a < 0 or a <= 0)
        raise ConfigError(f"config key 'shift_a' must be <= 0, got {config.shift_a!r}")
    else:
        shift = np.full(n, config.shift_a)
    if config.rhs != "problem":
        rhs = _load_rhs(config.rhs, n, config.problem)
    elif problem is None:
        raise ConfigError("point-cloud runs need an explicit 'rhs' (constant or values file)")
    else:
        rhs = problem.f(cloud.intrinsic)
    return shift, rhs


def _output(config: RunConfig):
    """The ``output`` file, opened for writing before any numerics run, or
    a null context without one; a path that cannot be opened is a
    ConfigError."""
    if config.output is None:
        return contextlib.nullcontext()
    try:
        return open(config.output, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"config key 'output' cannot be written: {exc}") from exc


def _write_csv(fh, header, rows) -> None:
    writer = csv.writer(fh)  # RFC-4180: CRLF line terminator
    writer.writerow(header)
    writer.writerows(rows)


def _fmt(value) -> str:
    # repr gives the shortest decimal that round-trips the double exactly
    return repr(float(value))


def run_solve(config: RunConfig) -> dict:
    """Full pipeline for one solve; returns the result record.

    The record's ``stages`` holds the seconds of the bandwidth scans
    (``operator.tune_s``, 0.0 when no bandwidth is "auto"), the kNN search
    (``kernels.knn_s``), the rest of the operator build, the solve
    (``solver.direct_s`` or ``solver.min_norm_s``, as the record's
    ``solver`` names the route :func:`solve` took) and the CSV output;
    ``workers`` is their pool width and ``peak_rss_mb`` the peak RSS so far.
    ``nnz`` counts S's links, the entries it stores (those above float64
    eps).  ``coarse_size`` is the order of the GMRES solve's coarse level
    (the number of aggregates of its preconditioner), null where no
    Krylov solve runs.  ``residual_inf`` is the uniform residual of a
    direct run and, on a ``min_norm`` run, the least-squares 2-norm
    |f - (a + L) u|_2, which includes f's component outside the range
    (19.79 for a converged ``--rhs 1`` solve at a = 0 on a 400-point
    sphere cloud).  The ``output`` file is opened before any numerics run.
    """
    import resource  # loaded by a solve, not by the import of the CLI
    start = time.perf_counter()
    record = _record(config, "solve")
    with _output(config) as out:
        cloud, coeffs, problem = _build_cloud(config)
        shift, rhs = _build_system(config, cloud, problem)
        mark = time.perf_counter()
        epsilon, tilde_epsilon, d_hat, pair_evals = select_bandwidths(
            cloud, coeffs, config.epsilon, config.tilde_epsilon
        )
        stages = {"operator.tune_s": 0.0 if pair_evals is None else time.perf_counter() - mark}
        k = min(config.k, cloud.n_points)
        mark = time.perf_counter()
        neighbors = [build_knn_graph(cloud, k)]
        stages["kernels.knn_s"] = time.perf_counter() - mark

        mark = time.perf_counter()
        cfg = KernelConfig(epsilon, tilde_epsilon, k)
        # popped, so that build_operator holds the only reference and can drop d2 and the indices early
        gen = build_operator(cloud, coeffs, cfg, debias=config.debias, neighbors=neighbors.pop())
        lin = LinearProblem(gen, shift, rhs)
        stages["operator.build_s"] = time.perf_counter() - mark

        mark = time.perf_counter()
        report = solve(lin)
        solver = "direct" if report.method == "direct" else "min_norm"
        stages[f"solver.{solver}_s"] = time.perf_counter() - mark

        u_true = problem.u(cloud.intrinsic) if problem is not None else None
        if u_true is not None:
            report = report.with_errors(u_true)

        mark = time.perf_counter()
        if out is not None:
            dim = cloud.ambient_dim
            header = [f"x{i + 1}" for i in range(dim)] + ["u_hat"]
            columns = [cloud.ambient[:, i] for i in range(dim)] + [report.u_hat]
            if u_true is not None:
                header += ["u_true", "abs_error"]
                columns += [u_true, np.abs(report.u_hat - u_true)]
            # a block's rows at a time: one N-row tolist() held 1.9 MB of floats on the paper torus
            blocks = (np.column_stack([c[b] for c in columns]).tolist() for b in row_blocks(cloud.n_points, 256))
            _write_csv(out, header, (map(repr, row) for block in blocks for row in block))
        stages["cli.output_s"] = time.perf_counter() - mark

    record.update(
        {
            "N": cloud.n_points,
            "k": k,
            "epsilon": epsilon,
            "tilde_epsilon": tilde_epsilon,
            "solver": solver,
            "error_inf": report.error_inf,
            "error_l2": report.error_l2,
            "residual_inf": report.residual_inf,
            "iterations": report.iterations,
            "nnz": int(gen.s_matrix.nnz),
            "coarse_size": report.coarse_size,
            "d_hat": d_hat,
            "pair_evals": pair_evals,
            "stages": stages,
            "workers": pool_width(),
            "wall_time_seconds": time.perf_counter() - start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
        }
    )
    return record


def _record(config: RunConfig, command: str) -> dict:
    """The config without the keys that ``command`` on this kind of problem
    does not read; such a key off its default is a ConfigError."""
    runs = (command, "cloud file" if config.is_cloud_file else "zoo problem")
    record = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        skipped_by = [run for run in runs if run in f.metadata["skip"]]
        if not skipped_by:
            record[f.name] = value
        elif value != f.default:
            raise ConfigError(f"config key {f.name!r} does not apply to a {skipped_by[0]}, got {value!r}")
    return record


def run_study(config: RunConfig, n_values, tuning: str = "oracle") -> dict:
    """Convergence study over N; writes CSV rows plus a slope summary row.
    A key a study does not read, off its default, is a ConfigError, and so is
    an ``n_values`` of fewer than 4 sizes, a size below 2 or a non-increasing
    order.  The ``output`` file is opened before the first solve."""
    start = time.perf_counter()
    if config.is_cloud_file:
        raise ConfigError("studies need a zoo problem with analytic truth, not a cloud file")
    record = _record(config, "study")
    n_values = [_size("N", n) for n in n_values]
    if len(n_values) < 4:
        raise ConfigError("study needs at least 4 values of N")
    if any(later <= earlier for earlier, later in zip(n_values, n_values[1:])):
        raise ConfigError("N values must be strictly increasing")
    with _output(config) as out:
        study = convergence_study(
            config.problem,
            n_values,
            tuning=tuning,
            k=config.k,
            mode=config.mode,
            seed=config.seed,
            debias=config.debias,
        )
        if out is not None:
            rows = [
                [str(int(n)), _fmt(eps), _fmt(err)]
                for n, eps, err in zip(study.n_values, study.epsilons, study.errors_inf)
            ]
            rows.append(["slope", "", _fmt(study.fitted_slope)])
            _write_csv(out, ["N", "epsilon", "error_inf"], rows)
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
    """Q(eps) bandwidth scan; writes (epsilon, Q, slope) rows plus the selection.
    A key a tune does not read, off its default, is a ConfigError.  The
    ``output`` file is opened before the scan."""
    start = time.perf_counter()
    record = _record(config, "tune")
    with _output(config) as out:
        cloud, coeffs, _ = _build_cloud(config)
        report = tune_bandwidth(cloud, coeffs)
        if out is not None:
            rows = [
                [_fmt(eps), _fmt(np.exp(lq)), _fmt(sl)]
                for eps, lq, sl in zip(report.epsilon_grid, report.log_q, report.slope)
            ]
            rows.append(["epsilon_star", _fmt(report.epsilon_star), ""])
            rows.append(["d_hat", _fmt(report.d_hat), ""])
            _write_csv(out, ["epsilon", "Q", "slope"], rows)
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
    for key, meaning in _SCHEMA.items():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, help=meaning)


def _collect_overrides(args: argparse.Namespace) -> dict:
    """The flags given, as strings for :func:`validate_config` to coerce.

    A numeric ``--rhs`` means a constant right-hand side; a file literally
    named like a number can be passed as "./<name>".
    """
    overrides = {key: getattr(args, key) for key in _SCHEMA if getattr(args, key) is not None}
    try:
        overrides["rhs"] = float(overrides["rhs"])
    except (KeyError, ValueError):
        pass
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

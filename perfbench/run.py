"""Benchmark of ``lokpde solve``: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each solve is a fresh process (``child.py``) that imports lokpde from
``src/`` and calls ``lokpde.cli.main([...])``; the next one starts only
after the previous one has exited.  Solves repeat until ``--seconds`` have
passed (at least ``MIN_SOLVES``).  Every output CSV is checked against an
analytic truth computed here from the written coordinates.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced solves and reports the per-layer metrics: self time
of the spans of each layer (see ``tracer.py``), counters read at the
layer boundaries, and the tracing overhead.  The spans of a traced run
are written to ``.perfbench_runs/`` when it ends.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when a solve
failed its check and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import TRACED, layer_times, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RUNS_DIR = ROOT / ".perfbench_runs"

SETUP_PROBES = 2     # import-only processes per run, for the set-up median
MIN_SOLVES = 2       # a traced run needs one untraced and one traced solve
RUN_LIMIT_S = 150.0  # start no solve that would likely end after this
DIRECT_RESIDUAL_RTOL = 1e-10  # solve_direct's relative residual contract
RECORD_ERROR_ATOL = 1e-9      # CSV-recomputed error vs the record's error_inf
# The sphere workload solves criterion 7's cloud, sample_sphere(3000, 7), in
# an order drawn from the seed.  Fresh i.i.d. clouds are not used: their
# error_inf ranges 0.025-0.055 over seeds 0-39 (3 of 40 above the 0.05 gate),
# a spread no bound of this benchmark could hold (see README.md).
SPHERE_CLOUD_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # zoo problem id, or "sphere" for the i.i.d. cloud file
    n_points: int
    flags: tuple[str, ...]
    max_error: float | None  # gate on error_inf
    selection: tuple[float, float] | None = None  # expected auto (epsilon, tilde_epsilon)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("torus_fixed", "torus", 6400,
                 ("--k", "128", "--epsilon", "0.0024", "--tilde-epsilon", "0.0179"), 0.016),
        Workload("ellipse_fixed", "ellipse", 1000,
                 ("--k", "200", "--epsilon", "1e-4", "--tilde-epsilon", "1e-4"), 0.01),
        Workload("half_torus_auto", "half_torus", 3200, (), None, (2.0**-5, 2.0**-1)),
        Workload("sphere_cloud_direct", "sphere", 3000,
                 ("--k", "400", "--epsilon", "0.015", "--tilde-epsilon", "0.01", "--shift-a", "-1"),
                 0.05),
    )
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "error_inf": "1"}
COUNTER_UNITS = {
    "kernels.nnz": "count",
    "operator.tune_pair_evals": "count",
    "operator.epsilon_star": "1",
    "operator.d_hat": "1",
    "solver.iterations": "count",
    "solver.residual": "1",
}
UNITS = {
    **END_TO_END_UNITS,
    **{name: "s" for name in TRACED.values()},
    **COUNTER_UNITS,
    "trace.wall_s": "s",
    "trace.unspanned_s": "s",
    "trace.overhead_s": "s",
}


def true_solution(problem: str, x: np.ndarray) -> np.ndarray:
    """Analytic u from ambient coordinates (independent of lokpde.problems)."""
    if problem == "ellipse":  # (cos t, 2 sin t), u = cos t
        return x[:, 0]
    rho2 = x[:, 0] ** 2 + x[:, 1] ** 2
    if problem == "torus":  # u = sin(theta) sin(2 phi)
        return x[:, 2] * 2.0 * x[:, 0] * x[:, 1] / rho2
    if problem == "half_torus":  # u = sin(theta) cos(2 phi)
        return x[:, 2] * (x[:, 0] ** 2 - x[:, 1] ** 2) / rho2
    if problem == "sphere":  # Laplace-Beltrami: (-1 + Delta) x1 x2 = -7 x1 x2
        return x[:, 0] * x[:, 1]
    raise ValueError(f"no analytic truth for {problem!r}")


def sphere_cloud(n_points: int, seed: int) -> np.ndarray:
    """Criterion 7's i.i.d. cloud on S^2, its rows permuted by ``seed``.

    The points are drawn as lokpde's ``sample_sphere(n_points, 7)`` draws
    them; the operator is permutation-equivariant, so every seed has the
    same error and a different input file (and LU ordering).
    """
    g = np.random.default_rng(SPHERE_CLOUD_SEED).standard_normal((n_points, 3))
    cloud = g / np.linalg.norm(g, axis=1, keepdims=True)
    return cloud[np.random.default_rng(seed).permutation(n_points)]


def prepare(w: Workload, seed: int, workdir: Path) -> tuple[list[str], np.ndarray | None]:
    """Write the inputs; return the CLI argv and the cloud (sphere only)."""
    out = ["--output", str(workdir / "u.csv")]
    if w.problem != "sphere":
        # zoo problems run on the paper's uniform grids, which ignore the seed
        return ["solve", "--problem", w.problem, "--N", str(w.n_points), *w.flags, *out], None
    cloud = sphere_cloud(w.n_points, seed)
    np.savetxt(workdir / "cloud.txt", cloud, fmt="%.17g")
    np.savetxt(workdir / "rhs.txt", -7.0 * cloud[:, 0] * cloud[:, 1], fmt="%.17g")
    argv = ["solve", "--problem", str(workdir / "cloud.txt"),
            "--rhs", str(workdir / "rhs.txt"), *w.flags, *out]
    return argv, cloud


def spawn(argv: list[str] | None, traced: bool, workdir: Path, timeout: float) -> dict:
    """Run one child process to completion and return its JSON report."""
    job = workdir / "job.json"
    job.write_text(json.dumps({"argv": argv, "trace": traced}))
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), repr(spawned_at), str(job)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"failure": f"no exit within {timeout:.0f} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"failure": f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    report = json.loads(lines[-1])
    if argv is not None and report["exit_code"] != 0:
        report["failure"] = f"lokpde exit {report['exit_code']}: {proc.stderr.strip()[-500:]}"
    return report


def read_output(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates and u_hat from the solve's output CSV."""
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    x_cols = [i for i, name in enumerate(header) if name.startswith("x")]
    return data[:, x_cols], data[:, header.index("u_hat")]


def check(w: Workload, report: dict, csv_path: Path, cloud: np.ndarray | None):
    """Correctness gate for one solve: (error_inf, None) or (None, reason)."""
    if "failure" in report:
        return None, report["failure"]
    record = report["record"]
    try:
        x, u_hat = read_output(csv_path)
    except (OSError, ValueError) as exc:
        return None, f"unreadable output CSV: {exc}"
    if x.shape[0] != w.n_points or not np.isfinite(u_hat).all():
        return None, f"output has {x.shape[0]} rows or non-finite u_hat"
    if cloud is not None and not np.array_equal(x, cloud):
        return None, "output coordinates differ from the input cloud"
    error = float(np.abs(u_hat - true_solution(w.problem, x)).max())
    if cloud is None and abs(error - record["error_inf"]) > RECORD_ERROR_ATOL:
        return None, f"error_inf {error!r} from the CSV, {record['error_inf']!r} in the record"
    if w.max_error is not None and error > w.max_error:
        return None, f"error_inf {error:.4g} > {w.max_error}"
    if w.selection is not None:
        chosen = (record["epsilon"], record["tilde_epsilon"])
        if chosen != w.selection:
            return None, f"auto selected (epsilon, tilde_epsilon) = {chosen}, expected {w.selection}"
    if cloud is not None:
        f_scale = 7.0 * float(np.abs(cloud[:, 0] * cloud[:, 1]).max())
        if record["residual_inf"] > DIRECT_RESIDUAL_RTOL * f_scale:
            return None, f"residual {record['residual_inf']:.3e} above the direct-solve contract"
    return error, None


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer values of one traced solve."""
    spans = report["spans"]
    record = report["record"]
    out = layer_times(spans)
    out["kernels.nnz"] = sum(s.get("nnz", 0) for s in spans)
    out["operator.tune_pair_evals"] = sum(s.get("pair_evals", 0) for s in spans)
    out["operator.epsilon_star"] = record["epsilon"]
    out["operator.d_hat"] = record["d_hat"] or 0.0
    out["solver.iterations"] = record["iterations"] or 0
    out["solver.residual"] = record["residual_inf"]
    out["trace.wall_s"] = report["wall_s"]
    out["trace.unspanned_s"] = report["wall_s"] - sum(self_times(spans))
    return out


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: set-up probes, then solves until ``seconds`` pass.

    Returns ``attempted``, ``failed``, the failure reasons, the end-to-end
    metrics (untraced solves) and, when ``trace``, the per-layer metrics
    and the spans of every traced solve.
    """
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=RUNS_DIR))
    try:
        argv, cloud = prepare(w, seed, workdir)
        started = time.monotonic()
        setups, plain, traced, failures = [], [], [], []
        for _ in range(SETUP_PROBES):
            probe = spawn(None, False, workdir, RUN_LIMIT_S)
            if "failure" in probe:
                raise RuntimeError(f"set-up probe failed: {probe['failure']}")
            setups.append(probe["setup_s"])
        attempted, last = 0, 0.0
        while attempted < MIN_SOLVES or time.monotonic() - started < seconds:
            elapsed = time.monotonic() - started
            if attempted and elapsed + last > RUN_LIMIT_S:
                break
            is_traced = trace and attempted % 2 == 1
            (workdir / "u.csv").unlink(missing_ok=True)
            t0 = time.monotonic()
            report = spawn(argv, is_traced, workdir, RUN_LIMIT_S + 20.0 - elapsed)
            last = time.monotonic() - t0
            attempted += 1
            error, reason = check(w, report, workdir / "u.csv", cloud)
            if reason is not None:
                failures.append(reason)
                continue
            report["error_inf"] = error
            setups.append(report["setup_s"])
            (traced if is_traced else plain).append(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"attempted": attempted, "failed": len(failures), "failures": failures}
    if plain:
        result["end_to_end"] = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "error_inf": statistics.median(r["error_inf"] for r in plain),
        }
    if traced and plain:
        per_solve = [layer_metrics(r) for r in traced]
        layers = {key: statistics.median(m[key] for m in per_solve) for key in per_solve[0]}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - result["end_to_end"]["wall_s"]
        result["per_layer"] = layers
        result["spans"] = [r["spans"] for r in traced]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lokpde" / "cli.py").is_file():
        print(f"error: no lokpde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    result = run_workload(w, args.seed, args.seconds, bool(args.trace))
    for reason in result["failures"]:
        print(f"{w.name}: FAILED: {reason}", file=sys.stderr)
    metrics = result.get("per_layer" if args.trace else "end_to_end", {})
    if args.trace and "spans" in result:
        path = RUNS_DIR / f"trace-{w.name}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": w.name, "seed": args.seed, "solves": result["spans"]}))
    for name, value in metrics.items():
        print(f"{w.name} {name} = {value!r} {UNITS[name]}")
    correct = result["failed"] == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload, untraced and traced, and print one table per workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--out DIR]

``--seconds`` defaults to the ``run_seconds`` of BENCHMARK.json.

Prints each end-to-end metric (from the untraced run) and each per-layer
metric with its share of the traced wall time (from the traced run), by
name and unit.  With ``--out`` it also writes ``results.json`` (metrics,
spans excluded, plus the environment) and ``results.md`` (the same tables)
into DIR.  Exits 1 when any solve fails its correctness check.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from run import ROOT, UNITS, WORKLOADS, run_workload


def blas_environment() -> dict:
    """numpy's BLAS build and the thread count its OpenBLAS reports."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": config.get("name"), "version": config.get("version")}
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs_dir / "*openblas*.so*")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                info["threads"] = getattr(dll, symbol)()
                info["library"] = os.path.basename(lib)
                break
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        info[var] = os.environ.get(var)
    return info


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_environment(),
    }


def table(name: str, result: dict) -> list[str]:
    lines = [f"### {name}", "",
             f"attempted {result['attempted']}, failed {result['failed']}", "",
             "| metric | value | unit | share of traced wall |", "|---|---|---|---|"]
    traced_wall = result.get("per_layer", {}).get("trace.wall_s")
    for section in ("end_to_end", "per_layer"):
        for metric, value in result.get(section, {}).items():
            share = ""
            if traced_wall and section == "per_layer" and UNITS[metric] == "s" \
                    and not metric.startswith("trace."):
                share = f"{100.0 * value / traced_wall:.1f} %"
            lines.append(f"| {metric} | {value:.6g} | {UNITS[metric]} | {share} |")
    return lines + [""]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    results, lines, failed = {}, [], 0
    for name, w in WORKLOADS.items():
        untraced = run_workload(w, args.seed, args.seconds, trace=False)
        traced = run_workload(w, args.seed, args.seconds, trace=True)
        result = {
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "failures": untraced["failures"] + traced["failures"],
            "end_to_end": untraced.get("end_to_end", {}),
            "per_layer": traced.get("per_layer", {}),
        }
        for reason in result["failures"]:
            print(f"{name}: FAILED: {reason}", file=sys.stderr)
        failed += result["failed"]
        results[name] = result
        rows = table(name, result)
        lines += rows
        print("\n".join(rows), flush=True)

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        record = {"seed": args.seed, "seconds": args.seconds,
                  "environment": environment(), "workloads": results}
        (args.out / "results.json").write_text(json.dumps(record, indent=1) + "\n")
        env = json.dumps(record["environment"])
        (args.out / "results.md").write_text(
            f"seed {args.seed}, {args.seconds:g} s per run; environment: `{env}`\n\n"
            + "\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

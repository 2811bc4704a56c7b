"""Span tracing of lokpde's public functions, installed from outside.

``Tracer.install()`` replaces each function in ``TRACED`` with a timing
wrapper on every loaded ``lokpde`` module that references it, so calls
between modules (``build_operator`` -> ``build_knn_graph``) and calls
inside one module (``tune_gaussian_bandwidth`` -> ``tune_bandwidth``) are
both spanned.  Spans are kept in memory; the caller writes them out when
the run ends.  Nothing in ``src/`` is changed: the wrapping lives only in
the process that installs it.
"""

from __future__ import annotations

import functools
import sys
import time

# (defining module, function name) -> layer metric its self time adds to
TRACED = {
    ("geometry", "sample_points"): "geometry.sample_s",
    ("geometry", "load_cloud"): "geometry.load_cloud_s",
    ("geometry", "lift_field"): "geometry.lift_s",
    ("problems", "problem_coefficients"): "geometry.lift_s",
    ("kernels", "build_knn_graph"): "kernels.knn_s",
    ("kernels", "assemble_kernel_matrix"): "kernels.assemble_s",
    ("operator", "estimate_density"): "operator.density_s",
    ("operator", "right_normalize"): "operator.normalize_s",
    ("operator", "left_normalize"): "operator.normalize_s",
    ("operator", "build_operator"): "operator.build_self_s",
    ("operator", "tune_bandwidth"): "operator.tune_s",
    ("operator", "tune_gaussian_bandwidth"): "operator.tune_s",
    ("solver", "solve_direct"): "solver.direct_s",
    ("solver", "solve_min_norm"): "solver.min_norm_s",
    ("cli", "run_solve"): "cli.self_s",
}


def _nnz(args, result):
    return {"nnz": int(result.matrix.nnz)}


def _pair_evals(args, result):
    # one scan evaluates the kernel on every (grid point, i, j) triple
    n = args[0].n_points
    return {"pair_evals": int(result.epsilon_grid.size) * n * n}


# counters read at the same boundary as the span, from arguments and result
COUNTERS = {
    "assemble_kernel_matrix": _nnz,
    "tune_bandwidth": _pair_evals,
}


class Tracer:
    """In-memory span recorder: name, start, end, parent index, counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.update(counter(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function on every loaded lokpde module."""
        modules = [m for key, m in sys.modules.items() if key == "lokpde" or key.startswith("lokpde.")]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"lokpde.{module_name}"], fn_name)
            wrapper = self.wrap(fn_name, original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_times(spans: list[dict]) -> dict[str, float]:
    """Sum of span self times per layer metric (0.0 for layers not entered)."""
    out = dict.fromkeys(TRACED.values(), 0.0)
    by_name = {fn: metric for (_, fn), metric in TRACED.items()}
    for span, own in zip(spans, self_times(spans)):
        out[by_name[span["name"]]] += own
    return out

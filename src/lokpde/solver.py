"""Linear solves for (a + L) u = f and convergence experiments.

Two routes, matching the two well-posedness regimes:

* ``solve_direct`` for strictly negative a: the scaled system
  (1 - eps a) I - S is strictly diagonally dominant, hence nonsingular with
  inf-norm inverse bounded by 1/min(-a), so a sparse LU factorization is
  stable and the residual contract is tight.
* ``solve_min_norm`` for a = 0 (singular generator): the unique minimum-norm
  least-squares solution, by LSQR from the zero vector with iterative
  refinement (corrections stay in the row space, preserving orthogonality
  to the nullspace), cross-checkable against a truncated-SVD pseudo-inverse
  for moderate N.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .geometry import sample_points
from .kernels import KernelConfig, build_knn_graph
from .operator import GeneratorMatrix, build_operator, tune_bandwidth, tune_gaussian_bandwidth
from .problems import analytic_pair, problem_coefficients

__all__ = [
    "LinearProblem",
    "SolveReport",
    "ConvergenceStudy",
    "EpsilonSweep",
    "MinNormConvergenceError",
    "DirectSolveError",
    "ConvergenceStudyError",
    "solve_direct",
    "solve_min_norm",
    "error_report",
    "best_shift_error",
    "check_minimum_norm_certificate",
    "oracle_epsilon",
    "convergence_study",
    "epsilon_sweep",
]

DIRECT_RESIDUAL_RTOL = 1e-10
SVD_TRUNCATION_RTOL = 1e-8
SVD_MAX_N = 3000


class DirectSolveError(RuntimeError):
    """Direct factorization failed the residual contract."""

    def __init__(self, message, residual_inf):
        super().__init__(message)
        self.residual_inf = residual_inf


class MinNormConvergenceError(RuntimeError):
    """LSQR did not reach tolerance within the iteration cap."""

    def __init__(self, message, best_u, residual):
        super().__init__(message)
        self.best_u = best_u
        self.residual = residual


class ConvergenceStudyError(RuntimeError):
    """A study sub-run failed; completed rows are attached."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class LinearProblem:
    """(diag(a) + L) u = f on the nodes of a generator matrix."""

    generator: GeneratorMatrix
    shift: np.ndarray  # a(x_i); the zero vector selects the singular regime
    rhs: np.ndarray    # f(x_i)

    def __post_init__(self):
        a = np.asarray(self.shift, dtype=float)
        f = np.asarray(self.rhs, dtype=float)
        object.__setattr__(self, "shift", a)
        object.__setattr__(self, "rhs", f)
        n = self.generator.n_points
        if a.shape != (n,) or f.shape != (n,):
            raise ValueError("shift and rhs must be N-vectors matching the generator")
        if not (np.isfinite(a).all() and np.isfinite(f).all()):
            raise ValueError("shift and rhs must be finite")


@dataclass(frozen=True)
class SolveReport:
    """Solution vector plus residual/error diagnostics.

    ``residual_inf`` is the uniform residual for the direct method and the
    least-squares residual 2-norm for the minimum-norm method.  Error
    fields are filled by :meth:`with_errors` when an analytic truth is
    available; ``error_inf_best_shift`` additionally minimizes the uniform
    error over an added constant (the solution family of the singular
    problem).
    """

    u_hat: np.ndarray
    method: str
    residual_inf: float
    iterations: int | None = None
    error_inf: float | None = None
    error_l2: float | None = None
    error_inf_best_shift: float | None = None
    epsilon_used: float | None = None
    tilde_epsilon_used: float | None = None

    def with_errors(self, u_true: np.ndarray) -> "SolveReport":
        inf_err, l2_err = error_report(self.u_hat, u_true)
        return dataclasses.replace(
            self,
            error_inf=inf_err,
            error_l2=l2_err,
            error_inf_best_shift=best_shift_error(self.u_hat, u_true),
        )


def solve_direct(problem: LinearProblem) -> SolveReport:
    """Sparse LU solve of (diag(a) + L) u = f for strictly negative a.

    Iterative refinement with the retained factors enforces a relative
    uniform residual of at most 1e-10.
    """
    a, f = problem.shift, problem.rhs
    if a.max() >= 0:
        raise ValueError(
            "direct solve requires max(a) < 0 (strict diagonal dominance); "
            "use solve_min_norm for the singular case"
        )
    A = problem.generator.shifted_matrix(a).tocsc()
    lu = scipy.sparse.linalg.splu(A)
    u = lu.solve(f)
    f_scale = max(float(np.abs(f).max()), np.finfo(float).tiny)
    residual = f - A @ u
    for _ in range(3):
        if np.abs(residual).max() <= DIRECT_RESIDUAL_RTOL * f_scale:
            break
        u = u + lu.solve(residual)
        residual = f - A @ u
    res_inf = float(np.abs(residual).max())
    if res_inf > DIRECT_RESIDUAL_RTOL * f_scale:
        raise DirectSolveError(
            f"direct solve stalled at relative residual {res_inf / f_scale:.3e}", res_inf
        )
    return SolveReport(u, "direct", res_inf, epsilon_used=problem.generator.epsilon)


def _lsqr_min_norm(A, f, tol, iter_cap):
    """LSQR from zero with refinement; returns (u, total_iterations).

    Each correction is itself an LSQR solve from zero, so every iterate
    lies in the row space of A and the limit is the minimum-norm
    least-squares solution.  Stops when the correction is below ``tol``
    relative to the iterate.
    """
    n = A.shape[1]
    u = np.zeros(n)
    residual = f.copy()
    total_itn = 0
    for _ in range(12):
        remaining = iter_cap - total_itn
        if remaining <= 0:
            raise MinNormConvergenceError(
                f"minimum-norm solve exceeded the iteration cap {iter_cap}",
                u,
                float(np.linalg.norm(residual)),
            )
        result = scipy.sparse.linalg.lsqr(
            A, residual, atol=tol, btol=tol, conlim=0.0, iter_lim=remaining
        )
        delta, itn = result[0], result[2]
        total_itn += itn
        u = u + delta
        residual = f - A @ u
        if np.linalg.norm(delta) <= tol * max(np.linalg.norm(u), 1.0):
            return u, total_itn
    raise MinNormConvergenceError(
        "minimum-norm refinement failed to settle", u, float(np.linalg.norm(residual))
    )


def _svd_min_norm(A, f):
    dense = A.toarray() if scipy.sparse.issparse(A) else np.asarray(A)
    u_mat, sing, vt = np.linalg.svd(dense, full_matrices=False)
    keep = sing > SVD_TRUNCATION_RTOL * sing[0]
    coeff = (u_mat.T @ f)[keep] / sing[keep]
    return vt[keep].T @ coeff


def solve_min_norm(
    problem: LinearProblem,
    tol: float = 1e-8,
    method: str = "iterative",
    iter_cap: int | None = None,
) -> SolveReport:
    """Minimum-norm least-squares solution of (diag(a) + L) u = f.

    ``method="iterative"`` (default) runs LSQR with refinement to relative
    tolerance ``tol`` with an iteration cap of 20 N; ``method="svd"``
    computes the truncated-SVD pseudo-inverse (singular values below
    1e-8 sigma_max dropped), available for N <= 3000.  The two agree to
    well within 10 tol where both apply.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    generator = problem.generator
    n = generator.n_points
    A = generator.shifted_matrix(problem.shift)
    f = problem.rhs
    if not np.any(f):
        return SolveReport(
            np.zeros(n), f"min_norm_{method}", 0.0, iterations=0, epsilon_used=generator.epsilon
        )
    if method == "iterative":
        u, itn = _lsqr_min_norm(A.tocsr(), f, tol, 20 * n if iter_cap is None else iter_cap)
    elif method == "svd":
        if n > SVD_MAX_N:
            raise ValueError(f"svd path is limited to N <= {SVD_MAX_N}, got N={n}")
        u, itn = _svd_min_norm(A, f), 0
    else:
        raise ValueError(f"unknown min-norm method {method!r}")
    residual = float(np.linalg.norm(A @ u - f))
    return SolveReport(
        u, f"min_norm_{method}", residual, iterations=itn, epsilon_used=generator.epsilon
    )


def error_report(u_hat: np.ndarray, u_true: np.ndarray) -> tuple[float, float]:
    """Uniform error and root-mean-square error (|.|_2 / sqrt(N))."""
    u_hat = np.asarray(u_hat, dtype=float)
    u_true = np.asarray(u_true, dtype=float)
    if u_hat.shape != u_true.shape:
        raise ValueError(f"length mismatch: {u_hat.shape} vs {u_true.shape}")
    diff = u_hat - u_true
    return float(np.abs(diff).max()), float(np.linalg.norm(diff) / np.sqrt(diff.size))


def best_shift_error(u_hat: np.ndarray, u_true: np.ndarray) -> float:
    """Uniform error minimized over an added constant (midrange shift)."""
    diff = np.asarray(u_true, dtype=float) - np.asarray(u_hat, dtype=float)
    return float((diff.max() - diff.min()) / 2.0)


def check_minimum_norm_certificate(
    u_hat: np.ndarray,
    generator: GeneratorMatrix,
    rel_tol: float = 1e-6,
    null_vector: np.ndarray | None = None,
) -> bool:
    """True iff u_hat has (numerically) no component along the nullspace.

    For closed manifolds the numerical nullspace of L is spanned by the
    constant vector (row-stochasticity makes L 1 = 0), which is the default
    direction; tests may pass the smallest right singular vector instead.
    """
    u_hat = np.asarray(u_hat, dtype=float)
    n = generator.n_points
    if u_hat.shape != (n,):
        raise ValueError("u_hat must be an N-vector matching the generator")
    if null_vector is None:
        null_vector = np.full(n, 1.0 / np.sqrt(n))
    else:
        null_vector = np.asarray(null_vector, dtype=float)
        null_vector = null_vector / np.linalg.norm(null_vector)
    component = abs(float(null_vector @ u_hat))
    return component <= rel_tol * float(np.linalg.norm(u_hat))


@dataclass(frozen=True)
class ConvergenceStudy:
    """Uniform errors against N with the bandwidths used and the log-log slope."""

    n_values: np.ndarray
    errors_inf: np.ndarray
    epsilons: np.ndarray
    fitted_slope: float


@dataclass(frozen=True)
class EpsilonSweep:
    """Uniform errors against eps at fixed N with the log-log slope."""

    epsilons: np.ndarray
    errors_inf: np.ndarray
    fitted_slope: float


def _solve_zoo(problem, cloud, coeffs, cfg, debias, neighbors):
    gen = build_operator(cloud, coeffs, cfg, debias=debias, neighbors=neighbors)
    shift = problem.shift(cloud.intrinsic)
    rhs = problem.f(cloud.intrinsic)
    lin = LinearProblem(gen, shift, rhs)
    if shift.max() < 0:
        report = solve_direct(lin)
    else:
        report = solve_min_norm(lin)
    return report.with_errors(problem.u(cloud.intrinsic))


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def oracle_epsilon(
    problem,
    cloud,
    coeffs,
    k: int,
    bracket: tuple[float, float] = (1e-9, 1e-1),
    n_coarse: int = 17,
    n_refine: int = 12,
    debias: bool = True,
) -> tuple[float, float]:
    """Error-minimizing bandwidth by coarse log-scan plus golden section.

    This is the tuning mode available only when the analytic truth is
    known; it returns (epsilon, achieved uniform error).  The kNN search
    (indices and d^2) runs once and is shared by every trial.
    """
    neighbors = build_knn_graph(cloud, min(k, cloud.n_points))

    def err_at(eps):
        cfg = KernelConfig(eps, eps, min(k, cloud.n_points))
        try:
            return _solve_zoo(problem, cloud, coeffs, cfg, debias, neighbors).error_inf
        except (DirectSolveError, MinNormConvergenceError):
            # bandwidths where the solve cannot meet its residual contract
            # (e.g. eps so small that 1/eps swamps double precision) are
            # simply not candidates
            return np.inf

    coarse = np.exp(np.linspace(np.log(bracket[0]), np.log(bracket[1]), n_coarse))
    errs = np.array([err_at(e) for e in coarse])
    best = int(np.argmin(errs))
    lo = np.log(coarse[max(best - 1, 0)])
    hi = np.log(coarse[min(best + 1, n_coarse - 1)])
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = err_at(np.exp(x1)), err_at(np.exp(x2))
    for _ in range(n_refine):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = err_at(np.exp(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = err_at(np.exp(x2))
    candidates = [(errs[best], coarse[best]), (f1, np.exp(x1)), (f2, np.exp(x2))]
    err, eps = min(candidates)
    return float(eps), float(err)


def convergence_study(
    problem_id: str,
    n_values,
    tuning: str = "oracle",
    k: int = 100,
    mode: str = "uniform_grid",
    seed: int = 0,
    debias: bool = True,
    bracket: tuple[float, float] = (1e-9, 1e-1),
    oracle_effort: tuple[int, int] = (17, 12),
) -> ConvergenceStudy:
    """Solve a zoo problem over increasing N and fit the error rate.

    ``tuning="oracle"`` picks the error-minimizing bandwidth per N (as done
    when the truth is known); ``tuning="auto"`` uses the Q(eps) slope
    criterion.  A failure in any sub-run raises
    :class:`ConvergenceStudyError` with the completed rows attached.
    """
    n_values = np.asarray(list(n_values), dtype=int)
    if n_values.size < 4:
        raise ValueError("convergence study needs at least 4 values of N")
    if np.any(np.diff(n_values) <= 0):
        raise ValueError("N values must be strictly increasing")
    if tuning not in ("oracle", "auto"):
        raise ValueError(f"unknown tuning mode {tuning!r}")
    problem = analytic_pair(problem_id)
    errors, epsilons = [], []
    for n in n_values:
        try:
            cloud = sample_points(problem.manifold, int(n), mode, seed)
            coeffs = problem_coefficients(problem, cloud)
            k_n = min(k, int(n))
            if tuning == "oracle":
                eps, err = oracle_epsilon(
                    problem, cloud, coeffs, k_n, bracket,
                    n_coarse=oracle_effort[0], n_refine=oracle_effort[1], debias=debias,
                )
            else:
                eps = tune_bandwidth(cloud, coeffs).epsilon_star
                eps_tilde = tune_gaussian_bandwidth(cloud).epsilon_star
                cfg = KernelConfig(eps, eps_tilde, k_n)
                err = _solve_zoo(problem, cloud, coeffs, cfg, debias, None).error_inf
        except Exception as exc:
            partial = ConvergenceStudy(
                n_values[: len(errors)],
                np.array(errors),
                np.array(epsilons),
                float("nan"),
            )
            raise ConvergenceStudyError(f"study failed at N={n}: {exc}", partial) from exc
        errors.append(err)
        epsilons.append(eps)
    errors = np.array(errors)
    epsilons = np.array(epsilons)
    slope = float(np.polyfit(np.log(n_values), np.log(errors), 1)[0])
    return ConvergenceStudy(n_values, errors, epsilons, slope)


def epsilon_sweep(
    problem_id: str,
    n_points: int,
    epsilons,
    k: int = 100,
    mode: str = "uniform_grid",
    seed: int = 0,
    debias: bool = True,
) -> EpsilonSweep:
    """Uniform error against bandwidth at fixed N (the O(eps) regime check).

    One kNN search (indices and d^2) is shared by every bandwidth.
    """
    epsilons = np.asarray(list(epsilons), dtype=float)
    if epsilons.size < 2:
        raise ValueError("epsilon sweep needs at least 2 bandwidths")
    problem = analytic_pair(problem_id)
    cloud = sample_points(problem.manifold, n_points, mode, seed)
    coeffs = problem_coefficients(problem, cloud)
    k = min(k, n_points)
    neighbors = build_knn_graph(cloud, k)
    errors = []
    for eps in epsilons:
        cfg = KernelConfig(float(eps), float(eps), k)
        errors.append(_solve_zoo(problem, cloud, coeffs, cfg, debias, neighbors).error_inf)
    errors = np.array(errors)
    slope = float(np.polyfit(np.log(epsilons), np.log(errors), 1)[0])
    return EpsilonSweep(epsilons, errors, slope)

"""Shared fixtures: the paper-scale reference runs, built once per session."""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import settings

from lokpde.geometry import CoefficientField, sample_points, sample_sphere
from lokpde.kernels import KernelConfig
from lokpde.operator import GeneratorMatrix, build_operator
from lokpde.problems import analytic_pair, problem_coefficients
from lokpde.solver import LinearProblem, SolveReport, solve, solve_min_norm

# every property test is reproducible: fixed examples, no deadline and no
# example database; each test sets only its own max_examples
settings.register_profile("lokpde", deadline=None, derandomize=True, database=None)
settings.load_profile("lokpde")


@dataclass
class ZooRun:
    """One end-to-end solve of a zoo problem at a pinned configuration."""

    problem_id: str
    config: KernelConfig
    debias: bool
    cloud: object
    coeffs: CoefficientField
    generator: GeneratorMatrix
    shift: np.ndarray
    rhs: np.ndarray
    u_true: np.ndarray
    op_error: np.ndarray  # |(a + L)u - f| per node
    report: SolveReport
    elapsed_seconds: float
    extras: dict = field(default_factory=dict)


def run_zoo(problem_id, n_points, k, epsilon, tilde_epsilon, debias, mode="uniform_grid", seed=0):
    start = time.perf_counter()
    problem = analytic_pair(problem_id)
    cloud = sample_points(problem.manifold, n_points, mode, seed)
    coeffs = problem_coefficients(problem, cloud)
    cfg = KernelConfig(epsilon, tilde_epsilon, k)
    gen = build_operator(cloud, coeffs, cfg, debias=debias)
    x = cloud.intrinsic
    u, f, a = problem.u(x), problem.f(x), problem.shift(x)
    report = solve(LinearProblem(gen, a, f))
    elapsed = time.perf_counter() - start
    op_error = np.abs(gen.apply(u) + a * u - f)
    return ZooRun(
        problem_id, cfg, debias, cloud, coeffs, gen, a, f, u, op_error,
        report.with_errors(u), elapsed,
    )


@pytest.fixture(scope="session")
def bvp1d_paper():
    """BVP on [0,1]: N=1000, k=100, eps = eps~ = 2e-6, direct solve."""
    return run_zoo("bvp1d", 1000, 100, 2e-6, 2e-6, debias=False)


@pytest.fixture(scope="session")
def ellipse_paper():
    """Ellipse: N=1000, k=200, eps = eps~ = 1e-4, min-norm solve, debias on."""
    return run_zoo("ellipse", 1000, 200, 1e-4, 1e-4, debias=True)


@pytest.fixture(scope="session")
def half_ellipse_paper():
    return run_zoo("half_ellipse", 1000, 200, 1e-4, 1e-4, debias=True)


@pytest.fixture(scope="session")
def torus_paper():
    """Torus: N=6400 (80x80), k=128, eps=0.0024, eps~=0.0179, debias on."""
    return run_zoo("torus", 6400, 128, 0.0024, 0.0179, debias=True)


@pytest.fixture(scope="session")
def half_torus_paper():
    return run_zoo("half_torus", 3200, 128, 0.0026, 0.0179, debias=True)


@dataclass
class SphereRun:
    cloud: object
    coeffs: CoefficientField
    generator: GeneratorMatrix
    rhs: np.ndarray
    u_true: np.ndarray
    report: SolveReport
    elapsed_seconds: float


@pytest.fixture(scope="session")
def sphere_run():
    """Ambient-only pathway: N=3000 i.i.d. sphere samples, Laplace-Beltrami
    coefficients, debias on, f = -6 x1 x2, minimum-norm solve."""
    start = time.perf_counter()
    cloud = sample_sphere(3000, seed=7)
    coeffs = CoefficientField.laplace_beltrami(3000, 3)
    gen = build_operator(cloud, coeffs, KernelConfig(0.015, 0.01, 400), debias=True)
    xyz = cloud.ambient
    u = xyz[:, 0] * xyz[:, 1]
    f = -6.0 * u
    report = solve_min_norm(LinearProblem(gen, np.zeros(3000), f)).with_errors(u)
    elapsed = time.perf_counter() - start
    return SphereRun(cloud, coeffs, gen, f, u, report, elapsed)

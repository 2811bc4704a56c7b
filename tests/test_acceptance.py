"""Acceptance suite: every criterion at its stated tolerance.

Each check prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts.  The paper-scale reference runs come from the
session-scoped fixtures in conftest.py, which time the full pipeline
(sampling through solve) for the runtime caps.
"""

import numpy as np
import pytest

from lokpde.geometry import (
    CoefficientField,
    PointCloud,
    ambient_cloud_manifold,
    sample_points,
)
from lokpde.kernels import (
    KernelConfig,
    assemble_kernel_matrix,
    eval_prototypical_kernel,
    moment_check,
)
from lokpde.operator import build_operator, estimate_density, tune_bandwidth
from lokpde.problems import analytic_pair, problem_coefficients
from lokpde.solver import (
    LinearProblem,
    check_minimum_norm_certificate,
    convergence_study,
    epsilon_sweep,
    oracle_epsilon,
    solve_direct,
    solve_min_norm,
)


def check(label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {label}: {detail}")
    assert passed, f"{label}: {detail}"


def boundary_fraction_1d(index, n, fraction):
    cutoff = int(np.ceil(fraction * n))
    return index < cutoff or index >= n - cutoff


class TestCriterion1BVP:
    """bvp1d, N=1000, k=100, eps = eps~ = 2e-6, direct solve."""

    def test_solution_error(self, bvp1d_paper):
        err = bvp1d_paper.report.error_inf
        check("1. bvp1d solution error", err <= 0.004, f"|u_hat - u|_inf = {err:.6f} <= 0.004")

    def test_operator_consistency(self, bvp1d_paper):
        op = bvp1d_paper.op_error
        n = op.size
        interior = op[int(0.05 * n) : n - int(0.05 * n)]
        check(
            "1. bvp1d interior operator error",
            interior.max() <= 1e-2,
            f"interior max = {interior.max():.2e} <= 1e-2",
        )
        check(
            "1. bvp1d boundary operator error O(1)",
            1.0 <= op.max() <= 20.0,
            f"global max = {op.max():.4f} (paper: 4.3870)",
        )
        check(
            "1. bvp1d error localized at boundary",
            boundary_fraction_1d(int(np.argmax(op)), n, 0.02),
            f"argmax at node {int(np.argmax(op))} of {n}",
        )

    def test_runtime(self, bvp1d_paper):
        check(
            "1. bvp1d runtime",
            bvp1d_paper.elapsed_seconds <= 10.0,
            f"{bvp1d_paper.elapsed_seconds:.2f} s <= 10 s",
        )


class TestCriterion2Ellipse:
    """Ellipse and half ellipse, N=1000, k=200, eps = eps~ = 1e-4, min-norm."""

    def test_ellipse_solution(self, ellipse_paper):
        err = ellipse_paper.report.error_inf
        check("2. ellipse solution error", err <= 0.01, f"{err:.6f} <= 0.01 (paper: 0.0049)")

    def test_half_ellipse_solution(self, half_ellipse_paper):
        err = half_ellipse_paper.report.error_inf
        check("2. half-ellipse solution error", err <= 0.006, f"{err:.6f} <= 0.006 (paper: 0.0028)")

    def test_half_ellipse_operator_boundary_localized(self, half_ellipse_paper):
        op = half_ellipse_paper.op_error
        n = op.size
        check(
            "2. half-ellipse operator max scale",
            0.08 <= op.max() <= 0.33,
            f"global max = {op.max():.4f} (paper: 0.1634)",
        )
        check(
            "2. half-ellipse operator max at boundary",
            boundary_fraction_1d(int(np.argmax(op)), n, 0.02),
            f"argmax at node {int(np.argmax(op))} of {n}",
        )
        interior = op[int(0.05 * n) : n - int(0.05 * n)]
        check(
            "2. half-ellipse interior operator error",
            interior.max() <= 0.01,
            f"interior max = {interior.max():.4f}",
        )

    def test_runtimes(self, ellipse_paper, half_ellipse_paper):
        for run in (ellipse_paper, half_ellipse_paper):
            check(
                f"2. {run.problem_id} runtime",
                run.elapsed_seconds <= 30.0,
                f"{run.elapsed_seconds:.2f} s <= 30 s",
            )


class TestCriterion3Torus:
    """Torus N=6400 and half torus N=3200, k=128, debias on."""

    def test_torus(self, torus_paper):
        sol = torus_paper.report.error_inf
        op = torus_paper.op_error.max()
        check("3. torus solution error", sol <= 0.016, f"{sol:.6f} <= 0.016 (paper: 0.0076)")
        check("3. torus operator error", op <= 0.08, f"{op:.4f} <= 0.08 (paper: 0.0361)")

    def test_half_torus(self, half_torus_paper):
        sol = half_torus_paper.report.error_inf
        check("3. half-torus solution error", sol <= 0.16, f"{sol:.6f} <= 0.16 (paper: 0.0774)")

    def test_runtimes(self, torus_paper, half_torus_paper):
        for run in (torus_paper, half_torus_paper):
            check(
                f"3. {run.problem_id} runtime",
                run.elapsed_seconds <= 300.0,
                f"{run.elapsed_seconds:.1f} s <= 300 s",
            )


class TestCriterion4ConvergenceRates:
    def test_error_rate_in_n(self):
        study = convergence_study(
            "bvp1d", [250, 500, 1000, 2000, 4000], tuning="oracle", k=100, debias=False
        )
        check(
            "4. bvp1d error rate vs N",
            -2.5 <= study.fitted_slope <= -1.5,
            f"fitted log-log slope = {study.fitted_slope:.3f} in [-2.5, -1.5] "
            f"(errors {np.array2string(study.errors_inf, precision=2)})",
        )

    def test_error_scales_with_bandwidth(self):
        # pre-floor regime: bandwidths a factor 2..32 above the tuned optimum
        problem = analytic_pair("bvp1d")
        cloud = sample_points(problem.manifold, 1000, "uniform_grid")
        coeffs = problem_coefficients(problem, cloud)
        eps_star, _ = oracle_epsilon(problem, cloud, coeffs, 100, debias=False)
        sweep = epsilon_sweep(
            "bvp1d", 1000, eps_star * np.array([2.0, 4.0, 8.0, 16.0, 32.0]), k=100, debias=False
        )
        check(
            "4. bvp1d error vs epsilon",
            0.7 <= sweep.fitted_slope <= 1.3,
            f"fitted log-log slope = {sweep.fitted_slope:.3f} in [0.7, 1.3]",
        )


class TestCriterion5AdvectionDominance:
    def test_error_grows_with_drift_ratio(self):
        errors = []
        for b in (1.0, 10.0, 100.0, 1000.0):
            problem = analytic_pair("bvp1d", b=b)
            cloud = sample_points(problem.manifold, 1000, "uniform_grid")
            coeffs = problem_coefficients(problem, cloud)
            gen = build_operator(cloud, coeffs, KernelConfig(2e-6, 2e-6, 100), debias=False)
            x = cloud.intrinsic
            rep = solve_direct(LinearProblem(gen, problem.shift(x), problem.f(x)))
            errors.append(rep.with_errors(problem.u(x)).error_inf)
        errors = np.array(errors)
        check(
            "5. advection sweep nondecreasing",
            (np.diff(errors) >= 0).all(),
            f"errors over b/c in (1,10,100,1000): {np.array2string(errors, precision=3)}",
        )
        check(
            "5. advection error exceeds 1e-2 from b/c = 100",
            (errors[2:] > 1e-2).all(),
            f"errors at b/c >= 100: {np.array2string(errors[2:], precision=3)}",
        )


class TestCriterion6Properties:
    def test_row_stochasticity_and_nullspace(
        self, bvp1d_paper, ellipse_paper, half_ellipse_paper, torus_paper, half_torus_paper
    ):
        worst_sum, worst_null = 0.0, 0.0
        for run in (bvp1d_paper, ellipse_paper, half_ellipse_paper, torus_paper, half_torus_paper):
            gen = run.generator
            sums = np.asarray(gen.s_matrix.sum(axis=1)).ravel()
            worst_sum = max(worst_sum, np.abs(sums - 1.0).max())
            worst_null = max(worst_null, np.abs(gen.apply(np.ones(gen.n_points))).max())
        check("6. row-stochasticity", worst_sum <= 1e-12, f"max |row sum - 1| = {worst_sum:.2e}")
        check("6. constant nullspace", worst_null <= 1e-8, f"max |L 1|_inf = {worst_null:.2e}")

    def test_strict_diagonal_dominance(self, bvp1d_paper, ellipse_paper):
        rng = np.random.default_rng(0)
        ok = True
        for run in (bvp1d_paper, ellipse_paper):
            s = run.generator.s_matrix
            eps = run.generator.epsilon
            diag = s.diagonal()
            off = np.asarray(np.abs(s).sum(axis=1)).ravel() - np.abs(diag)
            for a in (np.full(s.shape[0], -2.0), -rng.uniform(0.01, 10.0, size=s.shape[0])):
                lhs = np.abs(1.0 - eps * a - diag)
                ok &= bool((lhs > off).all())
        check("6. strict diagonal dominance of (1 - eps a) I - S", ok, "exact row-wise check")

    def test_kernel_bound(self):
        rng = np.random.default_rng(1)
        ok = True
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            a = rng.normal(size=(n, n))
            c = a @ a.T + 0.3 * np.eye(n)
            x = rng.normal(size=n)
            z = rng.normal(size=n) * rng.uniform(0.1, 3.0)
            b = rng.normal(size=n)
            eps = float(rng.uniform(1e-4, 1.0))
            val = eval_prototypical_kernel(x, x + np.sqrt(eps) * z, b, np.linalg.inv(c), eps)
            sigma = 1.0 / (2.0 * np.linalg.eigvalsh(c).max())
            bound = float(np.exp(-sigma * np.sum((z - np.sqrt(eps) * b) ** 2)))
            ok &= 0.0 <= val <= bound * (1 + 1e-12)
        check("6. local kernel bound", ok, "1000 random draws, beta=1, sigma=1/(2 lambda_1)")

    def test_moment_recovery(self):
        rng = np.random.default_rng(2)
        ok = True
        for d in (1, 2):
            for trial in range(5):
                a = rng.normal(size=(d, d))
                c = a @ a.T + 0.5 * np.eye(d)
                b = rng.normal(size=d)
                rep = moment_check(d, c, b, 5e-3, n_samples=200_000, seed=50 * d + trial)
                ok &= abs(rep.m_hat - rep.m_exact) <= 3 * rep.m_se
                ok &= bool((np.abs(rep.b_hat - b) <= 3 * rep.b_se + 1e-12).all())
                bias = 5e-3 * np.abs(np.outer(b, b))
                ok &= bool((np.abs(rep.c_hat - c) <= 3 * rep.c_se + bias + 1e-12).all())
        check("6. moment recovery", ok, "m, b, c within 3 Monte-Carlo standard errors (d = 1, 2)")

    def test_min_norm_certificate_on_all_singular_runs(
        self, ellipse_paper, half_ellipse_paper, torus_paper, half_torus_paper, sphere_run
    ):
        runs = {
            "ellipse": (ellipse_paper.report.u_hat, ellipse_paper.generator),
            "half_ellipse": (half_ellipse_paper.report.u_hat, half_ellipse_paper.generator),
            "torus": (torus_paper.report.u_hat, torus_paper.generator),
            "half_torus": (half_torus_paper.report.u_hat, half_torus_paper.generator),
            "sphere": (sphere_run.report.u_hat, sphere_run.generator),
        }
        results = {name: check_minimum_norm_certificate(u, g) for name, (u, g) in runs.items()}
        check("6. minimum-norm certificate", all(results.values()), f"{results}")

    def test_iterative_svd_agreement(self, ellipse_paper, half_ellipse_paper, sphere_run):
        worst = 0.0
        for run in (ellipse_paper, half_ellipse_paper):
            lin = LinearProblem(run.generator, run.shift, run.rhs)
            sv = solve_min_norm(lin, method="svd")
            worst = max(worst, np.abs(run.report.u_hat - sv.u_hat).max())
        lin = LinearProblem(sphere_run.generator, np.zeros(3000), sphere_run.rhs)
        sv = solve_min_norm(lin, method="svd")
        worst = max(worst, np.abs(sphere_run.report.u_hat - sv.u_hat).max())
        check(
            "6. iterative/SVD minimum-norm agreement (N <= 3000)",
            worst <= 1e-6,
            f"max uniform difference = {worst:.2e} <= 1e-6",
        )

    def test_dense_oracle_equivalence_small(self):
        # complete dense numpy reimplementation of the pipeline at N <= 50
        rng = np.random.default_rng(3)
        for drifted in (False, False, False, True):
            n = int(rng.integers(12, 50))
            theta = np.sort(rng.uniform(0, 2 * np.pi, size=n))
            pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            cloud = PointCloud(pts, None, "iid_density", ambient_cloud_manifold(2, 1))
            coeffs = CoefficientField.laplace_beltrami(n, 2)
            k = int(rng.integers(4, n))
            if drifted:
                coeffs = CoefficientField(rng.uniform(-1.0, 1.0, size=(n, 2)), coeffs.diffusion_inv)
            eps, eps_t = 0.05, 0.08
            cfg = KernelConfig(eps, eps_t, k)

            # dense oracle: brute-force kNN, kernel, density, normalizations
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
            kernel = np.zeros((n, n))
            dens_pattern = np.zeros((n, n), dtype=bool)
            for i in range(n):
                nbrs = sorted(range(n), key=lambda j: (d2[i, j], j))[:k]
                for j in nbrs:
                    v = pts[i] - pts[j] + eps * coeffs.drift[i]
                    kernel[i, j] = np.exp(-v @ coeffs.diffusion_inv[i] @ v / (2 * eps))
                    dens_pattern[i, j] = True
            q = (np.exp(-d2 / (2 * eps_t)) * dens_pattern).sum(axis=1)
            debiased = kernel / q[None, :]
            s = debiased / debiased.sum(axis=1, keepdims=True)
            l_dense = (s - np.eye(n)) / eps

            gen = build_operator(cloud, coeffs, cfg, debias=True)
            np.testing.assert_allclose(gen.matrix().toarray(), l_dense, atol=1e-12)

            # direct solve vs dense inverse
            a = -rng.uniform(0.5, 2.0, size=n)
            f = rng.normal(size=n)
            rep = solve_direct(LinearProblem(gen, a, f))
            np.testing.assert_allclose(
                rep.u_hat, np.linalg.solve(l_dense + np.diag(a), f), atol=1e-9
            )

            # min-norm solve vs dense pseudo-inverse
            f0 = l_dense @ rng.normal(size=n)
            rep_mn = solve_min_norm(LinearProblem(gen, np.zeros(n), f0))
            np.testing.assert_allclose(rep_mn.u_hat, np.linalg.pinv(l_dense) @ f0, atol=1e-7)
        check("6. dense-oracle equivalence (N <= 50)", True, "operator, direct and min-norm solves")


class TestCriterion7AmbientPathway:
    def test_eigenfunction_identity_by_finite_differences(self):
        # independent verification that u = x1 x2 solves Delta u = -6 x1 x2
        # on the unit sphere, in spherical coordinates
        def u_sph(th, ph):
            return np.sin(th) ** 2 * np.cos(ph) * np.sin(ph)

        h = 1e-5
        rng = np.random.default_rng(4)
        for _ in range(20):
            th = rng.uniform(0.3, np.pi - 0.3)
            ph = rng.uniform(0, 2 * np.pi)
            u_tt = (u_sph(th + h, ph) - 2 * u_sph(th, ph) + u_sph(th - h, ph)) / h**2
            u_t = (u_sph(th + h, ph) - u_sph(th - h, ph)) / (2 * h)
            u_pp = (u_sph(th, ph + h) - 2 * u_sph(th, ph) + u_sph(th, ph - h)) / h**2
            lap = u_tt + np.cos(th) / np.sin(th) * u_t + u_pp / np.sin(th) ** 2
            assert abs(lap + 6 * u_sph(th, ph)) < 1e-4

    def test_sphere_solution(self, sphere_run):
        err = sphere_run.report.error_inf
        check("7. ambient sphere solution error", err <= 0.05, f"{err:.4f} <= 0.05")

    def test_runtime(self, sphere_run):
        check(
            "7. ambient sphere runtime",
            sphere_run.elapsed_seconds <= 120.0,
            f"{sphere_run.elapsed_seconds:.1f} s <= 120 s",
        )


class TestCriterion8Tuning:
    def test_circle_dimension(self):
        theta = 2 * np.pi * np.arange(2000) / 2000
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        cloud = PointCloud(pts, None, "uniform_grid", ambient_cloud_manifold(2, 1))
        rep = tune_bandwidth(cloud, CoefficientField.isotropic(2000, 2))
        check(
            "8. circle dimension estimate",
            abs(rep.d_hat - 1.0) <= 0.2,
            f"d_hat = {rep.d_hat:.3f}, |d_hat - 1| <= 0.2 (41-point default grid)",
        )

    def test_torus_dimension(self):
        problem = analytic_pair("torus")
        cloud = sample_points(problem.manifold, 1600, "uniform_grid")
        rep = tune_bandwidth(cloud, problem_coefficients(problem, cloud))
        check(
            "8. torus dimension estimate",
            abs(rep.d_hat - 2.0) <= 0.4,
            f"d_hat = {rep.d_hat:.3f}, |d_hat - 2| <= 0.4 (41-point default grid)",
        )

import numpy as np
import pytest
import scipy.sparse

from lokpde.geometry import CoefficientField, PointCloud, ambient_cloud_manifold, sample_points
from lokpde.kernels import KernelConfig, assemble_kernel_matrix
from lokpde.operator import build_operator, left_normalize
from lokpde.problems import analytic_pair, problem_coefficients
from lokpde.solver import (
    ConvergenceStudyError,
    DirectSolveError,
    LinearProblem,
    MinNormConvergenceError,
    best_shift_error,
    check_minimum_norm_certificate,
    convergence_study,
    epsilon_sweep,
    error_report,
    solve_direct,
    solve_min_norm,
)


def small_generator(n=6, eps=0.15, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    cloud = PointCloud(pts, None, "iid_density", ambient_cloud_manifold(2))
    km = assemble_kernel_matrix(
        cloud, CoefficientField.isotropic(n, 2), KernelConfig(eps, eps, n)
    )
    return left_normalize(km)


class TestLinearProblem:
    def test_shape_validation(self):
        gen = small_generator()
        with pytest.raises(ValueError, match="N-vector"):
            LinearProblem(gen, np.zeros(5), np.zeros(6))
        with pytest.raises(ValueError, match="finite"):
            LinearProblem(gen, np.zeros(6), np.full(6, np.nan))


class TestDirectSolve:
    def test_requires_strictly_negative_shift(self):
        gen = small_generator()
        with pytest.raises(ValueError, match="min_norm"):
            solve_direct(LinearProblem(gen, np.zeros(6), np.ones(6)))

    def test_constant_solution(self):
        # f = (a + L) 1 = a, so the solution is the constant one-vector
        gen = small_generator()
        a = np.full(6, -3.0)
        rhs = gen.apply(np.ones(6)) + a
        rep = solve_direct(LinearProblem(gen, a, rhs))
        np.testing.assert_allclose(rep.u_hat, 1.0, atol=1e-8)
        assert rep.method == "direct"

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(2)
        gen = small_generator(seed=2)
        a = -rng.uniform(0.5, 2.0, size=6)
        f = rng.normal(size=6)
        rep = solve_direct(LinearProblem(gen, a, f))
        dense = gen.matrix().toarray() + np.diag(a)
        np.testing.assert_allclose(rep.u_hat, np.linalg.solve(dense, f), atol=1e-10)

    def test_residual_contract(self, bvp1d_paper):
        rel = bvp1d_paper.report.residual_inf / np.abs(bvp1d_paper.rhs).max()
        assert rel <= 1e-10

    def test_inverse_infnorm_bound(self):
        # Ahlberg-Nilson-Varah: ||(a+L)^-1||_inf <= 1 / min(-a); probe with
        # random sign vectors
        problem = analytic_pair("bvp1d")
        cloud = sample_points(problem.manifold, 400, "uniform_grid")
        coeffs = problem_coefficients(problem, cloud)
        gen = build_operator(cloud, coeffs, KernelConfig(1e-5, 1e-5, 60), debias=False)
        a = np.full(400, -2.0)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            f = rng.choice([-1.0, 1.0], size=400)
            rep = solve_direct(LinearProblem(gen, a, f))
            worst = max(worst, np.abs(rep.u_hat).max())
        assert worst <= 1.01 / 2.0


class TestMinNorm:
    def test_zero_rhs(self):
        gen = small_generator()
        rep = solve_min_norm(LinearProblem(gen, np.zeros(6), np.zeros(6)))
        assert rep.u_hat.tolist() == [0.0] * 6
        assert rep.residual_inf == 0.0

    def test_iterative_matches_svd_small(self):
        gen = small_generator(n=20, seed=5)
        rng = np.random.default_rng(5)
        u_target = rng.normal(size=20)
        f = gen.apply(u_target)  # consistent right-hand side
        lin = LinearProblem(gen, np.zeros(20), f)
        it = solve_min_norm(lin, method="iterative")
        sv = solve_min_norm(lin, method="svd")
        np.testing.assert_allclose(it.u_hat, sv.u_hat, atol=1e-8)

    def test_iterative_matches_svd_ellipse(self, ellipse_paper):
        lin = LinearProblem(
            ellipse_paper.generator, ellipse_paper.shift, ellipse_paper.rhs
        )
        sv = solve_min_norm(lin, method="svd")
        diff = np.abs(ellipse_paper.report.u_hat - sv.u_hat).max()
        assert diff <= 1e-6

    def test_unknown_method(self):
        gen = small_generator()
        with pytest.raises(ValueError, match="method"):
            solve_min_norm(LinearProblem(gen, np.zeros(6), np.ones(6)), method="qr")

    def test_svd_size_limit(self):
        from lokpde.operator import GeneratorMatrix

        big = scipy.sparse.identity(3001, format="csr")
        fake = GeneratorMatrix(big, 1.0, False, np.ones(3001))
        with pytest.raises(ValueError, match="N <= 3000"):
            solve_min_norm(LinearProblem(fake, np.zeros(3001), np.ones(3001)), method="svd")

    def test_iteration_cap(self, ellipse_paper):
        lin = LinearProblem(ellipse_paper.generator, ellipse_paper.shift, ellipse_paper.rhs)
        with pytest.raises(MinNormConvergenceError) as info:
            solve_min_norm(lin, iter_cap=3)
        assert info.value.best_u.shape == (1000,)
        assert np.isfinite(info.value.residual)


class TestErrorReport:
    def test_identical(self):
        assert error_report(np.ones(4), np.ones(4)) == (0.0, 0.0)

    def test_single_entry_difference(self):
        u = np.zeros(16)
        v = np.zeros(16)
        v[3] = 1.0
        inf, l2 = error_report(u, v)
        assert inf == 1.0
        np.testing.assert_allclose(l2, 0.25)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            error_report(np.zeros(3), np.zeros(4))

    def test_best_shift(self):
        u_hat = np.array([0.0, 0.0])
        u_true = np.array([1.0, 3.0])
        assert best_shift_error(u_hat, u_true) == 1.0


class TestCertificate:
    def test_zero_vector(self):
        gen = small_generator()
        assert check_minimum_norm_certificate(np.zeros(6), gen)

    def test_injected_constant_fails(self, ellipse_paper):
        u = ellipse_paper.report.u_hat
        gen = ellipse_paper.generator
        assert check_minimum_norm_certificate(u, gen)
        assert not check_minimum_norm_certificate(u + 0.1, gen)

    def test_against_singular_vector_nullspace(self):
        # the smallest right singular vector is the numerical nullspace;
        # for a closed manifold it is the constant direction
        problem = analytic_pair("ellipse")
        cloud = sample_points(problem.manifold, 300, "uniform_grid")
        coeffs = problem_coefficients(problem, cloud)
        gen = build_operator(cloud, coeffs, KernelConfig(2e-3, 2e-3, 60), debias=True)
        dense = gen.matrix().toarray()
        _, sing, vt = np.linalg.svd(dense)
        null_vec = vt[-1]
        assert sing[-1] < 1e-8 * sing[0]
        const = np.full(300, 1 / np.sqrt(300))
        assert abs(abs(null_vec @ const) - 1.0) < 1e-6
        rep = solve_min_norm(LinearProblem(gen, np.zeros(300), problem.f(cloud.intrinsic)))
        assert check_minimum_norm_certificate(rep.u_hat, gen, null_vector=null_vec)
        assert not check_minimum_norm_certificate(rep.u_hat + 0.05, gen, null_vector=null_vec)


class TestConvergenceStudy:
    def test_needs_four_sizes(self):
        with pytest.raises(ValueError, match="at least 4"):
            convergence_study("bvp1d", [100, 200, 400])

    def test_increasing_sizes(self):
        with pytest.raises(ValueError, match="increasing"):
            convergence_study("bvp1d", [100, 400, 200, 800])

    def test_small_oracle_study(self):
        study = convergence_study("bvp1d", [100, 200, 400, 800], k=50, debias=False)
        assert -2.5 <= study.fitted_slope <= -1.5
        # doubling N never increases the tuned error by more than 10%
        assert (study.errors_inf[1:] <= 1.1 * study.errors_inf[:-1]).all()

    def test_partial_results_on_failure(self):
        # N=401 has no proportional torus grid, so the last sub-run fails
        with pytest.raises(ConvergenceStudyError) as info:
            convergence_study("torus", [100, 225, 400, 401], tuning="auto", k=30)
        partial = info.value.partial
        assert list(partial.n_values) == [100, 225, 400]
        assert partial.errors_inf.shape == (3,)

    def test_epsilon_sweep_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            epsilon_sweep("bvp1d", 100, [1e-6])

    def test_halving_epsilon_shrinks_error(self):
        # pre-floor regime on bvp1d: halving the bandwidth brings the
        # uniform error down to at most 0.7x
        from lokpde.solver import oracle_epsilon

        problem = analytic_pair("bvp1d")
        cloud = sample_points(problem.manifold, 1000, "uniform_grid")
        coeffs = problem_coefficients(problem, cloud)
        eps_star, _ = oracle_epsilon(problem, cloud, coeffs, 100, debias=False)
        sweep = epsilon_sweep(
            "bvp1d", 1000, eps_star * np.array([4.0, 8.0, 16.0, 32.0]), k=100, debias=False
        )
        ratios = sweep.errors_inf[:-1] / sweep.errors_inf[1:]
        assert (ratios <= 0.7).all(), ratios

    def test_boundary_error_localization_half_torus(self, half_torus_paper):
        # the operator-error maximum sits in the phi boundary layer (within
        # three kernel widths of the boundary; with 40 phi rings the "2% of
        # nodes" reading is finer than one grid ring and cannot resolve it)
        run = half_torus_paper
        phi = run.cloud.intrinsic[:, 1]
        boundary_distance = np.minimum(phi, np.pi - phi)
        layer = 3.0 * np.sqrt(2.0 * run.config.epsilon * 2.0)
        assert boundary_distance[np.argmax(run.op_error)] <= layer

    def test_torus_errors_monotone_in_n(self):
        # with per-N error-minimizing bandwidths the torus errors shrink as
        # the cloud grows (auto tuning keeps eps fixed and is not monotone:
        # the fixed-k neighborhood truncates the wide kernel as N grows)
        study = convergence_study(
            "torus", [256, 484, 900, 1600], tuning="oracle", k=64,
            bracket=(3e-4, 3e-2), oracle_effort=(9, 6),
        )
        assert (np.diff(study.errors_inf) <= 0).all(), study.errors_inf

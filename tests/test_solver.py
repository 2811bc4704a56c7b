import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lokpde import kernels, solver
from lokpde.geometry import CoefficientField, PointCloud, ambient_cloud_manifold, sample_points
from lokpde.kernels import KernelConfig, SparseKernelMatrix
from lokpde.operator import build_operator, left_normalize
from lokpde.problems import analytic_pair, problem_coefficients
from lokpde.operator import GeneratorMatrix
from lokpde.solver import (
    COARSE_MAX_ORDER,
    COARSE_POINTS,
    ConvergenceStudyError,
    DirectSolveError,
    DisconnectedGraphError,
    LinearProblem,
    MinNormConvergenceError,
    _aggregates,
    _null_classes,
    _TwoLevelGmres,
    best_shift_error,
    check_minimum_norm_certificate,
    convergence_study,
    epsilon_sweep,
    error_report,
    solve,
    solve_direct,
    solve_min_norm,
)
from test_kernels import assemble


def small_generator(n=6, eps=0.15, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    cloud = PointCloud(pts, None, "iid_density", ambient_cloud_manifold(2))
    km = assemble(
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
        fake = GeneratorMatrix(big, 1.0, np.ones(3001))
        with pytest.raises(ValueError, match="N <= 3000"):
            solve_min_norm(LinearProblem(fake, np.zeros(3001), np.ones(3001)), method="svd")

    def test_iteration_cap(self, ellipse_paper, monkeypatch):
        # one restart cycle of 5 iterations is too few for the left null vector
        monkeypatch.setattr(solver, "GMRES_MAX_CYCLES", 1)
        monkeypatch.setattr(solver, "GMRES_RESTART", 5)
        lin = LinearProblem(ellipse_paper.generator, ellipse_paper.shift, ellipse_paper.rhs)
        with pytest.raises(MinNormConvergenceError, match="no left null vector after 5 GMRES") as info:
            solve_min_norm(lin)
        assert info.value.best_u.shape == (1000,)
        assert np.isfinite(info.value.residual)


def lsqr_min_norm(A, f, tol=1e-8):
    """Minimum-norm oracle for N past SVD_MAX_N: LSQR from zero with
    refinement (every correction starts from zero, so every iterate stays
    in the row space of A)."""
    u = np.zeros(A.shape[1])
    residual = f.copy()
    for _ in range(12):
        delta = scipy.sparse.linalg.lsqr(
            A, residual, atol=tol, btol=tol, conlim=0.0, iter_lim=20 * A.shape[1]
        )[0]
        u = u + delta
        residual = f - A @ u
        if np.linalg.norm(delta) <= tol * max(np.linalg.norm(u), 1.0):
            return u
    raise AssertionError("LSQR oracle did not settle")


def splu_solve(generator, a, f):
    """Direct oracle: sparse LU of diag(a) + L."""
    return scipy.sparse.linalg.splu(generator.shifted_matrix(a).tocsc()).solve(f)


def cloud_generator(pts, k, eps, debias=False, drift=None):
    n, dim = pts.shape
    coeffs = CoefficientField.isotropic(n, dim)
    if drift is not None:
        coeffs = CoefficientField(drift, coeffs.diffusion_inv)
    cloud = PointCloud(pts, None, "iid_density", ambient_cloud_manifold(dim))
    return build_operator(cloud, coeffs, KernelConfig(eps, eps, k), debias=debias)


def fake_generator(s_rows, eps=1.0):
    s = scipy.sparse.csr_matrix(np.array(s_rows, dtype=float))
    return GeneratorMatrix(s, eps, np.ones(s.shape[0]))


class TestSolveDispatch:
    def test_routes_on_the_sign_of_a(self):
        gen = small_generator(n=20, seed=4)
        f = gen.apply(np.random.default_rng(4).normal(size=20))
        assert solve(LinearProblem(gen, np.full(20, -1.0), f)).method == "direct"
        assert solve(LinearProblem(gen, np.zeros(20), f)).method == "min_norm_iterative"

    def test_iterative_min_norm_needs_nonpositive_shift(self):
        gen = small_generator()
        with pytest.raises(ValueError, match="a <= 0"):
            solve_min_norm(LinearProblem(gen, np.full(6, 0.5), np.ones(6)))

    def test_counters(self, ellipse_paper):
        rep = ellipse_paper.report
        assert 0 < rep.iterations <= 20 * 1000
        assert rep.coarse_size == 1000 // COARSE_POINTS


class TestNamedFailures:
    def test_two_clusters_are_disconnected(self):
        # k = 5 below the cluster size 10: no kNN edge joins the clusters
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(scale=0.1, size=(10, 2)),
                         rng.normal(scale=0.1, size=(10, 2)) + [50.0, 0.0]])
        gen = cloud_generator(pts, 5, 0.05)
        with pytest.raises(DisconnectedGraphError) as info:
            solve(LinearProblem(gen, np.zeros(20), rng.normal(size=20)))
        assert info.value.n_classes == 2
        assert info.value.extra_points == [10]
        assert "2 closed classes" in str(info.value)
        assert "points [10] lie" in str(info.value)

    def test_many_classes_name_a_bounded_list(self):
        # S = I: every point is its own closed class; the message names the
        # first 10 extra points, the attribute all 49
        gen = fake_generator(np.eye(50))
        with pytest.raises(DisconnectedGraphError) as info:
            solve_min_norm(LinearProblem(gen, np.zeros(50), np.ones(50)))
        assert info.value.n_classes == 50
        assert info.value.extra_points == list(range(1, 50))
        assert "points [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 39 more lie" in str(info.value)
        assert len(str(info.value)) < 250

    def test_underflowing_links_are_disconnected(self):
        # the clusters are joined only by kernel values ~ e^-500 > 0, below
        # the rounding error of S_ii: in floating point they are separate
        # (S stores only its entries above eps, so the link is checked in K)
        pts = np.array([[0.0], [0.05], [1.0], [1.05]])
        cloud = PointCloud(pts, None, "iid_density", ambient_cloud_manifold(1))
        kernel = assemble(cloud, CoefficientField.isotropic(4, 1), KernelConfig(1e-3, 1e-3, 4)).matrix
        assert 0 < kernel[0, 2] < np.finfo(float).eps * kernel[0].sum()
        gen = cloud_generator(pts, 4, 1e-3)
        s = gen.s_matrix
        assert 2 not in s.indices[s.indptr[0] : s.indptr[1]]
        with pytest.raises(DisconnectedGraphError) as info:
            solve_min_norm(LinearProblem(gen, np.zeros(4), np.array([1.0, 0.0, 0.0, -1.0])))
        assert (info.value.n_classes, info.value.extra_points) == (2, [2])

    def test_transient_point_is_not_a_class(self):
        # point 0 sits far out: its neighbours are cluster points, but no
        # cluster point has it as a neighbour, so it is transient and the
        # pinned point must come from the cluster; the drift keeps the kNN
        # pattern, which a symmetric kernel would join with its mirror
        rng = np.random.default_rng(1)
        pts = np.vstack([[3.0, 0.0], rng.normal(scale=0.3, size=(15, 2))])
        gen = cloud_generator(pts, 4, 1.0, drift=np.full((16, 2), 0.1))
        assert _null_classes(gen.s_matrix, np.zeros(16)).tolist() == [1]
        f = rng.normal(size=16)
        # a < 0 at the transient point only: the class stays singular, but
        # the right null vector is no longer constant
        for a0 in (0.0, -1.0):
            a = np.zeros(16)
            a[0] = a0
            rep = solve_min_norm(LinearProblem(gen, a, f))
            dense = gen.matrix().toarray() + np.diag(a)
            np.testing.assert_allclose(rep.u_hat, np.linalg.pinv(dense) @ f, atol=1e-8)
        # a < 0 at the transient point (the last case above) is the one case
        # that takes the right null vector from the pinned system
        with _TwoLevelGmres(gen, a, 1) as helper:
            v = helper.null_vector(left=False)
        assert v[1] == 1.0
        assert np.abs(dense @ v).max() <= 1e-8 * np.abs(v).max()

    def test_forced_iteration_cap(self, ellipse_paper, monkeypatch):
        # on this ellipse the solve meets its uniform target in fewer GMRES
        # iterations than the left null vector needs, so the limits drop to one
        # restart cycle of 5 only once the null vector has converged
        null_vector, spent = _TwoLevelGmres.null_vector, []

        def then_starve(helper, left):
            v = null_vector(helper, left)
            spent.append(helper.iterations)
            monkeypatch.setattr(solver, "GMRES_MAX_CYCLES", 1)
            monkeypatch.setattr(solver, "GMRES_RESTART", 5)
            return v

        monkeypatch.setattr(_TwoLevelGmres, "null_vector", then_starve)
        lin = LinearProblem(ellipse_paper.generator, ellipse_paper.shift, ellipse_paper.rhs)
        with pytest.raises(MinNormConvergenceError, match="uniform residual") as info:
            solve_min_norm(lin)
        assert f"after {spent[0] + solver.REFINE_ROUNDS * 5} GMRES iterations" in str(info.value)
        assert info.value.best_u.shape == (1000,)
        assert info.value.best_u.any()  # the solve's iterate, not zeros
        assert np.isfinite(info.value.residual)

    @pytest.mark.parametrize("route", ["direct", "min_norm"])
    def test_singular_coarse_matrix_is_named(self, route):
        # not row-stochastic: the entries of B~ (B = S_00 - 1 + eps a = 0 on
        # one point; B~ = [[-1.5, 1], [1, -0.5]] pinned at 0 on two) sum to
        # 0 over their one aggregate, so A_c = R^T B~ R is singular
        if route == "direct":
            with pytest.raises(DirectSolveError, match="preconditioner broke down: the coarse matrix") as info:
                solve_direct(LinearProblem(fake_generator([[2.0]]), np.array([-1.0]), np.array([1.0])))
            assert info.value.residual_inf == 1.0
        else:
            gen = fake_generator([[0.5, 1.0], [1.0, 0.5]])
            with pytest.raises(MinNormConvergenceError, match="preconditioner broke down: the coarse matrix") as info:
                solve_min_norm(LinearProblem(gen, np.zeros(2), np.array([1.0, -1.0])))
        assert not info.value.best_u.any()

    def test_null_vector_zero_at_the_pin_is_named(self):
        # not row-stochastic: B~^T y = -e_0 has y = (0, -2), which no scaling
        # makes 1 at the pin; the solve fails by name, not with a NaN solution
        gen = fake_generator([[0.5, 0.5], [0.5, 1.0]])
        with pytest.raises(MinNormConvergenceError, match=r"left null vector is \S+ at the pin") as info:
            solve_min_norm(LinearProblem(gen, np.zeros(2), np.array([1.0, -1.0])))
        assert info.value.best_u.tolist() == [0.0, 0.0]

    def test_null_vector_at_rounding_level_at_the_pin_is_named(self):
        # B~^T y = -e_0 has y = (0, -2) again, but GMRES leaves y_0 at
        # -1.3e-15, far below what it resolves of y (GMRES_RTOL |y|)
        gen = fake_generator([[0.999, 0.001], [0.5, 1.0]])
        with pytest.raises(MinNormConvergenceError, match=r"left null vector is \S+ at the pin") as info:
            solve_min_norm(LinearProblem(gen, np.zeros(2), np.array([1.0, -1.0])))
        assert info.value.best_u.tolist() == [0.0, 0.0]

    def test_oracle_epsilon_skips_disconnected(self, monkeypatch):
        import lokpde.solver as solver_module

        real = solver_module.solve_direct

        def disconnected_below(problem):
            if problem.generator.epsilon < 1e-4:
                raise DisconnectedGraphError(2, [1])
            return real(problem)

        monkeypatch.setattr(solver_module, "solve_direct", disconnected_below)
        problem = analytic_pair("bvp1d")
        cloud = sample_points(problem.manifold, 100, "uniform_grid")
        coeffs = problem_coefficients(problem, cloud)
        eps, err = solver_module.oracle_epsilon(
            problem, cloud, coeffs, 20, n_coarse=5, n_refine=2, debias=False
        )
        assert eps >= 1e-4 and np.isfinite(err)


class TestReversibleRoute:
    """Every field takes two-level GMRES on the kNN pattern, the isotropic,
    drift-free one too, whose kernel is symmetric."""

    @staticmethod
    def generators():
        rng = np.random.default_rng(12)
        pts = rng.uniform(size=(80, 2))
        cloud = PointCloud(pts, None, "iid_density", ambient_cloud_manifold(2))
        anisotropic = CoefficientField(np.zeros((80, 2)), np.broadcast_to(np.diag([1.0, 3.0]), (80, 2, 2)))
        grid = PointCloud(np.linspace(0.0, 1.0, 30)[:, None], None, "iid_density", ambient_cloud_manifold(1))
        return {
            "isotropic": cloud_generator(pts, 20, 0.05, debias=True),
            "drifted": cloud_generator(pts, 20, 0.05, debias=True, drift=np.full((80, 2), 0.2)),
            "anisotropic": build_operator(cloud, anisotropic, KernelConfig(0.05, 0.05, 20)),
            # isotropic, but the far links of k = N fall below eps and S drops them
            "dropped-link": build_operator(grid, CoefficientField.isotropic(30, 1), KernelConfig(1e-3, 1e-3, 30)),
        }

    @pytest.mark.parametrize("name", ["isotropic", "drifted", "anisotropic", "dropped-link"])
    def test_route_and_result(self, name):
        gen = self.generators()[name]
        n = gen.n_points
        f = np.random.default_rng(13).normal(size=n)
        dense = gen.matrix().toarray()
        a = np.full(n, -1.0)
        rep = solve_direct(LinearProblem(gen, a, f))
        assert rep.coarse_size == _aggregates(gen.points, n)[1] and rep.iterations > 0
        np.testing.assert_allclose(rep.u_hat, np.linalg.solve(dense + np.diag(a), f), atol=1e-9)
        rep = solve_min_norm(LinearProblem(gen, np.zeros(n), f))
        assert rep.coarse_size == _aggregates(gen.points, n)[1] and rep.iterations > 0
        np.testing.assert_allclose(rep.u_hat, np.linalg.pinv(dense) @ f, atol=1e-8)
        assert check_minimum_norm_certificate(rep.u_hat, gen)

    def test_zero_shift_on_one_component_takes_gmres(self):
        # two far isotropic clusters, a = 0 on the second only: its null
        # vectors are not those of the whole S but their restrictions
        rng = np.random.default_rng(14)
        pts = np.vstack([rng.normal(scale=0.1, size=(10, 2)), rng.normal(scale=0.1, size=(10, 2)) + [50.0, 0.0]])
        gen = cloud_generator(pts, 5, 0.05)
        a = np.where(np.arange(20) < 10, -1.0, 0.0)
        f = rng.normal(size=20)
        rep = solve_min_norm(LinearProblem(gen, a, f))
        assert rep.coarse_size is not None
        dense = gen.matrix().toarray() + np.diag(a)
        np.testing.assert_allclose(rep.u_hat, np.linalg.pinv(dense) @ f, atol=1e-8)

    def test_two_clusters_are_disconnected_on_every_field(self):
        # the isotropic, drift-free cloud is no special case: with a drift
        # the same two clusters fail by the same name
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(scale=0.1, size=(10, 2)), rng.normal(scale=0.1, size=(10, 2)) + [50.0, 0.0]])
        f = rng.normal(size=20)
        for drift in (None, np.full((20, 2), 0.2)):
            gen = cloud_generator(pts, 5, 0.05, drift=drift)
            with pytest.raises(DisconnectedGraphError) as info:
                solve(LinearProblem(gen, np.zeros(20), f))
            assert (info.value.n_classes, info.value.extra_points) == (2, [10])

    def test_direct_failure_is_named_on_the_isotropic_field(self, monkeypatch):
        gen = self.generators()["isotropic"]
        monkeypatch.setattr(solver, "GMRES_MAX_CYCLES", 1)
        monkeypatch.setattr(solver, "GMRES_RESTART", 2)
        f = np.random.default_rng(15).normal(size=80)
        with pytest.raises(DirectSolveError, match=f"after {solver.REFINE_ROUNDS * 2} GMRES iterations") as info:
            solve_direct(LinearProblem(gen, np.full(80, -1.0), f))
        assert info.value.best_u.shape == (80,) and info.value.best_u.any()
        assert info.value.residual_inf > solver.DIRECT_RESIDUAL_RTOL * np.abs(f).max()

    def test_min_norm_failure_is_named_on_the_isotropic_field(self, monkeypatch):
        # one restart cycle of 2 iterations cannot reach the left null vector
        gen = self.generators()["isotropic"]
        monkeypatch.setattr(solver, "GMRES_MAX_CYCLES", 1)
        monkeypatch.setattr(solver, "GMRES_RESTART", 2)
        f = np.random.default_rng(16).normal(size=80)
        with pytest.raises(MinNormConvergenceError, match="no left null vector after 2 GMRES iterations") as info:
            solve_min_norm(LinearProblem(gen, np.zeros(80), f))
        assert info.value.best_u.shape == (80,)
        assert np.isfinite(info.value.residual)


@st.composite
def small_systems(draw, drifted=st.just(True)):
    """A random 1-3-D cloud in the unit cube with drift (none where
    ``drifted`` draws False), a bandwidth, k in [N/3, N], a random f, a
    random negative shift and a permutation."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(10, 60))
    k = draw(st.integers(-(-n // 3), n))
    eps = draw(st.floats(0.02, 0.3))
    debias = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(size=(n, dim))
    drift = rng.uniform(-1.0, 1.0, size=(n, dim)) if draw(drifted) else np.zeros((n, dim))
    gen = cloud_generator(pts, k, eps, debias, drift)
    a = -rng.uniform(0.5, 2.0, size=n)
    return pts, drift, k, eps, debias, gen, rng.normal(size=n), a, rng.permutation(n)


class TestSolverProperties:
    @settings(max_examples=60)
    @given(small_systems())
    def test_min_norm_is_the_pseudo_inverse(self, system):
        _, _, _, _, _, gen, f, a, perm = system
        n = gen.n_points
        assume(_null_classes(gen.s_matrix, np.zeros(n)).size == 1)
        dense = gen.matrix().toarray()
        rep = solve_min_norm(LinearProblem(gen, np.zeros(n), f))
        np.testing.assert_allclose(rep.u_hat, np.linalg.pinv(dense) @ f, atol=1e-8)
        assert check_minimum_norm_certificate(rep.u_hat, gen)
        # a = 0 on half the points, negative elsewhere: nonsingular
        mixed = np.where(perm < n // 2, 0.0, a)
        rep = solve_min_norm(LinearProblem(gen, mixed, f))
        np.testing.assert_allclose(
            rep.u_hat, np.linalg.solve(dense + np.diag(mixed), f), atol=1e-8
        )

    @settings(max_examples=60)
    @given(small_systems())
    def test_null_vectors(self, system):
        # the pinned system -B~ = -B + e_q e_q^T is a Z-matrix, and w B~ = -e_q^T
        # is w (a + L) = 0 with w_q = 1
        _, _, _, _, _, gen, _, _, _ = system
        n = gen.n_points
        classes = _null_classes(gen.s_matrix, np.zeros(n))
        assume(classes.size == 1)
        q = int(classes[0])
        b, dense = dense_b(gen, np.zeros(n)), gen.matrix().toarray()
        with _TwoLevelGmres(gen, np.zeros(n), q) as helper:
            pinned = -helper.matrix.toarray()
            assert (pinned[~np.eye(n, dtype=bool)] <= 0.0).all()
            e_qq = np.zeros((n, n))
            e_qq[q, q] = 1.0
            np.testing.assert_allclose(pinned + b, e_qq, rtol=0, atol=1e-15)
            w = helper.null_vector(left=True)
            assert w[q] == 1.0
            assert np.abs(w @ dense).max() <= 1e-8 * np.abs(w).max()
            assert np.abs(w @ dense).max() <= 1e-9 * np.abs(w).sum() * np.abs(dense).max()
            np.testing.assert_allclose(helper.null_vector(left=False), 1.0, atol=1e-9)

    @settings(max_examples=60)
    @given(small_systems())
    def test_direct_is_the_inverse(self, system):
        _, _, _, _, _, gen, f, a, _ = system
        rep = solve_direct(LinearProblem(gen, a, f))
        dense = gen.matrix().toarray() + np.diag(a)
        np.testing.assert_allclose(rep.u_hat, np.linalg.solve(dense, f), atol=1e-9)

    @settings(max_examples=60)
    @given(small_systems())
    def test_permutation_equivariance(self, system):
        pts, drift, k, eps, debias, gen, f, a, perm = system
        assume(_null_classes(gen.s_matrix, np.zeros(gen.n_points)).size == 1)
        n = gen.n_points
        gen_p = cloud_generator(pts[perm], k, eps, debias, drift[perm])
        for shift in (np.zeros(n), a):
            u = solve(LinearProblem(gen, shift, f)).u_hat
            u_p = solve(LinearProblem(gen_p, shift[perm], f[perm])).u_hat
            np.testing.assert_allclose(u_p, u[perm], atol=1e-9)


def dense_b(gen, shift):
    """B = eps (diag(a) + L) = S - I + eps diag(a), dense."""
    return gen.s_matrix.toarray() - np.eye(gen.n_points) + gen.epsilon * np.diag(shift)


def closed_class_oracle(dense, shift):
    """The smallest point of each closed class of ``dense`` with a = 0 on it,
    from the transitive closure (Warshall) of the entries above machine
    epsilon: a class is closed when every point reachable from it reaches
    it back."""
    n = dense.shape[0]
    reach = (dense > np.finfo(float).eps) | np.eye(n, dtype=bool)
    for m in range(n):
        reach |= reach[:, m, None] & reach[None, m, :]
    same = reach & reach.T
    closed = (reach <= reach.T).all(axis=1)
    return [i for i in range(n) if closed[i] and not same[i, :i].any() and not shift[same[i]].any()]


@st.composite
def sparse_graphs(draw):
    """A random sparse pattern with weights 1, 0.3 or 1e-17 (below machine
    epsilon, so not an edge), a <= 0 zero at some points, and a row-block
    size for the edge scan; N above 256 spans the default blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 40), st.integers(257, 300)))
    edges = rng.random((n, n)) < draw(st.sampled_from([0.5, 2.0, 5.0])) / n
    dense = np.where(edges, rng.choice([1.0, 0.3, 1e-17], size=(n, n)), 0.0)
    shift = np.where(rng.random(n) < draw(st.sampled_from([0.0, 0.2, 1.0])), -1.0, 0.0)
    return dense, shift, draw(st.sampled_from([1, 3, 7, kernels._CHUNK_ROWS]))


class TestNullClasses:
    @settings(max_examples=150)
    @given(sparse_graphs())
    def test_blocked_edge_scan_matches_the_transitive_closure(self, graph):
        dense, shift, block_rows = graph
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_CHUNK_ROWS", block_rows)
            # unit self-loops give every row a positive sum and change no class
            gen = left_normalize(SparseKernelMatrix(scipy.sparse.csr_matrix(dense + np.eye(len(dense))), 1.0))
            classes = _null_classes(gen.s_matrix, shift)
        assert classes.tolist() == closed_class_oracle(dense, shift)

    @pytest.mark.parametrize("empty", [0, 2, 3])
    def test_a_row_without_links_is_absorbing(self, empty):
        # S built by hand may leave a row without entries: the point reaches
        # nothing but itself, so it is a closed class of its own
        dense = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        dense[empty] = 0.0
        s = scipy.sparse.csr_matrix(dense)
        assert np.diff(s.indptr)[empty] == 0
        assert _null_classes(s, np.zeros(4)).tolist() == closed_class_oracle(dense, np.zeros(4))

    def test_reads_s_as_its_own_graph(self, torus_paper):
        # no pattern is built: the torus S (793 523 links, 9.5 MB) is passed as it is
        s = torus_paper.generator.s_matrix
        zero = np.zeros(s.shape[0])
        tracemalloc.start()
        try:
            assert _null_classes(s, zero).size == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < s.nnz * 4


class CountingProducts:
    """A sparse matrix that appends to ``products`` at each product with a vector."""

    def __init__(self, matrix, products):
        self._matrix, self._products = matrix, products

    def __matmul__(self, other):
        if isinstance(other, np.ndarray):
            self._products.append(other.shape)
        return self._matrix @ other

    def __getattr__(self, name):
        return getattr(self._matrix, name)


def aggregation(gen):
    """R (N x coarse order) with R_iI = 1 where point i lies in aggregate I."""
    labels, size = _aggregates(gen.points, gen.n_points)
    return np.eye(size)[labels]


class TestTwoLevelPreconditioner:
    @settings(max_examples=60)
    @given(small_systems())
    def test_coarse_matrix_is_an_m_matrix(self, system):
        # A_c = R^T B~ R; -B~ is a nonsingular M-matrix, with and without the
        # pin, so -A_c is one too, and its inverse is entrywise nonnegative;
        # A_c is formed on entry to the system
        _, _, _, _, _, gen, _, a, _ = system
        n = gen.n_points
        classes = _null_classes(gen.s_matrix, np.zeros(n))
        cases = [(a, None)] + ([(np.zeros(n), int(classes[0]))] if classes.size == 1 else [])
        r = aggregation(gen)
        for shift, pinned in cases:
            b = dense_b(gen, shift)
            if pinned is not None:
                b[pinned, pinned] -= 1.0
            coarse = r.T @ b @ r
            assert (coarse[~np.eye(len(coarse), dtype=bool)] >= 0.0).all()
            assert (coarse.sum(axis=1) <= 1e-12 * np.abs(coarse).max()).all()
            with _TwoLevelGmres(gen, shift, pinned) as helper:
                inverse = helper._coarse_inverse
            np.testing.assert_allclose(inverse @ coarse, np.eye(len(coarse)), atol=1e-8)
            assert (-inverse >= -1e-10 * np.abs(inverse).max()).all()

    @settings(max_examples=60)
    @given(small_systems())
    def test_cycle_matches_its_dense_definition(self, system):
        # one damped Jacobi pre-sweep and the coarse correction,
        # M^-1 = omega D^-1 + R A_c^-1 R^T (I - B~ omega D^-1), returned with
        # B~ M^-1 v; the transposed system runs the same cycle on B~^T and A_c^T
        _, _, _, _, _, gen, v, a, _ = system
        n = gen.n_points
        classes = _null_classes(gen.s_matrix, np.zeros(n))
        cases = [(a, None)] + ([(np.zeros(n), int(classes[0]))] if classes.size == 1 else [])
        r = aggregation(gen)
        for shift, pinned in cases:
            b = dense_b(gen, shift)
            if pinned is not None:
                b[pinned, pinned] -= 1.0
            sweep = np.diag(solver.JACOBI_WEIGHT / np.diag(b))
            with _TwoLevelGmres(gen, shift, pinned) as helper:
                for transposed, matrix in ((False, b), (True, b.T)):
                    cycle = sweep + r @ np.linalg.solve(r.T @ matrix @ r, r.T @ (np.eye(n) - matrix @ sweep))
                    z, image = helper._precondition(v, transposed)
                    want = cycle @ v
                    assert np.abs(z - want).max() <= 1e-12 * np.abs(want).max()
                    assert np.abs(image - matrix @ want).max() <= 1e-12 * np.abs(matrix @ want).max()

    @pytest.mark.parametrize("transposed", [False, True])
    def test_one_product_with_b_per_iteration(self, transposed, monkeypatch):
        # the cycle returns B~ M^-1 v, so an iteration makes one product with
        # B~ (B~^T); a restart cycle adds one in its closing application of
        # M^-1 and one for its residual, and a refinement round one for its
        # residual; the products with B~ R (B~^T R) are not of S's size
        gen, a, f = borrow_cases()
        monkeypatch.setattr(solver, "GMRES_RESTART", 10)
        applications, products = [], []
        precondition = _TwoLevelGmres._precondition

        def spy(system, v, transposed):
            applications.append(v.size)
            return precondition(system, v, transposed)

        monkeypatch.setattr(_TwoLevelGmres, "_precondition", spy)
        with _TwoLevelGmres(gen, a, None) as helper:
            held = helper.matrix, helper._transposed
            helper.matrix, helper._transposed = (CountingProducts(m, products) for m in held)
            try:
                _, converged = helper._gmres(f, transposed)
                iterations, cycles = helper.iterations, len(applications) - helper.iterations
                assert converged and cycles > 1
                assert len(products) <= iterations + 2 * cycles
                if not transposed:
                    del applications[:], products[:]
                    helper.iterations = 0
                    helper.solve(f, solver.DIRECT_RESIDUAL_RTOL * np.abs(f).max())
                    cycles = len(applications) - helper.iterations
                    assert len(products) <= helper.iterations + 2 * cycles + solver.REFINE_ROUNDS
            finally:
                helper.matrix, helper._transposed = held

    def test_aggregates_are_median_leaves_up_to_the_coarse_cap(self):
        rng = np.random.default_rng(5)
        for n in (7, 100, COARSE_POINTS * COARSE_MAX_ORDER, COARSE_POINTS * COARSE_MAX_ORDER + 1):
            points = rng.normal(size=(n, 3))
            labels, size = _aggregates(points, n)
            leaf = max(COARSE_POINTS, -(-n // COARSE_MAX_ORDER))
            order = kernels._median_order(np.ascontiguousarray(points.T), np.arange(n), leaf)
            assert size == -(-n // leaf) <= COARSE_MAX_ORDER
            np.testing.assert_array_equal(labels[order], np.arange(n) // leaf)
        # without coordinates the aggregates run in the points' own numbering
        np.testing.assert_array_equal(_aggregates(None, 20)[0], np.arange(20) // COARSE_POINTS)

    @settings(max_examples=30)
    @given(small_systems())
    def test_matrix_is_b_in_natural_order(self, system):
        # a pin q lowers B_qq by 1; the solver pins only the one closed class
        _, _, _, _, _, gen, f, a, _ = system
        n = gen.n_points
        classes = _null_classes(gen.s_matrix, np.zeros(n))
        cases = [(a, None)] + ([(np.zeros(n), int(classes[0]))] if classes.size == 1 else [])
        for shift, pinned in cases:
            b = dense_b(gen, shift)
            if pinned is not None:
                b[pinned, pinned] -= 1.0
            with _TwoLevelGmres(gen, shift, pinned) as helper:
                np.testing.assert_allclose(helper.matrix @ f, b @ f, rtol=1e-13, atol=1e-13)
                np.testing.assert_allclose(helper.matrix.T @ f, b.T @ f, rtol=1e-13, atol=1e-13)

    def test_flat_rows_match_the_dense_solves(self):
        # k = N and eps far above the squared diameter: every S_ij is about
        # 1/N, below 1e-2 |B_ii|, the rows on which an incomplete LU that
        # prunes by magnitude keeps only the diagonal
        n = 150
        rng = np.random.default_rng(3)
        gen = cloud_generator(rng.uniform(size=(n, 2)), n, 100.0)
        f = rng.normal(size=n)
        dense = gen.matrix().toarray()
        rep = solve_direct(LinearProblem(gen, np.full(n, -1.0), f))
        np.testing.assert_allclose(rep.u_hat, np.linalg.solve(dense - np.eye(n), f), atol=1e-9)
        rep = solve_min_norm(LinearProblem(gen, np.zeros(n), f))
        np.testing.assert_allclose(rep.u_hat, np.linalg.pinv(dense) @ f, atol=1e-8)

    @pytest.mark.parametrize("eps", [1e-3, 3.2e-3, 1e-2])
    def test_flat_bvp1d_rows_need_few_iterations(self, eps):
        # N = 4000, k = 100: a kernel wide against the spacing; the pruned
        # ILU of earlier versions needed 90 to 264 GMRES iterations here, and
        # the unpruned ILU(1e-2) 16 to 74
        problem = analytic_pair("bvp1d")
        cloud = sample_points(problem.manifold, 4000, "uniform_grid")
        coeffs = problem_coefficients(problem, cloud)
        gen = build_operator(cloud, coeffs, KernelConfig(eps, eps, 100), debias=False)
        x = cloud.intrinsic
        rep = solve_direct(LinearProblem(gen, problem.shift(x), problem.f(x)))
        assert rep.iterations <= 74

    def test_bvp1d_paper_bandwidth_needs_few_iterations(self):
        # N = 4000, eps = 2e-6: the unpruned ILU(1e-2) needed 99 iterations
        problem = analytic_pair("bvp1d")
        cloud = sample_points(problem.manifold, 4000, "uniform_grid")
        coeffs = problem_coefficients(problem, cloud)
        gen = build_operator(cloud, coeffs, KernelConfig(2e-6, 2e-6, 100), debias=False)
        x = cloud.intrinsic
        rep = solve_direct(LinearProblem(gen, problem.shift(x), problem.f(x)))
        assert rep.iterations < 60

    @pytest.mark.parametrize("eps", [1.7e-3, 3e-3])
    def test_stalled_restart_cycle_fails_early(self, eps):
        # the torus at N = 256, k = 64 is nearly disconnected at these
        # bandwidths: a restart cycle too slow to reach the target within
        # the cap ends the GMRES call, and the solve meets its contract or
        # fails by name in under 300 iterations, not after the cap's 1000
        problem = analytic_pair("torus")
        cloud = sample_points(problem.manifold, 256, "uniform_grid")
        coeffs = problem_coefficients(problem, cloud)
        gen = build_operator(cloud, coeffs, KernelConfig(eps, eps, 64))
        x = cloud.intrinsic
        f = problem.f(x)
        try:
            rep = solve_min_norm(LinearProblem(gen, problem.shift(x), f))
        except MinNormConvergenceError as exc:
            spent = int(re.search(r"after (\d+) GMRES iterations", str(exc)).group(1))
            assert spent < 300 and "cut the residual too slowly" in str(exc)
        else:
            assert rep.iterations < 300
            assert np.abs(gen.apply(rep.u_hat) - f).max() <= 1e-6 * np.abs(f).max()


def borrow_cases():
    """(generator, a < 0, f) on an 80-point drifted cloud in the unit
    square whose S has one closed class."""
    rng = np.random.default_rng(8)
    pts = rng.uniform(size=(80, 2))
    gen = cloud_generator(pts, 20, 0.05, drift=np.full((80, 2), 0.1))
    return gen, -rng.uniform(0.5, 2.0, size=80), rng.normal(size=80)


class TestBorrowedS:
    """The Krylov calls run on S's own data with B~'s diagonal written in,
    and S is given back bit for bit, whether the solve meets its contract
    or fails by name."""

    @pytest.mark.parametrize("route", ["gmres"])  # the solve's one Krylov route
    @pytest.mark.parametrize("outcome", ["direct", "min_norm", "direct fails", "min_norm fails"])
    def test_s_is_borrowed_and_given_back(self, route, outcome, monkeypatch):
        gen, a, f = borrow_cases()
        s = gen.s_matrix
        before = [s.data.copy(), s.indices.copy(), s.indptr.copy()]
        borrowed = []
        gmres = _TwoLevelGmres._gmres

        def spy(system, *args, **kwargs):
            borrowed.append(np.shares_memory(system.matrix.data, s.data))
            return gmres(system, *args, **kwargs)

        monkeypatch.setattr(_TwoLevelGmres, "_gmres", spy)
        if outcome.endswith("fails"):  # one cycle of 2 GMRES iterations per call
            monkeypatch.setattr(solver, "GMRES_MAX_CYCLES", 1)
            monkeypatch.setattr(solver, "GMRES_RESTART", 2)
        if outcome.startswith("direct"):
            run, error = lambda: solve_direct(LinearProblem(gen, a, f)), DirectSolveError
        else:
            run, error = lambda: solve_min_norm(LinearProblem(gen, np.zeros(80), f)), MinNormConvergenceError
        if outcome.endswith("fails"):
            with pytest.raises(error, match=rf"after \d+ {route.upper()} iterations"):
                run()
        else:
            assert run().coarse_size is not None
        assert borrowed and all(borrowed)
        for array, saved in zip((s.data, s.indices, s.indptr), before):
            assert array.dtype == saved.dtype and array.tobytes() == saved.tobytes()

    @pytest.mark.parametrize("outcome", ["singular coarse matrix", "error after the pin"])
    def test_failure_on_entry_gives_everything_back(self, outcome, monkeypatch):
        # S = [[2]] is borrowed (canonical, writable, diagonal stored), and
        # with a = -1 B~ = [[0]], so A_c = [[0]] is singular; on the drifted
        # cloud the coarse inverse itself fails, after the pin and after
        # B~'s diagonal is written over S's; either way the entry gives S
        # and the OpenBLAS thread count back before it raises
        threads = solver._openblas_threads()
        count = threads[0] if threads is not None else lambda: None
        if outcome == "singular coarse matrix":
            gen, a, f = fake_generator([[2.0]]), np.array([-1.0]), np.array([1.0])
            error, match = DirectSolveError, "preconditioner broke down: the coarse matrix is singular"
        else:
            gen, a, f = borrow_cases()
            error, match = MemoryError, "forced"
        s, inside = gen.s_matrix, []
        assert s.has_canonical_format and s.data.flags.writeable and s.diagonal().all()
        before, before_count = [s.data.copy(), s.indices.copy(), s.indptr.copy()], count()

        def broken(matrix):
            inside.append((count(), not np.array_equal(s.data, before[0])))
            raise MemoryError("forced")

        if outcome == "error after the pin":
            monkeypatch.setattr(solver.np.linalg, "inv", broken)
        with pytest.raises(error, match=match):
            solve_direct(LinearProblem(gen, a, f))
        if outcome == "error after the pin":
            assert inside == [(1 if threads is not None else None, True)]
        for array, saved in zip((s.data, s.indices, s.indptr), before):
            assert array.dtype == saved.dtype and array.tobytes() == saved.tobytes()
        assert count() == before_count

    @pytest.mark.parametrize("route", ["gmres"])  # the solve's one Krylov route
    @pytest.mark.parametrize("case", ["no diagonal in row 0", "read-only data", "row 0's diagonal stored twice"])
    def test_copy_when_s_cannot_be_borrowed(self, route, case):
        # symmetric, doubly stochastic S; without a diagonal entry in row 0,
        # B~ needs one inserted, read-only data cannot take B~'s, and setting
        # a diagonal stored twice sums S's duplicates, which rewrites the
        # index arrays: the system then takes a copy of S with the diagonal
        # set, quietly, and S keeps its own arrays
        dense = np.array({
            "no diagonal in row 0": [[0.0, 0.5, 0.5], [0.5, 0.25, 0.25], [0.5, 0.25, 0.25]],
            "read-only data": [[0.25, 0.25, 0.5], [0.25, 0.5, 0.25], [0.5, 0.25, 0.25]],
            "row 0's diagonal stored twice": [[0.25, 0.25, 0.5], [0.25, 0.5, 0.25], [0.5, 0.25, 0.25]],
        }[case])
        s = scipy.sparse.csr_matrix(dense)
        if case == "read-only data":
            s.data.flags.writeable = False
        if case == "row 0's diagonal stored twice":
            s = scipy.sparse.csr_matrix(
                (np.r_[0.125, 0.125, s.data[1:]], np.r_[0, s.indices], np.r_[0, s.indptr[1:] + 1]), shape=(3, 3)
            )
            assert not s.has_canonical_format
        gen = GeneratorMatrix(s, 1.0, np.ones(3))
        before = [s.data.copy(), s.indices.copy(), s.indptr.copy()]
        a, f = np.array([-1.0, -0.5, -2.0]), np.array([1.0, -2.0, 0.5])
        b = dense - np.eye(3) + np.diag(a)
        system = _TwoLevelGmres(gen, a, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with system as helper:
                assert not np.shares_memory(helper.matrix.data, s.data)
                np.testing.assert_array_equal(helper.matrix.toarray(), b)
            rep = solve_direct(LinearProblem(gen, a, f))
            assert rep.coarse_size == 1
            np.testing.assert_allclose(rep.u_hat, np.linalg.solve(b, f), atol=1e-10)
            rep = solve_min_norm(LinearProblem(gen, np.zeros(3), f))
            np.testing.assert_allclose(rep.u_hat, np.linalg.pinv(dense - np.eye(3)) @ f, atol=1e-8)
        for array, saved in zip((s.data, s.indices, s.indptr), before):
            assert array.tobytes() == saved.tobytes()

    @pytest.mark.parametrize("fixture", ["torus_paper", "sphere_run"])
    def test_solve_allocates_no_copy_of_s(self, fixture, request):
        # a copy of S's data is nnz doubles (6.3 MB on the torus, 9.6 MB on
        # the sphere); the solve's own arrays are N-vectors and row-block
        # temporaries, the Krylov basis and the coarse inverse
        run = request.getfixturevalue(fixture)
        gen = run.generator
        n, nnz = gen.n_points, gen.s_matrix.nnz
        shift = run.shift if fixture == "torus_paper" else np.zeros(n)
        problem = LinearProblem(gen, shift, run.rhs)
        tracemalloc.start()
        try:
            report = solve(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        own = (solver.GMRES_RESTART + 1) * n * 8 + report.coarse_size**2 * 8
        assert peak < own + nnz * 8 / 2


class TestOneBlasThread:
    def test_the_solve_runs_on_one_thread_and_restores_the_count(self, monkeypatch):
        threads = solver._openblas_threads()
        if threads is None:
            pytest.skip("numpy links no OpenBLAS of its own")
        get = threads[0]
        before, seen = get(), []
        gmres = _TwoLevelGmres._gmres

        def spy(system, *args, **kwargs):
            seen.append(get())
            return gmres(system, *args, **kwargs)

        monkeypatch.setattr(_TwoLevelGmres, "_gmres", spy)
        gen = small_generator(n=20, seed=4)
        f = gen.apply(np.random.default_rng(4).normal(size=20))
        solve(LinearProblem(gen, np.zeros(20), f))  # the left null vector and the solve
        assert len(seen) >= 2 and set(seen) == {1} and get() == before
        with pytest.raises(DisconnectedGraphError):  # raised before the system pins the count
            solve_min_norm(LinearProblem(fake_generator(np.eye(3)), np.zeros(3), np.ones(3)))
        assert get() == before
        with pytest.raises(DirectSolveError, match="coarse matrix is singular"):  # raised on entry, after the pin
            solve_direct(LinearProblem(fake_generator([[2.0]]), np.array([-1.0]), np.array([1.0])))
        assert get() == before


class TestKrylov:
    """The solver's own GMRES against numpy's dense solve."""

    @settings(max_examples=60)
    @given(small_systems(drifted=st.booleans()))
    def test_gmres_matches_the_dense_solve(self, system):
        _, _, _, _, _, gen, f, a, _ = system
        b = dense_b(gen, a)
        with _TwoLevelGmres(gen, a, None) as helper:
            for transposed, matrix in ((False, b), (True, b.T)):
                x, converged = helper._gmres(f, transposed)
                assert converged
                assert np.linalg.norm(matrix @ x - f) <= 1.01 * solver.GMRES_RTOL * np.linalg.norm(f)
                exact = np.linalg.solve(matrix, f)
                np.testing.assert_allclose(x, exact, atol=1e-10 * np.linalg.cond(matrix) * np.abs(exact).max())


class TestOraclePins:
    def test_torus_matches_lsqr(self, torus_paper):
        run = torus_paper
        oracle = lsqr_min_norm(run.generator.shifted_matrix(run.shift), run.rhs)
        assert np.abs(run.report.u_hat - oracle).max() <= 1e-7

    def test_sphere_direct_matches_splu(self, sphere_run):
        gen = sphere_run.generator
        a = np.full(3000, -1.0)
        f = -7.0 * sphere_run.u_true
        rep = solve_direct(LinearProblem(gen, a, f))
        assert rep.residual_inf <= 1e-10 * np.abs(f).max()
        oracle = splu_solve(gen, a, f)
        assert np.abs(rep.u_hat - oracle).max() <= 1e-9 * np.abs(oracle).max()

    @pytest.mark.parametrize("eps", [1e-8, 1e-7])
    def test_narrow_bandwidth_direct_matches_splu(self, eps):
        # S is nearly I here: B's diagonal (S_ii - 1) + eps a_i must keep
        # its relative accuracy, which S_ii + (eps a_i - 1) loses
        problem = analytic_pair("bvp1d")
        cloud = sample_points(problem.manifold, 1000, "uniform_grid")
        coeffs = problem_coefficients(problem, cloud)
        gen = build_operator(cloud, coeffs, KernelConfig(eps, eps, 100), debias=False)
        x = cloud.intrinsic
        a, f = problem.shift(x), problem.f(x)
        oracle = splu_solve(gen, a, f)
        u = solve_direct(LinearProblem(gen, a, f)).u_hat
        assert np.abs(u - oracle).max() <= 1e-11 * np.abs(oracle).max()

    @pytest.mark.parametrize("b", [1.0, 10.0, 100.0, 1000.0])
    def test_bvp1d_drift_sweep_direct_matches_splu(self, b):
        problem = analytic_pair("bvp1d", b=b)
        cloud = sample_points(problem.manifold, 1000, "uniform_grid")
        coeffs = problem_coefficients(problem, cloud)
        gen = build_operator(cloud, coeffs, KernelConfig(2e-6, 2e-6, 100), debias=False)
        x = cloud.intrinsic
        a, f = problem.shift(x), problem.f(x)
        rep = solve_direct(LinearProblem(gen, a, f))
        assert rep.residual_inf <= 1e-10 * np.abs(f).max()
        oracle = splu_solve(gen, a, f)
        assert np.abs(rep.u_hat - oracle).max() <= 1e-9 * np.abs(oracle).max()


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

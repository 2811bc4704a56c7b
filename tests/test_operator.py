import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from lokpde import operator
from lokpde.geometry import (
    CoefficientField,
    PointCloud,
    ambient_cloud_manifold,
    sample_points,
    sample_sphere,
)
from lokpde.kernels import KernelConfig, SparseKernelMatrix, assemble_kernel_matrix, build_knn_graph
from lokpde.operator import (
    DensityEstimate,
    build_operator,
    default_epsilon_grid,
    estimate_density,
    left_normalize,
    right_normalize,
    tune_bandwidth,
    tune_gaussian_bandwidth,
)
from lokpde.problems import analytic_pair, problem_coefficients
from test_kernels import PAPER_GRIDS, brute_knn, paper_cloud, tie_clouds


def make_cloud(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return PointCloud(pts, None, "iid_density", ambient_cloud_manifold(pts.shape[1]))


def dense_tuning(cloud, coeffs, grid):
    """Dense oracle: every (grid point, i, j) term, 512-row chunks.

    Returns (log_q, epsilon_star, d_hat); the last two are None when no
    slope is usable.
    """
    pts = cloud.ambient
    n = pts.shape[0]
    totals = np.zeros(grid.size)
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        diff = pts[start:stop, None, :] - pts[None, :, :]
        ci = coeffs.diffusion_inv[start:stop]
        b = coeffs.drift[start:stop]
        civ = np.einsum("mnp,mjp->mjn", ci, diff)
        q0 = np.einsum("mjn,mjn->mj", diff, civ)
        q1 = np.einsum("mn,mjn->mj", b, civ)
        q2 = np.einsum("mn,mnp,mp->m", b, ci, b)[:, None]
        for idx, eps in enumerate(grid):
            quad = q0 + (2.0 * eps) * q1 + (eps * eps) * q2
            totals[idx] += np.exp(-quad / (2.0 * eps)).sum()
    with np.errstate(divide="ignore"):
        log_q = np.log(totals / (n * n))
    log_e = np.log(grid)
    slope = np.full_like(log_q, np.nan)
    with np.errstate(invalid="ignore"):
        slope[1:-1] = (log_q[2:] - log_q[:-2]) / (log_e[2:] - log_e[:-2])
        slope[0] = (log_q[1] - log_q[0]) / (log_e[1] - log_e[0])
        slope[-1] = (log_q[-1] - log_q[-2]) / (log_e[-1] - log_e[-2])
    bad = ~np.isfinite(log_q)
    slope[np.convolve(bad, [True, True, True], mode="same")] = np.nan
    if not np.isfinite(slope).any():
        return log_q, None, None
    best = int(np.nanargmax(slope))
    return log_q, float(grid[best]), float(2.0 * slope[best])


def chunk_density(cloud, tilde_epsilon, indices):
    """Oracle: the 512-row chunk loop that recomputed each neighbour's d^2."""
    pts = cloud.ambient
    q = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], 512):
        stop = min(start + 512, pts.shape[0])
        diff = pts[start:stop, None, :] - pts[indices[start:stop]]
        d2 = np.einsum("mkn,mkn->mk", diff, diff)
        q[start:stop] = np.exp(-d2 / (2.0 * tilde_epsilon)).sum(axis=1)
    return q


def assert_matches_oracle(rep, oracle):
    log_q, eps_star, d_hat = oracle
    finite = np.isfinite(log_q)
    np.testing.assert_array_equal(np.isfinite(rep.log_q), finite)
    np.testing.assert_array_equal(rep.log_q[~finite], log_q[~finite])
    np.testing.assert_allclose(rep.log_q[finite], log_q[finite], rtol=0, atol=1e-12)
    assert rep.epsilon_star == eps_star
    assert abs(rep.d_hat - d_hat) <= 1e-12


def circle_cloud(n):
    theta = 2 * np.pi * np.arange(n) / n
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return PointCloud(pts, None, "uniform_grid", ambient_cloud_manifold(2, 1))


class TestDensityEstimate:
    def test_self_term_only(self):
        # far-separated pair: the cross term underflows, leaving the self term
        cloud = make_cloud([[0.0], [1e6]])
        q = estimate_density(cloud, 1.0, 2)
        np.testing.assert_array_equal(q.q_hat, [1.0, 1.0])

    def test_two_points_at_characteristic_distance(self):
        cloud = make_cloud([[0.0], [np.sqrt(2 * 0.3)]])
        q = estimate_density(cloud, 0.3, 2)
        np.testing.assert_allclose(q.q_hat, 1 + np.exp(-1.0))

    def test_uniform_grid_interior_flat(self):
        n = 400
        cloud = make_cloud(np.linspace(0, 1, n)[:, None])
        q = estimate_density(cloud, 1e-4, 50)
        # direct summation oracle at a few interior points
        pts = cloud.ambient[:, 0]
        for i in (100, 200, 311):
            expected = np.exp(-((pts[i] - pts) ** 2) / 2e-4)
            expected = np.sort(expected)[-50:].sum()
            np.testing.assert_allclose(q.q_hat[i], expected, rtol=1e-12)
        interior = q.q_hat[40:-40]
        assert interior.max() / interior.min() <= 1.01

    def test_positive_validation(self):
        with pytest.raises(ValueError, match="strictly positive"):
            DensityEstimate(np.array([1.0, 0.0]), 0.1)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(tie_clouds(), st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
    def test_tie_clouds_match_chunk_loop(self, inputs, tilde_epsilon):
        cloud, k = inputs
        q = estimate_density(cloud, tilde_epsilon, k)
        indices, _ = brute_knn(cloud.ambient, k)
        np.testing.assert_array_equal(q.q_hat, chunk_density(cloud, tilde_epsilon, indices))

    @pytest.mark.parametrize("name", [*PAPER_GRIDS, "sphere"])
    def test_paper_clouds_match_chunk_loop(self, name):
        # the search's indices equal the brute oracle's (test_kernels)
        cloud, k, tilde_epsilon = paper_cloud(name)
        neighbors = build_knn_graph(cloud, k)
        q = estimate_density(cloud, tilde_epsilon, k, neighbors)
        np.testing.assert_array_equal(q.q_hat, chunk_density(cloud, tilde_epsilon, neighbors[0]))


class TestRightNormalize:
    def base_kernel(self, n=5, seed=0):
        rng = np.random.default_rng(seed)
        cloud = make_cloud(rng.normal(size=(n, 2)))
        coeffs = CoefficientField.isotropic(n, 2)
        return assemble_kernel_matrix(cloud, coeffs, KernelConfig(0.5, 0.5, n))

    def test_unit_density_is_identity(self):
        km = self.base_kernel()
        out = right_normalize(km, DensityEstimate(np.ones(5), 0.5))
        np.testing.assert_array_equal(out.matrix.toarray(), km.matrix.toarray())

    def test_constant_density_scales(self):
        km = self.base_kernel()
        out = right_normalize(km, DensityEstimate(np.full(5, 2.0), 0.5))
        np.testing.assert_array_equal(out.matrix.toarray(), km.matrix.toarray() / 2.0)

    def test_matches_dense_product(self):
        rng = np.random.default_rng(8)
        km = self.base_kernel(seed=8)
        q = rng.uniform(0.5, 2.0, size=5)
        out = right_normalize(km, DensityEstimate(q, 0.5))
        expected = km.matrix.toarray() @ np.diag(1.0 / q)
        np.testing.assert_allclose(out.matrix.toarray(), expected, rtol=1e-15)

    def test_size_mismatch(self):
        km = self.base_kernel()
        with pytest.raises(ValueError, match="does not match"):
            right_normalize(km, DensityEstimate(np.ones(4), 0.5))


class TestLeftNormalize:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        cloud = make_cloud(rng.normal(size=(40, 3)))
        km = assemble_kernel_matrix(
            cloud, CoefficientField.isotropic(40, 3), KernelConfig(0.4, 0.4, 10)
        )
        gen = left_normalize(km)
        sums = np.asarray(gen.s_matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        np.testing.assert_allclose(
            gen.row_sums, np.asarray(km.matrix.sum(axis=1)).ravel(), rtol=1e-15
        )

    def test_two_point_formula(self):
        mat = scipy.sparse.csr_matrix(np.array([[1.0, np.exp(-1)], [np.exp(-1), 1.0]]))
        gen = left_normalize(SparseKernelMatrix(mat, 0.1))
        expected = np.array([1.0, np.exp(-1)]) / (1 + np.exp(-1))
        np.testing.assert_allclose(gen.s_matrix.toarray()[0], expected, rtol=1e-15)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        dense = rng.uniform(0.1, 1.0, size=(6, 6))
        gen = left_normalize(SparseKernelMatrix(scipy.sparse.csr_matrix(dense), 0.2))
        expected = np.diag(1.0 / dense.sum(axis=1)) @ dense
        np.testing.assert_allclose(gen.s_matrix.toarray(), expected, rtol=1e-14)

    def test_zero_row_rejected(self):
        mat = scipy.sparse.csr_matrix(np.array([[0.0, 0.0], [0.5, 1.0]]))
        with pytest.raises(ValueError, match="isolated"):
            left_normalize(SparseKernelMatrix(mat, 0.1))


class TestGeneratorMatrix:
    def small_generator(self, n=5, eps=0.2, seed=4):
        rng = np.random.default_rng(seed)
        cloud = make_cloud(rng.normal(size=(n, 2)))
        km = assemble_kernel_matrix(
            cloud, CoefficientField.isotropic(n, 2), KernelConfig(eps, eps, n)
        )
        return left_normalize(km)

    def test_annihilates_constants(self):
        gen = self.small_generator()
        out = gen.apply(np.ones(5))
        assert np.abs(out).max() <= 1e-10 / gen.epsilon

    def test_apply_matches_dense(self):
        gen = self.small_generator()
        rng = np.random.default_rng(5)
        v = rng.normal(size=5)
        dense = (gen.s_matrix.toarray() - np.eye(5)) / gen.epsilon
        np.testing.assert_allclose(gen.apply(v), dense @ v, atol=1e-14)
        np.testing.assert_allclose(gen.matrix().toarray(), dense, atol=1e-16)

    def test_shifted_matrix(self):
        gen = self.small_generator()
        a = np.full(5, -1.5)
        expected = gen.matrix().toarray() + np.diag(a)
        np.testing.assert_allclose(gen.shifted_matrix(a).toarray(), expected, atol=0)

    def test_diagonal_strictly_positive(self, bvp1d_paper):
        diag = bvp1d_paper.generator.s_matrix.diagonal()
        assert (diag > 0).all()


class TestBuildOperator:
    def test_pipeline_composition_exact(self):
        rng = np.random.default_rng(6)
        cloud = make_cloud(rng.normal(size=(30, 2)))
        coeffs = CoefficientField.isotropic(30, 2)
        cfg = KernelConfig(0.3, 0.2, 8)
        gen = build_operator(cloud, coeffs, cfg, debias=True)
        km = assemble_kernel_matrix(cloud, coeffs, cfg)
        q = estimate_density(cloud, 0.2, 8)
        manual = left_normalize(right_normalize(km, q), debiased=True)
        np.testing.assert_array_equal(gen.s_matrix.toarray(), manual.s_matrix.toarray())
        assert gen.debiased and not build_operator(cloud, coeffs, cfg, debias=False).debiased

    def test_row_stochastic_for_zoo_runs(self, bvp1d_paper, ellipse_paper):
        for run in (bvp1d_paper, ellipse_paper):
            sums = np.asarray(run.generator.s_matrix.sum(axis=1)).ravel()
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_constant_nullspace_for_zoo_runs(self, bvp1d_paper, ellipse_paper):
        for run in (bvp1d_paper, ellipse_paper):
            assert np.abs(run.generator.apply(np.ones(run.generator.n_points))).max() <= 1e-8

    def test_debias_noop_on_manifold_uniform_cloud(self):
        # on the circle the grid is uniform on the manifold, so debiasing
        # changes nothing beyond round-off
        cloud = circle_cloud(500)
        coeffs = CoefficientField.laplace_beltrami(500, 2)
        cfg = KernelConfig(1e-3, 1e-3, 60)
        on = build_operator(cloud, coeffs, cfg, debias=True)
        off = build_operator(cloud, coeffs, cfg, debias=False)
        np.testing.assert_allclose(
            on.s_matrix.toarray(), off.s_matrix.toarray(), atol=1e-13
        )

    @pytest.mark.parametrize("n_points,seed", [(2000, 2), (4000, 1)])
    def test_debias_halves_consistency_error_on_iid_ellipse(self, n_points, seed):
        problem = analytic_pair("ellipse")
        cloud = sample_points(problem.manifold, n_points, "iid_density", seed=seed)
        coeffs = problem_coefficients(problem, cloud)
        x = cloud.intrinsic
        u, f = problem.u(x), problem.f(x)
        errs = {}
        for debias in (True, False):
            gen = build_operator(cloud, coeffs, KernelConfig(1e-3, 1e-3, 200), debias=debias)
            errs[debias] = np.abs(gen.apply(u) - f).max()
        assert errs[False] >= 2.0 * errs[True]

    def test_consistency_error_decreases_with_epsilon(self):
        # interior operator error is O(eps): halving eps over 4 steps from
        # the kNN-truncation regime decreases it monotonically
        problem = analytic_pair("bvp1d")
        cloud = sample_points(problem.manifold, 4000, "uniform_grid")
        coeffs = problem_coefficients(problem, cloud)
        x = cloud.intrinsic
        u, f, a = problem.u(x), problem.f(x), problem.shift(x)
        errs = []
        for eps in 1.6e-5 * 0.5 ** np.arange(5):
            gen = build_operator(cloud, coeffs, KernelConfig(eps, eps, 100), debias=False)
            op = np.abs(gen.apply(u) + a * u - f)
            errs.append(op[200:3800].max())
        assert (np.diff(errs) <= 0).all(), f"not monotone: {errs}"

    def test_strict_diagonal_dominance(self, bvp1d_paper, ellipse_paper):
        # (1 - eps a) I - S is strictly diagonally dominant for any a < 0
        rng = np.random.default_rng(12)
        for run in (bvp1d_paper, ellipse_paper):
            s = run.generator.s_matrix.toarray()
            eps = run.generator.epsilon
            for a in (np.full(len(s), -2.0), -rng.uniform(0.1, 5.0, size=len(s))):
                m = (1 - eps * a)[:, None] * np.eye(len(s)) - s
                diag = np.abs(np.diag(m))
                off = np.abs(m - np.diag(np.diag(m))).sum(axis=1)
                assert (diag > off).all()


class TestTuning:
    def test_grid_validation(self):
        cloud = circle_cloud(50)
        coeffs = CoefficientField.isotropic(50, 2)
        with pytest.raises(ValueError, match="at least 3"):
            tune_bandwidth(cloud, coeffs, np.array([0.1, 1.0]))
        with pytest.raises(ValueError, match="increasing"):
            tune_bandwidth(cloud, coeffs, np.array([1.0, 0.5, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_rejected(self, bad):
        grid = [0.01, bad, 1.0, 2.0] if np.isnan(bad) else [0.01, 0.1, 1.0, bad]
        with pytest.raises(ValueError, match="must be finite, positive and strictly increasing"):
            tune_bandwidth(circle_cloud(50), CoefficientField.isotropic(50, 2), np.array(grid))

    def test_default_grid(self):
        grid = default_epsilon_grid()
        assert grid.size == 41
        np.testing.assert_allclose(grid[0], 2.0**-30)
        np.testing.assert_allclose(grid[-1], 2.0**10)

    def test_circle_dimension_estimate(self):
        rep = tune_bandwidth(circle_cloud(2000), CoefficientField.isotropic(2000, 2))
        assert 0.8 <= rep.d_hat <= 1.2
        # saturation at both grid ends: slopes vanish
        assert abs(rep.slope[0]) < 0.05 and abs(rep.slope[-1]) < 0.05
        # selection invariants
        assert rep.epsilon_star in rep.epsilon_grid
        assert rep.d_hat == 2.0 * np.nanmax(rep.slope)
        assert rep.epsilon_star == rep.epsilon_grid[np.nanargmax(rep.slope)]

    def test_torus_dimension_estimate(self):
        problem = analytic_pair("torus")
        cloud = sample_points(problem.manifold, 1600, "uniform_grid")
        rep = tune_bandwidth(cloud, problem_coefficients(problem, cloud))
        assert abs(rep.d_hat - 2.0) <= 0.4

    def test_two_point_cloud_completes(self):
        rep = tune_bandwidth(make_cloud([[0.0], [1.0]]), CoefficientField.isotropic(2, 1))
        assert np.isfinite(rep.epsilon_star)
        assert np.nanmax(rep.slope) < 0.5

    def test_gaussian_variant_equals_isotropic(self):
        cloud = circle_cloud(300)
        a = tune_gaussian_bandwidth(cloud)
        b = tune_bandwidth(cloud, CoefficientField.isotropic(300, 2))
        np.testing.assert_array_equal(a.log_q, b.log_q)


@st.composite
def tuning_inputs(draw):
    """Small clouds in 1-3 dimensions with random PSD C^-1 (possibly rank
    deficient) and drifts large enough that high-eps terms underflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 3))
    rank = draw(st.integers(0, dim))
    pts = rng.normal(size=(n, dim)) * 10.0 ** draw(st.floats(-3, 1))
    factor = rng.normal(size=(n, dim, rank)) * 10.0 ** draw(st.floats(-1, 2))
    diff_inv = factor @ np.swapaxes(factor, 1, 2)
    drift = rng.normal(size=(n, dim)) * draw(st.sampled_from([0.0, 0.1, 1.0, 10.0, 100.0]))
    cloud = PointCloud(pts, None, "iid_density", ambient_cloud_manifold(dim))
    return cloud, CoefficientField(drift, diff_inv)


@st.composite
def isotropic_inputs(draw):
    """Clouds in 1-3 dimensions with duplicate points, zero drift and one
    C^-1 = c I for every point; N up to 200 spans several row blocks and a
    ragged last one.  Returns (cloud, coeffs, c)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 200))
    dim = draw(st.integers(1, 3))
    pts = rng.normal(size=(n, dim)) * 10.0 ** draw(st.floats(-3, 1))
    copies = rng.integers(0, n, size=draw(st.integers(1, max(1, n // 4))))
    pts[rng.integers(0, n, size=copies.size)] = pts[copies]
    c = draw(st.sampled_from([0.5, 1.0, "random"]))
    c = 10.0 ** rng.uniform(-2.0, 2.0) if c == "random" else c
    diff_inv = np.broadcast_to(c * np.eye(dim), (n, dim, dim)).copy()
    cloud = PointCloud(pts, None, "iid_density", ambient_cloud_manifold(dim))
    return cloud, CoefficientField(np.zeros((n, dim)), diff_inv), c


class TestTuningExactness:
    """The scan equals the dense oracle: skipped terms are exactly 0.0."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(tuning_inputs())
    def test_random_clouds_match_dense_oracle(self, inputs):
        cloud, coeffs = inputs
        grid = default_epsilon_grid()
        oracle = dense_tuning(cloud, coeffs, grid)
        if oracle[1] is None:
            with pytest.raises(ValueError, match="vanished"):
                tune_bandwidth(cloud, coeffs, grid)
            return
        assert_matches_oracle(tune_bandwidth(cloud, coeffs, grid), oracle)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(isotropic_inputs())
    def test_symmetric_route_matches_dense_oracle(self, inputs):
        cloud, coeffs, c = inputs
        assert operator._isotropic_scale(coeffs) == c
        grid = default_epsilon_grid()
        rep = tune_bandwidth(cloud, coeffs, grid)
        assert_matches_oracle(rep, dense_tuning(cloud, coeffs, grid))
        # each pair once: the row blocks visit the upper triangle and their squares
        n = cloud.n_points
        assert rep.pair_evals <= grid.size * (n * n + n * operator._BLOCK_ROWS) / 2

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(isotropic_inputs(), st.integers(0, 2**32 - 1), st.booleans())
    def test_one_asymmetric_point_takes_the_general_route(self, inputs, seed, scale_one):
        cloud, coeffs, _ = inputs
        rng = np.random.default_rng(seed)
        point = rng.integers(cloud.n_points)
        if scale_one:
            coeffs.diffusion_inv[point] *= 1.0 + rng.uniform(0.01, 1.0)
        else:
            coeffs.drift[point, rng.integers(cloud.ambient_dim)] = rng.normal()
        assert operator._isotropic_scale(coeffs) is None
        grid = default_epsilon_grid()
        rep = tune_bandwidth(cloud, coeffs, grid)
        assert_matches_oracle(rep, dense_tuning(cloud, coeffs, grid))

    @pytest.mark.parametrize("exponent,q_positive", [(742.0, True), (744.0, True), (745.2, False)])
    def test_terms_at_the_underflow_edge(self, exponent, q_positive):
        # self terms exp(-eps B^2 / 2) with eps B^2 / 2 = exponent at eps = 1:
        # Q(1) is subnormal, or exactly zero past 1075 ln 2 = 745.13
        # (the drifts point away from the other point, so cross terms vanish)
        drift = np.array([[-1.0], [1.0]]) * np.sqrt(2.0 * exponent)
        coeffs = CoefficientField(drift, np.ones((2, 1, 1)))
        cloud = make_cloud([[0.0], [50.0]])
        grid = default_epsilon_grid()
        rep = tune_bandwidth(cloud, coeffs, grid)
        assert_matches_oracle(rep, dense_tuning(cloud, coeffs, grid))
        assert np.isfinite(rep.log_q[grid == 1.0][0]) == q_positive

    def test_drift_problem_matches_dense_oracle(self):
        problem = analytic_pair("bvp1d")
        cloud = sample_points(problem.manifold, 1000, "uniform_grid")
        coeffs = problem_coefficients(problem, cloud)
        grid = default_epsilon_grid()
        rep = tune_bandwidth(cloud, coeffs)
        assert_matches_oracle(rep, dense_tuning(cloud, coeffs, grid))
        assert rep.pair_evals < grid.size * 1000**2

    # (epsilon_star, d_hat) of the dense scan for the kernel and the
    # Gaussian density, at each problem's paper size
    PINNED = {
        "bvp1d": ((2.0**-20, 0.9988761692484946), (2.0**-20, 0.998876170324505)),
        "ellipse": ((2.0**-5, 1.0899867991826604), (1.0, 1.1264222954090595)),
        "half_ellipse": ((2.0**-5, 1.0439495877201492), (2.0**-14, 0.9992261590386294)),
        "half_torus": ((2.0**-5, 2.08232106906599), (0.5, 2.0575726058785833)),
        "torus": ((2.0**-5, 2.124433290291245), (0.5, 2.2291780107096444)),
        "sphere": ((2.0**-4, 1.9870473270507085), (2.0**-3, 1.9870473270507087)),
        "circle": ((0.5, 1.1699413713788986), (0.5, 1.1699413713788986)),
    }
    PAPER_N = {"bvp1d": 1000, "ellipse": 1000, "half_ellipse": 1000, "half_torus": 3200, "torus": 6400}

    @pytest.mark.parametrize("name", list(PINNED))
    def test_pinned_selection(self, name):
        if name == "sphere":
            cloud = sample_sphere(3000, seed=7)
            coeffs = CoefficientField.laplace_beltrami(3000, 3)
        elif name == "circle":
            cloud = circle_cloud(2000)
            coeffs = CoefficientField.isotropic(2000, 2)
        else:
            problem = analytic_pair(name)
            cloud = sample_points(problem.manifold, self.PAPER_N[name], "uniform_grid")
            coeffs = problem_coefficients(problem, cloud)
        for rep, (eps_star, d_hat) in zip(
            (tune_bandwidth(cloud, coeffs), tune_gaussian_bandwidth(cloud)), self.PINNED[name]
        ):
            assert rep.epsilon_star == eps_star
            assert abs(rep.d_hat - d_hat) <= 1e-12

    def test_worker_count_does_not_change_the_result(self, monkeypatch):
        problem = analytic_pair("half_ellipse")
        cloud = sample_points(problem.manifold, 700, "uniform_grid")
        coeffs = problem_coefficients(problem, cloud)
        # the general route, then the symmetric one (the Gaussian scan)
        pooled = [tune_bandwidth(cloud, coeffs), tune_gaussian_bandwidth(cloud)]
        monkeypatch.setattr(operator.os, "sched_getaffinity", lambda pid: {0})
        single = [tune_bandwidth(cloud, coeffs), tune_gaussian_bandwidth(cloud)]
        for one, many in zip(single, pooled):
            np.testing.assert_array_equal(one.log_q, many.log_q)
            assert one.pair_evals == many.pair_evals

    def test_indefinite_diffusion_rejected(self):
        coeffs = CoefficientField.isotropic(5, 2)
        coeffs.diffusion_inv[3] = [[1.0, 0.0], [0.0, -0.5]]
        with pytest.raises(ValueError, match="point 3 is not positive semidefinite"):
            tune_bandwidth(circle_cloud(5), coeffs)

    def test_non_finite_input_rejected(self):
        coeffs = CoefficientField.isotropic(5, 2)
        coeffs.drift[1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            tune_bandwidth(circle_cloud(5), coeffs)

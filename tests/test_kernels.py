import functools
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from lokpde import kernels
from lokpde.geometry import (
    CoefficientField,
    PointCloud,
    ambient_cloud_manifold,
    sample_points,
    sample_sphere,
)
from lokpde.kernels import (
    KernelConfig,
    assemble_kernel_matrix,
    build_knn_graph,
    eval_prototypical_kernel,
    map_row_blocks,
    moment_check,
    row_blocks,
)
from lokpde.operator import estimate_density
from lokpde.problems import analytic_pair, problem_coefficients


def eval_gaussian_kernel(x, y, tilde_epsilon):
    """Isotropic Gaussian kernel exp(-|x - y|^2 / (2 eps~)): the prototypical
    kernel with zero drift and identity diffusion, bit for bit."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return eval_prototypical_kernel(x, y, np.zeros(x.shape[0]), np.eye(x.shape[0]), tilde_epsilon)


def make_cloud(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < pts.shape[1] and pts.shape[1] > 3:
        pts = pts.T
    return PointCloud(pts, None, "iid_density", ambient_cloud_manifold(pts.shape[1]))


def assemble(cloud, coeffs, cfg):
    """The kernel matrix on the cloud's own kNN indices."""
    return assemble_kernel_matrix(cloud, coeffs, cfg, build_knn_graph(cloud, cfg.k_neighbors)[0])


def squared_distances(diff):
    """|v|^2 over the last axis, summed in ascending coordinate order: the
    rounding of the search's d^2, on which exact ties depend."""
    return functools.reduce(np.add, (diff[..., a] * diff[..., a] for a in range(diff.shape[-1])))


def brute_knn(pts, k, by_distance=False):
    """Brute-force oracle: every |x_i - x_j|^2; a stable argsort per row
    selects the k first in (d^2, index) order.

    Returns (indices, d2) with each row in ascending index order, as the
    search returns them, or in (d^2, index) order with ``by_distance``;
    in 256-row chunks.
    """
    n = pts.shape[0]
    indices = np.empty((n, k), dtype=np.intp)
    d2 = np.empty((n, k))
    for start in range(0, n, 256):
        stop = min(start + 256, n)
        diff = pts[start:stop, None, :] - pts[None, :, :]
        full = squared_distances(diff)
        order = np.argsort(full, axis=1, kind="stable")[:, :k]
        if not by_distance:
            order.sort(axis=1)
        indices[start:stop] = order
        d2[start:stop] = np.take_along_axis(full, order, axis=1)
    return indices, d2


@st.composite
def tie_clouds(draw):
    """1-3-D clouds on a coarse grid, so points repeat and many distances
    tie exactly (also at the k-th neighbour), with k = 1, 2, N or any."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 80))
    dim = draw(st.integers(1, 3))
    width = draw(st.integers(1, 6))
    spacing = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0, 2.0**-7]))
    offset = draw(st.sampled_from([0.0, 0.5, 1e3]))
    pts = rng.integers(-width, width + 1, size=(n, dim)) * spacing + offset
    k = draw(st.one_of(st.sampled_from([1, 2, n]), st.integers(1, n)))
    return make_cloud(pts), k


def paper_cloud(name):
    """The uniform grid of a zoo problem at its paper size, or the
    criterion-7 sphere cloud; returns (cloud, k, tilde_epsilon)."""
    if name == "sphere":
        return sample_sphere(3000, seed=7), 400, 0.01
    n, k, tilde_epsilon = PAPER_GRIDS[name]
    return sample_points(analytic_pair(name).manifold, n, "uniform_grid"), k, tilde_epsilon


PAPER_GRIDS = {
    "bvp1d": (1000, 100, 2e-6),
    "ellipse": (1000, 200, 1e-4),
    "half_ellipse": (1000, 200, 1e-4),
    "torus": (6400, 128, 0.0179),
    "half_torus": (3200, 128, 0.0179),
}


def random_spd(rng, n, floor=0.2):
    a = rng.normal(size=(n, n))
    return a @ a.T + floor * np.eye(n)


@st.composite
def kernel_inputs(draw):
    """1-3-D clouds (some points repeated) with nonzero drift and C^-1 that
    is random PSD per point, PSD of rank below dim (the shape a lifted C^-1
    has off the manifold; 0 in 1-D), or one c I for every point.  N above
    256 spans two row blocks, with k small to bound the scalar calls.
    Returns (cloud, coeffs, cfg)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(2, 60), st.integers(257, 300)))
    dim = draw(st.integers(1, 3))
    pts = rng.normal(size=(n, dim)) * 10.0 ** draw(st.floats(-2, 1))
    pts[rng.integers(0, n, size=n // 8)] = pts[rng.integers(0, n, size=n // 8)]
    drift = rng.normal(size=(n, dim)) * 10.0 ** draw(st.floats(-2, 2))
    kind = draw(st.sampled_from(["random", "rank_deficient", "scaled_identity"]))
    if kind == "scaled_identity":
        diff_inv = np.broadcast_to(10.0 ** rng.uniform(-2, 2) * np.eye(dim), (n, dim, dim)).copy()
    else:
        factor = rng.normal(size=(n, dim, dim if kind == "random" else int(rng.integers(0, dim))))
        diff_inv = factor @ np.swapaxes(factor, 1, 2)
    epsilon = 10.0 ** draw(st.floats(-3, 1))
    k = draw(st.integers(2, n if n <= 60 else 3))
    return make_cloud(pts), CoefficientField(drift, diff_inv), KernelConfig(epsilon, epsilon, k)


@settings(max_examples=100)
@given(st.integers(0, 300), st.integers(1, 40))
def test_row_blocks_tile_the_rows_in_order(n, size):
    blocks = row_blocks(n, size)
    assert [i for rows in blocks for i in range(rows.start, rows.stop)] == list(range(n))
    assert all(0 < rows.stop - rows.start <= size for rows in blocks)
    assert all(rows.stop - rows.start == size for rows in blocks[:-1])


class TestKernelConfig:
    def test_valid(self):
        cfg = KernelConfig(1e-4, 1e-3, 50)
        assert (cfg.epsilon, cfg.tilde_epsilon, cfg.k_neighbors) == (1e-4, 1e-3, 50)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=0.0, tilde_epsilon=1.0, k_neighbors=5),
            dict(epsilon=1.0, tilde_epsilon=-1.0, k_neighbors=5),
            dict(epsilon=1.0, tilde_epsilon=1.0, k_neighbors=1),
            dict(epsilon=np.inf, tilde_epsilon=1.0, k_neighbors=5),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            KernelConfig(**kwargs)


class TestKernelEvaluation:
    def test_unit_at_coincident_points(self):
        assert eval_prototypical_kernel([1.0, 2.0], [1.0, 2.0], [0.0, 0.0], np.eye(2), 0.1) == 1.0

    def test_scalar_case(self):
        val = eval_prototypical_kernel([1.0], [0.0], [0.0], [[1.0]], 0.5)
        np.testing.assert_allclose(val, np.exp(-1.0))

    def test_drift_shift(self):
        # x = y, B = 2, eps = 0.1: exponent -(0.2)^2 / 0.2 = -0.2
        val = eval_prototypical_kernel([0.0], [0.0], [2.0], [[1.0]], 0.1)
        np.testing.assert_allclose(val, np.exp(-0.2))

    def test_non_finite_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            eval_prototypical_kernel([np.nan], [0.0], [0.0], [[1.0]], 0.1)
        with pytest.raises(ValueError, match="positive"):
            eval_prototypical_kernel([0.0], [0.0], [0.0], [[1.0]], -1.0)

    def test_gaussian_values(self):
        assert eval_gaussian_kernel([3.0, 1.0], [3.0, 1.0], 0.2) == 1.0
        d = np.sqrt(2 * 0.2)
        np.testing.assert_allclose(eval_gaussian_kernel([d], [0.0], 0.2), np.exp(-1.0))

    def test_gaussian_equals_prototypical_identity_case(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = rng.integers(1, 5)
            x, y = rng.normal(size=n), rng.normal(size=n)
            eps = float(rng.uniform(0.05, 2.0))
            assert eval_gaussian_kernel(x, y, eps) == eval_prototypical_kernel(
                x, y, np.zeros(n), np.eye(n), eps
            )

    def test_local_kernel_bound(self):
        # 0 <= K(eps, x, x + sqrt(eps) z) <= exp(-sigma |z - sqrt(eps) B|^2)
        # with sigma = 1 / (2 lambda_max(C))
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = rng.integers(1, 4)
            c = random_spd(rng, n)
            c_inv = np.linalg.inv(c)
            x = rng.normal(size=n)
            z = rng.normal(size=n) * rng.uniform(0.1, 3.0)
            b = rng.normal(size=n)
            eps = float(rng.uniform(1e-4, 1.0))
            val = eval_prototypical_kernel(x, x + np.sqrt(eps) * z, b, c_inv, eps)
            sigma = 1.0 / (2.0 * np.linalg.eigvalsh(c).max())
            bound = np.exp(-sigma * np.sum((z - np.sqrt(eps) * b) ** 2))
            assert 0.0 <= val <= bound * (1 + 1e-12)


class TestKnnGraph:
    def test_collinear(self):
        cloud = make_cloud([[0.0], [1.0], [2.0], [3.0]])
        nbrs, _ = build_knn_graph(cloud, 2)
        assert set(nbrs[0]) == {0, 1}
        assert set(nbrs[3]) == {3, 2}

    def test_k_equals_n(self):
        cloud = make_cloud(np.random.default_rng(0).normal(size=(7, 2)))
        nbrs, _ = build_knn_graph(cloud, 7)
        for row in nbrs:
            assert set(row) == set(range(7))

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(100, 3))
        nbrs, _ = build_knn_graph(make_cloud(pts), 10)
        for i in range(100):
            dist = np.sum((pts - pts[i]) ** 2, axis=1)
            expected = sorted(range(100), key=lambda j: (dist[j], j))[:10]
            assert list(nbrs[i]) == sorted(expected)

    def test_ties_break_to_smaller_index(self):
        cloud = make_cloud([[0.0], [1.0], [-1.0], [2.0]])
        nbrs, _ = build_knn_graph(cloud, 2)
        assert list(nbrs[0]) == [0, 1]  # 1 and 2 are equidistant; index wins

    def test_k_out_of_range(self):
        cloud = make_cloud([[0.0], [1.0]])
        with pytest.raises(ValueError, match="between 1 and N"):
            build_knn_graph(cloud, 3)

    def test_non_finite_coordinate_named(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, np.nan], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="non-finite coordinate at point 2"):
            build_knn_graph(make_cloud(pts), 2)


class TestKnnExactness:
    """The search returns the brute-force oracle's arrays bit for bit."""

    @staticmethod
    def assert_matches_brute(pts, k):
        indices, d2 = build_knn_graph(make_cloud(pts), k)
        ref_indices, ref_d2 = brute_knn(pts, k)
        np.testing.assert_array_equal(indices, ref_indices)
        np.testing.assert_array_equal(d2, ref_d2)

    @settings(max_examples=200)
    @given(tie_clouds())
    def test_tie_clouds_match_brute(self, inputs):
        cloud, k = inputs
        self.assert_matches_brute(cloud.ambient, k)

    def test_tie_group_wider_than_the_candidates(self):
        # 80 copies of one point tie at d^2 = 0, far more than k, so each
        # copy's row must keep the smallest indices of the tie group
        pts = np.concatenate([np.full((40, 2), 0.5), np.eye(2), np.full((40, 2), 0.5)])
        self.assert_matches_brute(pts, 3)
        self.assert_matches_brute(pts, 50)

    @pytest.mark.parametrize("k", [7, 50])
    def test_identical_points_match_brute(self, k):
        # every d^2 is 0, so the reach is 0 and every row is searched against all N
        self.assert_matches_brute(np.full((50, 2), [0.25, -1.5]), k)

    def test_rows_beyond_the_probe_reach_are_searched_again(self, monkeypatch):
        # the probes all fall in a tight cluster; the 12 sparse points far from
        # it have a k-th distance beyond the probe reach, so their rows fail the
        # certificate and are searched a second time
        rng = np.random.default_rng(12)
        pts = rng.normal(scale=0.01, size=(320, 2))
        pts[1:13] = [10.0, 0.0] + 0.1 * np.arange(12)[:, None]
        searched = []

        def spy(planes, rows, cand, k, work):
            searched.append(rows.size)
            return nearest(planes, rows, cand, k, work)

        nearest = kernels._nearest
        monkeypatch.setattr(kernels, "_nearest", spy)
        self.assert_matches_brute(pts, 10)
        assert sum(searched) > 320 + kernels._PROBES  # the probes, every row, then some rows again

    @pytest.mark.parametrize("name", [*PAPER_GRIDS, "sphere"])
    def test_paper_clouds_match_brute(self, name):
        cloud, k, _ = paper_cloud(name)
        self.assert_matches_brute(cloud.ambient, k)


class TestIndexOrder:
    """Each row of the pair ascends by index.  Its largest d^2 is the k-th,
    and the density sums the row in that index order."""

    @settings(max_examples=100)
    @given(tie_clouds(), st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
    def test_tie_clouds(self, inputs, tilde_epsilon):
        cloud, k = inputs
        indices, d2 = build_knn_graph(cloud, k)
        assert (np.diff(indices, axis=1) > 0).all()
        ref_indices, ref_d2 = brute_knn(cloud.ambient, k, by_distance=True)
        np.testing.assert_array_equal(d2.max(axis=1), ref_d2[:, -1])
        np.testing.assert_array_equal(indices, np.sort(ref_indices, axis=1))
        q = estimate_density(d2, tilde_epsilon).q_hat
        _, index_d2 = brute_knn(cloud.ambient, k)
        np.testing.assert_array_equal(q, np.exp(-index_d2 / (2.0 * tilde_epsilon)).sum(axis=1))


class TestKnnPairMemory:
    def test_pair_is_int32_and_off_the_malloc_heap(self, monkeypatch):
        # each array of the pair lies on its own anonymous map, which
        # tracemalloc does not see; an (N, k) block from malloc would be at
        # least N k 4 bytes (3.3 MB on the paper torus), against about 1.6 MB
        # of block temporaries with two workers
        monkeypatch.setattr(kernels, "pool_width", lambda: 2)
        cloud, k, _ = paper_cloud("torus")
        tracemalloc.start()
        try:
            indices, d2 = build_knn_graph(cloud, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert indices.dtype == np.int32 and d2.dtype == np.float64
        assert peak < cloud.n_points * k * 4


class TestMedianOrder:
    """The kNN search's row order: each block of ``_KNN_ROWS`` rows is one
    leaf of a recursive median split."""

    @staticmethod
    def leaves(monkeypatch, planes, leaf=kernels._KNN_ROWS):
        found = []
        split = kernels._median_order

        def spy(planes, rows, leaf):
            order = split(planes, rows, leaf)
            if rows.size <= leaf:
                found.append(order)
            return order

        monkeypatch.setattr(kernels, "_median_order", spy)
        return kernels._median_order(planes, np.arange(planes.shape[1]), leaf), found

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129, 777, 3000])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_leaves_tile_a_permutation(self, monkeypatch, n, dim):
        planes = np.random.default_rng(n + dim).normal(size=(dim, n))
        order, leaves = self.leaves(monkeypatch, planes)
        np.testing.assert_array_equal(np.sort(order), np.arange(n))
        np.testing.assert_array_equal(np.concatenate(leaves), order)
        assert [leaf.size for leaf in leaves[:-1]] == [kernels._KNN_ROWS] * (len(leaves) - 1)
        assert 1 <= leaves[-1].size <= kernels._KNN_ROWS

    @pytest.mark.parametrize("leaf", [1, 8, 13])
    def test_leaves_of_any_size_tile_a_permutation(self, monkeypatch, leaf):
        # the solver's aggregates are these leaves
        planes = np.random.default_rng(leaf).normal(size=(3, 777))
        order, leaves = self.leaves(monkeypatch, planes, leaf)
        np.testing.assert_array_equal(np.sort(order), np.arange(777))
        np.testing.assert_array_equal(np.concatenate(leaves), order)
        assert [piece.size for piece in leaves[:-1]] == [leaf] * (len(leaves) - 1)

    def test_each_split_is_at_a_median_of_the_widest_axis(self):
        # a flat cloud: the first split is along x, so the first half of the
        # order holds the points left of every point of the second half
        rng = np.random.default_rng(4)
        planes = np.stack([rng.uniform(0, 10, 1000), rng.uniform(0, 1, 1000)])
        order = kernels._median_order(planes, np.arange(1000), kernels._KNN_ROWS)
        half = kernels._KNN_ROWS * 8
        assert planes[0, order[:half]].max() <= planes[0, order[half:]].min()

    @pytest.mark.parametrize("name", ["ties", "bvp1d", "sphere"])
    def test_repeated_calls_give_the_same_order(self, name):
        cloud = worker_cloud(name)[0] if name != "sphere" else sample_sphere(3000, seed=7)
        planes = np.ascontiguousarray(cloud.ambient.T)
        rows = np.arange(cloud.n_points)
        first = kernels._median_order(planes, rows, kernels._KNN_ROWS)
        for _ in range(3):
            np.testing.assert_array_equal(kernels._median_order(planes, rows, kernels._KNN_ROWS), first)


def worker_cloud(name):
    """(cloud, coeffs, k) with N a multiple of none of the block sizes the
    pool uses for 1, 2 or 4 workers (256, 128, 64 rows)."""
    if name == "ties":
        # 300 copies of one point: the probe reach is 0, so each copy's row
        # fails the certificate and is searched again against all N points
        pts = np.concatenate([np.full((150, 2), 0.5), np.eye(2), np.full((150, 2), 0.5)])
        return make_cloud(pts), CoefficientField.isotropic(302, 2), 50
    problem = analytic_pair(name)
    if name == "bvp1d":  # the paper grid: d^2 ties in 938 of 1000 rows, across every block boundary
        cloud = sample_points(problem.manifold, 1000, "uniform_grid")
        return cloud, problem_coefficients(problem, cloud), 100
    cloud = sample_points(problem.manifold, 777, "iid_density", seed=3)
    return cloud, problem_coefficients(problem, cloud), 40


class TestMapRowBlocks:
    def test_every_block_runs_once_in_block_order_under_contention(self, monkeypatch):
        # eight workers on fewer cores, switching threads every microsecond:
        # a block taken twice or lost would break the tallies
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        runs = np.zeros(2000, dtype=int)
        workers = set()
        lock = threading.Lock()

        def body(rows, work):
            work[0, : rows.stop - rows.start] = rows.start
            with lock:
                runs[rows.start] += 1
                workers.add(threading.get_ident())
            return int(work[0, 0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = map_row_blocks(body, 2000, 1, 1, 1)
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(2000))
        assert (runs == 1).all()
        assert threading.get_ident() in workers  # the caller is one of the workers

    def test_a_failing_block_raises(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def body(rows, work):
            if rows.start == 5:
                raise ValueError("block 5")
            return rows.start

        with pytest.raises(ValueError, match="block 5"):
            map_row_blocks(body, 10, 1, 1, 1)


class TestWorkerCount:
    """Each pool block writes only its own rows, so one worker, the default
    and more workers than cores give the same arrays bit for bit."""

    @pytest.mark.parametrize("name", ["bvp1d", "ties", "half_torus"])
    def test_worker_count_does_not_change_the_result(self, monkeypatch, name):
        cloud, coeffs, k = worker_cloud(name)
        cfg = KernelConfig(1e-3, 1e-3, k)
        results = []
        for cpus in (None, {0}, set(range(4))):
            if cpus is not None:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            neighbors = build_knn_graph(cloud, k)
            mat = assemble_kernel_matrix(cloud, coeffs, cfg, neighbors[0]).matrix
            results.append((*neighbors, mat.data, mat.indices))
        for other in results[1:]:
            for ref, got in zip(results[0], other):
                np.testing.assert_array_equal(got, ref)


class TestAssembly:
    def test_symmetric_for_isotropic_kernel(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 2))
        cloud = make_cloud(pts)
        coeffs = CoefficientField.isotropic(30, 2)
        mat = assemble(cloud, coeffs, KernelConfig(0.5, 0.5, 8)).matrix.toarray()
        stored = mat > 0
        mutual = stored & stored.T
        np.testing.assert_array_equal(mat[mutual], mat.T[mutual])

    def test_interval_hand_value(self):
        # points {0, 1/2, 1}, eps = 1/8: K(1/2, 1) = exp(-(1/4)/(1/4)) = 1/e
        cloud = make_cloud([[0.0], [0.5], [1.0]])
        coeffs = CoefficientField.isotropic(3, 1)
        km = assemble(cloud, coeffs, KernelConfig(0.125, 0.125, 3))
        np.testing.assert_allclose(km.matrix[1, 2], np.exp(-1.0))
        np.testing.assert_allclose(km.matrix[0, 2], np.exp(-4.0))

    def test_paper_configuration_row_occupancy(self, bvp1d_paper):
        # N=1000, k=100: every row carries exactly k stored entries
        mat = assemble(
            bvp1d_paper.cloud, bvp1d_paper.coeffs, bvp1d_paper.config
        ).matrix
        assert set(np.diff(mat.indptr)) == {100}

    def test_entries_match_scalar_evaluation_exactly(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(12, 3))
        cloud = make_cloud(pts)
        B = rng.normal(size=(12, 3))
        Ci = np.stack([np.linalg.inv(random_spd(rng, 3)) for _ in range(12)])
        km = assemble(cloud, CoefficientField(B, Ci), KernelConfig(0.3, 0.3, 5))
        mat = km.matrix
        for i in range(12):
            for idx in range(mat.indptr[i], mat.indptr[i + 1]):
                j = mat.indices[idx]
                assert mat.data[idx] == eval_prototypical_kernel(pts[i], pts[j], B[i], Ci[i], 0.3)

    @settings(max_examples=100)
    @given(kernel_inputs())
    def test_entries_match_scalar_evaluation_on_random_clouds(self, inputs):
        cloud, coeffs, cfg = inputs
        mat = assemble(cloud, coeffs, cfg).matrix
        pts, B, Ci = cloud.ambient, coeffs.drift, coeffs.diffusion_inv
        rows = np.repeat(np.arange(cloud.n_points), np.diff(mat.indptr))
        scalar = [
            eval_prototypical_kernel(pts[i], pts[j], B[i], Ci[i], cfg.epsilon)
            for i, j in zip(rows, mat.indices)
        ]
        np.testing.assert_array_equal(mat.data, scalar)

    def test_column_indices_strictly_increasing(self):
        rng = np.random.default_rng(4)
        cloud = make_cloud(rng.normal(size=(25, 2)))
        mat = assemble(
            cloud, CoefficientField.isotropic(25, 2), KernelConfig(0.2, 0.2, 6)
        ).matrix
        for i in range(25):
            cols = mat.indices[mat.indptr[i] : mat.indptr[i + 1]]
            assert (np.diff(cols) > 0).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_subset_of_dense(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 50))
        pts = rng.normal(size=(n, 2))
        cloud = make_cloud(pts)
        coeffs = CoefficientField(
            rng.normal(size=(n, 2)), np.stack([np.linalg.inv(random_spd(rng, 2)) for _ in range(n)])
        )
        k = int(rng.integers(3, n))
        sparse = assemble(cloud, coeffs, KernelConfig(0.4, 0.4, k)).matrix
        dense = assemble(
            cloud, coeffs, KernelConfig(0.4, 0.4, n)
        ).matrix.toarray()
        for i in range(n):
            cols = sparse.indices[sparse.indptr[i] : sparse.indptr[i + 1]]
            vals = sparse.data[sparse.indptr[i] : sparse.indptr[i + 1]]
            np.testing.assert_array_equal(vals, dense[i, cols])

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(40, 3))
        cloud = make_cloud(pts)
        coeffs = CoefficientField.isotropic(40, 3)
        cfg = KernelConfig(0.3, 0.3, 7)
        a = assemble(cloud, coeffs, cfg).matrix
        b = assemble(cloud, coeffs, cfg).matrix
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_size_mismatch(self):
        cloud = make_cloud([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="does not match"):
            assemble(cloud, CoefficientField.isotropic(2, 1), KernelConfig(0.1, 0.1, 2))

    @pytest.mark.parametrize("n_rows,k_search", [(30, 8), (20, 5)])
    def test_neighbors_of_the_wrong_shape_rejected(self, n_rows, k_search):
        # indices searched with another k, or for another cloud, name their shape
        rng = np.random.default_rng(10)
        cloud = make_cloud(rng.normal(size=(20, 2)))
        other = make_cloud(rng.normal(size=(30, 2)))
        indices, _ = build_knn_graph(cloud if n_rows == 20 else other, k_search)
        with pytest.raises(ValueError, match=rf"indices must be \(20, 8\), got \({n_rows}, {k_search}\)"):
            assemble_kernel_matrix(cloud, CoefficientField.isotropic(20, 2), KernelConfig(0.1, 0.1, 8), indices)


class TestMoments:
    def test_exact_normalization_constants(self):
        rep = moment_check(1, [[1.0]], [0.0], 1e-3, n_samples=10_000, seed=0)
        np.testing.assert_allclose(rep.m_exact, np.sqrt(2 * np.pi))
        rep2 = moment_check(2, np.diag([3.0, 2.0]), np.zeros(2), 1e-3, n_samples=10_000, seed=0)
        np.testing.assert_allclose(rep2.m_exact, 2 * np.pi * np.sqrt(6.0))

    def test_drift_recovery_against_quadrature(self):
        # b_hat ~ 2 within 3 standard errors; the quadrature oracle pins the
        # integrals the Monte-Carlo estimate targets
        eps = 1e-3
        rep = moment_check(1, [[1.0]], [2.0], eps, n_samples=200_000, seed=1)
        kernel = lambda z: np.exp(-0.5 * (z - np.sqrt(eps) * 2.0) ** 2)
        m_quad, _ = scipy.integrate.quad(kernel, -np.inf, np.inf)
        zk_quad, _ = scipy.integrate.quad(lambda z: z * kernel(z), -np.inf, np.inf)
        b_quad = zk_quad / (np.sqrt(eps) * m_quad)
        np.testing.assert_allclose(b_quad, 2.0, rtol=1e-10)
        assert abs(rep.m_hat - m_quad) <= 3 * rep.m_se
        assert abs(rep.b_hat[0] - b_quad) <= 3 * rep.b_se[0]

    @pytest.mark.parametrize("d", [1, 2])
    def test_moment_recovery(self, d):
        rng = np.random.default_rng(100 + d)
        for trial in range(5):
            c = random_spd(rng, d, floor=0.5)
            b = rng.normal(size=d)
            rep = moment_check(d, c, b, 5e-3, n_samples=200_000, seed=1000 + trial)
            assert abs(rep.m_hat - rep.m_exact) <= 3 * rep.m_se
            assert (np.abs(rep.b_hat - b) <= 3 * rep.b_se + 1e-12).all()
            # the second moment carries an O(eps) drift bias eps * b b^T
            bias = 5e-3 * np.abs(np.outer(b, b))
            assert (np.abs(rep.c_hat - c) <= 3 * rep.c_se + bias + 1e-12).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            moment_check(1, [[1.0]], [0.0], -1e-3)
        with pytest.raises(ValueError, match=r"\(d, d\)"):
            moment_check(2, [[1.0]], [0.0, 0.0], 1e-3)


class TestOverflowGuard:
    """An epsilon at which x - y + eps B or the quadratic form can overflow
    is rejected by name before any kernel entry is formed."""

    def test_lifted_field_rejects_an_overflowing_shift(self):
        # C^-1 of rank 2 in three dimensions: an overflowing v gives 0 inf = nan
        ci = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="overflows the kernel's quadratic form"):
            kernels.eval_prototypical_kernel(np.zeros(3), np.ones(3), np.ones(3), ci, 1e200)
        assert np.isfinite(kernels.eval_prototypical_kernel(np.zeros(3), np.ones(3), np.ones(3), ci, 1e100))

    def test_isotropic_quad_may_overflow_to_zero(self):
        # c |v|^2 overflows to inf, whose exp(-inf) = 0.0 is exact: no error
        assert kernels.eval_prototypical_kernel(np.zeros(1), np.zeros(1), np.ones(1), np.eye(1), 1e300) == 0.0
        with pytest.raises(ValueError, match="overflows"):
            kernels.eval_prototypical_kernel(np.zeros(1), np.zeros(1), np.ones(1), np.eye(1), 1.5e308)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.floats(1e100, 1e300), st.integers(0, 2**32 - 1))
    def test_accepted_epsilons_give_no_nan(self, dim, epsilon, seed):
        rng = np.random.default_rng(seed)
        root = rng.normal(size=(dim, dim))
        ci = root @ root.T
        x, y, b = rng.normal(size=(3, dim))
        try:
            value = kernels.eval_prototypical_kernel(x, y, b, ci, epsilon)
        except ValueError as exc:
            assert "overflows" in str(exc)
        else:
            assert value == value

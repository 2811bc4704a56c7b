import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lokpde.geometry import (
    CoefficientField,
    PointCloud,
    ambient_cloud_manifold,
    embed,
    embedding_jacobian,
    get_manifold,
    grid_axis_counts,
    lift_field,
    load_cloud,
    psd_eigenvalues,
    sample_points,
    sample_sphere,
)
from lokpde.problems import PROBLEM_IDS, analytic_pair, problem_coefficients

ZOO_IDS = ["interval", "ellipse", "half_ellipse", "torus", "half_torus"]


class TestManifolds:
    def test_zoo_dimensions(self):
        dims = {mid: (get_manifold(mid).intrinsic_dim, get_manifold(mid).ambient_dim)
                for mid in ZOO_IDS}
        assert dims == {
            "interval": (1, 1),
            "ellipse": (1, 2),
            "half_ellipse": (1, 2),
            "torus": (2, 3),
            "half_torus": (2, 3),
        }

    def test_parameter_domains(self):
        assert get_manifold("ellipse").parameter_domain == ((0.0, 2 * np.pi),)
        assert get_manifold("half_ellipse").parameter_domain == ((0.0, np.pi),)
        assert get_manifold("torus").parameter_domain == ((0.0, 2 * np.pi),) * 2
        assert get_manifold("half_torus").parameter_domain[1] == (0.0, np.pi)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown manifold"):
            get_manifold("sphere")

    def test_ambient_cloud_has_no_embedding(self):
        cloud_man = ambient_cloud_manifold(3)
        for fn in (embed, embedding_jacobian):
            with pytest.raises(ValueError, match="no embedding"):
                fn(cloud_man, [0.0, 0.0])
        with pytest.raises(ValueError, match="no parametrization"):
            sample_points(cloud_man, 10, "uniform_grid")


class TestEmbeddings:
    def test_ellipse_axis_points(self):
        man = get_manifold("ellipse")
        np.testing.assert_allclose(embed(man, [0.0]), [1.0, 0.0], atol=0)
        np.testing.assert_allclose(embed(man, [np.pi / 2]), [0.0, 2.0], atol=1e-15)

    def test_torus_points(self):
        man = get_manifold("torus")
        np.testing.assert_allclose(embed(man, [0.0, 0.0]), [3.0, 0.0, 0.0], atol=0)
        np.testing.assert_allclose(embed(man, [np.pi / 2, np.pi]), [-2.0, 0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("mid", ["ellipse", "torus"])
    def test_periodicity(self, mid):
        man = get_manifold(mid)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 2 * np.pi, size=(50, man.intrinsic_dim))
        np.testing.assert_allclose(embed(man, pts), embed(man, pts + 2 * np.pi), atol=1e-12)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            embed(get_manifold("torus"), [0.0])

    @pytest.mark.parametrize("mid, points", [
        ("torus", np.zeros((4, 3))),  # would take the first two columns
        ("torus", np.zeros(1)),  # would index a second column it lacks
        ("ellipse", np.zeros((4, 2))),
        ("interval", np.zeros(2)),
    ])
    def test_jacobian_checks_the_dimension_as_embed_does(self, mid, points):
        man = get_manifold(mid)
        message = f"expected intrinsic dimension {man.intrinsic_dim}, got {np.atleast_2d(points).shape[1]}"
        for fn in (embed, embedding_jacobian):
            with pytest.raises(ValueError, match=message):
                fn(man, points)

    @pytest.mark.parametrize("mid", ZOO_IDS)
    def test_jacobian_matches_finite_differences(self, mid):
        man = get_manifold(mid)
        rng = np.random.default_rng(1)
        lo = np.array([a for a, _ in man.parameter_domain])
        hi = np.array([b for _, b in man.parameter_domain])
        pts = lo + (hi - lo) * rng.random((20, man.intrinsic_dim))
        jac = embedding_jacobian(man, pts)
        h = 1e-6
        for axis in range(man.intrinsic_dim):
            step = np.zeros(man.intrinsic_dim)
            step[axis] = h
            fd = (embed(man, pts + step) - embed(man, pts - step)) / (2 * h)
            np.testing.assert_allclose(jac[:, :, axis], fd, atol=1e-8)


class TestGrids:
    def test_interval_grid_includes_both_endpoints(self):
        cloud = sample_points(get_manifold("interval"), 11, "uniform_grid")
        np.testing.assert_allclose(cloud.intrinsic[:, 0], np.linspace(0, 1, 11), atol=0)

    def test_ellipse_four_points(self):
        cloud = sample_points(get_manifold("ellipse"), 4, "uniform_grid")
        np.testing.assert_allclose(cloud.intrinsic[:, 0], [0, np.pi / 2, np.pi, 3 * np.pi / 2])
        np.testing.assert_allclose(
            cloud.ambient, [[1, 0], [0, 2], [-1, 0], [0, -2]], atol=1e-15
        )

    def test_half_ellipse_grid_is_cell_centered(self):
        cloud = sample_points(get_manifold("half_ellipse"), 10, "uniform_grid")
        np.testing.assert_allclose(cloud.intrinsic[:, 0], (np.arange(10) + 0.5) * np.pi / 10)

    def test_torus_grid_counts(self):
        assert grid_axis_counts(get_manifold("torus"), 6400) == (80, 80)
        assert grid_axis_counts(get_manifold("half_torus"), 3200) == (80, 40)
        cloud = sample_points(get_manifold("torus"), 6400, "uniform_grid")
        assert cloud.ambient.shape == (6400, 3)
        thetas = np.unique(cloud.intrinsic[:, 0])
        assert thetas.size == 80 and thetas.max() < 2 * np.pi

    def test_bad_grid_count(self):
        with pytest.raises(ValueError, match="does not factor"):
            grid_axis_counts(get_manifold("torus"), 1000)

    @pytest.mark.parametrize("mid", ZOO_IDS)
    def test_grid_points_distinct_and_consistent(self, mid):
        man = get_manifold(mid)
        n = {"interval": 64, "ellipse": 64, "half_ellipse": 64, "torus": 144, "half_torus": 128}[mid]
        cloud = sample_points(man, n, "uniform_grid")
        assert np.unique(cloud.ambient, axis=0).shape[0] == n
        np.testing.assert_allclose(cloud.ambient, embed(man, cloud.intrinsic), atol=0)

    def test_iid_sampling_seeded(self):
        man = get_manifold("torus")
        a = sample_points(man, 100, "iid_density", seed=42)
        b = sample_points(man, 100, "iid_density", seed=42)
        c = sample_points(man, 100, "iid_density", seed=43)
        np.testing.assert_array_equal(a.ambient, b.ambient)
        assert not np.array_equal(a.ambient, c.ambient)
        lo = np.array([p for p, _ in man.parameter_domain])
        hi = np.array([q for _, q in man.parameter_domain])
        assert (a.intrinsic >= lo).all() and (a.intrinsic <= hi).all()

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="sampling mode"):
            sample_points(get_manifold("interval"), 10, "stratified")


def lift_points(man, x, b, c):
    """(B, C^-1) from :func:`lift_field` at the (N, d) points ``x`` with
    per-point b (N, d) and c (N, d, d); the points are lifted as a cloud of
    2 N (each twice, as a cloud needs at least 2 points)."""
    x, b, c = (np.asarray(v, dtype=float) for v in (x, b, c))
    pts = np.concatenate([x, x])
    cloud = PointCloud(embed(man, pts), pts, "iid_density", man)
    field = lift_field(man, cloud, lambda _: np.concatenate([b, b]), lambda _: np.concatenate([c, c]))
    return field.drift[: len(x)], field.diffusion_inv[: len(x)]


class TestCoefficientLifting:
    def test_interval_identity(self):
        B, Ci = lift_points(get_manifold("interval"), [[0.3]], [[2.0]], [[[1.0]]])
        np.testing.assert_allclose(B, [[2.0]])
        np.testing.assert_allclose(Ci, [[[1.0]]])

    def test_ellipse_rank_one_lift(self):
        # hand pseudo-inverse at theta=0: J = (0, 2)^T
        B, Ci = lift_points(get_manifold("ellipse"), [[0.0]], [[1.0]], [[[2.1]]])
        np.testing.assert_allclose(B, [[0.0, 0.5]], atol=1e-14)
        np.testing.assert_allclose(Ci, [[[0.0, 0.0], [0.0, 1.0 / 8.4]]], atol=1e-14)

    def test_torus_drift_lift(self):
        # J columns at (0,0): (0,0,1) and (0,3,0)
        B, _ = lift_points(get_manifold("torus"), [[0.0, 0.0]], [[2.0, 0.0]], [np.eye(2)])
        np.testing.assert_allclose(B, [[0.0, 0.0, 2.0]], atol=1e-14)

    @pytest.mark.parametrize("mid", ZOO_IDS)
    def test_lift_round_trip(self, mid):
        # pinv(C^-1) restricted to the tangent plane equals J c J^T
        man = get_manifold(mid)
        rng = np.random.default_rng(7)
        lo = np.array([a for a, _ in man.parameter_domain])
        hi = np.array([b for _, b in man.parameter_domain])
        d = man.intrinsic_dim
        xs, bs, cs = [], [], []
        for _ in range(100):
            xs.append(lo + (hi - lo) * rng.random(d))
            a = rng.normal(size=(d, d))
            cs.append(a @ a.T + 0.5 * np.eye(d))
            bs.append(rng.normal(size=d))
        _, cis = lift_points(man, xs, bs, cs)
        for x, c, Ci in zip(xs, cs, cis):
            jac = embedding_jacobian(man, x)
            lifted = jac @ c @ jac.T
            np.testing.assert_allclose(np.linalg.pinv(Ci, hermitian=True), lifted, atol=1e-9)
            # C^-1 is symmetric PSD of rank exactly d
            eig = np.linalg.eigvalsh(Ci)
            assert (eig > -1e-12).all()
            assert np.sum(eig > 1e-10 * eig.max()) == d

    @settings(max_examples=60)
    @given(st.sampled_from(ZOO_IDS), st.integers(0, 2**32 - 1))
    def test_lift_matches_pinv_reference(self, mid, seed):
        # B = pinv(J)^T b and C^-1 = pinv(J c J^T) point by point, for PSD c
        # of every rank (integer factors, so a singular c is exactly singular)
        man = get_manifold(mid)
        rng = np.random.default_rng(seed)
        lo = np.array([a for a, _ in man.parameter_domain])
        hi = np.array([b for _, b in man.parameter_domain])
        d = man.intrinsic_dim
        x = lo + (hi - lo) * rng.random((8, d))
        b = rng.normal(size=(8, d)) * 2.0 ** rng.integers(-20, 21)
        rank = int(rng.integers(0, d + 1))
        a = rng.integers(-4, 5, size=(8, d, rank)).astype(float)
        c = a @ np.transpose(a, (0, 2, 1)) + (rank == d) * np.eye(d)
        c *= 2.0 ** rng.integers(-20, 21, size=(8, 1, 1))
        B, Ci = lift_points(man, x, b, c)
        for xi, bi, ci, Bi, Cii in zip(x, b, c, B, Ci):
            jac = embedding_jacobian(man, xi)
            B_ref = np.linalg.pinv(jac).T @ bi
            Ci_ref = np.linalg.pinv(jac @ ci @ jac.T, hermitian=True)
            assert np.abs(Bi - B_ref).max() <= 1e-12 * np.abs(B_ref).max()
            assert np.abs(Cii - Ci_ref).max() <= 1e-12 * np.abs(Ci_ref).max()

    def test_one_svd_and_only_intrinsic_pinv(self, monkeypatch):
        # each Jacobian is decomposed once, and only d x d blocks are inverted
        cloud = sample_points(get_manifold("torus"), 400, "uniform_grid")
        calls = []
        for name in ("svd", "pinv"):
            def spy(a, *args, fn=getattr(np.linalg, name), name=name, **kwargs):
                calls.append((name, a.shape))
                return fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        problem_coefficients(analytic_pair("torus"), cloud)
        assert calls == [("svd", (400, 3, 2)), ("pinv", (400, 2, 2))]


class TestPointCloudValidation:
    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            PointCloud(np.zeros((1, 2)), None, "iid_density", ambient_cloud_manifold(2))

    def test_rejects_non_finite(self):
        pts = np.array([[0.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="non-finite coordinate at point 1"):
            PointCloud(pts, None, "iid_density", ambient_cloud_manifold(2))


class TestReadOnlyInputs:
    """The arrays a cloud or field checked at construction are private
    read-only copies, so no later edit can bypass those checks."""

    def test_cloud_arrays_reject_writes(self):
        grid = sample_points(get_manifold("torus"), 400, "uniform_grid")
        pts = grid.ambient.copy()
        cloud = PointCloud(pts, grid.intrinsic, "uniform_grid", grid.manifold)
        pts[0, 0] = np.nan  # the caller's array is not the cloud's
        assert np.isfinite(cloud.ambient).all()
        for arr in (cloud.ambient, cloud.intrinsic):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = np.nan

    def test_field_arrays_reject_writes(self):
        drift, diffusion_inv = np.zeros((3, 2)), np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
        field = CoefficientField(drift, diffusion_inv)
        diffusion_inv[1] = -np.eye(2)  # the caller's array is not the field's
        assert (psd_eigenvalues(field.diffusion_inv)[0] > 0).all()
        for arr in (field.drift, field.diffusion_inv):
            with pytest.raises(ValueError, match="read-only"):
                arr[1] = -1.0


class TestLoadCloud:
    def test_three_point_file(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("1 0 0\n0 1 0\n0 0 1\n")
        cloud = load_cloud(path)
        assert cloud.ambient.shape == (3, 3)
        assert cloud.intrinsic is None
        assert cloud.sampling == "iid_density"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="at least 2"):
            load_cloud(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("1 0\n2\n")
        with pytest.raises(ValueError, match="line 2"):
            load_cloud(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0\nx 3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_cloud(path)

    def test_sphere_sample_round_trip(self, tmp_path):
        cloud = sample_sphere(3000, seed=11)
        path = tmp_path / "sphere.txt"
        path.write_text(
            "\n".join(" ".join(repr(float(v)) for v in row) for row in cloud.ambient) + "\n"
        )
        loaded = load_cloud(path)
        assert loaded.ambient.shape == (3000, 3)
        np.testing.assert_array_equal(loaded.ambient, cloud.ambient)


class TestSphereSampler:
    def test_unit_norm_and_determinism(self):
        a = sample_sphere(500, seed=3)
        b = sample_sphere(500, seed=3)
        np.testing.assert_array_equal(a.ambient, b.ambient)
        np.testing.assert_allclose(np.linalg.norm(a.ambient, axis=1), 1.0, atol=1e-12)


class TestCoefficientField:
    def test_isotropic(self):
        f = CoefficientField.isotropic(5, 3)
        assert f.drift.shape == (5, 3)
        np.testing.assert_array_equal(f.diffusion_inv[2], np.eye(3))

    def test_laplace_beltrami_halves_inverse(self):
        f = CoefficientField.laplace_beltrami(4, 3)
        np.testing.assert_array_equal(f.diffusion_inv[0], np.eye(3) / 2.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="drift"):
            CoefficientField(np.zeros((5, 3)), np.zeros((5, 2, 2)))

    @pytest.mark.parametrize("scale, accepted", [(0.5e-12, True), (2e-12, False)])
    def test_tolerance_is_relative_to_the_largest_eigenvalue(self, scale, accepted):
        diffusion_inv = np.diag([4.0, -4.0 * scale])[None]
        if accepted:
            field = CoefficientField(np.zeros((1, 2)), diffusion_inv)
            assert psd_eigenvalues(field.diffusion_inv)[0][0, 0] == -4.0 * scale
        else:
            with pytest.raises(ValueError, match="point 0 is not positive semidefinite"):
                CoefficientField(np.zeros((1, 2)), diffusion_inv)

    @pytest.mark.parametrize("mode", ["uniform_grid", "iid_density"])
    @pytest.mark.parametrize("problem_id", PROBLEM_IDS)
    def test_paper_fields_pass(self, problem_id, mode):
        # the lifted C^-1 = pinv(J c J^T) is PSD of rank d; its rounding must
        # stay inside the -1e-12 max|eig| tolerance on every zoo problem
        problem = analytic_pair(problem_id)
        n = {"torus": 400, "half_torus": 200}.get(problem_id, 300)
        cloud = sample_points(problem.manifold, n, mode, seed=7)
        field = problem_coefficients(problem, cloud)
        eig, bad = psd_eigenvalues(field.diffusion_inv)
        assert bad is None
        assert (eig[:, 0] >= -1e-12 * np.abs(eig).max(axis=1)).all()

import numpy as np
import pytest

from lokpde.problems import PROBLEM_IDS, analytic_pair


def _ellipse_geometry(x):
    # g_11 = sin^2 t + 4 cos^2 t; Gamma^1_11 = g^11 (dg_11/dt) / 2 = -3 g^11 sin t cos t
    th = x[:, 0]
    g11 = np.sin(th) ** 2 + 4.0 * np.cos(th) ** 2
    return g11[:, None, None], (-3.0 / g11 * np.sin(th) * np.cos(th))[:, None, None, None]


def _torus_geometry(x):
    th = x[:, 0]
    r = 2.0 + np.cos(th)
    g = np.zeros((th.shape[0], 2, 2))
    g[:, 0, 0] = 1.0
    g[:, 1, 1] = r**2
    gamma = np.zeros((th.shape[0], 2, 2, 2))
    gamma[:, 1, 0, 1] = -np.sin(th) / r  # Gamma^2_12
    gamma[:, 1, 1, 0] = -np.sin(th) / r  # Gamma^2_21
    gamma[:, 0, 1, 1] = np.sin(th) * r   # Gamma^1_22
    return g, gamma


# manifold id -> (N, d) points -> (metric g (N, d, d), Christoffel Gamma^k_ij (N, d, d, d))
GEOMETRY = {
    "interval": lambda x: (np.ones((x.shape[0], 1, 1)), np.zeros((x.shape[0], 1, 1, 1))),
    "ellipse": _ellipse_geometry,
    "half_ellipse": _ellipse_geometry,
    "torus": _torus_geometry,
    "half_torus": _torus_geometry,
}


def apply_kolmogorov_fd(problem, x, h=None):
    """Apply (a + L) to the problem's u by central finite differences.

    Partial derivatives of u are taken with symmetric stencils of width
    ``h`` (default 1e-5 of the largest parameter-domain length, balancing
    truncation against round-off at double precision); the metric and
    Christoffel symbols (from ``GEOMETRY``) and the coefficients are
    evaluated analytically.  Serves
    as the independent oracle for the closed-form f evaluators.
    """
    d = problem.manifold.intrinsic_dim
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if h is None:
        lengths = [hi - lo for lo, hi in problem.manifold.parameter_domain]
        h = 1e-5 * max(lengths)
    npts = pts.shape[0]

    grad = np.empty((npts, d))
    hess = np.empty((npts, d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        up = problem.u(pts + ei)
        dn = problem.u(pts - ei)
        grad[:, i] = (up - dn) / (2.0 * h)
        hess[:, i, i] = (up - 2.0 * problem.u(pts) + dn) / h**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            mixed = (
                problem.u(pts + ei + ej)
                - problem.u(pts + ei - ej)
                - problem.u(pts - ei + ej)
                + problem.u(pts - ei - ej)
            ) / (4.0 * h**2)
            hess[:, i, j] = mixed
            hess[:, j, i] = mixed

    metric, gamma = GEOMETRY[problem.manifold.id](pts)
    g_inv = np.linalg.inv(metric)
    b = problem.drift(pts)
    c = problem.diffusion(pts)

    drift_term = np.einsum("nij,ni,nj->n", g_inv, b, grad)
    cov_hess = hess - np.einsum("nkij,nk->nij", gamma, grad)
    hessian_term = 0.5 * np.einsum("nij,nij->n", c, cov_hess)
    return drift_term + hessian_term + problem.shift(pts) * problem.u(pts)


def interior_points(problem, n, margin=0.05, seed=0):
    rng = np.random.default_rng(seed)
    man = problem.manifold
    lo = np.array([a for a, _ in man.parameter_domain])
    hi = np.array([b for _, b in man.parameter_domain])
    frac = margin + (1 - 2 * margin) * rng.random((n, man.intrinsic_dim))
    return lo + (hi - lo) * frac


class TestFrozenValues:
    def test_bvp1d(self):
        p = analytic_pair("bvp1d")
        np.testing.assert_allclose(p.u([[0.25]]), [np.cos(np.pi / 2)], atol=1e-15)
        np.testing.assert_allclose(p.f([[0.0]]), [-(2 * np.pi**2 + 2)])
        np.testing.assert_allclose(p.shift([[0.3]]), [-2.0])

    def test_bvp1d_general_drift(self):
        p = analytic_pair("bvp1d", b=10.0)
        x = np.array([[0.2]])
        expected = -2 * np.pi * 10 * np.sin(0.4 * np.pi) - (2 * np.pi**2 + 2) * np.cos(0.4 * np.pi)
        np.testing.assert_allclose(p.f(x), [expected])

    def test_ellipse_rhs(self):
        p = analytic_pair("ellipse")
        np.testing.assert_allclose(p.f([[np.pi / 2]]), [0.0], atol=1e-15)
        np.testing.assert_allclose(p.f([[0.0]]), [-1.05])

    def test_ellipse_metric_and_christoffel(self):
        th = np.array([[0.7]])
        g11 = np.sin(0.7) ** 2 + 4 * np.cos(0.7) ** 2
        metric, gamma = GEOMETRY["ellipse"](th)
        np.testing.assert_allclose(metric[0, 0, 0], g11)
        np.testing.assert_allclose(gamma[0, 0, 0, 0], -3 / g11 * np.sin(0.7) * np.cos(0.7))

    def test_torus_christoffels(self):
        pt = np.array([[0.9, 2.1]])
        r = 2 + np.cos(0.9)
        metric, gamma = GEOMETRY["torus"](pt)
        gamma = gamma[0]
        np.testing.assert_allclose(gamma[1, 0, 1], -np.sin(0.9) / r)
        np.testing.assert_allclose(gamma[1, 1, 0], -np.sin(0.9) / r)
        np.testing.assert_allclose(gamma[0, 1, 1], np.sin(0.9) * r)
        np.testing.assert_allclose(metric[0], np.diag([1.0, r**2]))

    def test_unknown_problem(self):
        with pytest.raises(ValueError, match="unknown problem"):
            analytic_pair("klein_bottle")

    def test_parameters_rejected_outside_bvp1d(self):
        with pytest.raises(ValueError, match="no parameters"):
            analytic_pair("torus", b=1.0)


class TestOperatorConsistency:
    """f must equal (a + L) u, checked by the finite-difference oracle."""

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_fd_matches_rhs(self, pid):
        p = analytic_pair(pid)
        pts = interior_points(p, 60)
        fd = apply_kolmogorov_fd(p, pts)
        np.testing.assert_allclose(fd, p.f(pts), atol=2e-5)

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_fd_second_order(self, pid):
        # halving h divides the FD error by ~4 (observed slope >= 1.9)
        p = analytic_pair(pid)
        pts = interior_points(p, 40, seed=1)
        f_exact = p.f(pts)
        errs = [
            np.abs(apply_kolmogorov_fd(p, pts, h=h) - f_exact).max()
            for h in (2e-2, 1e-2, 5e-3)
        ]
        slopes = np.diff(np.log(errs)) / np.log(0.5)
        assert (slopes >= 1.9).all(), f"{pid}: FD slopes {slopes}"


class TestNeumannCompatibility:
    def test_interval_endpoints(self):
        p = analytic_pair("bvp1d")
        h = 1e-6
        for x0 in (0.0, 1.0):
            du = (p.u([[x0 + h]]) - p.u([[x0 - h]])) / (2 * h)
            assert abs(du[0]) < 1e-8

    def test_half_ellipse_endpoints(self):
        p = analytic_pair("half_ellipse")
        h = 1e-6
        for th0 in (0.0, np.pi):
            du = (p.u([[th0 + h]]) - p.u([[th0 - h]])) / (2 * h)
            assert abs(du[0]) < 1e-8

    def test_half_torus_boundary_normal(self):
        p = analytic_pair("half_torus")
        h = 1e-6
        for phi0 in (0.0, np.pi):
            for th in (0.3, 1.2, 4.0):
                up = p.u([[th, phi0 + h]])
                dn = p.u([[th, phi0 - h]])
                assert abs((up - dn)[0] / (2 * h)) < 1e-8

"""Local kernel evaluation, kNN sparsity, and kernel-matrix assembly.

The workhorse is the drift-shifted anisotropic exponential kernel

    K(eps, x, y) = exp(-(x - y + eps B(x))^T C(x)^-1 (x - y + eps B(x)) / (2 eps)),

whose small-eps moments over the tangent plane encode the drift and
diffusion coefficients; :func:`moment_check` verifies that numerically.
The isotropic Gaussian kernel (B = 0, C = I) doubles as the density
estimator used by the debiasing normalization.

The kernel is evaluated only on each point's k nearest neighbours.
:func:`build_knn_graph` takes candidates from a k-d tree
(``scipy.spatial``, imported on the first search, not with this module),
recomputes their squared distances with the exact formula, orders them by
(d^2, index) and widens the candidate set until no left-out point can tie
with the k-th.  Its (indices, d^2) pair equals a brute-force search over
all N^2 pairs bit for bit, and the d^2 feed the density estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .geometry import CoefficientField, PointCloud

__all__ = [
    "KernelConfig",
    "SparseKernelMatrix",
    "MomentReport",
    "eval_prototypical_kernel",
    "build_knn_graph",
    "assemble_kernel_matrix",
    "moment_check",
]

_CHUNK_ROWS = 256


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidths and sparsity for one operator build.

    ``epsilon`` is the squared-length scale of the prototypical kernel,
    ``tilde_epsilon`` the Gaussian bandwidth used for density estimation,
    ``k_neighbors`` the kNN count (self included; N gives the dense kernel).
    """

    epsilon: float
    tilde_epsilon: float
    k_neighbors: int

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be a positive finite real")
        if not (np.isfinite(self.tilde_epsilon) and self.tilde_epsilon > 0):
            raise ValueError("tilde_epsilon must be a positive finite real")
        if self.k_neighbors < 2:
            raise ValueError("k_neighbors must be at least 2")


@dataclass(frozen=True)
class SparseKernelMatrix:
    """CSR kernel matrix with the bandwidth it was evaluated at.

    Retained entries equal K(eps, x_i, x_j) exactly; column indices are
    strictly increasing within each row (canonical CSR).  Entries are never
    truncated by magnitude, so row sums are reproducible.
    """

    matrix: scipy.sparse.csr_matrix
    epsilon: float

    def __post_init__(self):
        if not scipy.sparse.issparse(self.matrix):
            raise ValueError("matrix must be a scipy sparse matrix")
        object.__setattr__(self, "matrix", self.matrix.tocsr())
        self.matrix.sort_indices()

    @property
    def n_points(self) -> int:
        return self.matrix.shape[0]


def row_blocks(n: int, size: int) -> list[slice]:
    """The row slices [s, min(s + size, n)) for s = 0, size, 2 size, ... below n."""
    return [slice(s, min(s + size, n)) for s in range(0, n, size)]


def _check_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite kernel input")


def _check_neighbors(neighbors, n, k):
    """Name the shapes unless both arrays of an ``(indices, d2)`` pair are (n, k)."""
    shapes = [np.shape(a) for a in neighbors]
    if shapes != [(n, k)] * 2:
        raise ValueError(f"neighbors (indices, d2) must both be ({n}, {k}), got {shapes}")


def _quad_form(v: np.ndarray, diff_inv: np.ndarray) -> np.ndarray:
    """v^T C^-1 v for v of shape (m, k, n) and C^-1 of shape (m, n, n).

    Single shared contraction so the scalar kernel evaluation and the matrix
    assembly produce bit-identical values.
    """
    return np.einsum("mkn,mnp,mkp->mk", v, diff_inv, v)


def eval_prototypical_kernel(x, y, drift, diffusion_inv, epsilon: float) -> float:
    """Scalar reference evaluation of the prototypical local kernel."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    B = np.atleast_1d(np.asarray(drift, dtype=float))
    Ci = np.atleast_2d(np.asarray(diffusion_inv, dtype=float))
    _check_finite(x, y, B, Ci)
    if not (epsilon > 0 and np.isfinite(epsilon)):
        raise ValueError("epsilon must be positive and finite")
    v = x - y + epsilon * B
    quad = _quad_form(v[None, None, :], Ci[None, :, :])[0, 0]
    return float(np.exp(-quad / (2.0 * epsilon)))


def build_knn_graph(cloud: PointCloud | np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest points (self included) of every point, with their d^2.

    Returns ``(indices, d2)``, both (N, k), ordered by (d^2, index): distance
    ties break toward the smaller index, so the result is deterministic.
    ``d2[i, c]`` is |x_i - x_j|^2 for j = ``indices[i, c]``, computed as
    ``diff = x_i - x_j`` then ``einsum("mjn,mjn->mj", diff, diff)``.

    A k-d tree (``scipy.spatial.cKDTree``, imported on first call) proposes
    m = k + 8 candidates per row, in blocks of rows.  Their d^2 is
    recomputed with the exact formula above and the candidates are sorted
    by (d^2, index).  Every point the tree left out is at least the tree's
    m-th distance away; if that distance squared, less a rounding margin,
    is not strictly above the k-th exact d^2, a left-out point could tie
    with or beat the k-th candidate, so m doubles for those rows (up to N)
    and the tree is queried again.  The result equals the brute-force
    search over all N points exactly.

    Raises ValueError for k outside [1, N] and names the first point with
    a non-finite coordinate.
    """
    pts = cloud.ambient if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and N={n}, got {k}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite coordinate at point {int(np.argmin(finite))}")
    import scipy.spatial  # ~0.1 s to import, so only when a search runs

    tree = scipy.spatial.cKDTree(pts)
    # the tree's distances and the exact d^2 each carry a few ulps of rounding
    shrink = 1.0 - 8.0 * (pts.shape[1] + 2) * np.finfo(float).eps
    indices = np.empty((n, k), dtype=np.intp)
    d2 = np.empty((n, k))
    for block in row_blocks(n, _CHUNK_ROWS):
        rows = np.arange(block.start, block.stop)
        m = min(k + 8, n)
        while rows.size:
            dist, cand = tree.query(pts[rows], k=m)
            dist, cand = dist.reshape(rows.size, m), cand.reshape(rows.size, m)
            diff = pts[rows, None, :] - pts[cand]
            cand_d2 = np.einsum("mjn,mjn->mj", diff, diff)
            order = np.argsort(cand_d2, axis=1, kind="stable")
            cand = np.take_along_axis(cand, order, axis=1)
            cand_d2 = np.take_along_axis(cand_d2, order, axis=1)
            # equal d^2 put the smaller index first: sort by (rank of d^2, index)
            rank = np.zeros(cand.shape, dtype=np.intp)
            np.cumsum(cand_d2[:, 1:] != cand_d2[:, :-1], axis=1, out=rank[:, 1:])
            order = np.argsort(rank * n + cand, axis=1, kind="stable")[:, :k]
            cand = np.take_along_axis(cand, order, axis=1)
            cand_d2 = np.take_along_axis(cand_d2, order, axis=1)
            done = (m == n) | (dist[:, -1] ** 2 * shrink > cand_d2[:, -1])
            indices[rows[done]] = cand[done]
            d2[rows[done]] = cand_d2[done]
            rows = rows[~done]
            m = min(2 * m, n)
    return indices, d2


def _kernel_rows(x_rows, pts, cols, drift_rows, diff_inv_rows, epsilon):
    """Kernel values for rows x_rows against pts[cols], row coefficients."""
    nbr = pts[cols]                                   # (m, k, n)
    v = x_rows[:, None, :] - nbr + epsilon * drift_rows[:, None, :]
    return np.exp(-_quad_form(v, diff_inv_rows) / (2.0 * epsilon))


def assemble_kernel_matrix(
    cloud: PointCloud,
    coeffs: CoefficientField,
    cfg: KernelConfig,
    neighbors: tuple[np.ndarray, np.ndarray] | None = None,
) -> SparseKernelMatrix:
    """Evaluate the prototypical kernel on the kNN pattern of the cloud.

    Row i holds K(eps, x_i, x_j) for the neighbors j of i, evaluated with
    the row point's coefficients B(x_i), C(x_i)^-1; ``k_neighbors = N``
    retains every column.  A precomputed ``(indices, d2)`` pair (as
    returned by :func:`build_knn_graph`) can be passed to amortize the
    search across bandwidths.
    """
    pts = cloud.ambient
    n = pts.shape[0]
    if coeffs.n_points != n:
        raise ValueError("coefficient field size does not match cloud")
    _check_finite(pts, coeffs.drift, coeffs.diffusion_inv)
    if neighbors is None:
        neighbors = build_knn_graph(cloud, cfg.k_neighbors)
    _check_neighbors(neighbors, n, cfg.k_neighbors)
    cols = np.sort(neighbors[0], axis=1)
    k = cols.shape[1]
    data = np.empty((n, k))
    for rows in row_blocks(n, _CHUNK_ROWS):
        data[rows] = _kernel_rows(
            pts[rows], pts, cols[rows], coeffs.drift[rows], coeffs.diffusion_inv[rows], cfg.epsilon
        )
    indptr = np.arange(0, n * k + 1, k, dtype=np.intp)
    mat = scipy.sparse.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(n, n))
    return SparseKernelMatrix(mat, cfg.epsilon)


@dataclass(frozen=True)
class MomentReport:
    """Monte-Carlo moment estimates of the kernel over a flat tangent plane.

    ``m_exact`` is the closed-form normalization (2 pi)^(d/2) det(c)^(1/2);
    the hats are the sampled zeroth/first/second moments with their
    standard errors.
    """

    m_hat: float
    b_hat: np.ndarray
    c_hat: np.ndarray
    m_exact: float
    m_se: float
    b_se: np.ndarray
    c_se: np.ndarray


def moment_check(
    d: int,
    c: np.ndarray,
    b: np.ndarray,
    epsilon: float,
    n_samples: int = 100_000,
    seed: int = 0,
) -> MomentReport:
    """Estimate the kernel's zeroth, first and second moments on R^d.

    In the flat setting the embedding is the identity, so B = b and
    C^-1 = c^-1; the kernel in the rescaled variable z is a Gaussian with
    mean sqrt(eps) b and covariance c.  Moments are integrated by plain
    Monte-Carlo over a box wide enough to hold the Gaussian mass, and
    should recover m = (2 pi)^(d/2) det(c)^(1/2), b, and c within a few
    standard errors (the second moment carries an O(eps) drift bias).
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if c.shape != (d, d) or b.shape != (d,):
        raise ValueError("c must be (d, d) and b (d,)")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    c_inv = np.linalg.inv(c)
    eigmax = np.linalg.eigvalsh(c).max()
    half_width = 8.0 * np.sqrt(eigmax) + np.sqrt(epsilon) * np.linalg.norm(b)
    volume = (2.0 * half_width) ** d

    rng = np.random.default_rng(seed)
    z = rng.uniform(-half_width, half_width, size=(n_samples, d))
    shifted = z - np.sqrt(epsilon) * b
    kvals = np.exp(-0.5 * np.einsum("mi,ij,mj->m", shifted, c_inv, shifted))

    def mc(values):
        est = volume * values.mean(axis=0)
        se = volume * values.std(axis=0, ddof=1) / np.sqrt(n_samples)
        return est, se

    m_hat, m_se = mc(kvals)
    zl_est, zl_se = mc(z * kvals[:, None])
    zz = z[:, :, None] * z[:, None, :] * kvals[:, None, None]
    zz_est, zz_se = mc(zz)

    b_hat = zl_est / (np.sqrt(epsilon) * m_hat)
    b_se = zl_se / (np.sqrt(epsilon) * m_hat)
    c_hat = zz_est / m_hat
    c_se = zz_se / m_hat
    m_exact = (2.0 * np.pi) ** (d / 2.0) * np.sqrt(np.linalg.det(c))
    return MomentReport(float(m_hat), b_hat, c_hat, float(m_exact), float(m_se), b_se, c_se)

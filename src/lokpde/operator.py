"""From kernel matrix to discrete generator: normalizations and tuning.

The pipeline discretizes the integral-operator approximation of the
backward Kolmogorov operator:

1. evaluate the kernel matrix K on the kNN pattern,
2. (debias, for non-uniform samples) divide column j by a Gaussian kernel
   density estimate at x_j,
3. divide each row by its sum, giving a row-stochastic matrix S,
4. form the generator L = (S - I) / eps.

Constant multiples of the density and the eps^(-d/2) prefactors cancel in
the row normalization, so neither the sampling density's scale nor the
intrinsic dimension is needed to build L.  Bandwidths can be selected by
locating the maximal log-log slope of Q(eps), the mean of the full kernel
matrix, which also estimates the intrinsic dimension as twice that slope.

The Q(eps) scan is exact but skips the terms it can certify to be 0.0:
for positive semidefinite C^-1 (checked; the first bad point is named)
the quadratic form is bounded below by (sqrt(q0) - eps sqrt(q2))^2, and
a term is skipped only if that bound, less a rounding margin, keeps the
exponent above 750, past float64's underflow point 1075 ln 2 = 745.13.
When the kernel is symmetric to the bit (zero drift and one C^-1 = c I
for every point, as in the Gaussian scan) each pair is visited once and
counted twice.  Blocks of 32 rows run on at most
``len(os.sched_getaffinity(0))`` threads and are summed in block order,
so the result is the same for any worker count.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .geometry import CoefficientField, PointCloud
from .kernels import KernelConfig, SparseKernelMatrix, assemble_kernel_matrix, build_knn_graph

__all__ = [
    "DensityEstimate",
    "GeneratorMatrix",
    "TuningReport",
    "estimate_density",
    "right_normalize",
    "left_normalize",
    "build_operator",
    "tune_bandwidth",
    "tune_gaussian_bandwidth",
    "default_epsilon_grid",
]

_BLOCK_ROWS = 32
# exp(-x) is exactly 0.0 in float64 for x > 1075 ln 2 = 745.13...; the
# scan skips a term only if its certified bound puts x above this
_UNDERFLOW_EXPONENT = 750.0
_PSD_RTOL = 1e-12


@dataclass(frozen=True)
class DensityEstimate:
    """Per-point Gaussian kernel density values (unnormalized, all > 0)."""

    q_hat: np.ndarray
    tilde_epsilon: float

    def __post_init__(self):
        q = np.asarray(self.q_hat, dtype=float)
        object.__setattr__(self, "q_hat", q)
        if np.any(q <= 0) or not np.all(np.isfinite(q)):
            raise ValueError("density estimate must be strictly positive and finite")


@dataclass(frozen=True)
class GeneratorMatrix:
    """Row-stochastic matrix S with its bandwidth; L = (S - I) / eps.

    ``row_sums`` holds the pre-normalization kernel row sums (the diagonal
    of D in S = D^-1 K).
    """

    s_matrix: scipy.sparse.csr_matrix
    epsilon: float
    debiased: bool
    row_sums: np.ndarray

    @property
    def n_points(self) -> int:
        return self.s_matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """L v = (S v - v) / eps; annihilates constant vectors."""
        v = np.asarray(v, dtype=float)
        return (self.s_matrix @ v - v) / self.epsilon

    def matrix(self) -> scipy.sparse.csr_matrix:
        """The generator L = (S - I) / eps as an explicit sparse matrix."""
        n = self.n_points
        eye = scipy.sparse.identity(n, format="csr")
        return ((self.s_matrix - eye) / self.epsilon).tocsr()

    def shifted_matrix(self, shift: np.ndarray) -> scipy.sparse.csr_matrix:
        """diag(a) + L for a per-point zeroth-order shift a."""
        shift = np.asarray(shift, dtype=float)
        if shift.shape != (self.n_points,):
            raise ValueError("shift must be an N-vector")
        return (self.matrix() + scipy.sparse.diags(shift)).tocsr()


def estimate_density(
    cloud: PointCloud,
    tilde_epsilon: float,
    k: int,
    neighbors: tuple[np.ndarray, np.ndarray] | None = None,
) -> DensityEstimate:
    """Gaussian kernel density values over the kNN pattern.

    q_i = sum_j exp(-|x_i - x_j|^2 / (2 eps~)) over the k nearest neighbors
    of i, summed in (d^2, index) order from the squared distances of the
    ``(indices, d2)`` pair that :func:`build_knn_graph` returns (searched
    here when ``neighbors`` is None); the self term makes every value >= 1.
    """
    if tilde_epsilon <= 0:
        raise ValueError("tilde_epsilon must be positive")
    if neighbors is None:
        neighbors = build_knn_graph(cloud, min(k, cloud.n_points))
    d2 = neighbors[1]
    return DensityEstimate(np.exp(-d2 / (2.0 * tilde_epsilon)).sum(axis=1), tilde_epsilon)


def right_normalize(kernel: SparseKernelMatrix, density: DensityEstimate) -> SparseKernelMatrix:
    """Debias: divide column j by the density estimate at x_j (K <- K D1^-1)."""
    q = density.q_hat
    if q.shape[0] != kernel.n_points:
        raise ValueError("density size does not match kernel matrix")
    mat = kernel.matrix.copy()
    mat.data = mat.data / q[mat.indices]
    return SparseKernelMatrix(mat, kernel.epsilon)


def left_normalize(kernel: SparseKernelMatrix, debiased: bool = False) -> GeneratorMatrix:
    """Row-normalize to a stochastic matrix S = D^-1 K, D = diag(row sums)."""
    mat = kernel.matrix.tocsr().copy()
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    if np.any(row_sums <= 0):
        bad = int(np.argmin(row_sums))
        raise ValueError(
            f"kernel row {bad} has non-positive sum {row_sums[bad]!r}; "
            "the point is isolated (k too small or epsilon too small)"
        )
    counts = np.diff(mat.indptr)
    mat.data = mat.data / np.repeat(row_sums, counts)
    return GeneratorMatrix(mat, kernel.epsilon, debiased, row_sums)


def build_operator(
    cloud: PointCloud,
    coeffs: CoefficientField,
    cfg: KernelConfig,
    debias: bool = True,
    neighbors: tuple[np.ndarray, np.ndarray] | None = None,
) -> GeneratorMatrix:
    """Full pipeline: kernel matrix -> (debias) -> row normalization.

    One kNN search (or the precomputed ``(indices, d2)`` pair from
    :func:`build_knn_graph`) feeds both the kernel matrix and, with
    ``debias``, the Gaussian density estimate at bandwidth
    ``cfg.tilde_epsilon`` that the kernel columns are pre-divided by,
    removing the sampling-density bias of i.i.d. clouds.  ``k_neighbors = N``
    gives the dense operator.
    """
    if neighbors is None:
        neighbors = build_knn_graph(cloud, cfg.k_neighbors)
    kernel = assemble_kernel_matrix(cloud, coeffs, cfg, neighbors=neighbors)
    if debias:
        density = estimate_density(cloud, cfg.tilde_epsilon, cfg.k_neighbors, neighbors)
        kernel = right_normalize(kernel, density)
    return left_normalize(kernel, debiased=debias)


@dataclass(frozen=True)
class TuningReport:
    """Q(eps) scan: log Q, per-point log-log slopes, and the selection.

    Q is computed over all N^2 kernel pairs (dense), so Q -> 1 as
    eps -> infinity for drift-free kernels and Q -> 1/N as eps -> 0.
    ``d_hat`` is twice the maximal slope; ``epsilon_star`` the grid point
    attaining it.  ``pair_evals`` counts the ``exp`` evaluations; a term
    that stands for its mirror (j, i) as well, on the symmetric route of
    :func:`tune_bandwidth`, counts once.  The terms not evaluated are
    certified to be exactly 0.0.
    """

    epsilon_grid: np.ndarray
    log_q: np.ndarray
    slope: np.ndarray
    epsilon_star: float
    d_hat: float
    pair_evals: int


def default_epsilon_grid() -> np.ndarray:
    """41 logarithmically spaced bandwidths from 2^-30 to 2^10."""
    return 2.0 ** np.linspace(-30.0, 10.0, 41)


def psd_eigenvalues(diffusion_inv: np.ndarray) -> tuple[np.ndarray, int | None]:
    """Ascending eigenvalues of the symmetric part of every C^-1, and the
    first point whose smallest one is below -1e-12 max|eig| (None if none)."""
    sym = 0.5 * (diffusion_inv + np.swapaxes(diffusion_inv, 1, 2))
    eig = np.linalg.eigvalsh(sym)
    bad = np.flatnonzero(eig[:, 0] < -_PSD_RTOL * np.abs(eig).max(axis=1))
    return eig, (int(bad[0]) if bad.size else None)


def _q0_window(pts, coeffs, eig, q2, grid):
    """Per-row q0 bounds outside which every term underflows to exactly 0.0.

    Returns (low, high), each (N, grid.size): the term of pair (i, j) at
    grid point g can be nonzero only if low[i, g] < q0_ij < high[i, g].
    A q0 below 0 from rounding counts as 0 (low is -inf or positive).
    """
    dim = pts.shape[1]
    ci = coeffs.diffusion_inv
    # rounding in q0, q1, q2 and in the quadratic form, a slightly negative
    # eigenvalue and an antisymmetric part of C^-1 all perturb quad by at
    # most kappa (|v| + eps |B|)^2, so |sqrt(q0) - eps sqrt(q2)| may fall
    # short of sqrt(quad) by at most sigma (|v| + eps |B|)
    gamma = 4.0 * (2 * dim + 8) * np.finfo(float).eps / 2.0
    norm_c = np.sqrt(np.einsum("mnp,mnp->m", ci, ci))
    anti = ci - np.swapaxes(ci, 1, 2)
    norm_anti = 0.5 * np.sqrt(np.einsum("mnp,mnp->m", anti, anti))
    sigma = 3.0 * np.sqrt(np.maximum(-eig[:, 0], 0.0) + norm_anti + 2.0 * gamma * norm_c)
    # |x_i - x_j| <= |x_i - center| + max_j |x_j - center|
    dist = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
    reach = (dist + dist.max()) * (1.0 + 1e-9)
    b_norm = np.linalg.norm(coeffs.drift, axis=1) * (1.0 + 1e-9)

    eps = grid[None, :]
    center = eps * np.sqrt(np.maximum(q2, 0.0))[:, None]
    radius = np.sqrt((2.0 * _UNDERFLOW_EXPONENT) * eps)
    radius = radius + sigma[:, None] * (reach[:, None] + eps * b_norm[:, None])
    radius += 1e-12 * (center + radius)  # rounding of these bounds themselves
    lower = center - radius
    low = np.where(lower > 0.0, lower * lower, -np.inf)
    return low, (center + radius) ** 2


def _isotropic_scale(coeffs: CoefficientField) -> float | None:
    """c when the drift is zero and every C^-1 is the same c I, else None.

    Such a kernel is symmetric to the bit: x_j - x_i is exactly
    -(x_i - x_j), so q0_ji and q0_ij are the same double, and C^-1 v is
    c v, the same double as the einsum with c I gives.
    """
    ci = coeffs.diffusion_inv
    c = float(ci[0, 0, 0])
    if coeffs.drift.any() or not (ci == c * np.eye(ci.shape[1])).all():
        return None
    return c


def _carve(shape, size):
    """A C-contiguous float array of ``shape`` at the front of a new buffer
    of ``size`` >= its element count."""
    return np.empty(size)[: int(np.prod(shape))].reshape(shape)


def _window_sums(q0, q1, q2_rows, low, high, grid):
    """Sum each grid point's terms over the window of row-sorted q0.

    ``q1`` is in q0's order (None without drift, then ``q2_rows`` is
    unused); ``low``/``high`` are the rows' bounds from :func:`_q0_window`.
    Every row evaluates the union of the rows' windows, one contiguous
    column range per grid point.  Returns (sums, terms evaluated).
    """
    los = [np.searchsorted(row, lo, side="right") for row, lo in zip(q0, low)]
    his = [np.searchsorted(row, hi, side="left") for row, hi in zip(q0, high)]
    los, his = np.min(los, axis=0), np.max(his, axis=0)
    buf = np.empty(q0.size)
    sums = np.zeros(grid.size)
    evals = 0
    for idx, eps in enumerate(grid):
        lo, hi = los[idx], his[idx]
        if lo >= hi:
            continue
        # quad / (-2 eps) == -quad / (2 eps) bit for bit
        out = buf[: q0.shape[0] * (hi - lo)].reshape(q0.shape[0], hi - lo)
        if q1 is not None:
            np.multiply(q1[:, lo:hi], 2.0 * eps, out=out)
            np.add(q0[:, lo:hi], out, out=out)
            np.add(out, (eps * eps) * q2_rows, out=out)
            np.divide(out, -2.0 * eps, out=out)
        else:
            np.divide(q0[:, lo:hi], -2.0 * eps, out=out)
        np.exp(out, out=out)
        sums[idx] = out.sum()
        evals += out.size
    return sums, evals


def tune_bandwidth(
    cloud: PointCloud,
    coeffs: CoefficientField,
    grid: np.ndarray | None = None,
) -> TuningReport:
    """Scan Q(eps) = mean_ij K(eps, x_i, x_j) over a bandwidth grid.

    The quadratic form splits as q0 + 2 eps q1 + eps^2 q2 with
    q0 = v^T C^-1 v, q1 = B^T C^-1 v, q2 = B^T C^-1 B (v = x_i - x_j), so
    the pairwise pieces are computed once and reused for every eps.
    Slopes of log Q against log eps use centered differences (one-sided at
    the ends); the maximal slope estimates d/2 and selects eps.

    Every term that is evaluated uses exactly that formula; terms that
    provably evaluate to 0.0 are skipped.  With C^-1 positive
    semidefinite, quad = |v + eps B|^2 in the C^-1 seminorm, so
    sqrt(quad) >= |sqrt(q0) - eps sqrt(q2)|.  A term is skipped when this
    bound, less a margin for the rounding of q0, q1, q2 and of the form,
    still puts quad / (2 eps) above 750, beyond the 745.13 at which
    exp(-x) underflows to 0.0 in float64.  Rows are processed in blocks of
    32 with their q0 sorted, so each grid point evaluates one contiguous
    column range per block.

    When the drift is zero and every C^-1 is the same c I (the Gaussian
    scan, isotropic and Laplace-Beltrami fields), the kernel is symmetric
    to the bit and each pair is visited once: the block of rows
    [s, s + 32) visits only the columns j >= s, adds its diagonal square
    once and the columns past it twice, and forms C^-1 v as c v.  A
    skipped term's mirror is the same 0.0.

    Blocks run on a thread pool of ``len(os.sched_getaffinity(0))``
    workers, never more; their partial sums are added in block order, so
    the result does not depend on the worker count.

    Raises ValueError for a grid that is not finite, positive and strictly
    increasing, for non-finite input, and names the first point whose
    C^-1 has an eigenvalue below -1e-12 max|eig|.
    """
    grid = default_epsilon_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("bandwidth grid needs at least 3 points")
    if not np.isfinite(grid).all() or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("bandwidth grid must be finite, positive and strictly increasing")
    pts = cloud.ambient
    n, dim = pts.shape
    if coeffs.n_points != n:
        raise ValueError("coefficient field size does not match cloud")
    ci, drift = coeffs.diffusion_inv, coeffs.drift
    if not (np.isfinite(pts).all() and np.isfinite(ci).all() and np.isfinite(drift).all()):
        raise ValueError("non-finite point or coefficient in the bandwidth scan")
    eig, bad_point = psd_eigenvalues(ci)
    if bad_point is not None:
        raise ValueError(
            f"diffusion_inv at point {bad_point} is not positive semidefinite "
            f"(smallest eigenvalue {eig[bad_point, 0]!r})"
        )
    has_drift = bool(drift.any())
    q2 = np.einsum("mn,mnp,mp->m", drift, ci, drift)
    low, high = _q0_window(pts, coeffs, eig, q2, grid)
    scale = _isotropic_scale(coeffs)

    def scan_symmetric(start):
        stop = min(start + _BLOCK_ROWS, n)
        pairs = (stop - start, n - start)
        # cut from buffers of the first block's size: ever smaller blocks
        # leave freed chunks that malloc keeps (10 MB more peak RSS when
        # the half-torus solve at N = 3200 builds its operator after this)
        diff = _carve(pairs + (dim,), _BLOCK_ROWS * n * dim)
        np.subtract(pts[start:stop, None, :], pts[None, start:, :], out=diff)
        civ = np.multiply(diff, scale, out=_carve(diff.shape, _BLOCK_ROWS * n * dim))
        q0 = np.einsum("mjn,mjn->mj", diff, civ, out=_carve(pairs, _BLOCK_ROWS * n))
        del diff, civ
        square = np.sort(q0[:, : stop - start], axis=1)
        tail = np.sort(q0[:, stop - start :], axis=1)
        del q0
        rows = slice(start, stop)
        own, own_evals = _window_sums(square, None, None, low[rows], high[rows], grid)
        mirrored, mirrored_evals = _window_sums(tail, None, None, low[rows], high[rows], grid)
        return own + 2.0 * mirrored, own_evals + mirrored_evals

    def scan_block(start):
        rows = slice(start, min(start + _BLOCK_ROWS, n))
        diff = pts[rows, None, :] - pts[None, :, :]
        civ = np.einsum("mnp,mjp->mjn", ci[rows], diff)
        q0 = np.einsum("mjn,mjn->mj", diff, civ)
        q1 = None
        if has_drift:
            order = np.argsort(q0, axis=1)
            q0 = np.take_along_axis(q0, order, axis=1)
            q1 = np.take_along_axis(np.einsum("mn,mjn->mj", drift[rows], civ), order, axis=1)
            del order
        else:
            q0.sort(axis=1)
        del diff, civ
        return _window_sums(q0, q1, q2[rows, None], low[rows], high[rows], grid)

    totals = np.zeros(grid.size)
    pair_evals = 0
    scan = scan_block if scale is None else scan_symmetric
    # the thread module loads on first use, not at import
    with concurrent.futures.ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        for partial, evals in pool.map(scan, range(0, n, _BLOCK_ROWS)):
            totals += partial
            pair_evals += evals
    with np.errstate(divide="ignore"):
        log_q = np.log(totals / (n * n))
    log_e = np.log(grid)
    slope = np.full_like(log_q, np.nan)
    with np.errstate(invalid="ignore"):
        slope[1:-1] = (log_q[2:] - log_q[:-2]) / (log_e[2:] - log_e[:-2])
        slope[0] = (log_q[1] - log_q[0]) / (log_e[1] - log_e[0])
        slope[-1] = (log_q[-1] - log_q[-2]) / (log_e[-1] - log_e[-2])
    # drift makes K(eps, x, x) = exp(-eps B^T C^-1 B / 2) underflow to zero at
    # huge eps; slopes touching a log Q = -inf grid point are not usable
    bad = ~np.isfinite(log_q)
    slope[np.convolve(bad, [True, True, True], mode="same")] = np.nan
    if not np.isfinite(slope).any():
        raise ValueError("Q(eps) vanished on the whole grid; no usable slope")
    best = int(np.nanargmax(slope))
    return TuningReport(
        grid, log_q, slope, float(grid[best]), float(2.0 * slope[best]), pair_evals
    )


def tune_gaussian_bandwidth(cloud: PointCloud, grid: np.ndarray | None = None) -> TuningReport:
    """Q(eps) scan for the isotropic Gaussian kernel (density bandwidth)."""
    return tune_bandwidth(cloud, CoefficientField.isotropic(cloud.n_points, cloud.ambient_dim), grid)

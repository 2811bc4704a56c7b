"""From kernel matrix to discrete generator: normalizations and tuning.

The pipeline discretizes the integral-operator approximation of the
backward Kolmogorov operator.  :func:`build_operator` runs it on one kNN
pair (indices, d2) and writes each (N, k) array once:

1. (debias, for non-uniform samples) a Gaussian kernel density estimate
   q_j at each point x_j, from d2, which is then released,
2. the kernel matrix K on the kNN pattern, its data and int32 columns,
   after which the kNN indices are released,
3. (debias) new data on K's columns: column j divided by q_j,
4. each row divided by its sum, giving a row-stochastic matrix S and the
   generator L = (S - I) / eps.  S stores only its links, the entries
   above float64 eps: new data on K's columns when every entry is one,
   else new data and columns for the links, divided by their own row sums.

Each stage's data is released once the next has written its own.

Constant multiples of the density and the eps^(-d/2) prefactors cancel in
the row normalization, so neither the sampling density's scale nor the
intrinsic dimension is needed to build L.  Bandwidths can be selected by
locating the maximal log-log slope of Q(eps), the mean of the full kernel
matrix, which also estimates the intrinsic dimension as twice that slope;
:func:`select_bandwidths` holds the rule for both bandwidths.

The Q(eps) scan of :func:`tune_bandwidth` is exact but skips each row's
terms past a one-sided bound on q0, which evaluate to 0.0 whatever C^-1;
its docstring gives the bound and its rounding argument, the symmetric
route and the row blocks, which run on the pool of the kNN search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .geometry import CoefficientField, PointCloud
from .kernels import (
    KernelConfig, SparseKernelMatrix, _entry_blocks, _identity_scale, _pair_forms,
    assemble_kernel_matrix, build_knn_graph, map_row_blocks, row_blocks,
)

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
    "select_bandwidths",
    "default_epsilon_grid",
]

_BLOCK_ROWS = 32
# exp(-x) is exactly 0.0 in float64 for x > 1075 ln 2 = 745.13...; the
# scan skips a term only if its certified bound puts x above this
_UNDERFLOW_EXPONENT = 750.0


@dataclass(frozen=True)
class DensityEstimate:
    """Per-point Gaussian kernel density values (unnormalized, all > 0)."""

    q_hat: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q_hat, dtype=float)
        object.__setattr__(self, "q_hat", q)
        if np.any(q <= 0) or not np.all(np.isfinite(q)):
            raise ValueError("density estimate must be strictly positive and finite")


@dataclass(frozen=True)
class GeneratorMatrix:
    """Row-stochastic matrix S with its bandwidth; L = (S - I) / eps.

    S stores only its links: every stored entry is above float64 eps, and
    an S that stores one at or below it is rejected (see
    :func:`left_normalize`), so S is its own graph.  ``row_sums`` holds
    the kernel row sums before normalization (the diagonal of D in
    S = D^-1 K), after the debiasing division if any, over those links.

    ``points`` holds the nodes' ambient coordinates (N, n), which
    :func:`build_operator` passes on from the cloud; the solver groups
    nearby nodes by them for its coarse level.  None takes the nodes'
    own numbering instead.
    """

    s_matrix: scipy.sparse.csr_matrix
    epsilon: float
    row_sums: np.ndarray
    points: np.ndarray | None = None

    def __post_init__(self):
        data = self.s_matrix.data
        if data.size and not data.min() > np.finfo(float).eps:
            raise ValueError(f"S stores {float(data.min())!r}, at or below float64 eps, which is no link")

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


def estimate_density(d2: np.ndarray, tilde_epsilon: float) -> DensityEstimate:
    """Gaussian kernel density values over the kNN pattern.

    q_i = sum_c exp(-d2[i, c] / (2 eps~)) over row i of the (N, k) squared
    distances that :func:`build_knn_graph` returns, summed in the row's
    stored order; a d^2 = 0 term makes every value >= 1.
    """
    if tilde_epsilon <= 0:
        raise ValueError("tilde_epsilon must be positive")
    blocks = row_blocks(d2.shape[0], _BLOCK_ROWS)  # temporaries below malloc's 128 KB mmap threshold to k = 500
    return DensityEstimate(np.concatenate([np.exp(-d2[b] / (2 * tilde_epsilon)).sum(axis=1) for b in blocks]))


def _divided(mat, divisor):
    """``mat`` with its data divided by ``divisor(rows, entries)`` in row blocks:
    one new float array of length nnz on ``mat``'s index arrays, shared, not
    copied, so ``mat`` is unchanged and the divisors' index casts stay small."""
    data = np.empty(mat.data.shape)
    for rows, entries in _entry_blocks(mat.indptr):
        np.divide(mat.data[entries], divisor(rows, entries), out=data[entries])
    return scipy.sparse.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape)


def right_normalize(kernel: SparseKernelMatrix, density: DensityEstimate) -> SparseKernelMatrix:
    """Debias: divide column j by the density estimate at x_j (K <- K D1^-1), by :func:`_divided`."""
    q = density.q_hat
    if q.shape[0] != kernel.n_points:
        raise ValueError("density size does not match kernel matrix")
    mat = kernel.matrix
    return SparseKernelMatrix(_divided(mat, lambda rows, entries: q[mat.indices[entries]]), kernel.epsilon)


def left_normalize(kernel: SparseKernelMatrix) -> GeneratorMatrix:
    """Row-normalize to a stochastic matrix S = D^-1 K that stores only its links.

    D holds scipy's CSR row sums s_i of K.  S stores exactly the entries
    with fl(K_ij / s_i) > eps, float64's machine epsilon: a smaller entry
    is below the rounding error of S_ii, so it is no link.  The count pass
    divides nothing: it tests K_ij > eps s_i, one multiply per row.  That
    is the same test, as eps = 2^-52 makes eps s_i exact, so a K_ij above
    it is at least one ulp above, and K_ij / s_i lies more than half an
    ulp above eps and rounds up.  Every row keeps its largest entry, at
    least s_i / k, so no row of S is empty.

    With no entry dropped, S is one new data array on K's index arrays,
    by :func:`_divided`: bit for bit the S of the other path, less the
    copy of the columns.  Otherwise the links are written block by block
    into arrays of their count and divided by their row sums, which
    ``row_sums`` then holds, so S stays row-stochastic.
    """
    mat = kernel.matrix
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    if np.any(row_sums <= 0):
        bad = int(np.argmin(row_sums))
        raise ValueError(
            f"kernel row {bad} has non-positive sum {float(row_sums[bad])!r}; "
            "the point is isolated (k too small, epsilon too small, or epsilon too large for the drift)"
        )
    counts = np.diff(mat.indptr)
    blocks = _entry_blocks(mat.indptr)

    def above_eps(rows, entries):
        # exact as fl(K_ij / s_i) > eps for s_i >= 2^-970, where eps s_i is a normal double
        return mat.data[entries] > np.repeat(np.finfo(float).eps * row_sums[rows], counts[rows])

    n_kept = sum(int(np.count_nonzero(above_eps(r, e))) for r, e in blocks)
    if n_kept == mat.nnz:
        return GeneratorMatrix(_divided(mat, lambda r, _: np.repeat(row_sums[r], counts[r])), kernel.epsilon, row_sums)
    data, cols = np.empty(n_kept), np.empty(n_kept, dtype=mat.indices.dtype)
    indptr = np.zeros_like(mat.indptr)
    for rows, entries in blocks:
        keep, ends = above_eps(rows, entries), indptr[rows.start + 1 : rows.stop + 1]
        # every row is nonempty (its sum is positive), so reduceat counts each row's kept entries
        np.cumsum(np.add.reduceat(keep, mat.indptr[rows] - entries.start, dtype=ends.dtype), out=ends)
        ends += indptr[rows.start]
        out = slice(indptr[rows.start], indptr[rows.stop])
        data[out], cols[out] = mat.data[entries][keep], mat.indices[entries][keep]
    s_matrix = scipy.sparse.csr_matrix((data, cols, indptr), shape=mat.shape)
    kept_sums, kept_counts = np.asarray(s_matrix.sum(axis=1)).ravel(), np.diff(s_matrix.indptr)
    for rows, entries in _entry_blocks(s_matrix.indptr):
        s_matrix.data[entries] /= np.repeat(kept_sums[rows], kept_counts[rows])
    return GeneratorMatrix(s_matrix, kernel.epsilon, kept_sums)


def build_operator(
    cloud: PointCloud,
    coeffs: CoefficientField,
    cfg: KernelConfig,
    debias: bool = True,
    neighbors: tuple[np.ndarray, np.ndarray] | None = None,
) -> GeneratorMatrix:
    """Full pipeline: (density) -> kernel matrix -> (debias) -> row normalization.

    Every stage reads one kNN pair ``(indices, d2)`` of :func:`build_knn_graph`,
    rows by ascending index as K's columns are, searched here when ``neighbors``
    is None or passed in to share one search across bandwidths; both must be
    (N, k).  With ``debias`` the d2 give the Gaussian density estimate at
    ``cfg.tilde_epsilon`` that the kernel columns are divided by, removing
    the sampling-density bias of i.i.d. clouds.  ``k_neighbors = N`` gives
    the dense operator.  d2 is dropped after the density and the indices
    after the assembly, so with no other reference to the pair (``lokpde
    solve`` keeps none) at most three (N, k) arrays are alive at a time.
    The generator carries the cloud's ambient coordinates as ``points``.
    """
    indices, d2 = build_knn_graph(cloud, cfg.k_neighbors) if neighbors is None else neighbors
    del neighbors
    got, want = [np.shape(indices), np.shape(d2)], (cloud.n_points, cfg.k_neighbors)
    if got != [want] * 2:
        raise ValueError(f"neighbors (indices, d2) must both be {want}, got {got}")
    density = debias and estimate_density(d2, cfg.tilde_epsilon)
    del d2
    kernel = assemble_kernel_matrix(cloud, coeffs, cfg, indices)
    del indices
    if debias:
        kernel = right_normalize(kernel, density)
    gen = left_normalize(kernel)
    return GeneratorMatrix(gen.s_matrix, gen.epsilon, gen.row_sums, points=cloud.ambient)


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


def _isotropic_scale(coeffs: CoefficientField) -> float | None:
    """c when the drift is zero and every C^-1 is the same c I, else None.
    Such a kernel is symmetric to the bit: x_j - x_i is exactly -(x_i - x_j),
    so q0_ji and q0_ij are the same double."""
    return None if coeffs.drift.any() else _identity_scale(coeffs.diffusion_inv)


def _prefix_ends(q0, q1, q2_rows, grid, buf):
    """Per row i and grid point, the count of row-sorted q0 at or below the
    bound H_i(eps) of :func:`tune_bandwidth`, past which every term is 0.0.
    ``q1`` is in q0's order, or None without drift (then ``q2_rows`` is
    unused); |q1| goes to the free scratch row ``buf``."""
    half = 0.5 * grid
    if q1 is None:
        q1_max = q2_rows = np.zeros((q0.shape[0], 1))
    else:
        q1_max = np.abs(q1, out=buf[: q1.size].reshape(q1.shape)).max(axis=1, keepdims=True)
    bound = 2.0 * grid * ((_UNDERFLOW_EXPONENT + q1_max) - half * q2_rows)
    bound[q1_max + half * np.abs(q2_rows) > 2.0**40] = np.inf
    return np.array([np.searchsorted(row, h, side="right") for row, h in zip(q0, bound)])


def _window_sums(q0, q1, q2_rows, grid, buf):
    """Sum each grid point's terms over the longest of the rows' prefixes
    (:func:`_prefix_ends`) into the free scratch row ``buf`` (at least
    q0.size long).  Returns (sums, terms evaluated)."""
    his = _prefix_ends(q0, q1, q2_rows, grid, buf).max(axis=0)
    sums = np.zeros(grid.size)
    evals = 0
    for idx, (eps, hi) in enumerate(zip(grid, his)):
        # -quad / (2 eps) as (q0 (-1/(2 eps)) - q1) - (eps/2) q2: for a
        # power-of-two eps each step scales the formula's step exactly
        out = buf[: q0.shape[0] * hi].reshape(q0.shape[0], hi)
        np.multiply(q0[:, :hi], -0.5 / eps, out=out)
        if q1 is not None:
            np.subtract(out, q1[:, :hi], out=out)
            np.subtract(out, (0.5 * eps) * q2_rows, out=out)
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

    Every term that is evaluated computes -quad / (2 eps) as
    (q0 (-1/(2 eps)) - q1) - (eps/2) q2, in three passes; for a power of
    two eps, as on :func:`default_epsilon_grid`, each rounded step is an
    exact scaling of the formula's, so the terms equal the formula's bit
    for bit.  Row i skips the terms with q0 > H_i(eps) = 2 eps (750 + M_i
    - (eps/2) q2_i), M_i = max_j |q1_ij|, whose exact exponent is below
    -750 - M_i - q1_ij <= -750 whatever C^-1 is.  The rounded passes are
    monotone in q0, so a skipped term's exponent is at most the one they
    give at q0 = fl(H_i); while M_i + (eps/2) |q2_i| <= 2^40 (a row past
    that is evaluated whole), their dozen roundings move it by under 2e-3,
    far inside the 4.87 between -750 and the -745.13 below which exp
    underflows to 0.0 in float64.  Rows are processed in blocks of 32 with
    their q0 sorted, so each grid point evaluates one prefix per block,
    the longest of its rows'.

    Each block cuts v into ``dim`` (rows x columns) coordinate planes of
    pts.T and forms q0, q1 (q2 likewise) with ``kernels._pair_forms``, in
    ascending index order.  The order is fixed: where C^-1 is rank
    deficient and v lies along its null direction, q0 is pure rounding
    noise, so the dense oracle in the tests sums in the same order to
    agree to 1e-12.

    When the drift is zero and every C^-1 is the same c I (the Gaussian
    scan, isotropic and Laplace-Beltrami fields), the kernel is symmetric
    to the bit and each pair is visited once: the block of rows
    [s, s + 32) visits only the columns j >= s, adds its diagonal square
    once and the columns past it twice, and forms C^-1 v as c v.  A
    skipped term's mirror is the same 0.0.

    Blocks run on ``kernels.map_row_blocks``, each cutting its planes from
    its worker's scratch rows; the drift route gathers the row-sorted q0
    and q1 into those rows too.  The subtractions, multiplies and adds, the
    sorts and gathers, and the prefixes' multiplies, exp and sums release
    the GIL; only the Python loops over rows and grid points hold it.
    Partial sums are added in block order, so the result does not depend
    on the worker count.

    The cloud and the field are finite by construction.  Raises ValueError
    for a grid that is not finite, positive and strictly increasing.
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
    has_drift = bool(drift.any())
    q2 = _pair_forms(ci, [drift[:, p, None] for p in range(dim)], None, None, np.empty((4, n)))[0][:, 0]
    scale = _isotropic_scale(coeffs)
    planes = np.ascontiguousarray(pts.T)

    def block_forms(rows, first, work):
        shape = (rows.stop - rows.start, n - first)
        v = [w[: shape[0] * shape[1]].reshape(shape) for w in work[4:]]
        for x, va in zip(planes, v):
            np.subtract(x[rows, None], x[None, first:], out=va)
        return _pair_forms(ci[rows], v, drift[rows] if has_drift else None, scale, work)

    def scan_symmetric(rows, work):
        q0, _ = block_forms(rows, rows.start, work)
        square, tail = q0[:, : rows.stop - rows.start], q0[:, rows.stop - rows.start :]
        square.sort(axis=1)
        tail.sort(axis=1)
        # C^-1 v's scratch row is free once the forms are made
        own, own_evals = _window_sums(square, None, None, grid, work[0])
        mirrored, mirrored_evals = _window_sums(tail, None, None, grid, work[0])
        return own + 2.0 * mirrored, own_evals + mirrored_evals

    def scan_block(rows, work):
        q0, q1 = block_forms(rows, 0, work)
        if q1 is not None:
            # q0, q1 in q0's row order into free scratch rows; a row's order
            # is small enough for malloc to reuse, a block's would stay resident
            s0, s1 = (w[: q0.size].reshape(q0.shape) for w in (work[1], work[4]))
            for r0, r1, o0, o1 in zip(q0, q1, s0, s1):
                order = r0.argsort()
                np.take(r0, order, out=o0, mode="clip")  # "clip" writes to out unbuffered
                np.take(r1, order, out=o1, mode="clip")
            q0, q1 = s0, s1
        else:
            q0.sort(axis=1)
        return _window_sums(q0, q1, q2[rows, None], grid, work[0])

    totals = np.zeros(grid.size)
    pair_evals = 0
    scan = scan_block if scale is None else scan_symmetric
    for partial, evals in map_row_blocks(scan, n, _BLOCK_ROWS, dim + 4, _BLOCK_ROWS * n):
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


def tune_gaussian_bandwidth(cloud: PointCloud) -> TuningReport:
    """Q(eps) scan for the isotropic Gaussian kernel (density bandwidth)."""
    return tune_bandwidth(cloud, CoefficientField.isotropic(cloud.n_points, cloud.ambient_dim))


def select_bandwidths(cloud: PointCloud, coeffs: CoefficientField, epsilon, tilde_epsilon):
    """Resolve each "auto" bandwidth; a positive real passes through.

    epsilon comes from :func:`tune_bandwidth` on ``coeffs`` and
    tilde_epsilon from :func:`tune_gaussian_bandwidth`.  Returns
    (epsilon, tilde_epsilon, d_hat, pair_evals): d_hat from the first scan
    run, pair_evals the scans' total, both None when neither is "auto".
    """
    d_hat = pair_evals = None
    if epsilon == "auto":
        report = tune_bandwidth(cloud, coeffs)
        epsilon, d_hat, pair_evals = report.epsilon_star, report.d_hat, report.pair_evals
    if tilde_epsilon == "auto":
        report = tune_gaussian_bandwidth(cloud)
        tilde_epsilon = report.epsilon_star
        if d_hat is None:
            d_hat = report.d_hat
        pair_evals = (pair_evals or 0) + report.pair_evals
    return float(epsilon), float(tilde_epsilon), d_hat, pair_evals

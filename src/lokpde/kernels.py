"""Local kernel evaluation, kNN sparsity, and kernel-matrix assembly.

The workhorse is the drift-shifted anisotropic exponential kernel

    K(eps, x, y) = exp(-(x - y + eps B(x))^T C(x)^-1 (x - y + eps B(x)) / (2 eps)),

whose small-eps moments over the tangent plane encode the drift and
diffusion coefficients; :func:`moment_check` verifies that numerically.
The isotropic Gaussian kernel (B = 0, C = I) doubles as the density
estimator used by the debiasing normalization.

The kernel entries (matrix and scalar alike) and the Q(eps) scan in
``operator`` take their quadratic forms from one helper,
:func:`_pair_forms`, over ``dim`` coordinate planes of the pair vectors,
summed in ascending coordinate order with GIL-free ufuncs.  The kNN
search needs only |x_i - x_j|^2 and forms it plane by plane in two
scratch rows (:func:`_nearest`), with the same multiplies and adds: its
rows span all N candidates, so each scratch row it saves is a block of
rows x N doubles per worker.

The kernel is evaluated only on each point's k nearest neighbours.
:func:`build_knn_graph` finds them with numpy alone: each block of rows,
one leaf of a median split, takes as candidates the points in its
bounding box grown by a reach r, and a row is certified once its k-th
d^2 is below r^2; the few rows that are not are searched again with a
wider reach.  Each row of its (indices, d^2) pair lists by ascending
index the k points first in (d^2, index) order, as a brute-force search
over all N^2 pairs does bit for bit.  ``operator.build_operator`` runs it
(or takes it from a caller that shares it across bandwidths) and hands the
indices to :func:`assemble_kernel_matrix`, the d^2 to the density estimate,
which sums each row as stored; no other module knows the (d^2, index) order.

The search, the assembly and the Q(eps) scan in ``operator`` share out
their row blocks with :func:`map_row_blocks`; each block is computed on
its own, so no result depends on the worker count.
"""

from __future__ import annotations

import concurrent.futures
import mmap
import os
import threading
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
_KNN_ROWS = 64
_PROBES = 16


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidths and sparsity for one operator build.

    ``epsilon`` is the squared-length scale of the prototypical kernel,
    ``tilde_epsilon`` the Gaussian bandwidth used for density estimation,
    ``k_neighbors`` the kNN count (N gives the dense kernel), of which a
    point is one unless k copies of it come first (:func:`build_knn_graph`).
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


def _entry_blocks(indptr) -> list[tuple[slice, slice]]:
    """(rows, entries) per block of ``_CHUNK_ROWS`` CSR rows: the rows and their span of the data and indices."""
    return [(rows, slice(indptr[rows.start], indptr[rows.stop])) for rows in row_blocks(indptr.size - 1, _CHUNK_ROWS)]


def pool_width() -> int:
    """The worker count of :func:`map_row_blocks`: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def map_row_blocks(body, n, size, scratch_planes, scratch_size) -> list:
    """``[body(rows, work) for rows in row_blocks(n, size)]`` in block
    order, each block taken by whichever of the :func:`pool_width` workers
    is free; the GIL-free ufuncs, partitions, sorts and ``exp`` overlap.  A
    worker's ``work``, ``_scratch(scratch_planes, scratch_size)``, serves
    all its blocks.  The caller is one worker and claims the first
    block before any helper starts: malloc keeps a pool thread's peak
    working set in that thread's arena after the pool is gone, and one
    worker starts no thread."""
    blocks = row_blocks(n, size)
    results = [None] * len(blocks)
    pending = iter(range(len(blocks)))
    lock = threading.Lock()

    def claim():
        with lock:
            return next(pending, None)

    def work(i):
        scratch = _scratch((scratch_planes, scratch_size))
        while i is not None:
            results[i] = body(blocks[i], scratch)
            i = claim()

    first = claim()
    helpers = pool_width() - 1
    # the thread module loads on first use, not at import
    with concurrent.futures.ThreadPoolExecutor(max(helpers, 1)) as pool:
        futures = [pool.submit(lambda: work(claim())) for _ in range(helpers)]
        work(first)
        for future in futures:
            future.result()
    return results


def _scratch(shape, dtype=np.float64):
    """An array of ``shape`` and ``dtype`` on its own anonymous memory map,
    whose pages go back to the OS when the array is dropped, and which
    malloc never sees.  glibc's malloc maps a block above its threshold
    (128 KB at start) and unmaps it on free, but then raises the threshold
    to that block's size, so later blocks up to that size come from its
    heap, and the holes they leave stay resident.  So the search's scratch
    rows and its (indices, d2) pair, the largest blocks of a build, take
    this map: freeing d2, an (N, k) float array, through malloc kept about
    10 MB of later kNN and kernel arrays resident on the paper torus."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, int(np.prod(shape)) * dtype.itemsize), dtype).reshape(shape)


def _identity_scale(ci: np.ndarray) -> float | None:
    """c when every C^-1 in ``ci`` is the same c I, else None; c v is then
    the ascending sum of C^-1 v to the bit, up to the sign of a zero."""
    c = float(ci[0, 0, 0])
    return c if (ci == c * np.eye(ci.shape[1])).all() else None


def _pair_forms(ci, v, drift, scale, work):
    """q0 = sum_a v_a (C^-1 v)_a and q1 = sum_a B_a (C^-1 v)_a, elementwise.

    ``v`` is a sequence of ``dim`` coordinate planes (one row per row of
    ``ci`` and ``drift``), and (C^-1 v)_a = sum_p C^-1_ap v_p, or ``scale``
    v_a when every C^-1 is ``scale`` I (v_a itself for the identity, so q0
    is |v|^2 and ``ci`` is unused).  Each sum runs in ascending index order,
    one multiply and one add per term, so the result is fixed to the bit,
    and every step is a ufunc that releases the GIL.  C^-1 v, a product and
    q0, q1 are written to the first four rows of ``work``; q1 is None when
    ``drift`` is None.
    """
    civ, tmp, q0, q1 = (w[: v[0].size].reshape(v[0].shape) for w in work[:4])

    def add(acc, x, y, first):  # acc = x * y, or acc += x * y
        np.multiply(x, y, out=acc if first else tmp)
        if not first:
            np.add(acc, tmp, out=acc)

    for a, va in enumerate(v):
        if scale is None:
            for p, vp in enumerate(v):
                add(civ, ci[:, a, p, None], vp, p == 0)
            civ_a = civ
        elif scale == 1.0:
            civ_a = va
        else:
            civ_a = np.multiply(va, scale, out=civ)
        add(q0, va, civ_a, a == 0)
        if drift is not None:
            add(q1, drift[:, a, None], civ_a, a == 0)
    return q0, None if drift is None else q1


def _plane_differences(planes, rows, cols, out):
    """The coordinate planes of x_i - x_j for the points i = ``rows`` against
    their columns ``cols`` (one row each), cut from the rows of ``out``."""
    v = [w[: cols.size].reshape(cols.shape) for w in out]
    for x, va in zip(planes, v):
        np.take(x, cols, out=va, mode="clip")  # "clip" writes to out unbuffered
        np.subtract(x[rows, None], va, out=va)
    return v


def _check_overflow(planes, drift, ci, scale, epsilon):
    """Raise ValueError when eps can overflow the kernel's quadratic form.

    Every plane of v = (x_i - x_j) + eps B_i is bounded by V, the widest
    coordinate span plus eps max|B_a|.  With C^-1 = c I every term of q0
    is c v_a^2 >= 0, so a finite V is enough: a quad that overflows is
    +inf, whose entry exp(-inf) = 0.0 is exact.  A general C^-1 mixes
    signs, and an overflow there gives inf - inf = nan, or 0 inf = nan
    where C^-1 is rank-deficient; every partial sum of C^-1 v and q0 stays
    below dim^2 max|C^-1| V^2, which must then be finite with a factor 2
    to spare.  Python floats keep numpy's overflow warning out.
    """
    spans = planes.max(axis=1) - planes.min(axis=1) + epsilon * np.abs(drift).max(axis=0)
    reach = max(float(v) for v in spans)
    dim = planes.shape[0]
    bound = reach if scale is not None else dim * dim * float(np.abs(ci).max()) * reach * reach
    if not bound < np.finfo(float).max / 2:
        raise ValueError(
            f"epsilon = {epsilon:g} overflows the kernel's quadratic form: x - y + epsilon B "
            f"reaches {reach:.3g} (epsilon too large for the drift)"
        )


def _kernel_rows(planes, rows, cols, drift, ci, scale, epsilon, work, out):
    """K(eps, x_i, x_j) into ``out`` for the points i of the slice ``rows``
    against their columns ``cols``, with the row points' B and C^-1
    (``drift``, ``ci``); v = (x_i - x_j) + eps B_i goes to the rows of
    ``work`` past the four that :func:`_pair_forms` uses."""
    v = _plane_differences(planes, rows, cols, work[4:])
    with np.errstate(over="ignore"):  # a quad of inf gives exp(-inf) = 0.0, the exact limit
        for a, va in enumerate(v):
            np.add(va, epsilon * drift[:, a, None], out=va)
        q0, _ = _pair_forms(ci, v, None, scale, work)
        # quad / (-2 eps) == -quad / (2 eps) bit for bit
        np.divide(q0, -2.0 * epsilon, out=out)
    np.exp(out, out=out)


def eval_prototypical_kernel(x, y, drift, diffusion_inv, epsilon: float) -> float:
    """Scalar reference evaluation of the prototypical local kernel: the
    one-entry case of the matrix assembly, equal to its entries bit for bit."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    B = np.atleast_1d(np.asarray(drift, dtype=float))
    Ci = np.atleast_2d(np.asarray(diffusion_inv, dtype=float))
    if not all(np.isfinite(a).all() for a in (x, y, B, Ci)):
        raise ValueError("non-finite kernel input")
    if not (epsilon > 0 and np.isfinite(epsilon)):
        raise ValueError("epsilon must be positive and finite")
    dim = x.shape[0]
    if y.shape != x.shape or B.shape != x.shape or Ci.shape != (dim, dim):
        raise ValueError(f"x, y and drift must be ({dim},) and diffusion_inv ({dim}, {dim})")
    out, planes, scale = np.empty((1, 1)), np.stack([x, y], axis=1), _identity_scale(Ci[None])
    _check_overflow(planes, B[None], Ci[None], scale, epsilon)
    _kernel_rows(
        planes, slice(0, 1), np.ones((1, 1), dtype=np.intp), B[None], Ci[None], scale, epsilon,
        np.empty((4 + dim, 1)), out,
    )
    return float(out[0, 0])


def build_knn_graph(cloud: PointCloud, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest points of every point, with their d^2.

    Returns ``(indices, d2)``, both (N, k): row i lists by ascending index
    the k points first in (d^2, index) order, so ties at the k-th d^2 keep
    the smaller indices.  x_i is among them unless k copies of it come
    first: at k = 2 the third of three copies gets the first two.
    ``d2[i, c]`` is |x_i - x_j|^2 for j = ``indices[i, c]``, summed over the
    coordinate planes of x_i - x_j in ascending order (:func:`_nearest`).
    ``indices`` is int32, as are the kernel matrix's columns.  Each array
    lies on its own anonymous memory map (:func:`_scratch`), so dropping
    it returns its pages and leaves glibc's mmap threshold where it was.

    An exact range search (Bentley, Stanat & Williams 1977) with a
    certificate.  The reach r is 1.1 times the largest k-th distance of
    ``_PROBES`` rows searched against all N points (at 1.0, an eighth of
    the paper torus needs a second search).  Each block of ``_KNN_ROWS``
    rows is one leaf of :func:`_median_order`, so its rows lie close
    together; its candidates are the points in its bounding box grown by
    r, rounded outward.  Every other point is more than r away along some
    axis, so a row is certified when its k-th d^2 is below r^2 less a
    rounding margin.  The others are searched again with r the largest of
    their k-th distances times 1 + 2^-20 (an upper bound: a subset's k-th
    is never below the true k-th), or against all N points when that does
    not grow r (k copies of a point give r = 0).  The result equals a
    brute-force search over all N^2 pairs bit for bit, for any worker
    count of :func:`map_row_blocks`, whose blocks write only their rows.

    The cloud's coordinates are finite by construction.  Raises ValueError
    for k outside [1, N].
    """
    pts = cloud.ambient
    n, dim = pts.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and N={n}, got {k}")
    planes = np.ascontiguousarray(pts.T)
    everyone = np.arange(n)
    # a point past the outward-rounded box has a d^2 above r^2 less a few ulps
    shrink = 1.0 - 8.0 * (dim + 2) * np.finfo(float).eps
    probes = np.unique(np.linspace(0, n - 1, _PROBES).astype(np.intp))
    probe_d2 = _nearest(planes, probes, everyone, k, _scratch((2, probes.size * n)))[1]
    reach = 1.1 * np.sqrt(probe_d2.max())
    todo = _median_order(planes, everyone, _KNN_ROWS)
    indices, d2 = _scratch((n, k), np.int32), _scratch((n, k))

    def search(block, work):  # writes only its own rows; little from malloc
        rows, cand = todo[block], everyone
        if reach is not None:
            inside = np.ones(n, dtype=bool)
            for x in planes:
                inside &= x >= np.nextafter(x[rows].min() - reach, -np.inf)
                inside &= x <= np.nextafter(x[rows].max() + reach, np.inf)
            cand = np.flatnonzero(inside) if np.count_nonzero(inside) >= k else everyone
        indices[rows], d2[rows] = near = _nearest(planes, rows, cand, k, work)
        return rows[:0] if cand.size == n else rows[near[1].max(axis=1) >= reach * reach * shrink]

    while todo.size:
        todo = np.concatenate(map_row_blocks(search, todo.size, _KNN_ROWS, 2, min(n, _KNN_ROWS) * n))
        if todo.size:
            wider = np.sqrt(d2.max(axis=1)[todo].max()) * (1.0 + 2.0**-20)
            reach = wider if wider > reach else None
    return indices, d2


def _median_order(planes, rows, leaf):
    """``rows`` split recursively at a median of their widest axis (the k-d
    tree's rule, Bentley 1975), each split at a multiple of ``leaf``: the
    leaves in order, each ``leaf`` rows long but the last."""
    if rows.size <= leaf:
        return rows
    x = planes[:, rows]
    half = leaf * (-(-rows.size // leaf) // 2)
    order = np.argpartition(x[np.argmax(x.max(axis=1) - x.min(axis=1))], half)
    return np.concatenate([_median_order(planes, rows[order[:half]], leaf),
                           _median_order(planes, rows[order[half:]], leaf)])


def _nearest(planes, rows, cand, k, work):
    """The k points of ``cand`` (ascending indices) first in (d^2, index)
    order from each point of ``rows``, as ``(indices, d2)`` by ascending
    index: the k-th d^2 by a partition, then every d^2 below it plus the
    lowest-index ties, read off in candidate order, with no sort.

    Two (rows, cand) scratch rows of ``work`` serve it all.  d^2
    accumulates in the first, plane by plane: each coordinate's
    differences are subtracted into the second, squared and added, in
    ascending coordinate order: the multiplies and adds of
    :func:`_pair_forms` with C^-1 = I, so d^2 is the same to the bit, in
    two rows where that helper takes dim + 4.  The second row then takes
    the partition and, once the k-th d^2 is copied out, the mask."""
    shape = (rows.size, cand.size)
    full, part = (w[: rows.size * cand.size].reshape(shape) for w in work[:2])
    for a, x in enumerate(planes):
        np.subtract(x[rows, None], x[cand], out=part)
        np.multiply(part, part, out=part if a else full)
        if a:
            np.add(full, part, out=full)
    np.copyto(part, full)
    part.partition(k - 1, axis=1)
    kth = part[:, k - 1, None].copy()
    keep = np.less_equal(full, kth, out=work[1].view(bool)[: full.size].reshape(shape))
    count = np.count_nonzero(keep, axis=1)
    at = np.flatnonzero(keep)  # row by row, each in ascending index order
    d2 = full.ravel()[at]
    if (count > k).any():  # drop each row's last count - k ties with the k-th d^2
        row = np.repeat(np.arange(rows.size), count)
        tie = d2 == kth[row, 0]
        upto = np.cumsum(tie)
        later = upto[np.cumsum(count) - 1][row] - upto + tie  # ties from here to the row's end
        kept = ~tie | (later > (count - k)[row])
        at, d2 = at[kept], d2[kept]
    return cand[at.reshape(rows.size, k) - np.arange(0, full.size, cand.size)[:, None]], d2.reshape(rows.size, k)


def assemble_kernel_matrix(
    cloud: PointCloud,
    coeffs: CoefficientField,
    cfg: KernelConfig,
    indices: np.ndarray,
) -> SparseKernelMatrix:
    """Evaluate the prototypical kernel on the kNN pattern of the cloud.

    Row i holds K(eps, x_i, x_j) for the j in row i of ``indices``, the
    (N, k) kNN indices of :func:`build_knn_graph` (ValueError for another
    shape), with the row point's coefficients B(x_i), C(x_i)^-1; its rows
    ascend by index, so they are the CSR columns as they stand.  The
    blocks run on :func:`map_row_blocks`, each writing its rows' span of
    the data and columns, so the worker count changes nothing.
    """
    pts = cloud.ambient
    n, k = pts.shape[0], cfg.k_neighbors
    if coeffs.n_points != n:
        raise ValueError("coefficient field size does not match cloud")
    if np.shape(indices) != (n, k):
        raise ValueError(f"neighbor indices must be ({n}, {k}), got {np.shape(indices)}")
    planes = np.ascontiguousarray(pts.T)
    scale = _identity_scale(coeffs.diffusion_inv)
    _check_overflow(planes, coeffs.drift, coeffs.diffusion_inv, scale, cfg.epsilon)
    cols, data = np.empty((n, k), dtype=np.int32), np.empty((n, k))

    def assemble(rows, work):  # writes only its own rows
        cols[rows] = indices[rows]
        _kernel_rows(
            planes, rows, cols[rows], coeffs.drift[rows], coeffs.diffusion_inv[rows], scale, cfg.epsilon,
            work, data[rows],
        )

    size = max(1, _CHUNK_ROWS // pool_width())
    map_row_blocks(assemble, n, size, 4 + pts.shape[1], min(n, size) * k)
    mat = scipy.sparse.csr_matrix((data.ravel(), cols.ravel(), np.arange(0, n * k + 1, k)), shape=(n, n))
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

"""Manifold zoo, point sampling, embeddings, and coefficient lifting.

The solver operates on point clouds in ambient coordinates.  For the
parametrized manifolds in the zoo (interval, ellipse, torus and their
halves) this module provides the embedding maps, their Jacobians, grid and
i.i.d. samplers, and the lift of intrinsic drift/diffusion coefficients
(b, c) to their ambient representation (B, C^-1) through the embedding
Jacobian and its pseudo-inverse.  Clouds with unknown embedding enter
through :func:`load_cloud` and carry ambient data only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Manifold",
    "PointCloud",
    "CoefficientField",
    "get_manifold",
    "ambient_cloud_manifold",
    "embed",
    "embedding_jacobian",
    "sample_points",
    "grid_axis_counts",
    "lift_field",
    "load_cloud",
    "sample_sphere",
]

TWO_PI = 2.0 * np.pi
_PSD_RTOL = 1e-12


@dataclass(frozen=True)
class Manifold:
    """A member of the manifold zoo.

    Attributes:
        id: a zoo id (see :func:`get_manifold`) or ``"ambient_cloud"``.
        intrinsic_dim: dimension d of the manifold.
        ambient_dim: dimension n of the embedding space.
        parameter_domain: per-coordinate closed intervals (radians for angles).
    """

    id: str
    intrinsic_dim: int
    ambient_dim: int
    parameter_domain: tuple[tuple[float, float], ...]
    # per-coordinate uniform-grid convention: "closed" excludes the period
    # endpoint, "endpoints" includes both, "centered" uses cell centers.
    # Bounded angular coordinates are cell-centered: with nodes exactly on
    # the boundary circle the kernel rows there degrade the estimate by
    # a factor of ~2 in the boundary layer.
    grid_style: tuple[str, ...] = ()

    def __post_init__(self):
        if self.intrinsic_dim > self.ambient_dim:
            raise ValueError("intrinsic dimension exceeds ambient dimension")

    @property
    def has_embedding(self) -> bool:
        return self.id != "ambient_cloud"


_ZOO = {
    "interval": Manifold("interval", 1, 1, ((0.0, 1.0),), ("endpoints",)),
    "ellipse": Manifold("ellipse", 1, 2, ((0.0, TWO_PI),), ("closed",)),
    "half_ellipse": Manifold("half_ellipse", 1, 2, ((0.0, np.pi),), ("centered",)),
    "torus": Manifold("torus", 2, 3, ((0.0, TWO_PI), (0.0, TWO_PI)), ("closed", "closed")),
    "half_torus": Manifold("half_torus", 2, 3, ((0.0, TWO_PI), (0.0, np.pi)), ("closed", "centered")),
}


def get_manifold(manifold_id: str) -> Manifold:
    """Look up a zoo manifold by id (``ambient_cloud`` needs :func:`ambient_cloud_manifold`)."""
    try:
        return _ZOO[manifold_id]
    except KeyError:
        raise ValueError(
            f"unknown manifold id {manifold_id!r}; expected one of {sorted(_ZOO)}"
        ) from None


def ambient_cloud_manifold(ambient_dim: int, intrinsic_dim: int | None = None) -> Manifold:
    """Manifold record for a cloud with unknown embedding.

    The intrinsic dimension defaults to the ambient one minus one (a
    hypersurface); it is only informational for this id.
    """
    d = ambient_dim - 1 if intrinsic_dim is None else intrinsic_dim
    d = max(d, 1)
    return Manifold("ambient_cloud", d, ambient_dim, ())


def _intrinsic_points(manifold: Manifold, intrinsic) -> tuple[np.ndarray, bool]:
    """(points as (N, d) floats, whether one (d,) point was given), after
    checking that the manifold has an embedding and d its dimension."""
    if not manifold.has_embedding:
        raise ValueError("ambient_cloud has no embedding")
    x = np.asarray(intrinsic, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[1] != manifold.intrinsic_dim:
        raise ValueError(f"expected intrinsic dimension {manifold.intrinsic_dim}, got {pts.shape[1]}")
    return pts, x.ndim == 1


def embed(manifold: Manifold, intrinsic: np.ndarray) -> np.ndarray:
    """Map intrinsic coordinates to ambient coordinates.

    Accepts a single point of shape (d,) or a batch of shape (N, d) and
    returns shape (n,) or (N, n) accordingly.
    """
    pts, single = _intrinsic_points(manifold, intrinsic)
    if manifold.id == "interval":
        out = pts.copy()
    elif manifold.id in ("ellipse", "half_ellipse"):
        th = pts[:, 0]
        out = np.stack([np.cos(th), 2.0 * np.sin(th)], axis=1)
    else:  # torus, half_torus
        th, ph = pts[:, 0], pts[:, 1]
        r = 2.0 + np.cos(th)
        out = np.stack([r * np.cos(ph), r * np.sin(ph), np.sin(th)], axis=1)
    return out[0] if single else out


def embedding_jacobian(manifold: Manifold, intrinsic: np.ndarray) -> np.ndarray:
    """Jacobian of the embedding, shape (n, d) per point ((N, n, d) for batches)."""
    pts, single = _intrinsic_points(manifold, intrinsic)
    N = pts.shape[0]
    if manifold.id == "interval":
        jac = np.ones((N, 1, 1))
    elif manifold.id in ("ellipse", "half_ellipse"):
        th = pts[:, 0]
        jac = np.stack([-np.sin(th), 2.0 * np.cos(th)], axis=1)[:, :, None]
    else:
        th, ph = pts[:, 0], pts[:, 1]
        r = 2.0 + np.cos(th)
        jac = np.empty((N, 3, 2))
        jac[:, 0, 0] = -np.sin(th) * np.cos(ph)
        jac[:, 1, 0] = -np.sin(th) * np.sin(ph)
        jac[:, 2, 0] = np.cos(th)
        jac[:, 0, 1] = -r * np.sin(ph)
        jac[:, 1, 1] = r * np.cos(ph)
        jac[:, 2, 1] = 0.0
    return jac[0] if single else jac


def _frozen_copy(obj, name: str) -> np.ndarray:
    """Set ``obj.name`` to a read-only float copy of itself and return it, so
    no later edit can bypass the checks made on it at construction."""
    arr = np.array(getattr(obj, name), dtype=float)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True)
class PointCloud:
    """Sample locations on (or from) a manifold.

    ``ambient`` is the N x n coordinate matrix the kernel operates on.
    ``intrinsic`` (N x d) is present only when the cloud came from a known
    parametrization.  An i.i.d. cloud does not record its seed; the
    sampler's caller holds it.  Every coordinate is finite: construction
    names the first point that is not.
    """

    ambient: np.ndarray
    intrinsic: np.ndarray | None
    sampling: str  # "uniform_grid" | "iid_density"
    manifold: Manifold

    def __post_init__(self):
        amb = _frozen_copy(self, "ambient")
        if amb.ndim != 2 or amb.shape[0] < 2:
            raise ValueError("need at least 2 points with fixed ambient dimension")
        finite = np.isfinite(amb).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite coordinate at point {int(np.argmin(finite))}")
        if self.intrinsic is not None:
            intr = _frozen_copy(self, "intrinsic")
            if intr.shape[0] != amb.shape[0]:
                raise ValueError("intrinsic/ambient point counts differ")
        if self.sampling not in ("uniform_grid", "iid_density"):
            raise ValueError(f"unknown sampling mode {self.sampling!r}")

    @property
    def n_points(self) -> int:
        return self.ambient.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.ambient.shape[1]


def grid_axis_counts(manifold: Manifold, n_points: int) -> tuple[int, ...]:
    """Per-axis grid counts whose product is ``n_points``.

    Counts are proportional to the parameter-domain lengths, so angular
    resolution is uniform across axes (an 80 x 80 grid on the torus, an
    80 x 40 grid on the half torus for the same total 6400 / 3200).
    """
    d = manifold.intrinsic_dim
    if d == 1:
        return (n_points,)
    lengths = [hi - lo for lo, hi in manifold.parameter_domain]
    # n_i = lengths_i * s with prod n_i = N  =>  s = (N / prod L)^(1/d)
    s = (n_points / np.prod(lengths)) ** (1.0 / d)
    counts = tuple(int(round(L * s)) for L in lengths)
    if any(c < 2 for c in counts) or int(np.prod(counts)) != n_points:
        raise ValueError(
            f"N={n_points} does not factor into a proportional grid for "
            f"{manifold.id}; nearest factorization {counts}"
        )
    return counts


def _axis_grid(lo: float, hi: float, count: int, style: str) -> np.ndarray:
    if style == "closed":
        # exclude the period endpoint: duplicate points give zero-distance rows
        return lo + (hi - lo) * np.arange(count) / count
    if style == "centered":
        return lo + (hi - lo) * (np.arange(count) + 0.5) / count
    return np.linspace(lo, hi, count)


def sample_points(manifold: Manifold, n_points: int, mode: str, seed: int = 0) -> PointCloud:
    """Sample N points on a zoo manifold.

    ``uniform_grid`` gives deterministic equispaced parameter grids, with
    the per-coordinate conventions recorded on the manifold: closed angular
    coordinates exclude the period endpoint, the interval includes both
    endpoints, bounded angular coordinates are cell-centered.
    ``iid_density`` draws uniformly in parameter space, which is
    non-uniform on the manifold itself; that bias is what the debiasing
    normalization removes downstream.
    """
    if not manifold.has_embedding:
        raise ValueError("ambient_cloud has no parametrization to sample from")
    if n_points < 2:
        raise ValueError("need at least 2 points")
    if mode == "uniform_grid":
        counts = grid_axis_counts(manifold, n_points)
        axes = [
            _axis_grid(lo, hi, c, style)
            for (lo, hi), c, style in zip(manifold.parameter_domain, counts, manifold.grid_style)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        intrinsic = np.stack([m.ravel() for m in mesh], axis=1)
    elif mode == "iid_density":
        rng = np.random.default_rng(seed)
        lo = np.array([a for a, _ in manifold.parameter_domain])
        hi = np.array([b for _, b in manifold.parameter_domain])
        intrinsic = lo + (hi - lo) * rng.random((n_points, manifold.intrinsic_dim))
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    return PointCloud(embed(manifold, intrinsic), intrinsic, mode, manifold)


def psd_eigenvalues(diffusion_inv: np.ndarray) -> tuple[np.ndarray, int | None]:
    """Ascending eigenvalues of the symmetric part of every C^-1, and the
    first point whose smallest one is below -1e-12 max|eig| (None if none)."""
    sym = 0.5 * (diffusion_inv + np.swapaxes(diffusion_inv, 1, 2))
    eig = np.linalg.eigvalsh(sym)
    bad = np.flatnonzero(eig[:, 0] < -_PSD_RTOL * np.abs(eig).max(axis=1))
    return eig, (int(bad[0]) if bad.size else None)


@dataclass(frozen=True)
class CoefficientField:
    """Ambient drift B (N x n) and diffusion pseudo-inverse C^-1 (N x n x n),
    finite and positive semidefinite by :func:`psd_eigenvalues` (construction
    names the first bad point)."""

    drift: np.ndarray
    diffusion_inv: np.ndarray

    def __post_init__(self):
        B, Ci = _frozen_copy(self, "drift"), _frozen_copy(self, "diffusion_inv")
        if B.ndim != 2 or Ci.shape != (B.shape[0], B.shape[1], B.shape[1]):
            raise ValueError("drift must be (N, n) and diffusion_inv (N, n, n)")
        finite = np.isfinite(B).all(axis=1) & np.isfinite(Ci).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"non-finite drift or diffusion_inv at point {int(np.argmin(finite))}")
        eig, bad = psd_eigenvalues(Ci)
        if bad is not None:
            raise ValueError(f"diffusion_inv at point {bad} is not positive semidefinite "
                             f"(smallest eigenvalue {float(eig[bad, 0])!r})")

    @property
    def n_points(self) -> int:
        return self.drift.shape[0]

    @classmethod
    def isotropic(cls, n_points: int, ambient_dim: int, c: float = 1.0) -> "CoefficientField":
        """Zero drift with constant isotropic diffusion c I (so C^-1 = I/c)."""
        eye = np.eye(ambient_dim) / c
        return cls(np.zeros((n_points, ambient_dim)),
                   np.broadcast_to(eye, (n_points, ambient_dim, ambient_dim)))

    @classmethod
    def laplace_beltrami(cls, n_points: int, ambient_dim: int) -> "CoefficientField":
        """Zero drift, c = 2I: the generator (1/2) c_ij grad_i grad_j equals
        the full Laplace-Beltrami operator (c = I would give half of it)."""
        return cls.isotropic(n_points, ambient_dim, c=2.0)


_JACOBIAN_RANK_RTOL = 1e-10


def lift_field(manifold: Manifold, cloud: PointCloud, b_fn, c_fn) -> CoefficientField:
    """Lift intrinsic (b, c) to ambient (B, C^-1) at every point of a cloud
    with known parametrization.

    ``b_fn`` and ``c_fn`` map the (N, d) intrinsic points to (N, d) and
    (N, d, d).  From the thin SVD J = U S V^T of each embedding Jacobian,
    B = pinv(J)^T b = U S^-1 V^T b and C^-1 = pinv(J c J^T) =
    U pinv(S V^T c V S) U^T, a d x d pseudo-inverse as U's columns are
    orthonormal.  C^-1 is symmetric PSD of rank d, or of c's rank for a
    singular c, which lifts as pinv(J c J^T) does.  A rank-deficient J
    raises ValueError.
    """
    if cloud.intrinsic is None:
        raise ValueError("cloud has no intrinsic coordinates to lift from")
    pts = cloud.intrinsic
    b = np.asarray(b_fn(pts), dtype=float)
    c = np.asarray(c_fn(pts), dtype=float)
    u, sing, vt = np.linalg.svd(embedding_jacobian(manifold, pts), full_matrices=False)
    bad = np.flatnonzero(sing[:, -1] <= sing[:, 0] * _JACOBIAN_RANK_RTOL)
    if bad.size:
        raise ValueError(f"embedding Jacobian is rank-deficient at point {bad[0]}")
    drift = np.einsum("nik,nk->ni", u, np.einsum("nkj,nj->nk", vt, b) / sing)
    sv = vt * sing[:, :, None]  # S V^T
    diff_inv = u @ np.linalg.pinv(sv @ c @ np.transpose(sv, (0, 2, 1)), hermitian=True) @ np.transpose(u, (0, 2, 1))
    return CoefficientField(drift, 0.5 * (diff_inv + np.transpose(diff_inv, (0, 2, 1))))


def read_numeric_rows(path, sep: str | None = None, header: bool = False):
    """(1-based line number, floats) for each non-blank line of a text file
    of reals split by ``sep`` (whitespace when None); with ``header``, a first
    line whose first token is not a number is skipped.  A non-numeric or
    non-finite token raises ValueError naming the file and the line."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            values = []
            for token in line.split(sep):
                try:
                    values.append(float(token))
                except ValueError:
                    if header and lineno == 1 and not values:
                        break  # a header line
                    raise ValueError(f"{path}: line {lineno}: non-numeric token") from None
                if not math.isfinite(values[-1]):
                    raise ValueError(f"{path}: line {lineno}: non-finite value {token.strip()!r}")
            else:
                yield lineno, values


def load_cloud(path) -> PointCloud:
    """Read an ambient-only point cloud from whitespace-separated text.

    One point per line; every line must hold the same number of finite
    decimal reals.  Parse failures report the offending 1-based line number.
    """
    rows: list[list[float]] = []
    for lineno, values in read_numeric_rows(path):
        if rows and len(values) != len(rows[0]):
            raise ValueError(f"{path}: line {lineno}: expected {len(rows[0])} columns, got {len(values)}")
        rows.append(values)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 points, got {len(rows)}")
    ambient = np.array(rows, dtype=float)
    return PointCloud(ambient, None, "iid_density", ambient_cloud_manifold(ambient.shape[1]))


def sample_sphere(n_points: int, seed: int = 0) -> PointCloud:
    """Uniform i.i.d. samples on the unit sphere S^2 (ambient-only cloud)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_points, 3))
    ambient = g / np.linalg.norm(g, axis=1, keepdims=True)
    return PointCloud(ambient, None, "iid_density", ambient_cloud_manifold(3, 2))

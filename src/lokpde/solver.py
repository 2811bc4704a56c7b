"""Linear solves for (a + L) u = f and convergence experiments.

Both regimes are one computation, (a + L)^+ f for a <= 0, and run through
one driver on B = eps (a + L) = S - I + eps diag(a), in the points' own
numbering.  The uniform residual is recomputed with B after each Krylov
call and, while it is above the caller's target, fed back as the next
right-hand side, for at most ``REFINE_ROUNDS`` = 3 calls.  The Krylov
method depends on S:

* **CG, where S is reversible.**  An isotropic, drift-free field gives a
  symmetric kernel, which ``operator.build_operator`` assembles on a
  symmetric pattern; when S keeps all of it, the generator carries its
  stationary weights w (w S = w), diag(w) S is symmetric (Coifman &
  Lafon, 2006), and A = -diag(w) B is symmetric positive semidefinite
  for a <= 0.  CG (Hestenes & Stiefel, 1952) with the Jacobi
  preconditioner diag(A)^-1 solves A u = -diag(w) f, and each call stops
  once its residual bounds B's uniform residual by the target, or after
  ``CG_MAX_ITERATIONS`` = 1000 iterations.  For a = 0 the null vectors
  are known: 1 on the right and w on the left.
* **GMRES otherwise** (Saad & Schultz, 1986), preconditioned by an
  incomplete LU (``spilu``, drop tolerance ``ILU_DROP_TOL`` = 1e-2) of a
  pruned copy P in SuperLU's symmetric minimum-degree order.  P drops
  B's off-diagonals below ``ILU_DROP_TOL`` |B_ii| and adds
  (1 - ``ILU_DROP_TOL``) of each row's dropped sum to its diagonal, a
  row-sum compensation as in modified ILU (Gustafsson, 1978) that keeps
  the smooth modes.  -B is a Z-matrix (off-diagonals -S_ij <= 0) and
  every row of -P keeps a diagonal margin of at least ``ILU_DROP_TOL``
  times its dropped mass, so -P, and any symmetric permutation of it, is
  a nonsingular M-matrix whenever -B is one: its incomplete LU exists
  with diagonal pivots for any dropping pattern (Meijerink & van der
  Vorst, 1977).  One GMRES call (restart ``GMRES_RESTART`` = 100) stops
  when its residual 2-norm is at most ``GMRES_RTOL`` = 1e-10 times that
  of its right-hand side, or after ``GMRES_MAX_CYCLES`` = 10 restart
  cycles.

A closed class of S with a = 0 on it makes a + L singular; the driver
then deflates by rank one.  f is projected onto w^perp for the left null
vector w, and u loses its component along the right null vector v.  On
CG these are the weights and 1.  On GMRES the class's smallest point q
is pinned by lowering B_qq by 1: B~ = B - e_q e_q^T.  On the class -B is
an irreducible singular M-matrix, which one more positive diagonal entry
makes nonsingular (Berman & Plemmons, 1994); every other point leads to
the class or to a point with a < 0, so -B~ is a nonsingular M-matrix and
the ILU argument above holds for it.  w (w B = 0, w_q = 1) then solves
B~^T w = -e_q, with the same ILU, B~ u = f forces u_q = 0 and so B u = f
for f in w^perp, and v = 1 for a = 0, else B~ v = -e_q, v_q = 1.  A
reversible S whose class leaves a != 0 elsewhere takes GMRES, as its
null vectors are not w and 1 there.

* ``solve_direct`` for strictly negative a, where nothing is pinned: the
  scaled system is strictly diagonally dominant, hence nonsingular with
  inf-norm inverse bounded by 1/min(-a); refinement enforces a relative
  uniform residual of at most ``DIRECT_RESIDUAL_RTOL``.
* ``solve_min_norm`` for a <= 0, above all a = 0 (singular generator).  A
  truncated-SVD pseudo-inverse is available for moderate N as the
  cross-check.

Failures are named: more than one closed class raises
:class:`DisconnectedGraphError`; an ILU breakdown or Krylov
non-convergence raise :class:`DirectSolveError` or
:class:`MinNormConvergenceError` with the best iterate and its residual.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .geometry import sample_points
from .kernels import KernelConfig, _entry_blocks, build_knn_graph
from .operator import GeneratorMatrix, build_operator, select_bandwidths
from .problems import analytic_pair, problem_coefficients

__all__ = [
    "LinearProblem",
    "SolveReport",
    "ConvergenceStudy",
    "EpsilonSweep",
    "MinNormConvergenceError",
    "DirectSolveError",
    "DisconnectedGraphError",
    "ConvergenceStudyError",
    "solve",
    "solve_direct",
    "solve_min_norm",
    "error_report",
    "best_shift_error",
    "check_minimum_norm_certificate",
    "oracle_epsilon",
    "convergence_study",
    "epsilon_sweep",
]

DIRECT_RESIDUAL_RTOL = 1e-10
MIN_NORM_RESIDUAL_RTOL = 1e-8
SVD_TRUNCATION_RTOL = 1e-8
SVD_MAX_N = 3000
ILU_DROP_TOL = 1e-2
GMRES_RESTART = 100
# at 1e-12 and below GMRES stalls short of the tolerance on bvp1d and the
# half-ellipse at paper size, even with exact LU factors
GMRES_RTOL = 1e-10
GMRES_MAX_CYCLES = 10
CG_MAX_ITERATIONS = 1000
REFINE_ROUNDS = 3


class DirectSolveError(RuntimeError):
    """The direct solve failed its residual contract or broke down."""

    def __init__(self, message, residual_inf, best_u=None):
        super().__init__(message)
        self.residual_inf = residual_inf
        self.best_u = best_u


class MinNormConvergenceError(RuntimeError):
    """The minimum-norm solve did not converge within its Krylov limits."""

    def __init__(self, message, best_u, residual):
        super().__init__(message)
        self.best_u = best_u
        self.residual = residual


class DisconnectedGraphError(RuntimeError):
    """S has more than one closed class, so L has nullity > 1.

    ``n_classes`` is the number of closed classes (strongly connected
    components of the graph of S that no edge leaves); ``extra_points``
    lists the smallest point index of every class after the first, and the
    message names at most 10 of them.
    """

    def __init__(self, n_classes, extra_points):
        more = f" and {len(extra_points) - 10} more" if len(extra_points) > 10 else ""
        super().__init__(
            f"the kNN graph has {n_classes} closed classes with a = 0, so the nullspace of "
            f"a + L has dimension {n_classes}; points {list(extra_points[:10])}{more} lie in "
            "classes beyond the first (increase k or the bandwidth)"
        )
        self.n_classes = n_classes
        self.extra_points = extra_points


class ConvergenceStudyError(RuntimeError):
    """A study sub-run failed; completed rows are attached."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class LinearProblem:
    """(diag(a) + L) u = f on the nodes of a generator matrix."""

    generator: GeneratorMatrix
    shift: np.ndarray  # a(x_i); the zero vector selects the singular regime
    rhs: np.ndarray    # f(x_i)

    def __post_init__(self):
        a = np.asarray(self.shift, dtype=float)
        f = np.asarray(self.rhs, dtype=float)
        object.__setattr__(self, "shift", a)
        object.__setattr__(self, "rhs", f)
        n = self.generator.n_points
        if a.shape != (n,) or f.shape != (n,):
            raise ValueError("shift and rhs must be N-vectors matching the generator")
        if not (np.isfinite(a).all() and np.isfinite(f).all()):
            raise ValueError("shift and rhs must be finite")


@dataclass(frozen=True)
class SolveReport:
    """Solution vector plus residual/error diagnostics.

    ``residual_inf`` is the uniform residual for the direct method and the
    least-squares residual 2-norm for the minimum-norm method.
    ``krylov`` names the Krylov method of the driver, "cg" or "gmres",
    None where no Krylov solve runs; ``iterations`` counts its iterations
    (null vectors, solve and refinement), 0 where none runs, and
    ``factor_nnz`` the stored entries of the incomplete L + U, None where
    no factor is built, as on CG.  Error fields are filled by
    :meth:`with_errors` when an analytic truth is available;
    ``error_inf_best_shift`` additionally minimizes the uniform error over
    an added constant (the solution family of the singular problem).
    """

    u_hat: np.ndarray
    method: str
    residual_inf: float
    iterations: int | None = None
    factor_nnz: int | None = None
    krylov: str | None = None
    error_inf: float | None = None
    error_l2: float | None = None
    error_inf_best_shift: float | None = None

    def with_errors(self, u_true: np.ndarray) -> "SolveReport":
        inf_err, l2_err = error_report(self.u_hat, u_true)
        return dataclasses.replace(
            self,
            error_inf=inf_err,
            error_l2=l2_err,
            error_inf_best_shift=best_shift_error(self.u_hat, u_true),
        )


class _KrylovFailure(Exception):
    """Raised by a :class:`_Refined` driver with (best u, its residual) or None."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def _pruned(b):
    """P: B less its off-diagonals below ``ILU_DROP_TOL`` |B_ii|, plus
    (1 - ``ILU_DROP_TOL``) of each row's removed sum on its diagonal.

    Rows meet their thresholds in row blocks, so the kept-entry mask is the
    only temporary as long as nnz(B).
    """
    n = b.shape[0]
    thresholds = ILU_DROP_TOL * np.abs(b.diagonal())
    keep, kept, removed = np.empty(b.nnz, dtype=bool), np.empty(n, dtype=np.intp), np.empty(n)
    for rows, span in _entry_blocks(b.indptr):
        lo, hi = rows.start, rows.stop
        row = np.repeat(np.arange(hi - lo), np.diff(b.indptr[lo : hi + 1]))
        keep[span] = np.abs(b.data[span]) >= thresholds[lo:hi][row]
        kept[lo:hi] = np.bincount(row, keep[span], hi - lo)
        removed[lo:hi] = np.bincount(row, np.where(keep[span], 0.0, b.data[span]), hi - lo)
    indptr = np.concatenate(([0], np.cumsum(kept)))
    p = scipy.sparse.csr_matrix((b.data[keep], b.indices[keep], indptr), shape=b.shape)
    p.setdiag(p.diagonal() + (1.0 - ILU_DROP_TOL) * removed)
    return p


class _Refined:
    """Iterative refinement around one Krylov method on B~ = eps (diag(a) + L).

    ``matrix`` is B = S - I + eps diag(a): one copy of S's data on S's
    index arrays, with the diagonal set to (S_ii - 1) + eps a_i, which
    keeps its relative accuracy where S_ii is close to 1; a subclass may
    change it into B~.  ``krylov`` names the method and ``iterations``
    counts its iterations over every call; a subclass runs one call from
    zero towards a uniform bound on the scaled residual (``_correction``).
    """

    def __init__(self, generator, shift):
        s, self.epsilon, self.iterations = generator.s_matrix, generator.epsilon, 0
        self.matrix = scipy.sparse.csr_matrix((s.data.copy(), s.indices, s.indptr), shape=s.shape)
        self.matrix.setdiag((s.diagonal() - 1.0) + self.epsilon * shift)

    def _spent(self):
        return f"after {self.iterations} {self.krylov.upper()} iterations"

    def _count(self, _):
        self.iterations += 1

    def solve(self, rhs, target):
        """(u, residual) with residual = rhs - B~ u / eps, |residual|_inf <= target.

        After each Krylov call the residual is recomputed with B~ and fed
        back as the next right-hand side, at most ``REFINE_ROUNDS`` times.
        """
        scaled, goal = self.epsilon * rhs, self.epsilon * target
        x, residual = np.zeros(scaled.size), scaled
        for _ in range(REFINE_ROUNDS):
            x += self._correction(residual, goal)
            residual = scaled - self.matrix @ x
            worst = np.abs(residual).max() / self.epsilon
            if worst <= target:
                break
        residual /= self.epsilon
        if worst > target:
            raise _KrylovFailure(
                f"uniform residual {worst:.3e} above {target:.3e} {self._spent()}", (x, residual)
            )
        return x, residual


class _IluGmres(_Refined):
    """B = eps (diag(a) + L), less e_q e_q^T at a pinned point q = ``pinned``.

    ``matrix`` is this B~, B with its entry at q 1 lower.  The
    preconditioner ``_ilu`` is SuperLU's incomplete LU of P^T (P of
    :func:`_pruned`) in the minimum-degree order of P^T + P (George & Liu,
    1989), which ``SymmetricMode`` and ``diag_pivot_thresh=0`` apply to
    rows and columns alike, taking the diagonal pivots.
    """

    krylov = "gmres"

    def __init__(self, generator, shift, pinned):
        super().__init__(generator, shift)
        self.pinned = pinned
        if pinned is not None:
            self.matrix[pinned, pinned] -= 1.0
        try:
            self._ilu = scipy.sparse.linalg.spilu(
                _pruned(self.matrix).T, drop_tol=ILU_DROP_TOL, permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise _KrylovFailure(f"incomplete LU broke down: {exc}") from None
        self.factor_nnz = int(self._ilu.L.nnz + self._ilu.U.nnz)
        self._precond = scipy.sparse.linalg.LinearOperator(
            self.matrix.shape, lambda v: self._ilu.solve(v, "T"), lambda v: self._ilu.solve(v, "N"), dtype=float
        )

    def _gmres(self, matrix, precond, rhs):
        """(x, converged): one preconditioned GMRES call from zero."""
        x, info = scipy.sparse.linalg.gmres(
            matrix, rhs, rtol=GMRES_RTOL, restart=GMRES_RESTART,
            maxiter=GMRES_MAX_CYCLES * GMRES_RESTART, M=precond, callback=self._count, callback_type="legacy",
        )
        return x, info == 0

    def _correction(self, residual, _):
        return self._gmres(self.matrix, self._precond, residual)[0]

    def null_vector(self, left):
        """v with v (a + L) = 0 (``left``) or (a + L) v = 0, and v = 1 at the pin.

        v B~ = -v_q e_q^T (B~ v = -v_q e_q), so v is y / y_q for y solving
        B~^T y = -e_q (B~ y = -e_q); a y_q that is 0 or not finite raises.
        """
        matrix, precond = (self.matrix.T, self._precond.T) if left else (self.matrix, self._precond)
        rhs = np.zeros(matrix.shape[0])
        rhs[self.pinned] = -1.0
        v, converged = self._gmres(matrix, precond, rhs)
        side = "left" if left else "right"
        if not converged:
            raise _KrylovFailure(f"no {side} null vector {self._spent()}")
        if not (np.isfinite(v[self.pinned]) and v[self.pinned] != 0.0):
            raise _KrylovFailure(f"the {side} null vector is {v[self.pinned]} at the pin")
        return v / v[self.pinned]


class _JacobiCg(_Refined):
    """B = eps (diag(a) + L) for a reversible S with stationary weights w
    (``GeneratorMatrix.weights``), solved as A = -diag(w) B.

    A is symmetric positive semidefinite (positive definite unless a = 0
    everywhere), so CG (Hestenes & Stiefel, 1952) runs on it, with the
    Jacobi preconditioner diag(A)^-1.  A call stops once its residual
    2-norm is at most min(w) times the uniform goal, which bounds B's
    uniform residual by the goal, or after ``CG_MAX_ITERATIONS``
    iterations.  No factor is built, and the null vectors for a = 0 are
    known: w on the left, 1 on the right.
    """

    krylov = "cg"
    factor_nnz = None

    def __init__(self, generator, shift):
        super().__init__(generator, shift)
        w, b = generator.weights, self.matrix
        self._weights, inverse_diagonal = w, -1.0 / (w * b.diagonal())
        self._a = scipy.sparse.linalg.LinearOperator(b.shape, lambda v: -w * (b @ v), dtype=float)
        self._precond = scipy.sparse.linalg.LinearOperator(b.shape, lambda v: inverse_diagonal * v, dtype=float)

    def _correction(self, residual, goal):
        x, _ = scipy.sparse.linalg.cg(
            self._a, -self._weights * residual, rtol=0.0, atol=goal * self._weights.min(),
            maxiter=CG_MAX_ITERATIONS, M=self._precond, callback=self._count,
        )
        return x

    def null_vector(self, left):
        return self._weights if left else np.ones(self._weights.size)


def solve(problem: LinearProblem) -> SolveReport:
    """Direct solve if max(a) < 0, otherwise the minimum-norm solve."""
    if problem.shift.max() < 0:
        return solve_direct(problem)
    return solve_min_norm(problem)


def _null_classes(s_matrix, shift):
    """Smallest point index of each closed class of S with a = 0 on it.

    A closed class is a strongly connected component of the graph of S
    that no edge leaves; with a <= 0, each one on which a = 0 carries one
    null vector of a + L.  S is its own graph: it stores only its links,
    the entries above float64 eps (``operator.GeneratorMatrix``), and a
    row whose other entries are all smaller is absorbing in floating point
    (S_ii - 1 rounds to 0).  With a != 0 at every point every class
    leaks, and the connectivity pass is skipped.
    """
    if shift.all():
        return np.empty(0, dtype=np.intp)
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(s_matrix, directed=True, connection="strong")
    counts = np.diff(s_matrix.indptr)
    leaks = np.zeros(n_comp, dtype=bool)
    for rows, entries in _entry_blocks(s_matrix.indptr):  # block-sized label arrays
        tails, heads = np.repeat(labels[rows], counts[rows]), labels[s_matrix.indices[entries]]
        leaks[tails[tails != heads]] = True
    leaks[labels[shift != 0]] = True
    _, first_member = np.unique(labels, return_index=True)
    return np.sort(first_member[~leaks])


def _krylov_solve(gen, a, f, target):
    """(u, residual, system): (a + L)^+ f for a <= 0, by rank-one deflation
    where S has a closed class with a = 0 on it.

    A generator with ``weights`` takes :class:`_JacobiCg`, unless a closed
    class with a = 0 on it leaves a != 0 elsewhere (its null vectors are
    then not w and 1); every other takes :class:`_IluGmres`, pinned at the
    class's smallest point.  ``residual``, at most ``target`` on every row,
    is f' - B~ u / eps for f' = f or its projection onto w^perp, before v
    is removed: off a pin q it is r = f' - (a + L) u, and r_q is bounded
    only through w r = 0.  Raises :class:`DisconnectedGraphError` for more
    than one such class and :class:`_KrylovFailure` when the Krylov solve
    fails.
    """
    classes = _null_classes(gen.s_matrix, a)
    if classes.size > 1:
        raise DisconnectedGraphError(int(classes.size), [int(p) for p in classes[1:]])
    if gen.weights is not None and not (classes.size and a.any()):
        system = _JacobiCg(gen, a)
    else:
        system = _IluGmres(gen, a, int(classes[0]) if classes.size else None)
    if not classes.size:  # a + L is nonsingular
        u, residual = system.solve(f, target)
        return u, residual, system
    w = system.null_vector(left=True)
    u, residual = system.solve(f - (w @ f) / (w @ w) * w, target)
    v = system.null_vector(left=False) if a.any() else np.ones(f.size)
    u -= (v @ u) / (v @ v) * v
    return u, residual, system


def solve_direct(problem: LinearProblem) -> SolveReport:
    """Solve (diag(a) + L) u = f for strictly negative a.

    Runs the shared driver, CG or ILU / GMRES, on the whole system (no
    pinning) and refines until the relative uniform residual
    |f - (a + L) u|_inf / |f|_inf is at most ``DIRECT_RESIDUAL_RTOL``
    (1e-10).  Raises :class:`DirectSolveError`, with the best iterate and
    its uniform residual, if the ILU breaks down or the contract is not
    met within ``REFINE_ROUNDS`` Krylov calls (each within its
    iteration limit).
    """
    a, f = problem.shift, problem.rhs
    if a.max() >= 0:
        raise ValueError(
            "direct solve requires max(a) < 0 (strict diagonal dominance); "
            "use solve_min_norm for the singular case"
        )
    n = problem.generator.n_points
    if not np.any(f):
        return SolveReport(np.zeros(n), "direct", 0.0, iterations=0)
    f_scale = float(np.abs(f).max())
    try:
        u, residual, system = _krylov_solve(problem.generator, a, f, DIRECT_RESIDUAL_RTOL * f_scale)
    except _KrylovFailure as exc:
        u, residual = exc.best or (np.zeros(n), f)
        res_inf = float(np.abs(residual).max())
        raise DirectSolveError(
            f"direct solve failed at relative residual {res_inf / f_scale:.3e}: {exc}", res_inf, u
        ) from None
    return SolveReport(
        u, "direct", float(np.abs(residual).max()), system.iterations, system.factor_nnz, system.krylov
    )


def solve_min_norm(problem: LinearProblem, method: str = "iterative") -> SolveReport:
    """Minimum-norm least-squares solution of (diag(a) + L) u = f.

    ``method="iterative"`` (default) needs a <= 0 and computes (a + L)^+ f
    with the shared driver, CG or ILU / GMRES, refining until the uniform
    residual (of B~ if S has a closed class with a = 0 on it) is at most
    ``MIN_NORM_RESIDUAL_RTOL`` (1e-8) max|f|, each Krylov call within its
    iteration limit.  Raises :class:`DisconnectedGraphError` when S has
    more than one closed class with a = 0 on it and
    :class:`MinNormConvergenceError` (best iterate and least-squares
    residual attached) on an ILU breakdown or Krylov non-convergence.

    ``method="svd"`` computes the truncated-SVD pseudo-inverse (singular
    values below 1e-8 sigma_max dropped) of diag(a) + L, available for
    N <= 3000, the cross-check of the iterative route.
    """
    generator = problem.generator
    n = generator.n_points
    a, f = problem.shift, problem.rhs
    if method not in ("iterative", "svd"):
        raise ValueError(f"unknown min-norm method {method!r}")
    if not np.any(f):
        return SolveReport(np.zeros(n), f"min_norm_{method}", 0.0, iterations=0)
    factor_nnz = krylov = None
    if method == "iterative":
        if a.max() > 0:
            raise ValueError("the iterative minimum-norm solve needs a <= 0; use method='svd'")
        try:
            target = MIN_NORM_RESIDUAL_RTOL * float(np.abs(f).max())
            u, _, system = _krylov_solve(generator, a, f, target)
        except _KrylovFailure as exc:
            u = exc.best[0] if exc.best else np.zeros(n)
            residual = float(np.linalg.norm(generator.apply(u) + a * u - f))
            raise MinNormConvergenceError(f"minimum-norm solve failed: {exc}", u, residual) from None
        itn, factor_nnz, krylov = system.iterations, system.factor_nnz, system.krylov
        residual = float(np.linalg.norm(generator.apply(u) + a * u - f))
    else:
        if n > SVD_MAX_N:
            raise ValueError(f"svd path is limited to N <= {SVD_MAX_N}, got N={n}")
        A = generator.shifted_matrix(a)
        u_mat, sing, vt = np.linalg.svd(A.toarray(), full_matrices=False)
        keep = sing > SVD_TRUNCATION_RTOL * sing[0]
        u, itn = vt[keep].T @ ((u_mat.T @ f)[keep] / sing[keep]), 0
        residual = float(np.linalg.norm(A @ u - f))
    return SolveReport(u, f"min_norm_{method}", residual, itn, factor_nnz, krylov)


def error_report(u_hat: np.ndarray, u_true: np.ndarray) -> tuple[float, float]:
    """Uniform error and root-mean-square error (|.|_2 / sqrt(N))."""
    u_hat = np.asarray(u_hat, dtype=float)
    u_true = np.asarray(u_true, dtype=float)
    if u_hat.shape != u_true.shape:
        raise ValueError(f"length mismatch: {u_hat.shape} vs {u_true.shape}")
    diff = u_hat - u_true
    return float(np.abs(diff).max()), float(np.linalg.norm(diff) / np.sqrt(diff.size))


def best_shift_error(u_hat: np.ndarray, u_true: np.ndarray) -> float:
    """Uniform error minimized over an added constant (midrange shift)."""
    diff = np.asarray(u_true, dtype=float) - np.asarray(u_hat, dtype=float)
    return float((diff.max() - diff.min()) / 2.0)


def check_minimum_norm_certificate(
    u_hat: np.ndarray, generator: GeneratorMatrix, null_vector: np.ndarray | None = None
) -> bool:
    """True iff u_hat's component along the nullspace is at most 1e-6 |u_hat|_2.

    For closed manifolds the numerical nullspace of L is spanned by the
    constant vector (row-stochasticity makes L 1 = 0), which is the default
    direction; tests may pass the smallest right singular vector instead.
    """
    u_hat = np.asarray(u_hat, dtype=float)
    n = generator.n_points
    if u_hat.shape != (n,):
        raise ValueError("u_hat must be an N-vector matching the generator")
    if null_vector is None:
        null_vector = np.full(n, 1.0 / np.sqrt(n))
    else:
        null_vector = np.asarray(null_vector, dtype=float)
        null_vector = null_vector / np.linalg.norm(null_vector)
    component = abs(float(null_vector @ u_hat))
    return component <= 1e-6 * float(np.linalg.norm(u_hat))


@dataclass(frozen=True)
class ConvergenceStudy:
    """Uniform errors against N with the bandwidths used and the log-log slope."""

    n_values: np.ndarray
    errors_inf: np.ndarray
    epsilons: np.ndarray
    fitted_slope: float


@dataclass(frozen=True)
class EpsilonSweep:
    """Uniform errors against eps at fixed N with the log-log slope."""

    epsilons: np.ndarray
    errors_inf: np.ndarray
    fitted_slope: float


def _solve_zoo(problem, cloud, coeffs, cfg, debias, neighbors):
    gen = build_operator(cloud, coeffs, cfg, debias=debias, neighbors=neighbors)
    shift = problem.shift(cloud.intrinsic)
    rhs = problem.f(cloud.intrinsic)
    return solve(LinearProblem(gen, shift, rhs)).with_errors(problem.u(cloud.intrinsic))


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def oracle_epsilon(
    problem,
    cloud,
    coeffs,
    k: int,
    bracket: tuple[float, float] = (1e-9, 1e-1),
    n_coarse: int = 17,
    n_refine: int = 12,
    debias: bool = True,
) -> tuple[float, float]:
    """Error-minimizing bandwidth by coarse log-scan plus golden section.

    This is the tuning mode available only when the analytic truth is
    known; it returns (epsilon, achieved uniform error).  The kNN search
    (indices and d^2) runs once and is shared by every trial.
    """
    neighbors = build_knn_graph(cloud, min(k, cloud.n_points))

    def err_at(eps):
        cfg = KernelConfig(eps, eps, min(k, cloud.n_points))
        try:
            return _solve_zoo(problem, cloud, coeffs, cfg, debias, neighbors).error_inf
        except (DirectSolveError, MinNormConvergenceError, DisconnectedGraphError):
            # bandwidths where the solve cannot meet its residual contract
            # (e.g. eps so small that 1/eps swamps double precision) are
            # simply not candidates
            return np.inf

    coarse = np.exp(np.linspace(np.log(bracket[0]), np.log(bracket[1]), n_coarse))
    errs = np.array([err_at(e) for e in coarse])
    best = int(np.argmin(errs))
    lo = np.log(coarse[max(best - 1, 0)])
    hi = np.log(coarse[min(best + 1, n_coarse - 1)])
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = err_at(np.exp(x1)), err_at(np.exp(x2))
    for _ in range(n_refine):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = err_at(np.exp(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = err_at(np.exp(x2))
    candidates = [(errs[best], coarse[best]), (f1, np.exp(x1)), (f2, np.exp(x2))]
    err, eps = min(candidates)
    return float(eps), float(err)


def convergence_study(
    problem_id: str,
    n_values,
    tuning: str = "oracle",
    k: int = 100,
    mode: str = "uniform_grid",
    seed: int = 0,
    debias: bool = True,
    bracket: tuple[float, float] = (1e-9, 1e-1),
    oracle_effort: tuple[int, int] = (17, 12),
) -> ConvergenceStudy:
    """Solve a zoo problem over increasing N and fit the error rate.

    ``tuning="oracle"`` picks the error-minimizing bandwidth per N (as done
    when the truth is known); ``tuning="auto"`` uses the Q(eps) slope
    criterion.  A failure in any sub-run raises
    :class:`ConvergenceStudyError` with the completed rows attached.
    """
    n_values = np.asarray(list(n_values), dtype=int)
    if n_values.size < 4:
        raise ValueError("convergence study needs at least 4 values of N")
    if np.any(np.diff(n_values) <= 0):
        raise ValueError("N values must be strictly increasing")
    if tuning not in ("oracle", "auto"):
        raise ValueError(f"unknown tuning mode {tuning!r}")
    problem = analytic_pair(problem_id)
    errors, epsilons = [], []
    for n in n_values:
        try:
            cloud = sample_points(problem.manifold, int(n), mode, seed)
            coeffs = problem_coefficients(problem, cloud)
            k_n = min(k, int(n))
            if tuning == "oracle":
                eps, err = oracle_epsilon(
                    problem, cloud, coeffs, k_n, bracket,
                    n_coarse=oracle_effort[0], n_refine=oracle_effort[1], debias=debias,
                )
            else:
                eps, eps_tilde, _, _ = select_bandwidths(cloud, coeffs, "auto", "auto")
                cfg = KernelConfig(eps, eps_tilde, k_n)
                err = _solve_zoo(problem, cloud, coeffs, cfg, debias, None).error_inf
        except Exception as exc:
            partial = ConvergenceStudy(
                n_values[: len(errors)],
                np.array(errors),
                np.array(epsilons),
                float("nan"),
            )
            raise ConvergenceStudyError(f"study failed at N={n}: {exc}", partial) from exc
        errors.append(err)
        epsilons.append(eps)
    errors = np.array(errors)
    epsilons = np.array(epsilons)
    slope = float(np.polyfit(np.log(n_values), np.log(errors), 1)[0])
    return ConvergenceStudy(n_values, errors, epsilons, slope)


def epsilon_sweep(
    problem_id: str,
    n_points: int,
    epsilons,
    k: int = 100,
    debias: bool = True,
) -> EpsilonSweep:
    """Uniform error against bandwidth at fixed N (the O(eps) regime check).

    The cloud is the uniform grid; one kNN search (indices and d^2) is
    shared by every bandwidth.
    """
    epsilons = np.asarray(list(epsilons), dtype=float)
    if epsilons.size < 2:
        raise ValueError("epsilon sweep needs at least 2 bandwidths")
    problem = analytic_pair(problem_id)
    cloud = sample_points(problem.manifold, n_points, "uniform_grid")
    coeffs = problem_coefficients(problem, cloud)
    k = min(k, n_points)
    neighbors = build_knn_graph(cloud, k)
    errors = []
    for eps in epsilons:
        cfg = KernelConfig(float(eps), float(eps), k)
        errors.append(_solve_zoo(problem, cloud, coeffs, cfg, debias, neighbors).error_inf)
    errors = np.array(errors)
    slope = float(np.polyfit(np.log(epsilons), np.log(errors), 1)[0])
    return EpsilonSweep(epsilons, errors, slope)

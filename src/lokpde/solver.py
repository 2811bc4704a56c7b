"""Linear solves for (a + L) u = f and convergence experiments.

Both regimes are one computation, (a + L)^+ f for a <= 0, and run through
one driver on B = eps (a + L) = S - I + eps diag(a), in the points' own
numbering.  The uniform residual is recomputed with B after each Krylov
call and, while it is above the caller's target, fed back as the next
right-hand side, for at most ``REFINE_ROUNDS`` = 3 calls.  Each call is
GMRES (Saad & Schultz, 1986), restarted every ``GMRES_RESTART`` = 100
iterations, right-preconditioned by two-level aggregation (Vanek, Mandel
& Brezina, 1996; Notay, 2010).  The points are grouped into aggregates,
the leaves of a median split of their coordinates
(``kernels._median_order``), of ``COARSE_POINTS`` = 8 points up to
N = 4096 and of N / ``COARSE_MAX_ORDER`` points past it, so the coarse
order stays at most ``COARSE_MAX_ORDER`` = 512.  With R the
piecewise-constant N x (coarse order) aggregation matrix, the coarse
matrix A_c = R^T B R is formed on entry to the solve as the transpose of
R^T (B^T R), and B^T R is dropped before A_c is inverted densely.  One
preconditioner application is a damped Jacobi pre-sweep (weight
``JACOBI_WEIGHT`` = 0.6) and the coarse correction on its residual,
M^-1 = omega D^-1 + R A_c^-1 R^T (I - B omega D^-1).  The sweep's
product also gives B M^-1 v, with B R formed once, so a GMRES iteration
makes one product with B and one with B R (an eighth of S's entries on
the torus), where a symmetric cycle makes three with B.  -B is a
Z-matrix (off-diagonals -S_ij <= 0) whose row sums are -eps a_i >= 0.
The off-diagonals of -A_c are sums of -S_ij <= 0, its row sums are sums
of those of -B, and an aggregate leads to another whenever one of its
points leads to one of the other's, so -A_c inherits the chain of
positive row sums that makes -B a nonsingular M-matrix (Berman &
Plemmons, 1994): -A_c is one whenever -B is, and the coarse inverse
exists.  Beside S the solve holds the Krylov basis,
(``GMRES_RESTART`` + 1) N doubles, the dense inverse, at most 512^2
doubles (2 MB, and about four times that while LAPACK inverts), and one
of B R and B^T R at a time.  The ambient sphere cloud with N = 3000, k = 400 and a = -1 takes
375 aggregates and 20 iterations.  Past N = 4096 the aggregates grow,
and so does the iteration count: on the torus with k = 128, N = 6400
(eps = 0.0024) takes 13-point aggregates and 80 iterations (0.13 s), and
N = 25 600 (eps = 6e-4) takes 50-point aggregates and 156 iterations
(0.9 s).  Much larger clouds need a third level.  One GMRES call stops
when its residual 2-norm is at most ``GMRES_RTOL`` = 1e-10 times that of
its right-hand side, after ``GMRES_MAX_CYCLES`` = 10 restart cycles, or
after a cycle at whose rate the cycles left could not reach that target.

A closed class of S with a = 0 on it makes a + L singular; the driver
then deflates by rank one.  f is projected onto w^perp for the left null
vector w, and u loses its component along the right null vector v.  The
class's smallest point q is pinned by lowering B_qq by 1:
B~ = B - e_q e_q^T.  On the class -B is an irreducible singular M-matrix,
which one more positive diagonal entry makes nonsingular (Berman &
Plemmons, 1994); every other point leads to the class or to a point with
a < 0, so -B~ is a nonsingular M-matrix and the coarse argument above
holds for it.  w (w B = 0, w_q = 1) then solves B~^T w = -e_q,
preconditioned by the cycle on B~^T, B~ u = f forces u_q = 0 and so
B u = f for f in w^perp, and v = 1 for a = 0, else B~ v = -e_q, v_q = 1.

* ``solve_direct`` for strictly negative a, where nothing is pinned: the
  scaled system is strictly diagonally dominant, hence nonsingular with
  inf-norm inverse bounded by 1/min(-a); refinement enforces a relative
  uniform residual of at most ``DIRECT_RESIDUAL_RTOL``.
* ``solve_min_norm`` for a <= 0, above all a = 0 (singular generator).  A
  truncated-SVD pseudo-inverse is available for moderate N as the
  cross-check.

Failures are named: more than one closed class raises
:class:`DisconnectedGraphError`; a singular coarse matrix or Krylov
non-convergence raise :class:`DirectSolveError` or
:class:`MinNormConvergenceError` with the best iterate and its residual.

B~ differs from S only on its diagonal, so the solve makes no copy of S:
for the Krylov calls scipy's in-place ``setdiag`` writes B~'s diagonal,
(S_ii - 1) + eps a_i less 1 at a pin, over S's, and writes S's back on
return and on every exception, one raised on entry included
(:class:`_TwoLevelGmres`).  Forming B~ x as S x - x + eps a x would need
no write to S, but S x rounds at the size of x_i, so S x - x loses the
relative accuracy of (S_ii - 1) x_i where 1 - S_ii is small, which the
residual at small eps rests on.  An S with
read-only data, not canonical (unsorted rows or an entry stored twice)
or missing a diagonal entry gets its diagonal set on ``S.copy()``.

The solve needs numpy and ``scipy.sparse`` alone: GMRES and the
closed-class search are written here, so no process loads
``scipy.sparse.linalg``, ``scipy.linalg`` or ``scipy.sparse.csgraph``.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import os
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .geometry import sample_points
from .kernels import KernelConfig, _entry_blocks, _median_order, build_knn_graph
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
COARSE_POINTS = 8
COARSE_MAX_ORDER = 512
JACOBI_WEIGHT = 0.6
GMRES_RESTART = 100
# at 1e-12 and below GMRES stalls short of the tolerance on bvp1d and the
# half-ellipse at paper size, even with exact LU factors
GMRES_RTOL = 1e-10
GMRES_MAX_CYCLES = 10
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
    ``iterations`` counts the driver's GMRES iterations (null vectors,
    solve and refinement), 0 where no Krylov solve runs, and
    ``coarse_size`` the order of its coarse level, None where none is
    built.  Error fields are filled by
    :meth:`with_errors` when an analytic truth is available;
    ``error_inf_best_shift`` additionally minimizes the uniform error over
    an added constant (the solution family of the singular problem).
    """

    u_hat: np.ndarray
    method: str
    residual_inf: float
    iterations: int | None = None
    coarse_size: int | None = None
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
    """Raised by a :class:`_TwoLevelGmres` driver with (best u, its residual) or None."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def _aggregates(points, n):
    """(labels, count): the aggregate of each of the n points and their number.

    Aggregates are the leaves of ``kernels._median_order`` on ``points``
    (runs of the points' own numbering when None), ``COARSE_POINTS`` points
    each up to N = ``COARSE_POINTS`` ``COARSE_MAX_ORDER`` and
    N / ``COARSE_MAX_ORDER`` past it, so there are at most
    ``COARSE_MAX_ORDER`` of them.
    """
    size = max(COARSE_POINTS, -(-n // COARSE_MAX_ORDER))
    order = np.arange(n)
    if points is not None:
        order = _median_order(np.ascontiguousarray(points.T), order, size)
    labels = np.empty(n, dtype=np.intp)
    labels[order] = np.arange(n) // size
    return labels, -(-n // size)


class _TwoLevelGmres:
    """Iterative refinement around GMRES on B~ = eps (diag(a) + L), that is
    B less e_q e_q^T at a pinned point q = ``pinned``, with a two-level
    aggregation preconditioner.

    The solve's one context manager.  On entry it pins numpy's OpenBLAS
    to one thread, borrows S for B~ and forms the coarse level; on exit,
    also on an exception, and before re-raising any exception of the
    entry itself (a singular coarse matrix above all), it gives S and the
    thread count back.

    The solve's dense products are small: the coarse inverse of order at
    most 512, its matrix-vector products and the Gram-Schmidt products
    with the (restart + 1, N) basis.  Where a second CPU has idled,
    waking OpenBLAS's worker threads cost about 1 ms per parallel region
    on a 2-CPU host, so a first inverse of order 493 took 194 ms and a
    cycle of Gram-Schmidt products at N = 6400 463 ms, against 20 and
    21 ms on one thread; no BLAS call of the solve gains from threads.

    To borrow S, scipy's ``setdiag`` writes B~'s diagonal,
    (S_ii - 1) + eps a_i less 1 at q, over S's own, so ``matrix`` is S
    itself, and on exit writes S's saved diagonal back.  Where S's data is
    read-only, S is not canonical (rows unsorted or an entry stored twice)
    or a row stores no diagonal entry, ``matrix`` is ``S.copy()`` with the
    diagonal set, missing entries inserted.  Two solves on one generator
    must not run at once.

    The points are grouped into aggregates (:func:`_aggregates`); R,
    N x ``coarse_size``, holds R_iI = 1 where point i lies in aggregate I,
    and the coarse matrix A_c = R^T B~ R sums B~'s entries over pairs of
    aggregates.  The preconditioner is a damped Jacobi pre-sweep,
    omega D^-1 with D = diag(B~) and omega = ``JACOBI_WEIGHT``, followed by
    the coarse correction (Vanek, Mandel & Brezina, 1996; Notay, 2010),
    and it returns B~ M^-1 v beside M^-1 v (:meth:`_precondition`), so
    GMRES makes no product of its own.  The transposed system B~^T runs
    the same cycle on the CSC view of B~'s arrays, with A_c^T.  On entry
    A_c^T = R^T (B~^T R) comes from the CSC view's product, which is
    dropped before A_c^T is inverted densely (the transposed cycle forms
    it again when it first needs it), and no copy of S's data is made.

    ``iterations`` counts the GMRES iterations over every call, and
    ``stalled`` is set when a call stops early for want of progress, which
    ends the refinement.
    """

    stalled, matrix = False, None

    def __init__(self, generator, shift, pinned):
        s, self.epsilon, self.iterations = generator.s_matrix, generator.epsilon, 0
        self._s, self._saved, self.pinned = s, s.diagonal(), pinned
        diagonal = self._diagonal = (self._saved - 1.0) + generator.epsilon * shift
        if pinned is not None:
            diagonal[pinned] -= 1.0
        # a zero on B~'s diagonal, which no generator has, is left out of the sweeps
        self._sweep = np.divide(JACOBI_WEIGHT, diagonal, out=np.zeros_like(diagonal), where=diagonal != 0.0)
        self._labels, self.coarse_size = _aggregates(generator.points, s.shape[0])
        self._aggregation = scipy.sparse.csr_matrix(  # R
            (np.ones(s.shape[0]), self._labels, np.arange(s.shape[0] + 1)), shape=(s.shape[0], self.coarse_size)
        )

    def __enter__(self):
        self._blas = _openblas_threads()
        if self._blas is not None:
            self._threads = self._blas[0]()
            self._blas[1](1)
        try:
            s = self._s
            # S stores nothing at or below eps, so a saved 0.0 is a row without its diagonal entry
            borrow = s.data.flags.writeable and s.has_canonical_format and self._saved.all()
            self.matrix = s if borrow else s.copy()
            with warnings.catch_warnings():  # older scipy warns that inserting is slow; only a copy inserts
                warnings.simplefilter("ignore", scipy.sparse.SparseEfficiencyWarning)
                self.matrix.setdiag(self._diagonal)
            self._transposed = self.matrix.T  # a view on B~'s arrays
            self._coarse_image = (None, None)
            coarse = (self._aggregation.T @ (self._transposed @ self._aggregation)).toarray()  # A_c^T
            self._coarse_inverse = np.linalg.inv(coarse).T
        except BaseException as exc:
            self.__exit__()
            if isinstance(exc, np.linalg.LinAlgError):
                raise _KrylovFailure("the preconditioner broke down: the coarse matrix is singular") from None
            raise
        return self

    def __exit__(self, *_):
        if self.matrix is self._s:
            self._s.setdiag(self._saved)
        self.matrix = None
        if self._blas is not None:
            self._blas[1](self._threads)

    def _spent(self):
        stall = ", where a restart cycle cut the residual too slowly to meet the target" if self.stalled else ""
        return f"after {self.iterations} GMRES iterations{stall}"

    def solve(self, rhs, target):
        """(u, residual) with residual = rhs - B~ u / eps, |residual|_inf <= target.

        After each GMRES call the residual is recomputed with B~ and fed
        back as the next right-hand side, at most ``REFINE_ROUNDS`` times.
        """
        scaled = self.epsilon * rhs
        x, residual = np.zeros(scaled.size), scaled
        for _ in range(REFINE_ROUNDS):
            x += self._gmres(residual)[0]
            residual = scaled - self.matrix @ x
            worst = np.abs(residual).max() / self.epsilon
            if worst <= target or self.stalled:
                break
        residual /= self.epsilon
        if worst > target:
            raise _KrylovFailure(
                f"uniform residual {worst:.3e} above {target:.3e} {self._spent()}", (x, residual)
            )
        return x, residual

    def _precondition(self, v, transposed):
        """(M^-1 v, B~ M^-1 v), or the pair of B~^T for the ``transposed`` system.

        z_1 = omega D^-1 v, c = A_c^-1 R^T (v - B~ z_1), M^-1 v = z_1 + R c
        and B~ M^-1 v = B~ z_1 + (B~ R) c.  B~ R is formed on the first call
        in its direction and frees the other direction's; B~^T R is the CSC
        view times R, as ``R.T @ B~`` would convert B~ to CSC, a copy of S.
        """
        b, inverse = (self._transposed, self._coarse_inverse.T) if transposed else (self.matrix, self._coarse_inverse)
        if self._coarse_image[0] != transposed:
            self._coarse_image = (None, None)  # one direction's product alive at a time
            self._coarse_image = (transposed, b @ self._aggregation)
        z = self._sweep * v
        image = b @ z
        correction = inverse @ np.bincount(self._labels, v - image, self.coarse_size)
        z += correction[self._labels]
        image += self._coarse_image[1] @ correction
        return z, image

    def _gmres(self, rhs, transposed=False):
        """(x, converged): one right-preconditioned GMRES call from zero.

        Restarted every ``GMRES_RESTART`` iterations, for at most
        ``GMRES_MAX_CYCLES`` cycles, and converged once the residual 2-norm
        is at most ``GMRES_RTOL`` times that of ``rhs``.  The Krylov basis
        is one (restart + 1, N) array, orthogonalised by classical
        Gram-Schmidt with one reorthogonalisation (Giraud, Langou &
        Rozloznik, 2005); Givens rotations keep the least-squares residual
        of each step.  A cycle after which the cycles left, cutting the
        residual at its rate, could not reach the target sets ``stalled``
        and ends the call.
        """
        b = self._transposed if transposed else self.matrix
        basis = np.empty((GMRES_RESTART + 1, rhs.size))
        target = GMRES_RTOL * np.linalg.norm(rhs)
        x, residual = np.zeros(rhs.size), rhs
        norm = float(np.linalg.norm(residual))
        for cycle in range(1, GMRES_MAX_CYCLES + 1):
            if norm <= target:
                return x, True
            basis[0] = residual / norm
            hessenberg = np.zeros((GMRES_RESTART + 1, GMRES_RESTART))
            rotations, g = [], [norm]
            for j in range(GMRES_RESTART):
                w = self._precondition(basis[j], transposed)[1]
                self.iterations += 1
                h = basis[: j + 1] @ w
                w -= h @ basis[: j + 1]
                again = basis[: j + 1] @ w
                w -= again @ basis[: j + 1]
                column = [*(h + again).tolist(), float(np.linalg.norm(w))]
                for i, (c, s) in enumerate(rotations):
                    column[i], column[i + 1] = c * column[i] + s * column[i + 1], c * column[i + 1] - s * column[i]
                top, below = column[j], column[j + 1]
                radius = np.hypot(top, below)
                c, s = (1.0, 0.0) if radius == 0.0 else (top / radius, below / radius)
                rotations.append((c, s))
                column[j], column[j + 1] = radius, 0.0
                hessenberg[: j + 2, j] = column
                g.append(-s * g[j])
                g[j] *= c
                if below == 0.0 or abs(g[j + 1]) <= target:
                    break
                basis[j + 1] = w / below
            steps = j + 1
            y = np.linalg.solve(hessenberg[:steps, :steps], g[:steps])
            x += self._precondition(y @ basis[:steps], transposed)[0]
            residual = rhs - b @ x
            start, norm = norm, float(np.linalg.norm(residual))
            if cycle < GMRES_MAX_CYCLES and norm * (norm / start) ** (GMRES_MAX_CYCLES - cycle) > target:
                self.stalled = True
                break
        return x, norm <= target

    def null_vector(self, left):
        """v with v (a + L) = 0 (``left``) or (a + L) v = 0, and v = 1 at the pin.

        v B~ = -v_q e_q^T (B~ v = -v_q e_q), so v is y / y_q for y solving
        B~^T y = -e_q (B~ y = -e_q).  y is known to about ``GMRES_RTOL``
        times its largest entry, so a y_q at or below that, or not finite,
        raises.
        """
        rhs = np.zeros(self.matrix.shape[0])
        rhs[self.pinned] = -1.0
        v, converged = self._gmres(rhs, transposed=left)
        side = "left" if left else "right"
        if not converged:
            raise _KrylovFailure(f"no {side} null vector {self._spent()}")
        if not (np.isfinite(v[self.pinned]) and abs(v[self.pinned]) > GMRES_RTOL * np.abs(v).max()):
            raise _KrylovFailure(f"the {side} null vector is {v[self.pinned]} at the pin")
        return v / v[self.pinned]


def solve(problem: LinearProblem) -> SolveReport:
    """Direct solve if max(a) < 0, otherwise the minimum-norm solve."""
    if problem.shift.max() < 0:
        return solve_direct(problem)
    return solve_min_norm(problem)


def _closure(s_matrix, values, op, pointer):
    """op of ``values`` over the points each point reaches in the graph of S.

    Each sweep takes op over every row's own value and its heads' values,
    one ``reduceat`` per block of S's rows, and then, while that changes
    anything, op with the value of the point ``pointer(values)``, which the
    point reaches (pointer jumping), so a value crosses a long path in
    few sweeps.  Stops after a sweep that changes nothing.
    """
    indptr, heads = s_matrix.indptr, s_matrix.indices
    counts = np.diff(indptr)
    while True:
        swept = values.copy()
        for rows, entries in _entry_blocks(indptr):
            filled = rows.start + np.flatnonzero(counts[rows])  # a row without links reaches only itself
            if filled.size:
                reached = op.reduceat(swept[heads[entries]], indptr[filled] - entries.start)
                swept[filled] = op(swept[filled], reached)
        while not np.array_equal(jumped := op(swept, swept[pointer(swept)]), swept):
            swept = jumped
        if np.array_equal(swept, values):
            return values
        values = swept


def _null_classes(s_matrix, shift):
    """Smallest point index of each closed class of S with a = 0 on it.

    A closed class is a strongly connected component of the graph of S
    that no edge leaves; with a <= 0, each one on which a = 0 carries one
    null vector of a + L.  S is its own graph: it stores only its links,
    the entries above float64 eps (``operator.GeneratorMatrix``), and a
    row whose other entries are all smaller is absorbing in floating point
    (S_ii - 1 rounds to 0).  With a != 0 at every point every class
    leaks, and the connectivity pass is skipped.

    Two reachability labels find the classes, each a :func:`_closure` over
    S's rows (colouring, as in Orzan 2004, in place of the forward and
    backward searches of Fleischer, Hendrickson & Pinar 2000):

    * top(i), the largest point that i reaches.  Every point on the way
      from i to top(i) has the same top, so a root r = top(r) heads the
      points that reach it and nothing larger.
    * low(i), the least key (2 top(j) + [a_j = 0]) N + j over the points j
      that i reaches.  Every point that a root r reaches has top at most
      r, and exactly r when it reaches r back.  So low(r) is
      (2 r + 1) N + j exactly when everything r reaches lies in r's class,
      which is then closed, with a = 0 on it, and j is its smallest point.
      No point i other than a root has low(i) // N = 2 i + 1: a j that i
      reaches with top(j) = i would also reach top(i) > i.
    """
    if shift.all():
        return np.empty(0, dtype=np.intp)
    n = s_matrix.shape[0]
    points = np.arange(n)
    top = _closure(s_matrix, points, np.maximum, lambda v: v)
    low = _closure(s_matrix, (2 * top + (shift == 0)) * n + points, np.minimum, lambda v: v % n)
    closed = low // n == 2 * points + 1
    return np.sort(low[closed] % n)


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    bundles, or None where numpy links another BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*.so*")
    for lib in glob.glob(libs):
        dll = ctypes.CDLL(lib)  # the loaded library itself, as numpy holds it open
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            if hasattr(dll, f"{prefix}_set_num_threads{suffix}"):
                get = getattr(dll, f"{prefix}_get_num_threads{suffix}")
                put = getattr(dll, f"{prefix}_set_num_threads{suffix}")
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _krylov_solve(gen, a, f, target):
    """(u, residual, system): (a + L)^+ f for a <= 0 by :class:`_TwoLevelGmres`,
    with rank-one deflation, pinned at the class's smallest point, where S
    has a closed class with a = 0 on it.

    ``residual``, at most ``target`` on every row, is f' - B~ u / eps for
    f' = f or its projection onto w^perp, before v is removed: off a pin q
    it is r = f' - (a + L) u, and r_q is bounded only through w r = 0.
    Raises :class:`DisconnectedGraphError` for more than one such class and
    :class:`_KrylovFailure` when the coarse matrix is singular or the
    Krylov solve fails.  The closed-class search runs first; the system,
    entered once it has passed, runs numpy's BLAS on one thread and
    borrows S, and gives both back on return and on every exception, so S
    is unchanged then.
    """
    classes = _null_classes(gen.s_matrix, a)
    if classes.size > 1:
        raise DisconnectedGraphError(int(classes.size), [int(p) for p in classes[1:]])
    with _TwoLevelGmres(gen, a, int(classes[0]) if classes.size else None) as system:
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

    Runs the shared driver, two-level GMRES, on the whole system (no
    pinning) and refines until the relative uniform residual
    |f - (a + L) u|_inf / |f|_inf is at most ``DIRECT_RESIDUAL_RTOL``
    (1e-10).  Raises :class:`DirectSolveError`, with the best iterate and
    its uniform residual, if the coarse matrix is singular or the contract
    is not met within ``REFINE_ROUNDS`` Krylov calls (each within its
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
    return SolveReport(u, "direct", float(np.abs(residual).max()), system.iterations, system.coarse_size)


def solve_min_norm(problem: LinearProblem, method: str = "iterative") -> SolveReport:
    """Minimum-norm least-squares solution of (diag(a) + L) u = f.

    ``method="iterative"`` (default) needs a <= 0 and computes (a + L)^+ f
    with the shared driver, two-level GMRES, refining until the uniform
    residual (of B~ if S has a closed class with a = 0 on it) is at most
    ``MIN_NORM_RESIDUAL_RTOL`` (1e-8) max|f|, each Krylov call within its
    iteration limit.  Raises :class:`DisconnectedGraphError` when S has
    more than one closed class with a = 0 on it and
    :class:`MinNormConvergenceError` (best iterate and least-squares
    residual attached) on a singular coarse matrix or Krylov non-convergence.

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
    coarse_size = None
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
        itn, coarse_size = system.iterations, system.coarse_size
        residual = float(np.linalg.norm(generator.apply(u) + a * u - f))
    else:
        if n > SVD_MAX_N:
            raise ValueError(f"svd path is limited to N <= {SVD_MAX_N}, got N={n}")
        A = generator.shifted_matrix(a)
        u_mat, sing, vt = np.linalg.svd(A.toarray(), full_matrices=False)
        keep = sing > SVD_TRUNCATION_RTOL * sing[0]
        u, itn = vt[keep].T @ ((u_mat.T @ f)[keep] / sing[keep]), 0
        residual = float(np.linalg.norm(A @ u - f))
    return SolveReport(u, f"min_norm_{method}", residual, itn, coarse_size)


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

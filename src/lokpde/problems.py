"""Analytic test problems: manufactured (u, f) pairs for the manifold zoo.

Each problem packages a true solution u, the matching right-hand side
f = (a + L)u for the backward Kolmogorov operator

    L u = sum_ij g^ij b_i du/dx_j
          + 1/2 sum_ij c_ij (d2u/dx_i dx_j - sum_k Gamma^k_ij du/dx_k),

together with the intrinsic coefficients (b, c) and the zeroth-order
shift a.  The metric g and Christoffel symbols Gamma are those the
embedding induces on the parametrization; they enter only the f
formulas, which are hard-coded in closed form.  The tests cross-check f
against (a + L) u by central finite differences, with their own table of
g and Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import CoefficientField, Manifold, PointCloud, get_manifold, lift_field

__all__ = [
    "AnalyticProblem",
    "PROBLEM_IDS",
    "analytic_pair",
    "problem_coefficients",
]

PROBLEM_IDS = ("bvp1d", "ellipse", "half_ellipse", "torus", "half_torus")


@dataclass(frozen=True)
class AnalyticProblem:
    """Evaluators are vectorized over a leading point axis: (N, d) in."""

    name: str
    manifold: Manifold
    u: Callable[[np.ndarray], np.ndarray]          # (N, d) -> (N,)
    f: Callable[[np.ndarray], np.ndarray]          # (N, d) -> (N,)
    shift: Callable[[np.ndarray], np.ndarray]      # a(x): (N, d) -> (N,)
    drift: Callable[[np.ndarray], np.ndarray]      # b: (N, d) -> (N, d)
    diffusion: Callable[[np.ndarray], np.ndarray]  # c: (N, d) -> (N, d, d)


def _pts(x: np.ndarray, d: int) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(x, dtype=float))
    if arr.shape[1] != d:
        raise ValueError(f"expected points of dimension {d}, got {arr.shape[1]}")
    return arr


def _bvp1d(b: float) -> AnalyticProblem:
    """Interval problem: (L - 2I)u = f with u = cos(2 pi x), drift b, c = 1.

    With u = cos(2 pi x) the stated f forces the zeroth-order term to be
    -2u, so the shift is a(x) = -2 (which also keeps a + L strictly
    negative, as the direct solver requires).
    """
    man = get_manifold("interval")
    two_pi = 2.0 * np.pi

    def u(x):
        x = _pts(x, 1)
        return np.cos(two_pi * x[:, 0])

    def f(x):
        x = _pts(x, 1)[:, 0]
        return -two_pi * b * np.sin(two_pi * x) - (2.0 * np.pi**2 + 2.0) * np.cos(two_pi * x)

    def shift(x):
        return np.full(_pts(x, 1).shape[0], -2.0)

    def drift(x):
        return np.full((_pts(x, 1).shape[0], 1), b)

    def diffusion(x):
        return np.ones((_pts(x, 1).shape[0], 1, 1))

    return AnalyticProblem("bvp1d", man, u, f, shift, drift, diffusion)


def _ellipse(half: bool) -> AnalyticProblem:
    """Variable-coefficient problem on the (half) ellipse (cos t, 2 sin t).

    b(t) = cos t, c(t) = 1.1 + cos t, u(t) = cos t; f is
    -sin t cos t g^11 + (1.1 + cos t)(-cos t - 3 g^11 sin^2 t cos t)/2
    with g_11 = sin^2 t + 4 cos^2 t.  On [0, pi] u satisfies the Neumann
    condition at both endpoints.
    """
    man = get_manifold("half_ellipse" if half else "ellipse")

    def g11(th):
        return np.sin(th) ** 2 + 4.0 * np.cos(th) ** 2

    def u(x):
        return np.cos(_pts(x, 1)[:, 0])

    def f(x):
        th = _pts(x, 1)[:, 0]
        ginv = 1.0 / g11(th)
        s, co = np.sin(th), np.cos(th)
        return -s * co * ginv + 0.5 * (1.1 + co) * (-co - 3.0 * ginv * s**2 * co)

    def shift(x):
        return np.zeros(_pts(x, 1).shape[0])

    def drift(x):
        return np.cos(_pts(x, 1))

    def diffusion(x):
        th = _pts(x, 1)[:, 0]
        return (1.1 + np.cos(th))[:, None, None]

    name = "half_ellipse" if half else "ellipse"
    return AnalyticProblem(name, man, u, f, shift, drift, diffusion)


def _torus(half: bool) -> AnalyticProblem:
    """2-D problem on the (half) torus ((2+cos t)cos p, (2+cos t)sin p, sin t).

    b = (2 + sin t, 0), c = [[3 + cos p, 1/10], [1/10, 2]].  The full torus
    uses u = sin t sin 2p; the half torus (p in [0, pi]) uses
    u = sin t cos 2p, whose normal derivative vanishes at p = 0, pi.
    """
    man = get_manifold("half_torus" if half else "torus")

    def split(x):
        x = _pts(x, 2)
        return x[:, 0], x[:, 1]

    # u = sin t g(2p) with g = cos on the half torus and sin on the torus;
    # dg = g', and g'' = -g for both
    g, dg = (np.cos, lambda x: -np.sin(x)) if half else (np.sin, np.cos)

    def u(x):
        th, ph = split(x)
        return np.sin(th) * g(2.0 * ph)

    def f(x):
        th, ph = split(x)
        r = 2.0 + np.cos(th)
        u_t = np.cos(th) * g(2.0 * ph)
        u_p = 2.0 * np.sin(th) * dg(2.0 * ph)
        u_tt = -np.sin(th) * g(2.0 * ph)
        u_tp = 2.0 * np.cos(th) * dg(2.0 * ph)
        u_pp = -4.0 * np.sin(th) * g(2.0 * ph)
        c11 = 3.0 + np.cos(ph)
        gamma212 = -np.sin(th) / r
        gamma122 = np.sin(th) * r
        # g^11 = 1, b^2 = 0, so the drift term reduces to b^1 u_t
        return (
            (2.0 + np.sin(th)) * u_t
            + 0.5 * c11 * u_tt
            + 0.1 * (u_tp - gamma212 * u_p)
            + 0.5 * 2.0 * (u_pp - gamma122 * u_t)
        )

    def shift(x):
        return np.zeros(_pts(x, 2).shape[0])

    def drift(x):
        th, _ = split(x)
        out = np.zeros((th.shape[0], 2))
        out[:, 0] = 2.0 + np.sin(th)
        return out

    def diffusion(x):
        _, ph = split(x)
        out = np.empty((ph.shape[0], 2, 2))
        out[:, 0, 0] = 3.0 + np.cos(ph)
        out[:, 0, 1] = 0.1
        out[:, 1, 0] = 0.1
        out[:, 1, 1] = 2.0
        return out

    name = "half_torus" if half else "torus"
    return AnalyticProblem(name, man, u, f, shift, drift, diffusion)


def analytic_pair(problem_id: str, b: float | None = None) -> AnalyticProblem:
    """Build a zoo problem by id.

    ``bvp1d`` takes a drift ``b`` (default 2.0; its diffusion is c = 1) for
    advection-dominance experiments; the other ids take no parameters.
    """
    if problem_id == "bvp1d":
        return _bvp1d(2.0 if b is None else b)
    if b is not None:
        raise ValueError(f"{problem_id} takes no parameters, got ['b']")
    if problem_id == "ellipse":
        return _ellipse(half=False)
    if problem_id == "half_ellipse":
        return _ellipse(half=True)
    if problem_id == "torus":
        return _torus(half=False)
    if problem_id == "half_torus":
        return _torus(half=True)
    raise ValueError(f"unknown problem id {problem_id!r}; expected one of {PROBLEM_IDS}")


def problem_coefficients(problem: AnalyticProblem, cloud: PointCloud) -> CoefficientField:
    """Lift a problem's intrinsic (b, c) to ambient (B, C^-1) on a cloud."""
    return lift_field(problem.manifold, cloud, problem.drift, problem.diffusion)

"""Genuinely two-dimensional problem on an embedded torus.

The drift points along the tube angle and the diffusion tensor carries an
off-diagonal coupling, so the operator is non-self-adjoint and anisotropic.
An 80 x 80 parameter grid is uniform in angles but not in surface area
(the area element is proportional to 2 + cos theta), which makes the
debiasing normalization essential here: without it the solution error
grows by more than an order of magnitude.

The half torus (tube angle restricted to [0, pi]) adds a Neumann boundary;
as in the 1-D examples the operator estimate loses accuracy in the
boundary layer while the solution remains much better behaved.
"""

import numpy as np

from lokpde import (
    KernelConfig,
    LinearProblem,
    analytic_pair,
    build_operator,
    problem_coefficients,
    sample_points,
    solve_min_norm,
)


def run(problem_id, n_points, epsilon, debias=True):
    problem = analytic_pair(problem_id)
    cloud = sample_points(problem.manifold, n_points, "uniform_grid")
    coeffs = problem_coefficients(problem, cloud)
    generator = build_operator(
        cloud, coeffs, KernelConfig(epsilon, 0.0179, 128), debias=debias
    )
    x = cloud.intrinsic
    u, f = problem.u(x), problem.f(x)
    op_err = np.abs(generator.apply(u) - f).max()
    report = solve_min_norm(LinearProblem(generator, np.zeros(n_points), f)).with_errors(u)
    label = "debias on " if debias else "debias off"
    print(f"{problem_id:11s} N={n_points} ({label}): operator error {op_err:.4f}, "
          f"solution error {report.error_inf:.4f}")
    return report


def main(n_points=6400):
    run("torus", n_points, 0.0024, debias=True)
    run("torus", n_points, 0.0024, debias=False)
    run("half_torus", n_points // 2, 0.0026, debias=True)


if __name__ == "__main__":
    main()

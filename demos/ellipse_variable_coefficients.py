"""Variable-coefficient operator on the ellipse (cos t, 2 sin t).

The drift b(t) = cos t and diffusion c(t) = 1.1 + cos t vary along the
curve; their ambient lift (B, C^-1) through the embedding Jacobian's
pseudo-inverse is what the kernel consumes.  With a = 0 the generator is
singular (constants are in its nullspace), so the solve is the unique
minimum-norm least-squares solution, by pinning one point and deflating
the left null vector (GMRES with a two-level aggregation preconditioner).

Equal-angle nodes are NOT equidistant on the ellipse, which is exactly the
sampling bias the right normalization (debias) removes: the script runs
the full and the half ellipse (the latter with Neumann boundary) and also
shows how much worse the operator estimate gets without debiasing on
i.i.d. samples.
"""

import numpy as np

from lokpde import (
    KernelConfig,
    LinearProblem,
    analytic_pair,
    build_operator,
    check_minimum_norm_certificate,
    problem_coefficients,
    sample_points,
    solve_min_norm,
)


def solve(problem_id, n_points, mode="uniform_grid", seed=0):
    problem = analytic_pair(problem_id)
    cloud = sample_points(problem.manifold, n_points, mode, seed)
    coeffs = problem_coefficients(problem, cloud)
    generator = build_operator(cloud, coeffs, KernelConfig(1e-4, 1e-4, 200), debias=True)
    x = cloud.intrinsic
    u, f = problem.u(x), problem.f(x)
    op_err = np.abs(generator.apply(u) - f).max()
    report = solve_min_norm(LinearProblem(generator, np.zeros(n_points), f)).with_errors(u)
    print(f"{problem_id}: operator error {op_err:.4f}, solution error {report.error_inf:.4f}, "
          f"GMRES iterations {report.iterations}, "
          f"null-component certificate {check_minimum_norm_certificate(report.u_hat, generator)}")


def debias_comparison(n_points=2000, seed=2):
    problem = analytic_pair("ellipse")
    cloud = sample_points(problem.manifold, n_points, "iid_density", seed=seed)
    coeffs = problem_coefficients(problem, cloud)
    x = cloud.intrinsic
    u, f = problem.u(x), problem.f(x)
    errors = {}
    for debias in (True, False):
        gen = build_operator(cloud, coeffs, KernelConfig(1e-3, 1e-3, 200), debias=debias)
        errors[debias] = np.abs(gen.apply(u) - f).max()
    print(f"i.i.d. samples, operator error with debias {errors[True]:.3f} "
          f"vs without {errors[False]:.3f} (ratio {errors[False] / errors[True]:.2f})")


def main(n_points=1000):
    solve("ellipse", n_points)
    solve("half_ellipse", n_points)
    debias_comparison(2 * n_points)


if __name__ == "__main__":
    main()

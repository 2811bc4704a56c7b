"""Solving on a point cloud with unknown embedding.

Nothing but ambient coordinates is available here: 3000 i.i.d. samples on
the unit sphere, written to a plain text file and read back through the
cloud loader.  With zero drift and c = 2I the generator approximates the
Laplace-Beltrami operator, so the Poisson problem

    Delta u = -6 x1 x2        (on S^2)

has the degree-2 spherical harmonic u = x1 x2 as an exact solution, which
gives an analytic yardstick the paper-style workflow (FEM cross-check)
cannot.  Debiasing is mandatory for i.i.d. clouds.
"""

import os
import tempfile

import numpy as np

from lokpde import (
    CoefficientField,
    KernelConfig,
    LinearProblem,
    build_operator,
    load_cloud,
    sample_sphere,
    solve_min_norm,
)


def main(n_points=3000):
    cloud = sample_sphere(n_points, seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sphere.xyz")
        with open(path, "w") as fh:
            for row in cloud.ambient:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        loaded = load_cloud(path)
    print(f"loaded {loaded.n_points} points in R^{loaded.ambient_dim} (no intrinsic coordinates)")

    coeffs = CoefficientField.laplace_beltrami(loaded.n_points, loaded.ambient_dim)
    generator = build_operator(
        loaded, coeffs, KernelConfig(epsilon=0.015, tilde_epsilon=0.01, k_neighbors=400),
        debias=True,
    )

    xyz = loaded.ambient
    u_true = xyz[:, 0] * xyz[:, 1]
    f = -6.0 * u_true
    report = solve_min_norm(
        LinearProblem(generator, np.zeros(loaded.n_points), f)
    ).with_errors(u_true)
    print(f"minimum-norm solve: uniform error {report.error_inf:.4f} "
          f"(best constant shift {report.error_inf_best_shift:.4f}), "
          f"{report.iterations} GMRES iterations on {report.coarse_size} aggregates")


if __name__ == "__main__":
    main()

"""lokpde: mesh-free solver for elliptic PDEs of Kolmogorov type on point clouds.

The library discretizes the backward Kolmogorov operator
L = b . grad + (1/2) c_ij grad_i grad_j of an Ito diffusion on a compact
embedded manifold (closed, or with Neumann boundary) by evaluating a
drift-shifted exponential kernel on a point cloud, normalizing it to a
row-stochastic matrix S, and forming the generator L = (S - I) / eps.
Boundary value problems (a + L) u = f are then solved directly (strictly
negative a) or in the minimum-norm least-squares sense (a = 0).
"""

from .geometry import (
    CoefficientField,
    Manifold,
    PointCloud,
    ambient_cloud_manifold,
    embed,
    embedding_jacobian,
    get_manifold,
    lift_field,
    load_cloud,
    sample_points,
    sample_sphere,
)
from .kernels import (
    KernelConfig,
    MomentReport,
    SparseKernelMatrix,
    assemble_kernel_matrix,
    build_knn_graph,
    eval_prototypical_kernel,
    moment_check,
)
from .operator import (
    DensityEstimate,
    GeneratorMatrix,
    TuningReport,
    build_operator,
    default_epsilon_grid,
    estimate_density,
    left_normalize,
    right_normalize,
    select_bandwidths,
    tune_bandwidth,
    tune_gaussian_bandwidth,
)
from .problems import AnalyticProblem, analytic_pair, problem_coefficients
from .solver import (
    ConvergenceStudy,
    EpsilonSweep,
    LinearProblem,
    SolveReport,
    best_shift_error,
    check_minimum_norm_certificate,
    convergence_study,
    epsilon_sweep,
    error_report,
    oracle_epsilon,
    solve,
    solve_direct,
    solve_min_norm,
)

__version__ = "0.1.0"

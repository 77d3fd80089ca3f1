"""Nonlinear spectral analysis of p-homogeneous functionals on weighted graphs.

Ground states, nonlinear eigenfunction certificates, proximal operators,
implicit-Euler subgradient flows, and flow-based spectral decompositions,
together with independent oracles and a built-in validation suite.
"""

__version__ = "0.1.0"

from .core import (
    WeightedGraph,
    FunctionalHandle,
    inner,
    norm,
    evaluate,
    nullspace_basis,
    project_nullspace,
    rayleigh,
    euler_residual,
    min_norm_subgradient,
)
from .functionals import GridSpec, build_grid_graph, make_functional, laplacian_matrix
from .prox import (ProxSolution, prox, prox_nonvanishing_bound,
                   dual_ball_membership, EigenCertificate, eigen_certificate)
from .flow import (
    FlowTrace,
    run_flow,
    decompose,
    extinction_report,
    check_decay_envelopes,
    band_eigen_scores,
    profile_convergence,
)
from .power import EigenPair, power_method, ground_state_search
from .oracles import (
    DenseSpectrum,
    brute_force_prox,
    dense_symmetric_eigs,
    linear_heat_solution,
    distance_transform,
    eigen_profile,
)
from . import errors

__all__ = [
    "WeightedGraph", "FunctionalHandle", "EigenCertificate",
    "inner", "norm", "evaluate", "nullspace_basis", "project_nullspace",
    "rayleigh", "euler_residual", "dual_ball_membership",
    "min_norm_subgradient", "eigen_certificate",
    "GridSpec", "build_grid_graph", "make_functional", "laplacian_matrix",
    "ProxSolution", "prox", "brute_force_prox", "prox_nonvanishing_bound",
    "FlowTrace", "run_flow", "decompose", "extinction_report",
    "check_decay_envelopes", "band_eigen_scores", "profile_convergence",
    "EigenPair", "power_method", "ground_state_search",
    "DenseSpectrum", "dense_symmetric_eigs", "linear_heat_solution",
    "distance_transform", "eigen_profile",
    "errors",
]

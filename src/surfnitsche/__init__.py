"""Nitsche finite elements for the Laplace-Beltrami Dirichlet problem on
order-k curved triangulated surfaces, with the torus band model problem
and its manufactured-solution convergence harness."""

from .analysis import (
    ConvergenceRecord,
    ErrorMeasures,
    convergence_study,
    error_measures,
    records_table,
    records_to_csv,
)
from .assembly import SparseSystem, assemble, min_stable_beta_probe
from .errors import (
    DegenerateElementError,
    DegenerateInputError,
    InvalidArgumentError,
    InvalidPenaltyError,
    MaxIterationsExceededError,
    MeshInvalidError,
    NotPositiveDefiniteError,
    ProjectionError,
    SolverError,
    SurfNitscheError,
    UnsupportedDegreeError,
)
from .export import write_matrix_market, write_vector_market, write_vtk
from .geometry import (
    BoundarySpec,
    FlatSquareProblem,
    TorusParams,
    TorusProblem,
    boundary_phi,
    closest_point,
    exact_solution,
    exact_surface_gradient,
    load,
    signed_distance,
    surface_normal,
    torus_embed,
)
from .mesh import (
    GeometricReport,
    ParametricMesh,
    build_mesh,
    geometric_report,
)
from .reference import QuadratureRule, ReferenceElement, edge_rule, triangle_rule
from .solve import SolveReport, solve_linear, solve_spd

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec",
    "ConvergenceRecord",
    "DegenerateElementError",
    "DegenerateInputError",
    "ErrorMeasures",
    "FlatSquareProblem",
    "GeometricReport",
    "InvalidArgumentError",
    "InvalidPenaltyError",
    "MaxIterationsExceededError",
    "MeshInvalidError",
    "NotPositiveDefiniteError",
    "ParametricMesh",
    "ProjectionError",
    "QuadratureRule",
    "ReferenceElement",
    "SolveReport",
    "SolverError",
    "SparseSystem",
    "SurfNitscheError",
    "TorusParams",
    "TorusProblem",
    "UnsupportedDegreeError",
    "assemble",
    "boundary_phi",
    "build_mesh",
    "closest_point",
    "convergence_study",
    "edge_rule",
    "error_measures",
    "exact_solution",
    "exact_surface_gradient",
    "geometric_report",
    "load",
    "min_stable_beta_probe",
    "records_table",
    "records_to_csv",
    "signed_distance",
    "solve_linear",
    "solve_spd",
    "surface_normal",
    "torus_embed",
    "triangle_rule",
    "write_matrix_market",
    "write_vector_market",
    "write_vtk",
]

"""Nitsche finite elements for the Laplace-Beltrami Dirichlet problem on
order-k curved triangulated surfaces, with the torus band model problem
and its manufactured-solution convergence harness."""

import types

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
    exact_solution,
    exact_surface_gradient,
    load,
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

# Every public name imported above; the submodules those imports bind are not exports.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)

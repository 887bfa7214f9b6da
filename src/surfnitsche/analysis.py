"""Error norms against the manufactured solution and refinement studies.

The discrete error e = u(p(x)) - u_h is measured in the L2 norm and in
the mesh-dependent energy norm

    |||e|||^2 = ||grad e||^2  +  h ||nu.grad e||^2_b  +  1/h ||e||^2_b

whose three parts are kept separate.  Error quadrature runs two degrees
above assembly (2k + 4) so measurement error stays below the observed
rates.  Refinement studies double the grid resolution per level and
report estimated orders of convergence as log2 of consecutive error
ratios.  The error integrals run over the batches of the mesh module's
quadrature walker, the same ones assembly integrates over.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .assembly import _boundary_data, _solve_at_penalty, assemble
from .errors import InvalidArgumentError, float_array, integer
from .mesh import ParametricMesh, build_mesh, edge_batches, element_batches
from .reference import edge_rule, triangle_rule


@dataclass(frozen=True)
class ErrorMeasures:
    """L2 and energy error of a coefficient vector, with the energy parts.

    ``boundary_mismatch`` is the weak-boundary diagnostic
    1/h ||u_h - g(q(x))||^2_b (q the closest point on the boundary curve),
    which is not part of the energy norm.
    """

    l2_error: float
    energy_error: float
    grad_part: float
    flux_part: float
    jump_part: float
    boundary_mismatch: float


@dataclass(frozen=True)
class ConvergenceRecord:
    order: int
    level: int
    h: float
    dof: int
    l2_error: float
    energy_error: float
    eoc_l2: float | None
    eoc_energy: float | None


def error_measures(mesh: ParametricMesh, coefficients, problem) -> ErrorMeasures:
    """Measure u(p(x)) - u_h in the L2 and energy norms."""
    coefficients = float_array("coefficient vector", coefficients, (mesh.num_nodes,), finite=True)
    degree = 2 * mesh.order + 4

    l2_sq = grad_sq = 0.0
    rule = triangle_rule(degree)
    for ids, bundle in element_batches(mesh, rule):
        scale = rule.weights[None, :] * bundle.area_factor
        _, diff, grad_diff = _fields(bundle, coefficients[mesh.elements[ids]], problem)
        l2_sq += float(np.sum(scale * diff**2))
        grad_sq += float(np.sum(scale * np.sum(grad_diff**2, axis=-1)))

    flux_sq = jump_sq = mismatch_sq = 0.0
    for side, ids, edge, scale in edge_batches(mesh, edge_rule(degree)):
        u_h, diff, grad_diff = _fields(edge, coefficients[mesh.elements[ids]], problem)
        flux_diff = np.sum(edge.conormal * grad_diff, axis=-1)
        flux_sq += float(np.sum(scale * flux_diff**2))
        jump_sq += float(np.sum(scale * diff**2))
        mismatch_sq += float(np.sum(scale * (u_h - _boundary_data(problem, side, edge)) ** 2))

    h = mesh.h
    flux_part = h * flux_sq
    jump_part = jump_sq / h
    return ErrorMeasures(
        l2_error=float(np.sqrt(l2_sq)),
        energy_error=float(np.sqrt(grad_sq + flux_part + jump_part)),
        grad_part=grad_sq,
        flux_part=flux_part,
        jump_part=jump_part,
        boundary_mismatch=mismatch_sq / h,
    )


def _fields(bundle, coeff, problem):
    """u_h, u(p(x)) - u_h and the tangential grad u(p(x)) - grad u_h on a
    batch of either kind; ``coeff`` (e,n) holds its elements' coefficients."""
    num_points, num_local, _ = bundle.grads.shape
    table = bundle.grads.transpose(1, 0, 2).reshape(num_local, 2 * num_points)
    u_h = coeff @ bundle.values.T
    grad_u_h = bundle.lift((coeff @ table).reshape(len(coeff), num_points, 2))
    diff = problem.solution_at(bundle.position) - u_h
    grad_exact = bundle.project_tangent(problem.solution_gradient_at(bundle.position))
    return u_h, diff, grad_exact - grad_u_h


def convergence_study(
    order: int,
    levels: int,
    beta: float,
    problem,
    base_divisions: int = 8,
    node_placement: str = "chart",
) -> list[ConvergenceRecord]:
    """Solve on a sequence of meshes n_div = base * 2^level and record errors."""
    levels = integer("levels", levels)
    base_divisions = integer("base_divisions", base_divisions)
    if levels < 3:
        raise InvalidArgumentError(f"a study needs at least three levels, got {levels}")
    if base_divisions < 2:
        raise InvalidArgumentError(f"base_divisions must be >= 2, got {base_divisions}")
    records: list[ConvergenceRecord] = []
    previous = None
    for level in range(levels):
        mesh = build_mesh(base_divisions * 2**level, order, problem, node_placement)
        report = _solve_at_penalty(assemble(mesh, beta, problem), beta)
        err = error_measures(mesh, report.solution, problem)
        eoc_l2 = eoc_energy = None
        if previous is not None:
            eoc_l2 = float(np.log2(previous.l2_error / err.l2_error))
            eoc_energy = float(np.log2(previous.energy_error / err.energy_error))
        records.append(
            ConvergenceRecord(
                order=order,
                level=level,
                h=mesh.h,
                dof=mesh.num_nodes,
                l2_error=err.l2_error,
                energy_error=err.energy_error,
                eoc_l2=eoc_l2,
                eoc_energy=eoc_energy,
            )
        )
        previous = err
    return records


CSV_HEADER = "k,level,h,dof,energy_error,l2_error,eoc_energy,eoc_l2"


def records_to_csv(records) -> str:
    """Serialize study records with a fixed schema and float formatting."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for rec in records:
        eoc_e = "" if rec.eoc_energy is None else f"{rec.eoc_energy:.6f}"
        eoc_l = "" if rec.eoc_l2 is None else f"{rec.eoc_l2:.6f}"
        out.write(
            f"{rec.order},{rec.level},{rec.h:.12e},{rec.dof},"
            f"{rec.energy_error:.12e},{rec.l2_error:.12e},{eoc_e},{eoc_l}\n"
        )
    return out.getvalue()


def records_table(records) -> str:
    """Fixed-width text table of a study, mirroring the CSV contents."""
    lines = [
        f"{'k':>2} {'level':>5} {'h':>12} {'dof':>8} "
        f"{'energy_error':>14} {'l2_error':>14} {'eoc_energy':>10} {'eoc_l2':>8}"
    ]
    for rec in records:
        eoc_e = "-" if rec.eoc_energy is None else f"{rec.eoc_energy:.2f}"
        eoc_l = "-" if rec.eoc_l2 is None else f"{rec.eoc_l2:.2f}"
        lines.append(
            f"{rec.order:>2} {rec.level:>5} {rec.h:>12.6f} {rec.dof:>8} "
            f"{rec.energy_error:>14.6e} {rec.l2_error:>14.6e} {eoc_e:>10} {eoc_l:>8}"
        )
    return "\n".join(lines) + "\n"

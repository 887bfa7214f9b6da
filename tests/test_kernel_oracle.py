"""Einsum oracle for the matrix-product quadrature kernels.

The library forms frames, element matrices, load vectors and error
integrands with matrix products.  This module keeps the einsum formulas
they replaced, written out index by index, and checks that both agree to
1e-12 relative for k = 1..3 on the wavy and simplified torus bands and on
the flat square.  Conormals and arc-length factors come from the library's
EdgeBundle; every contraction and every metric quantity is recomputed here.
"""
import numpy as np
import pytest

from surfnitsche import geometry as geo
from surfnitsche.analysis import error_measures
from surfnitsche.assembly import _assemble_parts
from surfnitsche.fem import EdgeBundle, FrameBundle
from surfnitsche.mesh import build_mesh
from surfnitsche.reference import edge_rule, reference_element, triangle_rule

from conftest import solution_at

RTOL = 1e-12

PROBLEMS = {
    "wavy": geo.TorusProblem,
    "simplified": geo.TorusProblem.simplified,
    "flat": lambda: geo.FlatSquareProblem(3),
}
CASES = [(name, order) for name in PROBLEMS for order in (1, 2, 3)]
CASE_IDS = [f"{name}-k{order}" for name, order in CASES]


def einsum_frames(coords, values, grads):
    """(position, jacobian, inverse metric, area factor) by einsum."""
    position = np.einsum("qn,end->eqd", values, coords)
    jacobian = np.einsum("qnr,end->eqdr", grads, coords)
    metric = np.einsum("eqdr,eqds->eqrs", jacobian, jacobian)
    return position, jacobian, np.linalg.inv(metric), np.sqrt(np.linalg.det(metric))


def einsum_tangent_gradients(jacobian, inv_metric, grads):
    return np.einsum("eqdr,eqrs,qns->eqnd", jacobian, inv_metric, grads)


def einsum_components(jacobian, inv_metric, vectors):
    return np.einsum("eqrs,eqds,eqd->eqr", inv_metric, jacobian, vectors)


def einsum_project(jacobian, inv_metric, vectors):
    covariant = np.einsum("eqds,eqd->eqs", jacobian, vectors)
    return np.einsum("eqdr,eqrs,eqs->eqd", jacobian, inv_metric, covariant)


def boundary_data(problem, edge, side):
    """g(q(x)) at the library's edge quadrature points.

    The boundary projection resolves its minimizer only to about the square
    root of the rounding unit, so a last-digit change in x can move g(q(x))
    by 1e-9 relative.  The oracle therefore projects the library's points;
    test_frames_match_einsum checks those points against einsum.
    """
    points = edge.position.reshape(-1, 3)
    return problem.dirichlet_at(problem.project_to_boundary(points, side))


def scatter_matrix(target, conn, local):
    np.add.at(target, (conn[:, :, None], conn[:, None, :]), local)


def einsum_parts(mesh, problem):
    """Dense (core, penalty, rhs_core, rhs_penalty) at the default rules."""
    k = mesh.order
    rule = triangle_rule(2 * k + 2)
    values, grads = reference_element(k).tabulate(rule.points)
    n = mesh.num_nodes
    core, penalty = np.zeros((n, n)), np.zeros((n, n))
    rhs_core, rhs_penalty = np.zeros(n), np.zeros(n)

    conn = mesh.elements
    position, jac, inv_metric, area = einsum_frames(mesh.nodes[conn], values, grads)
    scale = rule.weights[None, :] * area
    tg = einsum_tangent_gradients(jac, inv_metric, grads)
    scatter_matrix(core, conn, np.einsum("eq,eqid,eqjd->eij", scale, tg, tg))
    f_vals = problem.load_at(position)
    np.add.at(rhs_core, conn, np.einsum("eq,eq,qj->ej", scale, f_vals, values))

    erule = edge_rule(2 * k + 2)
    for (local_edge, side), ids in mesh.boundary_edges.items():
        edge = EdgeBundle(mesh, ids, local_edge, erule.points)
        conn = mesh.elements[ids]
        position, jac, inv_metric, _ = einsum_frames(mesh.nodes[conn], edge.values, edge.grads)
        scale = erule.weights[None, :] * edge.line_factor
        tg = einsum_tangent_gradients(jac, inv_metric, edge.grads)
        flux = np.einsum("eqd,eqid->eqi", edge.conormal, tg)
        consistency = np.einsum("eq,eqi,qj->eij", scale, flux, edge.values)
        scatter_matrix(core, conn, -(consistency + consistency.transpose(0, 2, 1)))
        scatter_matrix(
            penalty, conn, np.einsum("eq,qi,qj->eij", scale, edge.values, edge.values)
        )
        g_vals = boundary_data(problem, edge, side).reshape(scale.shape)
        np.add.at(rhs_core, conn, -np.einsum("eq,eq,eqj->ej", scale, g_vals, flux))
        np.add.at(rhs_penalty, conn, np.einsum("eq,eq,qj->ej", scale, g_vals, edge.values))
    return core, penalty, rhs_core, rhs_penalty


def einsum_error_measures(mesh, coefficients, problem):
    """The six ErrorMeasures fields, in field order, at the default rules."""
    k = mesh.order
    rule = triangle_rule(2 * k + 4)
    values, grads = reference_element(k).tabulate(rule.points)
    conn = mesh.elements
    position, jac, inv_metric, area = einsum_frames(mesh.nodes[conn], values, grads)
    scale = rule.weights[None, :] * area
    coeff = coefficients[conn]
    u_h = np.einsum("qn,en->eq", values, coeff)
    grad_u_h = np.einsum("eqnd,en->eqd", einsum_tangent_gradients(jac, inv_metric, grads), coeff)
    grad_exact = einsum_project(jac, inv_metric, problem.solution_and_gradient_at(position)[1])
    l2_sq = np.sum(scale * (solution_at(problem, position) - u_h) ** 2)
    grad_sq = np.sum(scale * np.sum((grad_exact - grad_u_h) ** 2, axis=-1))

    flux_sq = jump_sq = mismatch_sq = 0.0
    erule = edge_rule(2 * k + 4)
    for (local_edge, side), ids in mesh.boundary_edges.items():
        edge = EdgeBundle(mesh, ids, local_edge, erule.points)
        conn = mesh.elements[ids]
        position, jac, inv_metric, _ = einsum_frames(mesh.nodes[conn], edge.values, edge.grads)
        scale = erule.weights[None, :] * edge.line_factor
        coeff = coefficients[conn]
        u_h = np.einsum("qn,en->eq", edge.values, coeff)
        tg = einsum_tangent_gradients(jac, inv_metric, edge.grads)
        grad_u_h = np.einsum("eqnd,en->eqd", tg, coeff)
        grad_exact = einsum_project(jac, inv_metric, problem.solution_and_gradient_at(position)[1])
        flux_diff = np.sum(edge.conormal * (grad_exact - grad_u_h), axis=-1)
        flux_sq += np.sum(scale * flux_diff**2)
        jump_sq += np.sum(scale * (solution_at(problem, position) - u_h) ** 2)
        g_vals = boundary_data(problem, edge, side)
        mismatch_sq += np.sum(scale * (u_h - g_vals.reshape(u_h.shape)) ** 2)

    h = mesh.h
    grad_part, flux_part, jump_part = grad_sq, h * flux_sq, jump_sq / h
    return (
        np.sqrt(l2_sq),
        np.sqrt(grad_part + flux_part + jump_part),
        grad_part,
        flux_part,
        jump_part,
        mismatch_sq / h,
    )


def relative_gap(actual, expected):
    scale = np.abs(expected).max()
    gap = np.abs(np.asarray(actual) - expected).max()
    return gap / scale if scale > 0.0 else gap


@pytest.fixture(scope="module", params=CASES, ids=CASE_IDS)
def case(request):
    # n_div = 8: at n_div = 4 one wavy k = 2 element has cond(G) = 5e4, so
    # last-digit changes in J alone move G^{-1} there by 6e-12 relative.
    name, order = request.param
    problem = PROBLEMS[name]()
    return problem, build_mesh(8, order, problem)


def test_frames_match_einsum(case):
    problem, mesh = case
    rule = triangle_rule(2 * mesh.order + 2)
    values, grads = reference_element(mesh.order).tabulate(rule.points)
    bundle = FrameBundle(mesh, np.arange(mesh.num_elements), rule.points)
    position, jac, inv_metric, area = einsum_frames(mesh.nodes[mesh.elements], values, grads)
    assert relative_gap(bundle.position, position) <= RTOL
    assert relative_gap(bundle.jacobian, jac) <= RTOL
    assert relative_gap(bundle.metric, np.linalg.inv(inv_metric)) <= RTOL
    assert relative_gap(bundle.inv_metric, inv_metric) <= RTOL
    assert relative_gap(bundle.area_factor, area) <= RTOL
    tg = bundle.basis_tangent_gradients(grads)
    assert tg.shape == (mesh.num_elements, len(rule.weights), values.shape[1], 3)
    assert relative_gap(tg, einsum_tangent_gradients(jac, inv_metric, grads)) <= RTOL
    vectors = problem.solution_and_gradient_at(position)[1]
    assert relative_gap(bundle.covectors(vectors), np.einsum("eqdr,eqd->eqr", jac, vectors)) <= RTOL
    assert relative_gap(
        bundle.raise_index(bundle.covectors(vectors)), einsum_components(jac, inv_metric, vectors)
    ) <= RTOL


def test_assembled_parts_match_einsum(case):
    problem, mesh = case
    parts = _assemble_parts(mesh, problem)
    core, penalty, rhs_core, rhs_penalty = einsum_parts(mesh, problem)
    assert relative_gap(parts.core.toarray(), core) <= RTOL
    assert relative_gap(parts.penalty.toarray(), penalty) <= RTOL
    assert relative_gap(parts.rhs_core, rhs_core) <= RTOL
    assert relative_gap(parts.rhs_penalty, rhs_penalty) <= RTOL


def test_error_measures_match_einsum(case):
    # A perturbed interpolant keeps every error part well above rounding,
    # also where the interpolant alone is exact (the flat square at k = 3).
    problem, mesh = case
    rng = np.random.default_rng(mesh.order)
    coefficients = solution_at(problem, mesh.nodes) + 0.01 * rng.normal(size=mesh.num_nodes)
    err = error_measures(mesh, coefficients, problem)
    expected = einsum_error_measures(mesh, coefficients, problem)
    fields = ("l2_error", "energy_error", "grad_part", "flux_part", "jump_part",
              "boundary_mismatch")
    for field, value in zip(fields, expected):
        assert value > 0.0
        assert getattr(err, field) == pytest.approx(value, rel=RTOL, abs=0.0), field

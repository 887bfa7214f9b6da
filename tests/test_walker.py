"""The quadrature walker: batch invariance and the single-pass mesh report.

``mesh.element_batches`` frames the elements in batches of at most
``BATCH_POINTS`` quadrature points, so the number of elements per batch
depends on the rule, and assembly, error measurement, the geometric
report and the build-time fold check all integrate through it.  The
batches must cover every element once, in order, within the budget.
Shrinking the budget must not change what they compute; a walker that
mixed up local and global element ids would.  The mesh report is also
checked against a copy of the formulation that framed all elements at
once, the scaled Jacobians in a second pass and the boundary edges
through full edge frames.  Only that report compares the frames with the
exact surface normal; assembly and error measurement never query it.
Error measurement asks for u and grad u once per batch.
"""
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from surfnitsche import geometry as geo
from surfnitsche import mesh as mesh_module
from surfnitsche.analysis import error_measures
from surfnitsche.assembly import _assemble_parts, assemble
from surfnitsche.errors import MeshInvalidError
from surfnitsche.fem import EdgeBundle, FrameBundle
from surfnitsche.mesh import (
    GeometricReport,
    ParametricMesh,
    build_mesh,
    edge_batches,
    element_batches,
    geometric_report,
)
from surfnitsche.reference import edge_rule, triangle_rule

from conftest import solution_at

# Small and odd (prime), so no batch boundary lines up with a grid row at
# any rule: at most 23, 13 and 8 elements per batch at the k = 1, 2, 3
# assembly rules.  At k = 2 it puts element 32, the first fold of the
# facet-linear band below, in the third batch.
SMALL_BATCH_POINTS = 211

# A smaller batch changes the row count of every element GEMM and the
# grouping of the per-batch error sums, which moves values by a few ulps
# (measured at most 1.3e-14 relative, even at one element per batch).
# Geometric report fields are maxima and minima of pointwise values and
# must not move at all.
RTOL = 1e-13

PROBLEMS = {
    "wavy": geo.TorusProblem,
    "simplified": geo.TorusProblem.simplified,
    "flat": lambda: geo.FlatSquareProblem(3),
}
CASES = [(name, order) for name in PROBLEMS for order in (1, 2, 3)]
CASE_IDS = [f"{name}-k{order}" for name, order in CASES]


def walker_outputs(mesh, problem):
    coefficients = solution_at(problem, mesh.nodes) + 1e-3 * np.sin(np.arange(mesh.num_nodes))
    return (
        _assemble_parts(mesh, problem),
        error_measures(mesh, coefficients, problem),
        geometric_report(mesh, problem),
    )


@pytest.mark.parametrize("name, order", CASES, ids=CASE_IDS)
def test_outputs_do_not_depend_on_chunk_size(name, order, monkeypatch):
    problem = PROBLEMS[name]()
    mesh = build_mesh(8, order, problem)
    points = len(triangle_rule(2 * order + 2).weights)
    assert mesh.num_elements > 4 * (SMALL_BATCH_POINTS // points)
    parts, errors, report = walker_outputs(mesh, problem)
    monkeypatch.setattr(mesh_module, "BATCH_POINTS", SMALL_BATCH_POINTS)
    # rebuilt, so that the report's element side is measured at this budget
    # and not read from the default-budget build
    small_parts, small_errors, small_report = walker_outputs(build_mesh(8, order, problem), problem)

    for field in ("core", "penalty"):
        matrix, small = getattr(parts, field), getattr(small_parts, field)
        np.testing.assert_array_equal(small.indptr, matrix.indptr)
        np.testing.assert_array_equal(small.indices, matrix.indices)
        scale = np.abs(matrix.data).max()
        np.testing.assert_allclose(small.data, matrix.data, rtol=0, atol=RTOL * scale)
    for field in ("rhs_core", "rhs_penalty"):
        vector, small = getattr(parts, field), getattr(small_parts, field)
        scale = np.abs(vector).max()
        np.testing.assert_allclose(small, vector, rtol=0, atol=RTOL * scale)
    for field in errors.__dataclass_fields__:
        assert getattr(small_errors, field) == pytest.approx(getattr(errors, field), rel=RTOL)
    assert small_report == report


def test_fold_message_does_not_depend_on_chunk_size(monkeypatch):
    problem = geo.TorusProblem()
    with pytest.raises(MeshInvalidError) as default:
        build_mesh(8, 2, problem, node_placement="facet-linear")
    monkeypatch.setattr(mesh_module, "BATCH_POINTS", SMALL_BATCH_POINTS)
    with pytest.raises(MeshInvalidError) as small:
        build_mesh(8, 2, problem, node_placement="facet-linear")
    assert "element 32" in str(default.value)
    assert str(small.value) == str(default.value)


def oriented_frame(bundle, problem):
    """(exact normal, normal, signed area density) of a frame bundle, with
    the normal oriented by the exact normal, all formed from ``jacobian``."""
    raw = np.cross(bundle.jacobian[..., 0], bundle.jacobian[..., 1])
    area = np.linalg.norm(raw, axis=-1)
    unit = raw / area[..., None]
    exact_normal = problem.distance_and_normal(bundle.position)[1]
    orient = np.sign(np.sum(unit * exact_normal, axis=-1))
    return exact_normal, unit * orient[..., None], area * orient


def all_at_once_report(mesh, problem):
    """Geometric report with every element framed in one batch.

    The scaled Jacobians come from a second framing of all elements, and
    the exact normals orient both framings separately.
    """
    quad_degree = 2 * mesh.order + 2
    rule = triangle_rule(quad_degree)
    bundle = FrameBundle(mesh, np.arange(mesh.num_elements), rule.points)
    rho = problem.distance_and_normal(bundle.position)[0]
    exact_normal, normal, _ = oriented_frame(bundle, problem)
    normal_dev = np.linalg.norm(exact_normal - normal, axis=-1)

    erule = edge_rule(quad_degree)
    max_edge_dist = 0.0
    for (local_edge, side), element_ids in mesh.boundary_edges.items():
        edge = EdgeBundle(mesh, element_ids, local_edge, erule.points)
        pts = edge.position.reshape(-1, 3)
        proj = problem.project_to_boundary(pts, side)
        max_edge_dist = max(max_edge_dist, float(np.linalg.norm(pts - proj, axis=-1).max()))

    max_node_dist = 0.0
    for side, ids in mesh.boundary_nodes.items():
        proj = problem.project_to_boundary(mesh.nodes[ids], side)
        max_node_dist = max(
            max_node_dist, float(np.linalg.norm(mesh.nodes[ids] - proj, axis=-1).max())
        )

    second = FrameBundle(mesh, np.arange(mesh.num_elements), rule.points)
    _, _, signed = oriented_frame(second, problem)
    signed = signed * np.sign(np.sum(signed, axis=1))[:, None]
    scaled = signed.min(axis=1) / np.abs(signed).max(axis=1)
    return GeometricReport(
        max_rho=float(np.abs(rho).max()),
        max_normal_dev=float(normal_dev.max()),
        max_boundary_dist=max_edge_dist,
        max_boundary_node_dist=max_node_dist,
        min_scaled_jacobian=float(scaled.min()),
    )


@pytest.mark.parametrize("order", [1, 2, 3])
def test_report_matches_all_at_once_oracle(torus_problem, order, monkeypatch):
    batches = []

    def counting(mesh, element_ids, ref_points):
        batches.append(len(element_ids))
        return FrameBundle(mesh, element_ids, ref_points)

    monkeypatch.setattr(mesh_module, "FrameBundle", counting)
    mesh = build_mesh(40, order, torus_problem)
    assert len(batches) > 1
    report = geometric_report(mesh, torus_problem)
    oracle = all_at_once_report(mesh, torus_problem)
    for field in report.__dataclass_fields__:
        assert getattr(report, field) == getattr(oracle, field), field


@pytest.mark.parametrize("budget", ["default", 7])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_batches_cover_elements_within_budget(order, budget, monkeypatch):
    """Every element once, in order; over budget only as a single element;
    no small remainder batch.

    The mesh is a stand-in with 5,003 elements, and ``FrameBundle`` a stub, so
    only the batching runs.  A budget of 7 is below every rule's size.
    """
    if budget != "default":
        monkeypatch.setattr(mesh_module, "BATCH_POINTS", budget)

    def stub_frames(mesh, ids, points):
        return SimpleNamespace()

    monkeypatch.setattr(mesh_module, "FrameBundle", stub_frames)
    num_elements = 5003
    mesh = ParametricMesh(order, np.zeros((1, 3)), np.zeros((num_elements, 1), dtype=int), {}, 1.0)
    for degree in (2 * order + 2, 2 * order + 4):
        rule = triangle_rule(degree)
        batches = [ids for ids, _ in element_batches(mesh, rule)]
        assert len(batches) > 1
        np.testing.assert_array_equal(np.concatenate(batches), np.arange(num_elements))
        for ids in batches:
            assert len(ids) == 1 or len(ids) * len(rule.weights) <= mesh_module.BATCH_POINTS
        sizes = [len(ids) for ids in batches]
        assert max(sizes) - min(sizes) <= 1


class CountingProblem:
    """A problem that counts the calls to each of its methods."""

    def __init__(self, problem):
        self._problem = problem
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self._problem, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


@pytest.mark.parametrize("name, order", CASES, ids=CASE_IDS)
def test_assembly_and_errors_query_no_exact_normal(name, order):
    """Frames carry only the discrete surface: the exact normal is the
    build's and the report's business, never assembly's or measurement's."""
    problem = PROBLEMS[name]()
    mesh = build_mesh(4, order, problem)
    counting = CountingProblem(problem)
    system = assemble(mesh, 1e4, counting)
    error_measures(mesh, np.sin(np.arange(system.dim)), counting)
    assert counting.calls["distance_and_normal"] == 0
    assert counting.calls["load_at"] > 0 and counting.calls["solution_and_gradient_at"] > 0


@pytest.mark.parametrize("name, order", CASES, ids=CASE_IDS)
def test_error_pass_queries_the_solution_once_per_batch(name, order, monkeypatch):
    """u and grad u come from one problem call per element or edge batch."""
    monkeypatch.setattr(mesh_module, "BATCH_POINTS", SMALL_BATCH_POINTS)
    problem = PROBLEMS[name]()
    mesh = build_mesh(8, order, problem)
    degree = 2 * order + 4
    batches = len(list(element_batches(mesh, triangle_rule(degree))))
    batches += len(list(edge_batches(mesh, edge_rule(degree))))
    counting = CountingProblem(problem)
    error_measures(mesh, np.sin(np.arange(mesh.num_nodes)), counting)
    assert batches > len(mesh.boundary_edges) + 1
    assert counting.calls["solution_and_gradient_at"] == batches


@pytest.mark.parametrize("name, order", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("placement", ["chart", "facet-linear"])
def test_build_forms_no_metric_and_queries_once_per_batch(name, order, placement, monkeypatch):
    """The fold check reads positions and unit normals only: no batch of the
    build forms G, sqrt(det G) or G^-1, and each batch asks the problem for
    the signed distance and the exact normal in one call, as the
    center-circle check does once per boundary-edge group and the
    facet-linear snap and re-snap once each."""
    formed, batches = [], []

    class WatchedFrames(FrameBundle):
        def __init__(self, *args):
            batches.append(args[1])
            super().__init__(*args)

    for attribute in ("metric", "area_factor", "inv_metric"):
        watched = property(lambda self, attribute=attribute: formed.append(attribute))
        monkeypatch.setattr(WatchedFrames, attribute, watched, raising=False)
    monkeypatch.setattr(mesh_module, "FrameBundle", WatchedFrames)
    monkeypatch.setattr(mesh_module, "BATCH_POINTS", SMALL_BATCH_POINTS)
    counting = CountingProblem(PROBLEMS[name]())
    try:
        # the center-circle check of the boundary-edge points, one per edge group
        edge_checks = len(build_mesh(8, order, counting, placement).boundary_edges)
    except MeshInvalidError:
        # the facet-linear wavy band folds at k = 2, 3 before that check
        assert (name, placement) == ("wavy", "facet-linear") and order > 1
        edge_checks = 0
    framed = np.concatenate(batches)
    assert len(batches) > 1
    np.testing.assert_array_equal(framed, np.arange(len(framed)))
    assert formed == []
    snaps = 2 if placement == "facet-linear" else 0
    assert counting.calls["distance_and_normal"] == snaps + len(batches) + edge_checks

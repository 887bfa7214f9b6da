from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfnitsche import fem
from surfnitsche import geometry as geo
from surfnitsche import mesh as mesh_module
from surfnitsche.assembly import assemble
from surfnitsche.errors import MeshInvalidError
from surfnitsche.fem import frames
from surfnitsche.mesh import (
    ParametricMesh,
    _blend_boundary_elements,
    _grid_shape,
    build_mesh,
    geometric_report,
)
from surfnitsche.reference import (
    edge_node_ids,
    edge_ref_points,
    lattice_multi_indices,
    reference_element,
)

from conftest import boundary_specs, observed_orders


def vertex_edge_counts(mesh):
    counts = Counter()
    for element in mesh.elements:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            corner = {1: (0, 1, 2), 2: (0, 2, 5), 3: (0, 3, 9)}[mesh.order]
            counts[tuple(sorted((element[corner[a]], element[corner[b]])))] += 1
    return counts


def loop_connectivity(n_t, n_s, k, rows, cols, periodic):
    """Element node ids cell by cell, as mesh._connectivity built them before vectorizing."""
    multi = lattice_multi_indices(k)
    i_ref, j_ref = multi[:, 0], multi[:, 1]
    off_lower = np.stack([i_ref + j_ref, j_ref], axis=1)
    off_upper = np.stack([i_ref, i_ref + j_ref], axis=1)
    elements = np.empty((2 * n_t * n_s, len(multi)), dtype=int)
    for ci in range(n_t):
        for cj in range(n_s):
            cell = ci * n_s + cj
            for half, off in ((0, off_lower), (1, off_upper)):
                t_index = ci * k + off[:, 0]
                if periodic:
                    t_index = np.mod(t_index, cols)
                elements[2 * cell + half] = t_index * rows + (cj * k + off[:, 1])
    return elements


def loop_blend(mesh, displacement, problem):
    """Blended nodes edge by edge and node by node, as
    mesh._blend_boundary_elements computed them before vectorizing.

    Also returns how many claims overwrote an earlier claim on a node.
    """
    k = mesh.order
    multi = lattice_multi_indices(k)
    xi, eta = multi[:, 0] / k, multi[:, 1] / k
    distance = (multi[:, 1], k - multi[:, 0] - multi[:, 1], multi[:, 0])
    projection = (xi, 0.5 * (1.0 - xi + eta), 1.0 - eta)
    nodes = mesh.nodes.copy()
    moved, repeats = {}, 0
    for (local_edge, _), ids in mesh.boundary_edges.items():
        for element in ids:
            d = distance[local_edge] / k
            t = np.clip(projection[local_edge], 0.0, 1.0)
            edge_ids = edge_node_ids(k, local_edge)
            along_edge = reference_element(k).eval(edge_ref_points(local_edge, t))[:, edge_ids]
            edge_disp = displacement[mesh.elements[element][edge_ids]]
            blend = along_edge @ edge_disp * ((1.0 - d) ** 2)[:, None]
            for local, node in enumerate(mesh.elements[element]):
                if 0.0 < d[local] < 1.0:
                    repeats += int(node) in moved
                    moved[int(node)] = nodes[node] + blend[local]
    ids = np.array(sorted(moved), dtype=int)
    nodes[ids] = problem.closest_point(np.array([moved[int(i)] for i in ids]))
    return nodes, repeats


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize(
    "problem", [geo.TorusProblem(), geo.FlatSquareProblem(2)], ids=["wavy", "flat"]
)
def test_blend_matches_node_loop(problem, order):
    mesh = build_mesh(6, order, problem)
    displacement = 0.01 * np.random.default_rng(order).standard_normal(mesh.nodes.shape)
    expected, repeats = loop_blend(mesh, displacement, problem)
    # the flat square's corner cells claim diagonal nodes from two edges
    assert (repeats > 0) == (not problem.periodic)
    _blend_boundary_elements(mesh, displacement, problem)
    assert np.array_equal(mesh.nodes, expected)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize(
    "problem", [geo.TorusProblem(), geo.FlatSquareProblem(1)], ids=["periodic", "flat"]
)
def test_connectivity_matches_cell_loop(problem, order):
    n_div = 5
    mesh = build_mesh(n_div, order, problem)
    n_t, n_s = _grid_shape(n_div, problem)
    rows = order * n_s + 1
    cols = order * n_t if problem.periodic else order * n_t + 1
    expected = loop_connectivity(n_t, n_s, order, rows, cols, problem.periodic)
    assert mesh.elements.dtype == expected.dtype
    assert np.array_equal(mesh.elements, expected)


class TestFlatMesh:
    def test_counts_and_planarity(self):
        problem = geo.FlatSquareProblem(1)
        mesh = build_mesh(2, 1, problem)
        assert mesh.num_elements == 8
        assert mesh.num_nodes == 9
        np.testing.assert_allclose(mesh.nodes[:, 2], 0.0, atol=1e-15)
        report = geometric_report(mesh, problem)
        assert report.max_rho == 0.0
        assert report.max_normal_dev == 0.0
        assert report.min_scaled_jacobian == pytest.approx(1.0, abs=1e-12)

    def test_euler_characteristic_disk(self):
        mesh = build_mesh(4, 1, geo.FlatSquareProblem(1))
        edges = vertex_edge_counts(mesh)
        assert mesh.num_nodes - len(edges) + mesh.num_elements == 1

    def test_h_exact(self):
        mesh = build_mesh(4, 1, geo.FlatSquareProblem(1))
        assert mesh.h == pytest.approx(np.sqrt(2.0) / 4.0, abs=1e-15)


class TestTorusMesh:
    def test_euler_characteristic_band(self, torus_problem):
        mesh = build_mesh(8, 1, torus_problem)
        edges = vertex_edge_counts(mesh)
        assert mesh.num_nodes - len(edges) + mesh.num_elements == 0

    def test_edge_sharing(self, torus_problem):
        mesh = build_mesh(4, 1, torus_problem)
        counts = Counter(vertex_edge_counts(mesh).values())
        assert set(counts) == {1, 2}
        assert counts[1] == sum(len(ids) for ids in mesh.boundary_edges.values())

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_conforming_high_order_edges(self, torus_problem, order):
        mesh = build_mesh(4, order, torus_problem)
        seen = {}
        for element in mesh.elements:
            for local_edge in range(3):
                path = tuple(element[edge_node_ids(order, local_edge)])
                key = tuple(sorted(path))
                seen.setdefault(key, []).append(path)
        for key, paths in seen.items():
            assert len(paths) in (1, 2)
            if len(paths) == 2:
                assert paths[0] == paths[1][::-1] or paths[0] == paths[1]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_boundary_nodes_on_curves(self, torus_problem, order):
        mesh = build_mesh(8, order, torus_problem)
        for side, ids in mesh.boundary_nodes.items():
            projected = torus_problem.project_to_boundary(mesh.nodes[ids], side)
            gap = np.linalg.norm(mesh.nodes[ids] - projected, axis=-1)
            assert gap.max() < 1e-10

    def test_boundary_edges_cover_chains(self, torus_problem):
        mesh = build_mesh(4, 2, torus_problem)
        sides = {side: len(ids) for (_, side), ids in mesh.boundary_edges.items()}
        assert sides == {"lower": 4, "upper": 4}

    def test_boundary_edges_through_center_circle_rejected(self):
        # cells spanning half the tube: every element quadrature point is
        # clear of the center circle, but boundary-edge points are not
        flat_band = geo.BoundarySpec(amplitude=0.0, waves_lower=0, waves_upper=0)
        with pytest.raises(MeshInvalidError, match="center circle"):
            build_mesh(2, 1, geo.TorusProblem(boundary=flat_band))

    def test_coarse_wavy_mesh_matches_figure_regime(self, torus_problem):
        # order-3 coarse mesh of the wavy band: boundary nodes on the exact
        # curves, healthy Jacobians
        mesh = build_mesh(4, 3, torus_problem)
        report = geometric_report(mesh, torus_problem)
        assert report.max_boundary_node_dist < 1e-10
        assert report.min_scaled_jacobian > 0.05

    def test_invalid_inputs(self, torus_problem):
        with pytest.raises(ValueError):
            build_mesh(1, 1, torus_problem)
        with pytest.raises(ValueError):
            build_mesh(4, 4, torus_problem)
        with pytest.raises(ValueError):
            build_mesh(4, 2, torus_problem, node_placement="spline")


class TestNodePlacementModes:
    def test_facet_linear_folds_on_coarse_wavy_band(self, torus_problem):
        # under-resolved boundary waves fold corrected high-order elements;
        # the builder must refuse the mesh rather than hand it on
        with pytest.raises(MeshInvalidError):
            build_mesh(8, 2, torus_problem, node_placement="facet-linear")

    @pytest.mark.parametrize("order", [2, 3])
    def test_facet_linear_valid_without_waves(self, simple_problem, order):
        mesh = build_mesh(8, order, simple_problem, node_placement="facet-linear")
        report = geometric_report(mesh, simple_problem)
        assert report.min_scaled_jacobian > 0.05
        assert report.max_boundary_node_dist < 1e-10

    @pytest.mark.parametrize("order", [2, 3])
    def test_facet_linear_boundary_nodes_on_wavy_curves(self, torus_problem, order):
        # the interior blend must leave the corrected chain nodes in place
        mesh = build_mesh(64, order, torus_problem, node_placement="facet-linear")
        for side, ids in mesh.boundary_nodes.items():
            projected = torus_problem.project_to_boundary(mesh.nodes[ids], side)
            assert np.abs(mesh.nodes[ids] - projected).max() < 1e-10

    def test_modes_agree_for_flat_geometry(self):
        problem = geo.FlatSquareProblem(2)
        chart = build_mesh(4, 2, problem)
        linear = build_mesh(4, 2, problem, node_placement="facet-linear")
        np.testing.assert_allclose(chart.nodes, linear.nodes, atol=1e-14)

    def test_modes_converge_alike_without_waves(self, simple_problem):
        # dual route on the mesh construction itself: where the classical
        # facet pipeline is valid, both placements must deliver the same
        # errors and rates
        from surfnitsche.analysis import convergence_study

        chart = convergence_study(2, 3, 1e4, simple_problem)
        facet = convergence_study(2, 3, 1e4, simple_problem, node_placement="facet-linear")
        for a, b in zip(chart, facet):
            assert b.energy_error == pytest.approx(a.energy_error, rel=0.02)
            assert b.l2_error == pytest.approx(a.l2_error, rel=0.02)
        assert facet[-1].eoc_energy == pytest.approx(chart[-1].eoc_energy, abs=0.05)


@settings(max_examples=20, deadline=None)
@given(
    boundary=boundary_specs(),
    n_div=st.integers(2, 4),
    order=st.integers(1, 3),
    placement=st.sampled_from(["chart", "facet-linear"]),
)
def test_random_band_mesh_valid_or_rejected(boundary, n_div, order, placement):
    problem = geo.TorusProblem(boundary=boundary)
    try:
        mesh = build_mesh(n_div, order, problem, placement)
    except MeshInvalidError:
        return
    np.testing.assert_allclose(problem.signed_distance(mesh.nodes), 0.0, atol=1e-12)
    for side, ids in mesh.boundary_nodes.items():
        on_curve = mesh.nodes[ids]
        np.testing.assert_allclose(
            problem.project_to_boundary(on_curve, side), on_curve, rtol=0.0, atol=1e-10
        )
    # an accepted mesh must carry the rest of the pipeline
    assemble(mesh, 1e4, problem)
    geometric_report(mesh, problem)


class TestGeometricConvergence:
    def test_orders_linear_elements(self, torus_problem):
        # short sweep; the full four-level sweep for k = 1..3 runs in the
        # acceptance suite, where the wave-phase noise of the middle pairs
        # has decayed
        rho, ndev, sizes = [], [], []
        for n_div in (8, 16, 32):
            mesh = build_mesh(n_div, 1, torus_problem)
            report = geometric_report(mesh, torus_problem)
            rho.append(report.max_rho)
            ndev.append(report.max_normal_dev)
            sizes.append(mesh.h)
        assert 1.6 <= observed_orders(rho, sizes)[-1] <= 2.4
        assert 0.6 <= observed_orders(ndev, sizes)[-1] <= 1.4

    def test_mesh_size_halves_flat(self):
        problem = geo.FlatSquareProblem(1)
        sizes = [build_mesh(n, 1, problem).h for n in (4, 8, 16)]
        for coarse, fine in zip(sizes, sizes[1:]):
            assert coarse / fine == pytest.approx(2.0, rel=1e-12)


MEMO_PROBLEMS = {
    "wavy": geo.TorusProblem,
    "simplified": geo.TorusProblem.simplified,
    "flat": lambda: geo.FlatSquareProblem(3),
}
# Every chart build, and the facet-linear builds that do not fold at n_div 8.
MEMO_CASES = [(name, order, "chart") for name in MEMO_PROBLEMS for order in (1, 2, 3)] + [
    ("wavy", 1, "facet-linear"),
    *[(name, order, "facet-linear") for name in ("simplified", "flat") for order in (1, 2, 3)],
]


def memo_free_copy(mesh):
    """The same mesh, built by the constructor: its report measures every element."""
    return ParametricMesh(
        mesh.order, mesh.nodes.copy(), mesh.elements.copy(), mesh.boundary_edges, mesh.h
    )


class TestBuildReportMemo:
    """build_mesh keeps the element side of the report; geometric_report reuses it."""

    @pytest.mark.parametrize(
        "name, order, placement", MEMO_CASES, ids=[f"{n}-k{k}-{p}" for n, k, p in MEMO_CASES]
    )
    def test_report_equals_memo_free_report(self, name, order, placement):
        problem = MEMO_PROBLEMS[name]()
        mesh = build_mesh(8, order, problem, placement)
        expected = geometric_report(memo_free_copy(mesh), problem)
        assert geometric_report(mesh, problem) == expected

    def test_build_and_report_frame_each_element_once(self, torus_problem, monkeypatch):
        framed = []

        def counting(mesh, problem, element_ids, ref_points):
            framed.append(len(element_ids))
            return frames(mesh, problem, element_ids, ref_points)

        monkeypatch.setattr(mesh_module, "frames", counting)
        mesh = build_mesh(8, 2, torus_problem)
        geometric_report(mesh, torus_problem)
        assert sum(framed) == mesh.num_elements

    def test_report_builds_no_edge_frames(self, torus_problem, monkeypatch):
        built = []

        class CountingEdgeBundle(fem.EdgeBundle):
            def __init__(self, *args):
                built.append(args[2])
                super().__init__(*args)

        monkeypatch.setattr(fem, "EdgeBundle", CountingEdgeBundle)
        monkeypatch.setattr(mesh_module, "EdgeBundle", CountingEdgeBundle)
        mesh = build_mesh(8, 2, torus_problem)
        assert built  # the build's center-circle check frames the edges
        built.clear()
        geometric_report(mesh, torus_problem)
        geometric_report(memo_free_copy(mesh), torus_problem)
        assert built == []

    # The simplified band shares the wavy band's torus, so only its
    # boundary parts differ; the thicker tube also moves max_rho.
    @pytest.mark.parametrize(
        "other",
        [geo.TorusProblem.simplified(), geo.TorusProblem(geo.TorusParams(minor_radius=0.42))],
        ids=["simplified", "thicker-tube"],
    )
    def test_report_against_another_problem(self, torus_problem, other):
        mesh = build_mesh(8, 2, torus_problem)
        expected = geometric_report(memo_free_copy(mesh), other)
        assert expected != geometric_report(mesh, torus_problem)
        assert geometric_report(mesh, other) == expected

    def test_built_arrays_are_read_only(self, torus_problem):
        mesh = build_mesh(4, 2, torus_problem)
        with pytest.raises(ValueError):
            mesh.nodes[0, 0] = 0.0
        with pytest.raises(ValueError):
            mesh.elements[0, 0] = 1
        for ids in mesh.boundary_edges.values():
            with pytest.raises(ValueError):
                ids[0] = 0

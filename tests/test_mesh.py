import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfnitsche import fem
from surfnitsche import geometry as geo
from surfnitsche import mesh as mesh_module
from surfnitsche.assembly import assemble
from surfnitsche.errors import (
    DegenerateElementError,
    InvalidArgumentError,
    MeshInvalidError,
    UnsupportedDegreeError,
)
from surfnitsche.fem import FrameBundle
from surfnitsche.mesh import (
    NODE_PLACEMENTS,
    ParametricMesh,
    _blend_boundary_elements,
    _facet_linear_nodes,
    _grid_shape,
    assembly_degree,
    build_mesh,
    geometric_report,
)
from surfnitsche.reference import (
    edge_node_ids,
    edge_ref_points,
    lattice_multi_indices,
    reference_element,
    triangle_rule,
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
    mesh.nodes = _blend_boundary_elements(
        mesh.nodes.copy(), displacement, order, mesh.elements, mesh.boundary_edges, problem
    )
    assert np.array_equal(mesh.nodes, expected)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize(
    "problem", [geo.TorusProblem(), geo.FlatSquareProblem(1)], ids=["periodic", "flat"]
)
def test_connectivity_matches_cell_loop(problem, order):
    n_div = 5
    mesh = build_mesh(n_div, order, problem)
    n_t, n_s = _grid_shape(n_div, order, problem)
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

        def counting(mesh, element_ids, ref_points):
            framed.append(len(element_ids))
            return FrameBundle(mesh, element_ids, ref_points)

        monkeypatch.setattr(mesh_module, "FrameBundle", counting)
        mesh = build_mesh(8, 2, torus_problem)
        geometric_report(mesh, torus_problem)
        assert sum(framed) == mesh.num_elements

    def test_report_builds_no_edge_frames(self, torus_problem, monkeypatch):
        built = []

        class CountingEdgeBundle(fem.EdgeBundle):
            def __init__(self, *args):
                built.append(args[1])
                super().__init__(*args)

        monkeypatch.setattr(fem, "EdgeBundle", CountingEdgeBundle)
        monkeypatch.setattr(mesh_module, "EdgeBundle", CountingEdgeBundle)
        # the build's center-circle check and the report both interpolate
        # the edge points from the element nodes
        mesh = build_mesh(8, 2, torus_problem)
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


def reference_element_pass(mesh, problem):
    """The fold pass as it stood before the metric was formed on first use.

    Each batch forms G, checks det G and its area factor, then queries the
    exact normal and the signed distance in two calls.  Returns the fold
    ids and the element-side report fields.
    """
    rule = triangle_rule(assembly_degree(mesh.order))
    max_rho = max_normal_dev = 0.0
    min_scaled_jacobian = np.inf
    folds = []
    for ids, bundle in mesh_module.element_batches(mesh, rule):
        assert np.all(bundle.area_factor > 0.0)
        area, unit = bundle.area_normal()
        exact_normal = problem.normal_at_closest(bundle.position)
        orient = np.sign(np.sum(unit * exact_normal, axis=-1))
        assert np.all(orient != 0.0)
        rho = problem.signed_distance(bundle.position)
        normal_dev = np.linalg.norm(exact_normal - unit * orient[..., None], axis=-1)
        signed = area * orient
        signed *= np.sign(np.sum(signed, axis=1))[:, None]
        scaled = signed.min(axis=1) / np.abs(signed).max(axis=1)
        folds.append(ids[scaled <= 0.0])
        max_rho = max(max_rho, float(np.abs(rho).max()))
        max_normal_dev = max(max_normal_dev, float(normal_dev.max()))
        min_scaled_jacobian = min(min_scaled_jacobian, float(scaled.min()))
    side = dict(
        max_rho=max_rho, max_normal_dev=max_normal_dev, min_scaled_jacobian=min_scaled_jacobian
    )
    return np.concatenate(folds), side


FOLD_PROBLEMS = {
    "wavy": geo.TorusProblem,
    "simplified": geo.TorusProblem.simplified,
    "flat": lambda: geo.FlatSquareProblem(3),
}
FOLD_CASES = [
    (name, order, n_div, placement)
    for name in FOLD_PROBLEMS
    for order in (1, 2, 3)
    for n_div in (4, 8, 16, 32)
    for placement in NODE_PLACEMENTS
]


class TestFoldPass:
    """The build's fold pass reads only positions and unit normals, with one
    exact-geometry query per batch, and computes what the full frames did."""

    @pytest.mark.parametrize(
        "name, order, n_div, placement",
        FOLD_CASES,
        ids=[f"{name}-k{k}-n{n}-{p}" for name, k, n, p in FOLD_CASES],
    )
    def test_equals_reference_pass(self, name, order, n_div, placement, monkeypatch):
        problem = FOLD_PROBLEMS[name]()
        element_pass, passes = mesh_module._element_pass, []

        def recording(mesh, problem):
            passes.append((mesh, element_pass(mesh, problem)))
            return passes[-1][1]

        monkeypatch.setattr(mesh_module, "_element_pass", recording)
        try:
            build_mesh(n_div, order, problem, placement)
        except MeshInvalidError:
            # the facet-linear wavy band at k = 2, 3 folds at every size here
            assert (name, placement) == ("wavy", "facet-linear") and order > 1
        [(mesh, (bad, side))] = passes
        expected_bad, expected_side = reference_element_pass(mesh, problem)
        assert bad.dtype == expected_bad.dtype
        assert bad.tolist() == expected_bad.tolist()
        assert side == expected_side

    def test_collinear_element_rejected_without_warning(self):
        # collinear corners: J_0 x J_1 = 0 at every point, det G = 0
        nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        mesh = ParametricMesh(1, nodes, np.array([[0, 1, 2]]), {}, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateElementError, match="singular first fundamental form"):
                mesh_module._element_pass(mesh, geo.FlatSquareProblem(1))


def vertex_grid(n_div, problem):
    """Chart values on the (n_t + 1) x (n_s + 1) vertex grid; on periodic
    bands column n_t repeats column 0 at t = 1."""
    n_t, n_s = _grid_shape(n_div, 1, problem)
    return problem.chart((np.arange(n_t + 1) / n_t)[:, None], (np.arange(n_s + 1) / n_s)[None, :])


def vertex_grid_h(n_div, problem):
    """Longest horizontal, vertical or diagonal edge of the vertex grid."""
    vertex = vertex_grid(n_div, problem)
    horiz = np.linalg.norm(vertex[1:] - vertex[:-1], axis=-1)
    vert = np.linalg.norm(vertex[:, 1:] - vertex[:, :-1], axis=-1)
    diag = np.linalg.norm(vertex[1:, 1:] - vertex[:-1, :-1], axis=-1)
    return float(max(horiz.max(), vert.max(), diag.max()))


def vertex_grid_placement(n_div, k, problem):
    """Snapped facet-linear nodes from each node's lattice fractions (a, b)
    in its cell, weighted over the cell triangle's vertex-grid corners."""
    vertex = vertex_grid(n_div, problem)
    n_t, n_s = vertex.shape[0] - 1, vertex.shape[1] - 1
    cols = k * n_t if problem.periodic else k * n_t + 1
    rows = k * n_s + 1
    ti, si = np.divmod(np.arange(cols * rows), rows)
    ci, cj = np.minimum(ti // k, n_t - 1), np.minimum(si // k, n_s - 1)
    li, lj = ti - k * ci, si - k * cj
    a, b, lower = li / k, lj / k, lj <= li
    weights = np.where(
        lower[:, None],
        np.stack([1.0 - a, a - b, b], axis=-1),
        np.stack([1.0 - b, a, b - a], axis=-1),
    )
    corners = np.where(
        lower[:, None, None],
        np.stack([vertex[ci, cj], vertex[ci + 1, cj], vertex[ci + 1, cj + 1]], axis=1),
        np.stack([vertex[ci, cj], vertex[ci + 1, cj + 1], vertex[ci, cj + 1]], axis=1),
    )
    return problem.closest_point(np.einsum("nv,nvd->nd", weights, corners))


LAYOUT_PROBLEMS = {
    "wavy": geo.TorusProblem(),
    "simplified": geo.TorusProblem.simplified(),
    "flat": geo.FlatSquareProblem(2),
}


class TestLayout:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("name", list(LAYOUT_PROBLEMS))
    def test_facet_linear_nodes_independent_of_element_order(self, name, order):
        # every element holding a node places it bitwise alike, so the
        # scatter's last write may come from any of them
        chart = build_mesh(8, order, LAYOUT_PROBLEMS[name])
        expected = _facet_linear_nodes(chart.nodes, chart.elements, order).tobytes()
        rng = np.random.default_rng(order)
        orders = [chart.elements[::-1]]
        orders += [chart.elements[rng.permutation(chart.num_elements)] for _ in range(3)]
        for elements in orders:
            assert _facet_linear_nodes(chart.nodes, elements, order).tobytes() == expected

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("name", list(LAYOUT_PROBLEMS))
    def test_facet_linear_corners_keep_chart_values(self, name, order):
        chart = build_mesh(8, order, LAYOUT_PROBLEMS[name])
        placed = _facet_linear_nodes(chart.nodes, chart.elements, order)
        corners = np.unique(chart.elements[:, list(reference_element(order).corner_ids)])
        assert placed[corners].tobytes() == chart.nodes[corners].tobytes()

    @pytest.mark.parametrize("n_div", [4, 16, 64])
    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("name", list(LAYOUT_PROBLEMS))
    def test_facet_linear_placement_matches_vertex_grid(self, name, order, n_div):
        # 6.7e-16 at most measured; the nodes of the seam column read chart
        # values at t = 0 where the vertex grid reads them at t = 1
        problem = LAYOUT_PROBLEMS[name]
        chart = build_mesh(n_div, order, problem)
        placed = problem.closest_point(_facet_linear_nodes(chart.nodes, chart.elements, order))
        expected = vertex_grid_placement(n_div, order, problem)
        np.testing.assert_allclose(placed, expected, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("placement", ["chart", "facet-linear"])
    @pytest.mark.parametrize("n_div", [8, 16, 32, 64])
    def test_h_is_vertex_grid_h_on_wavy_band(self, torus_problem, n_div, placement):
        mesh = build_mesh(n_div, 1, torus_problem, placement)
        assert mesh.h == vertex_grid_h(n_div, torus_problem)

    # The seam edges differ in the last bits: mesh corners on the seam are
    # chart values at t = 0, the vertex grid's column n_t reads t = 1.
    @pytest.mark.parametrize(
        "name, n_div",
        [("wavy", 4), ("simplified", 4), ("simplified", 8), ("simplified", 16),
         ("simplified", 32), ("flat", 8)],
    )
    def test_h_near_vertex_grid_h(self, name, n_div):
        problem = LAYOUT_PROBLEMS[name]
        for order in (1, 3):
            h = build_mesh(n_div, order, problem).h
            assert h == pytest.approx(vertex_grid_h(n_div, problem), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "n_div, order, error, message",
        [
            (8.5, 1, InvalidArgumentError, "n_div must be an integer, got 8.5"),
            (8.0, 1, InvalidArgumentError, "n_div must be an integer, got 8.0"),
            (float("nan"), 1, InvalidArgumentError, "n_div must be an integer, got nan"),
            ("8", 1, InvalidArgumentError, "n_div must be an integer, got '8'"),
            (4, 2.5, UnsupportedDegreeError, "order must be an integer, got 2.5"),
        ],
    )
    def test_non_integer_sizes_named(self, torus_problem, n_div, order, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build_mesh(n_div, order, torus_problem)

    def test_numpy_integer_sizes_accepted(self, torus_problem):
        mesh = build_mesh(np.int64(4), np.int32(2), torus_problem)
        expected = build_mesh(4, 2, torus_problem)
        assert type(mesh.order) is int and mesh.order == 2
        assert np.array_equal(mesh.nodes, expected.nodes) and mesh.h == expected.h

    def test_infinite_chart_aspect_rejected(self):
        problem = geo.TorusProblem(geo.TorusParams(1e200, 1e-200))
        with pytest.raises(InvalidArgumentError, match="chart aspect must be finite, got inf"):
            build_mesh(4, 1, problem)

    @pytest.mark.parametrize("major_radius", [1e18, 1e100])
    def test_unindexable_chart_aspect_rejected(self, major_radius):
        problem = geo.TorusProblem(geo.TorusParams(major_radius, 0.4))
        message = "chart aspect .* gives more nodes than ids can index"
        with pytest.raises(InvalidArgumentError, match=message):
            build_mesh(4, 1, problem)

    def test_large_finite_chart_aspect_allowed(self):
        # no size cap: a long, thin band gets a long grid
        n_t, n_s = _grid_shape(4, 3, geo.TorusProblem(geo.TorusParams(1e4, 0.4)))
        assert n_t == 4 and n_s == 60_000

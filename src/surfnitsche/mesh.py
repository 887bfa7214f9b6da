"""Construction of order-k parametric triangle meshes on the model surfaces.

The parameter square (t, s) in [0,1]^2 is covered by a structured grid of
n_t x n_s cells, each split into two triangles along the (t, s)-diagonal;
n_s is scaled by the physical aspect of the chart so cells stay roughly
isotropic.  Vertices always come from the chart, so they sit on the exact
surface, and the s = 0 / s = 1 rows sit on the exact boundary curves.

Curved-element Lagrange nodes are seeded either on the chart lattice
(default; every node row follows the boundary waves) or by linear
interpolation over the flat facets.  Chart nodes already sit on the
surface and the boundary curves, so they are used as they are.  Facet
nodes go through the classical curved-mesh correction passes: snap all
nodes to the surface with the closest-point map, move boundary-chain
nodes onto the boundary curves, blend the boundary correction into the
interiors of boundary-adjacent elements with a quadratic falloff, and
re-snap the blended nodes.  That pipeline remains valid only while the
cells resolve the boundary waves (the blend softens but cannot remove
the shear of an under-resolved corrected edge).

Every quadrature over the mesh goes through one walker, used by assembly,
error measurement, the geometric report and the fold check:
``element_batches`` yields frames ``ELEMENT_CHUNK`` elements at a time with
the weights w_q sqrt(det G), ``edge_batches`` one EdgeBundle per (local
edge, side) group of boundary edges with the weights w_q |x'(t)|.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateInputError,
    InvalidArgumentError,
    MeshInvalidError,
    UnsupportedDegreeError,
)
from .fem import EdgeBundle, _norm3, frames
from .reference import (
    edge_node_ids,
    edge_rule,
    lattice_multi_indices,
    triangle_rule,
)

# Elements per frame batch of the quadrature walker; bounds the size of
# the (e, q, ...) work arrays.
ELEMENT_CHUNK = 4096


class BoundaryEdge(NamedTuple):
    element: int
    local_edge: int
    side: str


@dataclass
class ParametricMesh:
    """Order-k triangulated surface with isoparametric geometry nodes.

    ``elements`` lists, per triangle, the node ids of the reference
    lattice of :func:`surfnitsche.reference.lattice_points` in that order.
    ``h`` is the longest straight edge of the vertex triangulation.
    """

    order: int
    nodes: np.ndarray
    elements: np.ndarray
    boundary_edges: list[BoundaryEdge]
    boundary_nodes: dict[str, np.ndarray]
    h: float

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_elements(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class GeometricReport:
    """Surface-approximation quality measured at quadrature points.

    ``max_boundary_dist`` samples edge quadrature points (it decays with
    the geometric order), while ``max_boundary_node_dist`` checks that the
    boundary lattice nodes themselves sit on the boundary curves.
    """

    max_rho: float
    max_normal_dev: float
    max_boundary_dist: float
    max_boundary_node_dist: float
    min_scaled_jacobian: float


def _grid_shape(n_div: int, problem) -> tuple[int, int]:
    n_t = n_div
    n_s = n_div * int(np.ceil(problem.chart_aspect - 1e-9))
    return n_t, n_s


def _triangle_weights(a, b, lower):
    """Barycentric weights of lattice fractions (a, b) in the cell triangles.

    The lower triangle has corners (0,0), (1,0), (1,1) of the cell, the
    upper one (0,0), (1,1), (0,1); on the shared diagonal both agree.
    """
    w_lower = np.stack([1.0 - a, a - b, b], axis=-1)
    w_upper = np.stack([1.0 - b, a, b - a], axis=-1)
    return np.where(lower[..., None], w_lower, w_upper)


def build_mesh(n_div: int, order: int, problem, node_placement: str = "chart") -> ParametricMesh:
    """Build the order-k mesh of the problem's parameter band.

    ``node_placement`` selects how the Lagrange nodes of curved elements
    are placed:

    - ``"chart"`` (default): nodes sit on the chart lattice, so every row
      of nodes follows the boundary waves and lies on the surface, with
      the boundary rows on the boundary curves; no correction pass runs.
      Valid at every resolution.
    - ``"facet-linear"``: nodes are interpolated linearly over each facet
      of the vertex triangulation, snapped to the surface, and corrected
      at the boundary with the quadratic interior blend.  On coarse meshes
      whose cells under-resolve the boundary waves the corrected elements
      can fold, which build_mesh reports as :class:`MeshInvalidError`.

    Raises :class:`MeshInvalidError` if any element ends up with a
    nonpositive area Jacobian at a quadrature point, or if the cells are
    so coarse that a node or quadrature point lands where the surface has
    no unique nearest point.
    """
    if n_div < 2:
        raise InvalidArgumentError(f"n_div must be >= 2, got {n_div}")
    if not 1 <= order <= 3:
        raise UnsupportedDegreeError(f"order must be 1..3, got {order}")
    if node_placement not in ("chart", "facet-linear"):
        raise InvalidArgumentError(f"unknown node placement {node_placement!r}")
    k = order
    n_t, n_s = _grid_shape(n_div, problem)
    periodic = problem.periodic
    cols = k * n_t if periodic else k * n_t + 1
    rows = k * n_s + 1

    # Vertex grid through the chart; column n_t duplicates column 0 values
    # for interpolation only (periodic meshes never index it as a node).
    tv = np.arange(n_t + 1) / n_t
    sv = np.arange(n_s + 1) / n_s
    vertex = problem.chart(tv[:, None], sv[None, :])

    def node_id(t_index, s_index):
        t_index = np.mod(t_index, cols) if periodic else t_index
        return t_index * rows + s_index

    ti_grid = np.arange(cols)
    chains = {
        "lower": node_id(ti_grid, 0),
        "upper": node_id(ti_grid, rows - 1),
    }
    if not periodic:
        si_grid = np.arange(rows)
        chains["left"] = node_id(0, si_grid)
        chains["right"] = node_id(cols - 1, si_grid)
    boundary_nodes = {side: ids for side, ids in chains.items() if side in problem.boundary_sides}
    elements, boundary_edges = _connectivity(n_t, n_s, k, rows, cols, periodic, problem)

    ti, si = np.meshgrid(np.arange(cols), np.arange(rows), indexing="ij")
    ti, si = ti.ravel(), si.ravel()
    try:
        if node_placement == "chart":
            nodes = problem.chart(ti / (k * n_t), si / (k * n_s))
        else:
            nodes = _facet_linear_nodes(
                vertex, ti, si, k, boundary_nodes, elements, boundary_edges, problem
            )
        mesh = ParametricMesh(
            order=k,
            nodes=nodes,
            elements=elements,
            boundary_edges=boundary_edges,
            boundary_nodes=boundary_nodes,
            h=_vertex_mesh_size(vertex),
        )
        bad = _invalid_elements(mesh, problem)
    except DegenerateInputError as err:
        # Cells spanning half the tube put facet nodes or quadrature points
        # on the center circle, where the surface has no nearest point.
        raise MeshInvalidError(f"mesh too coarse for the surface: {err}") from err
    if len(bad):
        raise MeshInvalidError(
            f"{len(bad)} element(s) with nonpositive area Jacobian, e.g. element {bad[0]}"
        )
    return mesh


def _facet_linear_nodes(vertex, ti, si, k, boundary_nodes, elements, boundary_edges, problem):
    """Lattice nodes (ti, si) interpolated over the vertex facets, then corrected.

    The interpolated nodes are snapped to the surface, boundary-chain nodes
    move onto the boundary curves, and for k > 1 the displacement each
    chain node received is blended into the boundary elements.
    """
    n_t, n_s = vertex.shape[0] - 1, vertex.shape[1] - 1
    ci = np.minimum(ti // k, n_t - 1)
    cj = np.minimum(si // k, n_s - 1)
    li, lj = ti - k * ci, si - k * cj
    weights = _triangle_weights(li / k, lj / k, lj <= li)
    corners_lower = np.stack([vertex[ci, cj], vertex[ci + 1, cj], vertex[ci + 1, cj + 1]], axis=1)
    corners_upper = np.stack([vertex[ci, cj], vertex[ci + 1, cj + 1], vertex[ci, cj + 1]], axis=1)
    corners = np.where((lj <= li)[:, None, None], corners_lower, corners_upper)
    nodes = problem.closest_point(np.einsum("nv,nvd->nd", weights, corners))

    displacement = np.zeros_like(nodes)
    for side, ids in boundary_nodes.items():
        corrected = problem.correct_to_boundary(nodes[ids], side)
        displacement[ids] = corrected - nodes[ids]
        nodes[ids] = corrected
    if k > 1:
        _blend_boundary_elements(nodes, displacement, elements, boundary_edges, k, problem)
    return nodes


def _connectivity(n_t, n_s, k, rows, cols, periodic, problem):
    multi = lattice_multi_indices(k)
    i_ref, j_ref = multi[:, 0], multi[:, 1]
    # lattice offsets of the reference nodes inside the parent cell
    off_lower = np.stack([i_ref + j_ref, j_ref], axis=1)
    off_upper = np.stack([i_ref, i_ref + j_ref], axis=1)

    # Element 2 * (ci * n_s + cj) + half of cell (ci, cj): axes (ci, cj, half, node).
    off = np.stack([off_lower, off_upper])
    t_index = k * np.arange(n_t)[:, None, None, None] + off[None, None, :, :, 0]
    if periodic:
        t_index = np.mod(t_index, cols)
    s_index = k * np.arange(n_s)[None, :, None, None] + off[None, None, :, :, 1]
    elements = (t_index * rows + s_index).reshape(2 * n_t * n_s, len(multi))

    boundary_edges: list[BoundaryEdge] = []
    sides = problem.boundary_sides
    if "lower" in sides:
        boundary_edges += [BoundaryEdge(2 * (ci * n_s), 0, "lower") for ci in range(n_t)]
    if "upper" in sides:
        boundary_edges += [
            BoundaryEdge(2 * (ci * n_s + n_s - 1) + 1, 1, "upper") for ci in range(n_t)
        ]
    if not periodic:
        if "left" in sides:
            boundary_edges += [BoundaryEdge(2 * cj + 1, 2, "left") for cj in range(n_s)]
        if "right" in sides:
            boundary_edges += [
                BoundaryEdge(2 * ((n_t - 1) * n_s + cj), 1, "right") for cj in range(n_s)
            ]
    return elements, boundary_edges


# Per local edge: k times the barycentric distance from the edge, on the
# integer lattice indices (i, j) so that nodes on the edge get exactly 0
# (1 - 1/3 - 2/3 rounds to 1.1e-16), and the orthogonal projection
# parameter t(xi, eta) onto the edge.
_EDGE_DISTANCE = (
    lambda i, j, k: j,
    lambda i, j, k: k - i - j,
    lambda i, j, k: i,
)
_EDGE_PROJECTION = (
    lambda xi, eta: xi,
    lambda xi, eta: 0.5 * (1.0 - xi + eta),
    lambda xi, eta: 1.0 - eta,
)


def _lagrange_1d(order, t):
    """Values of the k+1 uniform-node 1-D Lagrange basis at t."""
    nodes = np.arange(order + 1) / order
    t = np.atleast_1d(np.asarray(t, dtype=float))
    vals = np.ones((t.size, order + 1))
    for m in range(order + 1):
        for n in range(order + 1):
            if n != m:
                vals[:, m] *= (t - nodes[n]) / (nodes[m] - nodes[n])
    return vals


def _blend_boundary_elements(nodes, displacement, elements, boundary_edges, k, problem):
    """Carry the boundary correction into boundary-adjacent elements.

    Each off-edge node moves by (1 - d)^2 times the correction displacement
    interpolated at its orthogonal projection onto the boundary edge, where
    d is its barycentric distance from that edge; moved nodes are snapped
    back to the surface.  Nodes claimed by two boundary elements (flat
    corners) receive the last claim; there the displacement vanishes.
    """
    multi = lattice_multi_indices(k)
    xi, eta = multi[:, 0] / k, multi[:, 1] / k
    moved: dict[int, np.ndarray] = {}
    for element, local_edge, _ in boundary_edges:
        d = _EDGE_DISTANCE[local_edge](multi[:, 0], multi[:, 1], k) / k
        t = np.clip(_EDGE_PROJECTION[local_edge](xi, eta), 0.0, 1.0)
        edge_nodes = elements[element][edge_node_ids(k, local_edge)]
        edge_disp = displacement[edge_nodes]
        blend = _lagrange_1d(k, t) @ edge_disp * ((1.0 - d) ** 2)[:, None]
        for local, node in enumerate(elements[element]):
            if 0.0 < d[local] < 1.0:
                moved[int(node)] = nodes[node] + blend[local]
    if moved:
        ids = np.array(sorted(moved), dtype=int)
        nodes[ids] = problem.closest_point(np.array([moved[int(i)] for i in ids]))


def _vertex_mesh_size(vertex):
    horiz = np.linalg.norm(vertex[1:] - vertex[:-1], axis=-1)
    vert = np.linalg.norm(vertex[:, 1:] - vertex[:, :-1], axis=-1)
    diag = np.linalg.norm(vertex[1:, 1:] - vertex[:-1, :-1], axis=-1)
    return float(max(horiz.max(), vert.max(), diag.max()))


def grouped_boundary_edges(mesh: ParametricMesh) -> dict[tuple[int, str], np.ndarray]:
    """Boundary-edge element ids grouped by (local edge, side), in list order."""
    groups: dict[tuple[int, str], list[int]] = {}
    for element, local_edge, side in mesh.boundary_edges:
        groups.setdefault((local_edge, side), []).append(element)
    return {key: np.array(ids, dtype=int) for key, ids in groups.items()}


def element_batches(mesh: ParametricMesh, problem, rule):
    """Yield (element ids, frames, w_q sqrt(det G)) per chunk of elements."""
    for start in range(0, mesh.num_elements, ELEMENT_CHUNK):
        ids = np.arange(start, min(start + ELEMENT_CHUNK, mesh.num_elements))
        bundle = frames(mesh, problem, ids, rule.points)
        yield ids, bundle, rule.weights[None, :] * bundle.area_factor


def edge_batches(mesh: ParametricMesh, problem, rule):
    """Yield (side, element ids, edge geometry, w_q |x'(t)|) per boundary group."""
    for (local_edge, side), ids in grouped_boundary_edges(mesh).items():
        edge = EdgeBundle(mesh, problem, ids, local_edge, rule.points)
        yield side, ids, edge, rule.weights[None, :] * edge.line_factor


def _scaled_jacobians(signed_area):
    """Per element of a batch: min over quad points of the signed area
    density, normalized by the element's largest density; <= 0 flags a fold."""
    orient = np.sign(np.sum(signed_area, axis=1))
    signed = signed_area * orient[:, None]
    return signed.min(axis=1) / np.abs(signed).max(axis=1)


def _invalid_elements(mesh: ParametricMesh, problem):
    batches = element_batches(mesh, problem, triangle_rule(2 * mesh.order + 2))
    return np.concatenate(
        [ids[_scaled_jacobians(bundle.signed_area) <= 0.0] for ids, bundle, _ in batches]
    )


def geometric_report(mesh: ParametricMesh, problem, quad_degree=None) -> GeometricReport:
    """Measure how well the mesh approximates the surface and its boundary."""
    if quad_degree is None:
        quad_degree = 2 * mesh.order + 2
    max_rho = max_normal_dev = 0.0
    min_scaled_jacobian = np.inf
    for _, bundle, _ in element_batches(mesh, problem, triangle_rule(quad_degree)):
        rho = problem.signed_distance(bundle.position)
        normal_dev = _norm3(bundle.exact_normal - bundle.normal)
        scaled = _scaled_jacobians(bundle.signed_area)
        max_rho = max(max_rho, float(np.abs(rho).max()))
        max_normal_dev = max(max_normal_dev, float(normal_dev.max()))
        min_scaled_jacobian = min(min_scaled_jacobian, float(scaled.min()))

    max_edge_dist = 0.0
    for side, _, edge, _ in edge_batches(mesh, problem, edge_rule(quad_degree)):
        pts = edge.frame.position.reshape(-1, 3)
        proj = problem.project_to_boundary(pts, side)
        max_edge_dist = max(max_edge_dist, float(np.linalg.norm(pts - proj, axis=-1).max()))

    max_node_dist = 0.0
    for side, ids in mesh.boundary_nodes.items():
        proj = problem.project_to_boundary(mesh.nodes[ids], side)
        max_node_dist = max(
            max_node_dist, float(np.linalg.norm(mesh.nodes[ids] - proj, axis=-1).max())
        )

    return GeometricReport(
        max_rho=max_rho,
        max_normal_dev=max_normal_dev,
        max_boundary_dist=max_edge_dist,
        max_boundary_node_dist=max_node_dist,
        min_scaled_jacobian=min_scaled_jacobian,
    )

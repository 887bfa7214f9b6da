"""Construction of order-k parametric triangle meshes on the model surfaces.

The parameter square (t, s) in [0,1]^2 is covered by a structured grid of
n_t x n_s cells, each split into two triangles along the (t, s)-diagonal;
n_s is scaled by the physical aspect of the chart so cells stay roughly
isotropic.  ``_layout`` alone numbers the nodes and splits the cells.  The
chart places every node once; the element corners keep those places, so
they sit on the exact surface, the s = 0 / s = 1 rows on the exact
boundary curves, and h is the longest straight edge between them.

Curved-element Lagrange nodes are either the chart nodes (default; every
node row follows the boundary waves) or interpolated linearly between
the corners of their element with weights (k - i - j, i, j) / k.  Chart
nodes already sit on the surface and the boundary curves, so they are
used as they are.  Facet nodes go through the classical curved-mesh
correction passes: snap all nodes to the surface with the closest-point
map, move boundary-chain nodes onto the boundary curves, blend the
boundary correction into the interiors of boundary-adjacent elements
with a quadratic falloff, and re-snap the blended nodes.  That pipeline
remains valid only while the cells resolve the boundary waves (the blend
softens but cannot remove the shear of an under-resolved corrected edge).

Assembly and error measurement integrate through one walker whose every
batch is a ``fem.FrameBundle`` with its basis tables: ``element_batches``
yields frames in batches of at most ``BATCH_POINTS`` quadrature points,
``edge_batches`` one EdgeBundle (frames at one local edge's points) per
(local edge, side) group of ``ParametricMesh.boundary_edges`` with the
weights w_q |x'(t)|.  Bounding a batch by points rather than by elements
keeps its (e, q, ...) work arrays the same size at every order and rule,
small enough to be reused from batch to batch.  Frames know only the
discrete surface and form their metric on first use: the integrating
callers form w_q sqrt(det G), while the fold check, which is also the
report's element side, reads the unit normals and |J_0 x J_1| and orients
them by the exact normal from one ``distance_and_normal`` query per
batch.  ``build_mesh`` keeps that side on the mesh, so a report against
the build problem frames no element again, and neither the build nor the
report frames a boundary edge: both interpolate its points from the nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateElementError,
    DegenerateInputError,
    InvalidArgumentError,
    MeshInvalidError,
    UnsupportedDegreeError,
    integer,
)
from .fem import EdgeBundle, FrameBundle, _dot3, _norm3
from .reference import (
    barycentric_lattice,
    edge_node_ids,
    edge_opposite_corner,
    edge_ref_direction,
    edge_ref_points,
    edge_rule,
    lattice_multi_indices,
    lattice_points,
    reference_element,
    triangle_rule,
)

# Quadrature points per element batch of the walker: 384 KiB per (e, q, 3)
# work array.  Batches of 4,096 elements made those arrays 2.4-3.4 MiB at
# k = 3, large enough to be faulted in again by every batch.
BATCH_POINTS = 16384

# The node placements build_mesh accepts; the CLI offers the same choices.
NODE_PLACEMENTS = ("chart", "facet-linear")


def assembly_degree(order: int) -> int:
    """Exactness degree 2k + 2 of the assembly rules; the fold check, the
    boundary-edge walk and the geometric report use it to meet assembly's points."""
    return 2 * order + 2


@dataclass
class ParametricMesh:
    """Order-k triangulated surface with isoparametric geometry nodes.

    ``elements`` lists, per triangle, the node ids of the reference
    lattice of :func:`surfnitsche.reference.lattice_points` in that order.
    ``boundary_edges`` maps each (local edge, side) group to the ids of
    the elements whose local edge lies on that boundary side, in element
    order; the groups run lower, upper, left, right over the sides the
    problem has.  ``boundary_nodes`` derives each side's node ids from
    them.  ``h`` is the longest straight edge between element corners.

    ``_element_side`` is set by :func:`build_mesh` only: the element-side
    fields of the geometric report, with the problem and the node and
    element arrays they were measured for.
    """

    order: int
    nodes: np.ndarray
    elements: np.ndarray
    boundary_edges: dict[tuple[int, str], np.ndarray]
    h: float
    _element_side: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def boundary_nodes(self) -> dict[str, np.ndarray]:
        """Sorted node ids on each boundary side, from the edge groups."""
        return _boundary_nodes(self.order, self.elements, self.boundary_edges)

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


def _boundary_nodes(k, elements, boundary_edges):
    return {
        side: np.unique(elements[ids][:, edge_node_ids(k, local_edge)])
        for (local_edge, side), ids in boundary_edges.items()
    }


def _grid_shape(n_div: int, order: int, problem) -> tuple[int, int]:
    """Cells (n_t, n_s) of the order-k grid; InvalidArgumentError names a
    chart aspect that is infinite or too large for the node ids to index."""
    aspect = problem.chart_aspect
    if not np.isfinite(aspect):
        raise InvalidArgumentError(f"chart aspect must be finite, got {aspect}")
    n_s = n_div * int(np.ceil(aspect - 1e-9))
    if (order * n_div + 1) * (order * n_s + 1) > np.iinfo(np.intp).max:
        raise InvalidArgumentError(f"chart aspect {aspect:g} gives more nodes than ids can index")
    return n_div, n_s


def build_mesh(n_div: int, order: int, problem, node_placement: str = "chart") -> ParametricMesh:
    """Build the order-k mesh of the problem's parameter band.

    ``node_placement`` selects how the Lagrange nodes of curved elements
    are placed:

    - ``"chart"`` (default): nodes sit on the chart lattice, so every row
      of nodes follows the boundary waves and lies on the surface, with
      the boundary rows on the boundary curves; no correction pass runs.
      Valid at every resolution.
    - ``"facet-linear"``: nodes are interpolated linearly between the
      chart-placed corners of their element, snapped to the surface, and
      corrected at the boundary with the quadratic interior blend.  On coarse meshes
      whose cells under-resolve the boundary waves the corrected elements
      can fold, which build_mesh reports as :class:`MeshInvalidError`.

    Raises :class:`MeshInvalidError` if any element ends up with a
    nonpositive area Jacobian at a quadrature point, or if the cells are
    so coarse that a node, or a quadrature point of an element or of a
    boundary edge, lands where the surface has no unique nearest point.

    The fold check measures the element side of the geometric report
    (``max_rho``, ``max_normal_dev``, ``min_scaled_jacobian``) in the same
    pass, and the mesh keeps it for :func:`geometric_report` against this
    problem.  The returned mesh's ``nodes``, ``elements`` and boundary-edge
    id arrays are read-only, so those values cannot go stale.
    """
    n_div = integer("n_div", n_div)
    k = integer("order", order, UnsupportedDegreeError)
    if n_div < 2:
        raise InvalidArgumentError(f"n_div must be >= 2, got {n_div}")
    if not 1 <= k <= 3:
        raise UnsupportedDegreeError(f"order must be 1..3, got {k}")
    if node_placement not in NODE_PLACEMENTS:
        raise InvalidArgumentError(f"unknown node placement {node_placement!r}")
    n_t, n_s = _grid_shape(n_div, k, problem)
    t, s, elements, boundary_edges = _layout(n_t, n_s, k, problem.periodic, problem.boundary_sides)
    nodes = problem.chart(t, s)
    corners = nodes[elements[:, list(reference_element(k).corner_ids)]]
    h = float(_norm3(corners - np.roll(corners, 1, axis=1)).max())
    try:
        if node_placement == "facet-linear":
            nodes = problem.closest_point(_facet_linear_nodes(nodes, elements, k))
            nodes = _correct_boundary(nodes, k, elements, boundary_edges, problem)
        mesh = ParametricMesh(
            order=k, nodes=nodes, elements=elements, boundary_edges=boundary_edges, h=h
        )
        bad, element_side = _element_pass(mesh, problem)
        if len(bad):
            raise MeshInvalidError(
                f"{len(bad)} element(s) with nonpositive area Jacobian, e.g. element {bad[0]}"
            )
        # Boundary-edge quadrature points can reach the center circle where no
        # element point does; error_measures evaluates the exact solution there.
        for _, points in _edge_points(mesh):
            problem.normal_at_closest(points)
    except DegenerateInputError as err:
        # Cells spanning half the tube put facet nodes or quadrature points
        # on the center circle, where the surface has no nearest point.
        raise MeshInvalidError(f"mesh too coarse for the surface: {err}") from err
    for array in (mesh.nodes, mesh.elements, *mesh.boundary_edges.values()):
        array.flags.writeable = False
    mesh._element_side = (problem, mesh.nodes, mesh.elements, element_side)
    return mesh


def _facet_linear_nodes(chart_nodes, elements, k):
    """Nodes interpolated linearly between their element's corners, unsnapped.

    A node two elements share lies on their common edge, where both sum the
    same two products in either order, so the scatter may keep either.
    """
    weights = barycentric_lattice(k) / k
    corners = chart_nodes[elements[:, list(reference_element(k).corner_ids)]]
    nodes = np.empty_like(chart_nodes)
    nodes[elements] = sum(weights[:, c, None] * corners[:, None, c] for c in range(3))
    return nodes


def _correct_boundary(nodes, k, elements, boundary_edges, problem):
    """Move the boundary nodes in ``nodes`` onto the boundary curves and blend the moves inward."""
    displacement = np.zeros_like(nodes)
    for side, ids in _boundary_nodes(k, elements, boundary_edges).items():
        corrected = problem.correct_to_boundary(nodes[ids], side)
        displacement[ids] = corrected - nodes[ids]
        nodes[ids] = corrected
    return _blend_boundary_elements(nodes, displacement, k, elements, boundary_edges, problem)


def _layout(n_t, n_s, k, periodic, sides):
    """Node lattice parameters (t, s), element node ids and boundary-edge groups.

    The only code that knows the numbering, node ti * rows + si at
    (ti / (k n_t), si / (k n_s)), and the split of each cell into a lower
    triangle (cell corners (0,0), (1,0), (1,1)) and an upper one (0,0),
    (1,1), (0,1).  Periodic grids wrap column k n_t onto column 0.
    """
    cols = k * n_t if periodic else k * n_t + 1
    rows = k * n_s + 1
    t = np.repeat(np.arange(cols) / (k * n_t), rows)
    s = np.tile(np.arange(rows) / (k * n_s), cols)

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

    # Lower halves of the bottom cell row, upper halves of the top row,
    # upper halves of the first cell column, lower halves of the last.
    ci, cj = np.arange(n_t), np.arange(n_s)
    groups = {
        (0, "lower"): 2 * ci * n_s,
        (1, "upper"): 2 * (ci * n_s + n_s - 1) + 1,
    }
    if not periodic:
        groups[(2, "left")] = 2 * cj + 1
        groups[(1, "right")] = 2 * ((n_t - 1) * n_s + cj)
    return t, s, elements, {key: ids for key, ids in groups.items() if key[1] in sides}


def _blend_boundary_elements(nodes, displacement, k, elements, boundary_edges, problem):
    """Carry the boundary correction into boundary elements; updates and returns ``nodes``.

    Each off-edge node moves by (1 - d)^2 times the correction displacement
    interpolated at its orthogonal projection onto the boundary edge, where
    d is its barycentric distance from that edge; moved nodes are snapped
    back to the surface.  Nodes claimed by two boundary elements (flat
    corners) receive the last claim in group and element order; there the
    displacement vanishes.  At k = 1 every node is a corner, so none moves.
    """
    # Barycentric coordinates on the integer lattice, so that nodes on an
    # edge get exactly d = 0 (1 - 1/3 - 2/3 rounds to 1.1e-16).
    barycentric = barycentric_lattice(k)
    claims, targets = [], []
    for (local_edge, _), ids in boundary_edges.items():
        d = barycentric[:, edge_opposite_corner(local_edge)] / k
        direction = edge_ref_direction(local_edge)
        along = (lattice_points(k) - edge_ref_points(local_edge, 0.0)) @ direction
        t = np.clip(along / (direction @ direction), 0.0, 1.0)
        conn = elements[ids]
        edge_nodes = edge_node_ids(k, local_edge)
        # The element basis restricted to an edge is the 1-D Lagrange basis there.
        along_edge = reference_element(k).eval(edge_ref_points(local_edge, t))[:, edge_nodes]
        blend = along_edge @ displacement[conn[:, edge_nodes]] * ((1.0 - d) ** 2)[:, None]
        off_edge = (0.0 < d) & (d < 1.0)
        claims.append(conn[:, off_edge].ravel())
        targets.append((nodes[conn[:, off_edge]] + blend[:, off_edge]).reshape(-1, 3))
    # Unique over the reversed claims keeps each node's last claim, in id order.
    node_ids, last = np.unique(np.concatenate(claims)[::-1], return_index=True)
    nodes[node_ids] = problem.closest_point(np.concatenate(targets)[::-1][last])
    return nodes


def element_batches(mesh: ParametricMesh, rule):
    """Yield (element ids, frames) per batch of elements.

    Batches run over the elements in order.  They are the fewest that keep
    each batch within ``BATCH_POINTS`` quadrature points (or one element),
    and their sizes differ by at most one, so no batch is a small
    remainder: BLAS takes another kernel for small products, whose rows
    round differently from the same rows in a large one.  Only the callers
    that integrate form the weights w_q sqrt(det G).
    """
    per_batch = max(1, BATCH_POINTS // len(rule.weights))
    count = -(-mesh.num_elements // per_batch)
    for ids in np.array_split(np.arange(mesh.num_elements), count):
        yield ids, FrameBundle(mesh, ids, rule.points)


def edge_batches(mesh: ParametricMesh, rule):
    """Yield (side, element ids, edge geometry, w_q |x'(t)|) per boundary group."""
    for (local_edge, side), ids in mesh.boundary_edges.items():
        edge = EdgeBundle(mesh, ids, local_edge, rule.points)
        yield side, ids, edge, rule.weights[None, :] * edge.line_factor


def _edge_points(mesh: ParametricMesh):
    """Yield (side, points (m, 3)) per boundary group at the assembly edge rule, unframed."""
    values_at = reference_element(mesh.order).eval
    t_points = edge_rule(assembly_degree(mesh.order)).points
    for (local_edge, side), ids in mesh.boundary_edges.items():
        values = values_at(edge_ref_points(local_edge, t_points))
        yield side, (values @ mesh.nodes[mesh.elements[ids]]).reshape(-1, 3)


def _element_pass(mesh: ParametricMesh, problem):
    """Fold element ids and the element-side report fields, in one walk.

    Folds are the elements whose scaled Jacobian is <= 0: the least signed
    area density |J_0 x J_1| (signed by the exact normal, then by the sum
    over the element) over the largest.  The fields are ``max_rho``,
    ``max_normal_dev`` and ``min_scaled_jacobian``.  Per batch the pass
    reads the frames' positions and ``area_normal`` only, so it forms no
    metric, and makes one exact-geometry query, ``distance_and_normal``.
    """
    max_rho = max_normal_dev = 0.0
    min_scaled_jacobian = np.inf
    folds = []
    rule = triangle_rule(assembly_degree(mesh.order))
    for ids, bundle in element_batches(mesh, rule):
        area, unit = bundle.area_normal()
        rho, exact_normal = problem.distance_and_normal(bundle.position)
        orient = np.sign(_dot3(unit, exact_normal))
        if np.any(orient == 0.0):
            raise DegenerateElementError("element normal perpendicular to the surface")
        normal_dev = _norm3(exact_normal - unit * orient[..., None])
        signed = area * orient
        signed *= np.sign(np.sum(signed, axis=1))[:, None]
        scaled = signed.min(axis=1) / np.abs(signed).max(axis=1)
        folds.append(ids[scaled <= 0.0])
        max_rho = max(max_rho, float(np.abs(rho).max()))
        max_normal_dev = max(max_normal_dev, float(normal_dev.max()))
        min_scaled_jacobian = min(min_scaled_jacobian, float(scaled.min()))
    element_side = dict(
        max_rho=max_rho,
        max_normal_dev=max_normal_dev,
        min_scaled_jacobian=min_scaled_jacobian,
    )
    return np.concatenate(folds), element_side


def geometric_report(mesh: ParametricMesh, problem) -> GeometricReport:
    """Measure how well the mesh approximates the surface and its boundary.

    The element side is the one :func:`build_mesh` measured when
    ``problem`` is the problem the mesh was built for and the mesh still
    holds the arrays it was built with; any other mesh or problem gets the
    same element pass here.  The boundary edges and nodes are always
    measured here: their projections onto the boundary curves are Newton
    solves whose failures are the report's, not the build's.
    """
    built_for, nodes, elements, element_side = mesh._element_side or (None,) * 4
    if not (built_for is problem and nodes is mesh.nodes and elements is mesh.elements):
        _, element_side = _element_pass(mesh, problem)

    node_points = ((side, mesh.nodes[ids]) for side, ids in mesh.boundary_nodes.items())
    return GeometricReport(
        max_boundary_dist=_boundary_distance(_edge_points(mesh), problem),
        max_boundary_node_dist=_boundary_distance(node_points, problem),
        **element_side,
    )


def _boundary_distance(groups, problem):
    """Largest distance of the points of (side, points) groups from their boundary curves."""
    distances = [0.0]
    for side, pts in groups:
        proj = problem.project_to_boundary(pts, side)
        distances.append(float(np.linalg.norm(pts - proj, axis=-1).max()))
    return max(distances)

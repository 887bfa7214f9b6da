import numpy as np
import pytest

from surfnitsche import geometry as geo
from surfnitsche.errors import DegenerateElementError
from surfnitsche.fem import EdgeBundle, FrameBundle, _cross3, _dot3, _norm3
from surfnitsche.mesh import ParametricMesh, build_mesh, edge_batches
from surfnitsche.reference import (
    edge_opposite_corner,
    edge_ref_points,
    edge_rule,
    lattice_points,
    reference_element,
)

from conftest import observed_orders


def flat_mesh_from_triangle(vertices, order=1):
    """Single-triangle mesh over explicit vertices in the z = 0 plane."""
    vertices = np.asarray(vertices, dtype=float)
    lattice = lattice_points(order)
    nodes = (
        vertices[0]
        + np.outer(lattice[:, 0], vertices[1] - vertices[0])
        + np.outer(lattice[:, 1], vertices[2] - vertices[0])
    )
    return ParametricMesh(
        order=order,
        nodes=nodes,
        elements=np.arange(len(nodes), dtype=int)[None, :],
        boundary_edges={},
        h=1.0,
    )


def lifted_gradient(bundle, ref_point, coeffs):
    """Tangential gradient of v = sum coeffs_i phi_i (linear basis) by lift."""
    grads = reference_element(1).grad(np.array([ref_point]))[0]
    return bundle.lift((np.asarray(coeffs, dtype=float) @ grads)[None, None, :])[0, 0]


class TestElementFrame:
    def test_reference_congruent(self):
        mesh = flat_mesh_from_triangle([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        bundle = FrameBundle(mesh, [0], [[0.25, 0.25]])
        np.testing.assert_allclose(bundle.jacobian[0, 0], [[1, 0], [0, 1], [0, 0]], atol=1e-14)
        assert bundle.area_factor[0, 0] == pytest.approx(1.0, abs=1e-14)
        length, normal = bundle.area_normal()
        assert length[0, 0] == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(normal[0, 0], [0, 0, 1], atol=1e-14)

    def test_affine_area_factor(self):
        mesh = flat_mesh_from_triangle([[0, 0, 0], [2, 0, 0], [0, 1, 0]])
        bundle = FrameBundle(mesh, [0], [[0.3, 0.3]])
        assert bundle.area_factor[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_torus_frames_unit_normal(self, torus_problem):
        mesh = build_mesh(4, 2, torus_problem)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.1, 0.4, (5, 2))
        bundle = FrameBundle(mesh, np.arange(mesh.num_elements), pts)
        length, normal = bundle.area_normal()
        np.testing.assert_allclose(np.linalg.norm(normal, axis=-1), 1.0, atol=1e-14)
        assert np.all(bundle.area_factor > 0.0)
        np.testing.assert_allclose(length, bundle.area_factor, rtol=1e-12)
        # the chart mesh is consistently oriented against the exact surface normal
        dots = np.sum(normal * torus_problem.normal_at_closest(bundle.position), axis=-1)
        assert abs(np.sign(dots).sum()) == dots.size


def test_entrywise_products_match_numpy():
    # the frames take cross products and norms of the rows of J^T, so the
    # operands are strided views of an (e, q, 2, 3) array
    rows = np.random.default_rng(2).normal(size=(7, 12, 2, 3))
    a, b = rows[..., 0, :], rows[..., 1, :]
    assert np.array_equal(_cross3(a, b), np.cross(a, b))
    assert np.array_equal(_norm3(a), np.linalg.norm(a, axis=-1))


class TestTangentGradient:
    def test_constant_coefficients(self):
        mesh = flat_mesh_from_triangle([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        bundle = FrameBundle(mesh, [0], [[0.2, 0.3]])
        np.testing.assert_allclose(
            lifted_gradient(bundle, [0.2, 0.3], [5.0, 5.0, 5.0]), 0.0, atol=1e-14
        )

    def test_linear_field(self):
        mesh = flat_mesh_from_triangle([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        bundle = FrameBundle(mesh, [0], [[0.2, 0.3]])
        # v = x + 2y at the three corners
        coeffs = [0.0, 1.0, 2.0]
        np.testing.assert_allclose(
            lifted_gradient(bundle, [0.2, 0.3], coeffs), [1, 2, 0], atol=1e-14
        )

    def test_singular_metric_rejected(self):
        # collinear corners: J has parallel columns, so det G is exactly zero;
        # the bundle forms G on first use, and its area factor checks det G
        mesh = flat_mesh_from_triangle([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        bundle = FrameBundle(mesh, [0], [[0.3, 0.3]])
        with pytest.raises(DegenerateElementError):
            bundle.area_factor

    def test_orthogonal_to_normal(self, torus_problem):
        mesh = build_mesh(4, 3, torus_problem)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.1, 0.4, (4, 2))
        bundle = FrameBundle(mesh, np.arange(mesh.num_elements), pts)
        grads = reference_element(3).grad(pts)
        coeffs = rng.normal(size=(mesh.num_elements, reference_element(3).num_nodes))
        tangents = np.einsum("eqnd,en->eqd", bundle.basis_tangent_gradients(grads), coeffs)
        dots = np.sum(tangents * bundle.area_normal()[1], axis=-1)
        scale = np.linalg.norm(tangents, axis=-1).max()
        np.testing.assert_allclose(dots / scale, 0.0, atol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_edge_batch_is_element_frame(torus_problem, order):
    """An edge batch is the element frame at the edge's reference points,
    bit for bit, with the edge geometry added."""
    mesh = build_mesh(8, order, torus_problem)
    t = edge_rule(2 * order + 2).points
    for (local_edge, _), ids in mesh.boundary_edges.items():
        edge = EdgeBundle(mesh, ids, local_edge, t)
        frame = FrameBundle(mesh, ids, edge_ref_points(local_edge, t))
        assert isinstance(edge, FrameBundle)
        for name in ("position", "jacobian", "area_factor", "values", "grads"):
            np.testing.assert_array_equal(getattr(edge, name), getattr(frame, name), err_msg=name)
        for ours, theirs in zip(edge.area_normal(), frame.area_normal()):
            np.testing.assert_array_equal(ours, theirs)


def oriented_conormals(mesh, problem, ids, local_edge, edge):
    """Conormals from the unit normal oriented by the exact surface normal.

    The flip away from the opposite corner decides the conormal's sign
    whichever way the normal points, so the library's construction from
    the unoriented normal must match this one bit for bit.
    """
    raw = _cross3(edge.jacobian[..., 0], edge.jacobian[..., 1])
    unit = raw / _norm3(raw)[..., None]
    orient = _dot3(unit, problem.normal_at_closest(edge.position))
    assert np.all(orient != 0.0)
    conormal = _cross3(edge.tangent, unit * np.sign(orient)[..., None])
    conormal /= _norm3(conormal)[..., None]
    corner = reference_element(mesh.order).corner_ids[edge_opposite_corner(local_edge)]
    opposite = mesh.nodes[mesh.elements[ids, corner]]
    flip = _dot3(conormal, opposite[:, None, :] - edge.position)
    assert np.all(flip != 0.0)  # where it is 0, the two constructions may differ in sign
    return np.where((flip > 0.0)[..., None], -conormal, conormal)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize(
    "make_problem",
    [geo.TorusProblem, geo.TorusProblem.simplified, lambda: geo.FlatSquareProblem(3)],
    ids=["wavy", "simplified", "flat"],
)
def test_conormal_matches_oriented_construction(make_problem, order):
    problem = make_problem()
    mesh = build_mesh(8, order, problem)
    t = edge_rule(2 * order + 2).points
    for (local_edge, _), ids in mesh.boundary_edges.items():
        edge = EdgeBundle(mesh, ids, local_edge, t)
        np.testing.assert_array_equal(
            edge.conormal, oriented_conormals(mesh, problem, ids, local_edge, edge)
        )


class TestBoundaryConormal:
    def test_flat_hypotenuse(self):
        mesh = flat_mesh_from_triangle([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        edge = EdgeBundle(mesh, [0], 1, [0.5])
        position, conormal = edge.position[0, 0], edge.conormal[0, 0]
        line_factor = edge.line_factor[0, 0]
        np.testing.assert_allclose(position, [0.5, 0.5, 0.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(conormal), [s, s, 0.0], atol=1e-14)
        assert conormal @ np.array([1.0, 1.0, 0.0]) > 0.0  # points away from the origin
        assert line_factor == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_orthogonality(self, torus_problem):
        mesh = build_mesh(4, 2, torus_problem)
        rule = edge_rule(6)
        for _, _, bundle, _ in edge_batches(mesh, rule):
            np.testing.assert_allclose(
                np.sum(bundle.conormal * bundle.area_normal()[1], axis=-1), 0.0, atol=1e-12
            )
            np.testing.assert_allclose(
                np.sum(bundle.conormal * bundle.tangent, axis=-1), 0.0, atol=1e-12
            )
            np.testing.assert_allclose(np.linalg.norm(bundle.conormal, axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    def test_converges_to_exact_conormal(self, simple_problem, order):
        def exact_conormal(points, side):
            projected = simple_problem.project_to_boundary(points, side)
            theta, phi = geo.toroidal_angles(projected, simple_problem.torus)
            step = 1e-6
            plus = geo.boundary_curve_point(
                side, theta + step, simple_problem.boundary, simple_problem.torus
            )
            minus = geo.boundary_curve_point(
                side, theta - step, simple_problem.boundary, simple_problem.torus
            )
            tangent = plus - minus
            tangent /= np.linalg.norm(tangent, axis=-1, keepdims=True)
            nu = np.cross(tangent, geo.surface_normal(theta, phi))
            azimuthal = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
            outward = np.sum(nu * azimuthal, axis=-1)
            sign = -np.sign(outward) if side == "lower" else np.sign(outward)
            return nu * sign[:, None]

        rule = edge_rule(2 * order + 2)
        deviations, sizes = [], []
        for n_div in (8, 16, 32):
            mesh = build_mesh(n_div, order, simple_problem)
            worst = 0.0
            for side, _, bundle, _ in edge_batches(mesh, rule):
                pts = bundle.position.reshape(-1, 3)
                dev = np.linalg.norm(
                    exact_conormal(pts, side) - bundle.conormal.reshape(-1, 3), axis=-1
                )
                worst = max(worst, float(dev.max()))
            deviations.append(worst)
            sizes.append(mesh.h)
        order_estimate = observed_orders(deviations, sizes)[-1]
        assert order - 0.4 <= order_estimate <= order + 0.4

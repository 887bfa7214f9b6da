"""Isoparametric element geometry on parametric surface meshes.

Each element maps the reference triangle into 3-space through its order-k
nodal coordinates.  The 3x2 Jacobian J yields the first fundamental form
G = J^T J, the area factor sqrt(det G), the unoriented unit normal, tangential
gradients J G^{-1} grad_ref, and on boundary edges the exterior unit conormal;
no exact-geometry query runs here.

Every quadrature batch is a ``FrameBundle``, which carries the basis
tables at its points; a boundary-edge batch is an ``EdgeBundle``, the
same frames at one local edge's points plus the edge geometry.

Batched frames are built with matrix products: positions are
values @ coords and J^T is one product of the stacked reference gradients
(2q, n) with each element's (n, 3) coordinates; the 2x2 metric and its
inverse, the cross products and the norms are formed entrywise, each on
first use, so a caller pays only for what it reads: the fold check needs
no metric, and integration needs sqrt(det G).  Kernels that only need
G^{-1} and sqrt(det G) (the stiffness matrix ``C_e @ B`` in the assembly
module) or reference-space covectors (boundary fluxes, error gradients)
never build the (e, q, n, 3) tangent-gradient tensor; ``lift`` maps a
covector field to 3-space afterwards.
"""
from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateElementError
from .reference import (
    edge_opposite_corner,
    edge_ref_direction,
    edge_ref_points,
    reference_element,
)

if TYPE_CHECKING:  # pragma: no cover
    from .mesh import ParametricMesh

class FrameBundle:
    """Vectorized frames for a batch of elements at shared reference points.

    ``values`` (q,n) and ``grads`` (q,n,2) tabulate the basis at the
    points.  Arrays are indexed (element, quad point, ...): position (e,q,3),
    jacobian (e,q,3,2), metric/inv_metric (e,q,2,2) and area_factor (e,q).
    J^T is stored contiguously and ``jacobian`` is a transposed view of it.
    A bundle forms only position and J^T.  ``metric``, ``area_factor`` and
    ``inv_metric`` are formed on first use; the last two raise
    DegenerateElementError where det G <= 0.  The fold check, which is the
    geometric report's element side, reads only position and
    ``area_normal``, so it forms no metric.
    """

    def __init__(self, mesh: "ParametricMesh", element_ids, ref_points):
        pts = np.atleast_2d(np.asarray(ref_points, dtype=float))
        self.values, self.grads = reference_element(mesh.order).tabulate(pts)
        coords = mesh.nodes[mesh.elements[np.asarray(element_ids, dtype=int)]]
        num_points, num_nodes = self.values.shape
        self.position = self.values @ coords
        stacked = self.grads.transpose(0, 2, 1).reshape(2 * num_points, num_nodes)
        jac_t = (stacked @ coords).reshape(len(coords), num_points, 2, 3)
        self._jacobian_t = jac_t
        self.jacobian = jac_t.swapaxes(-1, -2)

    def area_normal(self):
        """|J_0 x J_1| (e,q) and the unoriented unit normal J_0 x J_1 / |J_0 x J_1| (e,q,3).

        DegenerateElementError where |J_0 x J_1| <= 0: det G = |J_0 x J_1|^2.
        """
        raw = _cross3(self._jacobian_t[..., 0, :], self._jacobian_t[..., 1, :])
        length = _norm3(raw)
        if np.any(length <= 0.0):
            raise DegenerateElementError("singular first fundamental form")
        return length, raw / length[..., None]

    @cached_property
    def metric(self):
        """G = J^T J (e,q,2,2), formed on first use."""
        jac_t = self._jacobian_t
        g = np.empty(jac_t.shape[:-1] + (2,))
        g[..., 0, 0] = _dot3(jac_t[..., 0, :], jac_t[..., 0, :])
        g[..., 1, 1] = _dot3(jac_t[..., 1, :], jac_t[..., 1, :])
        g[..., 0, 1] = _dot3(jac_t[..., 0, :], jac_t[..., 1, :])
        g[..., 1, 0] = g[..., 0, 1]
        return g

    @cached_property
    def _det(self):
        """det G (e,q); DegenerateElementError where it is <= 0."""
        g = self.metric
        det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
        if np.any(det <= 0.0):
            raise DegenerateElementError("singular first fundamental form")
        return det

    @cached_property
    def area_factor(self):
        """sqrt(det G) (e,q), formed on first use."""
        return np.sqrt(self._det)

    @cached_property
    def inv_metric(self):
        """G^{-1} (e,q,2,2), formed on first use."""
        g = self.metric
        inv = np.empty_like(g)
        inv[..., 0, 0] = g[..., 1, 1]
        inv[..., 1, 1] = g[..., 0, 0]
        inv[..., 0, 1] = -g[..., 0, 1]
        inv[..., 1, 0] = -g[..., 1, 0]
        return inv / self._det[..., None, None]

    def basis_tangent_gradients(self, grads):
        """Tangential gradients of all basis functions; shape (e,q,n,3)."""
        return grads @ (self.inv_metric @ self._jacobian_t)

    def reference_components(self, vectors):
        """Components G^{-1} J^T v of ambient vectors v (e,q,3); shape (e,q,2).

        For every basis function, v . (tangential gradient) equals these
        components dotted with its reference gradient, so fluxes contract
        them directly against the reference gradients.
        """
        return self._raise((self._jacobian_t @ vectors[..., None])[..., 0])

    def lift(self, ref_gradients):
        """Tangential gradients J G^{-1} g of reference gradients g (e,q,2); (e,q,3)."""
        return self._push(self._raise(ref_gradients))

    def project_tangent(self, vectors):
        """Project ambient vectors (e,q,3) onto the discrete tangent plane."""
        return self._push(self.reference_components(vectors))

    # _raise and _push write their per-point products entrywise: a stacked
    # matmul of matrices this small costs a call per point and ran 2-3x
    # slower.  J^T v above stays a matmul; its entrywise form rounds
    # differently, enough to move the Nitsche flux terms and, with them,
    # where PCG stops on the k = 3 study.

    def _raise(self, covectors):
        """G^{-1} w for covectors w (e,q,2)."""
        inv = self.inv_metric
        v0, v1 = covectors[..., 0], covectors[..., 1]
        return np.stack(
            [inv[..., 0, 0] * v0 + inv[..., 0, 1] * v1, inv[..., 1, 0] * v0 + inv[..., 1, 1] * v1],
            axis=-1,
        )

    def _push(self, components):
        """J c for reference components c (e,q,2); shape (e,q,3)."""
        jac_t = self._jacobian_t
        c0, c1 = components[..., 0, None], components[..., 1, None]
        return c0 * jac_t[..., 0, :] + c1 * jac_t[..., 1, :]


# Products over a last axis of length 3, written entrywise: np.cross,
# np.linalg.norm and np.sum over that axis cost several times more.  Each
# helper rounds exactly as the numpy call it replaces (same products,
# summed left to right), so the frames do not change.


def _dot3(a, b):
    """Dot products over a last axis of length 3, summed left to right."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _cross3(a, b):
    """Cross products over a last axis of length 3, as np.cross forms them."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _norm3(a):
    """Euclidean norms over a last axis of length 3, as np.linalg.norm forms them."""
    return np.sqrt(_dot3(a, a))


def frames(mesh: "ParametricMesh", problem, element_ids, ref_points) -> FrameBundle:
    """FrameBundle(mesh, element_ids, ref_points); ``problem`` is unused."""
    return FrameBundle(mesh, element_ids, ref_points)


class EdgeBundle(FrameBundle):
    """Element frames at the points of one local edge, with its edge geometry.

    The frames, basis tables and positions are those of
    ``FrameBundle(mesh, element_ids, edge_ref_points(local_edge, t))``;
    the edge adds its unit tangent, the arc-length factor |x'(t)| of the
    edge parameterization, and the exterior unit conormal (tangent to the
    element, normal to the edge, and turned away from the opposite corner).
    """

    def __init__(self, mesh: "ParametricMesh", element_ids, local_edge, t_points):
        super().__init__(mesh, element_ids, edge_ref_points(local_edge, t_points))
        normal = self.area_normal()[1]
        tangent = self.jacobian @ edge_ref_direction(local_edge)
        self.line_factor = _norm3(tangent)
        if np.any(self.line_factor <= 0.0):
            raise DegenerateElementError("degenerate boundary edge")
        self.tangent = tangent / self.line_factor[..., None]
        conormal = _cross3(self.tangent, normal)
        conormal /= _norm3(conormal)[..., None]
        corner = reference_element(mesh.order).corner_ids[edge_opposite_corner(local_edge)]
        opposite = mesh.nodes[mesh.elements[np.asarray(element_ids, dtype=int), corner]]
        flip = _dot3(conormal, opposite[:, None, :] - self.position) > 0.0
        self.conormal = np.where(flip[..., None], -conormal, conormal)

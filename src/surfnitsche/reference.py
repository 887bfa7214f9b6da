"""Lagrange reference triangles and quadrature rules.

The reference triangle is {(xi, eta) : xi, eta >= 0, xi + eta <= 1} with
corners v0 = (0,0), v1 = (1,0), v2 = (0,1) and edges 0:(v0,v1), 1:(v1,v2),
2:(v2,v0).  Nodal bases of order k live on the uniform lattice
(i/k, j/k), i + j <= k, enumerated row by row in j; the same enumeration
orders element connectivity throughout the library.

Triangle quadrature uses the collapsed-square construction: Gauss-Legendre
in the first square coordinate and Gauss-Jacobi with weight (1 - v) in the
second, which is exact for the stated total degree with positive weights
at any degree.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import UnsupportedDegreeError

MAX_QUADRATURE_DEGREE = 20

REF_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
EDGE_CORNERS = ((0, 1), (1, 2), (2, 0))


def lattice_multi_indices(order: int) -> np.ndarray:
    """Integer lattice offsets (i, j), i + j <= order; also the monomial exponents."""
    return np.array(
        [(i, j) for j in range(order + 1) for i in range(order + 1 - j)], dtype=int
    )


def lattice_points(order: int) -> np.ndarray:
    """Uniform barycentric lattice of the reference triangle, shape (n, 2)."""
    return lattice_multi_indices(order) / order


class ReferenceElement:
    """Nodal Lagrange basis of total order k on the uniform triangle lattice.

    Basis coefficients come from inverting the monomial Vandermonde matrix
    at the lattice nodes, which is well conditioned for k <= 3.
    """

    def __init__(self, order: int):
        if not 1 <= order <= 3:
            raise UnsupportedDegreeError(f"element order must be 1..3, got {order}")
        self.order = order
        self.nodes = lattice_points(order)
        self._exponents = lattice_multi_indices(order)
        vandermonde = self._monomials(self.nodes)
        self._coeffs = np.linalg.inv(vandermonde)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def corner_ids(self) -> tuple[int, int, int]:
        """Lattice indices of the three reference corners."""
        k = self.order
        return 0, k, self.num_nodes - 1

    def _monomials(self, points):
        pts = np.atleast_2d(points)
        xi, eta = pts[:, 0], pts[:, 1]
        a, b = self._exponents[:, 0], self._exponents[:, 1]
        return xi[:, None] ** a[None, :] * eta[:, None] ** b[None, :]

    def _monomial_gradients(self, points):
        pts = np.atleast_2d(points)
        xi, eta = pts[:, 0], pts[:, 1]
        a, b = self._exponents[:, 0], self._exponents[:, 1]
        with np.errstate(invalid="ignore"):
            dxi = np.where(a > 0, a * xi[:, None] ** np.maximum(a - 1, 0), 0.0)
            deta = np.where(b > 0, b * eta[:, None] ** np.maximum(b - 1, 0), 0.0)
        dxi = dxi * eta[:, None] ** b[None, :]
        deta = xi[:, None] ** a[None, :] * deta
        return dxi, deta

    def eval(self, points) -> np.ndarray:
        """Basis values at reference points; shape (n_points, n_nodes)."""
        return self._monomials(points) @ self._coeffs

    def grad(self, points) -> np.ndarray:
        """Reference gradients at points; shape (n_points, n_nodes, 2)."""
        dxi, deta = self._monomial_gradients(points)
        return np.stack([dxi @ self._coeffs, deta @ self._coeffs], axis=-1)

    def tabulate(self, points):
        """(values, gradients) at reference points."""
        return self.eval(points), self.grad(points)


@lru_cache(maxsize=None)
def reference_element(order: int) -> ReferenceElement:
    return ReferenceElement(order)


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights, exact up to the stated degree."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Rule for the reference triangle, exact for total degree <= degree."""
    if not 0 <= degree <= MAX_QUADRATURE_DEGREE:
        raise UnsupportedDegreeError(f"triangle rule degree must be 0..20, got {degree}")
    n = max(1, (degree + 2) // 2)
    xu, wu = roots_legendre(n)
    xv, wv = roots_jacobi(n, 1.0, 0.0)
    u = 0.5 * (xu + 1.0)
    v = 0.5 * (xv + 1.0)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    xi = (uu * (1.0 - vv)).ravel()
    eta = vv.ravel()
    # du contributes 1/2, the Jacobi measure (1-x) dx maps to 4 (1-v) dv
    weights = (np.outer(wu, wv) / 8.0).ravel()
    return QuadratureRule(np.column_stack([xi, eta]), weights, degree)


@lru_cache(maxsize=None)
def edge_rule(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1], exact for degree <= degree."""
    if not 0 <= degree <= MAX_QUADRATURE_DEGREE:
        raise UnsupportedDegreeError(f"edge rule degree must be 0..20, got {degree}")
    n = max(1, (degree + 2) // 2)
    x, w = roots_legendre(n)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w, degree)


def edge_ref_points(local_edge: int, t) -> np.ndarray:
    """Reference coordinates of edge parameter t in [0, 1], shape (..., 2)."""
    a = REF_CORNERS[EDGE_CORNERS[local_edge][0]]
    b = REF_CORNERS[EDGE_CORNERS[local_edge][1]]
    t = np.asarray(t, dtype=float)
    return a + t[..., None] * (b - a)


def edge_ref_direction(local_edge: int) -> np.ndarray:
    """Constant reference tangent of an edge (not normalized)."""
    a = REF_CORNERS[EDGE_CORNERS[local_edge][0]]
    b = REF_CORNERS[EDGE_CORNERS[local_edge][1]]
    return b - a


def edge_opposite_corner(local_edge: int) -> int:
    """Local id of the corner facing an edge."""
    return (local_edge + 2) % 3


def edge_node_ids(order: int, local_edge: int) -> np.ndarray:
    """Lattice indices of the k+1 nodes along an edge, ordered with t."""
    multi = lattice_multi_indices(order)
    lookup = {(i, j): m for m, (i, j) in enumerate(multi)}
    k = order
    if local_edge == 0:
        path = [(m, 0) for m in range(k + 1)]
    elif local_edge == 1:
        path = [(k - m, m) for m in range(k + 1)]
    else:
        path = [(0, k - m) for m in range(k + 1)]
    return np.array([lookup[ij] for ij in path], dtype=int)

"""Lagrange reference triangles and quadrature rules.

The reference triangle is {(xi, eta) : xi, eta >= 0, xi + eta <= 1} with
corners v0 = (0,0), v1 = (1,0), v2 = (0,1) and edges 0:(v0,v1), 1:(v1,v2),
2:(v2,v0).  Nodal bases of order k live on the uniform lattice
(i/k, j/k), i + j <= k, enumerated row by row in j; the same enumeration
orders element connectivity throughout the library.

Triangle quadrature uses the collapsed-square construction: Gauss-Legendre
in the first square coordinate and Gauss-Jacobi with weight (1 - v) in the
second, which is exact for the stated total degree with positive weights
at any degree.  Both come from numpy: Gauss-Legendre from
``np.polynomial.legendre.leggauss``, Gauss-Jacobi from the eigenvalues of
its Jacobi matrix (Golub & Welsch 1969).  Nodes and weights agree with
scipy.special's ``roots_legendre`` and ``roots_jacobi`` to a few ulps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import UnsupportedDegreeError, float_array, integer

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


def barycentric_lattice(order: int) -> np.ndarray:
    """Integer barycentric coordinates (k - i - j, i, j) of the lattice nodes,
    one column per reference corner."""
    i, j = lattice_multi_indices(order).T
    return np.column_stack([order - i - j, i, j])


class ReferenceElement:
    """Nodal Lagrange basis of total order k on the uniform triangle lattice.

    Basis coefficients come from inverting the monomial Vandermonde matrix
    at the lattice nodes, which is well conditioned for k <= 3.  Points
    are real and finite, of shape (2,) or (n, 2), or InvalidArgumentError.
    """

    def __init__(self, order: int):
        order = integer("element order", order, UnsupportedDegreeError)
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
        xi, eta = _reference_points(points)
        a, b = self._exponents[:, 0], self._exponents[:, 1]
        return xi[:, None] ** a[None, :] * eta[:, None] ** b[None, :]

    def _monomial_gradients(self, points):
        xi, eta = _reference_points(points)
        a, b = self._exponents[:, 0], self._exponents[:, 1]
        dxi = a * xi[:, None] ** np.maximum(a - 1, 0) * eta[:, None] ** b
        deta = xi[:, None] ** a * (b * eta[:, None] ** np.maximum(b - 1, 0))
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


def _reference_points(points):
    """(xi, eta) of real, finite points of shape (2,) or (n, 2), each (n,)."""
    pts = np.atleast_2d(float_array("reference points", points, finite=True))
    return float_array("reference points", pts, (len(pts), 2)).T


@lru_cache(maxsize=None)
def reference_element(order: int) -> ReferenceElement:
    return ReferenceElement(order)


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights, exact up to the stated degree."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


def _gauss_jacobi_1_0(n):
    """n-point Gauss-Jacobi nodes and weights on [-1, 1] for the weight 1 - x.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    recurrence of P_n^(1,0), each weight int (1 - x) dx = 2 times the square
    of the first component of its unit eigenvector.
    """
    k = np.arange(n)
    diagonal = -1.0 / ((2 * k + 1) * (2 * k + 3))
    off = np.sqrt(k[1:] * (k[1:] + 1.0)) / (2 * k[1:] + 1)
    nodes, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vectors[0] ** 2


def _rule_degree(name, degree):
    """degree as an int in 0..MAX_QUADRATURE_DEGREE; otherwise UnsupportedDegreeError
    naming it.  The rules check it before their caches hash it."""
    degree = integer(name, degree, UnsupportedDegreeError)
    if not 0 <= degree <= MAX_QUADRATURE_DEGREE:
        raise UnsupportedDegreeError(f"{name} must be 0..{MAX_QUADRATURE_DEGREE}, got {degree}")
    return degree


def triangle_rule(degree: int) -> QuadratureRule:
    """Rule for the reference triangle, exact for total degree <= degree."""
    return _triangle_rule(_rule_degree("triangle rule degree", degree))


@lru_cache(maxsize=None)
def _triangle_rule(degree):
    edge = _edge_rule(degree)
    xv, wv = _gauss_jacobi_1_0(len(edge.points))
    v = 0.5 * (xv + 1.0)
    uu, vv = np.meshgrid(edge.points, v, indexing="ij")
    xi = (uu * (1.0 - vv)).ravel()
    eta = vv.ravel()
    # the edge weights carry du's 1/2, the Jacobi measure (1-x) dx maps to 4 (1-v) dv
    weights = (np.outer(edge.weights, wv) / 4.0).ravel()
    return QuadratureRule(np.column_stack([xi, eta]), weights, degree)


def edge_rule(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1], exact for degree <= degree."""
    return _edge_rule(_rule_degree("edge rule degree", degree))


@lru_cache(maxsize=None)
def _edge_rule(degree):
    n = max(1, (degree + 2) // 2)
    x, w = leggauss(n)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w, degree)


def edge_ref_points(local_edge: int, t) -> np.ndarray:
    """Reference coordinates of edge parameter t in [0, 1], shape (..., 2)."""
    a = REF_CORNERS[EDGE_CORNERS[local_edge][0]]
    b = REF_CORNERS[EDGE_CORNERS[local_edge][1]]
    t = np.asarray(t, dtype=float)
    return a + t[..., None] * (b - a)


def edge_ref_direction(local_edge: int) -> np.ndarray:
    """Constant reference tangent of an edge (not normalized)."""
    return edge_ref_points(local_edge, 1.0) - edge_ref_points(local_edge, 0.0)


def edge_opposite_corner(local_edge: int) -> int:
    """Local id of the corner facing an edge."""
    return (local_edge + 2) % 3


def edge_node_ids(order: int, local_edge: int) -> np.ndarray:
    """Lattice indices of the k+1 nodes along an edge, ordered with t: the nodes
    whose two edge-corner coordinates sum to k, by the end corner's coordinate."""
    barycentric = barycentric_lattice(order)
    start, end = EDGE_CORNERS[local_edge]
    on_edge = np.flatnonzero(barycentric[:, start] + barycentric[:, end] == order)
    return on_edge[np.argsort(barycentric[on_edge, end])]

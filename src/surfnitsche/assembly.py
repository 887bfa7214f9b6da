"""Assembly of the symmetric Nitsche system for the surface Poisson problem.

The bilinear and linear forms on the discrete surface are

    a(v, w) = (grad v, grad w)  - (nu.grad v, w)_b - (v, nu.grad w)_b
              + beta/h (v, w)_b
    l(w)    = (f(p(x)), w) - (g(q(x)), nu.grad w)_b + beta/h (g(q(x)), w)_b

with tangential gradients, nu the exterior conormal of the boundary
edges, p the closest-point map onto the surface, q the closest-point map
onto the boundary curve, and a single global mesh size h in the penalty
weight.  All terms are integrated with rules of exactness degree 2k + 2,
the degree the mesh checks use (``mesh.assembly_degree``).

Element kernels are matrix products.  Since grad v . grad w =
grad_ref v^T G^{-1} grad_ref w, the element stiffness matrix is
K_e = C_e @ B with C_e[(q,r,s)] = w_q sqrt(det G) G^{-1}_rs per element
and B[(q,r,s),(i,j)] = d_r phi_i d_s phi_j tabulated once per rule, so
no tangential gradient of a basis function is ever formed.  G^{-1} is
symmetric, so (r,s) runs over 00, 11 and 01 only, the 01 row of B
holding d_0 phi_i d_1 phi_j + d_1 phi_i d_0 phi_j; every column pair
(i,j), (j,i) of B is then identical.  The boundary flux nu.grad phi_i
is the covector G^{-1} J^T nu (shape (e,q,2)) dotted with the reference
gradients, and the mass-type and load terms are products of weighted
values with the basis table.  Element and edge terms are integrated over
the batches of the mesh module's quadrature walker.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidPenaltyError, NotPositiveDefiniteError
from .mesh import ParametricMesh, assembly_degree, edge_batches, element_batches
from .reference import edge_rule, reference_element, triangle_rule
from .solve import SolveReport, is_positive_definite, solve_spd


@dataclass
class SparseSystem:
    """Assembled symmetric Nitsche system A x = b."""

    matrix: sp.csr_matrix
    rhs: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class _Parts:
    """Penalty-independent split A(beta) = core + beta/h * penalty."""

    core: sp.csr_matrix
    penalty: sp.csr_matrix
    rhs_core: np.ndarray
    rhs_penalty: np.ndarray


def _stiffness_table(grads):
    """B[(q, rs), (i, j)] for rs = 00, 11, 01 from reference gradients (q, n, 2)."""
    d0, d1 = grads[:, :, 0], grads[:, :, 1]

    def outer(a, b):
        return a[:, :, None] * b[:, None, :]

    table = np.stack([outer(d0, d0), outer(d1, d1), outer(d0, d1) + outer(d1, d0)], axis=1)
    return table.reshape(3 * len(grads), -1)


def _symmetric(local):
    """(L + L^T) / 2 of element matrices (e, n, n).

    A matrix product need not sum L_ij and L_ji in the same order.  Averaging
    keeps every element matrix exactly symmetric, so the assembled matrix
    is symmetric up to the order in which the sparse conversion sums
    duplicate entries; the MatrixMarket export keeps only one triangle.
    """
    return 0.5 * (local + local.transpose(0, 2, 1))


def _assemble_parts(mesh: ParametricMesh, problem) -> _Parts:
    degree = assembly_degree(mesh.order)
    ref = reference_element(mesh.order)
    rule = triangle_rule(degree)
    values, grads = ref.tabulate(rule.points)
    num_local = values.shape[1]
    stiffness_table = _stiffness_table(grads)

    n = mesh.num_nodes
    rows, cols, vals = [], [], []
    rhs_core = np.zeros(n)
    rhs_penalty = np.zeros(n)

    for ids, bundle, scale in element_batches(mesh, problem, rule):
        inv = bundle.inv_metric
        metric_weights = scale[..., None] * np.stack(
            [inv[..., 0, 0], inv[..., 1, 1], inv[..., 0, 1]], axis=-1
        )
        conn = mesh.elements[ids]
        rows.append(np.repeat(conn, conn.shape[1], axis=1).ravel())
        cols.append(np.tile(conn, (1, conn.shape[1])).ravel())
        local = metric_weights.reshape(len(ids), -1) @ stiffness_table
        local = local.reshape(len(ids), num_local, num_local)
        vals.append(_symmetric(local).ravel())
        f_vals = problem.load_at(bundle.position)
        np.add.at(rhs_core, conn.ravel(), ((scale * f_vals) @ values).ravel())

    pen_rows, pen_cols, pen_vals = [], [], []
    for side, ids, edge, scale in edge_batches(mesh, problem, edge_rule(degree)):
        covector = edge.frame.reference_components(edge.conormal)
        flux = (edge.grads @ covector[..., None])[..., 0]
        conn = mesh.elements[ids]
        r = np.repeat(conn, conn.shape[1], axis=1).ravel()
        c = np.tile(conn, (1, conn.shape[1])).ravel()

        consistency = (scale[..., None] * flux).transpose(0, 2, 1) @ edge.values
        rows.append(r)
        cols.append(c)
        vals.append(-(consistency + consistency.transpose(0, 2, 1)).ravel())

        pen = (edge.values.T * scale[:, None, :]) @ edge.values
        pen_rows.append(r)
        pen_cols.append(c)
        pen_vals.append(_symmetric(pen).ravel())

        qpts = edge.frame.position.reshape(-1, 3)
        g_vals = problem.dirichlet_at(problem.project_to_boundary(qpts, side))
        weighted_g = scale * g_vals.reshape(scale.shape)
        np.add.at(rhs_core, conn.ravel(), -(weighted_g[:, None, :] @ flux).ravel())
        np.add.at(rhs_penalty, conn.ravel(), (weighted_g @ edge.values).ravel())

    def build(rr, cc, vv):
        if not rr:
            return sp.csr_matrix((n, n))
        mat = sp.coo_matrix(
            (np.concatenate(vv), (np.concatenate(rr), np.concatenate(cc))), shape=(n, n)
        )
        return mat.tocsr()

    return _Parts(
        core=build(rows, cols, vals),
        penalty=build(pen_rows, pen_cols, pen_vals),
        rhs_core=rhs_core,
        rhs_penalty=rhs_penalty,
    )


def _penalized(parts: _Parts, beta: float, h: float):
    """A = core + beta/h * penalty and b = rhs_core + beta/h * rhs_penalty.

    Raises InvalidPenaltyError, without a floating-point warning, when
    beta is so large that an entry of A or the norm of b overflows.
    """
    weight = beta / h
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = (parts.core + weight * parts.penalty).tocsr()
        rhs = parts.rhs_core + weight * parts.rhs_penalty
        overflow = not (np.all(np.isfinite(matrix.data)) and np.isfinite(rhs @ rhs))
    if overflow:
        raise InvalidPenaltyError(f"penalty beta={float(beta)} is too large: the system overflows")
    return matrix, rhs


def assemble(mesh: ParametricMesh, beta: float, problem) -> SparseSystem:
    """Assemble the Nitsche system with penalty weight beta / h.

    beta must be a finite positive number, small enough that the system
    does not overflow; otherwise InvalidPenaltyError names it.
    """
    try:
        valid = bool(np.isfinite(beta) and beta > 0.0)
    except TypeError:  # not a number, such as the string "1e4"
        valid = False
    if not valid:
        raise InvalidPenaltyError(f"penalty must be a finite positive number, got beta={beta!r}")
    matrix, rhs = _penalized(_assemble_parts(mesh, problem), beta, mesh.h)
    return SparseSystem(matrix=matrix, rhs=rhs)


def _solve_at_penalty(system: SparseSystem, beta: float) -> SolveReport:
    """solve_spd for a system assembled with penalty beta.

    A(beta) is positive definite exactly from the mesh's stability
    threshold up, so NotPositiveDefiniteError is re-raised as
    InvalidPenaltyError naming beta, with the solver's message.
    """
    try:
        return solve_spd(system)
    except NotPositiveDefiniteError as err:
        raise InvalidPenaltyError(
            f"penalty beta={beta:g} is below this mesh's stability threshold: {err}"
        ) from err


def min_stable_beta_probe(mesh: ParametricMesh, beta_grid, problem):
    """Tabulate (beta, positive definite?) over a grid of penalty values.

    A(beta) = core + beta/h * penalty with the penalty matrix positive
    semidefinite, so the success set is upward closed in beta.  The probe
    factorizes the largest beta first and, if it is stable, bisects the
    sorted grid for the first stable point: at most 1 + ceil(log2 n)
    factorizations for n points.  Flags of the points it did not factorize
    follow from upward closedness.  The table lists every input beta once,
    in input order, and records where the threshold sits without
    asserting it.  A beta that assemble would reject raises
    InvalidPenaltyError; overflow grows with beta, so checking the largest
    first catches it anywhere in the grid.
    """
    betas = np.asarray(beta_grid, dtype=float)
    if betas.size == 0 or not np.all(np.isfinite(betas) & (betas > 0.0)):
        raise InvalidPenaltyError(f"beta grid must be nonempty, finite and positive, got {betas}")
    parts = _assemble_parts(mesh, problem)
    order = np.argsort(betas, kind="stable")

    def stable(position):
        matrix, _ = _penalized(parts, betas[order[position]], mesh.h)
        return is_positive_definite(matrix)

    # sorted position of the first stable beta; size if even the largest fails
    last = betas.size - 1
    first = bisect.bisect_left(range(last), True, key=stable) if stable(last) else betas.size
    flags = np.empty(betas.size, dtype=bool)
    flags[order] = np.arange(betas.size) >= first
    return [(float(beta), bool(flag)) for beta, flag in zip(betas, flags)]

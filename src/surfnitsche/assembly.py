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

Element rows go straight into unsummed CSR storage: a stable argsort of
the connectivity orders the (element, local row) pairs by global row and
gives each pair a slot, whose columns are the element's int32 node ids.
Each element batch writes its stiffness rows at their slots, each
boundary-edge group subtracts its consistency matrices there in place,
and sum_duplicates sorts and sums each row, bitwise as a COO to CSR
conversion of the element blocks would.  Only the connectivity is
sorted; no (element, i, j) entry is keyed to a slot of a summed pattern.
The penalty matrices of the boundary elements are stored the same way,
and A(beta) adds them on the core's pattern (see _penalized).
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidPenaltyError, NotPositiveDefiniteError, float_array
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
    # position in core.data of each entry of penalty.data
    penalty_slots: np.ndarray


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
    keeps every stiffness matrix exactly symmetric, and the consistency
    matrix C + C^T subtracted from it is exactly symmetric too, so each
    element matrix, stiffness minus consistency, is exactly symmetric.  So
    is the assembled matrix: an off-diagonal entry sums the terms of the at
    most two elements holding both its nodes, and a + b = b + a exactly.
    (Two cells around the tube, n_div = 2, put node pairs in four elements,
    whose sums may round differently in (i, j) and (j, i).)
    """
    return 0.5 * (local + local.transpose(0, 2, 1))


def _row_order(conn):
    """The (element, local row) pairs by global row, each row's pairs in element order."""
    return np.argsort(conn.ravel(), kind="stable")


def _summed_csr(rows, conn, order, n):
    """CSR matrix of element rows (pairs, m) stored in ``order``, duplicates summed.

    ``order`` is _row_order(conn), and slot s holds the row of element
    e = order[s] // m over the columns conn[e], so the unsummed storage is
    already CSR.  Each row's entries sit in (element, local row, local
    column) order, the order a COO to CSR conversion of the element blocks
    keeps, and sum_duplicates sorts and sums them as that conversion does:
    the result is bitwise equal to it.
    """
    m = conn.shape[1]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(conn.ravel(), minlength=n) * m)])
    matrix = sp.csr_matrix((rows.ravel(), conn[order // m].ravel(), indptr), shape=(n, n))
    matrix.sum_duplicates()
    return matrix


def _assemble_parts(mesh: ParametricMesh, problem) -> _Parts:
    degree = assembly_degree(mesh.order)
    rule = triangle_rule(degree)
    stiffness_table = _stiffness_table(reference_element(mesh.order).grad(rule.points))

    n = mesh.num_nodes
    # int32 ids are what scipy stores; int64 ids would be copied down
    conn = mesh.elements.astype(np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    m = conn.shape[1]
    # each (element, local row) pair's slot in the order by global row
    order = _row_order(conn)
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    slot = slot.reshape(conn.shape)
    rows = np.empty((conn.size, m))
    rhs_core = np.zeros(n)
    rhs_penalty = np.zeros(n)

    for ids, bundle in element_batches(mesh, rule):
        scale = rule.weights[None, :] * bundle.area_factor
        inv = bundle.inv_metric
        metric_weights = scale[..., None] * np.stack(
            [inv[..., 0, 0], inv[..., 1, 1], inv[..., 0, 1]], axis=-1
        )
        block = metric_weights.reshape(len(ids), -1) @ stiffness_table
        rows[slot[ids]] = _symmetric(block.reshape(len(ids), m, m))
        f_vals = problem.load_at(bundle.position)
        np.add.at(rhs_core, conn[ids].ravel(), ((scale * f_vals) @ bundle.values).ravel())

    # the penalty lives on the boundary elements only: their own element rows
    pen_ids, pen_local = [np.empty(0, dtype=int)], [np.empty((0, m, m))]
    for side, ids, edge, scale in edge_batches(mesh, edge_rule(degree)):
        covector = edge.reference_components(edge.conormal)
        flux = (edge.grads @ covector[..., None])[..., 0]
        consistency = (scale[..., None] * flux).transpose(0, 2, 1) @ edge.values
        # ids are unique within a group, so no consistency block is lost
        rows[slot[ids]] -= consistency + consistency.transpose(0, 2, 1)
        pen_ids.append(ids)
        pen_local.append(_symmetric((edge.values.T * scale[:, None, :]) @ edge.values))

        weighted_g = scale * _boundary_data(problem, side, edge)
        np.add.at(rhs_core, conn[ids].ravel(), -(weighted_g[:, None, :] @ flux).ravel())
        np.add.at(rhs_penalty, conn[ids].ravel(), (weighted_g @ edge.values).ravel())

    core = _summed_csr(rows, conn, order, n)
    pen_conn = conn[np.concatenate(pen_ids)]
    pen_order = _row_order(pen_conn)
    pen_rows = np.concatenate(pen_local).reshape(-1, m)[pen_order]
    penalty = _summed_csr(pen_rows, pen_conn, pen_order, n)
    return _Parts(
        core=core,
        penalty=penalty,
        rhs_core=rhs_core,
        rhs_penalty=rhs_penalty,
        penalty_slots=_slots_in(core, penalty),
    )


def _slots_in(core, penalty):
    """Position in core.data of every entry of penalty, whose pattern lies in core's.

    Both matrices are canonical, so on the rows the penalty touches the
    keys row * n + column of the core's entries increase, and a binary
    search finds each penalty entry among them; the other rows' entries
    are never gathered.
    """
    n = core.shape[1]
    counts = np.diff(penalty.indptr)
    touched = np.flatnonzero(counts)
    starts, core_counts = core.indptr[touched], np.diff(core.indptr)[touched]
    # positions of the touched rows' core entries, row after row
    positions = np.repeat(starts - np.cumsum(core_counts) + core_counts, core_counts)
    positions += np.arange(positions.size)
    local_row = np.arange(touched.size, dtype=np.int64)
    core_keys = np.repeat(local_row, core_counts) * n + core.indices[positions]
    penalty_keys = np.repeat(local_row, counts[touched]) * n + penalty.indices
    return positions[np.searchsorted(core_keys, penalty_keys)]


def _boundary_data(problem, side, edge):
    """g(q(x)) (e,q) at the points x of an edge batch on one boundary side."""
    g_vals = problem.dirichlet_at(problem.project_to_boundary(edge.position.reshape(-1, 3), side))
    return g_vals.reshape(edge.position.shape[:-1])


def _penalized(parts: _Parts, beta: float, h: float):
    """A = core + beta/h * penalty and b = rhs_core + beta/h * rhs_penalty.

    A is stored on the core's pattern, whose index arrays it shares: a
    copy of core.data with beta/h * penalty.data added at the penalty's
    slots.  Entries that come out exactly zero are dropped, into new index
    arrays, so A is bitwise scipy's ``core + beta/h * penalty``.

    Raises InvalidPenaltyError, without a floating-point warning, when
    beta is so large that an entry of A or the norm of b overflows.
    """
    weight = beta / h
    core = parts.core
    with np.errstate(over="ignore", invalid="ignore"):
        data = core.data.copy()
        data[parts.penalty_slots] += weight * parts.penalty.data
        rhs = parts.rhs_core + weight * parts.rhs_penalty
        overflow = not (np.all(np.isfinite(data)) and np.isfinite(rhs @ rhs))
    if overflow:
        raise InvalidPenaltyError(f"penalty beta={float(beta)} is too large: the system overflows")
    indices, indptr = core.indices, core.indptr
    kept = data != 0.0
    if not kept.all():
        # entries kept before each row start
        indptr = np.concatenate([[0], np.cumsum(kept)]).astype(indptr.dtype)[indptr]
        data, indices = data[kept], indices[kept]
    return sp.csr_matrix((data, indices, indptr), shape=core.shape), rhs


def _check_penalty(beta):
    """beta as a float; InvalidPenaltyError unless it is a finite positive number."""
    got = f"got beta={beta!r}"
    value = float_array(f"penalty ({got})", beta, (), finite=True, error=InvalidPenaltyError)
    if not value > 0.0:
        raise InvalidPenaltyError(f"penalty must be a finite positive number, {got}")
    return value


def assemble(mesh: ParametricMesh, beta: float, problem) -> SparseSystem:
    """Assemble the Nitsche system with penalty weight beta / h.

    beta must be a finite positive number, small enough that the system
    does not overflow; otherwise InvalidPenaltyError names it.
    """
    _check_penalty(beta)
    matrix, rhs = _penalized(_assemble_parts(mesh, problem), beta, mesh.h)
    # sum_duplicates leaves a view of the unsummed ids when few were duplicates; free them
    if matrix.indices.base is not None and matrix.indices.base.size > matrix.indices.size:
        matrix.indices = matrix.indices.copy()
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
    asserting it.  Every grid entry goes through assemble's beta check,
    and an overflowing beta raises InvalidPenaltyError too: overflow grows
    with beta, so checking the largest first catches it anywhere in the grid.
    """
    try:
        grid = float_array(f"beta grid {beta_grid!r}", beta_grid, error=InvalidPenaltyError)
    except InvalidPenaltyError:
        # a string, complex or ragged entry names itself, as in assemble
        if np.iterable(beta_grid) and not isinstance(beta_grid, str):
            for beta in beta_grid:
                _check_penalty(beta)
        raise
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidPenaltyError(f"beta grid must be a nonempty sequence, got {beta_grid!r}")
    betas = np.array([_check_penalty(beta) for beta in beta_grid])
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

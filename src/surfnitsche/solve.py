"""Symmetric positive definite solves for assembled systems.

Every solve runs one preconditioned conjugate-gradient loop to one fixed
relative residual, REL_TOL = 1e-12 (||A x - b|| <= REL_TOL ||b||); it is
not a parameter.  The method picks the preconditioner.  "direct" (up to
2000 unknowns under "auto") uses a sparse factorization of A itself, so
one iteration meets REL_TOL; it stops after 4.  "cg" uses the inverse
diagonal (Jacobi) and stops after 50 iterations per unknown.  When the
recursive residual meets REL_TOL the loop recomputes b - A x; that true
residual is the one checked and reported, and the iteration restarts
from it if rounding left it above REL_TOL.

The direct factorization is SuperLU with a symmetric fill-reducing
ordering (minimum degree on A^T + A) and pivots taken from the diagonal
only, so P A P^T = L U with U = D L^T.  By Sylvester's law of inertia
the signs of diag(U) are the signs of the eigenvalues of A: one
factorization both preconditions and decides definiteness
(is_positive_definite), which is also how the assembly module probes the
penalty threshold.

Vector norms and the conjugate-gradient dot products use numpy's own
pairwise summation, not BLAS.  A threaded BLAS splits every long dot
product over its threads, which costs a thread wake-up per call and
keeps the other threads spinning between calls, for thousands of calls
per solve; it also makes the rounding, and with it the iteration count,
depend on the BLAS thread count.  With pairwise sums the iteration
count does not depend on it.

Large systems on the Jacobi path run each iteration on two threads,
each owning one contiguous half of the rows: the sparse product of its
rows, its part of every vector update and of the preconditioner, and its
partial dot products.  Both the sparse product and the vector updates
are bound by memory bandwidth, which a second core nearly doubles.  The
rows are split where np.add.reduce makes its first pairwise split (n//2
rounded down to a multiple of 8), so the left partial plus the right
partial is bit for bit the sum over the whole vector.  The row-wise
updates and the sparse product of a row range are the same operations
on the same entries in either case, so iterates, iteration count and
residual do not depend on whether the rows are split, on the number of
CPUs or on thread scheduling.  The iteration has four phases (sparse
product; x and r updates; preconditioner, after the residual check;
direction update), each ending when both halves are done.  The second
thread lives only for the duration of one solve.
"""
from __future__ import annotations

import os
from concurrent import futures
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    InvalidArgumentError,
    MaxIterationsExceededError,
    NotPositiveDefiniteError,
    float_array,
)

REL_TOL = 1e-12
DIRECT_DIM_LIMIT = 2000
# PCG splits its rows over two threads from this many unknowns up.  The
# second thread costs a hand-off of about 65 us per phase, four per
# iteration.  With three phases, on a 2-vCPU VM the split made the k = 2
# torus system at 32,896 unknowns 11 % slower, those at 41,616 (k = 3)
# and 51,360 (k = 2) 5 % faster and the k = 3 system at 73,920 unknowns
# 42 % faster.  Must stay above 128: shorter arrays are summed without a
# pairwise split.
_SPLIT_MIN_DIM = 40_000


@dataclass
class SolveReport:
    """A solve's result.  ``iterations`` counts conjugate-gradient iterations
    (restarts included): 1 for a direct solve that met REL_TOL at once, 0
    for a zero rhs.  ``relative_residual`` is the true ||b - A x|| / ||b||."""

    solution: np.ndarray
    iterations: int
    relative_residual: float
    method: str


def solve_spd(system, method: str = "auto") -> SolveReport:
    """Solve an assembled :class:`~surfnitsche.assembly.SparseSystem`."""
    return solve_linear(system.matrix, system.rhs, method=method)


def solve_linear(matrix, rhs, method: str = "auto") -> SolveReport:
    """Solve A x = b for symmetric positive definite A to REL_TOL.

    method: "auto" picks "direct" (CG preconditioned by a sparse
    symmetric factorization) for dim <= 2000 and "cg" (Jacobi-
    preconditioned CG) otherwise; both can be forced explicitly.  A
    non-square matrix, an rhs of another length, a non-real or non-finite
    entry or an rhs whose norm overflows raises InvalidArgumentError; a
    residual above REL_TOL at the iteration cap raises
    MaxIterationsExceededError, as does a nonsymmetric matrix on "direct"
    (its factor is that of A^T).
    """
    rhs = float_array("rhs", rhs, finite=True)
    matrix = _checked_matrix(matrix, rhs.shape)
    dim = matrix.shape[0]
    with np.errstate(over="ignore"):
        if not np.isfinite(norm_rhs := _norm(rhs)):
            raise InvalidArgumentError("rhs norm overflows")
    if method == "auto":
        method = "direct" if dim <= DIRECT_DIM_LIMIT else "cg"
    if method == "direct":
        factor = _factorize_spd(matrix)

        def precondition(r, z, rows):  # acts on the whole vector: never split
            z[:] = factor.solve(r)

        bounds, max_iter, tag = (0, dim), 4, "direct"
    elif method == "cg":
        diag = matrix.diagonal()
        if np.any(diag <= 0.0):
            raise NotPositiveDefiniteError("nonpositive diagonal entry")
        inv_diag = 1.0 / diag
        del diag  # the solve reads inv_diag only

        def precondition(r, z, rows):
            np.multiply(inv_diag[rows], r, out=z)

        split = dim >= _SPLIT_MIN_DIM and _usable_cpus() >= 2
        bounds = (0, _pairwise_split(dim), dim) if split else (0, dim)
        max_iter, tag = 50 * dim, "iterative"
    else:
        raise InvalidArgumentError(f"unknown method {method!r}")
    x, iterations, residual = _pcg(matrix, rhs, norm_rhs, precondition, bounds, max_iter)
    return SolveReport(solution=x, iterations=iterations, relative_residual=residual, method=tag)


def _checked_matrix(matrix, rhs_shape=None):
    """matrix as a float sp.csr_matrix; InvalidArgumentError unless it is real,
    square, finite and as long as an rhs of ``rhs_shape``."""
    if not sp.issparse(matrix):
        matrix = float_array("matrix", matrix)
    try:
        matrix = sp.csr_matrix(matrix)
    except (TypeError, ValueError):
        raise InvalidArgumentError("matrix must be a 2-D array or sparse matrix") from None
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or rhs_shape not in (None, (dim,)):
        raise InvalidArgumentError(
            f"matrix of shape {matrix.shape} is not square"
            if rhs_shape is None
            else f"matrix of shape {matrix.shape} and rhs of shape {rhs_shape} "
            "do not form a square system"
        )
    matrix.data = float_array("matrix", matrix.data, finite=True)
    return matrix


def _dot(a, b):
    """a . b by pairwise summation, without a BLAS call."""
    return np.add.reduce(a * b)


def _norm(a):
    return np.sqrt(_dot(a, a))


def _factorize_spd(matrix):
    """SuperLU factor of a checked CSR matrix that must be positive definite.

    SuperLU factors A^T, the CSR arrays read in place as CSC, which is A
    for the exactly symmetric assembled systems.  NotPositiveDefiniteError
    when the factor is singular, when SuperLU had to pivot off the
    diagonal (a zero diagonal pivot, which a positive definite matrix never
    produces), or when a pivot of U is not positive; the message then
    counts the negative eigenvalues.
    """
    if not matrix.has_canonical_format:
        matrix = matrix.copy()  # splu sorts and sums duplicates in place
    try:
        factor = spla.splu(
            matrix.T,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise NotPositiveDefiniteError(f"singular matrix: {exc}") from None
    if not np.array_equal(factor.perm_r, factor.perm_c):
        raise NotPositiveDefiniteError("zero pivot on the diagonal; the matrix is indefinite")
    pivots = factor.U.diagonal()
    if not np.all(pivots > 0.0):
        raise NotPositiveDefiniteError(
            f"{np.count_nonzero(pivots < 0.0)} negative eigenvalues of {len(pivots)}"
        )
    return factor


def is_positive_definite(matrix) -> bool:
    """True if the symmetric matrix is positive definite.

    Decided by one sparse factorization with diagonal pivoting (see the
    module docstring); no size cap, and singular or indefinite input gives
    False.
    """
    try:
        _factorize_spd(_checked_matrix(matrix))
    except NotPositiveDefiniteError:
        return False
    return True


def _pcg(matrix, rhs, norm_rhs, precondition, bounds, max_iter):
    """Preconditioned CG from x = 0: (x, iterations, true relative residual).

    norm_rhs is ||rhs||; precondition(r, z, rows) sets z = M^-1 r on the
    row slice ``rows``; ``bounds`` are the row blocks, one per thread.
    M^-1 is applied after the residual check, so the iteration that
    converges applies none.
    """
    dim = rhs.shape[0]
    x = np.zeros(dim)
    if norm_rhs == 0.0:
        return x, 0, 0.0
    r = rhs.copy()
    z = np.empty(dim)
    precondition(r, z, slice(0, dim))
    p = z.copy()
    rz = _dot(r, z)
    blocks = [_RowBlock(matrix, lo, hi, x, r, z, p) for lo, hi in zip(bounds, bounds[1:])]
    # futures.ThreadPoolExecutor is imported on first use, not with this module.
    with futures.ThreadPoolExecutor(max_workers=1) if len(blocks) > 1 else nullcontext() as pool:
        iterations = 0
        while iterations < max_iter:
            iterations += 1
            (curvature,) = _on_blocks(pool, blocks, _RowBlock.apply, p)
            if curvature <= 0.0:
                raise NotPositiveDefiniteError(
                    f"negative curvature at iteration {iterations}"
                )
            alpha = rz / curvature
            (rr,) = _on_blocks(pool, blocks, _RowBlock.step, alpha)
            if np.sqrt(rr) <= REL_TOL * norm_rhs:
                # Recursive residual met the target; verify the true residual
                # and restart from scratch if rounding drifted it above.
                r[:] = rhs - matrix @ x
                residual = float(_norm(r) / norm_rhs)
                if residual <= REL_TOL:
                    return x, iterations, residual
                precondition(r, z, slice(0, dim))
                p[:] = z
                rz = _dot(r, z)
                continue
            (rz_next,) = _on_blocks(pool, blocks, _RowBlock.precondition, precondition)
            _on_blocks(pool, blocks, _RowBlock.turn, rz_next / rz)
            rz = rz_next
    raise MaxIterationsExceededError(f"no convergence within {max_iter} iterations")


def _pairwise_split(n):
    """Where np.add.reduce first halves a contiguous array of n > 128 entries."""
    half = n // 2
    return half - half % 8


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _RowBlock:
    """One contiguous row range of a PCG iteration, as views into the full vectors."""

    def __init__(self, matrix, lo, hi, x, r, z, p):
        # A CSR row slice whose data and column indices are views of the
        # matrix's, so every row keeps its entries and their order.  They
        # are set after construction: the constructor copies a view shorter
        # than half of its base.
        start, stop = matrix.indptr[lo], matrix.indptr[hi]
        self.rows = sp.csr_matrix((hi - lo, matrix.shape[1]))
        self.rows.data = matrix.data[start:stop]
        self.rows.indices = matrix.indices[start:stop]
        self.rows.indptr = matrix.indptr[lo : hi + 1] - start
        self.x, self.r, self.z, self.p = x[lo:hi], r[lo:hi], z[lo:hi], p[lo:hi]
        self.span = slice(lo, hi)
        self.ap = None

    def apply(self, p):
        """This block of A p, and its part of p . A p."""
        self.ap = self.rows @ p
        return (_dot(self.p, self.ap),)

    def step(self, alpha):
        """x and r updates; part of r . r."""
        self.x += alpha * self.p
        self.r -= alpha * self.ap
        return (_dot(self.r, self.r),)

    def precondition(self, precondition):
        """z = M^-1 r on this block's rows; part of r . z."""
        precondition(self.r, self.z, self.span)
        return (_dot(self.r, self.z),)

    def turn(self, beta):
        """New search direction p = z + beta p."""
        self.p *= beta
        self.p += self.z
        return ()


def _on_blocks(pool, blocks, phase, arg):
    """phase(block, arg) on every block, the second one on the pool's thread.

    Returns the partial sums of the blocks added left + right.
    """
    if pool is None:
        return phase(blocks[0], arg)
    right = pool.submit(phase, blocks[1], arg)
    try:
        left = phase(blocks[0], arg)
    finally:
        right_parts = right.result()
    return tuple(a + b for a, b in zip(left, right_parts))

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
thread lives only for the duration of one solve; it is handed each
phase through two plain locks, and an exception it raises is raised
again in the caller.

No phase allocates.  Every vector, A p and one work vector included, is
allocated once per solve, and each row block works in its slice of
them: products and dot products write through ``out=`` into the work
vector, and the sparse product of a block's rows is scipy's own CSR
kernel (the one ``matrix @ vector`` calls) writing into its slice of
A p.  These are the operations ``rows @ p``, ``alpha * p`` and
``np.add.reduce(a * b)`` make, on the same entries in the same order,
without a fresh array or scipy's Python dispatch per phase.  The
true-residual check uses the same kernel and vectors.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import (
    InvalidArgumentError,
    MaxIterationsExceededError,
    NotPositiveDefiniteError,
    choice,
    float_array,
)

REL_TOL = 1e-12
DIRECT_DIM_LIMIT = 2000
# PCG splits its rows over two threads from this many unknowns up.  The
# second thread costs a hand-off of about 18 us per phase, four per
# iteration.  On a 2-vCPU VM (medians of 6 to 8 alternating solves; a
# range where two sets were run) the split took this share of the
# one-block time on the torus systems: k = 3 at 18,528 unknowns 1.05,
# k = 3 at 28,920 0.90-0.95, k = 2 at 32,896 1.01-1.04, k = 3 at 41,616
# 0.77-0.79, k = 2 at 51,360 0.82 and k = 3 at 73,920 0.72; below 13,000
# unknowns it is slower by a third or more.  Must stay above 128: shorter
# arrays are summed without a pairwise split.
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
    method = choice("method", method, ("auto", "direct", "cg"))
    if method == "auto":
        method = "direct" if dim <= DIRECT_DIM_LIMIT else "cg"
    if method == "direct":
        factor = _factorize_spd(matrix)

        def precondition(r, z, rows):  # acts on the whole vector: never split
            z[:] = factor.solve(r)

        bounds, max_iter, tag = (0, dim), 4, "direct"
    else:
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


def _dot(a, b, work=None):
    """a . b by pairwise summation, without a BLAS call; a * b is formed in
    ``work`` if given, else in a new array."""
    return np.add.reduce(np.multiply(a, b, out=work))


def _norm(a, work=None):
    return np.sqrt(_dot(a, a, work))


def _matvec(matrix, v, out):
    """out = matrix @ v for a CSR matrix, bit for bit, without allocating.

    The kernel is the one ``matrix @ v`` calls; it adds the products to its
    output, so that is zeroed first.
    """
    out.fill(0.0)
    _sparsetools.csr_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, v, out)
    return out


def _factorize_spd(matrix):
    """SuperLU factor of a checked CSR matrix that must be positive definite.

    SuperLU factors A^T, the CSR arrays read in place as CSC, which is A
    for the exactly symmetric assembled systems.  NotPositiveDefiniteError
    when the factor is singular, when SuperLU had to pivot off the
    diagonal (a zero diagonal pivot, which a positive definite matrix never
    produces), or when a pivot of U is not positive; the message then
    counts the negative eigenvalues.
    """
    import scipy.sparse.linalg as spla  # here, so that mesh-only runs never load it

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
    z, p, ap, work = (np.empty(dim) for _ in range(4))  # ap holds A p
    precondition(r, z, slice(0, dim))
    p[:] = z
    rz = _dot(r, z, work)
    vectors = (x, r, z, p, ap, work)
    blocks = [_RowBlock(matrix, lo, hi, *vectors) for lo, hi in zip(bounds, bounds[1:])]
    worker = _Worker(blocks[1]) if len(blocks) > 1 else None
    try:
        iterations = 0
        while iterations < max_iter:
            iterations += 1
            curvature = _on_blocks(worker, blocks, _RowBlock.apply, p)
            if curvature <= 0.0:
                raise NotPositiveDefiniteError(
                    f"negative curvature at iteration {iterations}"
                )
            alpha = rz / curvature
            rr = _on_blocks(worker, blocks, _RowBlock.step, alpha)
            if np.sqrt(rr) <= REL_TOL * norm_rhs:
                # Recursive residual met the target; verify the true residual
                # and restart from scratch if rounding drifted it above.
                np.subtract(rhs, _matvec(matrix, x, ap), out=r)
                residual = float(_norm(r, work) / norm_rhs)
                if residual <= REL_TOL:
                    return x, iterations, residual
                precondition(r, z, slice(0, dim))
                p[:] = z
                rz = _dot(r, z, work)
                continue
            rz_next = _on_blocks(worker, blocks, _RowBlock.precondition, precondition)
            _on_blocks(worker, blocks, _RowBlock.turn, rz_next / rz)
            rz = rz_next
    finally:
        if worker is not None:
            worker.close()
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
    """One contiguous row range of a PCG iteration, as views into the full
    vectors x, r, z, p, A p and a work vector; no phase allocates."""

    def __init__(self, matrix, lo, hi, x, r, z, p, ap, work):
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
        self.ap, self.work = ap[lo:hi], work[lo:hi]
        self.span = slice(lo, hi)

    def apply(self, p):
        """This block of A p, and its part of p . A p."""
        _matvec(self.rows, p, self.ap)
        return _dot(self.p, self.ap, self.work)

    def step(self, alpha):
        """x and r updates; part of r . r."""
        self.x += np.multiply(alpha, self.p, out=self.work)
        self.r -= np.multiply(alpha, self.ap, out=self.work)
        return _dot(self.r, self.r, self.work)

    def precondition(self, precondition):
        """z = M^-1 r on this block's rows; part of r . z."""
        precondition(self.r, self.z, self.span)
        return _dot(self.r, self.z, self.work)

    def turn(self, beta):
        """New search direction p = z + beta p."""
        self.p *= beta
        self.p += self.z


class _Worker:
    """A thread that runs the phases of one row block, for one solve.

    Two plain locks hand each phase over: ``submit`` releases ``_go``,
    which the thread waits on, and the thread releases ``_done`` once the
    phase has returned or raised.  ``result`` waits for that and re-raises
    the phase's exception.  Call ``close`` to end the thread.
    """

    def __init__(self, block):
        self._block = block
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._task = self._outcome = None
        self._pending = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            self._go.acquire()
            if self._task is None:
                return
            phase, arg = self._task
            try:
                self._outcome = (phase(self._block, arg), None)
            except BaseException as exc:  # raised again by result(), in the caller
                self._outcome = (None, exc)
            self._done.release()

    def submit(self, phase, arg):
        """Start phase(block, arg) on the thread."""
        self._task = (phase, arg)
        self._pending = True
        self._go.release()

    def result(self):
        """What the submitted phase returned; its exception if it raised."""
        self._done.acquire()
        self._pending = False
        (value, error), self._outcome = self._outcome, None
        if error is not None:
            raise error
        return value

    def close(self):
        """Wait for a phase still running, then end and join the thread."""
        if self._pending:
            self._done.acquire()
        self._task = None
        self._go.release()
        self._thread.join()


def _on_blocks(worker, blocks, phase, arg):
    """phase(block, arg) on every block, the second one on the worker's thread.

    Returns the blocks' partial sums added left + right, or None for a
    phase that returns none.
    """
    if worker is None:
        return phase(blocks[0], arg)
    worker.submit(phase, arg)
    try:
        left = phase(blocks[0], arg)
    finally:
        right = worker.result()
    return None if left is None else left + right

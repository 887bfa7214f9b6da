"""Symmetric positive definite solves for assembled systems.

Systems up to 2000 unknowns go through a sparse direct factorization
(with iterative refinement to push the residual to the requested
tolerance); larger ones through Jacobi-preconditioned conjugate
gradients.  Both paths re-evaluate the final residual independently of
the iteration before reporting success.

The direct factorization is SuperLU with a symmetric fill-reducing
ordering (minimum degree on A^T + A) and pivots taken from the diagonal
only, so P A P^T = L U with U = D L^T.  By Sylvester's law of inertia
the signs of diag(U) are the signs of the eigenvalues of A: one
factorization both solves and decides definiteness, which is also how
the assembly module probes the penalty threshold.

Vector norms and the conjugate-gradient dot products use numpy's own
pairwise summation, not BLAS.  A threaded BLAS splits every long dot
product over its threads, which costs a thread wake-up per call and
keeps the other threads spinning between calls, for thousands of calls
per solve; it also makes the rounding, and with it the iteration count,
depend on the BLAS thread count.  With pairwise sums the iteration
count does not depend on it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidArgumentError, MaxIterationsExceededError, NotPositiveDefiniteError

DIRECT_DIM_LIMIT = 2000


@dataclass
class SolveReport:
    solution: np.ndarray
    iterations: int
    relative_residual: float
    method: str


def solve_spd(system, rel_tol: float = 1e-12, method: str = "auto") -> SolveReport:
    """Solve an assembled :class:`~surfnitsche.assembly.SparseSystem`."""
    return solve_linear(system.matrix, system.rhs, rel_tol=rel_tol, method=method)


def solve_linear(matrix, rhs, rel_tol: float = 1e-12, method: str = "auto") -> SolveReport:
    """Solve A x = b for symmetric positive definite A.

    method: "auto" picks "direct" (sparse symmetric factorization) for
    dim <= 2000 and "cg" otherwise; both can be forced explicitly.
    """
    if not 0.0 < rel_tol < 1.0:
        raise InvalidArgumentError(f"rel_tol must be in (0, 1), got {rel_tol}")
    rhs = np.asarray(rhs, dtype=float)
    dim = rhs.shape[0]
    if method == "auto":
        method = "direct" if dim <= DIRECT_DIM_LIMIT else "cg"
    if method == "direct":
        x, iters = _direct_solve(matrix, rhs, rel_tol)
        tag = "direct"
    elif method == "cg":
        x, iters = _jacobi_pcg(matrix, rhs, rel_tol)
        tag = "iterative"
    else:
        raise InvalidArgumentError(f"unknown method {method!r}")
    residual = _relative_residual(matrix, x, rhs)
    if residual > rel_tol:
        raise MaxIterationsExceededError(
            f"final residual {residual:.3e} above tolerance {rel_tol:.3e}"
        )
    return SolveReport(solution=x, iterations=iters, relative_residual=residual, method=tag)


def _dot(a, b):
    """a . b by pairwise summation, without a BLAS call."""
    return np.add.reduce(a * b)


def _norm(a):
    return np.sqrt(_dot(a, a))


def _relative_residual(matrix, x, rhs):
    norm_rhs = _norm(rhs)
    if norm_rhs == 0.0:
        return 0.0
    return float(_norm(matrix @ x - rhs) / norm_rhs)


def _factorize_spd(matrix):
    """SuperLU factor of a symmetric matrix that must be positive definite.

    Raises NotPositiveDefiniteError when the factor is singular, when
    SuperLU had to pivot off the diagonal (a zero diagonal pivot, which a
    positive definite matrix never produces), or when a pivot of U is not
    positive; the message then counts the negative eigenvalues.
    """
    matrix = sp.csc_matrix(matrix, dtype=float)
    try:
        factor = spla.splu(
            matrix,
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


def _direct_solve(matrix, rhs, rel_tol):
    factor = _factorize_spd(matrix)
    x = factor.solve(rhs)
    # Iterative refinement: a couple of cheap triangular solves buy back
    # the digits lost to the condition number.
    for _ in range(3):
        if _relative_residual(matrix, x, rhs) <= rel_tol:
            break
        x = x + factor.solve(rhs - matrix @ x)
    return x, 0


def _jacobi_pcg(matrix, rhs, rel_tol):
    matrix = sp.csr_matrix(matrix)
    dim = rhs.shape[0]
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise NotPositiveDefiniteError("nonpositive diagonal entry")
    inv_diag = 1.0 / diag
    norm_rhs = _norm(rhs)
    x = np.zeros(dim)
    if norm_rhs == 0.0:
        return x, 0
    max_iter = 50 * dim
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    rz = _dot(r, z)
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        ap = matrix @ p
        curvature = _dot(p, ap)
        if curvature <= 0.0:
            raise NotPositiveDefiniteError(
                f"negative curvature at iteration {iterations}"
            )
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * ap
        if _norm(r) <= rel_tol * norm_rhs:
            # Recursive residual met the target; verify the true residual
            # and restart from scratch if rounding drifted it above.
            true_r = rhs - matrix @ x
            if _norm(true_r) <= rel_tol * norm_rhs:
                return x, iterations
            r = true_r
            z = inv_diag * r
            p = z.copy()
            rz = _dot(r, z)
            continue
        z = inv_diag * r
        rz_next = _dot(r, z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise MaxIterationsExceededError(f"no convergence within {max_iter} iterations")

import numpy as np
import pytest
import scipy.sparse as sp

from surfnitsche import geometry as geo
from surfnitsche.assembly import assemble
from surfnitsche.errors import MaxIterationsExceededError, NotPositiveDefiniteError
from surfnitsche.mesh import build_mesh
from surfnitsche.solve import solve_linear, solve_spd


def random_spd(dim, seed):
    rng = np.random.default_rng(seed)
    factor = rng.normal(size=(dim, dim))
    return factor @ factor.T + dim * np.eye(dim)


class TestSolvePaths:
    def test_identity_single_iteration(self):
        matrix = sp.identity(50, format="csr")
        rhs = np.arange(50, dtype=float)
        report = solve_linear(matrix, rhs, method="cg")
        assert report.iterations <= 1
        np.testing.assert_allclose(report.solution, rhs, atol=1e-14)

    @pytest.mark.parametrize("method", ["direct", "cg"])
    def test_two_by_two(self, method):
        matrix = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        report = solve_linear(matrix, np.array([3.0, 3.0]), method=method)
        np.testing.assert_allclose(report.solution, [1.0, 1.0], atol=1e-12)

    def test_cg_matches_cholesky(self):
        matrix = sp.csr_matrix(random_spd(200, seed=0))
        rhs = np.random.default_rng(1).normal(size=200)
        direct = solve_linear(matrix, rhs, method="direct")
        iterative = solve_linear(matrix, rhs, method="cg", rel_tol=1e-12)
        assert direct.method == "direct"
        assert iterative.method == "iterative"
        np.testing.assert_allclose(iterative.solution, direct.solution, atol=1e-8)

    def test_auto_switches_on_dimension(self):
        small = sp.csr_matrix(random_spd(40, seed=2))
        assert solve_linear(small, np.ones(40)).method == "direct"
        big = sp.identity(2500, format="csr")
        assert solve_linear(big, np.ones(2500)).method == "iterative"

    def test_forced_direct_above_switch(self):
        # above the auto switch the direct path factorizes the sparse matrix
        problem = geo.TorusProblem()
        system = assemble(build_mesh(32, 2, problem), 1e4, problem)
        assert system.dim == 8256
        direct = solve_spd(system, method="direct")
        assert direct.method == "direct"
        iterative = solve_spd(system, method="cg")
        np.testing.assert_allclose(direct.solution, iterative.solution, atol=1e-8)

    def test_zero_rhs(self):
        matrix = sp.csr_matrix(random_spd(30, seed=3))
        report = solve_linear(matrix, np.zeros(30), method="cg")
        np.testing.assert_allclose(report.solution, 0.0)
        assert report.relative_residual == 0.0


class TestFailureModes:
    def test_indefinite_rejected_by_cg(self):
        matrix = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            solve_linear(matrix, np.array([1.0, -1.0]), method="cg")

    def test_negative_diagonal_rejected(self):
        matrix = sp.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            solve_linear(matrix, np.ones(2), method="cg")

    def test_indefinite_rejected_by_cholesky(self):
        matrix = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            solve_linear(matrix, np.ones(2), method="direct")

    @pytest.mark.parametrize(
        "matrix",
        [np.diag([1.0, 0.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])],
        ids=["zero-row", "zero-diagonal"],
    )
    def test_singular_or_zero_pivot_rejected_by_direct(self, matrix):
        with pytest.raises(NotPositiveDefiniteError):
            solve_linear(sp.csr_matrix(matrix), np.ones(len(matrix)), method="direct")

    def test_unreachable_tolerance_hits_iteration_cap(self):
        # condition number ~ 1e16 makes a 1e-14 residual unreachable
        matrix = sp.csr_matrix(np.array([[1.0, 1.0 - 1e-16], [1.0 - 1e-16, 1.0]]))
        with pytest.raises(MaxIterationsExceededError):
            solve_linear(matrix, np.array([1.0, -0.999]), method="cg", rel_tol=1e-14)

    def test_invalid_tolerance(self):
        matrix = sp.identity(3, format="csr")
        with pytest.raises(ValueError):
            solve_linear(matrix, np.ones(3), rel_tol=2.0)


class TestReportInvariants:
    def test_residual_reverified(self):
        matrix = sp.csr_matrix(random_spd(120, seed=4))
        rhs = np.random.default_rng(5).normal(size=120)
        for method in ("direct", "cg"):
            report = solve_linear(matrix, rhs, method=method, rel_tol=1e-12)
            recomputed = np.linalg.norm(matrix @ report.solution - rhs) / np.linalg.norm(rhs)
            assert report.relative_residual <= 1e-12
            assert recomputed == pytest.approx(report.relative_residual, abs=1e-15)

    def test_cg_on_assembled_system(self):
        # a k = 2 Nitsche system, small enough for a dense reference solve
        problem = geo.TorusProblem()
        system = assemble(build_mesh(4, 2, problem), 1e4, problem)
        report = solve_spd(system, method="cg")
        assert report.method == "iterative"
        dense = np.linalg.solve(system.matrix.toarray(), system.rhs)
        gap = np.linalg.norm(report.solution - dense) / np.linalg.norm(dense)
        assert gap <= 1e-8
        recomputed = np.linalg.norm(
            system.matrix @ report.solution - system.rhs
        ) / np.linalg.norm(system.rhs)
        assert report.relative_residual == pytest.approx(recomputed, rel=1e-12, abs=0.0)

    def test_deterministic(self):
        matrix = sp.csr_matrix(random_spd(150, seed=6))
        rhs = np.random.default_rng(7).normal(size=150)
        first = solve_linear(matrix, rhs, method="cg")
        second = solve_linear(matrix, rhs, method="cg")
        assert first.iterations == second.iterations
        assert np.array_equal(first.solution, second.solution)

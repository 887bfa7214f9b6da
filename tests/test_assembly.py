import re

import numpy as np
import pytest
import scipy.sparse as sp

from surfnitsche import geometry as geo
from surfnitsche.assembly import assemble, min_stable_beta_probe
from surfnitsche.errors import InvalidPenaltyError, NotPositiveDefiniteError
from surfnitsche.mesh import build_mesh
from surfnitsche.solve import is_positive_definite, solve_linear, solve_spd


class ConstantData:
    """The problem with load f = 0 and Dirichlet data g = 1."""

    def __init__(self, problem):
        self._problem = problem

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def load_at(self, points):
        return np.zeros(np.shape(points)[:-1])

    def dirichlet_at(self, points):
        return np.ones(np.shape(points)[:-1])


def relative_asymmetry(matrix):
    gap = np.abs(matrix - matrix.T)
    return gap.max() / np.abs(matrix).max()


class TestSystemStructure:
    @pytest.mark.parametrize(
        "problem,n_div,order",
        [
            (geo.FlatSquareProblem(2), 4, 2),
            (geo.TorusProblem(), 4, 1),
            (geo.TorusProblem(), 4, 3),
        ],
        ids=["flat-k2", "torus-k1", "torus-k3"],
    )
    def test_symmetry(self, problem, n_div, order):
        mesh = build_mesh(n_div, order, problem)
        system = assemble(mesh, 1e4, problem)
        assert relative_asymmetry(system.matrix) <= 1e-12
        assert system.dim == mesh.num_nodes

    def test_constants_in_stiffness_kernel(self, torus_problem):
        # With f = 0 and g = 1 the Nitsche terms of u = 1 and of g cancel
        # row by row (the conormal flux of a constant vanishes), so A 1 = b
        # holds exactly when the stiffness annihilates constants.
        problem = ConstantData(torus_problem)
        mesh = build_mesh(4, 2, problem)
        system = assemble(mesh, 1e4, problem)
        residual = system.matrix @ np.ones(system.dim) - system.rhs
        assert np.abs(residual).max() <= 1e-10 * np.abs(system.matrix).max()

    def test_zero_data_gives_zero_rhs(self):
        problem = geo.FlatSquareProblem(coefficients={})
        mesh = build_mesh(4, 2, problem)
        system = assemble(mesh, 1e4, problem)
        assert np.all(system.rhs == 0.0)

    def test_invalid_beta(self, torus_problem):
        mesh = build_mesh(4, 1, torus_problem)
        with pytest.raises(InvalidPenaltyError):
            assemble(mesh, 0.0, torus_problem)
        with pytest.raises(InvalidPenaltyError):
            assemble(mesh, -1.0, torus_problem)

    # 1e155 and 1e308 are finite, but the squared norm of the rhs overflows
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf, 1e155, 1e308])
    def test_non_finite_beta(self, torus_problem, beta):
        mesh = build_mesh(4, 1, torus_problem)
        with pytest.raises(InvalidPenaltyError, match="beta"):
            assemble(mesh, beta, torus_problem)
        with pytest.raises(InvalidPenaltyError, match="beta"):
            min_stable_beta_probe(mesh, [1.0, beta], torus_problem)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_matrix_names_beta(self):
        # with zero data the rhs stays 0; only the penalty entries overflow
        problem = geo.FlatSquareProblem(coefficients={})
        mesh = build_mesh(4, 2, problem)
        with pytest.raises(InvalidPenaltyError, match="beta"):
            assemble(mesh, 1e308, problem)


class TestNitscheConsistency:
    def test_affine_solution_reproduced_exactly(self):
        # affine fields on exact flat geometry pass through the weak
        # boundary enforcement unchanged
        problem = geo.FlatSquareProblem(coefficients={(1, 0): 1.0, (0, 1): 1.0})
        mesh = build_mesh(2, 1, problem)
        system = assemble(mesh, 1e4, problem)
        dense = np.linalg.solve(system.matrix.toarray(), system.rhs)
        interpolant = problem.solution_at(mesh.nodes)
        np.testing.assert_allclose(dense, interpolant, atol=1e-10)
        report = solve_spd(system)
        np.testing.assert_allclose(report.solution, interpolant, atol=1e-10)

    def test_galerkin_residual(self, torus_problem):
        mesh = build_mesh(4, 2, torus_problem)
        system = assemble(mesh, 1e4, torus_problem)
        report = solve_spd(system)
        residual = np.linalg.norm(system.matrix @ report.solution - system.rhs)
        assert residual <= 1e-12 * np.linalg.norm(system.rhs)

    def test_solver_paths_agree_on_assembled_system(self, torus_problem):
        # the penalty-stiffened rows make this a harder conditioning test
        # than a random SPD matrix
        from surfnitsche.solve import solve_linear

        mesh = build_mesh(8, 2, torus_problem)
        system = assemble(mesh, 1e4, torus_problem)
        cg = solve_linear(system.matrix, system.rhs, method="cg")
        direct = solve_linear(system.matrix, system.rhs, method="direct")
        np.testing.assert_allclose(cg.solution, direct.solution, atol=1e-8)


class TestBetaProbe:
    def test_reference_penalty_positive_definite(self, torus_problem):
        for order in (1, 2, 3):
            mesh = build_mesh(4, order, torus_problem)
            system = assemble(mesh, 1e4, torus_problem)
            assert is_positive_definite(system.matrix)

    def test_probe_upward_closed(self, torus_problem):
        mesh = build_mesh(4, 2, torus_problem)
        table = min_stable_beta_probe(
            mesh, [1e-3, 1e-1, 1e1, 1e3, 1e4, 1e6], torus_problem
        )
        assert table[-1][1]  # the reference penalty succeeds
        flags = [ok for _, ok in table]
        first_success = flags.index(True)
        assert all(flags[first_success:])

    def test_small_beta_recorded(self, torus_problem):
        # tiny penalties are expected to fail, but the probe records rather
        # than asserts the threshold
        mesh = build_mesh(4, 3, torus_problem)
        table = min_stable_beta_probe(mesh, [1e-3, 1e4], torus_problem)
        print(f"beta probe on k=3 mesh: {table}")
        assert table[1][1]

    def test_no_dimension_cap(self, torus_problem):
        mesh = build_mesh(64, 1, torus_problem)
        stable = assemble(mesh, 1e4, torus_problem)
        assert stable.dim == 8256
        assert is_positive_definite(stable.matrix)
        assert not is_positive_definite(assemble(mesh, 1e-3, torus_problem).matrix)

    @pytest.mark.parametrize(
        "matrix",
        [np.diag([1.0, 0.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])],
        ids=["zero-row", "zero-diagonal"],
    )
    def test_singular_or_zero_pivot_not_positive_definite(self, matrix):
        assert not is_positive_definite(sp.csr_matrix(matrix))

    def test_probe_validates_grid(self, torus_problem):
        mesh = build_mesh(4, 1, torus_problem)
        with pytest.raises(InvalidPenaltyError):
            min_stable_beta_probe(mesh, [], torus_problem)
        with pytest.raises(InvalidPenaltyError):
            min_stable_beta_probe(mesh, [-1.0, 1.0], torus_problem)

    # The unsorted grid lists 1e2 twice, and its threshold falls at a
    # different grid point for each k.
    @pytest.mark.parametrize(
        "grid,flag_set",
        [
            ([1e2, 1.0, 1e4, 10.0, 1e2, 30.0, 1e-2, 300.0], {True, False}),
            ([1e-2, 1e4, 1.0], {True, False}),
            ([1e-3, 1e-2, 0.1], {False}),
            ([1e5, 1e3, 1e4], {True}),
            ([1e4], {True}),
            ([1e-3], {False}),
        ],
        ids=[
            "unsorted-duplicate",
            "only-largest-stable",
            "all-unstable",
            "all-stable",
            "one-stable",
            "one-unstable",
        ],
    )
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_probe_matches_full_scan(self, torus_problem, order, grid, flag_set):
        mesh = build_mesh(4, order, torus_problem)
        oracle = [
            (beta, is_positive_definite(assemble(mesh, beta, torus_problem).matrix))
            for beta in grid
        ]
        assert {flag for _, flag in oracle} == flag_set
        assert min_stable_beta_probe(mesh, grid, torus_problem) == oracle

    @pytest.mark.parametrize(
        "grid,most_calls",
        [(np.geomspace(1.0, 1e4, 17), 6), ([1e4], 1), ([1e-3], 1)],
        ids=["17-points", "one-stable", "one-unstable"],
    )
    def test_probe_factorization_count(self, torus_problem, monkeypatch, grid, most_calls):
        calls = []

        def counting(matrix):
            calls.append(matrix.shape)
            return is_positive_definite(matrix)

        monkeypatch.setattr("surfnitsche.assembly.is_positive_definite", counting)
        min_stable_beta_probe(build_mesh(4, 2, torus_problem), grid, torus_problem)
        assert 1 <= len(calls) <= most_calls

    # the probe factorizes the largest beta first, so an overflowing beta
    # raises wherever it sits in the grid
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", [[1e155, 1.0], [1.0, 1e308, 10.0]], ids=["first", "middle"])
    def test_probe_overflow_anywhere_in_grid(self, torus_problem, grid):
        mesh = build_mesh(4, 1, torus_problem)
        with pytest.raises(InvalidPenaltyError, match="beta"):
            min_stable_beta_probe(mesh, grid, torus_problem)


def negative_pivot_count(matrix):
    """Negative eigenvalue count as reported by the direct solve's error message."""
    try:
        solve_linear(matrix, np.ones(matrix.shape[0]), method="direct")
    except NotPositiveDefiniteError as exc:
        match = re.fullmatch(r"(\d+) negative eigenvalues of (\d+)", str(exc))
        assert match, str(exc)
        assert int(match.group(2)) == matrix.shape[0]
        return int(match.group(1))
    return 0


class TestInertia:
    def test_negative_pivots_match_eigvalsh(self, torus_problem):
        mesh = build_mesh(8, 3, torus_problem)
        counts, oracle = [], []
        for beta in (1.0, 10.0, 50.0, 89.0, 100.0, 1e4):
            matrix = assemble(mesh, beta, torus_problem).matrix
            counts.append(negative_pivot_count(matrix))
            oracle.append(int(np.count_nonzero(np.linalg.eigvalsh(matrix.toarray()) < 0.0)))
        assert counts == oracle
        assert counts[0] > 0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_probe_matches_dense_cholesky(self, torus_problem, order):
        mesh = build_mesh(4, order, torus_problem)
        grid = np.geomspace(1.0, 1e4, 9)
        dense_flags = []
        for beta in grid:
            try:
                np.linalg.cholesky(assemble(mesh, beta, torus_problem).matrix.toarray())
                dense_flags.append(True)
            except np.linalg.LinAlgError:
                dense_flags.append(False)
        flags = [ok for _, ok in min_stable_beta_probe(mesh, grid, torus_problem)]
        assert flags == dense_flags
        assert True in flags and False in flags

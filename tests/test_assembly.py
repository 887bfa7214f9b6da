import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from surfnitsche import geometry as geo
from surfnitsche.assembly import (
    _assemble_parts,
    _penalized,
    _row_order,
    _summed_csr,
    assemble,
    min_stable_beta_probe,
)
from surfnitsche.errors import InvalidPenaltyError, MeshInvalidError, NotPositiveDefiniteError
from surfnitsche.mesh import build_mesh
from surfnitsche.solve import is_positive_definite, solve_linear, solve_spd

from conftest import boundary_specs, solution_at, traced_peak


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


def pair_pattern(conn, n):
    """CSR indptr and indices of every (conn_i, conn_j) pair of the given elements."""
    keys = np.unique(conn[:, :, None].astype(np.int64) * n + conn[:, None, :])
    counts = np.bincount(keys // n, minlength=n)
    return np.concatenate([[0], np.cumsum(counts)]), keys % n


class TestElementBlockAssembly:
    """Each matrix is built from element rows stored by global row."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize(
        "problem",
        [geo.TorusProblem(), geo.TorusProblem.simplified(), geo.FlatSquareProblem(2)],
        ids=["wavy", "simplified", "flat"],
    )
    def test_patterns_and_unique_edge_ids(self, problem, order):
        mesh = build_mesh(4, order, problem)
        # each group's consistency blocks are subtracted from the element
        # block by fancy indexing, which keeps one update per repeated id
        for ids in mesh.boundary_edges.values():
            assert len(np.unique(ids)) == len(ids)
        parts = _assemble_parts(mesh, problem)
        boundary = np.concatenate(list(mesh.boundary_edges.values()))
        for matrix, conn in (
            (parts.core, mesh.elements),
            (parts.penalty, mesh.elements[boundary]),
        ):
            indptr, indices = pair_pattern(conn, mesh.num_nodes)
            assert np.array_equal(matrix.indptr, indptr)
            assert np.array_equal(matrix.indices, indices)

    def test_rows_match_coo_conversion(self):
        # random element blocks sum duplicates in a fixed order, so equal
        # bits show that every row keeps the COO conversion's entry order
        rng = np.random.default_rng(19)
        n, m = 40, 6
        conn = np.array([rng.choice(n, m, replace=False) for _ in range(300)], dtype=np.int32)
        blocks = rng.normal(size=(len(conn), m, m))
        rows = np.repeat(conn, m, axis=1).ravel()
        cols = np.tile(conn, (1, m)).ravel()
        expected = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        order = _row_order(conn)
        matrix = _summed_csr(blocks.reshape(-1, m)[order], conn, order, n)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(matrix, name), getattr(expected, name))

    def test_memory_bounded(self, torus_problem):
        # about 11.9 MiB, reached in the element loop (15.4 MiB with the
        # element block and its COO to CSR conversion)
        mesh = build_mesh(32, 3, torus_problem)
        parts, peak = traced_peak(lambda: _assemble_parts(mesh, torus_problem))
        assert peak <= 20 * 2**20
        assert parts.core.indices.dtype == np.int32
        assert parts.penalty.indices.dtype == np.int32

    def test_assemble_memory_bounded(self, torus_problem):
        # k = 3 at n_div 64, 73,920 dof: 1.6x, with the penalty added into
        # the core's data in place; a copy of the core's data took 2.1x, the
        # element block and its COO to CSR conversion 3.3x
        mesh = build_mesh(64, 3, torus_problem)
        system, peak = traced_peak(lambda: assemble(mesh, 1e4, torus_problem))
        matrix = system.matrix
        size = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        assert peak <= 1.75 * (size + system.rhs.nbytes)

    @pytest.mark.parametrize("order", [1, 3])
    def test_assembled_storage_is_sized_to_nnz(self, torus_problem, order):
        # sum_duplicates copies the summed entries when more than half of the
        # unsummed ones were duplicates (k = 1) and otherwise leaves views of
        # the unsummed arrays (k = 3), which assembly shrinks to nnz in place:
        # neither the parts nor A keep a longer array alive
        mesh = build_mesh(8, order, torus_problem)
        core = _assemble_parts(mesh, torus_problem).core
        unsummed = mesh.elements.size * mesh.elements.shape[1]
        assert (2 * core.nnz >= unsummed) == (order == 3)
        matrix = assemble(mesh, 1e4, torus_problem).matrix
        for array in (core.data, core.indices, matrix.data, matrix.indices):
            assert (array if array.base is None else array.base).size == array.size


def scipy_penalized(parts, beta, h):
    """core + beta/h * penalty as scipy adds two CSR matrices, and the rhs."""
    weight = beta / h
    return parts.core + weight * parts.penalty, parts.rhs_core + weight * parts.rhs_penalty


# the flat meshes' cores hold exact zeros (200 at k = 1), which A drops;
# the 4,096 elements of wavy k = 3 at n_div 32 span several element batches
EQUALITY_CASES = [
    *(pytest.param(geo.TorusProblem(), 8, k, id=f"wavy-k{k}") for k in (1, 2, 3)),
    pytest.param(geo.TorusProblem(), 32, 3, id="wavy-k3-n32"),
    *(pytest.param(geo.FlatSquareProblem(k), 12, k, id=f"flat-k{k}") for k in (1, 2, 3)),
]


class TestPenaltyOnCorePattern:
    """A(beta) is the core's data plus the penalty at its slots, bitwise scipy's sum."""

    @pytest.mark.parametrize("beta", [1e4, 50.0, 3.0])
    @pytest.mark.parametrize("problem,n_div,order", EQUALITY_CASES)
    def test_assemble_matches_scipy_sum(self, problem, n_div, order, beta):
        mesh = build_mesh(n_div, order, problem)
        expected, rhs = scipy_penalized(_assemble_parts(mesh, problem), beta, mesh.h)
        system = assemble(mesh, beta, problem)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(system.matrix, name), getattr(expected, name))
        assert np.array_equal(system.rhs, rhs)

    @pytest.mark.parametrize("problem,n_div,order", EQUALITY_CASES)
    def test_probe_matches_scipy_sum(self, problem, n_div, order, monkeypatch):
        mesh = build_mesh(n_div, order, problem)
        grid = np.geomspace(1.0, 1e4, 17)
        table = min_stable_beta_probe(mesh, grid, problem)
        monkeypatch.setattr("surfnitsche.assembly._penalized", scipy_penalized)
        assert min_stable_beta_probe(mesh, grid, problem) == table

    def test_shares_the_core_pattern(self, torus_problem):
        mesh = build_mesh(8, 2, torus_problem)
        parts = _assemble_parts(mesh, torus_problem)
        slots = parts.penalty_slots
        assert np.array_equal(parts.core.indices[slots], parts.penalty.indices)
        matrix, _ = _penalized(parts, 1e4, mesh.h)
        assert np.shares_memory(matrix.indices, parts.core.indices)
        assert np.shares_memory(matrix.indptr, parts.core.indptr)
        assert not np.shares_memory(matrix.data, parts.core.data)
        matrix, _ = _penalized(parts, 1e4, mesh.h, in_place=True)
        assert np.shares_memory(matrix.data, parts.core.data)

    @pytest.mark.parametrize(
        "problem,n_div,order",
        [(geo.TorusProblem(), 8, 3), (geo.FlatSquareProblem(1), 12, 1)],
        ids=["wavy-k3", "flat-k1"],
    )
    def test_reused_parts_match_fresh_parts(self, problem, n_div, order):
        # the probe adds every beta into a copy of one parts' core data;
        # assemble adds its one beta into fresh parts' core data in place
        mesh = build_mesh(n_div, order, problem)
        parts = _assemble_parts(mesh, problem)
        core = parts.core.copy()
        for beta in (1e4, 3.0, 1e4):
            matrix, rhs = _penalized(parts, beta, mesh.h)
            fresh = _assemble_parts(mesh, problem)
            expected, expected_rhs = _penalized(fresh, beta, mesh.h, in_place=True)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(matrix, name), getattr(expected, name))
                assert np.array_equal(getattr(parts.core, name), getattr(core, name))
            assert np.array_equal(rhs, expected_rhs)

    def test_zeros_dropped_without_touching_the_core(self):
        problem = geo.FlatSquareProblem(1)
        mesh = build_mesh(12, 1, problem)
        parts = _assemble_parts(mesh, problem)
        core = parts.core.copy()
        assert np.count_nonzero(core.data == 0.0) == 200
        matrix, _ = _penalized(parts, 1e4, mesh.h)
        assert np.all(matrix.data != 0.0)
        assert matrix.nnz < core.nnz
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(parts.core, name), getattr(core, name))


class TestNitscheConsistency:
    def test_affine_solution_reproduced_exactly(self):
        # affine fields on exact flat geometry pass through the weak
        # boundary enforcement unchanged
        problem = geo.FlatSquareProblem(coefficients={(1, 0): 1.0, (0, 1): 1.0})
        mesh = build_mesh(2, 1, problem)
        system = assemble(mesh, 1e4, problem)
        dense = np.linalg.solve(system.matrix.toarray(), system.rhs)
        interpolant = solution_at(problem, mesh.nodes)
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
        for grid in (1e4, [[1e4, 10.0]]):
            with pytest.raises(InvalidPenaltyError, match="nonempty sequence"):
                min_stable_beta_probe(mesh, grid, torus_problem)
        # the same rule as assemble: strings are not numbers
        with pytest.raises(InvalidPenaltyError, match="got beta='1e4'"):
            min_stable_beta_probe(mesh, ["1e4", "5"], torus_problem)

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

    # A(beta) = core + beta/h * P with P positive semidefinite, so raising
    # beta can only move eigenvalues up: the negative count never grows.
    @settings(max_examples=10, deadline=None)
    @given(boundary=boundary_specs(), n_div=st.integers(2, 5), order=st.integers(1, 3))
    def test_negative_pivots_non_increasing_in_beta(self, boundary, n_div, order):
        problem = geo.TorusProblem(boundary=boundary)
        try:
            mesh = build_mesh(n_div, order, problem)
        except MeshInvalidError:
            return
        assert mesh.num_nodes < 2000
        counts = [
            negative_pivot_count(assemble(mesh, beta, problem).matrix)
            for beta in np.geomspace(1.0, 1e3, 7)
        ]
        assert counts == sorted(counts, reverse=True)

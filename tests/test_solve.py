import os
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from surfnitsche import geometry as geo
from surfnitsche import solve
from surfnitsche.assembly import assemble
from surfnitsche.errors import (
    InvalidArgumentError,
    MaxIterationsExceededError,
    NotPositiveDefiniteError,
)
from surfnitsche.mesh import build_mesh
from surfnitsche.solve import is_positive_definite, solve_linear, solve_spd

from conftest import traced_peak


def random_spd(dim, seed):
    rng = np.random.default_rng(seed)
    factor = rng.normal(size=(dim, dim))
    return factor @ factor.T + dim * np.eye(dim)


@pytest.fixture(scope="module")
def torus_k2_system():
    problem = geo.TorusProblem()
    return assemble(build_mesh(32, 2, problem), 1e4, problem)


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
        iterative = solve_linear(matrix, rhs, method="cg")
        assert direct.method == "direct"
        assert iterative.method == "iterative"
        np.testing.assert_allclose(iterative.solution, direct.solution, atol=1e-8)

    def test_auto_switches_on_dimension(self):
        small = sp.csr_matrix(random_spd(40, seed=2))
        assert solve_linear(small, np.ones(40)).method == "direct"
        big = sp.identity(2500, format="csr")
        assert solve_linear(big, np.ones(2500)).method == "iterative"

    def test_forced_direct_above_switch(self, torus_k2_system):
        # above the auto switch the direct path factorizes the sparse matrix
        system = torus_k2_system
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
        # condition number ~ 2e8 makes the fixed 1e-12 residual unreachable
        matrix = sp.csr_matrix(np.array([[1.0, 1.0 - 1e-8], [1.0 - 1e-8, 1.0]]))
        for method in ("cg", "direct"):
            with pytest.raises(MaxIterationsExceededError):
                solve_linear(matrix, np.array([1.0, -0.999]), method=method)


class TestDirectIsFactorPCG:
    """"direct" is CG preconditioned by the factor: one iteration, one-shot accuracy."""

    @pytest.mark.parametrize(
        "problem, k",
        [
            *(pytest.param(geo.TorusProblem(), k, id=f"wavy-k{k}") for k in (1, 2, 3)),
            pytest.param(geo.FlatSquareProblem(3), 3, id="flat-k3"),
        ],
    )
    def test_one_iteration_at_one_shot_accuracy(self, problem, k):
        system = assemble(build_mesh(8, k, problem), 1e4, problem)
        report = solve_spd(system, method="direct")
        assert report.method == "direct"
        assert report.iterations == 1
        one_shot = solve._factorize_spd(system.matrix).solve(system.rhs)
        gap = np.max(np.abs(report.solution - one_shot)) / np.max(np.abs(one_shot))
        assert gap <= 1e-15

    @staticmethod
    def count_factor_solves(monkeypatch):
        calls = []
        factorize = solve._factorize_spd

        def counting_factorize(matrix):
            factor = factorize(matrix)
            return SimpleNamespace(solve=lambda r: calls.append(r) or factor.solve(r))

        monkeypatch.setattr(solve, "_factorize_spd", counting_factorize)
        return calls

    def test_unreachable_tolerance_stops_after_few_factor_solves(self, monkeypatch):
        # the matrix of test_unreachable_tolerance_hits_iteration_cap: the cap
        # is a few iterations, not 50 per unknown; M^-1 r is formed after the
        # residual check, so only the initial z = M^-1 r and each restart's
        # solve, one per iteration here
        matrix = sp.csr_matrix(np.array([[1.0, 1.0 - 1e-8], [1.0 - 1e-8, 1.0]]))
        calls = self.count_factor_solves(monkeypatch)
        with pytest.raises(MaxIterationsExceededError):
            solve_linear(matrix, np.array([1.0, -0.999]), method="direct")
        assert 1 <= len(calls) <= 5

    def test_converging_iteration_applies_no_factor_solve(self, monkeypatch):
        # the initial z = M^-1 r is the only solve of a one-iteration direct solve
        problem = geo.TorusProblem()
        system = assemble(build_mesh(8, 2, problem), 1e4, problem)
        calls = self.count_factor_solves(monkeypatch)
        report = solve_spd(system, method="direct")
        assert report.iterations == 1
        assert len(calls) == 1

    def test_direct_never_splits(self, monkeypatch):
        # the factor acts on the whole vector, so a forced split leaves one block
        matrix = laplacian_2d(61, 77, seed=11)
        rhs = np.random.default_rng(12).normal(size=matrix.shape[0])
        one_block = solve_linear(matrix, rhs, method="direct")
        seen = force_split(monkeypatch)
        forced = solve_linear(matrix, rhs, method="direct")
        assert seen == []
        assert forced.method == one_block.method == "direct"
        assert_same_report(forced, one_block)

    def test_factor_reads_the_checked_matrix_in_place(self, monkeypatch):
        # SuperLU gets the CSR arrays read as CSC (A^T, which is A here): no copy
        problem = geo.TorusProblem()
        matrix = solve._checked_matrix(assemble(build_mesh(8, 2, problem), 1e4, problem).matrix)
        seen = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu", lambda a, **kw: seen.append(a) or splu(a, **kw))
        solve._factorize_spd(matrix)
        (factored,) = seen
        assert factored.format == "csc"
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(factored, name), getattr(matrix, name)), name

    @pytest.mark.parametrize(
        "matrix",
        [[[2.0, 1.0], [0.0, 2.0]], [[4.0, 1.0, 0.0], [0.0, 4.0, 1.0], [2.0, 0.0, 4.0]]],
        ids=["2x2", "3x3"],
    )
    def test_nonsymmetric_matrix_not_solved(self, matrix):
        # outside the SPD contract: the factor is that of A^T, so the loop never
        # meets REL_TOL and returns nothing rather than an inaccurate solution
        with pytest.raises(MaxIterationsExceededError, match="within 4 iterations"):
            solve_linear(sp.csr_matrix(matrix), np.arange(1.0, len(matrix) + 1), method="direct")


class TestReportInvariants:
    def test_residual_reverified(self):
        matrix = sp.csr_matrix(random_spd(120, seed=4))
        rhs = np.random.default_rng(5).normal(size=120)
        for method in ("direct", "cg"):
            report = solve_linear(matrix, rhs, method=method)
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


class TestInputChecks:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["direct", "cg"])
    def test_nonfinite_rhs(self, method):
        # 1e155 is finite, but its square, and with it the rhs norm, overflows
        for bad in (np.nan, 1e155):
            rhs = np.ones(2500)
            rhs[7] = bad
            with pytest.raises(InvalidArgumentError, match="rhs"):
                solve_linear(sp.identity(2500, format="csr"), rhs, method=method)

    @pytest.mark.parametrize("method", ["direct", "cg"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_matrix(self, method, bad):
        matrix = sp.csr_matrix(random_spd(20, seed=8))
        matrix.data[5] = bad
        with pytest.raises(InvalidArgumentError, match="matrix"):
            solve_linear(matrix, np.ones(20), method=method)

    @pytest.mark.parametrize("method", ["direct", "cg"])
    def test_non_canonical_input_left_unchanged(self, method):
        # [[4, 1], [1, 3]] with unsorted columns and a duplicate; SuperLU sorts
        # and sums its input in place, which must not reach the caller's arrays
        arrays = (
            np.array([1.0, 2.0, 2.0, 1.0, 3.0]),
            np.array([1, 0, 0, 0, 1], dtype=np.int32),
            np.array([0, 3, 5], dtype=np.int32),
        )
        matrix = sp.csr_matrix(tuple(a.copy() for a in arrays), shape=(2, 2))
        report = solve_linear(matrix, np.array([1.0, 2.0]), method=method)
        np.testing.assert_allclose(report.solution, [1 / 11, 7 / 11], rtol=1e-14)
        for before, after in zip(arrays, (matrix.data, matrix.indices, matrix.indptr)):
            assert np.array_equal(before, after)

    def test_nonfinite_matrix_in_probe(self):
        matrix = sp.csr_matrix(random_spd(20, seed=9))
        matrix.data[0] = np.nan
        with pytest.raises(InvalidArgumentError):
            is_positive_definite(matrix)

    @pytest.mark.parametrize(
        "shape, rhs_len", [((3, 4), 3), ((4, 3), 4), ((4, 4), 3)], ids=["wide", "tall", "rhs"]
    )
    def test_shape_mismatch(self, shape, rhs_len):
        matrix = sp.csr_matrix(np.ones(shape))
        with pytest.raises(InvalidArgumentError) as info:
            solve_linear(matrix, np.ones(rhs_len))
        assert str(shape) in str(info.value) and str((rhs_len,)) in str(info.value)

    def test_nan_residual_is_not_success(self, monkeypatch):
        # a NaN residual compares false with any tolerance, so a factor that
        # solves to NaNs runs into the iteration cap and never reports success
        nan_factor = SimpleNamespace(solve=lambda r: np.full(len(r), np.nan))
        monkeypatch.setattr(solve, "_factorize_spd", lambda matrix: nan_factor)
        with pytest.raises(MaxIterationsExceededError):
            solve_linear(sp.identity(4, format="csr"), np.ones(4), method="direct")


def laplacian_2d(nx, ny, seed):
    """Dirichlet 5-point Laplacian, symmetrically scaled by a random diagonal."""
    def second_difference(n):
        return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))

    lap = sp.kronsum(second_difference(nx), second_difference(ny))
    scale = sp.diags(np.random.default_rng(seed).uniform(0.5, 2.0, nx * ny))
    return (scale @ lap @ scale).tocsr()


def record_splits(monkeypatch):
    """Allow the two-thread path at any size above 128; returns the split sizes seen."""
    seen = []
    pairwise_split = solve._pairwise_split
    monkeypatch.setattr(solve, "_SPLIT_MIN_DIM", 129)
    monkeypatch.setattr(solve, "_pairwise_split", lambda n: seen.append(n) or pairwise_split(n))
    return seen


def force_split(monkeypatch):
    """Take the two-thread path at any size above 128, whatever the CPU count."""
    monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
    return record_splits(monkeypatch)


def assert_same_report(first, second):
    assert first.iterations == second.iterations
    assert first.relative_residual == second.relative_residual
    assert np.array_equal(first.solution, second.solution)


class TestRowSplit:
    """The two-thread PCG gives the one-block iterates bit for bit."""

    def test_premise_pairwise_split(self):
        # np.add.reduce first halves an array where the solver splits its rows
        assert solve._SPLIT_MIN_DIM > 128
        rng = np.random.default_rng(10)
        for n in [*range(129, 1200), 4705, 8256, 18528, 73920, 300000]:
            values = rng.normal(size=n)
            s = solve._pairwise_split(n)
            assert np.add.reduce(values) == np.add.reduce(values[:s]) + np.add.reduce(values[s:])

    @pytest.mark.parametrize("case", ["torus-k2", "odd"])
    def test_split_matches_one_block(self, case, torus_k2_system, monkeypatch):
        if case == "torus-k2":
            matrix, rhs = torus_k2_system.matrix, torus_k2_system.rhs
        else:
            matrix = laplacian_2d(61, 77, seed=11)
            rhs = np.random.default_rng(12).normal(size=matrix.shape[0])
        dim = matrix.shape[0]
        assert case != "odd" or dim % 2 == 1
        one_block = solve_linear(matrix, rhs, method="cg")
        seen = force_split(monkeypatch)
        split = solve_linear(matrix, rhs, method="cg")
        assert seen == [dim]
        assert_same_report(split, one_block)

    def test_one_cpu(self, monkeypatch):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity control on this platform")
        matrix = laplacian_2d(45, 53, seed=13)
        rhs = np.random.default_rng(14).normal(size=matrix.shape[0])
        one_block = solve_linear(matrix, rhs, method="cg")
        cpus = os.sched_getaffinity(0)
        switch_interval = sys.getswitchinterval()
        os.sched_setaffinity(0, {min(cpus)})
        # frequent thread switches give a race between the halves its chance
        sys.setswitchinterval(1e-6)
        try:
            # the affinity check sees one CPU and keeps one block
            assert solve._usable_cpus() == 1
            gated_splits = record_splits(monkeypatch)
            gated = solve_linear(matrix, rhs, method="cg")
            assert gated_splits == []
            # forced onto the split path, both threads share the one CPU
            seen = force_split(monkeypatch)
            split = solve_linear(matrix, rhs, method="cg")
        finally:
            sys.setswitchinterval(switch_interval)
            os.sched_setaffinity(0, cpus)
        assert seen == [matrix.shape[0]]
        assert_same_report(gated, one_block)
        assert_same_report(split, one_block)

    def test_no_thread_outlives_solve(self, monkeypatch):
        matrix = laplacian_2d(33, 35, seed=15)
        rhs = np.ones(matrix.shape[0])
        one_block = solve_linear(matrix, rhs, method="cg")
        indefinite = (matrix - 0.5 * sp.identity(matrix.shape[0])).tocsr()
        seen = force_split(monkeypatch)
        before = threading.active_count()
        split = solve_linear(matrix, rhs, method="cg")
        assert threading.active_count() == before
        with pytest.raises(NotPositiveDefiniteError):
            solve_linear(indefinite, rhs, method="cg")
        assert threading.active_count() == before
        assert seen == [matrix.shape[0]] * 2
        assert_same_report(split, one_block)


class TestRowBlocks:
    def test_blocks_share_the_matrix(self, torus_k2_system, monkeypatch):
        matrix, rhs = torus_k2_system.matrix, torus_k2_system.rhs
        blocks = []

        class RecordedBlock(solve._RowBlock):
            def __init__(self, *args):
                super().__init__(*args)
                blocks.append(self)

        monkeypatch.setattr(solve, "_RowBlock", RecordedBlock)
        force_split(monkeypatch)
        solve_linear(matrix, rhs, method="cg")
        half = solve._pairwise_split(matrix.shape[0])
        # each block preconditions its own rows
        assert [(b.span.start, b.span.stop) for b in blocks] == [(0, half), (half, matrix.shape[0])]
        for block in blocks:
            assert np.shares_memory(block.rows.data, matrix.data)
            assert np.shares_memory(block.rows.indices, matrix.indices)

    @pytest.mark.parametrize("split", [False, True])
    def test_converging_iteration_applies_no_preconditioner(self, split, monkeypatch):
        # one loop order for any block count: every iteration but the last
        # preconditions each block once, after the residual check
        matrix = laplacian_2d(23, 29, seed=16)
        rhs = np.random.default_rng(17).normal(size=matrix.shape[0])
        if split:
            force_split(monkeypatch)
        calls = []
        precondition = solve._RowBlock.precondition
        monkeypatch.setattr(
            solve._RowBlock,
            "precondition",
            lambda block, apply: calls.append(block.span) or precondition(block, apply),
        )
        report = solve_linear(matrix, rhs, method="cg")
        blocks = 2 if split else 1
        assert report.iterations > 1
        assert len(calls) == blocks * (report.iterations - 1)

    def test_blocks_copy_no_entries(self, torus_k2_system):
        # scipy's constructor would copy each half of data and indices
        matrix = torus_k2_system.matrix
        dim = matrix.shape[0]
        vectors = [np.zeros(dim) for _ in range(6)]
        half = solve._pairwise_split(dim)
        _, peak = traced_peak(
            lambda: [
                solve._RowBlock(matrix, lo, hi, *vectors) for lo, hi in [(0, half), (half, dim)]
            ]
        )
        assert peak <= matrix.indptr.nbytes + 2**16


def row_blocks(matrix):
    """The two row blocks of a split solve of ``matrix``, over NaN-filled vectors."""
    dim = matrix.shape[0]
    vectors = [np.full(dim, np.nan) for _ in range(6)]
    half = solve._pairwise_split(dim)
    return [solve._RowBlock(matrix, lo, hi, *vectors) for lo, hi in [(0, half), (half, dim)]]


def with_empty_rows(dim, seed):
    """A random sparse matrix of which every third row has no entries."""
    matrix = sp.random(dim, dim, density=0.02, format="csr", random_state=seed)
    matrix.data[:] = np.random.default_rng(seed).normal(size=matrix.nnz)
    keep = np.arange(dim) % 3 != 0
    return (sp.diags(keep.astype(float)) @ matrix).tocsr()


def sine_modes(nx, ny, modes):
    """Sum of the product sine modes (a, b) of laplacian_2d's unscaled grid."""
    def sine(n, a):
        return np.sin(a * np.pi * np.arange(1, n + 1) / (n + 1))

    return sum(np.outer(sine(ny, b), sine(nx, a)).ravel() for a, b in modes)


class TestAllocationFreeLoop:
    """Each phase writes into preallocated vectors, the second block's on a
    worker thread handed each phase by two locks."""

    @pytest.mark.parametrize("case", ["torus-k2", "empty-rows"])
    def test_apply_is_the_sparse_product(self, case, torus_k2_system):
        matrix = torus_k2_system.matrix if case == "torus-k2" else with_empty_rows(1001, seed=18)
        assert case != "empty-rows" or np.count_nonzero(np.diff(matrix.indptr) == 0) > 300
        p = np.random.default_rng(19).normal(size=matrix.shape[0])
        blocks = row_blocks(matrix)
        for block in blocks:
            block.p[:] = p[block.span]
            curvature = block.apply(p)
            # the NaNs the vectors started with are overwritten, not added to
            assert np.array_equal(block.ap, block.rows @ p)
            assert curvature == solve._dot(p[block.span], block.rows @ p)
        # each block wrote its own rows of A p and nothing else
        assert np.array_equal(np.concatenate([b.ap for b in blocks]), matrix @ p)

    @pytest.mark.parametrize("side", ["caller", "worker"])
    def test_phase_error_reaches_caller(self, side, monkeypatch):
        matrix = laplacian_2d(33, 35, seed=15)
        rhs = np.ones(matrix.shape[0])
        force_split(monkeypatch)
        step = solve._RowBlock.step

        def failing_step(block, alpha):
            if (block.span.start > 0) == (side == "worker"):
                raise ArithmeticError(f"step failed on the {side}'s block")
            return step(block, alpha)

        monkeypatch.setattr(solve._RowBlock, "step", failing_step)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match=f"the {side}'s block"):
            solve_linear(matrix, rhs, method="cg")
        assert threading.active_count() == before

    def test_peak_independent_of_iteration_count(self, monkeypatch):
        # an rhs of two modes converges in a few iterations, a random one in
        # hundreds; both split solves peak at the same size, up to a few Python
        # objects, within the seven vectors the solve holds (inverse diagonal,
        # x, r, z, p, A p and work) and the blocks' row pointers (with those
        # scipy's constructor makes first)
        nx, ny = 61, 77
        matrix = laplacian_2d(nx, ny, seed=11)
        dim = matrix.shape[0]
        scale = np.sqrt(matrix.diagonal() / 4.0)  # laplacian_2d's random diagonal
        few = scale * sine_modes(nx, ny, [(1, 1), (2, 3)])
        many = np.random.default_rng(12).normal(size=dim)
        force_split(monkeypatch)
        (few_report, few_peak), (many_report, many_peak) = [
            traced_peak(lambda: solve_linear(matrix, rhs, method="cg")) for rhs in (few, many)
        ]
        assert 1 < few_report.iterations and 5 * few_report.iterations < many_report.iterations
        assert abs(few_peak - many_peak) < 2**12  # a block's vector is 18,788 bytes
        assert many_peak <= 7 * 8 * dim + 2 * matrix.indptr.nbytes + 2**14

    def test_phases_allocate_nothing(self, monkeypatch):
        # no phase of an iteration raises the traced memory by a block's vector
        # (8 * dim / 2 = 18,788 bytes here); the records go to a preallocated array
        matrix = laplacian_2d(61, 77, seed=11)
        rhs = np.random.default_rng(12).normal(size=matrix.shape[0])
        force_split(monkeypatch)
        growth = np.full(4000, -1)
        calls = iter(range(growth.size))
        on_blocks = solve._on_blocks

        def traced_on_blocks(*args):
            current = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = on_blocks(*args)
            growth[next(calls)] = tracemalloc.get_traced_memory()[1] - current
            return result

        monkeypatch.setattr(solve, "_on_blocks", traced_on_blocks)
        report, _ = traced_peak(lambda: solve_linear(matrix, rhs, method="cg"))
        phases = growth[growth >= 0]
        assert phases.size == 4 * report.iterations - 2
        assert phases.max() < 2**12

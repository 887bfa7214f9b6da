import numpy as np
import pytest

from surfnitsche import geometry as geo
from surfnitsche.analysis import (
    convergence_study,
    error_measures,
    records_table,
    records_to_csv,
)
from surfnitsche.errors import InvalidArgumentError, InvalidPenaltyError
from surfnitsche.fem import FrameBundle
from surfnitsche.mesh import build_mesh
from surfnitsche.reference import triangle_rule

from conftest import observed_orders, solution_at


class TestErrorMeasures:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_interpolant_is_exact_on_flat_geometry(self, order):
        problem = geo.FlatSquareProblem(order)
        mesh = build_mesh(4, order, problem)
        coefficients = solution_at(problem, mesh.nodes)
        err = error_measures(mesh, coefficients, problem)
        assert err.l2_error < 1e-10
        assert err.energy_error < 1e-10
        for part in (err.grad_part, err.flux_part, err.jump_part):
            assert 0.0 <= part < 1e-20

    def test_zero_coefficients_measure_solution_norm(self, torus_problem):
        mesh = build_mesh(4, 2, torus_problem)
        err = error_measures(mesh, np.zeros(mesh.num_nodes), torus_problem)
        # independent quadrature of u(p(x))^2 over the discrete surface
        rule = triangle_rule(8)
        bundle = FrameBundle(mesh, np.arange(mesh.num_elements), rule.points)
        u_sq = solution_at(torus_problem, bundle.position) ** 2
        direct = np.sqrt(np.sum(rule.weights[None, :] * bundle.area_factor * u_sq))
        assert err.l2_error == pytest.approx(direct, rel=1e-12)
        assert err.l2_error > 0.0

    def test_energy_parts_sum(self, torus_problem):
        mesh = build_mesh(4, 1, torus_problem)
        rng = np.random.default_rng(0)
        err = error_measures(mesh, rng.normal(size=mesh.num_nodes), torus_problem)
        total = err.grad_part + err.flux_part + err.jump_part
        assert err.energy_error == pytest.approx(np.sqrt(total), rel=1e-13)
        assert err.energy_error**2 >= err.jump_part

    def test_gradient_evaluation_matches_reference_fd(self, torus_problem):
        # chain-rule tangential gradient of the extended solution against
        # central differences in reference coordinates
        mesh = build_mesh(4, 2, torus_problem)
        rng = np.random.default_rng(1)
        elements = rng.integers(0, mesh.num_elements, 20)
        points = np.column_stack([rng.uniform(0.1, 0.4, 20), rng.uniform(0.1, 0.4, 20)])
        step = 1e-6
        worst = 0.0
        for element, point in zip(elements, points):
            bundle = FrameBundle(mesh, [element], [point])
            ref_grad = np.zeros(2)
            for axis in range(2):
                plus, minus = point.copy(), point.copy()
                plus[axis] += step
                minus[axis] -= step
                u_plus = solution_at(
                    torus_problem, FrameBundle(mesh, [element], [plus]).position[0, 0]
                )
                u_minus = solution_at(
                    torus_problem, FrameBundle(mesh, [element], [minus]).position[0, 0]
                )
                ref_grad[axis] = (u_plus - u_minus) / (2 * step)
            jac, metric = bundle.jacobian[0, 0], bundle.metric[0, 0]
            fd = jac @ np.linalg.solve(metric, ref_grad)
            ambient = torus_problem.solution_and_gradient_at(bundle.position)[1][0, 0]
            analytic = jac @ np.linalg.solve(metric, jac.T @ ambient)
            worst = max(worst, float(np.abs(fd - analytic).max()))
        assert worst < 1e-6

    def test_coefficient_shape_checked(self, torus_problem):
        mesh = build_mesh(4, 1, torus_problem)
        with pytest.raises(ValueError):
            error_measures(mesh, np.zeros(3), torus_problem)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_rejected(self, torus_problem, bad):
        mesh = build_mesh(4, 1, torus_problem)
        coefficients = np.zeros(mesh.num_nodes)
        coefficients[3] = bad
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            error_measures(mesh, coefficients, torus_problem)


@pytest.fixture(scope="module")
def small_study(torus_problem):
    return convergence_study(1, 3, 1e4, torus_problem)


class TestConvergenceStudy:
    def test_record_structure(self, small_study):
        assert [rec.level for rec in small_study] == [0, 1, 2]
        assert small_study[0].eoc_l2 is None
        assert small_study[1].eoc_l2 is not None
        for coarse, fine in zip(small_study, small_study[1:]):
            assert fine.dof > coarse.dof
            assert fine.h < coarse.h

    def test_l2_decreases_under_refinement(self, small_study):
        for coarse, fine in zip(small_study, small_study[1:]):
            assert fine.l2_error <= 1.05 * coarse.l2_error

    def test_boundary_mismatch_decay(self, torus_problem):
        values, sizes = [], []
        for n_div in (8, 16, 32):
            mesh = build_mesh(n_div, 1, torus_problem)
            from surfnitsche.assembly import assemble
            from surfnitsche.solve import solve_spd

            report = solve_spd(assemble(mesh, 1e4, torus_problem))
            err = error_measures(mesh, report.solution, torus_problem)
            values.append(err.boundary_mismatch)
            sizes.append(mesh.h)
        assert observed_orders(values, sizes)[-1] >= 1.5

    def test_validates_levels(self, torus_problem):
        with pytest.raises(ValueError):
            convergence_study(1, 2, 1e4, torus_problem)

    @pytest.mark.parametrize(
        "levels, base_divisions, message",
        [
            (3.5, 8, "levels must be an integer, got 3.5"),
            (3, 2.5, "base_divisions must be an integer, got 2.5"),
            (3, 1, "base_divisions must be >= 2, got 1"),
            (3, 0, "base_divisions must be >= 2, got 0"),
            ("3", 8, "levels must be an integer, got '3'"),
        ],
    )
    def test_non_integer_sizes_named(self, torus_problem, levels, base_divisions, message):
        with pytest.raises(InvalidArgumentError, match=message):
            convergence_study(1, levels, 1e4, torus_problem, base_divisions=base_divisions)

    def test_numpy_integer_sizes_accepted(self, torus_problem, small_study):
        study = convergence_study(1, np.int64(3), 1e4, torus_problem, base_divisions=np.int32(8))
        assert study == small_study

    def test_sub_threshold_beta_names_itself(self, torus_problem):
        with pytest.raises(InvalidPenaltyError, match=r"beta=0\.5 is below .* negative eigenvalues"):
            convergence_study(1, 3, 0.5, torus_problem, base_divisions=4)


class TestSerialization:
    def test_csv_layout(self, small_study):
        csv = records_to_csv(small_study)
        lines = csv.strip().split("\n")
        assert lines[0] == "k,level,h,dof,energy_error,l2_error,eoc_energy,eoc_l2"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"
        assert first[6] == "" and first[7] == ""

    def test_csv_deterministic(self, small_study, torus_problem):
        again = convergence_study(1, 3, 1e4, torus_problem)
        assert records_to_csv(small_study) == records_to_csv(again)

    def test_table_mirrors_records(self, small_study):
        table = records_table(small_study)
        assert "eoc_energy" in table.splitlines()[0]
        assert len(table.strip().splitlines()) == 4

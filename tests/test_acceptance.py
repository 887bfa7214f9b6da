"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

The convergence sweeps (criteria 1 and 2) share one set of solves per
element order: four refinement levels of the wavy torus band starting at
8 divisions, penalty 1e4.  Criterion 3 runs the constant-boundary
variant from 16 divisions, matching the mesh-size range of the study it
mirrors (the extra, twice-coarser level is preasymptotic for this
oscillatory solution and is reported for context, not asserted).
Criterion 4 estimates geometric orders against the measured mesh-size
ratio, which on the wavy band is not exactly 2 between coarse levels.
"""
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from surfnitsche import geometry as geo
from surfnitsche import mesh as mesh_module
from surfnitsche.analysis import convergence_study, error_measures
from surfnitsche.assembly import assemble, min_stable_beta_probe
from surfnitsche.mesh import _snap, build_mesh, geometric_report
from surfnitsche.reference import triangle_rule
from surfnitsche.solve import is_positive_definite, solve_linear, solve_spd

from conftest import (
    fd_laplace_beltrami,
    newton_closest_point,
    observed_orders,
    random_tube_points,
    solution_at,
)

BETA = 1e4
ORDERS = (1, 2, 3)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def torus_studies(torus_problem):
    return {
        order: convergence_study(order, 4, BETA, torus_problem, base_divisions=8)
        for order in ORDERS
    }


@pytest.fixture(scope="module")
def geometry_sweeps(torus_problem):
    sweeps = {}
    for order in ORDERS:
        rows = []
        for n_div in (8, 16, 32, 64):
            mesh = build_mesh(n_div, order, torus_problem)
            rows.append((mesh.h, geometric_report(mesh, torus_problem)))
        sweeps[order] = rows
    return sweeps


def test_criterion_1_energy_rates(torus_studies):
    # full sweep tables recorded for context (coarse-level orders of the
    # wavy problem are not asserted, only the finest pair is)
    from surfnitsche.analysis import records_table

    for order in ORDERS:
        print(f"\nwavy torus band, k={order}:")
        print(records_table(torus_studies[order]), end="")
    details = []
    ok = True
    for order in ORDERS:
        eoc = torus_studies[order][-1].eoc_energy
        good = order - 0.25 <= eoc <= order + 0.4
        ok = ok and good
        details.append(f"k={order}: eoc_energy={eoc:.3f} in [{order - 0.25},{order + 0.4}]")
    report("criterion 1 (energy rates h^k)", ok, "; ".join(details))


def test_criterion_2_l2_rates(torus_studies):
    details = []
    ok = True
    for order in ORDERS:
        eoc = torus_studies[order][-1].eoc_l2
        good = order + 0.75 <= eoc <= order + 1.4
        ok = ok and good
        details.append(f"k={order}: eoc_l2={eoc:.3f} in [{order + 0.75},{order + 1.4}]")
    report("criterion 2 (L2 rates h^(k+1))", ok, "; ".join(details))


def test_k1_rate_headroom(torus_problem):
    # The four-level k = 1 finest pair is still pre-asymptotic (eoc_l2 sits
    # just above criterion 2's lower bound); a fifth level shows the rates
    # with margin against the bounds of criteria 1 and 2.
    finest = convergence_study(1, 5, BETA, torus_problem, base_divisions=8)[-1]
    ok = 1.75 <= finest.eoc_l2 <= 2.4 and 0.75 <= finest.eoc_energy <= 1.4
    detail = (
        f"eoc_l2={finest.eoc_l2:.3f} in [1.75,2.4]; "
        f"eoc_energy={finest.eoc_energy:.3f} in [0.75,1.4]"
    )
    report("k=1 rate headroom (five levels)", ok, detail)


def test_l2_rate_tells_nitsche_from_penalty(torus_problem):
    # Without its two consistency terms the method is a symmetric penalty
    # method, which keeps every rate of criteria 1 and 2 at beta = 1e4.  At
    # beta = 300, still above every measured stability threshold (<= 138 at
    # k = 3), its k = 3 L2 rate on the 16 -> 32 pair drops to about 2.7,
    # while Nitsche's method keeps h^4.
    finest = convergence_study(3, 3, 300.0, torus_problem, base_divisions=8)[-1]
    ok = 3.75 <= finest.eoc_l2 <= 4.4
    detail = (
        f"eoc_l2={finest.eoc_l2:.3f} in [3.75,4.4]"
        f" (eoc_energy={finest.eoc_energy:.3f}, not asserted)"
    )
    report("Nitsche consistency (k=3 L2 rate at beta=300)", ok, detail)


def test_l2_rate_sees_boundary_approximation(torus_problem, torus_studies, monkeypatch):
    # Facet-linear nodes without the boundary correction leave the boundary
    # nodes O(h^2) off the boundary curves, and the k = 3 L2 rate on the
    # 16 -> 32 pair drops to about 2; the chart mesh, exact at its nodes,
    # keeps h^4 on the same pair.
    monkeypatch.setattr(mesh_module, "_correct_boundary", lambda nodes, *_: nodes)
    errors = []
    for n_div in (16, 32):
        mesh = build_mesh(n_div, 3, torus_problem, node_placement="facet-linear")
        solution = solve_spd(assemble(mesh, BETA, torus_problem)).solution
        errors.append(error_measures(mesh, solution, torus_problem).l2_error)
    uncorrected = float(np.log2(errors[0] / errors[1]))
    exact = torus_studies[3][2].eoc_l2
    ok = uncorrected <= 3.0 and exact >= 3.75
    detail = f"eoc_l2 uncorrected={uncorrected:.3f} <= 3; exact geometry={exact:.3f} >= 3.75"
    report("boundary approximation (k=3 L2 rate, boundary correction skipped)", ok, detail)


def test_criterion_3_simplified_stability(simple_problem):
    records = convergence_study(3, 3, BETA, simple_problem, base_divisions=16)
    eocs = [rec.eoc_energy for rec in records[1:]]
    ok = all(2.75 <= eoc <= 3.4 for eoc in eocs)
    # context: the twice-coarser mesh sits before the asymptotic regime of
    # this oscillatory solution, so its pair is reported but not asserted
    mesh = build_mesh(8, 3, simple_problem)
    err = error_measures(mesh, solve_spd(assemble(mesh, BETA, simple_problem)).solution,
                         simple_problem)
    coarse_eoc = float(np.log2(err.energy_error / records[0].energy_error))
    detail = (
        f"eoc_energy per level pair {[f'{e:.3f}' for e in eocs]} all in [2.75,3.4]"
        f" (coarser n=8->16 pair, not asserted: {coarse_eoc:.3f})"
    )
    report("criterion 3 (simplified problem stable at every level)", ok, detail)


def test_criterion_4_geometric_orders(geometry_sweeps):
    details = []
    ok = True
    for order in ORDERS:
        rows = geometry_sweeps[order]
        sizes = [h for h, _ in rows]
        rho = observed_orders([rep.max_rho for _, rep in rows], sizes)[-1]
        ndev = observed_orders([rep.max_normal_dev for _, rep in rows], sizes)[-1]
        bdist = observed_orders([rep.max_boundary_dist for _, rep in rows], sizes)[-1]
        good = (
            order + 0.6 <= rho <= order + 1.4
            and order - 0.4 <= ndev <= order + 0.4
            and order + 0.6 <= bdist <= order + 1.4
        )
        ok = ok and good
        details.append(f"k={order}: rho={rho:.2f} normal={ndev:.2f} boundary={bdist:.2f}")
    report("criterion 4 (geometric approximation orders k+1/k/k+1)", ok, "; ".join(details))


def test_criterion_5_flat_patch():
    details = []
    ok = True
    for order in ORDERS:
        problem = geo.FlatSquareProblem(order)
        mesh = build_mesh(4, order, problem)
        solution = solve_spd(assemble(mesh, BETA, problem)).solution
        err = error_measures(mesh, solution, problem)
        components = {
            "l2": err.l2_error,
            "grad": np.sqrt(err.grad_part),
            "flux": np.sqrt(err.flux_part),
            "jump": np.sqrt(err.jump_part),
            "energy": err.energy_error,
        }
        worst = max(components.values())
        ok = ok and worst < 1e-10
        details.append(f"k={order}: worst component {worst:.2e}")
    report("criterion 5 (flat patch test, degree k exactness)", ok, "; ".join(details))


def test_criterion_6_structural(torus_problem):
    meshes = [build_mesh(4, order, torus_problem) for order in ORDERS]
    meshes.append(build_mesh(8, 1, torus_problem))
    meshes.append(build_mesh(4, 2, geo.FlatSquareProblem(2)))
    problems = [torus_problem] * 4 + [geo.FlatSquareProblem(2)]
    asym_ok = True
    pd_ok = True
    worst_asym = 0.0
    for mesh, problem in zip(meshes, problems):
        system = assemble(mesh, BETA, problem)
        asym = np.abs(system.matrix - system.matrix.T).max() / np.abs(system.matrix).max()
        worst_asym = max(worst_asym, asym)
        asym_ok = asym_ok and asym <= 1e-12
        pd_ok = pd_ok and is_positive_definite(system.matrix)
    table = min_stable_beta_probe(
        build_mesh(4, 2, torus_problem), [1e-3, 1e-1, 1e1, 1e3, 1e4, 1e6], torus_problem
    )
    flags = [flag for _, flag in table]
    upward = (True not in flags) or all(flags[flags.index(True) :])
    ok = asym_ok and pd_ok and upward and flags[-2]
    detail = (
        f"max asymmetry {worst_asym:.2e} <= 1e-12; positive definite at beta=1e4: {pd_ok}; "
        f"probe flags {flags} upward closed: {upward}"
    )
    report("criterion 6 (symmetry, definiteness, beta probe)", ok, detail)


class TestCriterion7Oracles:
    def test_quadrature_monomials(self):
        import math

        worst = 0.0
        for degree in range(0, 21):
            rule = triangle_rule(degree)
            for a in range(degree + 1):
                for b in range(degree + 1 - a):
                    value = np.sum(
                        rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b
                    )
                    exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                    worst = max(worst, abs(value - exact))
        report("criterion 7a (quadrature vs closed-form monomials)", worst <= 1e-14,
               f"worst deviation {worst:.2e}")

    def test_cg_vs_cholesky(self):
        # the oracle is a dense Cholesky solve on the test side, independent
        # of both library paths
        rng = np.random.default_rng(0)
        factor = rng.normal(size=(200, 200))
        dense = factor @ factor.T + 200 * np.eye(200)
        matrix = sp.csr_matrix(dense)
        rhs = rng.normal(size=200)
        oracle = scipy.linalg.cho_solve(scipy.linalg.cho_factor(dense), rhs)
        gap = max(
            np.abs(solve_linear(matrix, rhs, method=method).solution - oracle).max()
            for method in ("cg", "direct")
        )
        report("criterion 7b (CG and direct vs dense Cholesky)", gap <= 1e-8, f"max gap {gap:.2e}")

    def test_load_vs_fd_laplacian(self, torus):
        rng = np.random.default_rng(1)
        theta = rng.uniform(0.0, 2 * np.pi, 50)
        phi = rng.uniform(0.0, 2 * np.pi, 50)
        gap = np.abs(geo.load(theta, phi, torus) + fd_laplace_beltrami(theta, phi, torus)).max()
        report("criterion 7c (analytic load vs FD surface Laplacian)", gap <= 1e-5,
               f"max gap {gap:.2e}")

    def test_gradient_vs_reference_fd(self, torus_problem):
        from surfnitsche.fem import FrameBundle

        mesh = build_mesh(4, 2, torus_problem)
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(20):
            element = int(rng.integers(0, mesh.num_elements))
            point = rng.uniform(0.1, 0.4, 2)
            bundle = FrameBundle(mesh, [element], [point])
            ref_grad = np.zeros(2)
            for axis in range(2):
                plus, minus = point.copy(), point.copy()
                plus[axis] += 1e-6
                minus[axis] -= 1e-6
                u_plus = solution_at(
                    torus_problem, FrameBundle(mesh, [element], [plus]).position[0, 0]
                )
                u_minus = solution_at(
                    torus_problem, FrameBundle(mesh, [element], [minus]).position[0, 0]
                )
                ref_grad[axis] = (u_plus - u_minus) / 2e-6
            jac, metric = bundle.jacobian[0, 0], bundle.metric[0, 0]
            fd = jac @ np.linalg.solve(metric, ref_grad)
            ambient = torus_problem.solution_and_gradient_at(bundle.position)[1][0, 0]
            analytic = jac @ np.linalg.solve(metric, jac.T @ ambient)
            worst = max(worst, float(np.abs(fd - analytic).max()))
        report("criterion 7d (tangential gradient vs reference FD)", worst <= 1e-6,
               f"max gap {worst:.2e}")

    def test_closest_point_vs_sampling_oracle(self, torus):
        rng = np.random.default_rng(3)
        problem = geo.TorusProblem(torus)
        worst = 0.0
        for x in random_tube_points(rng, torus, 10):
            oracle = newton_closest_point(x, torus)
            worst = max(worst, float(np.abs(_snap(problem, x) - oracle).max()))
        report("criterion 7e (closest point vs sampling+Newton oracle)", worst <= 1e-10,
               f"max gap {worst:.2e}")

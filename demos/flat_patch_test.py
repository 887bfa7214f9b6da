# Patch test: polynomial exactness on exact flat geometry.
#
# The unit square embedded in the z = 0 plane runs through the full
# surface pipeline with zero geometric error.  For a polynomial exact
# solution of total degree <= k the discrete space contains the
# solution, the weak boundary enforcement is consistent, and the solve
# must reproduce it to solver accuracy in every norm component.

import numpy as np

from surfnitsche import FlatSquareProblem, assemble, build_mesh, error_measures, solve_spd

for order in (1, 2, 3):
    problem = FlatSquareProblem(degree=order)
    mesh = build_mesh(4, order, problem)
    system = assemble(mesh, beta=1e4, problem=problem)
    report = solve_spd(system)
    err = error_measures(mesh, report.solution, problem)
    nodal = np.abs(report.solution - problem.solution_and_gradient_at(mesh.nodes)[0]).max()
    print(
        f"k={order}: nodal error {nodal:.2e}, L2 {err.l2_error:.2e}, "
        f"energy {err.energy_error:.2e}"
    )
    assert nodal < 1e-10 and err.energy_error < 1e-10

print("polynomials of degree k pass through the discretization exactly")

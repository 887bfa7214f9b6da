# Stability of the weak boundary enforcement in the penalty parameter.
#
# The symmetric Nitsche form is coercive once the penalty beta is large
# enough; below the threshold the consistency terms can make the matrix
# indefinite.  Because the penalty matrix is positive semidefinite, the
# success set is upward closed: once a beta works, every larger one does.
# The probe therefore factorizes A(beta) only at the largest penalty and
# at the points of a bisection over the sorted grid (4 of the 8 below),
# and fills in the other flags from upward closedness.

import tempfile
from pathlib import Path

from surfnitsche import (
    TorusProblem,
    assemble,
    build_mesh,
    min_stable_beta_probe,
    solve_spd,
    write_matrix_market,
)

problem = TorusProblem()
mesh = build_mesh(8, 2, problem)

grid = [1e-3, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e6]
print(f"mesh: {mesh.num_nodes} nodes, h = {mesh.h:.3f}")
for beta, positive_definite in min_stable_beta_probe(mesh, grid, problem):
    print(f"  beta = {beta:10.3e}   positive definite: {positive_definite}")

# The reference penalty 1e4 is comfortably inside the stable range.
system = assemble(mesh, beta=1e4, problem=problem)
report = solve_spd(system)
print(
    f"\nsolve at beta=1e4: {report.method}, iterations={report.iterations}, "
    f"residual={report.relative_residual:.2e}"
)

# Systems export in MatrixMarket coordinate format for external checks.
with tempfile.TemporaryDirectory() as out_dir:
    path = Path(out_dir) / "torus_system.mtx"
    write_matrix_market(path, system.matrix)
    print(f"wrote {path}")

"""Command-line entry point.

Three subcommands drive the pipeline end to end:

    surfnitsche solve        --problem torus --k 2 --n-div 8 [--vtk out.vtk]
    surfnitsche convergence  --problem torus --k 2 --levels 4 [--csv out.csv]
    surfnitsche mesh-report  --problem torus --k 3 --n-div 8 [--out report.txt]

Options are read from the command line only; each has one default, set
where the parser declares it.  Each subcommand accepts only the options
it reads, so --beta belongs to solve and convergence but not to
mesh-report.  The solver tolerance is fixed (solve.REL_TOL) and is not
an option.  Exit status is 0 iff every stage succeeded.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import convergence_study, error_measures, records_table, records_to_csv
from .assembly import assemble
from .errors import InvalidArgumentError, SurfNitscheError
from .export import write_matrix_market, write_vector_market, write_vtk
from .geometry import FlatSquareProblem, TorusProblem
from .mesh import build_mesh, geometric_report
from .solve import solve_spd


def make_problem(name: str, k: int):
    if name == "torus":
        return TorusProblem()
    if name == "torus-simple":
        return TorusProblem.simplified()
    if name == "flat-square":
        return FlatSquareProblem(degree=k)
    raise InvalidArgumentError(f"unknown problem {name!r}")


def _add_common(parser):
    parser.add_argument(
        "--problem", choices=["torus", "torus-simple", "flat-square"], default="torus"
    )
    parser.add_argument("--k", type=int, default=1, help="element order, 1..3")
    parser.add_argument(
        "--node-placement",
        choices=["chart", "facet-linear"],
        default="chart",
        dest="node_placement",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="surfnitsche",
        description="Nitsche finite elements for the surface Poisson problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one discrete problem")
    _add_common(p_solve)
    p_solve.add_argument("--n-div", type=int, default=8, dest="n_div")
    p_solve.add_argument("--vtk", help="write solution and pointwise error as VTK")
    p_solve.add_argument(
        "--matrix-out", dest="matrix_out", help="path prefix for MatrixMarket export"
    )

    p_conv = sub.add_parser("convergence", help="run a refinement study")
    _add_common(p_conv)
    p_conv.add_argument("--levels", type=int, default=4)
    p_conv.add_argument("--base-divisions", type=int, default=8, dest="base_divisions")
    p_conv.add_argument("--csv", help="write the study as CSV")

    p_mesh = sub.add_parser("mesh-report", help="geometric approximation report")
    _add_common(p_mesh)
    p_mesh.add_argument("--n-div", type=int, default=8, dest="n_div")
    p_mesh.add_argument("--out", help="also write the report to a file")

    for solving in (p_solve, p_conv):
        solving.add_argument("--beta", type=float, default=1e4, help="Nitsche penalty")
    return parser


def cmd_solve(args) -> int:
    problem = make_problem(args.problem, args.k)
    mesh = build_mesh(args.n_div, args.k, problem, args.node_placement)
    system = assemble(mesh, args.beta, problem)
    report = solve_spd(system)
    err = error_measures(mesh, report.solution, problem)
    exact = problem.solution_at(mesh.nodes)
    max_nodal = float(np.abs(report.solution - exact).max())
    print(f"dof = {mesh.num_nodes}")
    print(f"h = {mesh.h:.12e}")
    print(f"method = {report.method}")
    print(f"iterations = {report.iterations}")
    print(f"relative_residual = {report.relative_residual:.6e}")
    print(f"max_nodal_error = {max_nodal:.12e}")
    print(f"l2_error = {err.l2_error:.12e}")
    print(f"energy_error = {err.energy_error:.12e}")
    if args.vtk:
        write_vtk(
            args.vtk,
            mesh,
            {"solution": report.solution, "pointwise_error": report.solution - exact},
        )
        print(f"wrote {args.vtk}")
    if args.matrix_out:
        write_matrix_market(args.matrix_out + "_matrix.mtx", system.matrix)
        write_vector_market(args.matrix_out + "_rhs.mtx", system.rhs)
        print(f"wrote {args.matrix_out}_matrix.mtx, {args.matrix_out}_rhs.mtx")
    return 0


def cmd_convergence(args) -> int:
    problem = make_problem(args.problem, args.k)
    records = convergence_study(
        args.k,
        args.levels,
        args.beta,
        problem,
        base_divisions=args.base_divisions,
        node_placement=args.node_placement,
    )
    print(records_table(records), end="")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(records_to_csv(records))
        print(f"wrote {args.csv}")
    return 0


def cmd_mesh_report(args) -> int:
    problem = make_problem(args.problem, args.k)
    mesh = build_mesh(args.n_div, args.k, problem, args.node_placement)
    report = geometric_report(mesh, problem)
    lines = [
        f"n_div = {args.n_div}",
        f"k = {args.k}",
        f"h = {mesh.h:.12e}",
        f"dof = {mesh.num_nodes}",
        f"elements = {mesh.num_elements}",
        f"max_rho = {report.max_rho:.12e}",
        f"max_normal_dev = {report.max_normal_dev:.12e}",
        f"max_boundary_dist = {report.max_boundary_dist:.12e}",
        f"max_boundary_node_dist = {report.max_boundary_node_dist:.12e}",
        f"min_scaled_jacobian = {report.min_scaled_jacobian:.12e}",
    ]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "mesh-report": cmd_mesh_report,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SurfNitscheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():  # pragma: no cover
    sys.exit(run())

"""Command-line entry point.

Three subcommands drive the pipeline end to end:

    surfnitsche solve        --problem torus --k 2 --n-div 8 [--vtk out.vtk]
    surfnitsche convergence  --problem torus --k 2 --levels 4 [--csv out.csv]
    surfnitsche mesh-report  --problem torus --k 3 --n-div 8 [--out report.txt]

Options are read from the command line only; each has one default, set
where the parser declares it.  Each subcommand accepts only the options
it reads, so --beta belongs to solve and convergence but not to
mesh-report.  The solver tolerance is fixed (solve.REL_TOL) and is not
an option.  An output path that cannot be written is rejected before any
stage runs.  Exit status is 0 iff every stage succeeded.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .analysis import convergence_study, error_measures, records_table, records_to_csv
from .assembly import _solve_at_penalty, assemble
from .errors import InvalidArgumentError, SurfNitscheError
from .export import write_matrix_market, write_vector_market, write_vtk
from .geometry import FlatSquareProblem, TorusProblem
from .mesh import NODE_PLACEMENTS, build_mesh, geometric_report


# The problem each --problem name builds for element order k.
PROBLEMS = {
    "torus": lambda k: TorusProblem(),
    "torus-simple": lambda k: TorusProblem.simplified(),
    "flat-square": lambda k: FlatSquareProblem(degree=k),
}


def _add_common(parser):
    parser.add_argument("--problem", choices=list(PROBLEMS), default="torus")
    parser.add_argument("--k", type=int, default=1, help="element order, 1..3")
    parser.add_argument("--node-placement", choices=NODE_PLACEMENTS, default="chart")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="surfnitsche",
        description="Nitsche finite elements for the surface Poisson problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one discrete problem")
    p_solve.set_defaults(run=cmd_solve)
    _add_common(p_solve)
    p_solve.add_argument("--n-div", type=int, default=8)
    p_solve.add_argument("--vtk", help="write solution and pointwise error as VTK")
    p_solve.add_argument("--matrix-out", help="path prefix for MatrixMarket export")

    p_conv = sub.add_parser("convergence", help="run a refinement study")
    p_conv.set_defaults(run=cmd_convergence)
    _add_common(p_conv)
    p_conv.add_argument("--levels", type=int, default=4)
    p_conv.add_argument("--base-divisions", type=int, default=8)
    p_conv.add_argument("--csv", help="write the study as CSV")

    p_mesh = sub.add_parser("mesh-report", help="geometric approximation report")
    p_mesh.set_defaults(run=cmd_mesh_report)
    _add_common(p_mesh)
    p_mesh.add_argument("--n-div", type=int, default=8)
    p_mesh.add_argument("--out", help="also write the report to a file")

    for solving in (p_solve, p_conv):
        solving.add_argument("--beta", type=float, default=1e4, help="Nitsche penalty")
    return parser


def cmd_solve(args) -> int:
    problem = PROBLEMS[args.problem](args.k)
    mesh = build_mesh(args.n_div, args.k, problem, args.node_placement)
    system = assemble(mesh, args.beta, problem)
    report = _solve_at_penalty(system, args.beta)
    err = error_measures(mesh, report.solution, problem)
    exact = problem.solution_and_gradient_at(mesh.nodes)[0]
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
        matrix_path, rhs_path = _matrix_paths(args.matrix_out)
        write_matrix_market(matrix_path, system.matrix)
        write_vector_market(rhs_path, system.rhs)
        print(f"wrote {matrix_path}, {rhs_path}")
    return 0


def cmd_convergence(args) -> int:
    problem = PROBLEMS[args.problem](args.k)
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
    problem = PROBLEMS[args.problem](args.k)
    mesh = build_mesh(args.n_div, args.k, problem, args.node_placement)
    report = geometric_report(mesh, problem)
    lines = [
        f"n_div = {args.n_div}",
        f"k = {args.k}",
        f"h = {mesh.h:.12e}",
        f"dof = {mesh.num_nodes}",
        f"elements = {mesh.num_elements}",
    ]
    lines += [f"{name} = {value:.12e}" for name, value in dataclasses.asdict(report).items()]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    return 0


def _matrix_paths(prefix):
    """The matrix and rhs files that --matrix-out PREFIX writes."""
    return prefix + "_matrix.mtx", prefix + "_rhs.mtx"


def _check_output_paths(args):
    """Raise InvalidArgumentError for an output file that cannot be written."""
    for dest in ("vtk", "matrix_out", "csv", "out"):
        value = getattr(args, dest, None)
        if not value:
            continue
        paths = _matrix_paths(value) if dest == "matrix_out" else [value]
        for path in paths:
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                reason = f"no directory {directory}"
            elif os.path.isdir(path):
                reason = "it is a directory"
            elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
                reason = "permission denied"
            else:
                continue
            raise InvalidArgumentError(f"cannot write --{dest.replace('_', '-')} {path}: {reason}")


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output_paths(args)
        return args.run(args)
    except SurfNitscheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():  # pragma: no cover
    sys.exit(run())

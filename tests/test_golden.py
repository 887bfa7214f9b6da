"""Golden fingerprints: the design contract as a committed fixture.

A refactor must keep every assembled matrix, every error value and every
mesh report equal to within rounding.  ``golden_fingerprints.json`` holds
scalar fingerprints of those outputs, recorded once with the library as
it stood; every run compares against them at 1e-10 relative.

Per case: the Frobenius norm and v^T M w of the assembled matrix and of
its core and penalty parts (random seeded v, w), the norm and b^T v of
the right-hand sides, the direct solution dotted with v, every
``ErrorMeasures`` and ``GeometricReport`` field, and the flags of a
penalty probe.  Flags and fold messages compare exactly.  The cases are
the wavy band, the simplified band and the flat square at k = 1..3 and
n_div 4 and 8, with chart nodes and with facet-linear nodes (a fold
message where those fold), plus the wavy band at k = 3, n_div 32, whose
elements no longer fit in one quadrature batch (parts, the error of a
fixed coefficient vector and the report; no solve), and a three-level
k = 1 study on the wavy band.  Every solve is direct (at most 2,000
unknowns), so no value records where an iterative solver stopped.

The fixture changes only in a change that says why, listing the old and
new values.  To re-record: ``PYTHONPATH=src python tests/test_golden.py``.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from surfnitsche import geometry as geo
from surfnitsche.analysis import convergence_study, error_measures
from surfnitsche.assembly import _assemble_parts, assemble, min_stable_beta_probe
from surfnitsche.errors import MeshInvalidError
from surfnitsche.mesh import build_mesh, geometric_report
from surfnitsche.solve import solve_spd

from conftest import solution_at

DATA = Path(__file__).with_name("golden_fingerprints.json")

RTOL = 1e-10
# Values below this are rounding noise (the flat patch test's errors, the
# flat square's distances to itself) and are compared absolutely.
ATOL = 1e-12

BETA = 1e4
PROBE_GRID = np.geomspace(1.0, 1e4, 9)

PROBLEMS = {
    "wavy": lambda order: geo.TorusProblem(),
    "simplified": lambda order: geo.TorusProblem.simplified(),
    "flat": lambda order: geo.FlatSquareProblem(order),
}
SMALL = [
    (name, order, n_div, placement)
    for placement in ("chart", "facet-linear")
    for name in PROBLEMS
    for order in (1, 2, 3)
    for n_div in (4, 8)
]
LARGE = [("wavy", 3, 32, "chart")]
STUDY = "study-wavy-k1-levels3"


def case_id(case):
    name, order, n_div, placement = case
    return f"{name}-k{order}-n{n_div}-{placement}"


# The cases whose mesh does not fold, so that they have a system; the fold
# cases are checked by their fold message alone.
ASSEMBLED = [
    case for case in SMALL + LARGE if "fold" not in json.loads(DATA.read_text())[case_id(case)]
]


def _vectors(n):
    rng = np.random.default_rng(n)
    return rng.standard_normal(n), rng.standard_normal(n)


def _matrix(prefix, matrix, v, w):
    return {f"{prefix}.fro": spla.norm(matrix), f"{prefix}.vMw": v @ (matrix @ w)}


def _vector(prefix, vector, v):
    return {f"{prefix}.norm": np.linalg.norm(vector), f"{prefix}.dot_v": vector @ v}


def _fields(prefix, record):
    return {f"{prefix}.{field}": getattr(record, field) for field in record.__dataclass_fields__}


def fingerprints(case):
    """Scalar fingerprints of one case, or its fold message."""
    name, order, n_div, placement = case
    problem = PROBLEMS[name](order)
    try:
        mesh = build_mesh(n_div, order, problem, placement)
    except MeshInvalidError as err:
        return {"fold": str(err)}
    v, w = _vectors(mesh.num_nodes)
    parts = _assemble_parts(mesh, problem)
    prints = {
        **_matrix("core", parts.core, v, w),
        **_matrix("penalty", parts.penalty, v, w),
        **_vector("rhs_core", parts.rhs_core, v),
        **_vector("rhs_penalty", parts.rhs_penalty, v),
        **_fields("report", geometric_report(mesh, problem)),
    }
    if case in LARGE:
        coefficients = solution_at(problem, mesh.nodes) + 1e-3 * np.sin(np.arange(mesh.num_nodes))
        prints.update(_fields("error", error_measures(mesh, coefficients, problem)))
    else:
        system = assemble(mesh, BETA, problem)
        solution = solve_spd(system, method="direct").solution
        prints.update(_matrix("matrix", system.matrix, v, w))
        prints.update(_vector("rhs", system.rhs, v))
        prints["solution.dot_v"] = solution @ v
        prints.update(_fields("error", error_measures(mesh, solution, problem)))
        prints["probe"] = [flag for _, flag in min_stable_beta_probe(mesh, PROBE_GRID, problem)]
    return {key: v if isinstance(v, list) else float(v) for key, v in prints.items()}


def study_fingerprints():
    """Every field of a three-level k = 1 study from 4 divisions."""
    records = convergence_study(1, 3, BETA, geo.TorusProblem(), base_divisions=4)
    return {
        f"L{record.level}.{field}": float(getattr(record, field))
        for record in records
        for field in ("h", "dof", "l2_error", "energy_error", "eoc_l2", "eoc_energy")
        if getattr(record, field) is not None
    }


def assert_matches(actual, expected):
    assert actual.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, (str, list)):
            assert actual[key] == value, key
        else:
            assert math.isclose(actual[key], value, rel_tol=RTOL, abs_tol=ATOL), (
                f"{key}: {actual[key]!r} != recorded {value!r}"
            )


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("case", SMALL + LARGE, ids=case_id)
def test_matches_golden_fingerprints(case, recorded):
    assert_matches(fingerprints(case), recorded[case_id(case)])


@pytest.mark.parametrize("case", ASSEMBLED, ids=case_id)
def test_assembled_matrices_exactly_symmetric(case):
    """A^T == A bit for bit: the direct solve factors the CSR arrays read as CSC."""
    name, order, n_div, placement = case
    problem = PROBLEMS[name](order)
    mesh = build_mesh(n_div, order, problem, placement)
    parts = _assemble_parts(mesh, problem)
    for matrix in (parts.core, parts.penalty, assemble(mesh, BETA, problem).matrix):
        assert (matrix != matrix.T).nnz == 0


def test_study_matches_golden_fingerprints(recorded):
    assert_matches(study_fingerprints(), recorded[STUDY])


if __name__ == "__main__":
    cases = {case_id(case): fingerprints(case) for case in SMALL + LARGE}
    DATA.write_text(json.dumps({**cases, STUDY: study_fingerprints()}, indent=1) + "\n")

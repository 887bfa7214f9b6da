"""The problem protocol: the nine members the library reads of a problem.

Every stage of the pipeline, and ``surfnitsche solve``, runs against a
``StrictProblem``, which exposes only those members, for the wavy and
simplified torus bands and the flat square at k = 1..3.  Together they
must read every member, the problem classes must define no other public
method, and the table in the ``geometry`` docstring must list exactly
these members.
"""
import re

import numpy as np
import pytest

from surfnitsche import cli
from surfnitsche import geometry as geo
from surfnitsche.analysis import convergence_study, error_measures
from surfnitsche.assembly import assemble, min_stable_beta_probe
from surfnitsche.errors import MeshInvalidError
from surfnitsche.mesh import build_mesh, geometric_report
from surfnitsche.solve import solve_spd

PROTOCOL = frozenset(
    {
        "chart",
        "chart_aspect",
        "periodic",
        "distance_and_normal",
        "correct_to_boundary",
        "project_to_boundary",
        "load_at",
        "dirichlet_at",
        "solution_and_gradient_at",
    }
)

PROBLEMS = {
    "wavy": geo.TorusProblem,
    "simplified": geo.TorusProblem.simplified,
    "flat": lambda: geo.FlatSquareProblem(3),
}
CASES = [(name, order) for name in PROBLEMS for order in (1, 2, 3)]
CASE_IDS = [f"{name}-k{order}" for name, order in CASES]


class StrictProblem:
    """A problem with the protocol members only; records the members read."""

    def __init__(self, problem, read):
        self._problem = problem
        self._read = read

    def __getattr__(self, name):
        if name not in PROTOCOL:
            raise AttributeError(f"{name!r} is not a member of the problem protocol")
        self._read.add(name)
        return getattr(self._problem, name)


@pytest.mark.parametrize("name, order", CASES, ids=CASE_IDS)
def test_pipeline_reads_exactly_the_protocol(name, order, monkeypatch):
    read = set()
    problem = StrictProblem(PROBLEMS[name](), read)
    other = StrictProblem(PROBLEMS[name](), read)
    try:
        build_mesh(4, order, problem, "facet-linear")
    except MeshInvalidError:
        # the facet-linear wavy band folds at k = 2, 3 on a grid this coarse
        assert (name, order) in {("wavy", 2), ("wavy", 3)}
    mesh = build_mesh(4, order, problem)
    for against in (problem, other):
        geometric_report(mesh, against)
    system = assemble(mesh, 1e4, problem)
    report = solve_spd(system)
    error_measures(mesh, report.solution, problem)
    min_stable_beta_probe(mesh, [1e2, 1e4], problem)
    convergence_study(order, 3, 1e4, problem, base_divisions=3)
    monkeypatch.setattr(cli, "PROBLEMS", {"strict": lambda k: problem})
    assert cli.run(["solve", "--problem", "strict", "--k", str(order), "--n-div", "4"]) == 0
    assert read == PROTOCOL


def test_strict_problem_rejects_other_members():
    strict = StrictProblem(geo.TorusProblem(), set())
    removed = (
        "signed_distance",
        "normal_at_closest",
        "closest_point",
        "solution_at",
        "boundary_sides",
    )
    for name in ("simplified", "torus", "boundary", *removed):
        with pytest.raises(AttributeError):
            getattr(strict, name)
    assert np.all(np.isfinite(strict.distance_and_normal([[1.2, 0.0, 0.3]])[0]))


@pytest.mark.parametrize("cls", [geo.TorusProblem, geo.FlatSquareProblem])
def test_problem_classes_define_only_the_protocol(cls):
    public = {name for name in vars(cls) if not name.startswith("_")}
    assert public - {"simplified"} == PROTOCOL


def test_geometry_docstring_table_lists_the_protocol():
    """The left column of the member table names each member exactly once."""
    table = geo.__doc__.split("the library reads no other:\n\n")[1].split("\n\n")[0]
    lines = table.splitlines()
    column = lines[0].index("build_mesh")
    names = [name for line in lines for name in re.findall(r"\w+", line[:column])]
    assert sorted(names) == sorted(PROTOCOL)

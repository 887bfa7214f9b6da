"""Renumbering invariance of assembly, solve and error measurement.

Shuffling the node ids and the element order (and mapping the boundary
edge groups to the new element ids) describes the same discrete problem.
The solution must come back permuted and every error measure must stay
the same up to the rounding of a different summation order; a scatter
that mixed up local, global or old and new ids would not.
"""
import numpy as np
import pytest

from surfnitsche import geometry as geo
from surfnitsche.analysis import error_measures
from surfnitsche.assembly import assemble
from surfnitsche.mesh import ParametricMesh, build_mesh
from surfnitsche.solve import solve_spd

PROBLEMS = pytest.mark.parametrize(
    "problem",
    [geo.TorusProblem(), geo.TorusProblem.simplified(), geo.FlatSquareProblem(2)],
    ids=["wavy", "simplified", "flat"],
)


def renumbered(mesh, rng):
    """The mesh with shuffled node ids and element order, and the old -> new node map."""
    node_map = rng.permutation(mesh.num_nodes)
    order = rng.permutation(mesh.num_elements)
    element_map = np.argsort(order)
    nodes = np.empty_like(mesh.nodes)
    nodes[node_map] = mesh.nodes
    shuffled = ParametricMesh(
        order=mesh.order,
        nodes=nodes,
        elements=node_map[mesh.elements[order]],
        boundary_edges={key: element_map[ids] for key, ids in mesh.boundary_edges.items()},
        h=mesh.h,
    )
    return shuffled, node_map


@PROBLEMS
@pytest.mark.parametrize("order", [1, 2, 3])
def test_renumbering_invariance(problem, order):
    mesh = build_mesh(6, order, problem)
    shuffled, node_map = renumbered(mesh, np.random.default_rng(order))

    system = assemble(mesh, 1e4, problem)
    shuffled_system = assemble(shuffled, 1e4, problem)
    permuted = shuffled_system.matrix[node_map][:, node_map]
    scale = abs(system.matrix).max()
    assert abs(permuted - system.matrix).max() <= 1e-13 * scale
    np.testing.assert_allclose(
        shuffled_system.rhs[node_map], system.rhs, rtol=0.0, atol=1e-13 * abs(system.rhs).max()
    )

    solution = solve_spd(system, method="direct").solution
    shuffled_solution = solve_spd(shuffled_system, method="direct").solution
    np.testing.assert_allclose(
        shuffled_solution[node_map], solution, rtol=0.0, atol=1e-12 * abs(solution).max()
    )

    # The flat square reproduces its polynomial solution for k >= 2, where
    # the errors are rounding noise of about 1e-14; the solutions are O(1).
    errors = error_measures(mesh, solution, problem)
    shuffled_errors = error_measures(shuffled, shuffled_solution, problem)
    for field in errors.__dataclass_fields__:
        assert getattr(shuffled_errors, field) == pytest.approx(
            getattr(errors, field), rel=1e-12, abs=1e-12
        ), field

"""Invariants of the discrete problem that a wrong refactor would break.

Linearity: the Nitsche system is linear in the data, so scaling the load
f and the Dirichlet data g by alpha scales the discrete solution by
alpha; a data term that reached the solution by another path, or a
matrix entry that depended on the data, would not.  Definiteness: over
random wavy bands the assembled matrix is symmetric and positive
definite at the default penalty.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boundary_specs
from surfnitsche import geometry as geo
from surfnitsche.assembly import assemble, is_positive_definite
from surfnitsche.errors import MeshInvalidError
from surfnitsche.mesh import build_mesh
from surfnitsche.solve import solve_spd


class ScaledData:
    """The problem with its load and Dirichlet data multiplied by alpha."""

    def __init__(self, problem, alpha):
        self._problem = problem
        self._alpha = alpha

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def load_at(self, points):
        return self._alpha * self._problem.load_at(points)

    def dirichlet_at(self, points):
        return self._alpha * self._problem.dirichlet_at(points)


@pytest.mark.parametrize(
    "problem",
    [geo.TorusProblem(), geo.TorusProblem.simplified(), geo.FlatSquareProblem(2)],
    ids=["wavy", "simplified", "flat"],
)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_solution_linear_in_data(problem, order):
    mesh = build_mesh(6, order, problem)
    base = solve_spd(assemble(mesh, 1e4, problem), method="direct").solution
    for alpha in (-0.37, 3.7, 1e3):
        scaled = solve_spd(assemble(mesh, 1e4, ScaledData(problem, alpha)), method="direct")
        expected = alpha * base
        gap = np.abs(scaled.solution - expected).max()
        assert gap <= 1e-12 * np.abs(expected).max()


@settings(max_examples=25, deadline=None)
@given(boundary=boundary_specs(), n_div=st.integers(2, 8), order=st.integers(1, 3))
def test_random_band_system_spd(boundary, n_div, order):
    problem = geo.TorusProblem(boundary=boundary)
    try:
        mesh = build_mesh(n_div, order, problem)
    except MeshInvalidError:
        return
    matrix = assemble(mesh, 1e4, problem).matrix
    asymmetry = np.abs(matrix - matrix.T).max() / np.abs(matrix).max()
    assert asymmetry <= 1e-12
    assert is_positive_definite(matrix)

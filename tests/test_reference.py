import math

import numpy as np
import pytest

from surfnitsche import reference as ref
from surfnitsche.errors import UnsupportedDegreeError


def monomial_integral(a, b):
    # closed form of int_T xi^a eta^b over the unit reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(0, 21))
def test_triangle_rule_monomial_exactness(degree):
    rule = ref.triangle_rule(degree)
    assert np.all(rule.weights > 0.0)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            value = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert value == pytest.approx(monomial_integral(a, b), abs=1e-14)


def test_triangle_rule_area():
    rule = ref.triangle_rule(4)
    assert np.sum(rule.weights) == pytest.approx(0.5, abs=1e-15)


def test_edge_rule_cubic():
    rule = ref.edge_rule(3)
    assert np.sum(rule.weights * rule.points**3) == pytest.approx(0.25, abs=1e-15)
    assert np.all(rule.weights > 0.0)


@pytest.mark.parametrize("degree", range(0, 21))
def test_edge_rule_monomial_exactness(degree):
    rule = ref.edge_rule(degree)
    for a in range(degree + 1):
        value = np.sum(rule.weights * rule.points**a)
        assert value == pytest.approx(1.0 / (a + 1), abs=1e-14)


def test_unsupported_degrees():
    with pytest.raises(UnsupportedDegreeError):
        ref.triangle_rule(21)
    with pytest.raises(UnsupportedDegreeError):
        ref.edge_rule(25)
    with pytest.raises(UnsupportedDegreeError):
        ref.ReferenceElement(4)


@pytest.mark.parametrize("order", [1, 2, 3])
class TestLagrangeBasis:
    def test_nodal(self, order):
        element = ref.reference_element(order)
        values = element.eval(element.nodes)
        np.testing.assert_allclose(values, np.eye(element.num_nodes), atol=1e-13)

    def test_partition_of_unity(self, order):
        element = ref.reference_element(order)
        rng = np.random.default_rng(order)
        pts = rng.uniform(0.0, 0.5, (30, 2))
        values, grads = element.tabulate(pts)
        np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-13)
        np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-12)

    def test_isoparametric_consistency(self, order):
        # interpolating the coordinates reproduces the lattice exactly
        element = ref.reference_element(order)
        rng = np.random.default_rng(10 + order)
        coords = rng.normal(size=(element.num_nodes, 3))
        values = element.eval(element.nodes)
        np.testing.assert_allclose(values @ coords, coords, atol=1e-12)


def test_linear_basis_at_barycenter():
    values, grads = ref.reference_element(1).tabulate(np.array([[1.0 / 3.0, 1.0 / 3.0]]))
    np.testing.assert_allclose(values, [[1.0 / 3.0] * 3], atol=1e-15)
    np.testing.assert_allclose(grads, [[[-1, -1], [1, 0], [0, 1]]], atol=1e-15)


def test_edge_paths():
    assert list(ref.edge_node_ids(2, 0)) == [0, 1, 2]
    assert list(ref.edge_node_ids(2, 1)) == [2, 4, 5]
    assert list(ref.edge_node_ids(2, 2)) == [5, 3, 0]
    np.testing.assert_allclose(ref.edge_ref_points(1, np.array([0.0, 1.0])), [[1, 0], [0, 1]])
    assert ref.edge_opposite_corner(0) == 2
    assert ref.edge_opposite_corner(1) == 0
    assert ref.edge_opposite_corner(2) == 1

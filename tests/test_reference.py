import math

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from surfnitsche import reference as ref
from surfnitsche.errors import InvalidArgumentError, UnsupportedDegreeError


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


@pytest.mark.parametrize("degree", range(0, 21))
def test_rules_match_scipy_roots(degree):
    # the rules come from numpy; built from scipy.special's roots instead,
    # the collapsed-square and edge rules agree to a few ulps
    n = max(1, (degree + 2) // 2)
    xu, wu = roots_legendre(n)
    xv, wv = roots_jacobi(n, 1.0, 0.0)
    uu, vv = np.meshgrid(0.5 * (xu + 1.0), 0.5 * (xv + 1.0), indexing="ij")
    triangle, edge = ref.triangle_rule(degree), ref.edge_rule(degree)
    close = dict(rtol=0.0, atol=4e-15)
    np.testing.assert_allclose(triangle.points[:, 0], (uu * (1.0 - vv)).ravel(), **close)
    np.testing.assert_allclose(triangle.points[:, 1], vv.ravel(), **close)
    np.testing.assert_allclose(triangle.weights, (np.outer(wu, wv) / 8.0).ravel(), **close)
    np.testing.assert_allclose(edge.points, 0.5 * (xu + 1.0), **close)
    np.testing.assert_allclose(edge.weights, 0.5 * wu, **close)


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


def test_rules_cache_the_checked_degree():
    """A NumPy integer degree is read as the int it equals, so it shares its rule."""
    assert ref.triangle_rule(np.int64(8)) is ref.triangle_rule(8)
    assert ref.edge_rule(np.int32(5)) is ref.edge_rule(5)


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


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("local_edge", [0, 1, 2])
def test_edge_node_ids_follow_lattice_paths(order, local_edge):
    # (i, j) lattice offsets of each edge's nodes, written out in t order
    k = order
    paths = [
        [(m, 0) for m in range(k + 1)],
        [(k - m, m) for m in range(k + 1)],
        [(0, k - m) for m in range(k + 1)],
    ]
    multi = [tuple(ij) for ij in ref.lattice_multi_indices(order)]
    expected = [multi.index(ij) for ij in paths[local_edge]]
    assert ref.edge_node_ids(order, local_edge).tolist() == expected


def test_edge_paths():
    assert list(ref.edge_node_ids(2, 0)) == [0, 1, 2]
    assert list(ref.edge_node_ids(2, 1)) == [2, 4, 5]
    assert list(ref.edge_node_ids(2, 2)) == [5, 3, 0]
    np.testing.assert_allclose(ref.edge_ref_points(1, np.array([0.0, 1.0])), [[1, 0], [0, 1]])
    assert ref.edge_opposite_corner(0) == 2
    assert ref.edge_opposite_corner(1) == 0
    assert ref.edge_opposite_corner(2) == 1


@pytest.mark.parametrize("method", ["eval", "grad", "tabulate"])
@pytest.mark.parametrize(
    "points",
    [
        [[0.2, 0.3, 0.5]],
        [0.2, 0.3, 0.5],
        [[0.2 + 1e-3j, 0.3]],
        ["0.2", "0.3"],
        [[0.2, np.nan]],
        [[[0.2, 0.3]]],
        0.2,
    ],
    ids=["three-columns", "three-vector", "complex", "strings", "nan", "three-dims", "scalar"],
)
def test_basis_rejects_bad_points(method, points):
    """Only real, finite points of shape (2,) or (n, 2) are read; anything
    else raises instead of being cut to two columns or evaluated as given."""
    with pytest.raises(InvalidArgumentError, match="reference points"):
        getattr(ref.reference_element(2), method)(points)

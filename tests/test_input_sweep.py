"""A generated bad-input sweep over the value arguments of the public API.

Each public callable that checks its input starts from one valid call.
Every value of ``BAD_VALUES`` then replaces each of its value arguments in
turn, with warnings raised as errors, and the call must return or raise
a ``SurfNitscheError``.  One test per callable collects every other
outcome, its leaks, into one assertion message.  The problem protocol's
methods are swept on ``TorusProblem()`` and ``FlatSquareProblem(1)``, and
every ``points`` argument also gets an array whose last axis is 4.

The sweep accepts a return, so it cannot see a query that returns NaN, or
a clamp of a NaN point, without a warning.  A second test therefore feeds
the protocol's point queries and charts points and chart parameters that
are NaN, infinite or so large that the arithmetic overflows: a NaN or
infinite input must raise ``InvalidArgumentError``, and a huge one must
raise it or return finite values, with warnings raised as errors.

Object arguments (mesh, problem, system, torus, boundary, records) and
output paths stay out of the sweep: the stages duck-type them, so a
wrong object raises whatever its first missing attribute raises.  The
field values of ``write_vtk``'s point data are swept; its dict is an
object argument.
"""
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import surfnitsche
from surfnitsche import (
    BoundarySpec,
    FlatSquareProblem,
    InvalidArgumentError,
    ReferenceElement,
    SurfNitscheError,
    TorusParams,
    TorusProblem,
)

BAD_VALUES = {
    "string": "x",
    "parseable-string": "1.5",
    "bytes": b"1",
    "complex": 1.0 + 1.0j,
    "nan": np.nan,
    "inf": np.inf,
    "-inf": -np.inf,
    "huge": 1e308,
    "none": None,
    "empty": np.zeros(0),
    "ragged": [[1.0], [1.0, 2.0]],
    "2-d": np.ones((2, 2)),
    "-1": -1,
    "0": 0,
    "true": True,
}

# Swept into every argument named ``points`` besides BAD_VALUES: real,
# finite and two-dimensional, but not three-space points.
BAD_POINTS = {"last-axis-4": np.ones((2, 4))}


def _flat_mesh():
    return surfnitsche.build_mesh(2, 1, FlatSquareProblem(1))


def _system():
    return surfnitsche.assemble(_flat_mesh(), 1e4, FlatSquareProblem(1))


def _protocol(name, problem, points):
    """Entries for the value arguments of one problem's protocol methods;
    its other two members, ``chart_aspect`` and ``periodic``, take none."""
    valid = {
        "chart": dict(t=0.1, s=np.array([0.2, 0.5, 0.8])),
        "distance_and_normal": dict(points=points),
        "project_to_boundary": dict(points=points, side="lower"),
        "correct_to_boundary": dict(points=points, side="lower"),
        "dirichlet_at": dict(points=points),
        "load_at": dict(points=points),
        "solution_and_gradient_at": dict(points=points),
    }
    return {
        f"{name}.{method}": (lambda tmp, method=method, **kw: getattr(problem, method)(**kw), kw)
        for method, kw in valid.items()
    }


# name -> (function of the keyword arguments and a scratch directory,
#          valid value arguments); every value argument is swept.
SWEEP = {
    "BoundarySpec": (
        lambda tmp, **kw: BoundarySpec(**kw),
        dict(amplitude=0.2, waves_lower=4, waves_upper=3, offset=3.7),
    ),
    "TorusParams": (
        lambda tmp, **kw: TorusParams(**kw),
        dict(major_radius=1.0, minor_radius=0.4),
    ),
    "FlatSquareProblem": (
        lambda tmp, **kw: FlatSquareProblem(**kw),
        dict(degree=2),
    ),
    **_protocol(
        "FlatSquareProblem", FlatSquareProblem(1), np.array([[0.2, 0.3, 0.0], [0.7, 0.4, 0.0]])
    ),
    **_protocol("TorusProblem", TorusProblem(), np.array([[1.2, 0.3, 0.2], [-0.4, 1.1, -0.3]])),
    "torus_embed": (
        lambda tmp, **kw: surfnitsche.torus_embed(torus=TorusParams(), **kw),
        dict(theta=0.1, phi=np.array([0.2, 0.3, 0.4])),
    ),
    "surface_normal": (
        lambda tmp, **kw: surfnitsche.surface_normal(**kw),
        dict(theta=0.1, phi=np.array([0.2, 0.3, 0.4])),
    ),
    "exact_solution": (
        lambda tmp, **kw: surfnitsche.exact_solution(**kw),
        dict(theta=0.1, phi=np.array([0.2, 0.3, 0.4])),
    ),
    "exact_surface_gradient": (
        lambda tmp, **kw: surfnitsche.exact_surface_gradient(torus=TorusParams(), **kw),
        dict(theta=0.1, phi=np.array([0.2, 0.3, 0.4])),
    ),
    "load": (
        lambda tmp, **kw: surfnitsche.load(torus=TorusParams(), **kw),
        dict(theta=0.1, phi=np.array([0.2, 0.3, 0.4])),
    ),
    "boundary_phi": (
        lambda tmp, **kw: surfnitsche.boundary_phi(boundary=BoundarySpec(), **kw),
        dict(side="lower", theta=np.array([0.1, 0.2])),
    ),
    "build_mesh": (
        lambda tmp, **kw: surfnitsche.build_mesh(problem=FlatSquareProblem(1), **kw),
        dict(n_div=2, order=1, node_placement="chart"),
    ),
    "assemble": (
        lambda tmp, **kw: surfnitsche.assemble(
            _flat_mesh(), problem=FlatSquareProblem(1), **kw
        ),
        dict(beta=1e4),
    ),
    "min_stable_beta_probe": (
        lambda tmp, **kw: surfnitsche.min_stable_beta_probe(
            _flat_mesh(), problem=FlatSquareProblem(1), **kw
        ),
        dict(beta_grid=[1e2, 1e4]),
    ),
    "error_measures": (
        lambda tmp, **kw: surfnitsche.error_measures(
            _flat_mesh(), problem=FlatSquareProblem(1), **kw
        ),
        dict(coefficients=np.zeros(9)),
    ),
    "convergence_study": (
        lambda tmp, **kw: surfnitsche.convergence_study(problem=FlatSquareProblem(1), **kw),
        dict(order=1, levels=3, beta=1e4, base_divisions=2, node_placement="chart"),
    ),
    "solve_linear": (
        lambda tmp, **kw: surfnitsche.solve_linear(**kw),
        dict(matrix=sp.identity(2, format="csr") * 2.0, rhs=np.ones(2), method="auto"),
    ),
    "solve_spd": (
        lambda tmp, **kw: surfnitsche.solve_spd(_system(), **kw),
        dict(method="auto"),
    ),
    "ReferenceElement": (
        lambda tmp, **kw: ReferenceElement(**kw),
        dict(order=2),
    ),
    "ReferenceElement.eval": (
        lambda tmp, **kw: ReferenceElement(2).eval(**kw),
        dict(points=np.array([[0.2, 0.3], [0.1, 0.1]])),
    ),
    "ReferenceElement.grad": (
        lambda tmp, **kw: ReferenceElement(2).grad(**kw),
        dict(points=np.array([[0.2, 0.3], [0.1, 0.1]])),
    ),
    "triangle_rule": (
        lambda tmp, **kw: surfnitsche.triangle_rule(**kw),
        dict(degree=4),
    ),
    "edge_rule": (
        lambda tmp, **kw: surfnitsche.edge_rule(**kw),
        dict(degree=4),
    ),
    "write_vtk": (
        lambda tmp, values: surfnitsche.write_vtk(tmp / "out.vtk", _flat_mesh(), {"u": values}),
        dict(values=np.zeros(9)),
    ),
    "write_matrix_market": (
        lambda tmp, **kw: surfnitsche.write_matrix_market(tmp / "out.mtx", **kw),
        dict(matrix=sp.identity(2, format="csr")),
    ),
    "write_vector_market": (
        lambda tmp, **kw: surfnitsche.write_vector_market(tmp / "out.mtx", **kw),
        dict(vector=np.ones(2)),
    ),
}

# Public callables whose arguments are all objects.
NOT_SWEPT = {
    "geometric_report",
    "records_table",
    "records_to_csv",
}


def _leak(call):
    """None if call() returns or raises SurfNitscheError; else what escaped."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call()
    except SurfNitscheError:
        return None
    except Exception as exc:  # noqa: BLE001 - every other exception is the finding
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("name", list(SWEEP))
def test_bad_values_raise_library_errors(name, tmp_path):
    function, valid = SWEEP[name]
    calls = {"valid call": valid}
    for argument in valid:
        bad_values = {**BAD_VALUES, **(BAD_POINTS if argument == "points" else {})}
        for label, bad in bad_values.items():
            calls[f"{argument}={label}"] = {**valid, argument: bad}
    leaks = []
    for case, kwargs in calls.items():
        leak = _leak(lambda: function(tmp_path, **kwargs))
        if leak is not None:
            leaks.append(f"{case}: {leak}")
    assert not leaks, f"{name} leaks:\n" + "\n".join(leaks)


def test_sweep_covers_the_public_callables():
    """Every public callable is swept or listed as taking objects only;
    exception classes and the plain result dataclasses are left out."""
    result_types = {
        "ConvergenceRecord",
        "ErrorMeasures",
        "GeometricReport",
        "ParametricMesh",
        "QuadratureRule",
        "SolveReport",
        "SparseSystem",
    }
    callables = {
        name
        for name in surfnitsche.__all__
        if callable(value := getattr(surfnitsche, name))
        and not (isinstance(value, type) and issubclass(value, Exception))
    }
    swept = {name.split("-")[0].split(".")[0] for name in SWEEP}
    assert callables - result_types == swept | NOT_SWEPT


# Points of shape (1, 3) and chart parameters that are not finite, or finite
# but so large that a query's arithmetic overflows.
NON_FINITE_POINTS = {
    "nan-x": [[np.nan, 1.0, 0.0]],
    "inf-x": [[np.inf, 1.0, 0.0]],
    "-inf-y": [[1.0, -np.inf, 0.0]],
    "nan-z": [[1.0, 1.0, np.nan]],
}
# hypot(x, y) overflows at the first; the squares of a projection at the last.
HUGE_POINTS = {
    "1.7e308": [[1.7e308, 1.7e308, 0.0]],
    "1e308": [[1e308, 1e308, 0.0]],
    "1e200": [[1e200, 0.0, 0.0]],
}
NON_FINITE_PARAMETERS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
HUGE_PARAMETERS = {"1e308": 1e308}

POINT_QUERIES = {
    "distance_and_normal": (),
    "solution_and_gradient_at": (),
    "load_at": (),
    "dirichlet_at": (),
    "project_to_boundary": ("lower",),
    "correct_to_boundary": ("lower",),
}
PROBLEMS = {"torus": TorusProblem(), "flat": FlatSquareProblem(1)}


def _outcome(call):
    """What call() does with warnings raised as errors: "raises" for
    InvalidArgumentError, "finite" or "non-finite" for a return, or else
    the exception that escaped."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = call()
    except InvalidArgumentError:
        return "raises"
    except Exception as exc:  # noqa: BLE001 - every other exception is the finding
        return f"{type(exc).__name__}: {exc}"
    arrays = result if isinstance(result, tuple) else (result,)
    return "finite" if all(np.all(np.isfinite(a)) for a in arrays) else "non-finite"


def _bad_outcomes(call, non_finite, huge):
    """The inputs of ``non_finite`` for which call(input) does not raise
    InvalidArgumentError, and those of ``huge`` for which it neither raises
    it nor returns finite values."""
    allowed = dict.fromkeys(non_finite, ("raises",)) | dict.fromkeys(huge, ("raises", "finite"))
    bad = []
    for label, value in {**non_finite, **huge}.items():
        outcome = _outcome(lambda: call(value))
        if outcome not in allowed[label]:
            bad.append(f"{label}: {outcome}")
    return bad


@pytest.mark.parametrize("problem", list(PROBLEMS))
@pytest.mark.parametrize("query", list(POINT_QUERIES))
def test_point_queries_reject_non_finite_and_overflowing_points(problem, query):
    method = getattr(PROBLEMS[problem], query)
    bad = _bad_outcomes(
        lambda points: method(np.array(points), *POINT_QUERIES[query]),
        NON_FINITE_POINTS,
        HUGE_POINTS,
    )
    assert not bad, f"{problem}.{query}:\n" + "\n".join(bad)


@pytest.mark.parametrize("problem", list(PROBLEMS))
@pytest.mark.parametrize("parameter", ["t", "s"])
def test_charts_reject_non_finite_and_overflowing_parameters(problem, parameter):
    chart = PROBLEMS[problem].chart
    bad = _bad_outcomes(
        lambda value: chart(**{"t": 0.5, "s": 0.5, parameter: value}),
        NON_FINITE_PARAMETERS,
        HUGE_PARAMETERS,
    )
    assert not bad, f"{problem}.chart({parameter}):\n" + "\n".join(bad)

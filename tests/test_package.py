import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import surfnitsche
from surfnitsche.geometry import project_to_boundary_curve
from surfnitsche.solve import is_positive_definite


def test_exports_resolve_without_duplicates():
    names = surfnitsche.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(surfnitsche, name)] == []


def _small_mesh():
    return surfnitsche.build_mesh(4, 1, surfnitsche.TorusProblem())


BAD_INPUT = {
    "error-measures-length": lambda tmp_path: surfnitsche.error_measures(
        _small_mesh(), np.zeros(3), surfnitsche.TorusProblem()
    ),
    "torus-radii": lambda tmp_path: surfnitsche.TorusParams(1.0, 2.0),
    "torus-radius-infinite": lambda tmp_path: surfnitsche.TorusParams(major_radius=np.inf),
    "boundary-amplitude": lambda tmp_path: surfnitsche.BoundarySpec(amplitude=5.0),
    "boundary-fractional-waves": lambda tmp_path: surfnitsche.BoundarySpec(waves_lower=1.5),
    "boundary-projection-non-finite": lambda tmp_path: project_to_boundary_curve(
        [[np.nan, 0.0, 0.0]], "lower", surfnitsche.BoundarySpec(), surfnitsche.TorusParams()
    ),
    "boundary-side": lambda tmp_path: surfnitsche.boundary_phi(
        "left", 0.0, surfnitsche.BoundarySpec()
    ),
    "vtk-point-data": lambda tmp_path: surfnitsche.write_vtk(
        tmp_path / "out.vtk", _small_mesh(), {"u": np.zeros(3)}
    ),
    "mesh-fractional-n-div": lambda tmp_path: surfnitsche.build_mesh(
        8.5, 1, surfnitsche.TorusProblem()
    ),
    "mesh-float-n-div": lambda tmp_path: surfnitsche.build_mesh(8.0, 1, surfnitsche.TorusProblem()),
    "mesh-nan-n-div": lambda tmp_path: surfnitsche.build_mesh(
        float("nan"), 1, surfnitsche.TorusProblem()
    ),
    "mesh-fractional-order": lambda tmp_path: surfnitsche.build_mesh(
        4, 2.5, surfnitsche.TorusProblem()
    ),
    "mesh-infinite-chart-aspect": lambda tmp_path: surfnitsche.build_mesh(
        4, 1, surfnitsche.TorusProblem(surfnitsche.TorusParams(1e200, 1e-200))
    ),
    # aspect 4e-13 leaves no cell row
    "mesh-thin-chart-aspect": lambda tmp_path: surfnitsche.build_mesh(
        4, 1, surfnitsche.TorusProblem(boundary=surfnitsche.BoundarySpec(0.0, 0, 0, 1e-12))
    ),
    "study-fractional-levels": lambda tmp_path: surfnitsche.convergence_study(
        1, 3.5, 1e4, surfnitsche.TorusProblem()
    ),
    "study-fractional-base-divisions": lambda tmp_path: surfnitsche.convergence_study(
        1, 3, 1e4, surfnitsche.TorusProblem(), base_divisions=2.5
    ),
    "error-measures-nan": lambda tmp_path: surfnitsche.error_measures(
        _small_mesh(), np.full(_small_mesh().num_nodes, np.nan), surfnitsche.TorusProblem()
    ),
    "error-measures-inf": lambda tmp_path: surfnitsche.error_measures(
        _small_mesh(), np.full(_small_mesh().num_nodes, np.inf), surfnitsche.TorusProblem()
    ),
    "assemble-string-beta": lambda tmp_path: surfnitsche.assemble(
        _small_mesh(), "1e4", surfnitsche.TorusProblem()
    ),
    "mesh-unindexable-chart-aspect": lambda tmp_path: surfnitsche.build_mesh(
        4, 1, surfnitsche.TorusProblem(surfnitsche.TorusParams(1e18, 0.4))
    ),
    "mesh-unindexable-chart-aspect-1e100": lambda tmp_path: surfnitsche.build_mesh(
        4, 1, surfnitsche.TorusProblem(surfnitsche.TorusParams(1e100, 0.4))
    ),
    "probe-string-betas": lambda tmp_path: surfnitsche.min_stable_beta_probe(
        _small_mesh(), ["1e4", "5"], surfnitsche.TorusProblem()
    ),
    "study-base-divisions-1": lambda tmp_path: surfnitsche.convergence_study(
        1, 3, 1e4, surfnitsche.TorusProblem(), base_divisions=1
    ),
    "study-base-divisions-0": lambda tmp_path: surfnitsche.convergence_study(
        1, 3, 1e4, surfnitsche.TorusProblem(), base_divisions=0
    ),
    "flat-side": lambda tmp_path: surfnitsche.FlatSquareProblem(1).correct_to_boundary(
        np.zeros((1, 3)), "bogus"
    ),
    "flat-projection-side": lambda tmp_path: surfnitsche.FlatSquareProblem(1).project_to_boundary(
        np.zeros((1, 3)), "bogus"
    ),
    "flat-fractional-exponent": lambda tmp_path: surfnitsche.FlatSquareProblem(
        coefficients={(0.5, 0): 1.0}
    ),
    "flat-negative-exponent": lambda tmp_path: surfnitsche.FlatSquareProblem(
        coefficients={(-1, 0): 1.0}
    ),
    "flat-nan-coefficient": lambda tmp_path: surfnitsche.FlatSquareProblem(
        coefficients={(1, 0): np.nan}
    ),
    "flat-string-coefficient": lambda tmp_path: surfnitsche.FlatSquareProblem(
        coefficients={(1, 0): "x"}
    ),
    "torus-string-radius": lambda tmp_path: surfnitsche.TorusParams("1", 0.4),
    "boundary-string-amplitude": lambda tmp_path: surfnitsche.BoundarySpec(amplitude="x"),
    "boundary-string-waves": lambda tmp_path: surfnitsche.BoundarySpec(waves_lower="4"),
    "vtk-non-numeric-point-data": lambda tmp_path: surfnitsche.write_vtk(
        tmp_path / "out.vtk", _small_mesh(), {"u": ["a"] * _small_mesh().num_nodes}
    ),
    "error-measures-non-numeric": lambda tmp_path: surfnitsche.error_measures(
        _small_mesh(), ["a"] * _small_mesh().num_nodes, surfnitsche.TorusProblem()
    ),
    "matrix-market-vector": lambda tmp_path: surfnitsche.write_matrix_market(
        tmp_path / "out.mtx", np.ones(3)
    ),
    "vector-market-matrix": lambda tmp_path: surfnitsche.write_vector_market(
        tmp_path / "out.mtx", np.ones((3, 2))
    ),
    "boundary-full-turn": lambda tmp_path: surfnitsche.BoundarySpec(offset=7.0),
    "torus-problem-torus": lambda tmp_path: surfnitsche.TorusProblem(torus=1.0),
    "torus-problem-boundary": lambda tmp_path: surfnitsche.TorusProblem(boundary="x"),
    "vtk-field-name-whitespace": lambda tmp_path: surfnitsche.write_vtk(
        tmp_path / "out.vtk", _small_mesh(), {"my field": np.zeros(_small_mesh().num_nodes)}
    ),
    "vtk-field-name-empty": lambda tmp_path: surfnitsche.write_vtk(
        tmp_path / "out.vtk", _small_mesh(), {"": np.zeros(_small_mesh().num_nodes)}
    ),
    "triangle-rule-fractional-degree": lambda tmp_path: surfnitsche.triangle_rule(2.5),
    "triangle-rule-string-degree": lambda tmp_path: surfnitsche.triangle_rule("a"),
    "edge-rule-none-degree": lambda tmp_path: surfnitsche.edge_rule(None),
    "reference-element-float-order": lambda tmp_path: surfnitsche.ReferenceElement(2.0),
    "reference-element-string-order": lambda tmp_path: surfnitsche.ReferenceElement("2"),
    "solve-string-matrix": lambda tmp_path: surfnitsche.solve_linear("x", [1.0]),
    "solve-string-rhs": lambda tmp_path: surfnitsche.solve_linear(sp.eye(2), "ab"),
    "solve-3d-matrix": lambda tmp_path: surfnitsche.solve_linear(np.ones((2, 2, 2)), np.ones(2)),
    "probe-non-square-matrix": lambda tmp_path: is_positive_definite(np.ones((2, 3))),
    # At 4,096 fixed angles every sample of 4,096 waves sees cos = 1 and a gap of
    # 5.9; 64 samples per wave find the gap of 6.9 > 2 pi between them.
    "boundary-overlap-between-fixed-angles": lambda tmp_path: surfnitsche.BoundarySpec(
        amplitude=0.5, waves_lower=4096, waves_upper=0, offset=5.9
    ),
    "boundary-too-many-waves": lambda tmp_path: surfnitsche.BoundarySpec(waves_lower=10**12),
    # Strings, even parseable ones, and complex values are not real numbers.
    "solve-parseable-string-matrix": lambda tmp_path: surfnitsche.solve_linear(
        np.array([["1.5"]]), [1.0]
    ),
    "solve-complex-matrix": lambda tmp_path: surfnitsche.solve_linear(
        np.eye(2) * (2 + 1j), np.ones(2)
    ),
    "solve-complex-sparse-matrix": lambda tmp_path: surfnitsche.solve_linear(
        sp.identity(2, dtype=complex, format="csr"), np.ones(2)
    ),
    "solve-parseable-string-rhs": lambda tmp_path: surfnitsche.solve_linear(
        sp.identity(1, format="csr"), np.str_("1e4")
    ),
    "solve-complex-rhs": lambda tmp_path: surfnitsche.solve_linear(
        sp.identity(2, format="csr"), [1.0, 1 + 0j]
    ),
    "probe-complex-matrix": lambda tmp_path: is_positive_definite(
        sp.identity(2, dtype=np.complex64, format="csr")
    ),
    "probe-parseable-string-matrix": lambda tmp_path: is_positive_definite([["1", "0"], ["0", "1"]]),
    "error-measures-complex": lambda tmp_path: surfnitsche.error_measures(
        _small_mesh(), np.zeros(_small_mesh().num_nodes, complex), surfnitsche.TorusProblem()
    ),
    "error-measures-parseable-string": lambda tmp_path: surfnitsche.error_measures(
        _small_mesh(), ["1.5"] * _small_mesh().num_nodes, surfnitsche.TorusProblem()
    ),
    "vtk-complex-point-data": lambda tmp_path: surfnitsche.write_vtk(
        tmp_path / "out.vtk", _small_mesh(), {"u": np.ones(_small_mesh().num_nodes) * 1j}
    ),
    "vtk-parseable-string-point-data": lambda tmp_path: surfnitsche.write_vtk(
        tmp_path / "out.vtk", _small_mesh(), {"u": ["1.5"] * _small_mesh().num_nodes}
    ),
    "vector-market-complex": lambda tmp_path: surfnitsche.write_vector_market(
        tmp_path / "out.mtx", np.array([1.0, 2 + 0j])
    ),
    "vector-market-parseable-string": lambda tmp_path: surfnitsche.write_vector_market(
        tmp_path / "out.mtx", ["1.5", "2"]
    ),
    "matrix-market-complex": lambda tmp_path: surfnitsche.write_matrix_market(
        tmp_path / "out.mtx", sp.identity(2, dtype=complex, format="csr")
    ),
    "flat-complex-coefficient": lambda tmp_path: surfnitsche.FlatSquareProblem(
        coefficients={(1, 0): 2 + 1j}
    ),
    "flat-parseable-string-coefficient": lambda tmp_path: surfnitsche.FlatSquareProblem(
        coefficients={(1, 0): "1.5"}
    ),
    "flat-complex-degree": lambda tmp_path: surfnitsche.FlatSquareProblem(1 + 0j),
    "flat-float-degree": lambda tmp_path: surfnitsche.FlatSquareProblem(2.0),
    "flat-numpy-string-degree": lambda tmp_path: surfnitsche.FlatSquareProblem(np.str_("1")),
    "torus-complex-radius": lambda tmp_path: surfnitsche.TorusParams(np.complex128(1.0), 0.4),
    "torus-parseable-string-radius": lambda tmp_path: surfnitsche.TorusParams(1.0, "0.4"),
    "boundary-complex-amplitude": lambda tmp_path: surfnitsche.BoundarySpec(amplitude=0.2 + 0j),
    "boundary-numpy-string-offset": lambda tmp_path: surfnitsche.BoundarySpec(
        offset=np.str_("3.7")
    ),
    "assemble-complex-beta": lambda tmp_path: surfnitsche.assemble(
        _small_mesh(), 1e4 + 0j, surfnitsche.TorusProblem()
    ),
    "assemble-numpy-string-beta": lambda tmp_path: surfnitsche.assemble(
        _small_mesh(), np.str_("1e4"), surfnitsche.TorusProblem()
    ),
    "probe-complex-betas": lambda tmp_path: surfnitsche.min_stable_beta_probe(
        _small_mesh(), np.array([1e4, 5.0], dtype=complex), surfnitsche.TorusProblem()
    ),
    "probe-ragged-betas": lambda tmp_path: surfnitsche.min_stable_beta_probe(
        _small_mesh(), [[1.0], [1.0, 2.0]], surfnitsche.TorusProblem()
    ),
    "probe-string-grid": lambda tmp_path: surfnitsche.min_stable_beta_probe(
        _small_mesh(), "1e4", surfnitsche.TorusProblem()
    ),
    # Point and angle queries read their input as real numbers too.
    "boundary-projection-parseable-string": lambda tmp_path: project_to_boundary_curve(
        [["1.2", "0", "0.3"]], "lower", surfnitsche.BoundarySpec(), surfnitsche.TorusParams()
    ),
    "torus-distance-and-normal-complex": lambda tmp_path: (
        surfnitsche.TorusProblem().distance_and_normal(np.array([[1.2, 0.0, 0.3]], complex))
    ),
    "torus-distance-and-normal-parseable-string": lambda tmp_path: (
        surfnitsche.TorusProblem().distance_and_normal(["1.2", "0", "0.3"])
    ),
    "torus-embed-parseable-string": lambda tmp_path: surfnitsche.torus_embed(
        "0.5", 0.0, surfnitsche.TorusParams()
    ),
    "surface-normal-complex": lambda tmp_path: surfnitsche.surface_normal(0.5, 1j),
    "boundary-phi-parseable-string": lambda tmp_path: surfnitsche.boundary_phi(
        "lower", "0.5", surfnitsche.BoundarySpec()
    ),
    "exact-solution-parseable-string": lambda tmp_path: surfnitsche.exact_solution("0.5", 0.0),
    "torus-chart-complex": lambda tmp_path: surfnitsche.TorusProblem().chart(0.5 + 0j, 0.5),
    "torus-load-parseable-string": lambda tmp_path: surfnitsche.TorusProblem().load_at(
        [["1.2", "0", "0.3"]]
    ),
    "flat-chart-parseable-string": lambda tmp_path: surfnitsche.FlatSquareProblem(1).chart(
        "0.5", 0.5
    ),
    "flat-distance-and-normal-parseable-string": lambda tmp_path: (
        surfnitsche.FlatSquareProblem(1).distance_and_normal([["0.5", "0.5", "0"]])
    ),
    "flat-solution-complex": lambda tmp_path: surfnitsche.FlatSquareProblem(1).dirichlet_at(
        np.array([[0.5, 0.5, 0.0]], complex)
    ),
}


# A warning, such as numpy's ComplexWarning for a dropped imaginary part, fails the case.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_bad_input_raises_library_error(case, tmp_path):
    with pytest.raises(surfnitsche.SurfNitscheError):
        BAD_INPUT[case](tmp_path)


# The part of the message that names the offending argument or value.
NAMED_IN_MESSAGE = {
    "flat-side": "'bogus'",
    "mesh-thin-chart-aspect": "chart aspect 3.97887e-13",
    "flat-projection-side": "'bogus'",
    "flat-fractional-exponent": "(0.5, 0)",
    "flat-negative-exponent": "(-1, 0)",
    "flat-nan-coefficient": "nan",
    "flat-string-coefficient": "'x'",
    "torus-string-radius": "major='1'",
    "boundary-string-amplitude": "amplitude",
    "boundary-string-waves": "waves_lower",
    "vtk-non-numeric-point-data": "point data 'u'",
    "error-measures-non-numeric": "coefficient vector",
    "matrix-market-vector": "matrix",
    "vector-market-matrix": "vector",
    "boundary-full-turn": "offset=7.0",
    "torus-problem-torus": "torus must be a TorusParams, got 1.0",
    "torus-problem-boundary": "boundary must be a BoundarySpec, got 'x'",
    "vtk-field-name-whitespace": "point data name",
    "vtk-field-name-empty": "point data name",
    "solve-string-matrix": "matrix",
    "solve-string-rhs": "rhs",
    "solve-3d-matrix": "matrix",
    "probe-non-square-matrix": "matrix of shape (2, 3)",
    "boundary-overlap-between-fixed-angles": "offset=5.9",
    "boundary-too-many-waves": "waves_lower=1000000000000",
    "solve-parseable-string-matrix": "matrix",
    "solve-complex-matrix": "matrix",
    "solve-complex-sparse-matrix": "matrix",
    "solve-parseable-string-rhs": "rhs",
    "solve-complex-rhs": "rhs",
    "probe-complex-matrix": "matrix",
    "probe-parseable-string-matrix": "matrix",
    "error-measures-complex": "coefficient vector",
    "error-measures-parseable-string": "coefficient vector",
    "vtk-complex-point-data": "point data 'u'",
    "vtk-parseable-string-point-data": "point data 'u'",
    "vector-market-complex": "vector",
    "vector-market-parseable-string": "vector",
    "matrix-market-complex": "matrix",
    "flat-complex-coefficient": "(2+1j)",
    "flat-parseable-string-coefficient": "'1.5'",
    "torus-complex-radius": "major=np.complex128(1+0j)",
    "torus-parseable-string-radius": "minor='0.4'",
    "boundary-complex-amplitude": "amplitude",
    "boundary-numpy-string-offset": "offset",
    "boundary-projection-parseable-string": "points",
    "torus-distance-and-normal-complex": "points",
    "torus-distance-and-normal-parseable-string": "points",
    "torus-embed-parseable-string": "theta",
    "surface-normal-complex": "phi",
    "boundary-phi-parseable-string": "theta",
    "exact-solution-parseable-string": "theta",
    "torus-chart-complex": "t must be real-valued",
    "torus-load-parseable-string": "points",
    "flat-chart-parseable-string": "t must be real-valued",
    "flat-distance-and-normal-parseable-string": "points",
    "flat-solution-complex": "points",
}


@pytest.mark.parametrize("case", list(NAMED_IN_MESSAGE))
def test_bad_input_names_argument(case, tmp_path):
    with pytest.raises(surfnitsche.InvalidArgumentError, match=re.escape(NAMED_IN_MESSAGE[case])):
        BAD_INPUT[case](tmp_path)


# Degree and order arguments raise UnsupportedDegreeError instead.
DEGREE_NAMED_IN_MESSAGE = {
    "triangle-rule-fractional-degree": "triangle rule degree must be an integer, got 2.5",
    "triangle-rule-string-degree": "triangle rule degree must be an integer, got 'a'",
    "edge-rule-none-degree": "edge rule degree must be an integer, got None",
    "reference-element-float-order": "element order must be an integer, got 2.0",
    "reference-element-string-order": "element order must be an integer, got '2'",
    "flat-complex-degree": "flat solution degree",
    "flat-float-degree": "flat solution degree must be an integer, got 2.0",
    "flat-numpy-string-degree": "flat solution degree",
}


@pytest.mark.parametrize("case", list(DEGREE_NAMED_IN_MESSAGE))
def test_bad_degree_names_argument(case, tmp_path):
    with pytest.raises(
        surfnitsche.UnsupportedDegreeError, match=re.escape(DEGREE_NAMED_IN_MESSAGE[case])
    ):
        BAD_INPUT[case](tmp_path)


# Penalty arguments raise InvalidPenaltyError naming beta.
PENALTY_NAMED_IN_MESSAGE = {
    "assemble-string-beta": "got beta='1e4'",
    "assemble-complex-beta": "got beta=(10000+0j)",
    "assemble-numpy-string-beta": "got beta=np.str_('1e4')",
    "probe-string-betas": "got beta='1e4'",
    "probe-complex-betas": "got beta=np.complex128(10000+0j)",
    "probe-ragged-betas": "got beta=[1.0]",
    "probe-string-grid": "beta grid '1e4' must be real-valued",
}


@pytest.mark.parametrize("case", list(PENALTY_NAMED_IN_MESSAGE))
def test_bad_penalty_names_argument(case, tmp_path):
    with pytest.raises(
        surfnitsche.InvalidPenaltyError, match=re.escape(PENALTY_NAMED_IN_MESSAGE[case])
    ):
        BAD_INPUT[case](tmp_path)


def _fresh_python(code):
    """stdout of ``code`` run by a new interpreter that imports this package."""
    src = str(Path(surfnitsche.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return result.stdout


def test_import_leaves_scipy_io_unloaded():
    """The MatrixMarket writers import scipy.io when they run, not at import."""
    code = "import sys, surfnitsche; print('scipy.io' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_pipeline_leaves_scipy_special_and_io_unloaded():
    """No stage of a run imports scipy.special or scipy.io: the quadrature
    rules come from numpy, and only the MatrixMarket writers need scipy.io."""
    code = (
        "import sys, surfnitsche as sn\n"
        "problem = sn.TorusProblem()\n"
        "sn.build_mesh(4, 2, sn.TorusProblem.simplified(), 'facet-linear')\n"
        "mesh = sn.build_mesh(4, 3, problem)\n"
        "sn.geometric_report(mesh, problem)\n"
        "system = sn.assemble(mesh, 1e4, problem)\n"
        "report = sn.solve_spd(system, method='direct')\n"
        "sn.solve_spd(system, method='cg')\n"
        "sn.error_measures(mesh, report.solution, problem)\n"
        "sn.min_stable_beta_probe(mesh, [1.0, 1e4], problem)\n"
        "print('scipy.special' in sys.modules, 'scipy.io' in sys.modules)"
    )
    assert _fresh_python(code).split() == ["False", "False"]


def test_mesh_only_run_leaves_solver_unloaded():
    """Building meshes and their report loads no solver: scipy.sparse.linalg
    is imported by the sparse factorization, when it first runs."""
    code = (
        "import sys, surfnitsche as sn\n"
        "for problem, placement in [(sn.TorusProblem(), 'chart'),\n"
        "                            (sn.TorusProblem.simplified(), 'facet-linear')]:\n"
        "    mesh = sn.build_mesh(4, 2, problem, placement)\n"
        "    sn.geometric_report(mesh, problem)\n"
        "print('scipy.sparse.linalg' in sys.modules)"
    )
    assert _fresh_python(code).strip() == "False"


def test_star_import_binds_exactly_all():
    """``from surfnitsche import *`` binds the public names and no submodule."""
    code = (
        "import types; before = set(globals()); from surfnitsche import *; "
        "new = set(globals()) - before - {'before'}; import surfnitsche; "
        "print(new == set(surfnitsche.__all__), "
        "any(isinstance(globals()[n], types.ModuleType) for n in new))"
    )
    assert _fresh_python(code).split() == ["True", "False"]


def test_source_lines_fit_100_characters():
    """The source line count is tracked as a simplicity measure; this keeps
    it from falling because statements were packed onto fewer lines."""
    package = Path(surfnitsche.__file__).parent
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []

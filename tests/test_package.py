import numpy as np
import pytest

import surfnitsche
from surfnitsche.geometry import project_to_boundary_curve


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
        4, 1, surfnitsche.TorusProblem(surfnitsche.TorusParams(1e200, 0.4))
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
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_bad_input_raises_library_error(case, tmp_path):
    with pytest.raises(surfnitsche.SurfNitscheError):
        BAD_INPUT[case](tmp_path)

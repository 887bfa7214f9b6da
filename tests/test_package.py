import numpy as np
import pytest

import surfnitsche


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
    "boundary-amplitude": lambda tmp_path: surfnitsche.BoundarySpec(amplitude=5.0),
    "boundary-side": lambda tmp_path: surfnitsche.boundary_phi(
        "left", 0.0, surfnitsche.BoundarySpec()
    ),
    "vtk-point-data": lambda tmp_path: surfnitsche.write_vtk(
        tmp_path / "out.vtk", _small_mesh(), {"u": np.zeros(3)}
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_bad_input_raises_library_error(case, tmp_path):
    with pytest.raises(surfnitsche.SurfNitscheError):
        BAD_INPUT[case](tmp_path)

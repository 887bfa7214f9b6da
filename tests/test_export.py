import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from surfnitsche import geometry as geo
from surfnitsche.assembly import assemble
from surfnitsche.export import (
    vtk_node_order,
    write_matrix_market,
    write_vector_market,
    write_vtk,
)
from surfnitsche.mesh import build_mesh

from conftest import solution_at


class TestVtkNodeOrder:
    def test_pinned_permutations(self):
        assert list(vtk_node_order(1)) == [0, 1, 2]
        assert list(vtk_node_order(2)) == [0, 2, 5, 1, 4, 3]
        assert list(vtk_node_order(3)) == [0, 3, 9, 1, 2, 6, 8, 7, 4, 5]

    def test_permutation_property(self):
        for order in (1, 2, 3):
            perm = vtk_node_order(order)
            assert sorted(perm) == list(range((order + 1) * (order + 2) // 2))


class TestVtkFile:
    def test_layout_and_roundtrip(self, tmp_path):
        problem = geo.FlatSquareProblem(2)
        mesh = build_mesh(2, 2, problem)
        field = solution_at(problem, mesh.nodes)
        path = tmp_path / "mesh.vtk"
        write_vtk(path, mesh, {"solution": field})
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        assert lines[4] == f"POINTS {mesh.num_nodes} double"
        points = np.array(
            [[float(v) for v in line.split()] for line in lines[5 : 5 + mesh.num_nodes]]
        )
        np.testing.assert_allclose(points, mesh.nodes, atol=1e-15)
        cells_at = 5 + mesh.num_nodes
        assert lines[cells_at] == f"CELLS {mesh.num_elements} {mesh.num_elements * 7}"
        first_cell = [int(v) for v in lines[cells_at + 1].split()]
        assert first_cell[0] == 6
        assert sorted(first_cell[1:]) == sorted(mesh.elements[0])
        types_at = cells_at + mesh.num_elements + 1
        assert lines[types_at] == f"CELL_TYPES {mesh.num_elements}"
        assert lines[types_at + 1] == "69"
        data_at = types_at + mesh.num_elements + 1
        assert lines[data_at] == f"POINT_DATA {mesh.num_nodes}"
        assert lines[data_at + 1] == "SCALARS solution double 1"
        assert lines[data_at + 2] == "LOOKUP_TABLE default"
        values = np.array([float(v) for v in lines[data_at + 3 : data_at + 3 + mesh.num_nodes]])
        np.testing.assert_allclose(values, field, atol=1e-15)

    def test_rejects_mismatched_data(self, tmp_path):
        mesh = build_mesh(2, 1, geo.FlatSquareProblem(1))
        with pytest.raises(ValueError):
            write_vtk(tmp_path / "bad.vtk", mesh, {"field": np.zeros(3)})


class TestMatrixMarket:
    def test_system_roundtrip(self, tmp_path, torus_problem):
        mesh = build_mesh(4, 1, torus_problem)
        system = assemble(mesh, 1e4, torus_problem)
        mpath = tmp_path / "matrix.mtx"
        vpath = tmp_path / "rhs.mtx"
        write_matrix_market(mpath, system.matrix)
        write_vector_market(vpath, system.rhs)
        assert mpath.read_text().startswith(
            "%%MatrixMarket matrix coordinate real symmetric\n"
        )
        matrix_back = scipy.io.mmread(mpath).tocsr()
        assert np.abs(matrix_back - system.matrix).max() < 1e-14
        rhs_back = np.asarray(scipy.io.mmread(vpath)).ravel()
        np.testing.assert_allclose(rhs_back, system.rhs, atol=1e-15)

    def test_random_symmetric_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = sp.random(40, 40, density=0.15, random_state=1)
        matrix = (raw + raw.T).tocsr()
        path = tmp_path / "random.mtx"
        write_matrix_market(path, matrix)
        back = scipy.io.mmread(path).tocsr()
        assert np.abs(back - matrix).max() == 0.0

    def test_path_without_suffix_kept(self, tmp_path):
        """The exact path is written: no ``.mtx`` is appended."""
        path = tmp_path / "system"
        write_matrix_market(path, sp.identity(3, format="csr"))
        write_vector_market(tmp_path / "rhs", np.ones(3))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rhs", "system"]
        assert np.array_equal(scipy.io.mmread(path).toarray(), np.eye(3))

    def test_integer_input_written_as_real(self, tmp_path):
        matrix = sp.csr_matrix(np.array([[2, -1], [-1, 2]], dtype=np.int64))
        write_matrix_market(tmp_path / "int.mtx", matrix)
        write_vector_market(tmp_path / "int_rhs.mtx", np.array([3, -4]))
        header = (tmp_path / "int.mtx").read_text().splitlines()[0]
        assert header == "%%MatrixMarket matrix coordinate real symmetric"
        vector_header = (tmp_path / "int_rhs.mtx").read_text().splitlines()[0]
        assert vector_header == "%%MatrixMarket matrix array real general"
        back = scipy.io.mmread(tmp_path / "int.mtx")
        assert back.dtype == np.float64
        assert np.array_equal(back.toarray(), matrix.toarray())
        assert np.array_equal(scipy.io.mmread(tmp_path / "int_rhs.mtx").ravel(), [3.0, -4.0])

    def test_lower_triangle_stored(self, tmp_path, torus_problem):
        """Symmetric storage holds exactly the lower triangle, read back bitwise."""
        system = assemble(build_mesh(4, 2, torus_problem), 1e4, torus_problem)
        path = tmp_path / "matrix.mtx"
        write_matrix_market(path, system.matrix)
        rows, cols, _ = sp.find(system.matrix)
        size = next(line for line in path.read_text().splitlines() if not line.startswith("%"))
        assert size == f"{system.matrix.shape[0]} {system.matrix.shape[1]} {np.sum(rows >= cols)}"
        back = scipy.io.mmread(path).tocsr()
        assert (back != system.matrix).nnz == 0

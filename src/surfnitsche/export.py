"""Plain-text exporters: legacy VTK unstructured grids and MatrixMarket.

VTK layout (legacy ASCII, one file per call), written exactly as:

    # vtk DataFile Version 3.0
    surfnitsche mesh
    ASCII
    DATASET UNSTRUCTURED_GRID
    POINTS <n_nodes> double
    <x> <y> <z>                      (one node per line, %.17g)
    CELLS <n_cells> <n_ints>
    <n_local> <id_0> ... <id_m>      (one cell per line)
    CELL_TYPES <n_cells>
    69                               (Lagrange triangle, all orders)
    POINT_DATA <n_nodes>             (only when data fields are given)
    SCALARS <name> double 1          (<name> one token: VTK splits at whitespace)
    LOOKUP_TABLE default
    <value>                          (one node per line, %.17g)

Cell connectivity follows the VTK Lagrange-triangle ordering: corner
nodes, then the interior nodes of edges 0-1, 1-2, 2-0 in edge direction,
then interior lattice nodes (one for cubic triangles).

MatrixMarket files come from ``scipy.io.mmwrite`` (imported on first
use): coordinate format with symmetric storage (lower triangle) for
matrices, array format for vectors, a ``%`` comment line after the
header, and values as shortest round-trip floats.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, float_array
from .mesh import ParametricMesh
from .reference import edge_node_ids, reference_element
from .solve import _checked_matrix

VTK_LAGRANGE_TRIANGLE = 69


def vtk_node_order(order: int) -> np.ndarray:
    """Permutation from the reference lattice to VTK Lagrange ordering."""
    element = reference_element(order)
    edges = [edge_node_ids(order, local_edge)[1:-1] for local_edge in range(3)]
    boundary = np.concatenate([element.corner_ids, *edges])
    interior = np.setdiff1d(np.arange(element.num_nodes), boundary)
    return np.concatenate([boundary, interior])


def write_vtk(path, mesh: ParametricMesh, point_data: dict | None = None):
    """Write the mesh (and optional nodal scalar fields) as legacy ASCII VTK."""
    perm = vtk_node_order(mesh.order)
    cells = mesh.elements[:, perm]
    n_local = cells.shape[1]
    lines = [
        "# vtk DataFile Version 3.0",
        "surfnitsche mesh",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_nodes} double",
    ]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.nodes]
    lines.append(f"CELLS {mesh.num_elements} {mesh.num_elements * (n_local + 1)}")
    lines += [f"{n_local} " + " ".join(str(i) for i in row) for row in cells]
    lines.append(f"CELL_TYPES {mesh.num_elements}")
    lines += [str(VTK_LAGRANGE_TRIANGLE)] * mesh.num_elements
    if point_data:
        lines.append(f"POINT_DATA {mesh.num_nodes}")
        for name, values in point_data.items():
            if not (isinstance(name, str) and name.split() == [name]):
                raise InvalidArgumentError(f"point data name {name!r} is not one word")
            values = float_array(f"point data {name!r}", values, (mesh.num_nodes,))
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines += [f"{v:.17g}" for v in values]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_matrix_market(path, matrix):
    """Write a square sparse matrix's lower triangle in MatrixMarket coordinate format."""
    import scipy.io

    matrix = _checked_matrix(matrix)
    with open(path, "wb") as handle:
        scipy.io.mmwrite(handle, matrix, symmetry="symmetric")


def write_vector_market(path, vector):
    """Write a dense vector in MatrixMarket array format."""
    import scipy.io

    vector = float_array("vector", vector)
    vector = float_array("vector", vector, (vector.size,))
    with open(path, "wb") as handle:
        scipy.io.mmwrite(handle, vector[:, None])

"""Plain-text exporters: legacy VTK unstructured grids and MatrixMarket.

VTK layout (legacy ASCII, one file per call), written exactly as:

    # vtk DataFile Version 3.0
    <title>
    ASCII
    DATASET UNSTRUCTURED_GRID
    POINTS <n_nodes> double
    <x> <y> <z>                      (one node per line, %.17g)
    CELLS <n_cells> <n_ints>
    <n_local> <id_0> ... <id_m>      (one cell per line)
    CELL_TYPES <n_cells>
    69                               (Lagrange triangle, all orders)
    POINT_DATA <n_nodes>             (only when data fields are given)
    SCALARS <name> double 1
    LOOKUP_TABLE default
    <value>                          (one node per line, %.17g)

Cell connectivity follows the VTK Lagrange-triangle ordering: corner
nodes, then the interior nodes of edges 0-1, 1-2, 2-0 in edge direction,
then interior lattice nodes (one for cubic triangles).

MatrixMarket files use the coordinate format with symmetric storage
(lower triangle) for matrices and the array format for vectors.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError
from .mesh import ParametricMesh
from .reference import edge_node_ids, reference_element

VTK_LAGRANGE_TRIANGLE = 69


def vtk_node_order(order: int) -> np.ndarray:
    """Permutation from the reference lattice to VTK Lagrange ordering."""
    element = reference_element(order)
    edges = [edge_node_ids(order, local_edge)[1:-1] for local_edge in range(3)]
    boundary = np.concatenate([element.corner_ids, *edges])
    interior = np.setdiff1d(np.arange(element.num_nodes), boundary)
    return np.concatenate([boundary, interior])


def write_vtk(path, mesh: ParametricMesh, point_data: dict | None = None, title="surfnitsche mesh"):
    """Write the mesh (and optional nodal scalar fields) as legacy ASCII VTK."""
    perm = vtk_node_order(mesh.order)
    cells = mesh.elements[:, perm]
    n_local = cells.shape[1]
    lines = [
        "# vtk DataFile Version 3.0",
        title,
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
            values = np.asarray(values, dtype=float)
            if values.shape != (mesh.num_nodes,):
                raise InvalidArgumentError(f"point data {name!r} does not match node count")
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines += [f"{v:.17g}" for v in values]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_matrix_market(path, matrix):
    """Write a symmetric sparse matrix in MatrixMarket coordinate format."""
    matrix = sp.coo_matrix(matrix)
    mask = matrix.row >= matrix.col
    rows, cols, vals = matrix.row[mask], matrix.col[mask], matrix.data[mask]
    order = np.lexsort((rows, cols))
    with open(path, "w") as handle:
        handle.write("%%MatrixMarket matrix coordinate real symmetric\n")
        handle.write(f"{matrix.shape[0]} {matrix.shape[1]} {mask.sum()}\n")
        for i in order:
            handle.write(f"{rows[i] + 1} {cols[i] + 1} {vals[i]:.17g}\n")


def write_vector_market(path, vector):
    """Write a dense vector in MatrixMarket array format."""
    vector = np.asarray(vector, dtype=float)
    with open(path, "w") as handle:
        handle.write("%%MatrixMarket matrix array real general\n")
        handle.write(f"{vector.shape[0]} 1\n")
        for v in vector:
            handle.write(f"{v:.17g}\n")

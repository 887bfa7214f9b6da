# Curved mesh generation and geometric quality measurement.
#
# Meshes of the torus band are built on a structured parameter grid:
# cells proportioned by the physical aspect of the band, split into
# triangles, with order-k Lagrange nodes on the chart so that every node
# sits on the exact surface and boundary nodes sit on the exact boundary
# curves.  The geometric report samples quadrature points to measure how
# far the polynomial surface strays between the nodes: distance to the
# surface shrinks like h^(k+1), normal deviation like h^k.

import numpy as np

from surfnitsche import TorusProblem, build_mesh, geometric_report, write_vtk

problem = TorusProblem()

for order in (1, 2, 3):
    print(f"\norder k = {order}")
    previous = None
    for n_div in (8, 16, 32):
        mesh = build_mesh(n_div, order, problem)
        report = geometric_report(mesh, problem)
        line = (
            f"  n={n_div:3d}  h={mesh.h:.3f}  dof={mesh.num_nodes:6d}  "
            f"|rho|={report.max_rho:.2e}  |n - n_h|={report.max_normal_dev:.2e}  "
            f"boundary={report.max_boundary_dist:.2e}"
        )
        if previous is not None:
            rate = np.log(previous[0] / report.max_rho) / np.log(previous[1] / mesh.h)
            line += f"  rho rate={rate:.2f}"
        previous = (report.max_rho, mesh.h)
        print(line)
        # boundary lattice nodes are exactly on the boundary curves
        assert report.max_boundary_node_dist < 1e-10
        assert report.min_scaled_jacobian > 0.05

# Export a coarse cubic mesh for inspection (ParaView reads the Lagrange
# triangles directly); the nodal field is the signed distance, which is
# zero because every node sits on the surface.
mesh = build_mesh(8, 3, problem)
rho, _ = problem.distance_and_normal(mesh.nodes)
write_vtk("torus_k3.vtk", mesh, {"signed_distance": rho})
print("\nwrote torus_k3.vtk")

"""Shared fixtures and independent numerical oracles.

The oracles deliberately avoid the code paths they check: the surface
Laplacian oracle applies central differences to the exact solution in
the metric identity, the nearest-point oracle solves the stationarity
system of the squared distance with Newton iterations built only from
the torus embedding and its derivatives, and the closed-form projection
places the nearest point by the tube's geometry rather than by the
library's x - d(x) n(x).
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from surfnitsche import geometry as geo


@pytest.fixture(scope="session")
def torus():
    return geo.TorusParams()


@pytest.fixture(scope="session")
def torus_problem():
    return geo.TorusProblem()


@pytest.fixture(scope="session")
def simple_problem():
    return geo.TorusProblem.simplified()


def solution_at(problem, points):
    """The exact solution u(p(x)) at points, from the error pass's one query."""
    return problem.solution_and_gradient_at(points)[0]


def traced_peak(fn):
    """(fn(), the peak in bytes that tracemalloc saw while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def fd_laplace_beltrami(theta, phi, torus, step=1e-4):
    """Second-order finite-difference surface Laplacian of the exact solution."""
    u = geo.exact_solution
    u_t = (u(theta + step, phi) - u(theta - step, phi)) / (2.0 * step)
    u_tt = (u(theta + step, phi) - 2.0 * u(theta, phi) + u(theta - step, phi)) / step**2
    u_pp = (u(theta, phi + step) - 2.0 * u(theta, phi) + u(theta, phi - step)) / step**2
    r = torus.minor_radius
    w = torus.major_radius + r * np.cos(theta)
    return u_tt / r**2 - np.sin(theta) * u_t / (r * w) + u_pp / w**2


def newton_closest_point(x, torus, grid=400, iters=25):
    """Nearest point on the torus via grid search plus stationarity Newton."""
    R, r = torus.major_radius, torus.minor_radius
    x = np.asarray(x, dtype=float)
    th = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    ph = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    th_grid, ph_grid = np.meshgrid(th, ph, indexing="ij")
    dist2 = np.sum((geo.torus_embed(th_grid, ph_grid, torus) - x) ** 2, axis=-1)
    i, j = np.unravel_index(np.argmin(dist2), dist2.shape)
    a, b = th_grid[i, j], ph_grid[i, j]
    for _ in range(iters):
        ct, st, cp, sp = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
        w = R + r * ct
        point = np.array([w * cp, w * sp, r * st])
        d_t = np.array([-r * st * cp, -r * st * sp, r * ct])
        d_p = np.array([-w * sp, w * cp, 0.0])
        d_tt = np.array([-r * ct * cp, -r * ct * sp, -r * st])
        d_tp = np.array([r * st * sp, -r * st * cp, 0.0])
        d_pp = np.array([-w * cp, -w * sp, 0.0])
        diff = point - x
        grad = np.array([diff @ d_t, diff @ d_p])
        hess = np.array(
            [
                [d_t @ d_t + diff @ d_tt, d_t @ d_p + diff @ d_tp],
                [d_t @ d_p + diff @ d_tp, d_p @ d_p + diff @ d_pp],
            ]
        )
        step = np.linalg.solve(hess, grad)
        a, b = a - step[0], b - step[1]
    return geo.torus_embed(a, b, torus)


def exact_closest_point(problem, points):
    """Nearest surface point in closed form: z = 0 on the flat square; on the
    torus, radially onto the center circle and then r toward the point,
    (w x / d, w y / d, r z / ell) with w = R + r zeta / ell."""
    pts = np.array(points, dtype=float)
    if isinstance(problem, geo.FlatSquareProblem):
        pts[..., 2] = 0.0
        return pts
    R, r = problem.torus.major_radius, problem.torus.minor_radius
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    d = np.hypot(x, y)
    zeta = d - R
    ell = np.hypot(zeta, z)
    w = R + r * zeta / ell
    return np.stack([w * x / d, w * y / d, r * z / ell], axis=-1)


def boundary_curve_tangent(side, theta, boundary, torus):
    """c'(theta) of a boundary curve by the chain rule in Cartesian components."""
    waves = boundary.waves_lower if side == "lower" else boundary.waves_upper
    theta = np.asarray(theta, dtype=float)
    phi = geo.boundary_phi(side, theta, boundary)
    dphi = -boundary.amplitude * waves * np.sin(waves * theta)
    r = torus.minor_radius
    w = torus.major_radius + r * np.cos(theta)
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    return np.stack([-r * st * cp - dphi * w * sp, -r * st * sp + dphi * w * cp, r * ct], axis=-1)


def boundary_specs():
    """Hypothesis strategy for wavy bands: amplitude and 0..6 waves per side.

    Amplitudes up to 0.3 keep the band nonempty under the default offset.
    """
    return st.builds(
        geo.BoundarySpec,
        amplitude=st.floats(0.0, 0.3),
        waves_lower=st.integers(0, 6),
        waves_upper=st.integers(0, 6),
    )


def random_tube_points(rng, torus, count, max_offset=0.18):
    """Points within the tubular neighborhood, via normal offsets."""
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    offset = rng.uniform(-max_offset, max_offset, count)
    return geo.torus_embed(theta, phi, torus) + offset[:, None] * geo.surface_normal(
        theta, phi
    )


def observed_orders(values, sizes):
    """Orders log(v_i / v_{i+1}) / log(h_i / h_{i+1}) along a refinement sweep."""
    return [
        float(np.log(values[i] / values[i + 1]) / np.log(sizes[i] / sizes[i + 1]))
        for i in range(len(values) - 1)
    ]

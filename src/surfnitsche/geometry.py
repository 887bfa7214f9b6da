"""Analytic geometry of the computational surfaces and manufactured data.

The torus of revolution with major radius R and minor radius r is
parameterized by angles (theta, phi),

    x = (R + r cos(theta)) cos(phi)
    y = (R + r cos(theta)) sin(phi)
    z = r sin(theta)

The computational domain is the band phi_lower(theta) <= phi <=
phi_upper(theta) between two closed curves winding once around the tube,

    phi_lower(theta) = A cos(W1 theta)
    phi_upper(theta) = A cos(W2 theta) + offset

A trigonometric exact solution is manufactured on the band and its load
follows from the intrinsic Laplacian of the induced metric
ds^2 = r^2 dtheta^2 + w^2 dphi^2 with w = R + r cos(theta):

    lap u = u_tt / r^2 - sin(theta) u_t / (r w) + u_pp / w^2

A unit square embedded in the z = 0 plane provides the degenerate flat
case (exact geometry, polynomial solutions) used for patch tests.  Both
problems expose the same nine members, and the library reads no other:

    chart_aspect, periodic     build_mesh: the cell grid, its numbering and
                               its boundary sides
    chart                      build_mesh: places every node
    correct_to_boundary        build_mesh: moves facet-linear boundary nodes
    distance_and_normal        build_mesh (facet-linear snap x - d n, fold and
                               center-circle checks) and geometric_report:
                               signed distance and exact normal
    project_to_boundary        geometric_report, and the point q(x) of the
                               Dirichlet data in assemble and error_measures
    dirichlet_at               assemble and error_measures: g(q(x))
    load_at                    assemble: f(p(x))
    solution_and_gradient_at   error_measures: u(p(x)) and its gradient;
                               ``surfnitsche solve``: u at the nodes

Every point, angle and chart-parameter query reads its input through
``errors.float_array``, so strings and complex values raise
InvalidArgumentError.  Points must also have a last axis of 3, angles must
be finite, and angles and chart parameters must broadcast together; an
angle so large that a wave argument overflows, or a chart parameter so
large that theta or phi does, raises it too.
"""
from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval2d

from .errors import (
    DegenerateInputError,
    InvalidArgumentError,
    ProjectionError,
    UnsupportedDegreeError,
    choice,
    float_array,
    integer,
)

TWO_PI = 2.0 * np.pi

# Points closer than this to a degeneracy set (the symmetry axis, the
# center circle of the tube) are rejected rather than silently projected.
_DEGENERATE_EPS = 1e-12

# Most waves per boundary curve: 2**20 samples for the band check.
_MAX_WAVES = 2**14


@dataclass(frozen=True)
class TorusParams:
    """Radii of the torus of revolution; requires 0 < minor < major < inf."""

    major_radius: float = 1.0
    minor_radius: float = 0.4

    def __post_init__(self):
        got = f"got minor={self.minor_radius!r}, major={self.major_radius!r}"
        radii = float_array(f"torus radii ({got})", (self.minor_radius, self.major_radius), (2,))
        if not 0.0 < radii[0] < radii[1] < np.inf:
            raise InvalidArgumentError(f"torus radii must satisfy 0 < minor < major < inf, {got}")


@dataclass(frozen=True)
class BoundarySpec:
    """Wavy boundary curves of the band, phi = A cos(W theta) (+ offset).

    ``waves_lower``/``waves_upper`` are the whole wave counts of the two
    curves, so that they close up where the periodic mesh does; zero waves
    give constant-phi circles.  The band must be nonempty and must not
    overlap itself: 0 < phi_upper(theta) - phi_lower(theta) < 2 pi for
    every theta, checked at 64 angles per wave of the wavier curve (the
    rate project_to_boundary_curve brackets with; at least 4,096 angles),
    so each curve may have at most 16,384 waves.  The default band spans
    0.6 of a turn at every radius.
    """

    amplitude: float = 0.2
    waves_lower: int = 4
    waves_upper: int = 3
    offset: float = 0.6 * TWO_PI

    def __post_init__(self):
        for name in ("amplitude", "offset", "waves_lower", "waves_upper"):
            value = getattr(self, name)
            float_array(f"{name} (got {value!r})", value, (), finite=True)
        for name in ("waves_lower", "waves_upper"):
            waves = getattr(self, name)
            if not float(waves).is_integer():
                raise InvalidArgumentError(f"wave counts must be whole numbers, got {waves}")
            if abs(waves) > _MAX_WAVES:
                raise InvalidArgumentError(f"{name}={waves!r} exceeds {_MAX_WAVES} waves")
        count = max(4096, 64 * int(max(abs(self.waves_lower), abs(self.waves_upper))))
        theta = np.linspace(0.0, TWO_PI, count, endpoint=False)
        with np.errstate(over="ignore"):  # an infinite gap fails the overlap check
            gap = boundary_phi("upper", theta, self) - boundary_phi("lower", theta, self)
        if not np.all(gap > 0.0):
            raise InvalidArgumentError("boundary curves cross; the band is empty somewhere")
        if not np.all(gap < TWO_PI):
            raise InvalidArgumentError(f"offset={self.offset!r} makes the band overlap itself")


def _points(points):
    """points as a real float array of shape (..., 3)."""
    pts = float_array("points", points)
    if pts.shape[-1:] != (3,):
        raise InvalidArgumentError(f"points has shape {pts.shape}, expected (..., 3)")
    return pts


def _broadcastable(**arrays):
    """The named arrays as given, if their shapes broadcast together."""
    try:
        np.broadcast_shapes(*(array.shape for array in arrays.values()))
    except ValueError:
        shapes = " and ".join(f"{name} of shape {a.shape}" for name, a in arrays.items())
        raise InvalidArgumentError(f"{shapes} do not broadcast") from None
    return tuple(arrays.values())


def _angles(theta, phi):
    """(theta, phi) as real, finite float arrays broadcast together."""
    theta = float_array("theta", theta, finite=True)
    phi = float_array("phi", phi, finite=True)
    return np.broadcast_arrays(*_broadcastable(theta=theta, phi=phi))


@contextmanager
def _no_overflow(name):
    """Raise InvalidArgumentError naming ``name``, and no warning, where the
    block overflows or makes a NaN of finite numbers.  NumPy's floating-point
    status flags tell, so the values need no second pass."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise InvalidArgumentError(f"{name} overflows") from None


def torus_embed(theta, phi, torus: TorusParams):
    """Map toroidal angles to Cartesian points, shape (..., 3)."""
    theta, phi = _angles(theta, phi)
    w = torus.major_radius + torus.minor_radius * np.cos(theta)
    return np.stack(
        [w * np.cos(phi), w * np.sin(phi), torus.minor_radius * np.sin(theta)],
        axis=-1,
    )


def toroidal_angles(points, torus: TorusParams):
    """Toroidal angles (theta, phi) of points near the torus, each in [0, 2*pi).

    theta = atan2(z, zeta) is measured in the (radial, z) half-plane around
    the center circle, phi = atan2(y, x) is the azimuth.  Both are constant
    on each normal ray from the center circle, so a point and its closest
    surface point have the same angles.
    """
    x, y, z, _, zeta, _ = _tube_coordinates(points, torus)
    return _tube_angles(x, y, z, zeta)


def _tube_angles(x, y, z, zeta):
    """(theta, phi) in [0, 2*pi) from the tube coordinates of _tube_coordinates."""
    return np.mod(np.arctan2(z, zeta), TWO_PI), np.mod(np.arctan2(y, x), TWO_PI)


def _tube_coordinates(points, torus: TorusParams):
    """(x, y, z, d, zeta, ell) of points: d = hypot(x, y), zeta = d - R, ell = hypot(zeta, z).

    Points on the symmetry axis (d = 0) have no azimuth, points on the
    center circle (ell = 0) no tube angle; at both the nearest surface
    point is not unique, and both are rejected.
    """
    pts = _points(points)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    d = np.hypot(x, y)
    if np.any(d < _DEGENERATE_EPS):
        raise DegenerateInputError("closest point and angles not unique on the symmetry axis")
    zeta = d - torus.major_radius
    ell = np.hypot(zeta, z)
    if np.any(ell < _DEGENERATE_EPS):
        raise DegenerateInputError("closest point and angles not unique on the center circle")
    return x, y, z, d, zeta, ell


def surface_normal(theta, phi):
    """Exterior unit normal of the torus at toroidal angles (theta, phi).

    n = (cos(theta) cos(phi), cos(theta) sin(phi), sin(theta)); this is the
    gradient of the signed distance, so it is independent of the radii.
    """
    theta, phi = _angles(theta, phi)
    ct = np.cos(theta)
    return np.stack([ct * np.cos(phi), ct * np.sin(phi), np.sin(theta)], axis=-1)


def _side_curve(side, boundary: BoundarySpec):
    """(waves, offset) of one boundary curve phi = A cos(W theta) + offset."""
    if choice("boundary side", side, ("lower", "upper")) == "lower":
        return boundary.waves_lower, 0.0
    return boundary.waves_upper, boundary.offset


def boundary_phi(side, theta, boundary: BoundarySpec):
    """Evaluate the phi level of one boundary curve at finite angles theta."""
    waves, offset = _side_curve(side, boundary)
    theta = float_array("theta", theta, finite=True)
    with _no_overflow(f"phi of the {side} boundary curve"):
        return boundary.amplitude * np.cos(waves * theta) + offset


def boundary_curve_point(side, theta, boundary: BoundarySpec, torus: TorusParams):
    """Point of the 3-space boundary curve theta -> embed(theta, phi_side(theta))."""
    return torus_embed(theta, boundary_phi(side, theta, boundary), torus)


def _distance_slope_and_curvature(
    cylindrical, side, theta, boundary: BoundarySpec, torus: TorusParams
):
    """Half the first and second theta-derivatives of |x - c(theta)|^2.

    ``cylindrical`` holds (rho, alpha, z) of the points x.  Components are
    taken in the orthonormal frame (e_r, e_phi, e_z) at the curve's
    azimuth phi = A cos(W theta) + offset, where with w = R + r cos(theta)

        c - x = (w - rho cos(phi - alpha), rho sin(phi - alpha), r sin(theta) - z)
        c'    = (-r sin(theta), phi' w, r cos(theta))
        c''   = (-r cos(theta) - phi'^2 w, phi'' w - 2 phi' r sin(theta), -r sin(theta))

    with phi' = -A W sin(W theta) and phi'' = -A W^2 cos(W theta).
    Returns ((c - x) . c', c' . c' + (c - x) . c'').
    """
    rho, alpha, height = cylindrical
    waves, offset = _side_curve(side, boundary)
    amp = boundary.amplitude
    r = torus.minor_radius
    cw = np.cos(waves * theta)
    phi = amp * cw + offset
    dphi = -amp * waves * np.sin(waves * theta)
    ddphi = -amp * waves**2 * cw
    r_st, r_ct = r * np.sin(theta), r * np.cos(theta)
    w = torus.major_radius + r_ct
    diff_r = w - rho * np.cos(phi - alpha)
    diff_phi = rho * np.sin(phi - alpha)
    diff_z = r_st - height
    dphi_w = dphi * w
    slope = -diff_r * r_st + diff_phi * dphi_w + diff_z * r_ct
    curvature = (
        r * r
        + dphi_w * dphi_w
        - diff_r * (r_ct + dphi * dphi_w)
        + diff_phi * (ddphi * w - 2.0 * dphi * r_st)
        - diff_z * r_st
    )
    return slope, curvature


# Safeguarded Newton after the coarse bracket stops once no point moved
# by more than _NEWTON_TOL.  After a Newton step the remaining error is
# then of order _NEWTON_TOL^2, below rounding; a bisection step that
# small means the bracket has shrunk to 2 _NEWTON_TOL around the root.
# From the closest of 64 samples per wave, 20,000 points within 0.05 to
# 0.5 of wavy curves stopped after 5 to 7 steps; points near the focal
# set of a sharp wave, where f'' <= 0 at the sample, bisect first.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_STEPS = 16

# Point-samples per block of the coarse bracket, which bounds its (points,
# samples, 3) temporaries to about 3 MiB each; a block holds whole points
# unless one point has more samples.  The Newton steps run on all points
# at once.
_BRACKET_CHUNK = 2**17


def project_to_boundary_curve(points, side, boundary: BoundarySpec, torus: TorusParams):
    """Nearest point of one boundary curve, per input point.

    Coarse sampling of the closed curve (64 samples per boundary wave, at
    least 64) brackets the minimizer of the squared distance
    f(theta) = |x - c(theta)|^2 around the closest sample.  Newton steps
    on f'(theta) = 0, with c' and c'' in closed form, then converge
    quadratically.  Each step keeps a bracket [lo, hi] on which f' changes
    sign from - to +, and bisects it instead where f'' <= 0 (on the
    concave side of a sharp wave) or where the Newton step would leave
    it.  The returned points are stationary to rounding: for 2,000 points
    within 0.05 of either curve of the wavy and simplified bands,
    |(x - q) . c'| stayed below 2.2e-13 |x - q| |c'|, and moving the input
    points by one ulp moved theta by at most 2.7e-15.
    """
    pts = np.atleast_2d(_points(points))
    if not np.all(np.isfinite(pts)):
        raise ProjectionError("non-finite point passed to boundary projection")
    waves, _ = _side_curve(side, boundary)
    n_samples = 64 * max(1, abs(int(waves)))
    theta_samples = np.arange(n_samples) * (TWO_PI / n_samples)
    curve = boundary_curve_point(side, theta_samples, boundary, torus)

    best = np.zeros(len(pts), dtype=int)
    coarse_min = np.full(len(pts), np.inf)
    points_per_block = max(1, _BRACKET_CHUNK // n_samples)
    samples_per_block = min(n_samples, _BRACKET_CHUNK)
    for start in range(0, len(pts), points_per_block):
        block = slice(start, start + points_per_block)
        for first in range(0, n_samples, samples_per_block):
            samples = curve[None, first : first + samples_per_block, :]
            d2 = np.sum((pts[block, None, :] - samples) ** 2, axis=-1)
            nearest = np.argmin(d2, axis=1)
            value = d2[np.arange(len(d2)), nearest]
            # strictly closer only: a tie keeps the earlier sample, as one argmin does
            closer = value < coarse_min[block]
            best[block] = np.where(closer, first + nearest, best[block])
            coarse_min[block] = np.where(closer, value, coarse_min[block])
    step = TWO_PI / n_samples
    theta = theta_samples[best]
    lo, hi = theta - step, theta + step
    cylindrical = (np.hypot(pts[:, 0], pts[:, 1]), np.arctan2(pts[:, 1], pts[:, 0]), pts[:, 2])
    for _ in range(_NEWTON_MAX_STEPS):
        slope, curvature = _distance_slope_and_curvature(cylindrical, side, theta, boundary, torus)
        lo = np.where(slope < 0.0, theta, lo)
        hi = np.where(slope > 0.0, theta, hi)
        convex = curvature > 0.0
        newton = theta - slope / np.where(convex, curvature, 1.0)
        take = convex & (newton >= lo) & (newton <= hi)
        previous, theta = theta, np.where(take, newton, 0.5 * (lo + hi))
        if np.all(np.abs(theta - previous) <= _NEWTON_TOL):
            break
    result = boundary_curve_point(side, theta, boundary, torus)
    final = np.sum((pts - result) ** 2, axis=-1)
    if not np.all(np.isfinite(final)) or np.any(final > coarse_min + 1e-12):
        raise ProjectionError("Newton refinement failed to improve on sampling")
    return result.reshape(np.shape(points))


def _solution_wave(theta, phi):
    """(theta, 3 phi + 5 theta) of finite angles broadcast together; a finite
    wave argument also keeps 2 theta finite."""
    theta, phi = _angles(theta, phi)
    with _no_overflow("the wave argument 3 phi + 5 theta"):
        return theta, 3.0 * phi + 5.0 * theta


def exact_solution(theta, phi):
    """Manufactured solution u = cos(3 phi + 5 theta) sin(2 theta)."""
    theta, wave = _solution_wave(theta, phi)
    return np.cos(wave) * np.sin(2.0 * theta)


def _solution_factors(theta, phi):
    """(c, s, s2, c2): cos, sin of 3 phi + 5 theta and sin, cos of 2 theta, the
    factors of the derivatives (exact_solution computes only its two)."""
    theta, wave = _solution_wave(theta, phi)
    return np.cos(wave), np.sin(wave), np.sin(2.0 * theta), np.cos(2.0 * theta)


def _solution_jet(theta, phi):
    """(u, u_theta, u_phi) of the manufactured solution; u is bitwise exact_solution."""
    c, s, s2, c2 = _solution_factors(theta, phi)
    return c * s2, -5.0 * s * s2 + 2.0 * c * c2, -3.0 * s * s2


def exact_surface_gradient(theta, phi, torus: TorusParams):
    """Tangential gradient of the manufactured solution in ambient coordinates.

    With unit frame vectors e_theta, e_phi of the toroidal chart:
    grad u = u_theta / r * e_theta + u_phi / w * e_phi.
    """
    theta, phi = _angles(theta, phi)
    _, u_t, u_p = _solution_jet(theta, phi)
    r = torus.minor_radius
    w = torus.major_radius + r * np.cos(theta)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    e_theta = np.stack([-st * cp, -st * sp, ct], axis=-1)
    e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return (u_t / r)[..., None] * e_theta + (u_p / w)[..., None] * e_phi


def load(theta, phi, torus: TorusParams):
    """Load f = -lap u, the intrinsic Laplacian of the manufactured solution negated."""
    c, s, s2, c2 = _solution_factors(theta, phi)
    u_t = -5.0 * s * s2 + 2.0 * c * c2
    u_tt = -29.0 * c * s2 - 20.0 * s * c2
    u_pp = -9.0 * c * s2
    r = torus.minor_radius
    w = torus.major_radius + r * np.cos(theta)
    return -(u_tt / r**2 - np.sin(theta) * u_t / (r * w) + u_pp / w**2)


class TorusProblem:
    """Dirichlet problem for the surface Laplacian on a wavy torus band.

    Bundles the torus radii, the boundary curves, and the manufactured
    solution into the interface the discretization consumes.  All methods
    are pure and vectorized over a leading batch of points.
    """

    periodic = True

    def __init__(self, torus: TorusParams | None = None, boundary: BoundarySpec | None = None):
        self.torus = TorusParams() if torus is None else torus
        self.boundary = BoundarySpec() if boundary is None else boundary
        if not isinstance(self.torus, TorusParams):
            raise InvalidArgumentError(f"torus must be a TorusParams, got {torus!r}")
        if not isinstance(self.boundary, BoundarySpec):
            raise InvalidArgumentError(f"boundary must be a BoundarySpec, got {boundary!r}")

    @classmethod
    def simplified(cls, torus: TorusParams | None = None):
        """Variant with constant-phi boundary circles (zero boundary waves)."""
        return cls(torus, BoundarySpec(waves_lower=0, waves_upper=0))

    @property
    def chart_aspect(self):
        """Physical band length over tube circumference; sizes the cell grid."""
        return (self.boundary.offset * self.torus.major_radius) / (
            TWO_PI * self.torus.minor_radius
        )

    def chart(self, t, s):
        """Map the unit parameter square onto the band.

        t in [0, 1] runs once around the tube (theta = 2 pi t), s in [0, 1]
        interpolates between the two boundary curves.
        """
        t, s = _broadcastable(t=float_array("t", t), s=float_array("s", s))
        with _no_overflow("theta = 2 pi t"):
            theta = TWO_PI * t
        lo = boundary_phi("lower", theta, self.boundary)
        hi = boundary_phi("upper", theta, self.boundary)
        with _no_overflow("phi = lo + s (hi - lo)"):
            phi = lo + s * (hi - lo)
        return torus_embed(theta, phi, self.torus)

    def distance_and_normal(self, points):
        """Signed distance ell - r and exterior normal at the closest point,
        from one pass over the tube coordinates.

        The closest-point map keeps both toroidal angles, so the normal is
        the unit vector from the center circle toward the point:
        n = (zeta x / (ell d), zeta y / (ell d), z / ell) with d = hypot(x, y),
        zeta = d - R and ell = hypot(zeta, z).
        """
        x, y, z, d, zeta, ell = _tube_coordinates(points, self.torus)
        radial = zeta / (ell * d)
        normal = np.stack([radial * x, radial * y, z / ell], axis=-1)
        return ell - self.torus.minor_radius, normal

    def project_to_boundary(self, points, side):
        return project_to_boundary_curve(points, side, self.boundary, self.torus)

    def correct_to_boundary(self, points, side):
        """Move near-boundary surface points onto a boundary curve at fixed theta.

        Unlike the Euclidean projection this never slides nodes along the
        curve, which keeps coarse high-order boundary elements from folding
        when the mesh builder corrects its boundary nodes.
        """
        theta, _ = toroidal_angles(points, self.torus)
        return boundary_curve_point(side, theta, self.boundary, self.torus)

    def solution_and_gradient_at(self, points):
        """u(p(x)) and its ambient gradient, from one pass over the tube coordinates.

        u(p(x)) depends on x only through the toroidal angles, so the
        gradient is u_theta grad(theta) + u_phi grad(phi) with the exact
        ambient gradients of the angle fields.  Both are evaluated at the
        angles of ``toroidal_angles``, so u is bitwise ``dirichlet_at``.
        """
        x, y, z, d, zeta, ell = _tube_coordinates(points, self.torus)
        u, u_t, u_p = _solution_jet(*_tube_angles(x, y, z, zeta))
        grad_theta = np.stack([-z * x / d, -z * y / d, zeta], axis=-1) / (ell * ell)[..., None]
        grad_phi = np.stack([-y / d**2, x / d**2, np.zeros_like(d)], axis=-1)
        return u, u_t[..., None] * grad_theta + u_p[..., None] * grad_phi

    def load_at(self, points):
        """Closest-point extension of the load, f(p(x)): f at the angles of x."""
        return load(*toroidal_angles(points, self.torus), self.torus)

    def dirichlet_at(self, points):
        """Dirichlet data at points assumed on the boundary curves: u at the angles of x."""
        return exact_solution(*toroidal_angles(points, self.torus))


# Fixed polynomial solutions of total degree 1..3 for the flat patch test,
# as coefficient arrays c[a, b] of x^a y^b.
_FLAT_SOLUTIONS = {
    1: [[-0.5, 2.0], [1.0, 0.0]],
    2: [[0.0, 2.0, -2.0], [1.0, 3.0, 0.0], [1.0, 0.0, 0.0]],
    3: [[0.0, -1.0, 0.0, 1.0], [1.0, 2.0, 1.0, 0.0], [-1.0, -2.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
}

# Side name -> (axis held fixed, its value) on the unit square.
_SQUARE_SIDES = {"lower": (1, 0.0), "right": (0, 1.0), "upper": (1, 1.0), "left": (0, 0.0)}


def _coefficient_array(coefficients):
    """c[a, b] from {(a, b): c_ab}, exponents non-negative integers and values finite."""
    name = f"flat solution coefficients {coefficients!r}"
    if not isinstance(coefficients, Mapping):
        raise InvalidArgumentError(f"{name} must be a mapping {{(a, b): c_ab}}")
    values = float_array(name, list(coefficients.values()), (len(coefficients),), finite=True)
    exponents = [[integer(name, e) for e in np.ravel(key).tolist()] for key in coefficients]
    if not all(len(key) == 2 and min(key) >= 0 for key in exponents):
        raise InvalidArgumentError(f"invalid {name}")
    exponents = np.array(exponents, int).reshape(-1, 2)
    array = np.zeros(exponents.max(axis=0, initial=0) + 1)
    array[tuple(exponents.T)] = values
    return array


class FlatSquareProblem:
    """Unit square in the z = 0 plane with a polynomial exact solution.

    The full surface pipeline runs with zero geometric error, which makes
    this the patch-test configuration: with elements of order >= the
    polynomial degree the discrete solution must reproduce the polynomial
    to solver accuracy.  The solution is the array ``coefficients[a, b]``
    of x^a y^b; each boundary side is one clamp onto its line.
    """

    periodic = False

    def __init__(self, degree: int = 1, coefficients: dict | None = None):
        if coefficients is None:
            key = integer("flat solution degree", degree, UnsupportedDegreeError)
            if key not in _FLAT_SOLUTIONS:
                raise UnsupportedDegreeError(f"no built-in flat solution of degree {degree}")
            self.coefficients = np.array(_FLAT_SOLUTIONS[key])
        else:
            self.coefficients = _coefficient_array(coefficients)
        self._dx = polyder(self.coefficients, axis=0)
        self._dy = polyder(self.coefficients, axis=1)
        self._laplacian_terms = (polyder(self._dx, axis=0), polyder(self._dy, axis=1))

    chart_aspect = 1.0

    def chart(self, t, s):
        t, s = _broadcastable(t=float_array("t", t), s=float_array("s", s))
        return np.stack(np.broadcast_arrays(t, s, 0.0), axis=-1)

    def distance_and_normal(self, points):
        """(signed distance z, normal e_z) per point."""
        pts = _points(points)
        return pts[..., 2], np.broadcast_to([0.0, 0.0, 1.0], pts.shape).copy()

    def correct_to_boundary(self, points, side):
        """Clamp points onto one side line of the square."""
        axis, value = _SQUARE_SIDES[choice("boundary side", side, _SQUARE_SIDES)]
        pts = np.clip(_points(points), 0.0, 1.0)
        pts[..., 2] = 0.0
        pts[..., axis] = value
        return pts

    project_to_boundary = correct_to_boundary

    def solution_and_gradient_at(self, points):
        pts = _points(points)
        x, y = pts[..., 0], pts[..., 1]
        gradient = [polyval2d(x, y, self._dx), polyval2d(x, y, self._dy), np.zeros_like(x)]
        return polyval2d(x, y, self.coefficients), np.stack(gradient, axis=-1)

    def load_at(self, points):
        pts = _points(points)
        return -sum(polyval2d(pts[..., 0], pts[..., 1], c) for c in self._laplacian_terms)

    def dirichlet_at(self, points):
        pts = _points(points)
        return polyval2d(pts[..., 0], pts[..., 1], self.coefficients)

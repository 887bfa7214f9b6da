import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfnitsche import geometry as geo
from surfnitsche.errors import DegenerateInputError, InvalidArgumentError
from surfnitsche.mesh import _snap, build_mesh

from conftest import (
    boundary_curve_tangent,
    boundary_specs,
    exact_closest_point,
    fd_laplace_beltrami,
    newton_closest_point,
    random_tube_points,
    solution_at,
    traced_peak,
)

TWO_PI = 2.0 * np.pi
BANDS = pytest.mark.parametrize(
    "band", ["torus_problem", "simple_problem"], ids=["wavy", "simplified"]
)
SIDES = pytest.mark.parametrize("side", ["lower", "upper"])


def points_near_curve(problem, side, rng, count, spread):
    theta = rng.uniform(0.0, TWO_PI, count)
    on_curve = geo.boundary_curve_point(side, theta, problem.boundary, problem.torus)
    return on_curve, on_curve + rng.uniform(-spread, spread, (count, 3))


def curve_parameter(problem, on_curve):
    """theta of points on a boundary curve: their toroidal angle theta."""
    return geo.toroidal_angles(on_curve, problem.torus)[0]


def assert_stationary(problem, side, points, projected):
    """|(x - q) . c'(theta)| <= 1e-12 |x - q| |c'| at every projection q of x.

    theta is a double, so even the best theta leaves a slope of up to
    ulp(theta) |c'|^2 / 2, about 3e-15 for |c'| <= 2.6 on the bands drawn
    here; the relative bound resolves that only for points at least 1e-3
    from the curve, and points closer than 1e-2 are left out.
    """
    theta = curve_parameter(problem, projected)
    tangent = boundary_curve_tangent(side, theta, problem.boundary, problem.torus)
    gap = points - projected
    gap_norm = np.linalg.norm(gap, axis=-1)
    resolved = gap_norm >= 1e-2
    assert np.any(resolved)
    slope = np.abs(np.sum(gap * tangent, axis=-1))
    bound = 1e-12 * gap_norm * np.linalg.norm(tangent, axis=-1)
    assert np.all(slope[resolved] <= bound[resolved])


class TestTorusBasics:
    def test_embed_values(self, torus):
        np.testing.assert_allclose(geo.torus_embed(0.0, 0.0, torus), [1.4, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(geo.torus_embed(np.pi, 0.0, torus), [0.6, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            geo.torus_embed(np.pi / 2, np.pi / 2, torus), [0.0, 1.0, 0.4], atol=1e-15
        )

    def test_signed_distance_values(self, torus):
        distance = geo.TorusProblem(torus).distance_and_normal
        assert distance([2.0, 0.0, 0.0])[0] == pytest.approx(0.6, abs=1e-15)
        assert distance([1.4, 0.0, 0.0])[0] == pytest.approx(0.0, abs=1e-15)
        assert distance([1.1, 0.0, 0.0])[0] == pytest.approx(-0.3, abs=1e-15)
        # no nearest point, so no distance, on the center circle
        with pytest.raises(DegenerateInputError):
            distance([1.0, 0.0, 0.0])

    def test_degenerate_axis(self, torus):
        with pytest.raises(DegenerateInputError):
            geo.TorusProblem(torus).distance_and_normal([0.0, 0.0, 0.3])
        with pytest.raises(DegenerateInputError):
            _snap(geo.TorusProblem(torus), [0.0, 0.0, 0.3])

    def test_degenerate_center_circle(self, torus):
        with pytest.raises(DegenerateInputError):
            _snap(geo.TorusProblem(torus), [1.0, 0.0, 0.0])

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            geo.TorusParams(major_radius=0.4, minor_radius=1.0)


class TestClosestPoint:
    """The library's closest-point map, mesh._snap: x - d(x) n(x)."""

    def test_symmetry_example(self, torus):
        np.testing.assert_allclose(
            _snap(geo.TorusProblem(torus), [2.0, 0.0, 0.0]), [1.4, 0.0, 0.0], atol=1e-14
        )

    def test_identity_on_surface(self, torus):
        rng = np.random.default_rng(0)
        theta = rng.uniform(0.0, TWO_PI, 50)
        phi = rng.uniform(0.0, TWO_PI, 50)
        pts = geo.torus_embed(theta, phi, torus)
        np.testing.assert_allclose(_snap(geo.TorusProblem(torus), pts), pts, atol=1e-14)

    def test_against_stationarity_oracle(self, torus):
        problem = geo.TorusProblem(torus)
        # frozen from the oracle: the point above the center circle projects
        # to the top of the tube
        np.testing.assert_allclose(
            _snap(problem, [1.0, 0.0, 0.1]), [1.0, 0.0, 0.4], atol=1e-10
        )
        rng = np.random.default_rng(1)
        for x in random_tube_points(rng, torus, 10):
            oracle = newton_closest_point(x, torus)
            np.testing.assert_allclose(_snap(problem, x), oracle, atol=1e-10)

    def test_matches_closed_form_projection(self, torus):
        # within 4 ulps of the point's norm (0.6 to 1.4 on the surface)
        problem = geo.TorusProblem(torus)
        pts = random_tube_points(np.random.default_rng(18), torus, 2000)
        expected = exact_closest_point(problem, pts)
        gap = np.abs(_snap(problem, pts) - expected).max(axis=-1)
        assert np.all(gap <= 4 * np.spacing(np.linalg.norm(expected, axis=-1)))

    def test_distance_identity_and_idempotency(self, torus):
        problem = geo.TorusProblem(torus)
        rng = np.random.default_rng(2)
        pts = random_tube_points(rng, torus, 1000)
        projected = _snap(problem, pts)
        gap = np.linalg.norm(pts - projected, axis=-1)
        rho, _ = problem.distance_and_normal(pts)
        np.testing.assert_allclose(gap, np.abs(rho), atol=1e-12)
        np.testing.assert_allclose(_snap(problem, projected), projected, atol=1e-12)


class TestSurfaceNormal:
    def test_values(self):
        np.testing.assert_allclose(geo.surface_normal(0.0, 0.0), [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            geo.surface_normal(np.pi / 2, 0.0), [0.0, 0.0, 1.0], atol=1e-15
        )

    def test_broadcasts_like_torus_embed(self, torus):
        phi = np.ones((2, 2))
        shapes = {geo.surface_normal(0.1, phi).shape, geo.torus_embed(0.1, phi, torus).shape}
        assert shapes == {(2, 2, 3)}

    def test_unit_length(self):
        rng = np.random.default_rng(3)
        n = geo.surface_normal(rng.uniform(0, TWO_PI, 200), rng.uniform(0, TWO_PI, 200))
        np.testing.assert_allclose(np.linalg.norm(n, axis=-1), 1.0, atol=1e-14)

    def test_matches_distance_gradient(self, torus):
        rng = np.random.default_rng(4)
        pts = random_tube_points(rng, torus, 20)
        problem = geo.TorusProblem(torus)
        analytic = geo.surface_normal(*geo.toroidal_angles(exact_closest_point(problem, pts), torus))
        distance = problem.distance_and_normal
        step = 1e-6
        fd = np.zeros_like(pts)
        for axis in range(3):
            offset = np.zeros(3)
            offset[axis] = step
            fd[:, axis] = (distance(pts + offset)[0] - distance(pts - offset)[0]) / (2 * step)
        np.testing.assert_allclose(fd, analytic, atol=1e-6)


class TestNormalAtClosest:
    def test_matches_normal_at_closest_angles(self, torus_problem):
        """distance_and_normal against the normal at the closest point's angles
        and the distance hypot(hypot(x, y) - R, z) - r, which it forms bitwise."""
        rng = np.random.default_rng(12)
        torus = torus_problem.torus
        pts = random_tube_points(rng, torus, 2000)
        rho, normal = torus_problem.distance_and_normal(pts)
        projected = exact_closest_point(torus_problem, pts)
        via_angles = geo.surface_normal(*geo.toroidal_angles(projected, torus))
        np.testing.assert_allclose(normal, via_angles, rtol=0.0, atol=1e-14)
        x, y, z = pts.T
        hypot = np.hypot(np.hypot(x, y) - torus.major_radius, z) - torus.minor_radius
        np.testing.assert_array_equal(rho, hypot)

    @pytest.mark.parametrize(
        "point", [[0.0, 0.0, 0.3], [1.0, 0.0, 0.0]], ids=["axis", "center-circle"]
    )
    def test_degenerate(self, torus_problem, point):
        with pytest.raises(DegenerateInputError):
            torus_problem.distance_and_normal(point)


class TestBoundary:
    def test_boundary_phi_values(self):
        waves = geo.BoundarySpec()
        assert geo.boundary_phi("lower", 0.0, waves) == pytest.approx(0.2)
        assert geo.boundary_phi("upper", 0.0, waves) == pytest.approx(0.2 + 1.2 * np.pi)
        flat = geo.BoundarySpec(waves_lower=0, waves_upper=0)
        theta = np.linspace(0, TWO_PI, 17)
        np.testing.assert_allclose(geo.boundary_phi("lower", theta, flat), 0.2)

    def test_unknown_side(self):
        with pytest.raises(ValueError):
            geo.boundary_phi("inner", 0.0, geo.BoundarySpec())

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError):
            geo.BoundarySpec(amplitude=0.3, offset=0.1)

    @pytest.mark.parametrize(
        "fields",
        [{"waves_lower": 1.5}, {"waves_upper": np.inf}, {"amplitude": np.inf}, {"offset": np.nan}],
    )
    def test_invalid_spec_rejected_before_gap_check(self, fields):
        # A fractional wave count makes phi jump at theta = 0, where the
        # periodic mesh closes.  Warnings are errors: the gap check would
        # warn on a non-finite amplitude, so it must not be reached.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError):
                geo.BoundarySpec(**fields)

    def test_band_default_is_radius_independent(self):
        # The default band spans 0.6 of a turn at every major radius.
        params = geo.TorusParams(2.0, 0.4)
        problem = geo.TorusProblem(params)
        simplified = geo.TorusProblem.simplified(params)
        assert problem.boundary == geo.BoundarySpec()
        assert simplified.boundary.offset == geo.BoundarySpec().offset
        assert (simplified.boundary.waves_lower, simplified.boundary.waves_upper) == (0, 0)
        for band in (problem, simplified):
            assert band.chart_aspect == pytest.approx(0.6 * 2.0 / 0.4, rel=1e-15)

    def test_whole_float_wave_count_accepted(self):
        assert geo.BoundarySpec(waves_lower=2.0).waves_lower == 2.0

    @pytest.mark.parametrize("waves", [-(2**14) - 1, 1e300])
    def test_unsampleable_wave_count_rejected(self, waves):
        with pytest.raises(InvalidArgumentError, match=re.escape(f"waves_upper={waves!r}")):
            geo.BoundarySpec(waves_upper=waves)

    def test_most_waves_accepted(self):
        assert geo.BoundarySpec(waves_lower=2**14, waves_upper=-(2**14)).waves_lower == 2**14

    @pytest.mark.parametrize("factor", [0.95, 1.05])
    def test_benchmark_amplitudes_construct(self, factor):
        # The benchmark's seeds scale the default amplitude by up to 5 %.
        assert geo.BoundarySpec(amplitude=0.2 * factor).amplitude == 0.2 * factor

    def test_projection_identity_on_curve(self, torus_problem):
        rng = np.random.default_rng(5)
        theta = rng.uniform(0.0, TWO_PI, 40)
        for side in ("lower", "upper"):
            on_curve = geo.boundary_curve_point(
                side, theta, torus_problem.boundary, torus_problem.torus
            )
            projected = torus_problem.project_to_boundary(on_curve, side)
            np.testing.assert_allclose(projected, on_curve, atol=1e-10)

    def test_projection_constant_curve(self, simple_problem):
        rng = np.random.default_rng(6)
        theta = rng.uniform(0.0, TWO_PI, 20)
        pts = geo.torus_embed(theta, 0.27, simple_problem.torus)
        projected = simple_problem.project_to_boundary(pts, "lower")
        _, phi = geo.toroidal_angles(projected, simple_problem.torus)
        np.testing.assert_allclose(phi, 0.2, atol=1e-10)

    def test_projection_beats_dense_polyline(self, torus_problem):
        rng = np.random.default_rng(7)
        theta_dense = np.linspace(0.0, TWO_PI, 1_000_000, endpoint=False)
        for side in ("lower", "upper"):
            curve = geo.boundary_curve_point(
                side, theta_dense, torus_problem.boundary, torus_problem.torus
            )
            theta = rng.uniform(0.0, TWO_PI, 5)
            near = geo.boundary_curve_point(
                side, theta, torus_problem.boundary, torus_problem.torus
            )
            near += rng.uniform(-0.05, 0.05, (5, 3))
            near = exact_closest_point(torus_problem, near)
            projected = torus_problem.project_to_boundary(near, side)
            for x, p in zip(near, projected):
                dense_min = np.min(np.linalg.norm(curve - x, axis=-1))
                assert np.linalg.norm(x - p) <= dense_min + 1e-12


@BANDS
@SIDES
class TestProjectionAccuracy:
    def test_one_ulp_stable(self, request, band, side):
        problem = request.getfixturevalue(band)
        _, near = points_near_curve(problem, side, np.random.default_rng(13), 2000, 0.05)
        theta = curve_parameter(problem, problem.project_to_boundary(near, side))
        nudged = near * (1.0 + 2.2e-16)
        moved = curve_parameter(problem, problem.project_to_boundary(nudged, side))
        assert np.max(np.abs(np.angle(np.exp(1j * (moved - theta))))) <= 1e-13

    def test_stationary(self, request, band, side):
        problem = request.getfixturevalue(band)
        _, near = points_near_curve(problem, side, np.random.default_rng(14), 2000, 0.05)
        assert_stationary(problem, side, near, problem.project_to_boundary(near, side))


class TestProjectionBracketBlocks:
    def test_memory_bounded(self, torus_problem):
        # Over all 50,000 points at once, the coarse bracket would hold a
        # (50,000, 256, 3) temporary, about 300 MB.
        _, near = points_near_curve(torus_problem, "lower", np.random.default_rng(15), 50_000, 0.05)
        _, peak = traced_peak(lambda: torus_problem.project_to_boundary(near, "lower"))
        assert peak < 64 * 2**20

    def test_block_size_invariant(self, torus_problem, monkeypatch):
        _, near = points_near_curve(torus_problem, "upper", np.random.default_rng(16), 3000, 0.05)
        expected = torus_problem.project_to_boundary(near, "upper")
        # blocks of 7 points of the upper curve's 3 x 64 samples
        monkeypatch.setattr(geo, "_BRACKET_CHUNK", 7 * 3 * 64)
        assert np.array_equal(torus_problem.project_to_boundary(near, "upper"), expected)

    def test_many_waves_memory_bounded(self, monkeypatch):
        # 2,048 samples per point: one block of all points would hold two
        # (2048, 2048, 3) temporaries, 96 MiB each
        problem = geo.TorusProblem(boundary=geo.BoundarySpec(amplitude=0.1, waves_lower=32))
        _, near = points_near_curve(problem, "lower", np.random.default_rng(17), 2048, 0.05)
        projected, peak = traced_peak(lambda: problem.project_to_boundary(near, "lower"))
        assert peak < 16 * 2**20
        monkeypatch.setattr(geo, "_BRACKET_CHUNK", 2048 * 2048)
        assert np.array_equal(projected, problem.project_to_boundary(near, "lower"))

    def test_sample_blocks_invariant(self, monkeypatch):
        # blocks of 100 samples split each point's 256 unevenly, and the
        # closest sample is carried from block to block
        problem = geo.TorusProblem(boundary=geo.BoundarySpec(amplitude=0.1, waves_lower=4))
        _, near = points_near_curve(problem, "lower", np.random.default_rng(18), 500, 0.05)
        expected = problem.project_to_boundary(near, "lower")
        monkeypatch.setattr(geo, "_BRACKET_CHUNK", 100)
        assert np.array_equal(problem.project_to_boundary(near, "lower"), expected)


@settings(max_examples=30, deadline=None)
@given(boundary=boundary_specs(), seed=st.integers(0, 2**32 - 1))
def test_projection_on_random_band(boundary, seed):
    problem = geo.TorusProblem(boundary=boundary)
    rng = np.random.default_rng(seed)
    for side in ("lower", "upper"):
        on_curve, near = points_near_curve(problem, side, rng, 50, 0.05)
        np.testing.assert_allclose(
            problem.project_to_boundary(on_curve, side), on_curve, rtol=0.0, atol=1e-12
        )
        projected = problem.project_to_boundary(near, side)
        assert_stationary(problem, side, near, projected)
        waves = boundary.waves_lower if side == "lower" else boundary.waves_upper
        n_samples = 64 * max(1, waves)
        samples = geo.boundary_curve_point(
            side, np.arange(n_samples) * (TWO_PI / n_samples), boundary, problem.torus
        )
        coarse = np.linalg.norm(near[:, None, :] - samples[None, :, :], axis=-1).min(axis=1)
        assert np.all(np.linalg.norm(near - projected, axis=-1) <= coarse + 1e-12)


class TestManufacturedSolution:
    def test_solution_values(self):
        assert geo.exact_solution(0.0, 1.234) == pytest.approx(0.0, abs=1e-15)
        assert geo.exact_solution(np.pi / 4, 0.0) == pytest.approx(-np.sqrt(2) / 2)

    def test_load_matches_fd_oracle(self, torus):
        rng = np.random.default_rng(8)
        theta = rng.uniform(0.0, TWO_PI, 50)
        phi = rng.uniform(0.0, TWO_PI, 50)
        oracle = -fd_laplace_beltrami(theta, phi, torus)
        np.testing.assert_allclose(geo.load(theta, phi, torus), oracle, atol=1e-5)

    def test_gradient_tangential(self, torus):
        rng = np.random.default_rng(9)
        theta = rng.uniform(0.0, TWO_PI, 100)
        phi = rng.uniform(0.0, TWO_PI, 100)
        grad = geo.exact_surface_gradient(theta, phi, torus)
        normal = geo.surface_normal(theta, phi)
        np.testing.assert_allclose(np.sum(grad * normal, axis=-1), 0.0, atol=1e-12)

    def test_extension_gradient_on_surface(self, torus_problem):
        rng = np.random.default_rng(10)
        theta = rng.uniform(0.0, TWO_PI, 50)
        phi = rng.uniform(0.0, TWO_PI, 50)
        pts = geo.torus_embed(theta, phi, torus_problem.torus)
        ambient = torus_problem.solution_and_gradient_at(pts)[1]
        chart = geo.exact_surface_gradient(theta, phi, torus_problem.torus)
        np.testing.assert_allclose(ambient, chart, atol=1e-12)

    @pytest.mark.parametrize(
        "problem",
        [geo.TorusProblem(), geo.TorusProblem.simplified(), geo.FlatSquareProblem(3)],
        ids=["wavy", "simplified", "flat"],
    )
    def test_solution_and_gradient_value_is_solution_at(self, problem):
        """The value half of the error pass's one query is bitwise the exact
        solution that dirichlet_at evaluates, in the tube around the surface
        and over the plane near the square."""
        rng = np.random.default_rng(12)
        if isinstance(problem, geo.TorusProblem):
            pts = random_tube_points(rng, problem.torus, 2000)
        else:
            pts = np.column_stack([rng.uniform(-0.5, 1.5, (2000, 2)), rng.uniform(-0.1, 0.1, 2000)])
        u, gradient = problem.solution_and_gradient_at(pts)
        assert np.array_equal(u, problem.dirichlet_at(pts))
        assert gradient.shape == pts.shape

    def test_dirichlet_matches_solution_on_boundary(self, torus_problem):
        theta = np.linspace(0.0, TWO_PI, 9)
        pts = geo.boundary_curve_point(
            "lower", theta, torus_problem.boundary, torus_problem.torus
        )
        lower_phi = geo.boundary_phi("lower", theta, torus_problem.boundary)
        np.testing.assert_allclose(
            torus_problem.dirichlet_at(pts),
            geo.exact_solution(theta, lower_phi),
            atol=1e-12,
        )


class TestPointData:
    """solution_and_gradient_at, load_at and dirichlet_at read the angles of the point itself."""

    DATA = ["solution_and_gradient_at", "load_at", "dirichlet_at"]

    @pytest.mark.parametrize("method", DATA)
    @pytest.mark.parametrize(
        "point", [[0.0, 0.0, 0.3], [1.0, 0.0, 0.0]], ids=["axis", "center-circle"]
    )
    def test_degenerate(self, torus_problem, method, point):
        with pytest.raises(DegenerateInputError):
            getattr(torus_problem, method)(np.array([[1.2, 0.1, 0.05], point]))

    def test_matches_projected_form(self, torus_problem):
        # p keeps the angles, so projecting first moves the data only by
        # rounding: by about 1e-14 of the largest value (|u| <= 1, |f| <= 200).
        torus = torus_problem.torus
        pts = random_tube_points(np.random.default_rng(17), torus, 2000)
        angles = geo.toroidal_angles(exact_closest_point(torus_problem, pts), torus)
        np.testing.assert_allclose(
            solution_at(torus_problem, pts), geo.exact_solution(*angles), rtol=0.0, atol=1e-13
        )
        projected_load = geo.load(*angles, torus)
        np.testing.assert_allclose(
            torus_problem.load_at(pts),
            projected_load,
            rtol=0.0,
            atol=1e-13 * np.abs(projected_load).max(),
        )


@settings(max_examples=50, deadline=None)
@given(
    theta=st.floats(0.0, TWO_PI, exclude_max=True),
    phi=st.floats(0.0, TWO_PI, exclude_max=True),
)
def test_angle_round_trip(theta, phi):
    torus = geo.TorusParams()
    point = geo.torus_embed(theta, phi, torus)
    theta_back, phi_back = geo.toroidal_angles(point, torus)
    np.testing.assert_allclose(
        geo.torus_embed(theta_back, phi_back, torus), point, atol=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(
    theta=st.floats(0.0, TWO_PI, exclude_max=True),
    phi=st.floats(0.0, TWO_PI, exclude_max=True),
    offset=st.floats(-0.2, 0.2),
)
def test_projection_recovers_offset_point(theta, phi, offset):
    torus = geo.TorusParams()
    surface = geo.torus_embed(theta, phi, torus)
    shifted = surface + offset * geo.surface_normal(theta, phi)
    problem = geo.TorusProblem(torus)
    np.testing.assert_allclose(_snap(problem, shifted), surface, atol=1e-12)
    rho, _ = problem.distance_and_normal(shifted)
    assert rho == pytest.approx(offset, abs=1e-12)


class TestFlatSquare:
    def test_solution_and_load(self):
        problem = geo.FlatSquareProblem(2)
        pts = np.array([[0.3, 0.4, 0.0], [0.9, 0.1, 0.2]])
        expected = 0.3**2 + 3 * 0.3 * 0.4 - 2 * 0.4**2 + 0.3 + 2 * 0.4
        assert solution_at(problem, pts)[0] == pytest.approx(expected)
        np.testing.assert_allclose(problem.load_at(pts), 2.0)

    def test_load_matches_fd(self):
        problem = geo.FlatSquareProblem(3)
        rng = np.random.default_rng(11)
        xy = rng.uniform(0.2, 0.8, (20, 2))
        pts = np.column_stack([xy, np.zeros(20)])
        step = 1e-5

        def u(x, y):
            return solution_at(problem, np.stack([x, y, np.zeros_like(x)], axis=-1))

        x, y = xy[:, 0], xy[:, 1]
        lap = (
            u(x + step, y) + u(x - step, y) + u(x, y + step) + u(x, y - step) - 4 * u(x, y)
        ) / step**2
        np.testing.assert_allclose(problem.load_at(pts), -lap, atol=1e-5)

    def test_perimeter_projection(self):
        """Each side is a clamp onto its own line: points off the square or
        inside it keep the coordinate along the side, clipped to [0, 1]."""
        problem = geo.FlatSquareProblem(1)
        pts = np.array([[0.5, -0.1, 0.02], [1.2, 0.5, 0.0], [0.3, 0.6, -0.1], [-0.4, 1.7, 0.0]])
        expected = {
            "lower": [[0.5, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.0, 0.0]],
            "right": [[1.0, 0.0, 0.0], [1.0, 0.5, 0.0], [1.0, 0.6, 0.0], [1.0, 1.0, 0.0]],
            "upper": [[0.5, 1.0, 0.0], [1.0, 1.0, 0.0], [0.3, 1.0, 0.0], [0.0, 1.0, 0.0]],
            "left": [[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.6, 0.0], [0.0, 1.0, 0.0]],
        }
        assert set(expected) == {side for _, side in build_mesh(2, 1, problem).boundary_edges}
        for side, on_side in expected.items():
            projected = problem.project_to_boundary(pts, side)
            assert np.array_equal(projected, on_side)
            assert np.array_equal(problem.correct_to_boundary(pts, side), projected)
            assert np.array_equal(problem.project_to_boundary(pts[0], side), on_side[0])

    def test_boundary_points_fixed(self):
        """Points on a side, corners included, map to themselves."""
        problem = geo.FlatSquareProblem(1)
        t = np.array([0.0, 0.25, 0.5, 1.0])
        zero, one = np.zeros_like(t), np.ones_like(t)
        on_side = {
            "lower": np.column_stack([t, zero, zero]),
            "right": np.column_stack([one, t, zero]),
            "upper": np.column_stack([t, one, zero]),
            "left": np.column_stack([zero, t, zero]),
        }
        for side, pts in on_side.items():
            assert np.array_equal(problem.project_to_boundary(pts, side), pts)
            assert np.array_equal(problem.correct_to_boundary(pts, side), pts)

    def test_unknown_side(self):
        problem = geo.FlatSquareProblem(1)
        for method in (problem.project_to_boundary, problem.correct_to_boundary):
            with pytest.raises(InvalidArgumentError, match="bogus"):
                method(np.zeros((1, 3)), "bogus")

    @pytest.mark.parametrize("degree", [1, 2, 3], ids=["degree-1", "degree-2", "degree-3"])
    def test_matches_monomial_sums(self, degree):
        """Solution, gradient and load against sums over the monomials c x^a y^b."""
        problem = geo.FlatSquareProblem(degree)
        coefficients = dict(np.ndenumerate(np.array(geo._FLAT_SOLUTIONS[degree])))
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(-0.5, 1.5, (200, 2)), rng.uniform(-0.1, 0.1, 200)])
        x, y = pts[:, 0], pts[:, 1]
        u = ux = uy = lap = 0.0
        for (a, b), c in coefficients.items():
            u = u + c * x**a * y**b
            if a >= 1:
                ux = ux + a * c * x ** (a - 1) * y**b
            if b >= 1:
                uy = uy + b * c * x**a * y ** (b - 1)
            if a >= 2:
                lap = lap + a * (a - 1) * c * x ** (a - 2) * y**b
            if b >= 2:
                lap = lap + b * (b - 1) * c * x**a * y ** (b - 2)
        gradient = np.column_stack(np.broadcast_arrays(ux, uy, 0.0 * x))
        np.testing.assert_allclose(solution_at(problem, pts), u, rtol=0.0, atol=1e-13)
        ambient = problem.solution_and_gradient_at(pts)[1]
        np.testing.assert_allclose(ambient, gradient, rtol=0, atol=1e-13)
        np.testing.assert_allclose(problem.load_at(pts), -lap + 0.0 * x, rtol=0.0, atol=1e-13)

    def test_unknown_degree(self):
        with pytest.raises(ValueError):
            geo.FlatSquareProblem(4)

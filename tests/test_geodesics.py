import math
import warnings

import numpy as np
import pytest

from grbell import (
    BadNormalization,
    HorizonApproach,
    MetricSpec,
    StepFailure,
    StopCondition,
    ValidationError,
    integrate_geodesic,
)
from grbell.geodesics import STOP_SNAP
from grbell.scenario import GeodesicSummary

M = 1.0


def static_tangent(spec, point):
    if spec.kind == "minkowski":
        return np.array([1.0, 0.0, 0.0, 0.0])
    f = 1.0 - 2.0 * spec.mass / point[1]
    return np.array([1.0 / math.sqrt(f), 0.0, 0.0, 0.0])


def circular_orbit_tangent(r, point, retrograde=False):
    ut = 1.0 / math.sqrt(1.0 - 3.0 * M / r)
    uphi = math.sqrt(M / r**3) * ut * (-1.0 if retrograde else 1.0)
    return np.array([ut, 0.0, 0.0, uphi])


def test_minkowski_static_worldline(flat):
    x0 = np.array([0.0, 0.0, 0.0, 0.0])
    path = integrate_geodesic(flat, x0, static_tangent(flat, x0), StopCondition.proper_time(5.0))
    assert np.allclose(path.points[-1], [5.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(path.tangents[-1], [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_flat_chart_radius_does_not_overflow(flat):
    from grbell import geodesics

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = geodesics._chart_radius(flat, np.array([0.0, 1e200, -1e200, 1e200]))
    assert r == pytest.approx(math.sqrt(3.0) * 1e200, rel=1e-15)


def test_minkowski_boosted_line_radius_stop(flat):
    x0 = np.array([0.0, 0.0, 0.0, 0.0])
    v = 0.6
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    u0 = np.array([gamma, gamma * v, 0.0, 0.0])
    path = integrate_geodesic(flat, x0, u0, StopCondition.radius(3.0))
    assert path.points[-1][1] == pytest.approx(3.0, abs=1e-8)
    assert path.tau_end == pytest.approx(3.0 / (gamma * v), rel=1e-9)


def test_radial_drop_conserved_energy(schw):
    # drop from rest at r0 = 10: E = sqrt(1 - 2M/r0) = sqrt(0.8)
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    path = integrate_geodesic(schw, x0, static_tangent(schw, x0), StopCondition.radius(4.0))
    f = 1.0 - 2.0 * M / path.points[:, 1]
    E = f * path.tangents[:, 0]
    assert E[0] == pytest.approx(math.sqrt(0.8), abs=1e-12)
    assert np.max(np.abs(E - math.sqrt(0.8))) < 1e-8
    assert path.points[-1][1] == pytest.approx(4.0, abs=1e-8)


def test_circular_orbit_angular_velocity(schw):
    # circular geodesic: dphi/dt = sqrt(M / r^3)
    r = 10.0
    x0 = np.array([0.0, r, math.pi / 2, 0.0])
    path = integrate_geodesic(schw, x0, circular_orbit_tangent(r, x0), StopCondition.proper_time(50.0))
    dphi_dt = (path.points[-1][3] - path.points[0][3]) / (path.points[-1][0] - path.points[0][0])
    assert dphi_dt == pytest.approx(math.sqrt(M / r**3), abs=1e-10)
    assert np.max(np.abs(path.points[:, 1] - r)) < 1e-8


def test_conservation_drift_long_path(schw):
    # mildly eccentric orbit over proper length 100M
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    uphi = 3.7 / 100.0
    ut = math.sqrt((1.0 + 100.0 * uphi**2) / 0.8)
    path = integrate_geodesic(schw, x0, np.array([ut, 0.0, 0.0, uphi]), StopCondition.proper_time(100.0))
    drift = path.drift
    assert drift["norm"] < 1e-8
    assert drift["energy"] < 1e-8
    assert drift["angular_momentum"] < 1e-8


def test_angular_momentum_drift_is_relative_at_any_mass():
    # at M = 1e-160, L_z ~ 4M varies by 1e-6 of itself along the path; an
    # absolute floor of 1 would read that drift as about 1e-166
    from grbell import geodesics
    from grbell.geometry import metric_stack

    spec = MetricSpec("schwarzschild", mass=1e-160)
    r = 10.0 * spec.mass
    points = np.array([[0.0, r, math.pi / 2, 0.0]] * 4)
    uphi = 4.0 * spec.mass / (r * r) * (1.0 + 1e-6 * np.array([0.0, 0.5, 1.0, -0.3]))
    tangents = np.column_stack([np.full(4, 1.2), np.zeros(4), np.zeros(4), uphi])
    d = np.diagonal(metric_stack(spec, points), axis1=1, axis2=2)
    drift = geodesics._conservation_drift(spec, "timelike", points, tangents, d)
    assert drift["angular_momentum"] == pytest.approx(1e-6, rel=1e-6)


def test_tangent_normalization_every_sample(schw):
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    path = integrate_geodesic(schw, x0, static_tangent(schw, x0), StopCondition.radius(5.0))
    for x, u in zip(path.points, path.tangents):
        f = 1.0 - 2.0 * M / x[1]
        uu = -f * u[0] ** 2 + u[1] ** 2 / f + x[1] ** 2 * u[2] ** 2
        assert abs(uu + 1.0) < 1e-8


def test_null_geodesic_flat(flat):
    x0 = np.array([0.0, 0.0, 0.0, 0.0])
    path = integrate_geodesic(flat, x0, np.array([1.0, 1.0, 0.0, 0.0]), StopCondition.proper_time(2.0))
    assert path.kind == "null"
    assert np.allclose(path.points[-1], [2.0, 2.0, 0.0, 0.0], atol=1e-10)


def test_null_geodesic_schwarzschild_radial(schw):
    # outgoing radial null ray: u = (E/f, E, 0, 0)
    r0 = 5.0
    f0 = 1.0 - 2.0 * M / r0
    x0 = np.array([0.0, r0, math.pi / 2, 0.0])
    path = integrate_geodesic(schw, x0, np.array([1.0 / f0, 1.0, 0.0, 0.0]), StopCondition.radius(8.0))
    assert path.kind == "null"
    drift = path.drift
    assert drift["norm"] < 1e-8 and drift["energy"] < 1e-8


def test_coordinate_time_stop(schw):
    x0 = np.array([0.0, 8.0, math.pi / 2, 0.0])
    path = integrate_geodesic(schw, x0, static_tangent(schw, x0), StopCondition.coordinate_time(12.0))
    assert path.points[-1][0] == pytest.approx(12.0, abs=1e-8)


@pytest.mark.parametrize("stop", [StopCondition.radius(14.0), StopCondition.coordinate_time(30.0)])
def test_a_scaled_null_leg_reaches_its_stop(schw, stop):
    # a null tangent scaled by 2^-k is the same ray with its affine
    # parameter stretched by 2^k; the caps stretch with it
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    f = 1.0 - 2.0 / 10.0
    u0 = np.array([1.0 / math.sqrt(f), 0.3 * math.sqrt(f), 0.0, math.sqrt(0.91) / 10.0])
    unit = integrate_geodesic(schw, x0, u0, stop)
    for k in (20, 40, 60):
        path = integrate_geodesic(schw, x0, u0 * 2.0**-k, stop)
        assert path.kind == "null"
        assert np.allclose(path.points[-1], unit.points[-1], rtol=1e-9, atol=0.0)
        assert path.tau_end == pytest.approx(unit.tau_end * 2.0**k, rel=1e-6)


@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_a_killing_energy_that_underflows_is_a_bad_normalization(schw, tau):
    # u^t = 5e-324 passes as null (u.u underflows to 0), but f u^t rounds to 0
    # at r = 3, where f = 1/3: neither a leg nor its energy drift is defined
    x0 = np.array([0.0, 3.0, math.pi / 2, 0.0])
    with pytest.raises(BadNormalization, match="Killing energy"):
        integrate_geodesic(schw, x0, np.array([5e-324, 0.0, 0.0, 0.0]), StopCondition.proper_time(tau))


def test_degenerate_stop_single_sample(schw):
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    path = integrate_geodesic(schw, x0, static_tangent(schw, x0), StopCondition.proper_time(0.0))
    assert len(path.taus) == 1 and path.tau_end == 0.0


@pytest.mark.parametrize("mass", [1.0, 1e-160])
def test_stop_snap_is_in_units_of_the_mass(mass):
    # a stop within STOP_SNAP M of the start is already reached; a stop
    # 5 M away in t is a real leg at every mass, not a zero-length one
    spec = MetricSpec("schwarzschild", mass=mass)
    x0 = np.array([0.0, 10.0 * mass, math.pi / 2, 0.0])
    u0 = static_tangent(spec, x0)
    for near in (StopCondition.coordinate_time(0.5 * STOP_SNAP * mass),
                 StopCondition.radius(x0[1] - 0.5 * STOP_SNAP * mass)):
        assert len(integrate_geodesic(spec, x0, u0, near).taus) == 1
    # the path is stored in units of M; the report converts its endpoint back
    path = integrate_geodesic(spec, x0, u0, StopCondition.coordinate_time(5.0 * mass))
    assert len(path.taus) > 2 and path.points[-1][0] == pytest.approx(5.0, rel=1e-8)
    assert GeodesicSummary.from_path(path).endpoint[0] == pytest.approx(5.0 * mass, rel=1e-8)
    # the leg steps in units of M, so the radial fall to 4 M is a real leg
    # that reaches its stop at every mass; it must not come back as its start
    path = integrate_geodesic(spec, x0, u0, StopCondition.radius(4.0 * mass))
    assert len(path.taus) > 2 and path.points[-1][1] == pytest.approx(4.0, rel=1e-8)
    assert GeodesicSummary.from_path(path).endpoint[1] == pytest.approx(4.0 * mass, rel=1e-8)


def test_flat_stop_snap_stays_absolute(flat):
    x0 = np.array([0.0, 0.0, 0.0, 0.0])
    u0 = static_tangent(flat, x0)
    assert len(integrate_geodesic(flat, x0, u0, StopCondition.coordinate_time(0.5 * STOP_SNAP)).taus) == 1
    assert len(integrate_geodesic(flat, x0, u0, StopCondition.coordinate_time(2.0 * STOP_SNAP)).taus) == 2


def test_bad_normalization_rejected(schw):
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    with pytest.raises(BadNormalization):
        integrate_geodesic(schw, x0, np.array([1.0, 0.0, 0.0, 0.0]), StopCondition.proper_time(1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_tangent_is_a_bad_normalization(flat, schw):
    for spec, x0 in ((flat, np.zeros(4)), (schw, np.array([0.0, 10.0, math.pi / 2, 0.0]))):
        u0 = static_tangent(spec, x0)
        u0[3] = 1e300
        with pytest.raises(BadNormalization, match="u.u = inf"):
            integrate_geodesic(spec, x0, u0, StopCondition.proper_time(1.0))


@pytest.mark.parametrize("size, bound", [(1.0, 1e-9), (3.0, 9e-9), (1e4, 1e-8)])
def test_null_rule_takes_the_stricter_bound(size, bound):
    # |u.u| <= min(1e-8, 1e-9 max(1, max|u|^2))
    from grbell.geodesics import NULL, tangent_kind

    u = np.array([size, size, 0.0, 0.0])
    for uu in (0.0, 0.99 * bound, -0.99 * bound):
        assert tangent_kind(u, uu) == NULL
    for uu in (1.01 * bound, -1.01 * bound):
        with pytest.raises(BadNormalization, match="expected -1"):
            tangent_kind(u, uu)


def test_past_pointing_tangent_rejected(flat, schw):
    for spec, x0 in ((flat, np.array([0.0, 0.0, 0.0, 0.0])),
                     (schw, np.array([0.0, 10.0, math.pi / 2, 0.0]))):
        for u in (-static_tangent(spec, x0), [-1.0, 0.0, 0.0, 0.0]):
            with pytest.raises(BadNormalization, match="future-pointing"):
                integrate_geodesic(spec, x0, np.array(u), StopCondition.proper_time(1.0))


def test_horizon_approach(schw):
    # free fall from rest crosses the guard before proper time 100 elapses
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    with pytest.raises(HorizonApproach):
        integrate_geodesic(schw, x0, static_tangent(schw, x0), StopCondition.proper_time(100.0))


def test_radius_target_inside_guard_rejected(schw):
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    with pytest.raises(ValidationError):
        integrate_geodesic(schw, x0, static_tangent(schw, x0), StopCondition.radius(2.0))


def test_unreachable_stop_fails(schw):
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u0 = circular_orbit_tangent(10.0, x0)
    with pytest.raises(StepFailure):
        integrate_geodesic(schw, x0, u0, StopCondition.radius(20.0))


def test_step_budget_bounds_one_integration(schw, monkeypatch):
    from grbell import geodesics

    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u0 = circular_orbit_tangent(10.0, x0)
    stop = StopCondition.proper_time(50.0)
    steps = len(integrate_geodesic(schw, x0, u0, stop).taus) - 1
    monkeypatch.setattr(geodesics, "MAX_STEPS", steps)
    assert len(integrate_geodesic(schw, x0, u0, stop).taus) - 1 == steps
    monkeypatch.setattr(geodesics, "MAX_STEPS", steps - 1)
    with pytest.raises(StepFailure, match="steps"):
        integrate_geodesic(schw, x0, u0, stop)


def test_far_radius_target_hits_the_step_budget(schw, monkeypatch):
    # the derived tau cap overflows to inf; the step budget still ends the run
    from grbell import geodesics

    monkeypatch.setattr(geodesics, "MAX_STEPS", 200)
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    with pytest.raises(StepFailure, match="200 steps"):
        integrate_geodesic(schw, x0, circular_orbit_tangent(10.0, x0), StopCondition.radius(1e300))


def test_proper_time_stop_ends_at_its_value_within_max_tau(schw):
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u0 = circular_orbit_tangent(10.0, x0)
    path = integrate_geodesic(schw, x0, u0, StopCondition.proper_time(5.0))
    assert path.tau_end == 5.0


def test_halving_tolerance_halves_error(schw):
    # terminal-state error against a tight reference, fixed proper-time stop
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    uphi = 3.7 / 100.0
    ut = math.sqrt((1.0 + 100.0 * uphi**2) / 0.8)
    u0 = np.array([ut, 0.0, 0.0, uphi])
    stop = StopCondition.proper_time(100.0)

    ref = integrate_geodesic(schw, x0, u0, stop, 1e-12)
    ref_end = np.concatenate([ref.points[-1], ref.tangents[-1]])

    def terminal_error(tol):
        p = integrate_geodesic(schw, x0, u0, stop, tol)
        return np.max(np.abs(np.concatenate([p.points[-1], p.tangents[-1]]) - ref_end))

    for tol in (1e-8, 5e-9):
        assert terminal_error(tol / 2.0) <= terminal_error(tol) / 2.0


def test_flat_leg_is_a_straight_line_with_identity_propagator(flat):
    x0 = np.array([1.0, 2.0, -1.0, 0.5])
    u0 = np.array([1.25, 0.75, 0.0, 0.0])
    path = integrate_geodesic(flat, x0, u0, StopCondition.proper_time(4.0))
    assert list(path.taus) == [0.0, 4.0]
    assert np.array_equal(path.points[-1], x0 + 4.0 * u0)
    assert np.array_equal(path.propagators, np.stack([np.eye(4), np.eye(4)]))
    assert (path.nfev, path.accepted, path.rejected) == (0, 0, 0)


def test_flat_radius_stop_takes_the_first_crossing(flat):
    # from x = -5 toward the origin at speed 0.6: |x| = 3 first at x = -3
    x0 = np.array([0.0, -5.0, 0.0, 0.0])
    gamma = 1.25
    u0 = np.array([gamma, 0.6 * gamma, 0.0, 0.0])
    path = integrate_geodesic(flat, x0, u0, StopCondition.radius(3.0))
    assert path.tau_end == pytest.approx(2.0 / (0.6 * gamma), rel=1e-15)
    assert path.points[-1][1] == pytest.approx(-3.0, rel=1e-15)
    away = np.array([gamma, -0.6 * gamma, 0.0, 0.0])
    with pytest.raises(StepFailure, match="not reached"):
        integrate_geodesic(flat, x0, away, StopCondition.radius(3.0))


def test_slow_flat_leg_reaches_a_far_radius(flat):
    # the root is at tau ~ 1e5, far past any free-fall estimate of the leg
    x0 = np.array([0.0, 0.0, 0.0, 0.0])
    speed = 1e-4
    gamma = 1.0 / math.sqrt(1.0 - speed * speed)
    u0 = np.array([gamma, speed * gamma, 0.0, 0.0])
    path = integrate_geodesic(flat, x0, u0, StopCondition.radius(10.0))
    assert path.tau_end == pytest.approx(10.0 / (speed * gamma), rel=1e-15)
    assert path.points[-1][1] == pytest.approx(10.0, rel=1e-15)


def test_flat_coordinate_time_stop_is_linear(flat):
    x0 = np.array([2.0, 0.0, 0.0, 0.0])
    u0 = np.array([1.25, 0.0, 0.75, 0.0])
    path = integrate_geodesic(flat, x0, u0, StopCondition.coordinate_time(7.0))
    assert path.tau_end == 4.0
    assert path.points[-1][0] == 7.0


def test_flat_leg_beyond_the_float_range_fails_cleanly(flat):
    x0 = np.array([0.0, 0.0, 0.0, 0.0])
    u0 = np.array([1.0, 1.0, 0.0, 0.0])
    path = integrate_geodesic(flat, x0, u0, StopCondition.radius(1e300))
    assert path.points[-1][1] == pytest.approx(1e300, rel=1e-15)
    slower = np.array([1.25, 0.75, 0.0, 0.0])  # tau = 1.7e308 / 0.75 overflows
    with pytest.raises(StepFailure, match="overflows"):
        integrate_geodesic(flat, x0, slower, StopCondition.radius(1.7e308))


def test_zero_tangent_rejected(flat, schw):
    for spec, x0 in ((flat, np.array([0.0, 0.0, 0.0, 0.0])),
                     (schw, np.array([0.0, 10.0, math.pi / 2, 0.0]))):
        with pytest.raises(BadNormalization, match="zero"):
            integrate_geodesic(spec, x0, np.array([0.0] * 4), StopCondition.proper_time(1.0))


def test_conservation_drift_past_its_bound_fails_the_leg(schw, monkeypatch):
    from grbell import geodesics

    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u0 = static_tangent(schw, x0)
    stop = StopCondition.proper_time(10.0)
    energy = integrate_geodesic(schw, x0, u0, stop).drift["energy"]
    assert energy > 0.0
    monkeypatch.setattr(geodesics, "_drift_bound", lambda tol: 0.5 * energy)
    with pytest.raises(StepFailure, match="conservation drift"):
        integrate_geodesic(schw, x0, u0, stop)

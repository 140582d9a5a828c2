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
from conftest import recording_checked_legs, recording_runs
from reference import earlier_dopri, earlier_schwarzschild_rhs
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


def test_circular_orbit_angular_velocity(schw, monkeypatch):
    # circular geodesic: dphi/dt = sqrt(M / r^3), at r at every step
    runs = recording_runs(monkeypatch)
    r = 10.0
    x0 = np.array([0.0, r, math.pi / 2, 0.0])
    path = integrate_geodesic(schw, x0, circular_orbit_tangent(r, x0), StopCondition.proper_time(50.0))
    dphi_dt = (path.points[-1][3] - path.points[0][3]) / (path.points[-1][0] - path.points[0][0])
    assert dphi_dt == pytest.approx(math.sqrt(M / r**3), abs=1e-10)
    assert max(abs(state[1] - r) for state in runs[-1].states) < 1e-8 and len(runs[-1].states) > 2


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


# an escaping null ray from 18 M, slightly inward at first, toward far radius stops
FAR_NULL_X0 = np.array([-1.9965324707582255, 18.077444470063362, 1.2051954868091033, -1.7959662962168639])
FAR_NULL_U0 = np.array([1.0603762914687531, -0.29755301323451294, -0.023994322356864748, -0.049990909315967856])


@pytest.mark.parametrize("stop", [
    StopCondition.radius(1000.0), StopCondition.radius(3000.0), StopCondition.radius(1e4),
    StopCondition.proper_time(3000.0),
], ids=["r1000", "r3000", "r1e4", "tau3000"])
def test_a_long_null_leg_keeps_its_angular_momentum(schw, stop):
    # the plane state keeps E and L exact, so L_z drifts only by rounding
    # however long the leg; the nine-component state drifted with the
    # leg's length, past its 1e-8 bound at 3000 M (1.5e-8), 1e4 M (1.2e-7)
    # and tau = 3000 (1.0e-8)
    path = integrate_geodesic(schw, FAR_NULL_X0, FAR_NULL_U0, stop, 1e-10)
    if stop.kind == "radius":
        assert path.points[-1, 1] == stop.value
    else:
        assert path.tau_end == stop.value
    assert path.drift["angular_momentum"] <= 1e-14
    assert path.drift["energy"] <= 1e-14
    assert path.drift["norm"] <= 1e-9


def test_a_near_polar_leg_steps_as_its_rotation_onto_the_equator(schw, monkeypatch):
    # leg 1 of the polar config with its theta component at -0.99999999: it
    # passes within 7e-6 rad of the pole, where the nine-component state's
    # cot theta term took 5,234 nfev against 146 on the equator. The plane
    # state reads only (r, u^r), so the same E, L and u^r on the equator
    # take the same steps bit for bit
    runs = recording_runs(monkeypatch)
    r0, theta0, speed = 10.0, 0.05, 0.3
    f, gamma = 1.0 - 2.0 / r0, 1.0 / math.sqrt(1.0 - speed * speed)
    toward_pole, along_phi = -0.99999999, math.sqrt(1.0 - 0.99999999**2)
    u_theta = gamma * speed * toward_pole / r0
    u_phi = gamma * speed * along_phi / (r0 * math.sin(theta0))
    polar = np.array([gamma / math.sqrt(f), 0.0, u_theta, u_phi])
    L_over_r0 = math.hypot(r0 * u_theta, r0 * math.sin(theta0) * u_phi)
    equatorial = np.array([polar[0], 0.0, 0.0, L_over_r0 / r0])
    assert r0 * equatorial[3] == L_over_r0
    stop = StopCondition.proper_time(20.0)
    paths = [
        integrate_geodesic(schw, np.array([0.0, r0, theta, 0.0]), u0, stop)
        for theta, u0 in ((theta0, polar), (math.pi / 2, equatorial))
    ]
    assert paths[0].taus.tobytes() == paths[1].taus.tobytes()
    assert paths[0].nfev == paths[1].nfev == 91
    assert paths[0].points[-1, 1] == paths[1].points[-1, 1]
    assert np.array(runs[0].taus).tobytes() == np.array(runs[1].taus).tobytes()
    assert np.array(runs[0].states).tobytes() == np.array(runs[1].states).tobytes()


def test_a_far_leg_takes_the_same_steps_at_any_radius(schw):
    # speed 0.5 against the static observer along (0.3, 0, 0.954) in the
    # static tetrad, to t = 10 r0: far from the hole the motion is scale-free,
    # so a first step sized to the leg's own time scale gives the same steps
    # at every r0. A generic start read the orbit's scale from atol alone
    # and took 71, 77, 119 and 169 steps. Beyond r0 ~ 5.6e102 M, where r^3
    # overflows, the centrifugal term L^2 / r^3 must still be formed
    speed, gamma = 0.5, 1.0 / math.sqrt(0.75)
    n = np.array([0.3, 0.0, 0.954]) / math.hypot(0.3, 0.954)
    steps = []
    radii = (1e2, 1e8, 1e50, 1e100, 1e104, 1e120, 1e150)
    for r0 in radii:
        f = 1.0 - 2.0 / r0
        u0 = gamma * np.array([1.0 / math.sqrt(f), speed * n[0] * math.sqrt(f), 0.0, speed * n[2] / r0])
        stop = StopCondition.coordinate_time(10.0 * r0)
        path = integrate_geodesic(schw, np.array([0.0, r0, math.pi / 2, 0.0]), u0, stop, 1e-10)
        assert path.points[-1, 0] == stop.value
        steps.append(path.accepted)
    assert steps == [steps[0]] * len(radii), steps


def test_a_null_leg_takes_no_more_steps_with_its_tangent_scaled_down(schw):
    # a null tangent's scale is free: leg 1 of the null config scaled by
    # 2^-30 is the same ray, so it takes no more steps than at scale 1 (a
    # generic start took 42 against 33)
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u1 = np.array([1.118033988749895, 0.2683281572999747, 0.0, 0.09539392014169457])
    stop = StopCondition.radius(14.0)
    unit, scaled = (integrate_geodesic(schw, x0, s * u1, stop) for s in (1.0, 2.0**-30))
    assert scaled.accepted <= unit.accepted


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
    g = metric_stack(spec, points)
    (drift,) = geodesics._conservation_drift(spec, ["timelike"], points[None], tangents[None], g[None])
    assert drift["angular_momentum"] == pytest.approx(1e-6, rel=1e-6)


def test_null_angular_momentum_drift_does_not_depend_on_the_scale_of_u(schw, monkeypatch):
    # a null tangent's scale is free: E and L_z scale with it, and so does
    # their floor E(0) M. The null config's photon u1, integrated at scale 1
    # with its u^phi perturbed by up to 1e-6 of itself (the plane state keeps
    # L exact), reads the same L_z drift with its tangents scaled by 2^-60;
    # a floor of M reads 8.3e-24 there against 1e-6
    from grbell import geodesics

    checks = recording_checked_legs(monkeypatch)
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u1 = np.array([1.118033988749895, 0.2683281572999747, 0.0, 0.09539392014169457])
    integrate_geodesic(schw, x0, u1, StopCondition.radius(14.0))
    kind, points, tangents = checks[-1].kind, checks[-1].points, checks[-1].tangents.copy()
    assert kind == "null"
    tangents[:, 3] *= 1.0 + 1e-6 * np.linspace(0.0, 1.0, len(points))
    drifts = [
        geodesics._conservation_drift(
            geodesics._UNIT_MASS, [kind], points[None], tangents[None] * scale, checks[-1].g[None]
        )[0]
        for scale in (1.0, 2.0**-60)
    ]
    assert drifts[0]["angular_momentum"] > 1e-12
    assert drifts[1]["angular_momentum"] == pytest.approx(drifts[0]["angular_momentum"], rel=1e-12)


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
    # u^t = 5e-324 with u^phi = 1 passes as null at theta = 1e-150, where
    # u.u = (r sin theta)^2 = 9e-300, but f u^t rounds to 0 at r = 3, where
    # f = 1/3: neither a leg nor its energy drift is defined
    x0 = np.array([0.0, 3.0, 1e-150, 0.0])
    with pytest.raises(BadNormalization, match="Killing energy"):
        integrate_geodesic(schw, x0, np.array([5e-324, 0.0, 0.0, 1.0]), StopCondition.proper_time(tau))


@pytest.mark.parametrize("size", [1e-160, 1e-300, 5e-324])
def test_a_tangent_whose_norm_underflows_is_a_bad_normalization(flat, schw, size):
    # NULL_NORM_TOL max|u|^2 and u.u both underflow to 0, which tells a
    # null u from a timelike one no more
    for spec, x0 in ((flat, np.zeros(4)), (schw, np.array([0.0, 3.0, math.pi / 2, 0.0]))):
        for u in ([size, 0.0, 0.0, 0.0], [size, size, 0.0, 0.0]):
            with pytest.raises(BadNormalization, match="underflows at max"):
                integrate_geodesic(spec, x0, np.array(u), StopCondition.proper_time(1.0))


def test_degenerate_stop_single_sample(schw):
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    path = integrate_geodesic(schw, x0, static_tangent(schw, x0), StopCondition.proper_time(0.0))
    # a zero-length leg stores its start twice, at tau 0 and 0, with P = I at both
    assert list(path.taus) == [0.0, 0.0] and path.tau_end == 0.0
    assert np.array_equal(path.points, [x0, x0])
    assert np.array_equal(path.propagators, [np.eye(4), np.eye(4)])


@pytest.mark.parametrize("mass", [1.0, 1e-160])
def test_stop_snap_is_in_units_of_the_mass(mass):
    # a stop within STOP_SNAP M of the start is already reached; a stop
    # 5 M away in t is a real leg at every mass, not a zero-length one
    spec = MetricSpec("schwarzschild", mass=mass)
    x0 = np.array([0.0, 10.0 * mass, math.pi / 2, 0.0])
    u0 = static_tangent(spec, x0)
    for near in (StopCondition.coordinate_time(0.5 * STOP_SNAP * mass),
                 StopCondition.radius(x0[1] - 0.5 * STOP_SNAP * mass)):
        assert list(integrate_geodesic(spec, x0, u0, near).taus) == [0.0, 0.0]
    # the path is stored in units of M; the report converts its endpoint back
    path = integrate_geodesic(spec, x0, u0, StopCondition.coordinate_time(5.0 * mass))
    assert path.tau_end > 0.0 and path.points[-1][0] == pytest.approx(5.0, rel=1e-8)
    assert GeodesicSummary.from_path(path).endpoint[0] == pytest.approx(5.0 * mass, rel=1e-8)
    # the leg steps in units of M, so the radial fall to 4 M is a real leg
    # that reaches its stop at every mass; it must not come back as its start
    path = integrate_geodesic(spec, x0, u0, StopCondition.radius(4.0 * mass))
    assert path.tau_end > 0.0 and path.points[-1][1] == pytest.approx(4.0, rel=1e-8)
    assert GeodesicSummary.from_path(path).endpoint[1] == pytest.approx(4.0 * mass, rel=1e-8)


def test_flat_stop_snap_stays_absolute(flat):
    x0 = np.array([0.0, 0.0, 0.0, 0.0])
    u0 = static_tangent(flat, x0)
    assert list(integrate_geodesic(flat, x0, u0, StopCondition.coordinate_time(0.5 * STOP_SNAP)).taus) == [0.0, 0.0]
    assert integrate_geodesic(flat, x0, u0, StopCondition.coordinate_time(2.0 * STOP_SNAP)).tau_end > 0.0


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


@pytest.mark.parametrize(
    "size, bound", [(1.0, 1e-9), (3.0, 9e-9), (1e4, 1e-8), (1e-5, 1e-19), (1e-100, 1e-209)]
)
def test_null_rule_takes_the_stricter_bound(size, bound):
    # |u.u| <= min(1e-8, 1e-9 max|u|^2), at every scale of u
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
    with pytest.raises(StepFailure, match="effective potential"):
        integrate_geodesic(schw, x0, u0, StopCondition.radius(20.0))


def test_step_budget_bounds_one_integration(schw, monkeypatch):
    from grbell import geodesics

    # the budget counts the accepted steps, each a state the run checks
    runs = recording_runs(monkeypatch)
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u0 = circular_orbit_tangent(10.0, x0)
    stop = StopCondition.proper_time(50.0)
    steps = integrate_geodesic(schw, x0, u0, stop).accepted
    assert steps == len(runs[-1].taus) - 1 > 1
    monkeypatch.setattr(geodesics, "MAX_STEPS", steps)
    assert integrate_geodesic(schw, x0, u0, stop).accepted == steps
    monkeypatch.setattr(geodesics, "MAX_STEPS", steps - 1)
    with pytest.raises(StepFailure, match="steps"):
        integrate_geodesic(schw, x0, u0, stop)


# from r0 = 30 M with static-tetrad velocity 0.05 radial (outward) and 0.19
# azimuthal: a bound orbit with E = 0.98530 and L = 5.813 M that spans 23.6
# to 42.6 M
BOUND_ORBIT_U = np.array([1.0556733370402644, 0.04926475572854568, 0.0, 0.006459223131359831])


def test_a_radius_stop_past_the_turning_point_ends_at_the_turn(schw, monkeypatch):
    # the stop lies off the orbit, but within the effective potential's
    # margin, so the leg is stepped: on the circular orbit 10.001 M above
    # it, and 1e-6 M past the bound orbit's apocentre at 42.6245 M. Each
    # turns away from its stop before reaching it, so the turn event on u^r
    # refuses it at the turn, in a few dozen of the MAX_STEPS steps it took
    # to refuse before
    runs = recording_runs(monkeypatch)
    legs = [
        (10.0, circular_orbit_tangent(10.0, None), 10.001, r"r = 10\.0 M at tau = 0\.0 M"),
        (30.0, BOUND_ORBIT_U, 42.62449457897236, r"r = 42\.62449\d+ M at tau = 434\.7\d+ M"),
    ]
    for r0, u0, radius, where in legs:
        x0 = np.array([0.0, r0, math.pi / 2, 0.0])
        with pytest.raises(StepFailure, match=rf"radius = {radius} M not reached: the leg turns back at {where}"):
            integrate_geodesic(schw, x0, u0, StopCondition.radius(radius))
        assert runs[-1].event == 1 and runs[-1].accepted <= 50


def test_a_bound_orbit_reaches_a_stop_past_its_apocentre_and_is_refused_one_beyond_it(schw, monkeypatch):
    runs = recording_runs(monkeypatch)
    x0 = np.array([0.0, 30.0, math.pi / 2, 0.0])
    path = integrate_geodesic(schw, x0, BOUND_ORBIT_U, StopCondition.radius(28.0))
    assert path.points[-1, 1] == 28.0
    assert max(state[1] for state in runs[-1].states) > 42.5  # out through the apocentre and back
    with pytest.raises(StepFailure, match=r"effective potential 0\.97\d+ exceeds E\^2 = 0\.97"):
        integrate_geodesic(schw, x0, BOUND_ORBIT_U, StopCondition.radius(45.0))


def barrier_legs():
    """(x0, u0, radius, tol, message) of two legs whose target V allows but
    whose way to it V's maximum blocks."""
    # a null ray from 4.65 M slightly outward, whose E^2 = 0.161 is below the
    # peak of V at 3 M, toward 2.27 M, where V = 0.139
    null_x0 = np.array([3.2636986164627917, 4.645741989034564, 1.97951754741386, -1.6844227113718404])
    null_u0 = np.array([0.7046751170679456, 0.010057611759573488, 0.07389667367537917, -0.09521402204522271])
    # inward from 6 M with L = 4 M and E^2 = 0.98: V = 25/27 at 3 M, but 1 at its peak at 4 M
    f, L = 2.0 / 3.0, 4.0
    timelike_u0 = np.array([math.sqrt(0.98) / f, -math.sqrt(0.98 - f * (1.0 + (L / 6.0) ** 2)), 0.0, L / 36.0])
    return [
        (null_x0, null_u0, 2.2655824621829064, 4.95e-9,
         r"lies behind r = 3\.0 M, where the effective potential 0\.2259\d+ exceeds E\^2 = 0\.1610"),
        (np.array([0.0, 6.0, math.pi / 2, 0.0]), timelike_u0, 3.0, 1e-10,
         r"lies behind r = 4\.0 M, where the effective potential 1\.0 exceeds E\^2 = 0\.98"),
    ]


@pytest.mark.parametrize("x0, u0, radius, tol, message", barrier_legs(), ids=["null", "timelike"])
def test_a_radius_behind_a_potential_barrier_is_refused_at_once(schw, monkeypatch, x0, u0, radius, tol, message):
    # V has one maximum for r > 2M, and the leg never gets past it: without
    # the check the null leg steps to a non-finite state and the timelike
    # one to MAX_STEPS
    from grbell import geodesics

    def no_step(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(geodesics, "_dopri", no_step)
    with pytest.raises(StepFailure, match=message):
        integrate_geodesic(schw, x0, u0, StopCondition.radius(radius), tol)


def outward_leg(r0, speed, sin_angle):
    """(x0, u0) of an equatorial leg leaving r0 outward at speed (1 for null)
    against the static observer, at an angle with sine sin_angle to the radial direction."""
    f = 1.0 - 2.0 / r0
    gamma = 1.0 if speed == 1.0 else 1.0 / math.sqrt(1.0 - speed * speed)
    cos_angle = math.sqrt(1.0 - sin_angle * sin_angle)
    u0 = gamma * np.array([1.0 / math.sqrt(f), speed * cos_angle * math.sqrt(f), 0.0, speed * sin_angle / r0])
    return np.array([0.0, r0, math.pi / 2, 0.0]), u0


def escaping_legs():
    """(x0, u0, radius, message) of four outward legs, two of them radial,
    that never come back to a radius below their start."""
    # E^2 = 1.4545 and L = 4.05 M from 10 M: V's peak, 3.96 M, lies behind the
    # start, and ahead V tends to 1
    timelike_u0 = np.array([1.507556722888818, 0.7236272269866325, 0.0, 0.04045199174779452])
    # a ray from 2.5 M at impact parameter 2.8 M < sqrt(27) M passes V's peak at 3 M
    null_x0, null_u0 = outward_leg(2.5, 1.0, 0.5)
    return [
        (np.array([0.0, 10.0, math.pi / 2, 0.0]), timelike_u0, 5.0,
         r"radius = 5\.0 M lies below r = 10\.0 M, behind an outward leg that escapes: "
         r"the effective potential ahead is at most 1\.0, below E\^2 = 1\.4545"),
        (null_x0, null_u0, 2.2,
         r"radius = 2\.2 M lies below r = 2\.5 M, behind an outward leg that escapes: "
         r"the effective potential ahead is at most 0\.0578\d+, below E\^2 = 0\.(2|1999)"),
        # radially from 10 M at 0.6 against the static observer, E^2 = 1.25 > 1
        (*outward_leg(10.0, 0.6, 0.0), 5.0,
         r"radius = 5\.0 M lies below r = 10\.0 M, behind an outward leg that escapes: "
         r"the effective potential ahead is at most 1\.0, below E\^2 = 1\.25"),
        # a radial ray, whose V is 0 everywhere
        (*outward_leg(10.0, 1.0, 0.0), 5.0,
         r"radius = 5\.0 M lies below r = 10\.0 M, behind an outward leg that escapes: "
         r"the effective potential ahead is at most 0\.0, below E\^2 = 0\.(8|7999)"),
    ]


@pytest.mark.parametrize("x0, u0, radius, message", escaping_legs(),
                         ids=["timelike", "null", "radial-timelike", "radial-null"])
def test_a_radius_below_the_start_of_an_escaping_leg_is_refused_at_once(schw, monkeypatch, x0, u0, radius, message):
    # V ahead of the leg, its maximum where that lies beyond r0 and its far
    # limit, stays below E^2, so the leg never turns back: without the check
    # it steps to a non-finite state. A radius ahead is still reached
    from grbell import geodesics

    assert integrate_geodesic(schw, x0, u0, StopCondition.radius(5.0 * x0[1])).points[-1, 1] == 5.0 * x0[1]

    def no_step(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(geodesics, "_dopri", no_step)
    with pytest.raises(StepFailure, match=message):
        integrate_geodesic(schw, x0, u0, StopCondition.radius(radius))


@pytest.mark.parametrize("x0, u0, radius", [
    # a ray from 2.5 M at impact parameter 5.31 M > sqrt(27) M turns below 3 M
    (*outward_leg(2.5, 1.0, 0.95), 2.2),
    # from 4 M with L^2 = 14 M^2 and E^2 = 0.97 over V's peak of 0.94 at 4.35 M, out
    # to where V, rising toward 1, meets E^2, and back over the peak
    (np.array([0.0, 4.0, math.pi / 2, 0.0]),
     np.array([2.0 * math.sqrt(0.97), math.sqrt(0.0325), 0.0, math.sqrt(14.0) / 16.0]), 3.0),
], ids=["null", "timelike"])
def test_an_outward_leg_that_turns_back_reaches_a_radius_below_its_start(schw, monkeypatch, x0, u0, radius):
    runs = recording_runs(monkeypatch)
    path = integrate_geodesic(schw, x0, u0, StopCondition.radius(radius))
    assert path.points[-1, 1] == radius
    assert max(state[1] for state in runs[-1].states) > x0[1]


@pytest.mark.parametrize("u_phi", [0.0, 1e-6], ids=["radial", "near-radial"])
@pytest.mark.parametrize("kind", ["timelike", "null"])
def test_radial_and_near_radial_plunges_end_alike(schw, monkeypatch, kind, u_phi):
    # inward from 10 M at 0.6 (1 for a ray) against the static observer,
    # with nothing below to turn the leg back: it meets the guard before a
    # 12 M stop, and says so before the first step, radial or not
    from grbell import geodesics

    def no_step(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(geodesics, "_dopri", no_step)
    f = 0.8
    eps, u_r = (1.0, -1.25 * 0.6 * math.sqrt(f)) if kind == "timelike" else (0.0, -math.sqrt(f))
    u0 = np.array([math.sqrt((eps + u_r * u_r / f + (10.0 * u_phi) ** 2) / f), u_r, 0.0, u_phi])
    with pytest.raises(HorizonApproach, match="behind an inward leg that meets the guard first"):
        integrate_geodesic(schw, np.array([0.0, 10.0, math.pi / 2, 0.0]), u0, StopCondition.radius(12.0))


def test_radial_decisions_at_the_turning_radius_are_the_closed_forms(schw):
    # bound radial timelike legs, out or in, to stops within 1e-16 to 1e-6
    # of r_max = 1.01 to 1e12 times r0: a stop is refused exactly where the
    # closed form's (u^r)^2 = v0^2 + 2 (r0 - r) / (r r0) is negative, an
    # inward leg meets the guard first, and an outward one reaches its stop
    rng = np.random.default_rng(37)
    outcomes = set()
    for i in range(100):
        r0 = math.exp(rng.uniform(math.log(2.05), math.log(1e4)))
        r_max = r0 * 10.0 ** rng.uniform(math.log10(1.01), 12.0)
        v0 = math.copysign(math.sqrt(2.0 / r0 - 2.0 / r_max), (-1.0) ** i)
        f = 1.0 - 2.0 / r0
        u0 = np.array([math.sqrt(f + v0 * v0) / f, v0, 0.0, 0.0])
        x0 = np.array([0.0, r0, math.pi / 2, 0.0])
        for k in range(6, 17):
            for side in (-1.0, 1.0):
                r = r_max * (1.0 + side * 10.0 ** -k)
                if v0 * v0 + 2.0 * (r0 - r) / (r * r0) < 0.0:
                    expected = StepFailure
                elif v0 < 0.0:
                    expected = HorizonApproach
                else:
                    expected = None
                try:
                    path = integrate_geodesic(schw, x0, u0, StopCondition.radius(r))
                except (StepFailure, HorizonApproach) as e:
                    assert type(e) is expected, (r0, v0, r, e)
                else:
                    assert expected is None and path.points[-1, 1] == r, (r0, v0, r)
                outcomes.add((v0 > 0.0, expected))
    assert len(outcomes) == 4


@pytest.mark.parametrize("leg", ["flat", "radial", "stepped"])
def test_a_coordinate_time_stop_before_the_start_is_refused_at_once(flat, schw, monkeypatch, leg):
    from grbell import geodesics

    def no_step(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(geodesics, "_dopri", no_step)
    x0 = np.array([5.0, 10.0, math.pi / 2, 0.0])
    spec = flat if leg == "flat" else schw
    u0 = circular_orbit_tangent(10.0, x0) if leg == "stepped" else static_tangent(spec, x0)
    with pytest.raises(StepFailure, match="coordinate_time = 4.0.* precedes the start t = 5.0"):
        integrate_geodesic(spec, x0, u0, StopCondition.coordinate_time(4.0))


def test_proper_time_stop_ends_at_its_value_within_max_tau(schw):
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u0 = circular_orbit_tangent(10.0, x0)
    path = integrate_geodesic(schw, x0, u0, StopCondition.proper_time(5.0))
    assert path.tau_end == 5.0


def test_terminal_error_follows_the_tolerance(schw):
    # terminal-state error at a fixed proper-time stop, on a mildly
    # eccentric orbit, against an independent reference: the nine-component
    # right-hand side stepped by earlier_dopri at tol 1e-13. A stepper whose
    # local error follows tol keeps error / tol within a factor 2 over three
    # decades of tol; one that ignores tol, or runs at tol^0.8, does not
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    uphi = 3.7 / 100.0
    ut = math.sqrt((1.0 + 100.0 * uphi**2) / 0.8)
    u0 = np.array([ut, 0.0, 0.0, uphi])
    stop = StopCondition.proper_time(100.0)

    rhs = earlier_schwarzschild_rhs("timelike", 0.8 * ut, 100.0 * uphi)
    ref = earlier_dopri(rhs, [*x0, *u0, 0.0], None, stop.value, 1e-13, [], "stop", (1, 2, 4, 5, 6, 7))
    ref_end = np.array(ref.states[-1][:8])

    def terminal_error(tol):
        p = integrate_geodesic(schw, x0, u0, stop, tol)
        return np.max(np.abs(np.concatenate([p.points[-1], p.tangents[-1]]) - ref_end))

    ratios = [terminal_error(tol) / tol for tol in (1e-8, 1e-9, 1e-10, 1e-11)]
    assert max(ratios) <= 2.0 * min(ratios), ratios


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


def test_radial_leg_beyond_the_float_range_fails_cleanly(schw):
    # speed 0.9 outward from 10 M, E > 1: the closed form's end at
    # tau = 1.7e308 M lies beyond the floats
    f, gamma = 0.8, 1.0 / math.sqrt(1.0 - 0.81)
    u0 = gamma * np.array([1.0 / math.sqrt(f), 0.9 * math.sqrt(f), 0.0, 0.0])
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    with pytest.raises(StepFailure, match="overflows the chart"):
        integrate_geodesic(schw, x0, u0, StopCondition.proper_time(1.7e308))


def test_zero_tangent_rejected(flat, schw):
    for spec, x0 in ((flat, np.array([0.0, 0.0, 0.0, 0.0])),
                     (schw, np.array([0.0, 10.0, math.pi / 2, 0.0]))):
        with pytest.raises(BadNormalization, match="zero"):
            integrate_geodesic(spec, x0, np.array([0.0] * 4), StopCondition.proper_time(1.0))


def test_conservation_drift_past_its_bound_fails_the_leg(schw, monkeypatch):
    from grbell import geodesics

    # a stepped, mildly eccentric orbit. Its E and L are exact in the plane
    # state, so the norm is the drift that integration error moves: it is
    # checked at each accepted state, |((u^r)^2 - E^2) / f + L^2 / r^2 + 1|
    # against the bound times max(1, ((u^r)^2 + E^2) / f + L^2 / r^2), and
    # drift["norm"] is the larger of the worst of those and the two ends'
    # |u.u + 1|; on this orbit the worst step lies before the end and
    # exceeds the ends'. With the bound halved below the worst step's ratio,
    # the leg fails at the first step past it
    runs, checks = recording_runs(monkeypatch), recording_checked_legs(monkeypatch)
    r0 = 10.0
    x0 = np.array([0.0, r0, math.pi / 2, 0.0])
    uphi = 4.2 / 100.0
    u0 = np.array([math.sqrt((1.0 + 100.0 * uphi**2) / 0.8), 0.0, 0.0, uphi])
    stop = StopCondition.proper_time(100.0)
    path = integrate_geodesic(schw, x0, u0, stop)
    (run,), (leg,) = runs, checks
    energy, ang_mom = (1.0 - 2.0 / r0) * u0[0], r0 * math.hypot(0.0, r0 * 1.0 * uphi)
    drifts, scales = [], []
    for state in run.states[1:]:
        r, ur = state[1], state[4]
        f, centrifugal = 1.0 - 2.0 / r, ang_mom * ang_mom / (r * r)
        drifts.append(abs((ur * ur - energy * energy) / f + centrifugal + 1.0))
        scales.append(max(1.0, (ur * ur + energy * energy) / f + centrifugal))
    ends = float(np.max(np.abs(np.einsum("na,na,na->n", leg.g, leg.tangents, leg.tangents) + 1.0)))
    assert max(drifts) > ends > 0.0
    assert path.drift["norm"] == max(drifts)
    bound = 0.5 * max(d / s for d, s in zip(drifts, scales))
    k = next(k for k, (d, s) in enumerate(zip(drifts, scales)) if not d <= bound * s)
    monkeypatch.setattr(geodesics, "_drift_bound", lambda tol: bound)
    with pytest.raises(StepFailure) as failure:
        integrate_geodesic(schw, x0, u0, stop)
    assert str(failure.value) == (
        f"conservation drift {{'norm': {drifts[k]}}} exceeds {{'norm': {bound * scales[k]}}}"
        f" at tau = {run.taus[k + 1]} M"
    )

"""The closed-form parallel propagator and the Dormand-Prince stepper.

Reference values come from scipy, which the package itself does not use:
the parallel propagator integrated as the 24-component state (x, u, P) with
dP/dtau = -(Gamma . u) P, and scipy's RK45 on systems with known behaviour.
"""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from grbell import HorizonApproach, HorizonDomain, StepFailure, StopCondition, integrate_geodesic
from grbell import geodesics
from grbell.geodesics import METRIC_SLACK, check_metric_preserved
from conftest import random_exterior_point
from reference import (
    christoffel_components,
    column_list_frames,
    earlier_conservation_drift,
    earlier_leg_arrays,
    earlier_metric_check,
    metric_matrices,
)

M = 1.0
EPS = float(np.finfo(float).eps)


def integrated_propagators(spec, path):
    """P at the path's stored taus from the (x, u, P) system on scipy's RK45."""
    def rhs(_tau, y):
        gamma_u = christoffel_components(spec, y[:4]) @ y[4:8]
        return np.concatenate([y[4:8], -gamma_u @ y[4:8], (-gamma_u @ y[8:].reshape(4, 4)).ravel()])

    y0 = np.concatenate([path.points[0], path.tangents[0], np.eye(4).ravel()])
    sol = solve_ivp(
        rhs, (0.0, path.taus[-1]), y0, method="RK45", rtol=path.tol, atol=path.tol * 1e-3,
        t_eval=path.taus,
    )
    assert sol.success
    return sol.y.T[:, 8:].reshape(-1, 4, 4)


def launch(rng, kind, radial_fraction=None):
    """A random exterior event and a tangent there, as (point, tangent).

    The tangent has speed 0.05 to 0.6 (timelike) or 1 (null) against the
    static observer along a random direction; radial_fraction scales the
    direction's angular part, so 0 gives a radial leg.
    """
    x0 = random_exterior_point(rng, r_min=6.0, r_max=25.0)
    r, theta = x0[1], x0[2]
    n = rng.standard_normal(3)
    if radial_fraction is not None:
        n = np.array([math.copysign(1.0, n[0]), radial_fraction * n[1], radial_fraction * n[2]])
    n /= np.linalg.norm(n)
    v = rng.uniform(0.05, 0.6) if kind == "timelike" else 1.0
    gamma = 1.0 / math.sqrt(1.0 - v * v) if kind == "timelike" else 1.0
    f = 1.0 - 2.0 * M / r
    static_legs = np.array([1.0 / math.sqrt(f), math.sqrt(f), 1.0 / r, 1.0 / (r * math.sin(theta))])
    return x0, static_legs * gamma * np.concatenate([[1.0], v * n])


LEGS = [
    ("timelike", None),
    ("timelike", 0.0),
    ("timelike", 1e-6),
    ("null", None),
    ("null", 0.0),
    ("null", 1e-6),
]


@pytest.mark.parametrize("kind, radial_fraction", LEGS)
def test_closed_form_propagator_matches_the_integrated_one(schw, rng, kind, radial_fraction):
    checked = 0
    for _ in range(6):
        x0, u0 = launch(rng, kind, radial_fraction)
        try:
            path = integrate_geodesic(schw, x0, u0, StopCondition.proper_time(rng.uniform(1.0, 12.0)))
        except StepFailure:
            continue  # e.g. a ray that reaches the guard radius
        assert path.kind == kind
        if radial_fraction is not None and radial_fraction > 0.0:
            r, theta = path.points[0, 1], path.points[0, 2]
            L = r * math.hypot(r * path.tangents[0, 2], r * math.sin(theta) * path.tangents[0, 3])
            assert 0.0 < L < 1e-4
        reference = integrated_propagators(schw, path)
        bound = max(1e-8, 100.0 * path.tol) * max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(path.propagators - reference)) <= bound
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("kind, radial_fraction", LEGS)
def test_propagator_is_exact_at_emission_and_keeps_the_metric(schw, rng, kind, radial_fraction):
    x0, u0 = launch(rng, kind, radial_fraction)
    path = integrate_geodesic(schw, x0, u0, StopCondition.proper_time(3.0))
    P, g = path.propagators, metric_matrices(path.metrics)
    assert np.array_equal(P[0], np.eye(4))
    residual = np.max(np.abs(np.einsum("nab,nac,ncd->nbd", P, g, P) - g[0]))
    P_abs = np.abs(P)
    conditioning = np.max(np.einsum("nab,nac,ncd->nbd", P_abs, np.abs(g), P_abs))
    assert residual <= METRIC_SLACK * max(1.0, conditioning)
    assert check_metric_preserved(path.metrics, P) == residual


@pytest.mark.parametrize("kind, radial_fraction", LEGS)
def test_frame_blocks_equal_the_column_list_frames(schw, rng, monkeypatch, kind, radial_fraction):
    # the frame is built as (n, 4) blocks with f read from the leg's metric
    # stack; the 16-column assembly with f from the mass gives the same bits
    calls = []

    def recording(kind, points, g, tangents, psi):
        frames = original(kind, points, g, tangents, psi)
        calls.append((kind, points, tangents, psi, frames))
        return frames

    original = geodesics._parallel_frames
    monkeypatch.setattr(geodesics, "_parallel_frames", recording)
    for _ in range(6):
        x0, u0 = launch(rng, kind, radial_fraction)
        try:
            integrate_geodesic(schw, x0, u0, StopCondition.proper_time(rng.uniform(1.0, 12.0)))
        except StepFailure:
            continue
    assert len(calls) >= 3
    for leg_kind, points, tangents, psi, frames in calls:
        assert leg_kind == kind
        if radial_fraction is not None:
            r, theta = points[0, 1], points[0, 2]
            L = r * math.hypot(r * tangents[0, 2], r * math.sin(theta) * tangents[0, 3])
            assert L < 1e-4
        assert np.array_equal(frames, column_list_frames(schw, kind, points, tangents, psi))


def test_diagonal_contractions_equal_the_full_ones(schw, rng, monkeypatch):
    # g is diagonal in both charts; each contraction of its diagonal d gives
    # the bits of the full (n, 4, 4) contraction
    for _ in range(300):
        n = int(rng.integers(1, 40))
        d = rng.standard_normal((n, 4)) * 10.0 ** rng.uniform(-6, 6, (n, 4))
        g = metric_matrices(d)
        u = rng.standard_normal((n, 4)) * 10.0 ** rng.uniform(-3, 3, (n, 4))
        P = rng.standard_normal((n, 4, 4)) * 10.0 ** rng.uniform(-3, 3, (n, 4, 4))
        sizes = np.abs(rng.standard_normal((n, 4, 4)))
        assert np.array_equal(np.einsum("na,na,na->n", d, u, u), np.einsum("nab,na,nb->n", g, u, u))
        assert np.array_equal(
            np.einsum("nab,na,nad->nbd", P, d, P), np.einsum("nab,nac,ncd->nbd", P, g, P)
        )
        assert np.array_equal(
            np.einsum("nab,na,nad->nbd", np.abs(P), np.abs(d), sizes),
            np.einsum("nab,nac,ncd->nbd", np.abs(P), np.abs(g), sizes),
        )
        assert np.array_equal(u * d[0], np.matmul(u[:, None, :], g[0])[:, 0, :])
        with monkeypatch.context() as m:
            m.setattr(geodesics, "METRIC_SLACK", math.inf)
            residual = np.max(np.abs(np.einsum("nab,nac,ncd->nbd", P, g, P) - g[0]))
            assert check_metric_preserved(d, P, sizes) == residual
        norm = np.max(np.abs(np.einsum("nab,na,nb->n", g, u, u) + 1.0))
        points = rng.uniform(3.0, 30.0, (n, 4))
        assert geodesics._conservation_drift(schw, "timelike", points, u, d)["norm"] == norm


def test_metric_check_follows_the_frame_on_a_boosted_leg(schw):
    # gamma = 100 against the static observer: P = F F(0)^-1 sums terms
    # about gamma^2 larger than P itself, so its rounding exceeds the slack
    # times |P|^T |g| |P|; the path's own check scales with |F| |F(0)^-1|
    theta, f, gamma = 1.2, 0.8, 100.0
    x0 = np.array([0.0, 10.0, theta, 0.3])
    speed = math.sqrt(1.0 - 1.0 / gamma**2)
    static_legs = np.array([1.0 / math.sqrt(f), math.sqrt(f), 0.1, 0.1 / math.sin(theta)])
    u0 = static_legs * gamma * np.array([1.0, 0.6 * speed, 0.8 * speed, 0.0])
    path = integrate_geodesic(schw, x0, u0, StopCondition.proper_time(0.01))
    P, g = path.propagators, metric_matrices(path.metrics)
    residual = np.max(np.abs(np.einsum("nab,nac,ncd->nbd", P, g, P) - g[0]))
    P_abs = np.abs(P)
    conditioning = np.max(np.einsum("nab,nac,ncd->nbd", P_abs, np.abs(g), P_abs))
    assert residual > METRIC_SLACK * max(1.0, conditioning)


def test_hand_written_geodesic_term_matches_the_christoffel_symbols(schw, rng):
    # each right-hand side takes the components it reads; a radial leg's
    # gives du^t and du^r, and u^theta and u^phi stay 0
    rhs = geodesics._schwarzschild_rhs("timelike", 1.0, 1.0)  # unit mass, as schw
    for _ in range(200):
        x = random_exterior_point(rng)
        u = rng.standard_normal(4)
        radial = np.array([u[0], u[1], 0.0, 0.0])
        for acceleration, u in (
            (np.array(rhs([x[1], x[2], *u])[4:8]), u),
            (np.array([*geodesics._radial_rhs([x[1], u[0], u[1]])[2:], 0.0, 0.0]), radial),
        ):
            G = christoffel_components(schw, x)
            expected = -(G @ u @ u)
            scale = np.abs(G) @ np.abs(u) @ np.abs(u)
            assert np.all(np.abs(acceleration - expected) <= 4.0 * EPS * scale)


def test_radial_rhs_gives_the_bits_of_the_whole_rhs(rng):
    # with u^theta = u^phi = +-0.0 the whole right-hand side's angular terms
    # of du^r/dtau are +0.0, or NaN where r f overflows, as is r f * 0.0
    rhs = geodesics._schwarzschild_rhs("timelike", 1.0, 0.0)
    for _ in range(500):
        r = float(rng.choice([rng.uniform(2.0001, 50.0), 1e300, math.inf]))
        th = math.pi / 2 if rng.random() < 0.5 else float(rng.uniform(0.01, math.pi - 0.01))
        ut, ur = (rng.standard_normal(2) * 10.0 ** rng.uniform(-3.0, 200.0, 2)).tolist()
        uth, uph = rng.choice([0.0, -0.0], 2).tolist()
        whole = rhs([r, th, ut, ur, uth, uph])
        radial = geodesics._radial_rhs([r, ut, ur])
        found, expected = np.array(radial), np.array(whole[:2] + whole[4:6])
        nan = np.isnan(found)
        assert np.array_equal(nan, np.isnan(expected))
        assert found[~nan].tobytes() == expected[~nan].tobytes()


def test_stepper_takes_the_steps_of_rk45():
    # same tableau, error norm, controller and initial step: the same steps
    def rhs(y):
        return [y[1], -y[0] - 0.1 * y[1] * y[0] ** 2, 0.3 * y[0]]

    y0 = [1.5, 0.0, 0.2]
    for tol in (1e-6, 1e-9, 1e-11):
        run = geodesics._dopri(rhs, y0, 20.0, tol, [], "stop")
        ref = solve_ivp(lambda _t, y: rhs(y), (0.0, 20.0), y0, method="RK45",
                        rtol=tol, atol=tol * 1e-3)
        assert run.accepted == len(ref.t) - 1
        assert run.nfev == ref.nfev
        # the error estimate cancels to about tol, so its rounding moves the
        # step sizes by about eps / tol relative to scipy's
        assert np.allclose(run.taus, ref.t, rtol=1e-4, atol=0.0)
        assert np.allclose(run.states[-1], ref.y[:, -1], rtol=0.0, atol=tol)


def test_stepper_locates_a_terminal_event_on_its_dense_output():
    # y = (cos tau, -sin tau): y0 first falls through 0.5 at tau = pi / 3
    run = geodesics._dopri(lambda y: [y[1], -y[0]], [1.0, 0.0], 10.0, 1e-10, [(0, 0.5, -1)], "stop")
    assert run.event == 0
    assert run.taus[-1] == pytest.approx(math.pi / 3.0, abs=1e-9)
    assert run.states[-1][0] == pytest.approx(0.5, abs=1e-9)
    assert run.accepted == len(run.taus) - 1


def test_stepper_rejects_a_non_finite_state():
    with pytest.raises(StepFailure, match="non-finite"):
        geodesics._dopri(lambda y: [math.nan if y[0] > 1.5 else 1.0], [1.0], 5.0, 1e-8, [], "stop")


def test_stepper_rejects_a_step_whose_stage_leaves_the_domain():
    # y = 1 - tau leaves the domain y > 0 at tau = 1; the controller grows
    # the step tenfold on this linear system until a trial stage crosses it
    def rhs(y):
        if y[0] <= 0.0:
            raise HorizonDomain(f"y = {y[0]}")
        return [-1.0]

    run = geodesics._dopri(rhs, [1.0], 10.0, 1e-10, [(0, 0.25, -1)], "stop")
    assert run.event == 0
    assert run.taus[-1] == pytest.approx(0.75, abs=1e-12)
    assert run.rejected >= 1
    assert run.nfev == 2 + 6 * (run.accepted + run.rejected)


def test_stepper_fails_on_step_size_underflow():
    # y' = 1 / (1 - y)^2 blows up at tau = 1/3; steps shrink until they underflow
    with pytest.raises(StepFailure):
        geodesics._dopri(lambda y: [1.0 / (1.0 - y[0]) ** 2], [0.0], 1.0, 1e-10, [], "stop")


def run_outcome(call):
    """A stepper run's taus and states as bytes, its event and counters, or
    the class and message of what it raised."""
    try:
        run = call()
    except Exception as e:  # noqa: BLE001 - compared, not handled
        return type(e), str(e)
    states = np.array(run.states)
    return (np.array(run.taus).tobytes(), states.shape, states.tobytes(), run.event,
            run.nfev, run.accepted, run.rejected)


def test_reads_and_moves_step_a_toy_system_like_the_whole_state():
    # y = (x, v, q, c): x' = v, v' = -x, q' = x is never read and c is
    # constant; a terminal event on q ends the run on its dense output
    def whole(y):
        return [y[1], -y[0], y[0], 0.0]

    def reduced(y):
        x, v = y
        return v, -x, x

    for c in (2.5, 0.0, -0.0):
        y0 = [1.0, 0.0, 0.25, c]
        for tol in (1e-3, 1e-7, 1e-10):
            for events in ([], [(2, 0.75, 1)], [(2, 0.75, 1), (0, -0.5, -1)]):
                expected = run_outcome(lambda: geodesics._dopri(whole, y0, 10.0, tol, events, "stop"))
                found = run_outcome(lambda: geodesics._dopri(
                    reduced, y0, 10.0, tol, events, "stop", (0, 1), (0, 1, 2)))
                assert found == expected
                assert found[3] == (0 if events else None)
                if events:
                    # q = 0.25 + sin(tau) reaches 0.75 at tau = pi / 6
                    assert np.frombuffer(found[0], float)[-1] == pytest.approx(math.pi / 6.0, abs=10.0 * tol)
                # the constant's -0.0 turns +0.0 after the first step, as in the whole state
                states = np.frombuffer(found[2], float).reshape(found[1])
                assert math.copysign(1.0, states[-1, 3]) == 1.0


def radial_leg(rng):
    """A random radial leg at unit mass, as (kind, x0, u0, stop, tol).

    Timelike legs at rest, inward or outward, or null legs inward or
    outward, on or off the equator, with u^theta and u^phi each +0.0 or
    -0.0, to a proper-time, radius or coordinate-time stop that may lie
    past the guard radius or beyond the tau cap.
    """
    r0 = rng.uniform(2.05, 4.0) if rng.random() < 0.3 else rng.uniform(4.0, 30.0)
    theta = math.pi / 2.0 if rng.random() < 0.5 else rng.uniform(0.2, math.pi - 0.2)
    x0 = np.array([rng.uniform(-5.0, 5.0), r0, theta, rng.uniform(-math.pi, math.pi)])
    f = 1.0 - 2.0 / r0
    zeros = rng.choice([0.0, -0.0], 2).tolist()
    motion = int(rng.integers(5))  # at rest, timelike in or out, null in or out
    sign = -1.0 if motion in (1, 3) else 1.0
    if motion < 3:
        v = 0.0 if motion == 0 else rng.uniform(0.01, 0.9)
        gamma = 1.0 / math.sqrt(1.0 - v * v)
        kind, u0 = "timelike", [gamma / math.sqrt(f), sign * gamma * v * math.sqrt(f), *zeros]
    else:
        scale = rng.uniform(0.5, 2.0)
        kind, u0 = "null", [scale / math.sqrt(f), sign * scale * math.sqrt(f), *zeros]
    stop_kind = int(rng.integers(3))
    if stop_kind == 0:
        stop = StopCondition.proper_time(rng.uniform(0.5, 40.0))
    elif stop_kind == 1:
        stop = StopCondition.radius(rng.uniform(2.00001, r0 - 0.01) if rng.random() < 0.6
                                    else rng.uniform(r0 + 0.01, r0 + 40.0))
    else:
        stop = StopCondition.coordinate_time(x0[0] + rng.uniform(-5.0, 60.0))
    return kind, x0, np.array(u0), stop, 10.0 ** rng.uniform(-10.0, -3.0)


def assert_legs_step_like_the_whole_state(schw, monkeypatch, legs):
    """Each leg's stepper run, on the components its right-hand side reads
    and moves, equals the run that moves every component of the 9-component
    state on the whole right-hand side. Returns each leg's outcome, as
    (exception class name or "ok", whether the tau cap stopped it, the
    right-hand side it stepped on or None)."""
    calls, outcomes = [], []
    dopri = geodesics._dopri

    def recording(*args):
        try:
            run = dopri(*args)
        except Exception as e:  # noqa: BLE001 - recorded and raised again
            calls.append((args, (type(e), str(e))))
            raise
        calls.append((args, run_outcome(lambda: run)))
        return run

    monkeypatch.setattr(geodesics, "_dopri", recording)
    for kind, x0, u0, stop, tol in legs:
        stepped = len(calls)
        try:
            integrate_geodesic(schw, x0, u0, stop, tol)
        except (StepFailure, HorizonApproach) as e:
            outcome = type(e).__name__, "not reached by tau" in str(e)
        else:
            outcome = "ok", False
        if len(calls) == stepped:  # a zero-length leg does not step
            outcomes.append((*outcome, None))
            continue
        (rhs, y0, cap, _, events, what, _, _), found = calls[stepped]
        r0, th0 = y0[1], y0[2]
        energy = (1.0 - 2.0 / r0) * y0[4]
        ang_mom = r0 * math.hypot(r0 * y0[6], r0 * math.sin(th0) * y0[7])
        whole_rhs = geodesics._schwarzschild_rhs(kind, energy, ang_mom)
        expected = run_outcome(lambda: dopri(
            lambda y: whole_rhs(y[1:3] + y[4:8]), y0, cap, tol, events, what))
        assert found == expected
        outcomes.append((*outcome, rhs))
    return outcomes


def test_radial_legs_step_like_the_whole_state(schw, rng, monkeypatch):
    # a radial leg steps (t, r, u^t, u^r) from (r, u^t, u^r); the 9-component
    # run gives the other five components +-0.0 derivatives, which change no
    # step, and turns a -0.0 u^theta or u^phi into +0.0 at its first step
    legs = [radial_leg(rng) for _ in range(320)]
    stepped = [o for o in assert_legs_step_like_the_whole_state(schw, monkeypatch, legs) if o[2]]
    assert len(stepped) >= 300
    assert {rhs for _, _, rhs in stepped} == {geodesics._radial_rhs}
    assert {o[:2] for o in stepped} == {
        ("ok", False), ("HorizonApproach", False), ("StepFailure", True)
    }
    # 5 motions, 3 stop kinds and 4 signs of the zeros (u^theta, u^phi)
    cases = {(kind, float(np.sign(u0[1])), stop.kind, math.copysign(1.0, u0[2]), math.copysign(1.0, u0[3]))
             for kind, _, u0, stop, _ in legs}
    assert len(cases) == 5 * 3 * 4


def test_general_legs_step_like_the_whole_state(schw, rng, monkeypatch):
    # a general leg forms its trial stages on the six components its
    # right-hand side reads, and moves all nine
    legs = []
    for kind, radial_fraction in LEGS:
        if radial_fraction == 0.0:
            continue
        for _ in range(8):
            x0, u0 = launch(rng, kind, radial_fraction)
            legs.append((kind, x0, u0, StopCondition.proper_time(rng.uniform(1.0, 12.0)),
                         10.0 ** rng.uniform(-10.0, -3.0)))
    outcomes = assert_legs_step_like_the_whole_state(schw, monkeypatch, legs)
    assert all(rhs not in (None, geodesics._radial_rhs) for _, _, rhs in outcomes)


def test_equatorial_null_leg_carries_the_plane_normal(schw):
    # the orbital-plane normal is a frame vector: on an equatorial ray P
    # maps d_theta to (r0 / r) d_theta and mixes nothing else into it
    x0 = np.array([0.0, 8.0, math.pi / 2, 0.0])
    f = 0.75
    u0 = np.array([1.0 / math.sqrt(f), 0.6 * math.sqrt(f), 0.0, 0.8 / 8.0])
    path = integrate_geodesic(schw, x0, u0, StopCondition.proper_time(4.0))
    assert path.kind == "null"
    P = path.propagators[-1]
    assert np.max(np.abs(P[2, [0, 1, 3]])) <= 1e-12
    assert P[2, 2] == pytest.approx(8.0 / path.points[-1, 1], rel=1e-12)


def recorded_legs(schw, flat, rng, monkeypatch):
    """Each leg's _checked_path arguments, and each stepped leg's run, over
    random timelike, null, radial and near-radial Schwarzschild legs, zero-length
    legs of both kinds and flat legs of both kinds."""
    checks, runs = [], []
    checked_path, dopri = geodesics._checked_path, geodesics._dopri

    def recording_check(*args, **kwargs):
        checks.append((args, kwargs))
        return checked_path(*args, **kwargs)

    def recording_dopri(*args):
        runs.append(dopri(*args))
        return runs[-1]

    monkeypatch.setattr(geodesics, "_checked_path", recording_check)
    monkeypatch.setattr(geodesics, "_dopri", recording_dopri)
    for kind, radial_fraction in LEGS:
        for _ in range(3):
            x0, u0 = launch(rng, kind, radial_fraction)
            for tau in (rng.uniform(1.0, 12.0), 0.0):
                try:
                    integrate_geodesic(schw, x0, u0, StopCondition.proper_time(tau))
                except StepFailure:
                    continue
    for u0 in ([1.25, 0.6, 0.0, -0.45], [1.0, 0.6, 0.0, 0.8]):
        integrate_geodesic(flat, np.array([0.5, 1.0, -2.0, 3.0]), np.array(u0), StopCondition.proper_time(4.0))
    return checks, runs


def test_leg_arrays_equal_the_earlier_assembly(schw, flat, rng, monkeypatch):
    # the stored states, frames, propagators and sizes of every stepped leg
    # are the bits of the np.array and 16-column assembly
    checks, runs = recorded_legs(schw, flat, rng, monkeypatch)
    stepped = [(args, kwargs) for args, kwargs in checks if len(args) > 8]
    assert len(stepped) == len(runs) >= 12
    kinds = set()
    for (args, kwargs), run in zip(stepped, runs):
        _, kind, _, taus, points, tangents, propagators, sizes = args[:8]
        kinds.add((kind, bool(tangents[0, 2] == tangents[0, 3] == 0.0)))
        t0, ph0 = points[0, 0], points[0, 3]
        expected = earlier_leg_arrays(kind, run.taus, run.states, t0, ph0)
        found = (taus, points, tangents, propagators, sizes, kwargs["g"], kwargs["stored_tangents"])
        for new, old in zip(found, expected):
            assert new.shape == old.shape
            assert np.array_equal(new, old)
    assert kinds == {("timelike", False), ("timelike", True), ("null", False), ("null", True)}


def test_path_checks_equal_the_earlier_forms(schw, flat, rng, monkeypatch):
    # the drift and the metric check of every leg, stepped, zero-length or
    # flat, give the earlier forms' bits, and their failures the same message
    checks, _ = recorded_legs(schw, flat, rng, monkeypatch)
    lengths = set()
    for args, kwargs in checks:
        spec, kind, _, _, points, tangents, propagators = args[:7]
        sizes = args[7] if len(args) > 7 else None
        chart = geodesics._UNIT_MASS if spec.kind == "schwarzschild" else spec
        g = kwargs.get("g")
        g = geodesics.metric_stack(chart, points) if g is None else g
        lengths.add((spec.kind, kind, len(points) > 1))
        assert geodesics._conservation_drift(chart, kind, points, tangents, g) == (
            earlier_conservation_drift(chart, kind, points, tangents, g)
        )
        bent = propagators + 1e-6
        broken = propagators.copy()
        broken[-1, 1, 2] = math.nan
        for P in (propagators, bent, broken):
            for size in (None, sizes, None if sizes is None else sizes + 1.0):
                try:
                    expected = earlier_metric_check(g, P, size)
                except StepFailure as e:
                    with pytest.raises(StepFailure) as found:
                        check_metric_preserved(g, P, size)
                    assert str(found.value) == str(e)
                else:
                    assert check_metric_preserved(g, P, size) == expected
    assert lengths == {
        (chart, kind, stepped)
        for chart, stepped in (("schwarzschild", True), ("schwarzschild", False), ("minkowski", True))
        for kind in ("timelike", "null")
    }

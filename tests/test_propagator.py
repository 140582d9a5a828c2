"""The closed-form parallel propagator and the Dormand-Prince stepper.

Reference values come from scipy, which the package itself does not use:
the parallel propagator integrated as the 24-component state (x, u, P) with
dP/dtau = -(Gamma . u) P, and scipy's RK45 on systems with known behaviour.
"""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from grbell import (
    HorizonApproach, HorizonDomain, SimulatorError, StepFailure, StopCondition, integrate_geodesic,
)
from grbell import geodesics
from grbell.geodesics import METRIC_SLACK
from conftest import metric_check, random_exterior_point, recording_checked_legs, recording_runs
from reference import (
    christoffel_components,
    column_list_frames,
    earlier_conservation_drift,
    earlier_dopri,
    earlier_leg_arrays,
    earlier_metric_check,
    earlier_radial_leg,
    earlier_radial_rhs,
    hnw_first_step,
    metric_matrices,
    recorded_dopri,
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
    assert metric_check(path.metrics, P) == residual


@pytest.mark.parametrize("kind, radial_fraction", LEGS)
def test_frame_blocks_equal_the_column_list_frames(schw, rng, monkeypatch, kind, radial_fraction):
    # the frame is built as (n, 4) blocks with f read from the leg's metric
    # stack; the 16-column assembly with f from the mass gives the same bits
    # on each leg of the stack
    calls = []

    def recording(kinds, points, g, tangents, psi):
        frames = original(kinds, points, g, tangents, psi)
        for i, kind in enumerate(kinds):
            calls.append((kind, points[i], tangents[i], psi[i], frames[i]))
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
            assert metric_check(d, P, sizes) == residual
        norm = np.max(np.abs(np.einsum("nab,na,nb->n", g, u, u) + 1.0))
        points = rng.uniform(3.0, 30.0, (n, 4))
        assert geodesics._conservation_drift(schw, ["timelike"], points[None], u[None], d[None])[0]["norm"] == norm


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
    # each right-hand side takes the components it reads. The plane one, of
    # a leg with energy E and angular momentum L, is the geodesic equation
    # at theta = pi/2 with u^theta = 0, u^t = E / f and u^phi = L / r^2: it
    # gives that u^t and u^phi, and du^r (the table's du^theta there is
    # sin cos (u^phi)^2, 0 but for cos(pi/2) = 6e-17 in floats). A radial
    # leg's gives du^t and du^r, and u^theta and u^phi stay 0
    for i in range(200):
        x = random_exterior_point(rng)
        u = rng.standard_normal(4)
        radial = np.array([u[0], u[1], 0.0, 0.0])
        kind, eps = ("timelike", 1.0) if i % 2 else ("null", 0.0)
        r, ur, L = x[1], u[1], 4.0 * u[3]
        f = 1.0 - 2.0 / r
        energy = math.sqrt(ur * ur + f * (eps + L * L / (r * r)))
        in_plane = np.array([x[0], r, math.pi / 2, x[3]])
        plane = np.array([energy / f, ur, 0.0, L / (r * r)])
        rates = geodesics._plane_rhs(kind, energy, L)((r, ur))
        assert (rates[0], rates[1], rates[2]) == (plane[0], ur, plane[3])
        for acceleration, point, u, rows in (
            (np.array([rates[4]]), in_plane, plane, [1]),
            (np.array([*earlier_radial_rhs([x[1], u[0], u[1]])[2:], 0.0, 0.0]), x, radial, [0, 1, 2, 3]),
        ):
            G = christoffel_components(schw, point)
            expected = -(G @ u @ u)[rows]
            scale = (np.abs(G) @ np.abs(u) @ np.abs(u))[rows]
            assert np.all(np.abs(acceleration - expected) <= 4.0 * EPS * scale)


def damped_oscillator(y):
    return [y[1], -y[0] - 0.1 * y[1] * y[0] ** 2, 0.3 * y[0]]


def leaves_at_zero(y):
    """y' = -1 on the domain y > 0, which y = 1 - tau leaves at tau = 1."""
    if y[0] <= 0.0:
        raise HorizonDomain(f"y = {y[0]}")
    return [-1.0]


def test_stepper_takes_the_steps_of_rk45():
    # same tableau, error norm and controller, and RK45's own first step:
    # the same steps. RK45 also counts its start rule's second evaluation
    rhs = damped_oscillator
    y0 = [1.5, 0.0, 0.2]
    for tol in (1e-6, 1e-9, 1e-11):
        run = recorded_dopri(rhs, y0, hnw_first_step(rhs, y0, 20.0, tol), 20.0, tol, [], "stop")
        ref = solve_ivp(lambda _t, y: rhs(y), (0.0, 20.0), y0, method="RK45",
                        rtol=tol, atol=tol * 1e-3)
        assert run.accepted == len(ref.t) - 1
        assert run.nfev + 1 == ref.nfev
        # the error estimate cancels to about tol, so its rounding moves the
        # step sizes by about eps / tol relative to scipy's
        assert np.allclose(run.taus, ref.t, rtol=1e-4, atol=0.0)
        assert np.allclose(run.states[-1], ref.y[:, -1], rtol=0.0, atol=tol)


def test_stepper_locates_a_terminal_event_on_its_dense_output():
    # y = (cos tau, -sin tau): y0 first falls through 0.5 at tau = pi / 3
    run = recorded_dopri(lambda y: [y[1], -y[0]], [1.0, 0.0], 1e-3, 10.0, 1e-10, [(0, 0.5, -1)], "stop")
    assert run.event == 0
    assert run.taus[-1] == pytest.approx(math.pi / 3.0, abs=1e-9)
    assert run.states[-1][0] == pytest.approx(0.5, abs=1e-9)
    assert run.accepted == len(run.taus) - 1


def test_stepper_rejects_a_non_finite_state():
    with pytest.raises(StepFailure, match="non-finite"):
        recorded_dopri(lambda y: [math.nan if y[0] > 1.5 else 1.0], [1.0], 1e-3, 5.0, 1e-8, [], "stop")


def test_stepper_without_an_end_fails_where_tau_would_overflow():
    # y' = 1 with tau_end = inf: the controller grows each step tenfold, so a
    # step soon takes tau past the floats; its trial stage leaves the domain
    # there, and shrinking an infinite step leaves it infinite
    calls = 0

    def rhs(y):
        nonlocal calls
        calls += 1
        if calls > 100_000:
            raise RuntimeError("the stepper retries an infinite step")
        if not math.isfinite(y[0]):
            raise HorizonDomain(f"y = {y[0]}")
        return (1.0,)

    with pytest.raises(StepFailure, match="non-finite state"):
        recorded_dopri(rhs, [0.0], 1e-3, math.inf, 1e-8, [], "stop")


def test_stepper_rejects_a_step_whose_stage_leaves_the_domain():
    # the controller grows the step tenfold on this linear system until a
    # trial stage crosses the domain's edge
    run = recorded_dopri(leaves_at_zero, [1.0], 1e-3, 10.0, 1e-10, [(0, 0.25, -1)], "stop")
    assert run.event == 0
    assert run.taus[-1] == pytest.approx(0.75, abs=1e-12)
    assert run.rejected >= 1
    assert run.nfev == 1 + 6 * (run.accepted + run.rejected)


def test_stepper_fails_on_step_size_underflow():
    # y' = 1 / (1 - y)^2 blows up at tau = 1/3; steps shrink until they underflow
    with pytest.raises(StepFailure):
        recorded_dopri(lambda y: [1.0 / (1.0 - y[0]) ** 2], [0.0], 1e-3, 1.0, 1e-10, [], "stop")


def run_outcome(call):
    """A stepper run's taus and states as bytes, its event and counters, or
    the class and message of what it raised; a run of geodesics._dopri
    reads as recorded_dopri records it, every state it checks."""
    try:
        run = call()
    except Exception as e:  # noqa: BLE001 - compared, not handled
        return type(e), str(e)
    states = np.array(run.states)
    return (np.array(run.taus).tobytes(), states.shape, states.tobytes(), run.event,
            run.nfev, run.accepted, run.rejected)


# y = (x, v, q, c): x' = v, v' = -x, q' = x is never read and c is constant;
# a terminal event on q ends a run on its dense output
def whole_toy(y):
    return [y[1], -y[0], y[0], 0.0]


def read_toy(y):
    """whole_toy from the components it reads, (x, v)."""
    x, v = y
    return v, -x, x, 0.0


TOY_RUNS = [
    ([1.0, 0.0, 0.25, c], tol, events)
    for c in (2.5, 0.0, -0.0)
    for tol in (1e-3, 1e-7, 1e-10)
    for events in ([], [(2, 0.75, 1)], [(2, 0.75, 1), (0, -0.5, -1)])
]


# the stepper's arguments on the toy systems above, in groups by what they
# exercise; the rk45 group starts at RK45's first step, the others at 1e-3
STEPPER_CASES = {
    "rk45": [(damped_oscillator, [1.5, 0.0, 0.2], hnw_first_step(damped_oscillator, [1.5, 0.0, 0.2], 20.0, tol),
              20.0, tol, [], "stop") for tol in (1e-6, 1e-9, 1e-11)],
    "event": [(lambda y: [y[1], -y[0]], [1.0, 0.0], 1e-3, 10.0, 1e-10, [(0, 0.5, -1)], "stop")],
    "domain": [(leaves_at_zero, [1.0], 1e-3, 10.0, 1e-10, [(0, 0.25, -1)], "stop")],
    "non_finite": [(lambda y: [math.nan if y[0] > 1.5 else 1.0], [1.0], 1e-3, 5.0, 1e-8, [], "stop")],
    "underflow": [(lambda y: [1.0 / (1.0 - y[0]) ** 2], [0.0], 1e-3, 1.0, 1e-10, [], "stop")],
    # the toy runs on the whole state and on the components read
    "reads_and_moves": [(rhs, y0, 1e-3, 10.0, tol, events, "stop", *reads)
                        for y0, tol, events in TOY_RUNS
                        for rhs, reads in ((whole_toy, ()), (read_toy, ((0, 1),)))],
}


@pytest.mark.parametrize("case", list(STEPPER_CASES))
@pytest.mark.parametrize("max_steps", [geodesics.MAX_STEPS, 5])
def test_stepper_equals_the_earlier_stepper(monkeypatch, case, max_steps):
    # the straight-line trial step gives the bits of the list form at every
    # state it hands its per-step function, and raises what it raises, also
    # where the step budget runs out
    monkeypatch.setattr(geodesics, "MAX_STEPS", max_steps)
    for args in STEPPER_CASES[case]:
        found = run_outcome(lambda: recorded_dopri(*args))
        assert found == run_outcome(lambda: earlier_dopri(*args))
        if max_steps == 5 and case == "rk45":
            assert found == (StepFailure, "stop not reached within 5 steps")


def radial_leg(rng):
    """A random radial leg at unit mass, as (kind, x0, u0, stop, tol).

    Timelike legs at rest, inward or outward, or null legs inward or
    outward, on or off the equator, with u^theta and u^phi each +0.0 or
    -0.0, to a proper-time, radius or coordinate-time stop that may lie
    past the guard radius or beyond earlier_tau_cap.
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
    """Each leg's stepper run, on the components (r, u^r) its plane
    right-hand side reads, at every state it hands its per-step function,
    equals the run of earlier_dopri on the same arguments, and the run of
    earlier_dopri over all five components of the plane state on that
    right-hand side, rebuilt from the leg's E and L. Returns each leg's
    outcome, as (exception class name or "ok", the right-hand side it
    stepped on or None)."""
    calls, outcomes = [], []

    def recording(*args):
        try:
            run = recorded_dopri(*args)
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
            outcome = type(e).__name__
        else:
            outcome = "ok"
        if len(calls) == stepped:  # a zero-length leg does not step
            outcomes.append((outcome, None))
            continue
        args, found = calls[stepped]
        rhs, y0, h0, cap, _, events, what, reads, _ = args
        assert found == run_outcome(lambda: earlier_dopri(rhs, y0, h0, cap, tol, events, what, reads))
        r0, th0 = x0[1], x0[2]
        energy = (1.0 - 2.0 / r0) * u0[0]
        ang_mom = r0 * math.hypot(r0 * u0[2], r0 * math.sin(th0) * u0[3])
        plane_rhs = geodesics._plane_rhs(kind, energy, ang_mom)
        expected = run_outcome(lambda: earlier_dopri(
            lambda y: plane_rhs((y[1], y[4])), y0, h0, cap, tol, events, what))
        assert found == expected
        outcomes.append((outcome, rhs))
    return outcomes


def bound_radial_leg(rng, motion):
    """A random timelike radial leg at unit mass that the three-way draw of
    radial_leg does not make, as (kind, x0, u0, stop, tol): "unit" moves in
    or out with E within 1e-9 of 1, "escape" moves out with E > 1, "turn"
    moves out with E < 1 and turns at r_max, 1.05 to 3 times r0. Its stop
    may lie behind it, beyond r_max, past the guard or beyond
    earlier_tau_cap."""
    r0 = rng.uniform(2.05, 4.0) if rng.random() < 0.3 else rng.uniform(4.0, 30.0)
    theta = math.pi / 2.0 if rng.random() < 0.5 else rng.uniform(0.2, math.pi - 0.2)
    x0 = np.array([rng.uniform(-5.0, 5.0), r0, theta, rng.uniform(-math.pi, math.pi)])
    if motion == "unit":  # (u^r)^2 = 2/r0 + E^2 - 1
        v = math.copysign(math.sqrt(2.0 / r0 * (1.0 + rng.uniform(-1e-9, 1e-9))), rng.uniform(-1.0, 1.0))
    elif motion == "escape":
        v = math.sqrt(2.0 / r0 + rng.uniform(1e-3, 3.0))
    else:
        v = math.sqrt(2.0 / r0 - 2.0 / (r0 * rng.uniform(1.05, 3.0)))
    f = 1.0 - 2.0 / r0
    u0 = np.array([math.sqrt(f + v * v) / f, v, 0.0, 0.0])
    stop_kind = int(rng.integers(3))
    if stop_kind == 0:
        stop = StopCondition.proper_time(rng.uniform(0.5, 60.0))
    elif stop_kind == 1:
        stop = StopCondition.radius(rng.uniform(2.00001, r0 - 0.01) if rng.random() < 0.5
                                    else rng.uniform(r0 + 0.01, 3.5 * r0))
    else:
        stop = StopCondition.coordinate_time(x0[0] + rng.uniform(-5.0, 80.0))
    return "timelike", x0, u0, stop, 1e-12


# the closed-form end against the stepped one at tol 1e-12: tau, t, r and
# u^r relative to max(1, |x|), where the stepper's error measured at most
# 6.5e-11 over 2,700 ok legs of four seeds; u^t = E / f adds the factor
# r / (r - 2) to the stepped end radius's error and measured at most 1.3e-9
RADIAL_END_BOUNDS = {"tau": 1e-9, "t": 1e-9, "r": 1e-9, "u^t": 1e-8, "u^r": 1e-9}


def test_radial_legs_match_the_stepped_reference(schw, rng):
    # every radial leg is closed-form and meets the stepped leg of
    # earlier_dopri on earlier_radial_rhs: the same outcome, and on ok legs
    # the same end to the stepper's error; a stop it never meets fails at
    # once, where the stepper hit the guard or ran out earlier_tau_cap. A
    # closed-form leg has no cap on tau, so where the stepper ran out of
    # that cap it is run again uncapped
    legs = [(*radial_leg(rng)[:4], 1e-12) for _ in range(320)]
    # 5 motions, 3 stop kinds and 4 signs of the zeros (u^theta, u^phi)
    cases = {(kind, float(np.sign(u0[1])), stop.kind, math.copysign(1.0, u0[2]), math.copysign(1.0, u0[3]))
             for kind, _, u0, stop, _ in legs}
    assert len(cases) == 5 * 3 * 4
    legs += [bound_radial_leg(rng, motion) for motion in ("unit", "escape", "turn") for _ in range(40)]
    outcomes = set()
    for kind, x0, u0, stop, tol in legs:
        expected = earlier_radial_leg(kind, x0, u0, stop, tol)
        if expected == ("StepFailure", True):
            expected = earlier_radial_leg(kind, x0, u0, stop, tol, cap=math.inf)
            outcomes.add("past the old cap")
        try:
            path = integrate_geodesic(schw, x0, u0, stop, tol)
        except HorizonApproach:
            found = "HorizonApproach", False
        except StepFailure as e:
            # beyond r_max, behind the leg, or before its start: the stepper does not meet it either
            message = str(e)
            assert any(why in message for why in ("r_max", "never", "precedes")), message
            assert expected[0] != "ok"
            outcomes.add("unreachable")
            continue
        else:
            found = "ok", path
        assert found[0] == expected[0], (kind, x0, u0, stop)
        outcomes.add(found[0])
        if found[0] != "ok":
            assert found[1] == expected[1]
            continue
        assert len(path.taus) == 2 and path.tau_end > 0.0
        assert (path.nfev, path.accepted, path.rejected) == (0, 0, 0)
        tau, t, r, ut, ur = expected[1]
        end = dict(zip(RADIAL_END_BOUNDS, (tau, t, r, ut, ur)))
        got = dict(zip(RADIAL_END_BOUNDS, (path.tau_end, *path.points[-1, :2], *path.tangents[-1, :2])))
        for key, bound in RADIAL_END_BOUNDS.items():
            assert abs(got[key] - end[key]) <= bound * max(1.0, abs(end[key])), (key, got[key], end[key])
        # the drifts: rounding of the ends' E = f u^t and u.u, and L_z = 0 exactly
        g, u = path.metrics, path.tangents
        conditioning = np.max(np.einsum("na,na,na->n", np.abs(g), np.abs(u), np.abs(u)))
        assert path.drift["norm"] <= 8.0 * EPS * conditioning
        assert path.drift["energy"] <= 4.0 * EPS
        assert path.drift["angular_momentum"] == 0.0
    assert outcomes == {"ok", "HorizonApproach", "past the old cap", "unreachable"}


def comeback_leg(rng, stop_kind):
    """An outward timelike radial leg at unit mass with E < 1, from r0 = 2.05
    to 30 M, turning at r_max = 1.05 to 30 times r0, as (kind, x0, u0, stop,
    tol). Its stop lies past the turn, at a point of its fall back to the
    guard that comes after it passes r0 again, so a radius stop is below r0.

    The stop is placed on the cycloid of MTW eq. 31.10, r = (r_max / 2)(1 +
    cos eta), tau = k (eta + sin eta), k = sqrt(r_max^3 / 8), and t = 2
    ln|(q + tan(eta / 2)) / (q - tan(eta / 2))| + 2 q (eta + (r_max / 4)(eta
    + sin eta)), q = sqrt(r_max / 2 - 1), with eta = 0 at the turn; the leg
    starts at -eta0 and meets the guard at eta_guard.
    """
    r0 = rng.uniform(2.05, 30.0)
    r_max = r0 * math.exp(rng.uniform(math.log(1.05), math.log(30.0)))
    v = math.sqrt(2.0 / r0 - 2.0 / r_max)
    f = 1.0 - 2.0 / r0
    x0 = np.array([rng.uniform(-5.0, 5.0), r0, math.pi / 2.0, 0.0])
    u0 = np.array([math.sqrt(f + v * v) / f, v, 0.0, 0.0])
    eta0 = math.acos(2.0 * r0 / r_max - 1.0)
    eta_guard = math.acos(2.0 * geodesics._UNIT_MASS.guard_radius / r_max - 1.0)
    eta = eta0 + (eta_guard - eta0) * rng.uniform(0.02, 0.98)
    k, q = math.sqrt(r_max**3 / 8.0), math.sqrt(r_max / 2.0 - 1.0)

    def t(eta):
        w = math.tan(0.5 * eta)
        return 2.0 * (math.log(abs((q + w) / (q - w))) + q * (eta + 0.25 * r_max * (eta + math.sin(eta))))

    if stop_kind == "radius":
        stop = StopCondition.radius(0.5 * r_max * (1.0 + math.cos(eta)))
    elif stop_kind == "proper_time":
        stop = StopCondition.proper_time(k * (eta0 + math.sin(eta0) + eta + math.sin(eta)))
    else:
        stop = StopCondition.coordinate_time(x0[0] + t(eta0) + t(eta))
    return "timelike", x0, u0, stop, 1e-12


def test_radial_legs_thrown_outward_reach_stops_past_their_turn(schw, rng):
    # a closed-form leg has no cap on tau: a bound outward leg comes back and
    # reaches a stop past its turn, at the end the uncapped stepper finds.
    # At a time stop late in a long fall the stepper's own phase error,
    # |u^r| times its error in tau, exceeds 1e-9 of r (up to 790 times at
    # tol 1e-12), so a time-stop leg is stepped to the radius it ended at,
    # where that error shows in tau and t relative to their size. The
    # stepper runs at tol 1e-13: at 1e-12 its error in tau on a leg from
    # near the guard reached 1.2e-9 over 30 seeds, and 1.2e-10 at 1e-13
    for i in range(42):
        kind, x0, u0, stop, tol = comeback_leg(rng, ("radius", "proper_time", "coordinate_time")[i % 3])
        path = integrate_geodesic(schw, x0, u0, stop, tol)
        assert path.tangents[-1, 1] < 0.0
        if stop.kind == "radius":
            assert stop.value < x0[1] and path.points[-1, 1] == stop.value
        else:
            assert (path.tau_end if stop.kind == "proper_time" else path.points[-1, 0]) == stop.value
            stop = StopCondition.radius(path.points[-1, 1])
        expected = earlier_radial_leg(kind, x0, u0, stop, 1e-13, cap=math.inf)
        assert expected[0] == "ok", (x0, u0, stop)
        end = dict(zip(RADIAL_END_BOUNDS, expected[1]))
        got = dict(zip(RADIAL_END_BOUNDS, (path.tau_end, *path.points[-1, :2], *path.tangents[-1, :2])))
        for key, bound in RADIAL_END_BOUNDS.items():
            assert abs(got[key] - end[key]) <= bound * max(1.0, abs(end[key])), (key, got[key], end[key])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radial_legs_at_extreme_inputs_end_finite_or_fail(schw):
    # r0 from just outside the guard to 1e300 M, E within 1 ulp of 1 and
    # signed zeros give a finite two-point leg or a SimulatorError
    guard = schw.guard_radius
    radii = [math.nextafter(guard, math.inf), 2.001, 10.0, 1e8, 1e150, 1e300]
    checked = 0
    for r0 in radii:
        f = 1.0 - 2.0 / r0
        speeds = [0.0, -0.0, 0.5, -0.5]
        unit = math.sqrt(2.0 / r0)  # E = 1
        speeds += [s * w for w in (unit, math.nextafter(unit, 0.0), math.nextafter(unit, math.inf))
                   for s in (1, -1)]
        for v in speeds:
            tangents = (("timelike", [math.sqrt(f + v * v) / f, v]), ("null", [1.0 / f, math.copysign(1.0, v)]))
            for kind, u0 in tangents:
                for zeros in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
                    for stop in (StopCondition.proper_time(3.0), StopCondition.radius(0.5 * r0 + 2.0),
                                 StopCondition.radius(2.0 * r0), StopCondition.coordinate_time(5.0)):
                        x0 = np.array([0.0, r0, math.pi / 2, -0.0])
                        try:
                            path = integrate_geodesic(schw, x0, np.array([*u0, *zeros]), stop)
                        except SimulatorError:
                            continue
                        assert len(path.taus) == 2 and path.kind == kind
                        assert np.all(np.isfinite(path.points)) and np.all(np.isfinite(path.propagators))
                        checked += 1
    assert checked > 100
    # outward legs 1 to 4 ulp below escape speed, E within an ulp or so
    # below 1, thrown up to r_max = 2 / alpha ~ r0 2^53 and falling back to
    # 0.5 r0 + 2; 1.3e154 M is about the largest r0 whose r^2 is finite
    r_max = []
    for r0 in (10.0, 1e8, 1e50, 1e100, 1e150, 1.3e154):
        f = 1.0 - 2.0 / r0
        v = math.sqrt(2.0 / r0)
        for _ in range(4):
            v = math.nextafter(v, 0.0)
            alpha = 2.0 / r0 - v * v
            assert alpha > 0.0
            r_max.append(2.0 / alpha)
            x0 = np.array([0.0, r0, math.pi / 2, 0.0])
            try:
                path = integrate_geodesic(schw, x0, np.array([math.sqrt(f + v * v) / f, v, 0.0, 0.0]),
                                          StopCondition.radius(0.5 * r0 + 2.0))
            except SimulatorError:
                continue
            assert len(path.taus) == 2 and path.tangents[-1, 1] < 0.0
            assert np.all(np.isfinite(path.points)) and np.all(np.isfinite(path.propagators))
    assert max(r_max) > 1e169


def test_general_legs_step_like_the_whole_state(schw, rng, monkeypatch):
    # a general leg forms its trial stages on the two components its
    # right-hand side reads, and moves all five
    legs = []
    for kind, radial_fraction in LEGS:
        if radial_fraction == 0.0:
            continue
        for _ in range(8):
            x0, u0 = launch(rng, kind, radial_fraction)
            legs.append((kind, x0, u0, StopCondition.proper_time(rng.uniform(1.0, 12.0)),
                         10.0 ** rng.uniform(-10.0, -3.0)))
    outcomes = assert_legs_step_like_the_whole_state(schw, monkeypatch, legs)
    assert all(rhs is not None for _, rhs in outcomes)


def test_the_effective_potential_refuses_only_radii_the_orbit_never_reaches(schw, monkeypatch):
    # random non-radial timelike and null legs to a radius stop. A stop the
    # effective potential refuses, behind a barrier or below the start of an
    # escaping leg, is never reached: the leg run again to a long
    # proper-time stop (or to the guard) stays on its side of it. Any other
    # leg reaches its stop or the guard within a step budget of 2,000
    rng = np.random.default_rng(20261020)
    full_budget = geodesics.MAX_STEPS
    runs = recording_runs(monkeypatch)
    outcomes = {}
    for i in range(200):
        kind = ("timelike", "null")[i % 2]
        x0, u0 = launch(rng, kind)
        r0, target = x0[1], rng.uniform(2.05, 3.0 * x0[1])
        monkeypatch.setattr(geodesics, "MAX_STEPS", 2000)
        try:
            path = integrate_geodesic(schw, x0, u0, StopCondition.radius(target))
        except HorizonApproach:
            outcome = "guard"
        except StepFailure as e:
            outcome = "budget" if "within 2000 steps" in str(e) else (
                "escapes" if "escapes" in str(e) else "refused"
            )
            if outcome != "budget":
                assert "effective potential" in str(e), str(e)
                monkeypatch.setattr(geodesics, "MAX_STEPS", full_budget)
                runs.clear()
                try:
                    integrate_geodesic(schw, x0, u0, StopCondition.proper_time(1000.0))
                except HorizonApproach:
                    pass
                radii = np.array([state[1] for state in runs[0].states])
                assert np.all(radii > target) if target < r0 else np.all(radii < target)
        else:
            outcome = "reached"
            assert path.points[-1, 1] == pytest.approx(target, rel=1e-12, abs=0.0)
        outcomes[kind, outcome] = outcomes.get((kind, outcome), 0) + 1
    assert {outcome for _, outcome in outcomes} == {"reached", "guard", "escapes", "refused"}
    assert all(outcomes.get((kind, "refused"), 0) >= 10 for kind in ("timelike", "null")), outcomes


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
    """Each leg's rows of the stack _checked_paths checks, and each stepped
    leg's run, as recorded_dopri records it, over random timelike, null,
    radial and near-radial Schwarzschild legs, zero-length legs of both
    kinds and flat legs of both kinds."""
    checks, runs = recording_checked_legs(monkeypatch), recording_runs(monkeypatch)
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
    # every leg's (2, ...) rows of the stack, its states, frames,
    # propagators and sizes, are the bits of the np.array and 16-column
    # assembly at its ends: a stepped leg's first and last row of that
    # assembly over every state its run checked, with phi unwrapped row by
    # row, a closed-form radial leg's two ends, and a zero-length leg's one
    # row twice
    checks, runs = recorded_legs(schw, flat, rng, monkeypatch)
    framed = [leg for leg in checks if leg.sizes is not None]
    stepped = [leg for leg in framed if leg.nfev > 0]
    closed = [leg for leg in framed if leg.nfev == 0]
    assert len(stepped) == len(runs) >= 12
    assert len(closed) >= 6
    assert {bool(leg.taus[-1] > 0.0) for leg in closed} == {True, False}  # radial and zero-length
    kinds = set()
    for leg, run in [*zip(stepped, runs), *[(leg, None) for leg in closed]]:
        kind, taus, points, tangents, propagators, sizes = (
            leg.kind, leg.taus, leg.points, leg.tangents, leg.propagators, leg.sizes
        )
        kinds.add((kind, bool(tangents[0, 2] == tangents[0, 3] == 0.0)))
        assert taus.shape == (2,) and propagators.shape == sizes.shape == (2, 4, 4)
        if run is None:  # a radial leg's two ends, or a zero-length leg's one row
            rows = 2 if taus[-1] > 0.0 else 1
            states = np.column_stack([points, tangents, np.zeros(2)])[:rows]
            expected = earlier_leg_arrays(kind, taus[:rows], states, None, None)
        else:
            expected = earlier_leg_arrays(kind, run.taus, run.states, points[0], tangents[0])
        found = (taus, points, tangents, propagators, sizes, leg.g, leg.stored_tangents)
        for new, old in zip(found, expected):
            assert new.shape == old[[0, -1]].shape
            assert np.array_equal(new, old[[0, -1]])  # a one-row assembly's row twice
    assert kinds == {("timelike", False), ("timelike", True), ("null", False), ("null", True)}


def test_path_checks_equal_the_earlier_forms(schw, flat, rng, monkeypatch):
    # the drift and the metric check of every leg, stepped, zero-length or
    # flat, give the earlier forms' bits, and their failures the same message
    checks, _ = recorded_legs(schw, flat, rng, monkeypatch)
    lengths = set()
    for leg in checks:
        spec, kind, points, tangents, propagators, sizes = (
            leg.spec, leg.kind, leg.points, leg.tangents, leg.propagators, leg.sizes
        )
        chart = geodesics._UNIT_MASS if spec.kind == "schwarzschild" else spec
        g = leg.g
        assert np.array_equal(g, geodesics.metric_stack(chart, points))
        lengths.add((spec.kind, kind, bool(leg.taus[-1] > 0.0)))
        assert geodesics._conservation_drift(chart, [kind], points[None], tangents[None], g[None]) == [
            earlier_conservation_drift(chart, kind, points, tangents, g)
        ]
        bent = propagators + 1e-6
        broken = propagators.copy()
        broken[-1, 1, 2] = math.nan
        for P in (propagators, bent, broken):
            for size in (None, sizes, None if sizes is None else sizes + 1.0):
                try:
                    expected = earlier_metric_check(g, P, size)
                except StepFailure as e:
                    with pytest.raises(StepFailure) as found:
                        metric_check(g, P, size)
                    assert str(found.value) == str(e)
                else:
                    assert metric_check(g, P, size) == expected
    assert lengths == {
        (chart, kind, stepped)
        for chart, stepped in (("schwarzschild", True), ("schwarzschild", False), ("minkowski", True))
        for kind in ("timelike", "null")
    }

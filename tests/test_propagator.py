"""The closed-form parallel propagator and the Dormand-Prince stepper.

Reference values come from scipy, which the package itself does not use:
the parallel propagator integrated as the 24-component state (x, u, P) with
dP/dtau = -(Gamma . u) P, and scipy's RK45 on systems with known behaviour.
"""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from grbell import HorizonDomain, StepFailure, StopCondition, integrate_geodesic
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
    rhs = geodesics._schwarzschild_rhs("timelike", 1.0, 1.0)  # unit mass, as schw
    for _ in range(200):
        x = random_exterior_point(rng)
        u = rng.standard_normal(4)
        acceleration = np.array(rhs(list(x) + list(u) + [0.0])[4:8])
        G = christoffel_components(schw, x)
        expected = -(G @ u @ u)
        scale = np.abs(G) @ np.abs(u) @ np.abs(u)
        assert np.all(np.abs(acceleration - expected) <= 4.0 * EPS * scale)


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

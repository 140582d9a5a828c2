"""Acceptance suite: one test per criterion, one [PASS] line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. The Monte Carlo criterion is the long pole (about a minute); all
tolerances are fixed here, nothing is calibrated at runtime.
"""
import math

import numpy as np
import pytest

from grbell import (
    Direction3,
    MetricSpec,
    SettingsTriple,
    StopCondition,
    build_comoving_frame,
    build_static_frame,
    config_from_dict,
    correlation_mc,
    find_max_violation,
    flat_baseline_config,
    generalized_bell_check,
    integrate_geodesic,
    lhv_inequality_audit,
    make_projection,
    make_sign_model,
    quantum_correlation,
    rows_to_csv,
    run_scenario,
    run_sweep,
)
from grbell.errors import SimulatorError
from grbell.frames import embed_stack, project_stack
from grbell.geometry import metric_components
from grbell.transport import FORWARD, _carry, transport_stack
from conftest import random_direction
from reference import checked, tetrad_components, weighted_difference
from test_lhv import sign_correlation_quadrature

M = 1.0


def _passed(name: str) -> None:
    print(f"[PASS] {name}")


# -- criterion 1: flat-space reduction ---------------------------------------


def test_criterion_1_flat_space_reduction():
    flat = MetricSpec("minkowski")
    x0 = np.array([0.0, 0.0, 0.0, 0.0])
    gamma = 1.0 / math.sqrt(1.0 - 0.25)
    geo_L = integrate_geodesic(
        flat, x0, np.array([gamma, 0.5 * gamma, 0, 0]), StopCondition.proper_time(5.0)
    )
    geo_R = integrate_geodesic(
        flat, x0, np.array([gamma, -0.5 * gamma, 0, 0]), StopCondition.proper_time(5.0)
    )
    projector_L = build_static_frame(flat, geo_L.points[-1]) @ geo_L.metrics[-1]
    E_R = build_static_frame(flat, geo_R.points[-1])

    def arrival(d):
        moved = checked(transport_stack(geo_L, geo_R, embed_stack(E_R, d.d[None])))
        return checked(project_stack(projector_L, moved.v)).result(0)

    rng = np.random.default_rng(1001)
    for _ in range(100):
        a, b, c = (random_direction(rng) for _ in range(3))
        proj_b = arrival(b)
        proj_c = arrival(c)
        assert abs(proj_b.w - 1.0) <= 1e-9
        assert abs(proj_c.w - 1.0) <= 1e-9
        p_ab = quantum_correlation(a, proj_b)
        assert abs(p_ab - (-a.dot(b))) <= 1e-9
        # the bound reduces to the classic form 1 + P(b, c)
        report = generalized_bell_check(SettingsTriple(a, b, c), proj_b, proj_c)
        assert abs(report.rhs - (1.0 + quantum_correlation(b, proj_c))) <= 1e-9
    _passed("criterion 1: flat-space reduction (w = 1, P = -cos, classic bound)")


# -- criterion 2: canonical violation ----------------------------------------


def test_criterion_2_canonical_violation():
    report = run_scenario(config_from_dict(flat_baseline_config()))
    assert abs(report.inequality.lhs - 1.0) <= 1e-9
    assert abs(report.inequality.rhs - 0.5) <= 1e-9
    assert abs(report.inequality.margin - 0.5) <= 1e-9
    assert report.inequality.violated
    _passed("criterion 2: canonical 0/60/120 violation (lhs 1.0, rhs 0.5)")


# -- criterion 3: geometry fidelity ------------------------------------------


def test_criterion_3_geometry_fidelity():
    schw = MetricSpec("schwarzschild", mass=M)
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])

    # conservation over proper length 100M on an eccentric orbit
    uphi = 3.7 / 100.0
    ut = math.sqrt((1.0 + 100.0 * uphi**2) / 0.8)
    path = integrate_geodesic(
        schw, x0, np.array([ut, 0, 0, uphi]), StopCondition.proper_time(100.0)
    )
    drift = path.drift
    assert drift["norm"] <= 1e-8
    assert drift["energy"] <= 1e-8
    assert drift["angular_momentum"] <= 1e-8

    # transport preserves inner products
    rng = np.random.default_rng(33)
    v0 = rng.standard_normal(4)
    w0 = rng.standard_normal(4)
    v1 = checked(_carry(path, v0[None], FORWARD))
    w1 = checked(_carry(path, w0[None], FORWARD))
    assert v1.norm_drift[0] <= 1e-7 and v1.tangent_dot_drift[0] <= 1e-7
    g0 = metric_components(schw, path.points[0])
    g1 = metric_components(schw, path.points[-1])
    assert abs(v1.v[0] @ g1 @ w1.v[0] - v0 @ g0 @ w0) <= 1e-7

    # geodetic precession for one circular orbit at r = 10M
    r = 10.0
    omega = math.sqrt(M / r**3)
    ut_c = 1.0 / math.sqrt(1.0 - 3.0 * M / r)
    orbit = integrate_geodesic(
        schw,
        x0,
        np.array([ut_c, 0, 0, omega * ut_c]),
        StopCondition.proper_time(2.0 * math.pi / (omega * ut_c)),
    )
    radial = np.array([[0.0, math.sqrt(0.8), 0.0, 0.0]])
    moved = checked(_carry(orbit, radial, FORWARD))
    g_end = orbit.metrics[-1]
    E = build_comoving_frame(g_end, orbit.tangents[-1])
    comps = tetrad_components(E, g_end, moved.v[0])
    angle = math.atan2(comps[3], comps[1])
    expected = 2.0 * math.pi * (1.0 - math.sqrt(0.7))
    assert abs(abs(angle) - expected) <= 1e-4
    _passed("criterion 3: geometry fidelity (conservation 1e-8, transport 1e-7, precession 1e-4)")


# -- criterion 4: projection weight ------------------------------------------


def test_criterion_4_projection_weight():
    rng = np.random.default_rng(404)
    flat = MetricSpec("minkowski")
    schw = MetricSpec("schwarzschild", mass=M)

    for i in range(10_000):
        if i % 2:
            p = rng.uniform(-10, 10, size=4)
            spec = flat
        else:
            p = np.array([
                rng.uniform(-5, 5),
                rng.uniform(3.0, 40.0),
                rng.uniform(0.3, math.pi - 0.3),
                rng.uniform(-math.pi, math.pi),
            ])
            spec = schw
        E = build_static_frame(spec, p)
        v = rng.standard_normal(4) * 10 ** rng.uniform(-2, 2)
        proj = checked(project_stack(E @ metric_components(spec, p), v[None])).result(0)
        assert 0.0 <= proj.w <= 1.0

    # round-trip identity
    for _ in range(200):
        p = np.array([0.0, rng.uniform(3.0, 30.0), rng.uniform(0.5, 2.5), 0.0])
        E = build_static_frame(schw, p)
        d = random_direction(rng)
        V = embed_stack(E, d.d[None])
        proj = checked(project_stack(E @ metric_components(schw, p), V)).result(0)
        assert abs(proj.w - 1.0) <= 1e-10
        assert np.max(np.abs(proj.direction.d - d.d)) <= 1e-10

    # asymptotically flat regime: r = 10^4 M matches the Minkowski value 1
    r = 1.0e4
    f = 1.0 - 2.0 * M / r
    x0 = np.array([0.0, r, math.pi / 2, 0.0])
    v_loc = 0.3
    gam = 1.0 / math.sqrt(1.0 - v_loc**2)
    up = gam * v_loc / r
    u1 = np.array([gam / math.sqrt(f), 0.0, 0.0, up])
    u2 = np.array([gam / math.sqrt(f), 0.0, 0.0, -up])
    geo_L = integrate_geodesic(schw, x0, u1, StopCondition.proper_time(20.0))
    geo_R = integrate_geodesic(schw, x0, u2, StopCondition.proper_time(20.0))
    E_L = build_static_frame(schw, geo_L.points[-1])
    E_R = build_static_frame(schw, geo_R.points[-1])
    b = Direction3.from_angle(math.radians(60.0))
    moved = checked(transport_stack(geo_L, geo_R, embed_stack(E_R, b.d[None])))
    proj = checked(project_stack(E_L @ geo_L.metrics[-1], moved.v)).result(0)
    assert abs(proj.w - 1.0) <= 1e-4
    _passed("criterion 4: projection weight (w in [0,1] x 10^4, round trip, asymptotic flatness)")


# -- criterion 5: LHV soundness ----------------------------------------------


def _schwarzschild_weight_pool(n_scenarios=24) -> list[float]:
    """Transported weights from randomized Schwarzschild scenarios."""
    rng = np.random.default_rng(555)
    schw = MetricSpec("schwarzschild", mass=M)
    pool: list[float] = []
    while len(pool) < 2 * n_scenarios:
        r0 = rng.uniform(8.0, 25.0)
        x0 = np.array([0.0, r0, math.pi / 2, 0.0])
        E0 = build_static_frame(schw, x0)
        tau = rng.uniform(3.0, 10.0)

        def boosted(vel):
            gam = 1.0 / math.sqrt(1.0 - vel @ vel)
            return gam * (E0[0] + vel[0] * E0[1] + vel[1] * E0[2] + vel[2] * E0[3])

        vel = rng.uniform(0.15, 0.55) * _unit(rng)
        try:
            geo_L = integrate_geodesic(schw, x0, boosted(vel), StopCondition.proper_time(tau))
            geo_R = integrate_geodesic(schw, x0, boosted(-vel), StopCondition.proper_time(tau))
            E_L = build_static_frame(schw, geo_L.points[-1])
            E_R = build_static_frame(schw, geo_R.points[-1])
            for d in (random_direction(rng), random_direction(rng)):
                moved = checked(transport_stack(geo_L, geo_R, embed_stack(E_R, d.d[None])))
                pool.append(checked(project_stack(E_L @ geo_L.metrics[-1], moved.v)).w[0])
        except SimulatorError:
            continue
    return pool


def _unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def test_criterion_5_lhv_soundness():
    model = make_sign_model(0)
    z = Direction3(np.array([0.0, 0.0, 1.0]))

    # closed-form correlation -w^2 (1 - 2 theta/pi), oracle = quadrature
    for theta_deg in (30.0, 60.0, 90.0, 120.0):
        theta = math.radians(theta_deg)
        closed = 1.0 - 2.0 * theta / math.pi
        assert abs(sign_correlation_quadrature(theta) - closed) <= 1e-7
        b = Direction3(np.array([math.sin(theta), 0.0, math.cos(theta)]))
        est = correlation_mc(model, z, make_projection(1.0, b), 1_000_000, seed=77)
        assert abs(est.mean - (-closed)) <= 4.0 * est.stderr

    # 1000 random triples with weights drawn from Schwarzschild scenarios
    pool = _schwarzschild_weight_pool()
    rng = np.random.default_rng(556)
    triples = []
    for _ in range(1000):
        w_hi, w_lo = sorted(rng.choice(pool, size=2))[::-1]
        triples.append(
            (
                SettingsTriple(random_direction(rng), random_direction(rng), random_direction(rng)),
                make_projection(w_hi, random_direction(rng)),
                make_projection(w_lo, random_direction(rng)),
            )
        )
    audit = lhv_inequality_audit(model, triples, 100_000, seed=557)
    assert audit.failures == 0
    _passed("criterion 5: LHV soundness (closed form within 4 sigma, 1000 triples clean)")


# -- criterion 6: quantum violation existence ---------------------------------


def test_criterion_6_violation_existence():
    rng = np.random.default_rng(606)
    tested = 0
    grid_checked = 0
    while tested < 40:
        w_b = rng.uniform(0.3, 1.0)
        w_c = rng.uniform(0.05, w_b)
        proj_b = make_projection(w_b, random_direction(rng))
        proj_c = make_projection(w_c, random_direction(rng))
        d = weighted_difference(proj_b, proj_c)
        norm = float(np.linalg.norm(d))
        if norm <= 1e-6:
            continue
        if abs(proj_b.direction.d @ d) >= (1.0 - 1e-6) * norm:
            continue
        tested += 1
        a_star, analytic = find_max_violation(proj_b, proj_c, "analytic")
        assert analytic.margin > 0.0
        if grid_checked < 20:
            _, grid = find_max_violation(proj_b, proj_c, "grid", grid_n=32)
            assert abs(analytic.margin - grid.margin) <= 1e-6
            grid_checked += 1
    _passed("criterion 6: violation existence (margin > 0; analytic = grid within 1e-6)")


# -- criterion 7: determinism --------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    data = flat_baseline_config()
    data["sweep"] = {"parameter": "a_deg", "start": 0.0, "stop": 180.0, "step": 2.0}

    texts = []
    for _ in range(3):
        cfg = config_from_dict(data)
        texts.append(rows_to_csv(run_sweep(cfg)).encode())
    assert texts[0] == texts[1] == texts[2]

    # same through the CLI, byte for byte on disk
    import json as _json

    from grbell.cli import main

    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(_json.dumps(data), encoding="utf-8")
    blobs = []
    for i in range(2):
        out = tmp_path / f"out{i}.csv"
        assert main([
            "--quiet", "sweep", "--config", str(cfg_path), "--out", str(out),
        ]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == texts[0]
    _passed("criterion 7: determinism (identical CSV bytes across runs)")

import dataclasses
import math

import numpy as np
import pytest

from grbell import (
    CommonOriginMismatch,
    InvalidChart,
    MetricSpec,
    NonFiniteVector,
    StepFailure,
    StopCondition,
    build_comoving_frame,
    build_static_frame,
    integrate_geodesic,
    run_horizon_sweep,
)
from grbell.frames import embed_stack, project_stack
from grbell.geodesics import METRIC_SLACK
from grbell.geometry import metric_components
from grbell import transport
from grbell.transport import transport_stack
from conftest import metric_check
from reference import (
    checked,
    csv_cells,
    earlier_transport,
    metric_matrices,
    row_vecmat_invariants,
    start_leg,
    tetrad_components,
)

M = 1.0


def flat_path(flat, v=0.5, tau=5.0):
    x0 = np.array([0.0, 0.0, 0.0, 0.0])
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    u0 = np.array([gamma, gamma * v, 0.0, 0.0])
    return integrate_geodesic(flat, x0, u0, StopCondition.proper_time(tau))


def circular_path(schw, r=10.0, revolutions=1.0, retrograde=False):
    x0 = np.array([0.0, r, math.pi / 2, 0.0])
    omega = math.sqrt(M / r**3)
    ut = 1.0 / math.sqrt(1.0 - 3.0 * M / r)
    sign = -1.0 if retrograde else 1.0
    u0 = np.array([ut, 0.0, 0.0, sign * omega * ut])
    tau_orbit = revolutions * 2.0 * math.pi / (omega * ut)
    return integrate_geodesic(schw, x0, u0, StopCondition.proper_time(tau_orbit))


def radial_infall_path(schw, r0=10.0, r_end=2.1):
    x0 = np.array([0.0, r0, math.pi / 2, 0.0])
    u0 = np.array([1.0 / math.sqrt(1.0 - 2.0 * M / r0), 0.0, 0.0, 0.0])
    return integrate_geodesic(schw, x0, u0, StopCondition.radius(r_end))


def metric_stack(path):
    return np.stack([metric_components(path.spec, x) for x in path.points])


@pytest.mark.parametrize("make_path", [circular_path, radial_infall_path])
def test_path_keeps_the_metric_at_its_points(schw, make_path):
    path = make_path(schw)
    assert np.array_equal(path.metrics, metric_stack(path))


def test_propagator_starts_at_identity(schw):
    path = circular_path(schw, revolutions=0.3)
    assert path.propagators.shape == (len(path.taus), 4, 4)
    assert np.array_equal(path.propagators[0], np.eye(4))


@pytest.mark.parametrize("make_path", [circular_path, radial_infall_path])
def test_propagator_preserves_metric_every_step(schw, make_path):
    path = make_path(schw)
    d = metric_stack(path)
    g = metric_matrices(d)
    P = path.propagators
    residual = np.max(np.abs(np.einsum("nab,nac,ncd->nbd", P, g, P) - g[0]), axis=(1, 2))
    P_abs = np.abs(P)
    conditioning = np.max(np.einsum("nab,nac,ncd->nbd", P_abs, np.abs(g), P_abs))
    bound = METRIC_SLACK * max(1.0, conditioning)
    assert len(residual) == len(path.taus) >= 2  # a closed-form radial leg stores its two ends
    assert np.all(residual <= bound)
    assert metric_check(d, P) == np.max(residual)


def test_perturbed_propagator_fails_metric_check(schw):
    path = circular_path(schw, revolutions=0.3)
    g = metric_stack(path)
    metric_check(g, path.propagators)
    with pytest.raises(StepFailure):
        metric_check(g, path.propagators + 1e-6)


def test_forward_backward_round_trip_is_exact_to_rounding(schw, rng):
    path = circular_path(schw, revolutions=0.4)
    v0 = rng.standard_normal((1, 4))
    there = checked(transport_stack(path, start_leg(path), v0))
    back = checked(transport_stack(start_leg(path), path, there.v))
    assert np.max(np.abs(back.v - v0)) < 1e-12


def test_transport_r_to_l_is_propagator_product(schw, rng):
    geo_L = circular_path(schw, revolutions=0.25)
    geo_R = circular_path(schw, revolutions=0.2, retrograde=True)
    vR = rng.standard_normal(4)
    out = checked(transport_stack(geo_L, geo_R, vR[None]))
    expected = geo_L.propagators[-1] @ np.linalg.solve(geo_R.propagators[-1], vR)
    assert np.array_equal(out.v[0], expected)


def test_flat_transport_is_identity(flat, rng):
    path = flat_path(flat)
    for _ in range(5):
        v0 = rng.standard_normal((1, 4))
        out = checked(transport_stack(path, start_leg(path), v0))
        assert np.max(np.abs(out.v - v0)) < 1e-12


def test_forward_backward_round_trip(schw, rng):
    path = circular_path(schw, revolutions=0.4)
    v0 = rng.standard_normal((1, 4))
    there = checked(transport_stack(path, start_leg(path), v0))
    back = checked(transport_stack(start_leg(path), path, there.v))
    assert np.max(np.abs(back.v - v0)) < 1e-7


def test_norm_and_tangent_product_conserved(schw):
    path = circular_path(schw, revolutions=0.7)
    out = checked(transport_stack(path, start_leg(path), np.array([[0.0, math.sqrt(0.8), 0.0, 0.0]])))
    assert out.norm_drift[0] < 1e-7
    assert out.tangent_dot_drift[0] < 1e-7


def test_pairwise_inner_products_conserved(schw, rng):
    path = circular_path(schw, revolutions=0.5)
    g0, g1 = (metric_components(path.spec, x) for x in path.points[[0, -1]])
    v0 = rng.standard_normal(4)
    w0 = rng.standard_normal(4)
    v1 = checked(transport_stack(path, start_leg(path), v0[None])).v[0]
    w1 = checked(transport_stack(path, start_leg(path), w0[None])).v[0]
    assert v1 * g1 @ w1 == pytest.approx(v0 * g0 @ w0, abs=1e-7)


def test_geodetic_precession_circular_orbit(schw):
    # one full orbit at r = 10M precesses an initially radial spatial vector
    # by 2 pi (1 - sqrt(1 - 3M/r)) in the comoving frame
    r = 10.0
    path = circular_path(schw, r=r, revolutions=1.0)
    f = 1.0 - 2.0 * M / r
    out = checked(transport_stack(path, start_leg(path), np.array([[0.0, math.sqrt(f), 0.0, 0.0]])))

    g_end = path.metrics[-1]
    E = build_comoving_frame(g_end, path.tangents[-1])
    comps = tetrad_components(E, g_end, out.v[0])
    assert abs(comps[0]) < 1e-9  # stays orthogonal to the orbit
    angle = math.atan2(comps[3], comps[1])
    expected = 2.0 * math.pi * (1.0 - math.sqrt(1.0 - 3.0 * M / r))
    assert abs(abs(angle) - expected) < 1e-4


def test_transport_r_to_l_flat_identity(flat, rng):
    x0 = np.array([0.0, 0.0, 0.0, 0.0])
    gamma = 1.0 / math.sqrt(1.0 - 0.25)
    geo_L = integrate_geodesic(
        flat, x0, np.array([gamma, 0.5 * gamma, 0.0, 0.0]), StopCondition.proper_time(5.0)
    )
    geo_R = integrate_geodesic(
        flat, x0, np.array([gamma, -0.5 * gamma, 0.0, 0.0]), StopCondition.proper_time(5.0)
    )
    vR = rng.standard_normal((1, 4))
    out = checked(transport_stack(geo_L, geo_R, vR))
    assert np.max(np.abs(out.v - vR)) < 1e-11


def test_transport_r_to_l_degenerate_right_leg(schw, rng):
    geo_L = circular_path(schw, revolutions=0.4)
    x0 = geo_L.points[0]
    geo_R = integrate_geodesic(
        schw, x0, geo_L.tangents[0], StopCondition.proper_time(0.0)
    )
    vO = rng.standard_normal((1, 4))
    combined = checked(transport_stack(geo_L, geo_R, vO))
    direct = checked(transport_stack(geo_L, start_leg(geo_L), vO))
    assert np.max(np.abs(combined.v - direct.v)) < 1e-12


def test_transport_r_to_l_opposite_orbits_preserves_norm(schw):
    # two opposite equatorial geodesics from r = 10
    geo_L = circular_path(schw, revolutions=0.25)
    geo_R = circular_path(schw, revolutions=0.25, retrograde=True)
    vR = np.array([0.0, math.sqrt(1.0 - 2.0 * M / geo_R.points[-1, 1]), 0.0, 0.0])
    norm_R = vR * metric_components(geo_R.spec, geo_R.points[-1]) @ vR
    vL = checked(transport_stack(geo_L, geo_R, vR[None])).v[0]
    norm_L = vL * metric_components(geo_L.spec, geo_L.points[-1]) @ vL
    assert norm_L == pytest.approx(norm_R, abs=1e-7)


def test_transport_r_to_l_origin_mismatch(schw):
    geo_L = circular_path(schw, revolutions=0.2)
    x1 = np.array([0.0, 12.0, math.pi / 2, 0.0])
    f = 1.0 - 2.0 * M / 12.0
    geo_R = integrate_geodesic(
        schw, x1, np.array([1.0 / math.sqrt(f), 0.0, 0.0, 0.0]), StopCondition.proper_time(1.0)
    )
    with pytest.raises(CommonOriginMismatch):
        transport_stack(geo_L, geo_R, np.array([[0.0, 1.0, 0.0, 0.0]]))


@pytest.mark.parametrize("nan_leg", ["L", "R"])
def test_a_nan_origin_is_a_common_origin_mismatch(schw, nan_leg):
    # a NaN gap compares False with the tolerance, so the check is written
    # to fail it rather than to pass it
    path = circular_path(schw, revolutions=0.2)
    points = path.points.copy()
    points[0, 3] = math.nan
    broken = dataclasses.replace(path, points=points)
    geo_L, geo_R = (broken, path) if nan_leg == "L" else (path, broken)
    with pytest.raises(CommonOriginMismatch, match="differ by nan"):
        transport_stack(geo_L, geo_R, np.array([[0.0, 1.0, 0.0, 0.0]]))


def test_transport_r_to_l_refuses_paths_in_different_metrics(schw):
    # at M = 2 from r = 20 the path is stored from r = 10 in units of M, the
    # same stored origin as geo_L's at M = 1, so only the metrics tell them apart
    geo_L = circular_path(schw, revolutions=0.2)
    x0 = np.array([0.0, 20.0, math.pi / 2, 0.0])
    geo_R = integrate_geodesic(
        MetricSpec("schwarzschild", 2.0), x0, np.array([1.0 / math.sqrt(0.8), 0.0, 0.0, 0.0]),
        StopCondition.proper_time(1.0),
    )
    assert np.array_equal(geo_L.points[0], geo_R.points[0])
    with pytest.raises(InvalidChart, match="different metrics"):
        transport_stack(geo_L, geo_R, np.array([[0.0, 1.0, 0.0, 0.0]]))


def opposite_flat_legs(flat):
    x0 = np.array([0.0, 0.0, 0.0, 0.0])
    gamma = 1.0 / math.sqrt(1.0 - 0.25)
    return [
        integrate_geodesic(
            flat, x0, np.array([gamma, s * 0.5 * gamma, 0.0, 0.0]), StopCondition.proper_time(5.0)
        )
        for s in (1.0, -1.0)
    ]


@pytest.mark.parametrize("width", [1, 2, 7, 64])
def test_transport_stack_rows_equal_one_row_transports(schw, rng, width):
    # a row's result does not depend on how many rows travel with it: each
    # row of a width-k stack equals the same row carried as a stack of one
    geo_L = circular_path(schw, revolutions=0.25)
    geo_R = circular_path(schw, revolutions=0.2, retrograde=True)
    V = rng.standard_normal((width, 4))
    moved = transport_stack(geo_L, geo_R, V)
    assert moved.errors == {}
    for j in range(width):
        one = transport_stack(geo_L, geo_R, V[j:j + 1])
        assert one.errors == {}
        assert np.array_equal(moved.v[j], one.v[0])
        assert moved.norm_drift[j] == one.norm_drift[0]
        assert moved.tangent_dot_drift[j] == one.tangent_dot_drift[0]


def test_a_row_past_its_drift_bound_fails_alone(flat):
    geo_L, geo_R = opposite_flat_legs(flat)
    # P_R leaks 1e-3 of a vector's z component into y: only rows with z != 0 drift
    P = geo_R.propagators.copy()
    P[-1, 2, 3] = 1e-3
    bent = dataclasses.replace(geo_R, propagators=P)
    V = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.6, 0.8, 0.0], [0.0, 0.6, 0.0, 0.8], [0.0, 0.0, 1.0, 0.0]])
    moved = transport_stack(geo_L, bent, V)
    assert list(moved.errors) == [2]
    assert isinstance(moved.errors[2], StepFailure)
    assert moved.norm_drift[2] > 1e-8  # the bound on this unit, untilted vector
    with pytest.raises(StepFailure):
        checked(transport_stack(geo_L, bent, V[2:3]))
    for j in (0, 1, 3):
        one = checked(transport_stack(geo_L, bent, V[j:j + 1]))
        assert np.array_equal(moved.v[j], one.v[0])
        assert moved.norm_drift[j] == one.norm_drift[0] == 0.0


def test_a_non_finite_row_fails_alone(flat):
    geo_L, geo_R = opposite_flat_legs(flat)
    V = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, math.inf, 0.0, 0.0], [0.0, 1e300, 1e300, 0.0]])
    moved = transport_stack(geo_L, geo_R, V)
    assert sorted(moved.errors) == [1, 2]
    assert isinstance(moved.errors[1], NonFiniteVector)
    # finite, but its norm overflows: the drift reads NaN and fails its check
    assert isinstance(moved.errors[2], StepFailure)
    assert np.array_equal(moved.v[0], V[0])
    with pytest.raises(StepFailure, match="nan"):
        checked(transport_stack(geo_L, geo_R, V[2:3]))


def test_diagonal_invariants_give_the_row_vecmat_results_bit_for_bit(schw, rng, monkeypatch):
    # v g as v times g's diagonal against the full vector-matrix product, on
    # finite rows, rows whose norm overflows and non-finite rows
    legs = [
        (circular_path(schw, revolutions=0.25), circular_path(schw, revolutions=0.2, retrograde=True)),
        (circular_path(schw, revolutions=0.3), radial_infall_path(schw, r_end=2.5)),
    ]
    V = np.concatenate([
        rng.standard_normal((6, 4)),
        rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(150, 300, (4, 4)),
        [[0.0, 1e300, 1e300, 0.0], [1e200, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
        [[0.0, math.inf, 0.0, 0.0], [-math.inf, 1.0, 0.0, 0.0], [math.nan, 0.0, 1.0, 0.0]],
        [[1.0, 0.0, math.inf, -math.inf], [math.nan] * 4],
    ])
    for geo_L, geo_R in legs:
        diagonal = transport_stack(geo_L, geo_R, V)
        with monkeypatch.context() as m:
            m.setattr(transport, "_invariants", row_vecmat_invariants)
            full = transport_stack(geo_L, geo_R, V)
        assert np.array_equal(diagonal.v, full.v, equal_nan=True)
        assert np.array_equal(diagonal.norm_drift, full.norm_drift, equal_nan=True)
        assert np.array_equal(diagonal.tangent_dot_drift, full.tangent_dot_drift, equal_nan=True)
        assert {j: type(e) for j, e in diagonal.errors.items()} == {
            j: type(e) for j, e in full.errors.items()
        }
        assert len(diagonal.errors) >= 7


def test_carry_equals_the_earlier_form(schw, flat, rng):
    # all ends' invariants as one stacked product give the bits, the drifts
    # and the errors of the earlier one-path transport backward along R,
    # then forward along L: along one path each way (the other leg being
    # the identity leg at its start), on timelike, null, radial, zero-length
    # and flat paths, and between two legs from one event, with either
    # leg's propagator perturbed
    x0 = np.array([0.0, 8.0, 1.2, 0.4])
    f = 0.75
    static_legs = np.array([1.0 / math.sqrt(f), math.sqrt(f), 1.0 / 8.0, 1.0 / (8.0 * math.sin(1.2))])
    paths = [
        circular_path(schw, revolutions=0.3),
        radial_infall_path(schw, r_end=2.5),
        integrate_geodesic(schw, x0, static_legs * [1.0, 0.6, 0.0, 0.8], StopCondition.proper_time(4.0)),
        integrate_geodesic(schw, x0, static_legs * [1.0, -1.0, 0.0, 0.0], StopCondition.proper_time(2.0)),
        integrate_geodesic(schw, x0, static_legs * [1.0, 0.0, 0.0, 0.0], StopCondition.proper_time(0.0)),
        flat_path(flat),
    ]
    assert [p.kind for p in paths] == ["timelike", "timelike", "null", "null", "timelike", "timelike"]
    V = np.concatenate([
        rng.standard_normal((6, 4)),
        rng.standard_normal((3, 4)) * 10.0 ** rng.uniform(150, 300, (3, 4)),
        [[0.0, 1e300, 1e300, 0.0], [0.0, 0.0, 0.0, 0.0]],
        [[0.0, math.inf, 0.0, 0.0], [math.nan, 0.0, 1.0, 0.0], [math.nan] * 4],
    ])
    # the first two paths leave one event, and so do the next three
    pairs = [(p, start_leg(p)) for p in paths] + [(paths[0], paths[1]), (paths[2], paths[3]), (paths[3], paths[4])]
    pairs += [(R, L) for L, R in pairs]
    failed = 0
    for geo_L, geo_R in pairs:
        bent_L, bent_R = (dataclasses.replace(p, propagators=p.propagators * (1.0 + 1e-6)) for p in (geo_L, geo_R))
        for L, R in ((geo_L, geo_R), (bent_L, geo_R), (geo_L, bent_R)):
            with np.errstate(all="ignore"):
                found = transport_stack(L, R, V)
                v, norm_drift, dot_drift, errors = earlier_transport(L, R, V)
            assert np.array_equal(found.v, v, equal_nan=True)
            assert np.array_equal(found.norm_drift, norm_drift, equal_nan=True)
            assert np.array_equal(found.tangent_dot_drift, dot_drift, equal_nan=True)
            assert {j: (type(e), str(e)) for j, e in found.errors.items()} == {
                j: (type(e), str(e)) for j, e in errors.items()
            }
            failed += len(errors)
    assert failed >= 300


def test_the_norm_check_does_not_loosen_with_the_size_of_the_vector(flat):
    geo_L, geo_R = opposite_flat_legs(flat)
    P = geo_R.propagators.copy()
    P[-1, 2, 3] = 1e-3
    bent = dataclasses.replace(geo_R, propagators=P)
    # the same leak of 1e-3 of z into y at sizes 1 and 1e150: both drift by 6.4e-7 of their norm
    V = np.array([[0.0, 0.6, 0.0, 0.8], [0.0, 0.6e150, 0.0, 0.8e150], [0.0, 1e150, 0.0, 0.0]])
    moved = transport_stack(geo_L, bent, V)
    assert sorted(moved.errors) == [0, 1]
    assert moved.norm_drift[1] == pytest.approx(moved.norm_drift[0], rel=1e-9)
    assert isinstance(moved.errors[1], StepFailure)
    assert moved.norm_drift[2] == 0.0


# A radial infall from rest at r0 = 10, read out in the static frame at r:
# the transported static frame is boosted by gamma, gamma^2 = f(r0) / f(r)
# (MTW sec. 31.4), so a setting with radial component c and transverse
# part s (c^2 + s^2 = 1) arrives at r0 with weight
# w^2 = (gamma^2 c^2 + s^2) / ((2 gamma^2 - 1) c^2 + s^2).
INFALL_R0 = 10.0
INFALL_RADII = (2.01, 2.002, 2.00001, 2.000003)  # gamma 12.7 to 730


def infall_start():
    """The emission event at r0 and the tangent of a particle at rest there."""
    origin = np.array([0.0, INFALL_R0, math.pi / 2, 0.0])
    return origin, np.array([1.0 / math.sqrt(1.0 - 2.0 * M / INFALL_R0), 0.0, 0.0, 0.0])


def infall_weight(r, c):
    gamma2 = (1.0 - 2.0 * M / INFALL_R0) / (1.0 - 2.0 * M / r)
    c2 = np.square(c)
    return np.sqrt((gamma2 * c2 + 1.0 - c2) / ((2.0 * gamma2 - 1.0) * c2 + 1.0 - c2))


def test_radial_infall_matches_the_closed_form_weight(schw):
    # 2,000 settings embedded in the static frame at each readout radius
    # and carried back to r0, where the worst relative error of w measured
    # 1.6e-10 at tol 1e-10; the bound keeps a factor 2.5 over it
    rng = np.random.default_rng(2005)
    D = rng.standard_normal((2000, 3))
    D /= np.linalg.norm(D, axis=1)[:, None]
    origin, rest = infall_start()
    stay = integrate_geodesic(schw, origin, rest, StopCondition.proper_time(0.0))
    projector = build_static_frame(metric_components(schw, stay.points[-1])) * stay.metrics[-1]
    for r in INFALL_RADII:
        fall = integrate_geodesic(schw, origin, rest, StopCondition.radius(r))
        V = embed_stack(build_static_frame(metric_components(schw, fall.points[-1])), D)
        moved = transport_stack(stay, fall, V)
        assert moved.errors == {}, r
        w = project_stack(projector, moved.v).w
        expected = infall_weight(r, D[:, 0])
        assert np.max(np.abs(w - expected) / expected) <= 4e-10, r


@pytest.mark.parametrize("r_end", [2.01, 2.000003])
def test_horizon_study_rows_match_the_closed_form_weight(r_end):
    # the study's settings 60 and 120 degrees from radial give w_b = w_c;
    # the worst relative error measured 2.6e-11 at the default tol
    radii = np.linspace(INFALL_R0, r_end, 40)
    rows = [csv_cells(line) for line in run_horizon_sweep(MetricSpec("schwarzschild", mass=M), radii)]
    assert [row["status"] for row in rows] == ["ok"] * 40
    expected = infall_weight(radii, 0.5)
    for key in ("w_b", "w_c"):
        w = np.array([float(row[key]) for row in rows])
        assert np.max(np.abs(w - expected) / expected) <= 1e-10


def near_radial_plunge():
    """The emission event at r0 and a tangent at rest there but for
    u^phi = 1e-3 (L = 0.1 M), a general leg that the stepper integrates."""
    origin, rest = infall_start()
    u_phi = 1e-3
    u_t = math.sqrt((1.0 + (INFALL_R0 * u_phi) ** 2) / (1.0 - 2.0 * M / INFALL_R0))
    return origin, np.array([u_t, 0.0, 0.0, u_phi])


def test_a_schwarzschild_path_keeps_the_frame_tangent(schw):
    # the stored u is the frame's first leg: unit to a few ulp of the terms
    # that cancel in u.u, where the integrated u of a near-radial plunge at
    # tol 1e-9 drifts by 3.1e-4, which the path's drift still reports
    origin, plunge = near_radial_plunge()
    path = integrate_geodesic(schw, origin, plunge, StopCondition.radius(2.000003), 1e-9)
    g, u = path.metrics, path.tangents
    uu = np.einsum("na,na,na->n", g, u, u)
    conditioning = np.einsum("na,na,na->n", np.abs(g), np.abs(u), np.abs(u))
    assert np.all(np.abs(uu + 1.0) <= 4.0 * np.finfo(float).eps * conditioning)
    assert path.drift["norm"] > 1e-4
    # P carries the stored tangent at the start into the one at the end
    assert np.allclose(path.propagators[-1] @ u[0], u[-1], rtol=1e-12, atol=1e-12)

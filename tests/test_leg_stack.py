"""A run's two legs are stepped first and then checked as one stack.

The stack holds one metric stack, one frame, one inverse of the start
frames and one pass of each check over both legs' rows, each reduced per
leg. These tests pin each leg's stacked outcome to its outcome alone,
field by field and bit for bit, whatever the other leg meets, and pin the
stage a failing run reports: leg 1's failure before leg 2's.
"""
import dataclasses
import glob
import json
import math
import os
import warnings

import numpy as np
import pytest

from grbell import PipelineError, SimulatorError, StepFailure, geodesics
from grbell.geodesics import run_legs
from grbell.scenario import config_from_dict, run_scenario, run_sweep
from conftest import recording_runs
from reference import earlier_end_phi

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def static_tetrad_tangent(r0, theta0, speed, direction):
    """u at (r0, theta0) of unit mass moving at speed along the static-tetrad
    direction (r, theta, phi); speed 1 gives the null tangent with u^t = 1 / sqrt(f)."""
    f = 1.0 - 2.0 / r0
    gamma = 1.0 if speed == 1.0 else 1.0 / math.sqrt(1.0 - speed * speed)
    n_r, n_th, n_ph = direction
    return [
        gamma / math.sqrt(f),
        gamma * speed * n_r * math.sqrt(f),
        gamma * speed * n_th / r0,
        gamma * speed * n_ph / (r0 * math.sin(theta0)),
    ]


def unit_direction(rng, outward=False):
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    if outward:
        n[0] = abs(n[0])
    return n.tolist()


def batch_config(seed, k):
    """Config k of a seeded set in the four shapes of the benchmark's
    scenario batch, chosen by k % 4: 0 and 2, opposite boosts read in static
    frames; 1, the same in comoving frames; 3, particle 1 boosted and
    particle 2 falling radially from rest to a radius in [2.05, r0 - 1]."""
    rng = np.random.default_rng([seed, k])
    r0, theta0 = float(rng.uniform(8.0, 25.0)), math.pi / 2.0
    speed, direction = float(rng.uniform(0.15, 0.55)), unit_direction(rng)
    u1 = static_tetrad_tangent(r0, theta0, speed, direction)
    u2 = static_tetrad_tangent(r0, theta0, speed, [-c for c in direction])
    # both legs stay outside 0.75 r0 and near the equator for this long
    tau_max = min(10.0, 0.25 * r0 / (2.0 * speed + 0.6), (0.75 * r0) ** 2 / (r0 * speed / math.sqrt(1 - speed**2)))
    cfg = {
        "metric": {"kind": "schwarzschild", "mass": 1.0},
        "origin": [0.0, r0, theta0, 0.0],
        "u1": u1,
        "u2": u2,
        "stop1": {"kind": "proper_time", "value": float(tau_max * rng.uniform(0.5, 1.0))},
        "stop2": {"kind": "proper_time", "value": float(tau_max * rng.uniform(0.5, 1.0))},
        "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
        "frame_choice": "comoving" if k % 4 == 1 else "static",
    }
    if k % 4 == 3:
        cfg["u2"] = static_tetrad_tangent(r0, theta0, 0.0, [1.0, 0.0, 0.0])
        cfg["stop2"] = {"kind": "radius", "value": float(2.05 + (r0 - 3.05) * rng.uniform())}
    return cfg


def mixed_legs(rng, r0, theta0):
    """One leg of each kind a stack may mix, as (label, tangent, stop)."""
    tau, scale = rng.uniform(2.0, 8.0, 2).tolist()
    return [
        ("stepped timelike", static_tetrad_tangent(r0, theta0, float(rng.uniform(0.1, 0.6)), unit_direction(rng)),
         {"kind": "proper_time", "value": tau}),
        ("stepped null", static_tetrad_tangent(r0, theta0, 1.0, unit_direction(rng, outward=True)),
         {"kind": "proper_time", "value": tau}),
        ("radial timelike", static_tetrad_tangent(r0, theta0, float(rng.uniform(0.0, 0.5)), [-1.0, 0.0, 0.0]),
         {"kind": "radius", "value": float(rng.uniform(2.5, r0 - 1.0))}),
        # a null tangent's scale is free
        ("radial null", [c * scale / 4.0 for c in static_tetrad_tangent(r0, theta0, 1.0, [1.0, 0.0, 0.0])],
         {"kind": "radius", "value": float(r0 + rng.uniform(1.0, 20.0))}),
        ("zero-length timelike", static_tetrad_tangent(r0, theta0, float(rng.uniform(0.0, 0.6)), unit_direction(rng)),
         {"kind": "proper_time", "value": 0.0}),
        ("zero-length null", static_tetrad_tangent(r0, theta0, 1.0, unit_direction(rng)),
         {"kind": "radius", "value": r0}),
    ]


def mixed_configs(seed):
    """Every ordered pair of mixed_legs' kinds, each from its own seeded event."""
    configs = []
    for i in range(6):
        for j in range(6):
            rng = np.random.default_rng([seed, i, j])
            r0, theta0 = float(rng.uniform(8.0, 25.0)), float(rng.uniform(1.0, 2.1))
            (label1, u1, stop1), (label2, u2, stop2) = mixed_legs(rng, r0, theta0)[i], mixed_legs(rng, r0, theta0)[j]
            configs.append(((label1, label2), {
                "metric": {"kind": "schwarzschild", "mass": 1.0},
                "origin": [0.0, r0, theta0, 0.0],
                "u1": u1, "u2": u2, "stop1": stop1, "stop2": stop2,
                "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
            }))
    return configs


def fields(path):
    """Every field of a path, with each array as its shape and bytes."""
    arrays = (path.taus, path.points, path.tangents, path.propagators, path.metrics)
    return (
        path.spec, path.kind, path.tol, *[(a.dtype, a.shape, a.tobytes()) for a in arrays],
        repr(path.drift), path.nfev, path.accepted, path.rejected,
    )


def described(path):
    """A path's fields, or an error's type and message."""
    if isinstance(path, SimulatorError):
        return type(path), str(path)
    return fields(path)


def stacked_outcomes(legs, tol):
    return [described(path) for path in run_legs(legs, tol)]


def alone_outcomes(legs, tol):
    return [described(run_legs([leg], tol)[0]) for leg in legs]


def assert_stack_equals_legs_alone(data):
    """The stacked outcome of a config's legs is each leg's alone; returns
    how many legs made a path."""
    cfg = config_from_dict(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stacked = stacked_outcomes(cfg.legs, cfg.tol)
        assert stacked == alone_outcomes(cfg.legs, cfg.tol)
    return sum(not isinstance(outcome[0], type) for outcome in stacked)


def test_stacked_paths_equal_the_one_leg_paths_on_seeded_batch_configs():
    made = sum(assert_stack_equals_legs_alone(batch_config(7, k)) for k in range(400))
    assert made == 800


def test_stacked_paths_equal_the_one_leg_paths_on_mixed_pairs():
    # timelike with null, radial with stepped, zero-length with stepped,
    # in both orders and at events off the equator
    made = set()
    for labels, data in [*mixed_configs(3), *mixed_configs(11)]:
        if assert_stack_equals_legs_alone(data) == 2:
            made.add(labels)
    assert len(made) == 36


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIGS, "*.json"))), ids=os.path.basename)
def test_stacked_paths_equal_the_one_leg_paths_on_every_bundled_config(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "synthetic" not in data:
        assert assert_stack_equals_legs_alone(data) == 2


def stage_config(**changes):
    """A seeded config of two boosted legs, whose drifts are not 0, with changes."""
    data = batch_config(7, 0)
    data.update(changes)
    return data


def off_the_floats(n, data):
    """Leg n of data as a leg whose metric stack fails: a radial leg thrown
    outward past the largest radius whose r^2 is a float, where the stack
    refuses its end."""
    u = static_tetrad_tangent(data["origin"][1], math.pi / 2.0, 0.6, [1.0, 0.0, 0.0])
    return {f"u{n}": u, f"stop{n}": {"kind": "proper_time", "value": 1e160}}


# the stop of a leg that fails before it is stepped, and leg 2 off the floats
BEFORE_THE_START = {"kind": "coordinate_time", "value": -1.0}
OFF_THE_FLOATS = off_the_floats(2, stage_config())


@pytest.mark.parametrize("failure", ["unstepped", "off-chart"])
@pytest.mark.parametrize("k", range(4))
def test_a_leg_2_gets_the_path_it_has_alone_when_leg_1_fails(k, failure):
    # leg 1 fails before it is stepped, or in the metric stack; leg 2 is
    # still stepped and checked, in each shape of the seeded batch
    data = batch_config(7, k)
    data.update({"stop1": BEFORE_THE_START} if failure == "unstepped" else off_the_floats(1, data))
    cfg = config_from_dict(data)
    geo1, geo2 = run_legs(cfg.legs, cfg.tol)
    assert isinstance(geo1, SimulatorError) and not isinstance(geo2, SimulatorError)
    assert assert_stack_equals_legs_alone(data) == 1


@pytest.mark.parametrize("k", range(4))
def test_legs_the_metric_stack_refuses_fail_alone_among_four(k):
    # four legs from one event, the 2nd and 4th off the floats: each leg's
    # outcome is its one-leg run's, whichever legs the stack refuses
    data = batch_config(7, k)
    off = off_the_floats(2, data)
    legs = [
        *config_from_dict({**data, **off}).legs,
        *config_from_dict({**data, "u1": data["u2"], "stop1": data["stop2"], **off}).legs,
    ]
    tol = config_from_dict(data).tol
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stacked = stacked_outcomes(legs, tol)
        assert stacked == alone_outcomes(legs, tol)
    assert [isinstance(outcome[0], type) for outcome in stacked] == [False, True, False, True]


def stage_and_status(data):
    """The stage run_scenario reports, and the status of the same config as a one-row sweep."""
    with pytest.raises(PipelineError) as err:
        run_scenario(config_from_dict(data))
    data = {**data, "sweep": {"parameter": "b_deg", "start": 60.0, "stop": 60.0, "step": 1.0}}
    (row,) = run_sweep(config_from_dict(data))
    return err.value, row.split(",")[1]


def fail_every_check(monkeypatch, check):
    if check == "metric":
        monkeypatch.setattr(geodesics, "METRIC_SLACK", 0.0)
    else:
        monkeypatch.setattr(geodesics, "_drift_bound", lambda tol: 0.0)


@pytest.mark.parametrize("failure", ["unstepped", "metric", "drift"])
def test_a_run_whose_legs_both_fail_reports_geodesic_1(monkeypatch, failure):
    # both fail before they are stepped, or both fail one of their checks
    if failure == "unstepped":
        data = stage_config(stop1=BEFORE_THE_START, stop2=BEFORE_THE_START)
    else:
        data = stage_config()
        fail_every_check(monkeypatch, failure)
    error, status = stage_and_status(data)
    assert error.stage == "geodesic_1" and isinstance(error.cause, StepFailure)
    assert status == "error:geodesic_1"


@pytest.mark.parametrize("check", ["metric", "drift"])
@pytest.mark.parametrize("leg2", [{"stop2": BEFORE_THE_START}, OFF_THE_FLOATS], ids=["unstepped", "off-chart"])
def test_a_failing_check_of_leg_1_comes_before_a_failure_of_leg_2(monkeypatch, check, leg2):
    # leg 2 alone fails, before its checks or in its metric stack; where leg
    # 1 fails its own check as well, that comes first, as it would with leg
    # 1 checked before leg 2 is stepped
    data = stage_config(**leg2)
    error, status = stage_and_status(data)
    assert error.stage == "geodesic_2" and status == "error:geodesic_2"
    fail_every_check(monkeypatch, check)
    error, status = stage_and_status(data)
    assert error.stage == "geodesic_1" and isinstance(error.cause, StepFailure)
    assert ("metric residual" if check == "metric" else "conservation drift") in str(error.cause)
    assert status == "error:geodesic_1"


def test_a_leg_2_that_fails_its_check_after_leg_1_passes_reports_geodesic_2(monkeypatch):
    # a zero-length leg 1 has P = I and no drift, so it passes a check with no slack
    data = stage_config(stop1={"kind": "proper_time", "value": 0.0})
    fail_every_check(monkeypatch, "metric")
    error, status = stage_and_status(data)
    assert error.stage == "geodesic_2" and isinstance(error.cause, StepFailure)
    assert "metric residual" in str(error.cause)
    assert status == "error:geodesic_2"


def test_a_nan_conservation_drift_fails_the_leg_check(monkeypatch):
    # a NaN compares False with its bound, so the check is written to fail
    # it rather than to pass it
    earlier = geodesics._conservation_drift
    monkeypatch.setattr(
        geodesics, "_conservation_drift",
        lambda *args: [{**drift, "norm": math.nan} for drift in earlier(*args)],
    )
    cfg = config_from_dict(stage_config())
    outcomes = run_legs(cfg.legs, cfg.tol)
    assert [type(outcome) for outcome in outcomes] == [StepFailure, StepFailure]
    assert all("conservation drift {'norm': nan" in str(outcome) for outcome in outcomes)


def near_polar_config():
    """Leg 1 of the polar config with its theta component at -0.99999999:
    from theta = 0.05 it passes within 7e-6 rad of the pole."""
    r0, theta0 = 10.0, 0.05
    u1 = static_tetrad_tangent(r0, theta0, 0.3, [0.0, -0.99999999, math.sqrt(1.0 - 0.99999999**2)])
    return {
        "metric": {"kind": "schwarzschild", "mass": 1.0},
        "origin": [0.0, r0, theta0, 0.3],
        "u1": u1, "u2": static_tetrad_tangent(r0, theta0, 0.0, [1.0, 0.0, 0.0]),
        "stop1": {"kind": "proper_time", "value": 40.0}, "stop2": {"kind": "proper_time", "value": 1.0},
        "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
    }


def bundled_geometries():
    """Every bundled config with legs, sweeps included."""
    documents = []
    for path in sorted(glob.glob(os.path.join(CONFIGS, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if "synthetic" not in data:
            documents.append(data)
    return documents


def test_the_end_phi_equals_the_row_by_row_unwrap(monkeypatch):
    # with only its end converted, a stepped leg keeps phi continuous from
    # chi's turn alone; that gives the bits of the earlier unwrap over every
    # state the run checked, on every stepped leg of the seeded batch, of
    # the bundled configs and of a leg that passes the pole
    runs = recording_runs(monkeypatch)
    stepped = {}
    sets = {"batch": [batch_config(7, k) for k in range(400)], "bundled": bundled_geometries(),
            "near-polar": [near_polar_config()]}
    for name, documents in sets.items():
        stepped[name] = 0
        for data in documents:
            cfg = config_from_dict(data)
            for leg in cfg.legs:
                runs.clear()
                (path,) = run_legs([leg], cfg.tol)
                if not runs:
                    continue
                (run,) = runs
                expected = earlier_end_phi(leg.x0.tolist(), leg.u0.tolist(), run.states[1:])
                assert float(path.points[-1, 3]).hex() == float(expected).hex(), (name, data)
                stepped[name] += 1
    assert stepped == {"batch": 700, "bundled": 11, "near-polar": 1}


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_leg_in_a_plane_through_the_poles_turns_phi_by_pi_at_each_pole(zero):
    # u^phi0 = 0 with u^theta0 != 0: the plane holds the polar axis, and phi
    # jumps by pi at each pole the leg passes, the way of u^phi0's zero
    data = near_polar_config()
    data["u1"] = static_tetrad_tangent(10.0, 0.05, 0.3, [0.0, -1.0, 0.0])
    data["u1"][3] = zero
    cfg = config_from_dict(data)
    for tau, poles in ((1.0, 0), (10.0, 1)):
        leg = dataclasses.replace(cfg.legs[0], stop=geodesics.StopCondition.proper_time(tau))
        (path,) = run_legs([leg], cfg.tol)
        assert path.points[-1, 3] == 0.3 + math.copysign(poles * math.pi, zero)
        assert path.tangents[-1, 3] == 0.0


def test_every_leg_is_stored_as_its_two_ends():
    # flat, radial, stepped and zero-length legs, of both kinds: two rows of
    # each array, a zero-length leg its start twice at tau 0 and 0 with P = I
    flat = next(data for data in bundled_geometries() if data["metric"]["kind"] == "minkowski")
    seen = set()
    for labels, data in [*mixed_configs(3), (("flat", "flat"), flat)]:
        cfg = config_from_dict(data)
        for label, path in zip(labels, run_legs(cfg.legs, cfg.tol)):
            assert path.taus.shape == (2,) and path.taus[0] == 0.0
            assert path.points.shape == path.tangents.shape == path.metrics.shape == (2, 4)
            assert path.propagators.shape == (2, 4, 4)
            assert np.array_equal(path.propagators[0], np.eye(4))
            if label.startswith("zero-length"):
                assert list(path.taus) == [0.0, 0.0]
                assert np.array_equal(path.points[0], path.points[1])
                assert np.array_equal(path.propagators[1], np.eye(4))
            seen.add(label)
    assert len(seen) == 7

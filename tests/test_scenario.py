import collections
import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grbell import (
    DegenerateD,
    Direction3,
    HorizonApproach,
    MetricSpec,
    ParseError,
    PipelineError,
    StepFailure,
    StopCondition,
    ValidationError,
    config_from_dict,
    find_max_violation,
    flat_baseline_config,
    integrate_geodesic,
    load_config,
    make_projection,
    rows_to_csv,
    run_horizon_sweep,
    run_scenario,
    run_sweep,
    schwarzschild_demo_config,
)
from grbell import correlations, geodesics, scenario
from grbell.cli import EXIT_CONFIG, EXIT_OK, main
from grbell.correlations import ARM_ORDER_ULP, bell_stack
from grbell.frames import ProjectionStack
from grbell.geodesics import emission_event, leg_start
from grbell.scenario import CSV_HEADER, SweepSpec, csv_row, error_row
from conftest import recording_runs
from reference import csv_cells, earlier_report_to_dict
from test_leg_stack import batch_config

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_load_minimal_flat_config(tmp_path):
    cfg = load_config(write_config(tmp_path, flat_baseline_config()))
    assert [leg.spec.kind for leg in cfg.legs] == ["minkowski", "minkowski"]
    assert not cfg.is_synthetic
    # defaults filled and echoed
    assert cfg.echo["mc"] == {"n": 100_000, "seed": 0}
    assert cfg.echo["tol"] == 1e-10
    assert cfg.echo["frame_choice"] == "static"


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"metric": }', encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        load_config(path)


def test_origin_inside_guard_rejected():
    data = flat_baseline_config()
    data["metric"] = {"kind": "schwarzschild", "mass": 1.0}
    data["origin"] = [0.0, 1.5, math.pi / 2, 0.0]
    with pytest.raises(ValidationError, match="origin"):
        config_from_dict(data)


def test_unknown_field_rejected():
    data = flat_baseline_config()
    data["typo_field"] = 1
    with pytest.raises(ValidationError, match="typo_field"):
        config_from_dict(data)
    data = flat_baseline_config()
    data["metric"]["spin"] = 0.5
    with pytest.raises(ValidationError, match="metric.spin"):
        config_from_dict(data)


def test_identical_tangents_rejected():
    data = flat_baseline_config()
    data["u2"] = data["u1"]
    with pytest.raises(ValidationError, match="u2"):
        config_from_dict(data)


def _demo_at(mass):
    """The Schwarzschild demo at the given mass: r and the stops times M, u^phi over it."""
    data = schwarzschild_demo_config()
    data["metric"]["mass"] = mass
    data["origin"][1] *= mass
    for key in ("u1", "u2"):
        data[key][3] /= mass
    for key in ("stop1", "stop2"):
        data[key]["value"] *= mass
    return data


@pytest.mark.parametrize("mass", [1e30, 2.0**40])
def test_distinct_tangents_are_told_apart_at_a_large_mass(mass):
    # u^phi = +-0.038 / M differ by less than 1e-12 in coordinates, but by
    # 0.38 in the static tetrad, which does not depend on M
    report = run_scenario(config_from_dict(_demo_at(mass)))
    assert report.status == "ok"
    if mass == 2.0**40:  # an exact scaling reads the unit-mass row bit for bit
        unit = run_scenario(config_from_dict(schwarzschild_demo_config()))
        assert csv_row(report, "run") == csv_row(unit, "run")


@pytest.mark.parametrize("mass", [1.0, 1e30, 1e-30])
def test_tangents_within_1e_13_in_the_static_tetrad_are_one_geodesic(mass):
    data = _demo_at(mass)
    data["u2"] = list(data["u1"])
    with pytest.raises(ValidationError, match="u2: u1 and u2 must define distinct geodesics"):
        config_from_dict(data)
    # 1e-13 in the tetrad's phi leg is 1e-13 / r in u^phi, at every mass
    data["u2"][3] += 1e-13 / data["origin"][1]
    assert data["u2"][3] != data["u1"][3]
    with pytest.raises(ValidationError, match="u2: u1 and u2 must define distinct geodesics"):
        config_from_dict(data)


def test_bad_value_types_are_validation_errors():
    data = flat_baseline_config()
    data["metric"] = {"kind": "schwarzschild", "mass": "heavy"}
    with pytest.raises(ValidationError):
        config_from_dict(data)
    data = flat_baseline_config()
    data["settings"] = {"a": [0, 0, 0], "b": [0, 1, 0], "c": [1, 0, 0]}
    with pytest.raises(ValidationError):
        config_from_dict(data)


def test_tangent_normalization_checked():
    data = flat_baseline_config()
    data["u1"] = [2.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValidationError, match="u1"):
        config_from_dict(data)


def test_settings_forms():
    data = flat_baseline_config()
    data["settings"] = {"a": [1, 0, 0], "b": [0.5, math.sqrt(3) / 2, 0], "c": [-0.5, math.sqrt(3) / 2, 0]}
    cfg = config_from_dict(data)
    assert cfg.settings[0][0] == 1.0
    data["settings"] = {"a_deg": 0.0, "b": [0, 1, 0]}
    with pytest.raises(ValidationError, match="settings"):
        config_from_dict(data)


def test_flat_baseline_report():
    report = run_scenario(config_from_dict(flat_baseline_config()))
    ineq = report.inequality
    assert abs(ineq.w_b - 1.0) <= 1e-9 and abs(ineq.w_c - 1.0) <= 1e-9
    assert ineq.margin == pytest.approx(0.5, abs=1e-9)
    assert ineq.violated
    assert report.angles.cos_phi[0] == pytest.approx(1.0, abs=1e-9)
    assert not report.angles.condition_holds[0]
    assert report.best_margin == pytest.approx(0.5, abs=1e-9)


def test_equal_settings_not_violated():
    data = flat_baseline_config()
    data["settings"] = {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 60.0}
    report = run_scenario(config_from_dict(data))
    assert report.inequality.margin <= 0.0
    assert not report.inequality.violated


def test_schwarzschild_demo_completes():
    report = run_scenario(config_from_dict(schwarzschild_demo_config()))
    assert 0.0 <= report.inequality.w_b <= 1.0
    assert 0.0 <= report.inequality.w_c <= 1.0
    assert report.geodesic_1.drift["norm"] < 1e-8
    assert report.lhv is not None and report.lhv.passed


def test_comoving_frame_choice_runs():
    data = schwarzschild_demo_config()
    data["frame_choice"] = "comoving"
    data["lhv_audit"] = False
    report = run_scenario(config_from_dict(data))
    assert 0.0 <= report.inequality.w_b <= 1.0


def test_synthetic_mode():
    data = {
        "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
        "synthetic": {
            "w_b": 0.9,
            "b": [0.5, math.sqrt(3) / 2, 0.0],
            "w_c": 0.9,
            "c": [-0.5, math.sqrt(3) / 2, 0.0],
        },
    }
    report = run_scenario(config_from_dict(data))
    assert report.inequality.lhs == pytest.approx(0.81, abs=1e-12)
    assert report.inequality.rhs == pytest.approx(0.405, abs=1e-12)
    assert report.geodesic_1 is None


def test_null_worldline_config():
    # photon pair along opposite x rays; affine-parameter stops
    data = flat_baseline_config()
    data["u1"] = [1.0, 1.0, 0.0, 0.0]
    data["u2"] = [1.0, -1.0, 0.0, 0.0]
    report = run_scenario(config_from_dict(data))
    assert report.inequality.w_b == pytest.approx(1.0, abs=1e-9)
    assert report.inequality.margin == pytest.approx(0.5, abs=1e-9)


def test_schwarzschild_null_leg_config():
    # u1 an outgoing radial null ray, u2 the demo's timelike orbit: each
    # leg's kind comes from its own u.u
    data = schwarzschild_demo_config()
    data["lhv_audit"] = False
    data["u1"] = [1.0 / (1.0 - 2.0 / 10.0), 1.0, 0.0, 0.0]
    report = run_scenario(config_from_dict(data))
    assert report.status == "ok"
    assert report.geodesic_1.endpoint[1] > 10.0
    assert report.geodesic_1.drift["norm"] < 1e-8


def null_leg_demo(scale):
    # the demo with u1 a photon of static-tetrad components (1, 0.3, 0, sqrt(0.91))
    # and affine scale `scale`, stopped at radius 14
    data = schwarzschild_demo_config()
    data["lhv_audit"] = False
    f = 1.0 - 2.0 / 10.0
    data["u1"] = [scale / math.sqrt(f), scale * 0.3 * math.sqrt(f), 0.0, scale * math.sqrt(0.91) / 10.0]
    data["stop1"] = {"kind": "radius", "value": 14.0}
    return data


def test_a_null_leg_reaches_its_radius_stop_at_any_affine_scale():
    # a null tangent's scale is free: its affine parameter, and so the cap on
    # it, scales as 1/E, while the weights and the relative drifts stay put
    unit = run_scenario(config_from_dict(null_leg_demo(1.0)))
    for k in (20, 40, 60):
        report = run_scenario(config_from_dict(null_leg_demo(2.0**-k)))
        assert report.geodesic_1.endpoint[1] == pytest.approx(14.0, rel=1e-9)
        assert report.proj_b.w == pytest.approx(unit.proj_b.w, abs=1e-9)
        assert report.proj_c.w == pytest.approx(unit.proj_c.w, abs=1e-9)
        assert report.inequality.margin == pytest.approx(unit.inequality.margin, abs=1e-9)
        assert report.geodesic_1.tau_end == pytest.approx(unit.geodesic_1.tau_end * 2.0**k, rel=1e-6)
        # the norm's drift, which scales as u.u does, is of the unit scale's order, not floored away
        scaled_norm = report.geodesic_1.drift["norm"] * 4.0**k
        assert 0.1 < scaled_norm / unit.geodesic_1.drift["norm"] < 10.0


def _bundled_runs():
    """The bundled configs that run one row: every one without a sweep block."""
    documents = []
    for name in sorted(os.listdir(CONFIGS)):
        with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
            data = json.load(fh)
        if "sweep" not in data:
            documents.append(data)
    return documents


def test_a_run_reads_its_rows_and_best_margin_from_one_bell_stack():
    # the run takes its row from one bell_stack and its best margin from that
    # stack's ordered arms and bound (margin_at): both are the bits of
    # separate bell_stack calls, on the caller's arms and on the ordered
    # ones, which a one-row bell_stack does not swap again. Among the runs:
    # every bundled one (the arms swap in one), one where w_b^2 b = w_c^2 c
    # leaves no optimum, and seeded boosted Schwarzschild runs read in static
    # and in comoving frames
    synthetic = {"w_b": 0.7, "b": [0.0, 1.0, 0.0], "w_c": 0.7, "c": [0.0, 1.0, 0.0]}
    documents = [flat_baseline_config(), schwarzschild_demo_config(), null_leg_demo(1.0),
                 {"settings": flat_baseline_config()["settings"], "synthetic": synthetic},
                 *_bundled_runs(), *_seeded_batch_configs(np.random.default_rng(4545), 40)]
    seen = collections.Counter()
    for data in documents:
        cfg = config_from_dict({**data, "lhv_audit": False})
        report = run_scenario(cfg)
        a, b, c = scenario._settings_rows(cfg.settings)
        arm_b, arm_c, _ = scenario._arms(scenario._geometry(cfg), b, c, cfg.synthetic)
        rows = bell_stack(a, arm_b, arm_c)
        for name in ("a", "p_ab", "p_ac", "p_bc", "lhs", "rhs", "margin", "violated", "swapped", "degenerate"):
            assert np.array_equal(getattr(report.rows, name), getattr(rows, name), equal_nan=True)
        for arm, expected in ((report.rows.b, rows.b), (report.rows.c, rows.c)):
            assert all(np.array_equal(x, y) for x, y in zip(arm[:4], expected[:4]))
        if report.angles.degenerate[0]:
            assert report.best_margin is None
            seen["no optimum"] += 1
            continue
        best = report.angles.best
        assert report.best_margin.hex() == float(bell_stack(best, arm_b, arm_c).margin[0]).hex()
        ordered = bell_stack(best, report.rows.b, report.rows.c)
        assert not ordered.swapped[0]
        assert report.best_margin.hex() == float(ordered.margin[0]).hex()
        seen["swapped"] += bool(rows.swapped[0])
        seen[cfg.frame_choice if not cfg.is_synthetic else "synthetic"] += 1
    assert seen["no optimum"] == 1 and seen["swapped"] >= 1
    assert seen["comoving"] >= 10 and seen["synthetic"] >= 2


def _random_settings(rng):
    a_deg, b_deg, c_deg = rng.uniform(0.0, 360.0, 3).tolist()
    return {"a_deg": a_deg, "b_deg": b_deg, "c_deg": c_deg}


def _seeded_batch_configs(rng, count):
    """The first count seeded configs in the scenario batch's shapes, each
    with its own random settings."""
    return [{**batch_config(7, k), "settings": _random_settings(rng)} for k in range(count)]


def _synthetic_documents(rng, count):
    """Synthetic runs whose arms swap, with a degenerate arm (w_c = 0) and a
    vanishing d (w_b = w_c, b = c) among them."""
    documents = []
    for j in range(count):
        w_b, w_c = rng.uniform(0.0, 1.0, 2).tolist()
        b, c = rng.standard_normal(3).tolist(), rng.standard_normal(3).tolist()
        if j % 7 == 0:
            w_c = 0.0
        if j % 5 == 0:
            w_c, c = w_b, b
        documents.append({"settings": _random_settings(rng), "synthetic": {"w_b": w_b, "b": b, "w_c": w_c, "c": c}})
    return documents


def _plain(value):
    """A one-row view as plain values, its directions as lists; repr compares the bits."""
    if isinstance(value, Direction3):
        return value.d.tolist()
    if dataclasses.is_dataclass(value):
        return {name: _plain(v) for name, v in vars(value).items()}
    return value


def test_a_run_reports_from_its_arrays_as_it_did_from_its_views():
    # report_to_dict reads the run's arrays, and the three views are built
    # from them when read: both, and the optimum angles.best[0], keep the
    # bits of the views a run built eagerly from its arms
    rng = np.random.default_rng(4040)
    documents = _seeded_batch_configs(rng, 400) + _synthetic_documents(rng, 60)
    swapped = degenerate = vanishing = 0
    for data in documents:
        cfg = config_from_dict(data)
        report = run_scenario(cfg)
        a, b, c = scenario._settings_rows(cfg.settings)
        arm_b, arm_c, _ = scenario._arms(scenario._geometry(cfg), b, c, cfg.synthetic)
        proj_b, proj_c = arm_b.result(0), arm_c.result(0)
        try:
            best = find_max_violation(proj_b, proj_c, "analytic")[0]
        except DegenerateD:
            best = None
        eager = (proj_b, proj_c, bell_stack(a, arm_b, arm_c).report(0), best)
        best_view = None if report.angles.degenerate[0] else Direction3(report.angles.best[0])
        views = (report.proj_b, report.proj_c, report.inequality, best_view)
        assert [repr(_plain(v)) for v in views] == [repr(_plain(v)) for v in eager]
        expected = json.dumps(earlier_report_to_dict(report), sort_keys=True, indent=2) + "\n"
        assert scenario.report_to_json(report) == expected
        swapped += report.inequality.swapped
        degenerate += report.inequality.degenerate
        vanishing += best is None
    assert swapped > 0 and degenerate > 0 and vanishing > 0


def test_a_run_forms_d_once(monkeypatch):
    # the angles and the optimum share one weighted difference
    calls = []
    original = correlations._weighted_differences

    def counting(arm_b, arm_c):
        calls.append(len(arm_b.w))
        return original(arm_b, arm_c)

    monkeypatch.setattr(correlations, "_weighted_differences", counting)
    swapped = {"settings": flat_baseline_config()["settings"],
               "synthetic": {"w_b": 0.5, "b": [0, 1, 0], "w_c": 0.9, "c": [1, 0, 0]}}
    for data in (flat_baseline_config(), schwarzschild_demo_config(), swapped):
        data["lhv_audit"] = False
        calls.clear()
        scenario.report_to_json(run_scenario(config_from_dict(data)))
        assert calls == [1]


def test_synthetic_conflicts_with_geometry():
    data = flat_baseline_config()
    data["synthetic"] = {"w_b": 1.0, "b": [1, 0, 0], "w_c": 1.0, "c": [0, 1, 0]}
    with pytest.raises(ValidationError):
        config_from_dict(data)


def falling_config():
    data = flat_baseline_config()
    data["metric"] = {"kind": "schwarzschild", "mass": 1.0}
    data["origin"] = [0.0, 10.0, math.pi / 2, 0.0]
    f = 1.0 - 0.2
    data["u1"] = [1.0 / math.sqrt(f), 0.0, 0.0, 0.0]  # free fall, hits the guard
    data["u2"] = [1.0 / math.sqrt(f), 0.0, 0.0, 1e-4]
    data["stop1"] = {"kind": "proper_time", "value": 100.0}
    data["stop2"] = {"kind": "proper_time", "value": 100.0}
    return data


def test_pipeline_error_tags_stage():
    with pytest.raises(PipelineError) as err:
        run_scenario(config_from_dict(falling_config()))
    assert err.value.stage == "geodesic_1"


def test_csv_header_and_margin_identity():
    assert CSV_HEADER == (
        "scenario_id,status,theta_ab_deg,theta_ac_deg,theta_bc_deg,"
        "w_b,w_c,P_ab,P_ac,P_bc,lhs,rhs,margin,violated"
    )
    report = run_scenario(config_from_dict(flat_baseline_config()))
    row = csv_cells(csv_row(report, "x"))
    assert float(row["margin"]) == float(row["lhs"]) - float(row["rhs"])
    assert row["violated"] == "true"
    # 17 significant digits round-trip
    assert float(row["P_ab"]) == pytest.approx(-0.5, abs=1e-12)


def sweep_config(step=30.0):
    data = flat_baseline_config()
    data["sweep"] = {"parameter": "a_deg", "start": 0.0, "stop": 180.0, "step": step}
    return config_from_dict(data)


def test_sweep_rows_and_optimum():
    rows = [csv_cells(line) for line in run_sweep(sweep_config(step=1.0))]
    assert len(rows) == 181
    assert all(r["status"] == "ok" for r in rows)
    margins = [float(r["margin"]) for r in rows]
    best_row = rows[int(np.argmax(margins))]
    # the analytic optimum for 60/120-degree arms is the 0-degree setting
    proj_b = make_projection(1.0, [0.5, math.sqrt(3) / 2, 0.0])
    proj_c = make_projection(1.0, [-0.5, math.sqrt(3) / 2, 0.0])
    a_star, analytic = find_max_violation(proj_b, proj_c, "analytic")
    assert best_row["scenario_id"] == "a_deg=0"
    assert float(best_row["margin"]) == pytest.approx(analytic.margin, abs=1e-9)


def test_sweep_margin_scales_as_w_squared():
    data = {
        "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
        "synthetic": {
            "w_b": 1.0,
            "b": [0.5, math.sqrt(3) / 2, 0.0],
            "w_c": 1.0,
            "c": [-0.5, math.sqrt(3) / 2, 0.0],
        },
        "sweep": {"parameter": "w", "start": 0.2, "stop": 1.0, "step": 0.2},
    }
    rows = [csv_cells(line) for line in run_sweep(config_from_dict(data))]
    assert len(rows) == 5
    for row in rows:
        w = float(row["scenario_id"].split("=")[1])
        assert float(row["margin"]) == pytest.approx(0.5 * w**2, abs=1e-12)


def test_sweep_failed_rows_marked_and_run_continues():
    data = {
        "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
        "synthetic": {
            "w_b": 1.0,
            "b": [0.5, math.sqrt(3) / 2, 0.0],
            "w_c": 1.0,
            "c": [-0.5, math.sqrt(3) / 2, 0.0],
        },
        "sweep": {"parameter": "w", "start": 0.5, "stop": 1.5, "step": 0.5},
    }
    rows = [csv_cells(line) for line in run_sweep(config_from_dict(data))]
    assert [r["status"] for r in rows] == ["ok", "ok", "error:ValidationError"]
    assert rows[2]["w_b"] == "nan" and rows[2]["violated"] == "false"


def test_sweep_empty_range():
    data = flat_baseline_config()
    data["sweep"] = {"parameter": "a_deg", "start": 10.0, "stop": 0.0, "step": 1.0}
    rows = run_sweep(config_from_dict(data))
    assert rows == []
    assert rows_to_csv(rows) == CSV_HEADER + "\n"


@pytest.mark.parametrize(
    "start, stop, step, count",
    [
        (0.0, 0.0, 1e-12, 1),
        (0.0, 0.0, -1e-12, 1),
        (5.0, 5.0, 1e-12, 1),
        (5.0, 5.0, -1e-12, 1),
        (0.0, 1e-9, 1e-10, 11),
    ],
)
def test_a_sweep_with_a_tiny_step_gives_the_rows_it_asks_for(start, stop, step, count):
    # the end tolerance is at most half a step; an absolute 1e-9 admitted
    # 1000 more values past start = stop, and 10 more past stop = 1e-9
    assert len(SweepSpec("a_deg", start, stop, step).values()) == count


def test_a_sweep_lists_its_values_once(monkeypatch):
    # the row cap and run_sweep read the one list made at construction
    sweep = SweepSpec("b_deg", 0.0, 180.0, 2.0)
    assert sweep.values() is sweep.values()
    assert len(sweep.values()) == 91
    calls = []
    original = SweepSpec.values

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SweepSpec, "values", counted)
    data = scenario.schwarzschild_demo_config()
    data["lhv_audit"] = False
    data["sweep"] = {"parameter": "b_deg", "start": 0.0, "stop": 180.0, "step": 2.0}
    assert len(run_sweep(config_from_dict(data))) == 91
    assert len(calls) == 1


def test_sweep_deterministic_across_workers():
    cfg = sweep_config(step=5.0)
    text_1 = rows_to_csv(run_sweep(cfg))
    assert text_1 == rows_to_csv(run_sweep(cfg))
    assert text_1 == rows_to_csv(run_sweep(sweep_config(step=5.0)))


def test_horizon_sweep_rows():
    spec = MetricSpec("schwarzschild", mass=1.0)
    r_values = [10.0, 6.0, 3.0, 2.2, 2.0 * (1 + 1e-8)]
    rows = [csv_cells(line) for line in run_horizon_sweep(spec, r_values)]
    assert [r["scenario_id"] for r in rows] == [f"r={format(v, '.17g')}" for v in r_values]
    assert rows[0]["status"] == "ok" and float(rows[0]["w_b"]) == 1.0
    ws = [float(r["w_b"]) for r in rows[:-1]]
    assert all(0.0 <= w <= 1.0 for w in ws)
    assert all(a >= b for a, b in zip(ws, ws[1:]))  # w shrinks toward the hole
    assert rows[-1]["status"] == "horizon_guard"


def test_horizon_sweep_requires_descending():
    spec = MetricSpec("schwarzschild", mass=1.0)
    with pytest.raises(ValidationError):
        run_horizon_sweep(spec, [5.0, 6.0])


def counting_stops(monkeypatch):
    """The stop of each leg scenario hands to run_legs, in order."""
    calls = []
    original = scenario.run_legs

    def counting(legs, tol):
        calls.extend(leg.stop for leg in legs)
        return original(legs, tol)

    monkeypatch.setattr(scenario, "run_legs", counting)
    return calls


def test_horizon_sweep_makes_each_row_when_it_is_asked_for(monkeypatch):
    # the arguments are checked at once, and with one radius to a chunk a
    # row's legs are integrated only when its line is asked for
    calls = counting_stops(monkeypatch)
    monkeypatch.setattr(scenario, "_HORIZON_CHUNK", 1)
    rows = run_horizon_sweep(MetricSpec("schwarzschild", mass=1.0), [10.0, 6.0, 3.0, 1.0])
    assert calls == []
    assert next(rows).startswith("r=10,ok,")
    assert calls == [StopCondition.proper_time(0.0), StopCondition.radius(10.0)]
    assert [line.split(",")[1] for line in rows] == ["ok", "ok", "horizon_guard"]
    assert len(calls) == 4


def test_horizon_sweep_integrates_a_chunk_of_rows_when_its_first_line_is_asked_for(monkeypatch):
    # a long study holds one chunk of legs at a time
    calls = counting_stops(monkeypatch)
    chunk = scenario._HORIZON_CHUNK
    r_values = np.linspace(10.0, 2.5, 2 * chunk + 3).tolist()
    rows = run_horizon_sweep(MetricSpec("schwarzschild", mass=1.0), [*r_values, 1.0])
    assert calls == []
    assert next(rows).startswith("r=10,ok,")
    assert calls == [StopCondition.proper_time(0.0), *map(StopCondition.radius, r_values[:chunk])]
    for _ in range(chunk - 1):
        next(rows)
    assert len(calls) == 1 + chunk
    next(rows)
    assert calls[1:] == [StopCondition.radius(r) for r in r_values[: 2 * chunk]]
    assert [line.split(",")[1] for line in rows] == ["ok"] * (chunk + 2) + ["horizon_guard"]
    assert calls[1:] == [StopCondition.radius(r) for r in r_values]


# at the second mass, the largest radius inside the guard in units of M lies
# outside 2M (1 + 1e-6) in the caller's units
@pytest.mark.parametrize("mass", [1.0, 1.2039469008067618, 1e-300, 1e300])
def test_horizon_sweep_decides_the_guard_in_units_of_m(mass):
    # a radius is a guard row exactly where a leg to it would be refused
    # for its stop: at or inside 2 (1 + 1e-6) in units of M
    guard = 2.0 * (1 + 1e-6)
    inside = guard * mass  # then the largest radius with inside / mass <= guard
    while inside / mass > guard:
        inside = math.nextafter(inside, 0.0)
    while math.nextafter(inside, math.inf) / mass <= guard:
        inside = math.nextafter(inside, math.inf)
    outside = math.nextafter(inside, math.inf)
    spec = MetricSpec("schwarzschild", mass=mass)
    rows = [csv_cells(line) for line in run_horizon_sweep(spec, [10.0 * mass, outside, inside])]
    assert [r["status"] for r in rows][::2] == ["ok", "horizon_guard"]
    assert rows[1]["status"] != "horizon_guard"
    with pytest.raises(ValidationError, match="inside horizon guard"):
        integrate_geodesic(spec, np.array([0.0, 10.0 * mass, math.pi / 2, 0.0]),
                           np.array([1.0 / math.sqrt(0.8), 0.0, 0.0, 0.0]), StopCondition.radius(inside))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1])
def test_horizon_sweep_rejects_non_finite_radii(bad, position):
    spec = MetricSpec("schwarzschild", mass=1.0)
    r_values = [10.0, 5.0]
    r_values[position] = bad
    with pytest.raises(ValidationError, match="r_values"):
        run_horizon_sweep(spec, r_values)


def test_horizon_sweep_asymptotically_flat():
    # far from the mass the transported weight matches the flat value 1
    spec = MetricSpec("schwarzschild", mass=1.0)
    rows = [csv_cells(line) for line in run_horizon_sweep(spec, [10_500.0, 10_000.0])]
    assert rows[1]["status"] == "ok"
    assert abs(float(rows[1]["w_b"]) - 1.0) < 1e-4


def _per_row_reference(data, values):
    """The CSV of one full run_scenario per sweep value, or its error row."""
    param = data["sweep"]["parameter"]
    rows = []
    for value in values:
        row_data = {key: v for key, v in data.items() if key != "sweep"}
        if param in scenario.ANGLE_SWEEP_PARAMETERS:
            row_data["settings"] = {**data["settings"], param: value}
        else:
            weights = ("w_b", "w_c") if param == "w" else (param,)
            row_data["synthetic"] = {**data["synthetic"], **dict.fromkeys(weights, value)}
        sid = f"{param}={format(value, '.17g')}"
        try:
            rows.append(csv_row(run_scenario(config_from_dict(row_data)), sid))
        except ValidationError:
            rows.append(error_row(sid, "error:ValidationError"))
    return rows_to_csv(rows)


@pytest.mark.parametrize("param", ["a_deg", "b_deg", "c_deg"])
def test_angle_sweep_matches_per_row_runs(param):
    data = schwarzschild_demo_config()
    data["frame_choice"] = "comoving"
    data["lhv_audit"] = False
    data["sweep"] = {"parameter": param, "start": 0.0, "stop": 180.0, "step": 22.5}
    cfg = config_from_dict(data)
    text = rows_to_csv(run_sweep(cfg))
    assert text.count(",ok,") == 9
    assert text == _per_row_reference(data, cfg.sweep.values())


def test_angle_sweep_integrates_geometry_once(monkeypatch):
    # a run hands both legs to run_legs at once; calls holds each leg it is given
    calls = []
    original = scenario.run_legs

    def counting(legs, tol):
        calls.extend(legs)
        return original(legs, tol)

    monkeypatch.setattr(scenario, "run_legs", counting)
    rows = [csv_cells(line) for line in run_sweep(sweep_config(step=2.0))]
    assert len(rows) == 91 and all(r["status"] == "ok" for r in rows)
    assert len(calls) == 2


def test_angle_sweep_geometry_failure_marks_every_row():
    data = falling_config()
    with pytest.raises(PipelineError) as err:
        run_scenario(config_from_dict(data))
    expected = (
        "horizon_approach" if isinstance(err.value.cause, HorizonApproach)
        else f"error:{err.value.stage}"
    )
    data["sweep"] = {"parameter": "b_deg", "start": 0.0, "stop": 90.0, "step": 30.0}
    rows = [csv_cells(line) for line in run_sweep(config_from_dict(data))]
    assert [r["scenario_id"] for r in rows] == ["b_deg=0", "b_deg=30", "b_deg=60", "b_deg=90"]
    assert all(r["status"] == expected for r in rows)
    assert all(r["w_b"] == "nan" and r["violated"] == "false" for r in rows)


def weight_sweep_data(param):
    """A weight sweep that starts above 1 and ends below 0."""
    data = {
        "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
        "synthetic": {
            "w_b": 0.9,
            "b": [0.5, math.sqrt(3) / 2, 0.0],
            "w_c": 0.8,
            "c": [-0.5, math.sqrt(3) / 2, 0.0],
        },
    }
    data["sweep"] = {"parameter": param, "start": 1.2, "stop": -0.2, "step": -0.1}
    return data


@pytest.mark.parametrize("param", ["w", "w_b", "w_c"])
def test_weight_sweep_matches_per_row_runs(param):
    data = weight_sweep_data(param)
    cfg = config_from_dict(data)
    text = rows_to_csv(run_sweep(cfg))
    # 1.2 - 12 * 0.1 is -2.2e-16, so that row is an error row too
    assert text.count(",ok,") == 10
    assert text.count(",error:ValidationError,") == 5
    assert text == _per_row_reference(data, cfg.sweep.values())


def unusable_direction_data(b):
    """A w_b sweep whose arm b cannot be normalised: only w_b = 0 may use it."""
    return {
        "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
        "synthetic": {"w_b": 0.0, "b": b, "w_c": 0.5, "c": [1, 0, 0]},
        "sweep": {"parameter": "w_b", "start": 0.0, "stop": 1.0, "step": 0.5},
    }


@pytest.mark.parametrize("b", [[0, 0, 0], [1e308, 1e308, 0]], ids=["zero", "overflowing"])
def test_weight_sweep_on_an_unusable_direction_fails_only_its_rows(tmp_path, b):
    data = unusable_direction_data(b)
    out = tmp_path / "rows.csv"
    assert main(["--quiet", "sweep", "--config", str(write_config(tmp_path, data)), "--out", str(out)]) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    statuses = [line.split(",")[1] for line in text.splitlines()[1:]]
    assert statuses == ["ok", "error:ValidationError", "error:ValidationError"]
    assert text == _per_row_reference(data, [0.0, 0.5, 1.0])
    # a single run of the block with w_b > 0 is a config error
    data = {**data, "synthetic": {**data["synthetic"], "w_b": 0.5}}
    del data["sweep"]
    assert main(["run", "--config", str(write_config(tmp_path, data, "run.json"))]) == EXIT_CONFIG


def test_degenerate_arm_reads_nan_angles(tmp_path):
    data = weight_sweep_data("w_c")
    data["synthetic"]["w_c"] = 0.0
    data["sweep"] = {"parameter": "w_c", "start": 0.0, "stop": 0.5, "step": 0.25}
    out = tmp_path / "rows.csv"
    argv = ["--quiet", "sweep", "--config", str(write_config(tmp_path, data)), "--out", str(out)]
    assert main(argv) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert text == _per_row_reference(data, [0.0, 0.25, 0.5])
    run_out = tmp_path / "run.csv"
    argv = ["run", "--config", str(write_config(tmp_path, data)), "--format", "csv", "--out", str(run_out)]
    assert main(argv) == EXIT_OK
    header, run_row = run_out.read_text(encoding="utf-8").splitlines()
    sweep_row = text.splitlines()[1]
    assert sweep_row == run_row.replace("run,", "w_c=0,", 1)
    row = dict(zip(header.split(","), run_row.split(",")))
    assert row["status"] == "ok" and row["w_c"] == "0"
    assert row["theta_ac_deg"] == row["theta_bc_deg"] == row["P_bc"] == "nan"
    assert row["theta_ab_deg"] != "nan" and row["P_ac"] == "0"


def test_weight_sweep_validates_its_config_once(monkeypatch):
    calls = []
    original = scenario.config_from_dict

    def counting(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(scenario, "config_from_dict", counting)
    rows = run_sweep(scenario.config_from_dict(weight_sweep_data("w")))
    assert len(rows) == 15
    assert len(calls) == 1


def test_horizon_sweep_integrates_the_emission_leg_once(monkeypatch):
    stops = counting_stops(monkeypatch)
    spec = MetricSpec("schwarzschild", mass=1.0)
    rows = [csv_cells(line) for line in run_horizon_sweep(spec, [10.0, 6.0, 3.0, 2.2, 2.0 * (1 + 1e-8), 1.5])]
    live = [r for r in rows if r["status"] != "horizon_guard"]
    assert len(live) == 4 and all(r["status"] == "ok" for r in live)
    assert len(stops) == len(live) + 1
    assert stops[0] == StopCondition.proper_time(0.0)
    assert stops[1:] == [StopCondition.radius(r) for r in (10.0, 6.0, 3.0, 2.2)]


def _horizon_reference(spec, r_values, tol):
    """Each row of a horizon study as one full run_scenario with both legs."""
    origin = np.array([0.0, r_values[0], math.pi / 2.0, 0.0])
    u_static = np.array([1.0 / math.sqrt(1.0 - 2.0 * spec.mass / r_values[0]), 0, 0, 0])
    settings = np.array([[math.cos(math.radians(d)), math.sin(math.radians(d)), 0.0] for d in (0.0, 60.0, 120.0)])
    rows = []
    for r in r_values:
        sid = f"r={format(r, '.17g')}"
        if r <= spec.guard_radius:
            rows.append(error_row(sid, "horizon_guard"))
            continue
        try:
            with scenario._stage("geodesic_1"):
                event = emission_event(spec, origin)
                leg1 = leg_start(event, u_static, StopCondition.proper_time(0.0))
            with scenario._stage("geodesic_2"):
                leg2 = leg_start(event, u_static, StopCondition.radius(r))
            cfg = scenario.ScenarioConfig(
                settings=settings,
                frame_choice="static", tol=tol, mc_n=100_000, mc_seed=0, lhv_audit=False,
                legs=(leg1, leg2),
            )
            rows.append(csv_row(run_scenario(cfg), sid))
        except PipelineError as e:
            status = (
                "horizon_approach" if isinstance(e.cause, HorizonApproach) else f"error:{e.stage}"
            )
            rows.append(error_row(sid, status))
    return rows_to_csv(rows)


GUARD = 2.0 * (1 + 1e-6)
ACROSS_THE_GUARD = [
    ([10.0, 6.0, 2.5, GUARD * 1.001, GUARD * (1 + 1e-5), GUARD, 1.0], 1e-10, 3),
    ([10.0, 6.0, 2.5, GUARD * 1.001, GUARD * (1 + 1e-5), GUARD, 1.0], 1e-6, 3),
    # r^2 overflows at the emission event, so every row above the guard fails there
    ([1e200, 1e199, 1.0], 1e-10, 0),
]


@pytest.mark.parametrize("r_values, tol, ok_rows", ACROSS_THE_GUARD)
def test_horizon_sweep_across_the_guard_matches_per_row_runs(r_values, tol, ok_rows):
    spec = MetricSpec("schwarzschild", mass=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        text = rows_to_csv(run_horizon_sweep(spec, r_values, tol=tol))
        reference = _horizon_reference(spec, r_values, tol)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert text.count(",ok,") >= ok_rows
    assert text.count(",horizon_guard,") == sum(r <= GUARD for r in r_values)
    assert text == reference


@pytest.mark.parametrize("r_values, tol, ok_rows", ACROSS_THE_GUARD)
def test_horizon_sweep_across_chunk_edges_matches_per_row_runs(monkeypatch, r_values, tol, ok_rows):
    # two radii to a chunk: the first holds the zero-length row at the
    # emission event, and the last is partial
    monkeypatch.setattr(scenario, "_HORIZON_CHUNK", 2)
    test_horizon_sweep_across_the_guard_matches_per_row_runs(r_values, tol, ok_rows)


def test_a_horizon_row_whose_leg_fails_fails_alone(monkeypatch):
    # one leg of a chunk fails while it is stepped; every other row of the
    # chunk keeps the line it has in a study where none fails
    spec = MetricSpec("schwarzschild", mass=1.0)
    r_values = np.linspace(10.0, 2.5, 40).tolist()
    clean = list(run_horizon_sweep(spec, r_values))
    assert all(line.split(",")[1] == "ok" for line in clean)
    original = geodesics._step

    def failing(leg, tol):
        if leg.stop == StopCondition.radius(r_values[5]):
            raise StepFailure("a step failure for this radius alone")
        return original(leg, tol)

    monkeypatch.setattr(geodesics, "_step", failing)
    lines = list(run_horizon_sweep(spec, r_values))
    assert lines[5] == error_row(f"r={r_values[5]:.17g}", "error:geodesic_2")
    assert lines[:5] + lines[6:] == clean[:5] + clean[6:]


def recording_paths(monkeypatch):
    """The paths a run or a horizon study integrates, in order, kept as
    scenario receives them from run_legs."""
    paths = []

    def recording(*args, _original=scenario.run_legs, **kwargs):
        outcomes = _original(*args, **kwargs)
        paths.extend(outcomes)
        return outcomes

    monkeypatch.setattr(scenario, "run_legs", recording)
    return paths


def counting_metric_events(monkeypatch) -> collections.Counter:
    """Events evaluated through geometry.metric_stack, counted by the module
    that asked for them; metric_components' one row counts for its caller."""
    import sys

    events = collections.Counter()
    for name, module in list(sys.modules.items()):
        if name.startswith("grbell") and hasattr(module, "metric_stack"):
            def counting(spec, X, _original=module.metric_stack):
                frame = sys._getframe(1)
                while frame.f_globals["__name__"] == "grbell.geometry":
                    frame = frame.f_back
                events[frame.f_globals["__name__"]] += len(X)
                return _original(spec, X)

            monkeypatch.setattr(module, "metric_stack", counting)
    return events


@pytest.mark.parametrize("kind, value", [("proper_time", 20.0), ("coordinate_time", 24.0)])
def test_demo_evaluates_metric_once_per_stored_point(monkeypatch, kind, value):
    # the parser checks each leg's start, so a run evaluates per path only
    # one stack shared by the drift and propagator checks and the summary
    data = schwarzschild_demo_config()
    data["lhv_audit"] = False
    data["stop1"] = data["stop2"] = {"kind": kind, "value": value}
    cfg = config_from_dict(data)
    events = counting_metric_events(monkeypatch)
    paths = recording_paths(monkeypatch)
    run_scenario(cfg)
    assert len(paths) == 2
    assert events["grbell.geodesics"] == sum(len(path.taus) for path in paths)


@pytest.mark.parametrize(
    "name", ["schwarzschild_demo", "flat_baseline", "schwarzschild_null", "schwarzschild_infall"]
)
def test_a_config_is_parsed_at_one_metric_evaluation(monkeypatch, name):
    # both legs leave one emission event, which is converted into units of
    # M and checked once; each leg is checked against its metric
    with open(os.path.join(CONFIGS, f"{name}.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    events = counting_metric_events(monkeypatch)
    config_from_dict(data)
    assert events == {"grbell.geodesics": 1}


def test_a_horizon_study_evaluates_the_metric_at_its_origin_once(monkeypatch):
    # every row's leg leaves the study's one emission event, so beyond the
    # stored points of its paths a study evaluates the metric once
    events = counting_metric_events(monkeypatch)
    paths = recording_paths(monkeypatch)
    spec = MetricSpec("schwarzschild", mass=1.0)
    rows = list(run_horizon_sweep(spec, [10.0, 6.0, 3.0, 2.2, 1.5]))
    assert [line.split(",")[1] for line in rows] == ["ok"] * 4 + ["horizon_guard"]
    assert len(paths) == 5
    assert events == {"grbell.geodesics": 1 + sum(len(path.taus) for path in paths)}


@pytest.mark.parametrize("frame_choice", ["static", "comoving"])
def test_demo_transport_evaluates_no_metric(monkeypatch, frame_choice):
    # transport and the detector tetrads read g at a leg's ends from the
    # path's stored stack, so no metric event in a run comes from
    # grbell.transport or grbell.frames; the parse adds the origin's one
    events = counting_metric_events(monkeypatch)
    paths = recording_paths(monkeypatch)
    data = schwarzschild_demo_config()
    data["lhv_audit"] = False
    data["frame_choice"] = frame_choice
    run_scenario(config_from_dict(data))
    assert events["grbell.geodesics"] == 1 + sum(len(path.taus) for path in paths)
    assert "grbell.transport" not in events
    assert "grbell.frames" not in events


def test_csv_correlations_come_from_the_report():
    data = schwarzschild_demo_config()
    data["lhv_audit"] = False
    cfg = config_from_dict(data)
    report = run_scenario(cfg)
    ineq = report.inequality
    row = csv_cells(csv_row(report, "run"))
    assert np.array_equal(report.rows.a[0], cfg.settings[0])
    assert [row["P_ab"], row["P_ac"], row["P_bc"]] == [
        format(p, ".17g") for p in (ineq.p_ab, ineq.p_ac, ineq.p_bc)
    ]
    assert ineq.lhs == abs(ineq.p_ab - ineq.p_ac)


def test_geodesic_stats_count_the_stepper_work_and_repeat_exactly(monkeypatch):
    paths, runs = recording_paths(monkeypatch), recording_runs(monkeypatch)
    data = schwarzschild_demo_config()
    data["lhv_audit"] = False
    first = scenario.report_to_json(run_scenario(config_from_dict(data)))
    second = scenario.report_to_json(run_scenario(config_from_dict(data)))
    assert first == second
    assert len(paths) == 4
    assert len(runs) == 4
    for path, again, run in zip(paths[:2], paths[2:], runs):
        assert (path.nfev, path.accepted, path.rejected) == (again.nfev, again.accepted, again.rejected)
        # one accepted step per state the run checked
        assert path.accepted == len(run.taus) - 1 > 0
        assert path.nfev == 1 + 6 * (path.accepted + path.rejected)
    payload = json.loads(first)
    for label, path in zip(("geodesic_1", "geodesic_2"), paths):
        assert payload[label]["stats"] == {
            "nfev": path.nfev, "accepted": path.accepted, "rejected": path.rejected,
        }
    # wall-clock time stays out of the JSON report
    assert "elapsed" not in first


def test_flat_legs_report_no_stepper_work():
    payload = json.loads(scenario.report_to_json(run_scenario(config_from_dict(flat_baseline_config()))))
    for label in ("geodesic_1", "geodesic_2"):
        assert payload[label]["stats"] == {"nfev": 0, "accepted": 0, "rejected": 0}


def test_sweep_rows_run_no_lhv_audit(monkeypatch):
    calls = []
    original = scenario.lhv_inequality_audit

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenario, "lhv_inequality_audit", counting)
    data = schwarzschild_demo_config()
    data["sweep"] = {"parameter": "b_deg", "start": 0.0, "stop": 180.0, "step": 30.0}
    audited = rows_to_csv(run_sweep(config_from_dict(data)))
    data["lhv_audit"] = False
    assert audited == rows_to_csv(run_sweep(config_from_dict(data)))
    assert audited.count(",ok,") == 7
    assert calls == []


def test_horizon_sweep_at_loose_tol_shrinks_steps_that_reach_the_horizon():
    # the study's radial legs are closed-form; at tol 1e-3 two trial stages
    # of a near-radial plunge (u^phi = 1e-3) to r = 3 land inside r = 2M,
    # and the stepper rejects them and shrinks the step
    spec = MetricSpec("schwarzschild", mass=1.0)
    rows = [csv_cells(line) for line in run_horizon_sweep(spec, [10.0, 6.0], tol=1e-3)]
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert 0.9 < float(rows[1]["w_b"]) < 1.0
    u_phi = 1e-3
    plunge = np.array([math.sqrt((1.0 + (10.0 * u_phi) ** 2) / 0.8), 0.0, 0.0, u_phi])
    origin = np.array([0.0, 10.0, math.pi / 2, 0.0])
    path = integrate_geodesic(spec, origin, plunge, StopCondition.radius(3.0), 1e-3)
    assert path.rejected > 0


@pytest.mark.parametrize("mass", [1e-30, 1e-100, 1e-300, 1e300])
def test_a_small_mass_horizon_study_reads_the_unit_mass_weights(mass):
    # the geometry is scale-free and the study and its legs are checked and
    # stepped in units of M, so the weights do not depend on the mass beyond
    # rounding, also where r^2 in the caller's units underflows or overflows
    def study(m):
        lines = run_horizon_sweep(MetricSpec("schwarzschild", mass=m), [10.0 * m, 7.0 * m, 4.0 * m])
        return [csv_cells(line) for line in lines]

    unit, small = study(1.0), study(mass)
    assert [r["status"] for r in small] == [r["status"] for r in unit] == ["ok"] * 3
    for s, u in zip(small, unit):
        for key in ("w_b", "w_c"):
            assert abs(float(s[key]) - float(u[key])) <= 1e-13


def _bent_flat_geometry():
    """The flat baseline's geometry with P_R leaking 1e-3 of z into y."""
    cfg = config_from_dict(flat_baseline_config())
    geometry = scenario._geometry(cfg)
    P = geometry.geo2.propagators.copy()
    P[-1, 2, 3] = 1e-3
    return cfg, dataclasses.replace(
        geometry, geo2=dataclasses.replace(geometry.geo2, propagators=P)
    )


def test_a_failing_row_fails_alone_with_its_stage():
    cfg, bent = _bent_flat_geometry()
    # the projector scaled by 1e10 overflows only the tetrad components of the 1e150 row
    bent = dataclasses.replace(bent, projector_L=bent.projector_L * 1e10)
    a, b, c = (np.tile(d, (5, 1)) for d in cfg.settings)
    b[1] = [0.0, 0.6, 0.8]       # drifts past its bound on the way back
    b[2] = [1e300, 0.0, 0.0]     # its norm overflows in the drift check
    c[3] = [1e150, 0.0, 0.0]     # transported, but not projectable
    sids = [f"row{j}" for j in range(5)]
    rows = scenario._csv_rows(scenario._evaluate(bent, a, b, c), sids)
    assert [csv_cells(r)["status"] for r in rows] == [
        "ok", "error:transport", "error:transport", "error:projection", "ok",
    ]
    for j in (0, 4):
        one = scenario._csv_rows(scenario._evaluate(bent, a[j:j + 1], b[j:j + 1], c[j:j + 1]), [sids[j]])
        assert rows[j] == one[0]


def test_single_run_raises_the_tagged_error_of_its_row(monkeypatch):
    cfg, bent = _bent_flat_geometry()
    data = flat_baseline_config()
    data["settings"] = {"a": [1.0, 0.0, 0.0], "b": [0.0, 0.6, 0.8], "c": [0.0, 1.0, 0.0]}
    monkeypatch.setattr(scenario, "_geometry", lambda _cfg: bent)
    with pytest.raises(PipelineError) as err:
        run_scenario(config_from_dict(data))
    assert err.value.stage == "transport"
    assert isinstance(err.value.cause, StepFailure)


weights = st.sampled_from([0.0, 1e-10, 1e-9, 0.5, 1.0]) | st.floats(-0.5, 1.5)
directions = st.sampled_from(
    [[0.0, 0.0, 0.0], [1e308, 1e308, 0.0], [1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]]
) | st.lists(st.floats(-1e308, 1e308), min_size=3, max_size=3)


# derandomized so that every run of the suite checks the same examples
@settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    w_b=weights, b=directions, w_c=weights, c=directions,
    parameter=st.sampled_from(["w", "w_b", "w_c"]), start=weights,
    step=st.sampled_from([0.5, -0.5, 0.25, -0.3]), count=st.integers(0, 5),
)
def test_any_weight_sweep_matches_per_row_runs(tmp_path, w_b, b, w_c, c, parameter, start, step, count):
    data = {
        "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
        "synthetic": {"w_b": w_b, "b": b, "w_c": w_c, "c": c},
        "sweep": {"parameter": parameter, "start": start, "stop": start + count * step, "step": step},
    }
    out = tmp_path / "rows.csv"
    code = main(["--quiet", "sweep", "--config", str(write_config(tmp_path, data)), "--out", str(out)])
    try:
        cfg = config_from_dict(data)
    except ValidationError:
        assert code == EXIT_CONFIG
        return
    assert code == EXIT_OK
    assert out.read_text(encoding="utf-8") == _per_row_reference(data, cfg.sweep.values())


def test_a_large_row_whose_back_leg_leaks_fails_alone():
    # a row of size 1e150 leaking 1e-3 of its z component into y drifts by
    # 1e-6 of its norm; the norm check's bound no longer grows with its size
    cfg, bent = _bent_flat_geometry()
    a, b, c = scenario._settings_rows(cfg.settings, 3)
    b[1] = [0.0, 0.0, 1e150]
    sids = ["row0", "row1", "row2"]
    rows = scenario._csv_rows(scenario._evaluate(bent, a, b, c), sids)
    assert [csv_cells(r)["status"] for r in rows] == ["ok", "error:transport", "ok"]
    # the same rows on the unbent geometry are all ok
    rows = scenario._csv_rows(scenario._evaluate(scenario._geometry(cfg), a, b, c), sids)
    assert [csv_cells(r)["status"] for r in rows] == ["ok", "ok", "ok"]


def _angle_reference(x, y):
    if x is None or y is None:
        return float("nan")
    z = np.cross(x, y)
    return math.degrees(math.atan2(math.sqrt(float(z @ z)), float(x @ y)))


def _csv_reference(ineq, sids):
    """The CSV lines of the rows of ineq, formatted one cell at a time."""
    out = []
    for j, sid in enumerate(sids):
        if j in ineq.errors:
            out.append(error_row(sid, scenario._failure_status(ineq.errors[j])))
            continue
        b = None if ineq.b.degenerate[j] else ineq.b.direction[j]
        c = None if ineq.c.degenerate[j] else ineq.c.direction[j]
        a = ineq.a[j]
        reals = [_angle_reference(a, b), _angle_reference(a, c), _angle_reference(b, c)]
        reals += [ineq.b.w[j], ineq.c.w[j]]
        reals += [x[j] for x in (ineq.p_ab, ineq.p_ac, ineq.p_bc, ineq.lhs, ineq.rhs, ineq.margin)]
        cells = [sid, "ok", *(format(float(x), ".17g") for x in reals)]
        cells.append("true" if ineq.violated[j] else "false")
        out.append(",".join(cells))
    return out


def _units(rng, *shape):
    v = rng.standard_normal((*shape, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _random_rows(k, degenerate_arms, seed=0):
    """k rows of random settings and arms, about half of them swapped (w_b < w_c).

    The arms named in degenerate_arms are degenerate on the even rows, and
    the last of two or more rows failed.
    """
    rng = np.random.default_rng([seed, k])
    arms = []
    for name in "bc":
        w = rng.uniform(0.0, 1.0, k)
        direction = _units(rng, k)
        degenerate = np.zeros(k, dtype=bool)
        if name in degenerate_arms:
            degenerate[::2] = True
            w[::2], direction[::2] = 0.0, 0.0
        arms.append(ProjectionStack(w, direction, degenerate, np.sqrt(1.0 - w**2), {}))
    a = _units(rng, k)
    errors = {k - 1: PipelineError("transport", StepFailure("drift"))} if k > 1 else {}
    return bell_stack(a, *arms)._replace(errors=errors)


@pytest.mark.parametrize("degenerate_arms", ["", "b", "c", "bc"])
@pytest.mark.parametrize("k", [1, 2, 91])
def test_csv_rows_match_a_scalar_formatter(k, degenerate_arms):
    rows = _random_rows(k, degenerate_arms)
    sids = [f"row,{j}" for j in range(k)]
    assert scenario._csv_rows(rows, sids) == _csv_reference(rows, sids)
    if degenerate_arms:
        assert rows.degenerate[0] and np.isnan(rows.p_bc[0])
        assert csv_cells(scenario._csv_rows(rows, sids)[0])["P_bc"] == "nan"
    if k == 91:
        assert rows.swapped.any() and not rows.swapped.all()


def test_csv_rows_print_extreme_reals_as_format_does():
    rows = _random_rows(4, "")
    extreme = np.array([5e-324, -5e-324, 1e300, -1e300])
    rows = rows._replace(
        p_ab=extreme, p_ac=extreme[::-1], lhs=extreme, rhs=-extreme,
        margin=np.array([math.nan, math.inf, -math.inf, -0.0]), errors={},
    )
    sids = [f"x{j}" for j in range(4)]
    out = scenario._csv_rows(rows, sids)
    assert out == _csv_reference(rows, sids)
    out = [csv_cells(line) for line in out]
    assert [r["P_ab"] for r in out] == [
        "4.9406564584124654e-324", "-4.9406564584124654e-324",
        "1.0000000000000001e+300", "-1.0000000000000001e+300",
    ]
    assert [r["margin"] for r in out] == ["nan", "inf", "-inf", "-0"]


def test_csv_row_keeps_a_comma_in_its_id():
    report = run_scenario(config_from_dict(flat_baseline_config()))
    line = csv_row(report, "left,right")
    row = csv_cells(line)
    assert list(row) == CSV_HEADER.split(",")
    assert row["scenario_id"] == "left,right"
    assert {**row, "scenario_id": "x"} == csv_cells(csv_row(report, "x"))
    assert rows_to_csv([line]).splitlines()[1].startswith("left,right,ok,")


@pytest.mark.parametrize(
    "synthetic",
    [
        None,
        {"w_b": 0.4, "b": [0.3, -1.0, 0.2], "w_c": 0.6, "c": [1.0, 0.0, 0.5]},  # swapped
        {"w_b": 0.0, "b": [0.0, 0.0, 0.0], "w_c": 0.7, "c": [1.0, 1.0, 0.0]},   # degenerate b
        {"w_b": 0.0, "b": [0.0, 0.0, 0.0], "w_c": 0.0, "c": [0.0, 0.0, 0.0]},   # both degenerate
    ],
)
def test_csv_row_of_a_run_is_its_one_row_sweep(synthetic):
    data = flat_baseline_config()
    if synthetic is not None:
        data = {"settings": data["settings"], "synthetic": synthetic}
    data["settings"] = {"a_deg": 10.0, "b_deg": 60.0, "c_deg": 120.0}
    cfg = config_from_dict(data)
    data["sweep"] = {"parameter": "a_deg", "start": 10.0, "stop": 10.0, "step": 1.0}
    [swept] = run_sweep(config_from_dict(data))
    assert csv_row(run_scenario(cfg), csv_cells(swept)["scenario_id"]) == swept


def test_zero_correlations_print_as_zero(tmp_path):
    # a is at right angles to both arms and the arms to each other: every
    # dot product is zero, and each correlation is 0, not -0
    data = {
        "settings": {"a_deg": 0.0, "b_deg": 90.0, "c_deg": 90.0},
        "synthetic": {"w_b": 0.9, "b": [0.0, 1.0, 0.0], "w_c": 0.5, "c": [0.0, 0.0, 1.0]},
    }
    path = str(write_config(tmp_path, data))
    for fmt in ("csv", "json"):
        out = tmp_path / f"run.{fmt}"
        assert main(["--quiet", "run", "--config", path, "--format", fmt, "--out", str(out)]) == EXIT_OK
    header, line = (tmp_path / "run.csv").read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert [row["P_ab"], row["P_ac"], row["P_bc"]] == ["0", "0", "0"]
    assert "-0.0" not in (tmp_path / "run.json").read_text()
    ineq = run_scenario(config_from_dict(data)).inequality
    assert [math.copysign(1.0, p) for p in (ineq.p_ab, ineq.p_ac, ineq.p_bc)] == [1.0, 1.0, 1.0]
    data["sweep"] = {"parameter": "w_b", "start": 0.9, "stop": 1.0, "step": 0.1}
    swept = [csv_cells(line) for line in run_sweep(config_from_dict(data))]
    assert [[r["P_ab"], r["P_ac"], r["P_bc"]] for r in swept] == [["0", "0", "0"]] * 2


def test_nearly_parallel_arms_print_their_angle(tmp_path):
    # b and c 1e-9 rad apart: their cosine rounds to 1, whose acos read 0;
    # atan2 of the cross and dot products keeps the angle
    data = {
        "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
        "synthetic": {"w_b": 0.9, "b": [1.0, 0.0, 0.0], "w_c": 0.5, "c": [math.cos(1e-9), math.sin(1e-9), 0.0]},
    }
    out = tmp_path / "run.csv"
    assert main(["--quiet", "run", "--config", str(write_config(tmp_path, data)), "--out", str(out),
                 "--format", "csv"]) == EXIT_OK
    row = csv_cells(out.read_text().splitlines()[1])
    assert row["theta_bc_deg"] == "5.7295779513082324e-08"


def test_finite_takes_numpy_numbers_but_no_booleans():
    assert scenario._finite(np.float64(2.5), "r") == 2.5
    assert scenario._finite(np.int64(3), "r") == 3.0
    for value in (True, np.bool_(False), "1", None, [1.0]):
        with pytest.raises(ValidationError, match="r: not a number"):
            scenario._finite(value, "r")
    with pytest.raises(ValidationError, match="settings.b"):
        settings = {"a": [1, 0, 0], "b": [0, np.bool_(1), 0], "c": [0, 0, 1]}
        config_from_dict({**flat_baseline_config(), "settings": settings})
    # the horizon radii come from np.linspace
    rows = [csv_cells(line) for line in run_horizon_sweep(MetricSpec("schwarzschild", mass=1.0), np.linspace(10.0, 6.0, 3))]
    assert [r["scenario_id"] for r in rows] == ["r=10", "r=8", "r=6"]


def test_comoving_demo_rows_keep_the_config_arm_order():
    # the comoving frames carry b and c alike: w_b and w_c differ in the
    # last bits only, either way round, so _ordered keeps the config's order
    data = schwarzschild_demo_config()
    data["frame_choice"] = "comoving"
    data["sweep"] = {"parameter": "a_deg", "start": 0.0, "stop": 180.0, "step": 2.0}
    rows = [csv_cells(line) for line in run_sweep(config_from_dict(data))]
    assert len(rows) == 91
    for row in rows:
        w_b, w_c = float(row["w_b"]), float(row["w_c"])
        assert row["status"] == "ok"
        assert abs(w_b - w_c) <= ARM_ORDER_ULP * np.spacing(w_b)
    # the config's b (60 deg) stays in the b column: at a = 0 it is the arm
    # nearer a; transport turns both arrival directions, so the angles are
    # not the config's
    first = rows[0]
    assert first["scenario_id"] == "a_deg=0"
    assert float(first["theta_ab_deg"]) < float(first["theta_ac_deg"])

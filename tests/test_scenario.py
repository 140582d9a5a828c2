import json
import math

import numpy as np
import pytest

from grbell import (
    Direction3,
    FourVector,
    HorizonApproach,
    MetricSpec,
    ParseError,
    PipelineError,
    SettingsTriple,
    StopCondition,
    ValidationError,
    config_from_dict,
    find_max_violation,
    flat_baseline_config,
    load_config,
    make_projection,
    rows_to_csv,
    run_horizon_sweep,
    run_scenario,
    run_sweep,
    schwarzschild_demo_config,
)
from grbell import scenario
from grbell.scenario import CSV_HEADER, csv_row, error_row


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_load_minimal_flat_config(tmp_path):
    cfg = load_config(write_config(tmp_path, flat_baseline_config()))
    assert cfg.metric.kind == "minkowski"
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
    assert cfg.settings.a.d[0] == 1.0
    data["settings"] = {"a_deg": 0.0, "b": [0, 1, 0]}
    with pytest.raises(ValidationError, match="settings"):
        config_from_dict(data)


def test_flat_baseline_report():
    report = run_scenario(config_from_dict(flat_baseline_config()))
    ineq = report.inequality
    assert abs(ineq.w_b - 1.0) <= 1e-9 and abs(ineq.w_c - 1.0) <= 1e-9
    assert ineq.margin == pytest.approx(0.5, abs=1e-9)
    assert ineq.violated
    assert report.angles.cos_phi == pytest.approx(1.0, abs=1e-9)
    assert not report.angles.condition_holds
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
    data["worldline"] = "null"
    data["u1"] = [1.0, 1.0, 0.0, 0.0]
    data["u2"] = [1.0, -1.0, 0.0, 0.0]
    report = run_scenario(config_from_dict(data))
    assert report.inequality.w_b == pytest.approx(1.0, abs=1e-9)
    assert report.inequality.margin == pytest.approx(0.5, abs=1e-9)


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
    row = csv_row(report, "x")
    assert float(row["margin"]) == float(row["lhs"]) - float(row["rhs"])
    assert row["violated"] == "true"
    # 17 significant digits round-trip
    assert float(row["P_ab"]) == pytest.approx(-0.5, abs=1e-12)


def sweep_config(step=30.0):
    data = flat_baseline_config()
    data["sweep"] = {"parameter": "a_deg", "start": 0.0, "stop": 180.0, "step": step}
    return config_from_dict(data)


def test_sweep_rows_and_optimum():
    rows = run_sweep(sweep_config(step=1.0))
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
    rows = run_sweep(config_from_dict(data))
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
    rows = run_sweep(config_from_dict(data))
    assert [r["status"] for r in rows] == ["ok", "ok", "error:ValidationError"]
    assert rows[2]["w_b"] == "nan" and rows[2]["violated"] == "false"


def test_sweep_empty_range():
    data = flat_baseline_config()
    data["sweep"] = {"parameter": "a_deg", "start": 10.0, "stop": 0.0, "step": 1.0}
    rows = run_sweep(config_from_dict(data))
    assert rows == []
    assert rows_to_csv(rows) == CSV_HEADER + "\n"


def test_sweep_deterministic_across_workers():
    cfg = sweep_config(step=5.0)
    text_1 = rows_to_csv(run_sweep(cfg, workers=1))
    text_8 = rows_to_csv(run_sweep(cfg, workers=8))
    assert text_1 == text_8
    assert text_1 == rows_to_csv(run_sweep(sweep_config(step=5.0), workers=1))


def test_horizon_sweep_rows():
    spec = MetricSpec("schwarzschild", mass=1.0, horizon_eps=1e-6)
    r_values = [10.0, 6.0, 3.0, 2.2, 2.0 * (1 + 1e-8)]
    rows = run_horizon_sweep(spec, r_values)
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
    rows = run_horizon_sweep(spec, [10_500.0, 10_000.0])
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
    calls = []
    original = scenario.integrate_geodesic

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenario, "integrate_geodesic", counting)
    rows = run_sweep(sweep_config(step=2.0))
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
    rows = run_sweep(config_from_dict(data))
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
    stops = []
    original = scenario.integrate_geodesic

    def counting(spec, x0, u0, stop, tol):
        stops.append(stop)
        return original(spec, x0, u0, stop, tol)

    monkeypatch.setattr(scenario, "integrate_geodesic", counting)
    spec = MetricSpec("schwarzschild", mass=1.0, horizon_eps=1e-6)
    rows = run_horizon_sweep(spec, [10.0, 6.0, 3.0, 2.2, 2.0 * (1 + 1e-8), 1.5])
    live = [r for r in rows if r["status"] != "horizon_guard"]
    assert len(live) == 4 and all(r["status"] == "ok" for r in live)
    assert len(stops) == len(live) + 1
    assert stops[0] == StopCondition.proper_time(0.0)
    assert stops[1:] == [StopCondition.radius(r) for r in (10.0, 6.0, 3.0, 2.2)]


def _horizon_reference(spec, r_values, tol):
    """Each row of a horizon study as one full run_scenario with both legs."""
    origin = spec.point(0.0, r_values[0], math.pi / 2.0, 0.0)
    u_static = FourVector([1.0 / math.sqrt(1.0 - 2.0 * spec.mass / r_values[0]), 0, 0, 0], origin)
    settings = SettingsTriple(*(Direction3.from_angle(math.radians(d)) for d in (0.0, 60.0, 120.0)))
    rows = []
    for r in r_values:
        sid = f"r={format(r, '.17g')}"
        if r <= spec.guard_radius:
            rows.append(error_row(sid, "horizon_guard"))
            continue
        cfg = scenario.ScenarioConfig(
            settings=settings,
            frame_choice="static", tol=tol, mc_n=100_000, mc_seed=0, lhv_audit=False,
            metric=spec, origin=origin, u1=u_static, u2=u_static,
            stop1=StopCondition.proper_time(0.0), stop2=StopCondition.radius(r),
        )
        try:
            rows.append(csv_row(run_scenario(cfg), sid))
        except PipelineError as e:
            status = (
                "horizon_approach" if isinstance(e.cause, HorizonApproach) else f"error:{e.stage}"
            )
            rows.append(error_row(sid, status))
    return rows_to_csv(rows)


GUARD = 2.0 * (1 + 1e-6)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "r_values, tol, ok_rows",
    [
        ([10.0, 6.0, 2.5, GUARD * 1.001, GUARD * (1 + 1e-5), GUARD, 1.0], 1e-10, 3),
        ([10.0, 6.0, 2.5, GUARD * 1.001, GUARD * (1 + 1e-5), GUARD, 1.0], 1e-6, 3),
        # r^2 overflows at the emission event, so every row above the guard fails there
        ([1e200, 1e199, 1.0], 1e-10, 0),
    ],
)
def test_horizon_sweep_across_the_guard_matches_per_row_runs(r_values, tol, ok_rows):
    spec = MetricSpec("schwarzschild", mass=1.0, horizon_eps=1e-6)
    text = rows_to_csv(run_horizon_sweep(spec, r_values, tol=tol))
    assert text.count(",ok,") >= ok_rows
    assert text.count(",horizon_guard,") == sum(r <= GUARD for r in r_values)
    assert text == _horizon_reference(spec, r_values, tol)


def recording_paths(monkeypatch):
    """The paths a run integrates, in order, kept as scenario receives them."""
    paths = []

    def recording(*args, _original=scenario.integrate_geodesic, **kwargs):
        paths.append(_original(*args, **kwargs))
        return paths[-1]

    monkeypatch.setattr(scenario, "integrate_geodesic", recording)
    return paths


def test_demo_evaluates_metric_once_per_stored_point(monkeypatch):
    # per path: one domain check, one tangent classification, then one
    # metric stack shared by the drift and propagator checks and the summary
    from grbell import geodesics

    calls = []
    original = geodesics.metric_components

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(geodesics, "metric_components", counting)
    paths = recording_paths(monkeypatch)
    data = schwarzschild_demo_config()
    data["lhv_audit"] = False
    run_scenario(config_from_dict(data))
    assert len(paths) == 2
    assert len(calls) == sum(2 + len(path.taus) for path in paths)


def test_demo_transport_evaluates_no_metric(monkeypatch):
    # transport reads g at a leg's ends from the path's stored stack, so no
    # metric_components call in a run comes from grbell.transport
    import sys

    callers = []
    for name, module in list(sys.modules.items()):
        if name.startswith("grbell") and hasattr(module, "metric_components"):
            def counting(*args, _original=module.metric_components, **kwargs):
                callers.append(sys._getframe(1).f_globals["__name__"])
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "metric_components", counting)
    paths = recording_paths(monkeypatch)
    data = schwarzschild_demo_config()
    data["lhv_audit"] = False
    run_scenario(config_from_dict(data))
    assert callers.count("grbell.geodesics") == sum(2 + len(path.taus) for path in paths)
    assert "grbell.transport" not in callers


def test_csv_correlations_come_from_the_report():
    data = schwarzschild_demo_config()
    data["lhv_audit"] = False
    cfg = config_from_dict(data)
    report = run_scenario(cfg)
    ineq = report.inequality
    row = csv_row(report, "run")
    assert report.settings is cfg.settings
    assert [row["P_ab"], row["P_ac"], row["P_bc"]] == [
        format(p, ".17g") for p in (ineq.p_ab, ineq.p_ac, ineq.p_bc)
    ]
    assert ineq.lhs == abs(ineq.p_ab - ineq.p_ac)


def test_geodesic_stats_count_the_stepper_work_and_repeat_exactly(monkeypatch):
    paths = recording_paths(monkeypatch)
    data = schwarzschild_demo_config()
    data["lhv_audit"] = False
    first = scenario.report_to_json(run_scenario(config_from_dict(data)))
    second = scenario.report_to_json(run_scenario(config_from_dict(data)))
    assert first == second
    assert len(paths) == 4
    for path, again in zip(paths[:2], paths[2:]):
        assert (path.nfev, path.accepted, path.rejected) == (again.nfev, again.accepted, again.rejected)
        assert path.accepted == len(path.taus) - 1 > 0
        assert path.nfev == 2 + 6 * (path.accepted + path.rejected)
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


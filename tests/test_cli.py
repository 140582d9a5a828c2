import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from grbell import flat_baseline_config, schwarzschild_demo_config
from grbell.cli import EXIT_AUDIT, EXIT_CONFIG, EXIT_GEOMETRY, EXIT_OK, main
from grbell.scenario import CSV_HEADER


def write(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_run_text_format(tmp_path, capsys):
    code = main(["run", "--config", write(tmp_path, flat_baseline_config())])
    assert code == 0
    out = capsys.readouterr().out
    assert "VIOLATED" in out and "margin" in out


def test_run_text_format_reports_the_audit(capsys):
    config = os.path.join(CONFIGS, "schwarzschild_demo.json")
    assert main(["run", "--config", config]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "lhv audit         n=20000 seed=7 passed" in lines


def test_run_json_format(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "run", "--config", write(tmp_path, flat_baseline_config()),
        "--out", str(out), "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["inequality"]["violated"] is True
    assert abs(payload["inequality"]["margin"] - 0.5) < 1e-9


def test_run_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "run", "--config", write(tmp_path, flat_baseline_config()),
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2 and lines[1].startswith("run,ok,")


def test_missing_config_is_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_is_config_error(tmp_path, capsys):
    data = flat_baseline_config()
    data["origin"] = [0.0, 1.0]
    assert main(["run", "--config", write(tmp_path, data)]) == 2


@pytest.mark.parametrize(
    "field, value",
    [("tol", float("nan")), ("stop1.value", float("inf")), ("mc.n", float("inf"))],
)
def test_non_finite_value_is_config_error(tmp_path, capsys, field, value):
    # json writes these as the NaN and Infinity literals its parser accepts
    data = schwarzschild_demo_config()
    *parents, key = field.split(".")
    target = data
    for name in parents:
        target = target[name]
    target[key] = value
    assert main(["run", "--config", write(tmp_path, data)]) == 2
    assert "config error" in capsys.readouterr().err


def test_geometry_failure_exit_code(tmp_path, capsys):
    data = flat_baseline_config()
    data["metric"] = {"kind": "schwarzschild", "mass": 1.0}
    data["origin"] = [0.0, 10.0, math.pi / 2, 0.0]
    f = 0.8
    data["u1"] = [1.0 / math.sqrt(f), 0.0, 0.0, 0.0]
    data["u2"] = [1.0 / math.sqrt(f), 0.0, 0.0, 1e-4]
    data["stop1"] = {"kind": "proper_time", "value": 100.0}
    data["stop2"] = {"kind": "proper_time", "value": 100.0}
    assert main(["run", "--config", write(tmp_path, data)]) == 3
    assert "geodesic_1" in capsys.readouterr().err


SWAPPED_RUN = {
    "settings": {"a_deg": 30.0, "b_deg": 60.0, "c_deg": 120.0},
    "synthetic": {"w_b": 0.5, "b": [0, 1, 0], "w_c": 0.9, "c": [1, 0, 0]},
}


def test_swapped_run_reports_one_arm_order(tmp_path):
    # the config's b arm has the smaller weight: the inequality, the angle
    # test and the best setting all take c as the bound's b arm
    out = tmp_path / "report.json"
    code = main(["run", "--config", write(tmp_path, SWAPPED_RUN), "--out", str(out), "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    ineq, angles = report["inequality"], report["violation_angles"]
    assert ineq["swapped"] is True
    assert (ineq["w_b"], ineq["b_direction"], ineq["w_c"], ineq["c_direction"]) == (
        0.9, [1.0, 0.0, 0.0], 0.5, [0.0, 1.0, 0.0]
    )
    assert ineq["violated"] is False and angles["condition_holds"] is True
    assert angles["d"] == [0.81, -0.25, 0.0]
    norm = math.hypot(0.81, 0.25)
    assert angles["cos_theta"] == pytest.approx(0.81 / norm, abs=1e-15)
    assert report["best_setting"] == pytest.approx([0.81 / norm, -0.25 / norm, 0.0], abs=1e-15)
    assert report["best_margin"] == pytest.approx(norm - 0.81, abs=1e-15)


def test_sweep_deterministic_across_runs_and_workers(tmp_path):
    data = flat_baseline_config()
    data["sweep"] = {"parameter": "a_deg", "start": 0.0, "stop": 180.0, "step": 5.0}
    cfg = write(tmp_path, data)
    outs = []
    for i in range(3):
        out = tmp_path / f"sweep{i}.csv"
        code = main([
            "--quiet", "sweep", "--config", cfg, "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_horizon_command(tmp_path):
    out = tmp_path / "horizon.csv"
    code = main([
        "--quiet", "horizon", "--mass", "1.0",
        "--r-start", "10", "--r-end", "2.5", "--steps", "6", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    radii = [float(line.split(",")[0].split("=")[1]) for line in lines[1:]]
    assert radii == sorted(radii, reverse=True)


def test_small_mass_horizon_study_has_no_wrong_ok_rows(tmp_path):
    # the geometry is scale-free, so an ok row at M = 1e-160 must read what
    # the same row reads at M = 1; a leg snapped to its start would repeat
    # the emission row's w = 1 on every row
    rows = {}
    for mass, r_start, r_end in (("1e-160", "1e-159", "4e-160"), ("1", "10", "4")):
        out = tmp_path / f"horizon-{mass}.csv"
        argv = ["--quiet", "horizon", "--mass", mass, "--r-start", r_start,
                "--r-end", r_end, "--steps", "3", "--out", str(out)]
        assert main(argv) == EXIT_OK
        header, *lines = out.read_text().splitlines()
        rows[mass] = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows["1e-160"]) == len(rows["1"]) == 3
    # every leg, frame and transport runs in units of M, so no row sees the
    # subnormal r^2 of the caller's units
    for small, unit in zip(rows["1e-160"], rows["1"]):
        assert small["status"] == unit["status"] == "ok"
        for key in ("w_b", "w_c", "P_ab", "P_ac", "P_bc"):
            assert abs(float(small[key]) - float(unit[key])) <= 1e-13


def test_lhv_audit_command(tmp_path, capsys):
    data = schwarzschild_demo_config()
    data["mc"] = {"n": 5000, "seed": 1}
    data["lhv_audit"] = False
    code = main(["lhv-audit", "--config", write(tmp_path, data), "--n", "5000"])
    assert code == 0
    assert "audit passed" in capsys.readouterr().out


def test_seed_override_changes_audit_stream(tmp_path, capsys):
    data = schwarzschild_demo_config()
    data["lhv_audit"] = False
    cfg = write(tmp_path, data)
    main(["--seed", "5", "lhv-audit", "--config", cfg, "--n", "2000"])
    first = capsys.readouterr().out
    main(["--seed", "6", "lhv-audit", "--config", cfg, "--n", "2000"])
    second = capsys.readouterr().out
    assert first != second


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_json_report_byte_identical(tmp_path):
    cfg = write(tmp_path, schwarzschild_demo_config())
    blobs = []
    for i in range(2):
        out = tmp_path / f"rep{i}.json"
        assert main(["run", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_tol_override(tmp_path):
    data = flat_baseline_config()
    cfg = write(tmp_path, data)
    out = tmp_path / "r.json"
    assert main(["--tol", "1e-8", "run", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["tol"] == 1e-8


# a later flag overrides the same flag earlier on the command line
@pytest.mark.parametrize(
    "flag, value",
    [
        ("--mass", "nan"), ("--mass", "-1"), ("--r-start", "inf"),
        ("--tol", "nan"), ("--steps", "1000000000"), ("--r-start", "2.5"), ("--r-end", "11"),
    ],
)
def test_horizon_bad_number_is_config_error(tmp_path, capsys, flag, value):
    out = tmp_path / "horizon.csv"
    argv = ["--quiet", "horizon", "--mass", "1.0", "--r-start", "10", "--r-end", "2.5",
            "--steps", "3", "--out", str(out), flag, value]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# the tangent's kind comes from u.u; the stop snap, the tau cap and the
# horizon guard are constants. Each value is the key's old default.
@pytest.mark.parametrize(
    "block, key, value",
    [
        (None, "worldline", "timelike"),
        ("stop1", "tolerance", 1e-10),
        ("stop2", "tolerance", 1e-10),
        ("stop1", "max_tau", 100.0),
        ("stop2", "max_tau", 100.0),
        ("metric", "horizon_eps", 1e-6),
    ],
)
def test_removed_config_keys_are_config_errors(tmp_path, capsys, block, key, value):
    data = schwarzschild_demo_config()
    (data if block is None else data[block])[key] = value
    field = key if block is None else f"{block}.{key}"
    assert main(["run", "--config", write(tmp_path, data)]) == EXIT_CONFIG
    assert f"config error: {field}: unknown field" in capsys.readouterr().err


def test_horizon_eps_flag_is_an_argument_error(tmp_path, capsys):
    argv = ["--quiet", "horizon", "--mass", "1.0", "--r-start", "10", "--r-end", "2.5",
            "--steps", "3", "--out", str(tmp_path / "horizon.csv"), "--horizon-eps", "1e-6"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --horizon-eps" in capsys.readouterr().err


@pytest.mark.parametrize("frame", ["static", "comoving"])
def test_past_pointing_tangent_is_config_error(tmp_path, capsys, frame):
    data = schwarzschild_demo_config()
    data["u1"] = [-x for x in data["u1"]]
    data["frame_choice"] = frame
    assert main(["run", "--config", write(tmp_path, data)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: u1: " in err and "future-pointing" in err


def test_null_tangents_are_checked_at_parse_time_by_the_integrator_rule(tmp_path, capsys):
    # u.u = 1e-4 is within 1e-9 max|u|^2 = 0.1 but not within the
    # integrator's 1e-8, so it is refused when the config is parsed
    data = flat_baseline_config()
    data["u1"] = [1e4, 1e4, 0.0, 0.0]
    data["u2"] = [1e4, -1e4, 0.0, 0.0]
    assert main(["run", "--config", write(tmp_path, data)]) == EXIT_OK
    data["u1"][1] *= 1.0 + 5e-13
    assert main(["run", "--config", write(tmp_path, data)]) == EXIT_CONFIG
    assert "config error: u1: u.u = " in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("size", [1e-10, 1e-20, 1e-300])
def test_a_tangent_too_small_to_be_timelike_or_null_is_config_error(tmp_path, capsys, size):
    # u.u = -f size^2 is not within 1e-9 size^2 of 0, or underflows with it;
    # such a u once passed as null and its frame failed to invert
    data = schwarzschild_demo_config()
    data["u1"] = [size, 0.0, 0.0, 0.0]
    config = write(tmp_path, data)
    for argv in (
        ["run", "--config", config],
        ["--quiet", "sweep", "--config", config, "--out", str(tmp_path / "out.csv")],
        ["lhv-audit", "--config", config],
    ):
        assert main(argv) == EXIT_CONFIG
        assert "config error: u1: u.u = " in capsys.readouterr().err


# scipy would integrate a tol below 100 eps at 100 eps, with a warning
@pytest.mark.parametrize("command", ["run", "run-config", "horizon"])
def test_tol_below_the_integrator_floor_is_config_error(tmp_path, capsys, command):
    data = flat_baseline_config()
    if command == "run-config":
        data["tol"] = 1e-300
        argv = ["run", "--config", write(tmp_path, data)]
    elif command == "run":
        argv = ["--tol", "1e-300", "run", "--config", write(tmp_path, data)]
    else:
        argv = ["--tol", "1e-300", "--quiet", "horizon", "--mass", "1.0", "--r-start", "10",
                "--r-end", "2.5", "--steps", "3", "--out", str(tmp_path / "horizon.csv")]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


# each value is rejected before anything of its size is allocated
def test_mc_n_cap_is_config_error(tmp_path, capsys):
    data = schwarzschild_demo_config()
    data["mc"] = {"n": 10_000_000_000_000, "seed": 0}
    assert main(["run", "--config", write(tmp_path, data)]) == 2
    data["lhv_audit"] = False
    data["mc"]["n"] = 1000
    cfg = write(tmp_path, data)
    assert main(["lhv-audit", "--config", cfg, "--n", "10000000000000"]) == 2
    assert "mc.n" in capsys.readouterr().err


def test_sweep_row_cap_is_config_error(tmp_path, capsys):
    data = flat_baseline_config()
    data["sweep"] = {"parameter": "a_deg", "start": 0.0, "stop": 180.0, "step": 1e-12}
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write(tmp_path, data), "--out", str(out)]) == 2
    assert "rows" in capsys.readouterr().err
    assert not out.exists()


def _limit_address_space():
    # a list that grows without end then fails with MemoryError in the child
    # instead of taking the machine's memory until the timeout
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "start, step, field",
    [
        # start + n step rounds back to start for n up to about 1e284
        (1e300, 1.0, "sweep.step"),
        # 1e11 rows to stop = 1e-9, a list that outgrows memory without the row cap
        (0.0, 1e-20, "sweep"),
    ],
)
def test_a_sweep_that_would_not_end_is_config_error(tmp_path, start, step, field):
    data = flat_baseline_config()
    stop = start + 1e11 * step  # rounds back to start = 1e300
    data["sweep"] = {"parameter": "a_deg", "start": start, "stop": stop, "step": step}
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1")
    argv = ["sweep", "--config", write(tmp_path, data), "--out", str(tmp_path / "s.csv")]
    proc = subprocess.run(
        [sys.executable, "-m", "grbell.cli", *argv], env=env, capture_output=True, text=True,
        timeout=30, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert f"config error: {field}: " in proc.stderr


def test_lhv_audit_reuses_the_run_audit(tmp_path, capsys, monkeypatch):
    from grbell import cli, scenario

    calls = []
    for module in (scenario, cli):
        if hasattr(module, "lhv_inequality_audit"):
            original = module.lhv_inequality_audit

            def counting(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "lhv_inequality_audit", counting)
    data = schwarzschild_demo_config()
    assert data["lhv_audit"] is True
    assert main(["lhv-audit", "--config", write(tmp_path, data), "--n", "2000"]) == 0
    assert "audit passed" in capsys.readouterr().out
    assert len(calls) == 1


def test_run_needs_no_scipy():
    # the package runs on numpy alone: scipy is made unimportable first
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from grbell.cli import main\n"
        "raise SystemExit(main(['run', '--config', 'configs/schwarzschild_demo.json']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "lhv audit" in proc.stdout


# -- exit-code contract under arbitrary field values ---------------------------

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _field_paths(value, prefix=()):
    """Every key or list index of a JSON document, nested ones included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, prefix + (key,))


def _fuzz_documents():
    with open(os.path.join(CONFIGS, "synthetic_weights.json"), encoding="utf-8") as fh:
        synthetic = json.load(fh)
    # copies that carry the Monte Carlo block and the audit switch, so those
    # fields are fuzzed too; n = 100 keeps each audit cheap
    audited = [
        {**base, "mc": {"n": 100, "seed": 0}, "lhv_audit": True}
        for base in (flat_baseline_config(), synthetic)
    ]
    # the demo's legs cut at tau = 1 with the audit off, so its parse
    # paths (metric, origin, tangents, stops) are fuzzed at a few ms each
    schwarzschild = {
        **schwarzschild_demo_config(),
        "stop1": {"kind": "proper_time", "value": 1.0},
        "stop2": {"kind": "proper_time", "value": 1.0},
        "lhv_audit": False,
    }
    # the same legs read out in comoving tetrads built from each path's end
    comoving = {**schwarzschild, "frame_choice": "comoving"}
    return [flat_baseline_config(), synthetic, schwarzschild, comoving, *audited]


FUZZ_DOCUMENTS = _fuzz_documents()
FUZZ_BASES = [(base, path) for base in FUZZ_DOCUMENTS for path in _field_paths(base)]

json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=12)
    | st.integers() | st.sampled_from([10**400, -(10**400), 2**63])
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


# derandomized so that every run of the suite checks the same examples; the
# step budget bounds each run, so no per-example deadline is needed
@settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(base_and_path=st.sampled_from(FUZZ_BASES), value=json_values)
def test_any_field_value_gives_an_exit_code(tmp_path, monkeypatch, base_and_path, value):
    from grbell import geodesics

    # a stop that is never reached fails after 200 steps, not 50 000
    monkeypatch.setattr(geodesics, "MAX_STEPS", 200)
    base, path = base_and_path
    data = json.loads(json.dumps(base))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    out = tmp_path / "report.txt"
    code = main(["run", "--config", write(tmp_path, data), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_GEOMETRY, EXIT_AUDIT)


# each fuzz base with a short a_deg sweep, so that the sweep command has rows
# to write and the sweep block is fuzzed too
WHOLE_BASES = [
    {**base, "sweep": {"parameter": "a_deg", "start": 0.0, "stop": 90.0, "step": 45.0}}
    for base in FUZZ_DOCUMENTS
]


@st.composite
def edited_documents(draw):
    """A fuzz base and 1 to 4 edits (path, value) of its fields and list elements."""
    base = draw(st.sampled_from(WHOLE_BASES))
    edit = st.tuples(st.sampled_from(list(_field_paths(base))), st.floats(-400.0, 400.0) | json_values)
    return base, draw(st.lists(edit, min_size=1, max_size=4))


def _edited(base, edits):
    """base with each edit applied in turn; an edit whose path an earlier one removed is skipped."""
    data = json.loads(json.dumps(base))
    for path, value in edits:
        target = data
        for key in path[:-1]:
            target = target[key] if _has(target, key) else None
        if target is not None and (isinstance(target, dict) or _has(target, path[-1])):
            target[path[-1]] = value
    return data


def _has(container, key) -> bool:
    if isinstance(container, dict):
        return key in container
    return isinstance(container, list) and isinstance(key, int) and key < len(container)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(document=edited_documents())
# u.u of the demo's first tangent overflows
@example(document=(WHOLE_BASES[2], [(("u1", 3), 1e300)]))
def test_any_edited_document_gives_an_exit_code_in_every_command(tmp_path, monkeypatch, document):
    from grbell import geodesics

    monkeypatch.setattr(geodesics, "MAX_STEPS", 200)
    config = write(tmp_path, _edited(*document))
    out = str(tmp_path / "out")
    commands = [["run", "--config", config, "--out", out, "--format", f] for f in ("text", "csv", "json")]
    commands += [
        ["--quiet", "sweep", "--config", config, "--out", out],
        ["lhv-audit", "--config", config, "--n", "1000"],
    ]
    for argv in commands:
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_GEOMETRY, EXIT_AUDIT)


@st.composite
def _boosted_tangents(draw, f, r, theta):
    """A tangent boosted from the static observer at (r, theta), where the
    metric's g_tt is -f: timelike at a speed below 1, or null at an energy,
    along a random direction or an exactly radial one, (+-1, +-0.0, +-0.0)."""
    zero = st.sampled_from([0.0, -0.0])
    n = np.array(draw(
        st.tuples(*[st.floats(-1.0, 1.0)] * 3) | st.tuples(st.sampled_from([1.0, -1.0]), zero, zero)
    ))
    norm = np.linalg.norm(n)
    n = n / norm if norm > 1e-3 else np.array([1.0, 0.0, 0.0])
    speed = draw(st.sampled_from([0.0, 0.5, 0.99, 1.0]) | st.floats(0.0, 0.9999))
    scale = draw(st.floats(0.1, 10.0)) if speed == 1.0 else 1.0 / math.sqrt(1.0 - speed * speed)
    static_legs = [1.0 / math.sqrt(f), math.sqrt(f), 1.0 / r, 1.0 / (r * math.sin(theta))]
    return [float(x) for x in scale * np.array(static_legs) * np.array([1.0, *(speed * n)])]


@st.composite
def schwarzschild_documents(draw):
    """A whole Schwarzschild document: mass, origin, boosted tangents (null
    ones too), stops of every kind in units of M (below the guard and
    unreachable ones too), a frame choice, settings, an audit and a sweep."""
    mass = draw(st.sampled_from([1.0, 1e-30, 1e30]) | st.floats(1e-3, 1e3))
    r_over_m = draw(st.sampled_from([2.0, 2.000003, 3.0]) | st.floats(2.0, 1e4))
    theta = draw(st.sampled_from([1e-8, math.pi / 2]) | st.floats(0.01, math.pi - 0.01))
    f = max(1.0 - 2.0 / r_over_m, 1e-300)  # an origin at the guard is refused by the parser
    r = r_over_m * mass
    u1 = draw(_boosted_tangents(f, r, theta))
    if draw(st.integers(0, 7)) == 0:
        # a tangent scaled by 2^-k: a timelike one is then neither timelike nor null
        scale = 2.0 ** -draw(st.integers(1, 1000))
        u1 = [x * scale for x in u1]
    # u1 and u2 closer than 1e-12 are one geodesic, which the parser refuses
    u2 = draw(_boosted_tangents(f, r, theta).filter(lambda u: np.max(np.abs(np.subtract(u, u1))) > 1e-12))
    # a stop at -1 or 1e4 M is unreachable, below the guard, or refused by the parser
    stop = st.tuples(
        st.sampled_from(["proper_time", "radius", "coordinate_time"]),
        st.floats(0.0, 40.0) | st.sampled_from([-1.0, 1.0, 1e4]),
    ).map(lambda kv: {"kind": kv[0], "value": kv[1] * mass})
    angle = st.floats(-360.0, 360.0)
    return {
        "metric": {"kind": "schwarzschild", "mass": mass},
        "origin": [draw(st.floats(-10.0, 10.0)) * mass, r, theta, draw(st.floats(-7.0, 7.0))],
        "u1": u1,
        "u2": u2,
        "stop1": draw(stop),
        "stop2": draw(stop),
        "frame_choice": draw(st.sampled_from(["static", "comoving"])),
        "settings": {"a_deg": draw(angle), "b_deg": draw(angle), "c_deg": draw(angle)},
        "tol": draw(st.sampled_from([1e-10, 1e-6, 1e-3])),
        "mc": {"n": 1000, "seed": draw(st.integers(0, 2**32))},
        "lhv_audit": draw(st.booleans()),
        "sweep": {"parameter": draw(st.sampled_from(["a_deg", "b_deg", "c_deg"])),
                  "start": 0.0, "stop": 90.0, "step": 45.0},
    }


def _radial_infall_document(mass):
    """Exactly radial legs at r = 10 M, inward to radius stops, with signed
    zeros: a timelike one at speed 0.5 and a null one."""
    f, gamma = 0.8, 1.0 / math.sqrt(0.75)
    return {
        "metric": {"kind": "schwarzschild", "mass": mass},
        "origin": [0.0, 10.0 * mass, math.pi / 2, 0.0],
        "u1": [gamma / math.sqrt(f), -0.5 * gamma * math.sqrt(f), -0.0, -0.0],
        "u2": [1.0 / math.sqrt(f), -math.sqrt(f), 0.0, -0.0],
        "stop1": {"kind": "radius", "value": 3.0 * mass},
        "stop2": {"kind": "radius", "value": 2.5 * mass},
        "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
        "mc": {"n": 1000, "seed": 7},
        "lhv_audit": True,
        "sweep": {"parameter": "b_deg", "start": 0.0, "stop": 90.0, "step": 45.0},
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(
    max_examples=80, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(document=schwarzschild_documents())
@example(document=_radial_infall_document(1.0))
@example(document=_radial_infall_document(1e30))
def test_any_schwarzschild_document_gives_an_exit_code_in_every_command(tmp_path, monkeypatch, document):
    from grbell import geodesics

    monkeypatch.setattr(geodesics, "MAX_STEPS", 200)
    config = write(tmp_path, document)
    out = str(tmp_path / "out")
    commands = [["run", "--config", config, "--out", out, "--format", f] for f in ("text", "csv", "json")]
    commands += [
        ["--quiet", "sweep", "--config", config, "--out", out],
        ["lhv-audit", "--config", config, "--n", "1000"],
    ]
    for argv in commands:
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_GEOMETRY, EXIT_AUDIT)


@st.composite
def flat_documents(draw):
    """A whole flat document: an origin, boosted tangents (null ones too),
    stops of every kind (unreachable ones too), a frame choice, settings,
    an audit and a sweep."""
    # the static legs at f = 1, r = 1, theta = pi/2 are the Cartesian unit vectors
    tangents = _boosted_tangents(1.0, 1.0, math.pi / 2)
    u1 = draw(tangents)
    # u1 and u2 closer than 1e-12 are one geodesic, which the parser refuses
    u2 = draw(tangents.filter(lambda u: np.max(np.abs(np.subtract(u, u1))) > 1e-12))
    # a negative radius is refused and a radius the line never meets is unreachable
    stop = st.tuples(
        st.sampled_from(["proper_time", "radius", "coordinate_time"]),
        st.floats(-1.0, 40.0) | st.sampled_from([0.0, 1e-12, 1e4, 1e300]),
    ).map(lambda kv: {"kind": kv[0], "value": kv[1]})
    angle = st.floats(-360.0, 360.0)
    return {
        "metric": {"kind": "minkowski"},
        "origin": list(draw(st.tuples(*[st.floats(-1e3, 1e3)] * 4))),
        "u1": u1,
        "u2": u2,
        "stop1": draw(stop),
        "stop2": draw(stop),
        "frame_choice": draw(st.sampled_from(["static", "comoving"])),
        "settings": {"a_deg": draw(angle), "b_deg": draw(angle), "c_deg": draw(angle)},
        "tol": draw(st.sampled_from([1e-10, 1e-6, 1e-3])),
        "mc": {"n": 1000, "seed": draw(st.integers(0, 2**32))},
        "lhv_audit": draw(st.booleans()),
        "sweep": {"parameter": draw(st.sampled_from(["a_deg", "b_deg", "c_deg"])),
                  "start": 0.0, "stop": 90.0, "step": 45.0},
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(document=flat_documents())
def test_any_flat_document_gives_an_exit_code_in_every_command(tmp_path, document):
    config = write(tmp_path, document)
    out = str(tmp_path / "out")
    commands = [["run", "--config", config, "--out", out, "--format", f] for f in ("text", "csv", "json")]
    commands += [
        ["--quiet", "sweep", "--config", config, "--out", out],
        ["lhv-audit", "--config", config, "--n", "1000"],
    ]
    for argv in commands:
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_GEOMETRY, EXIT_AUDIT)


@st.composite
def horizon_flags(draw):
    """The horizon command's flags: a mass from 2^-300 to 1e300, radii in
    units of M (some at or below the guard), 1 to 40 steps and a tol."""
    mass = draw(st.sampled_from([2.0**-300, 1e-160, 1.0, 1e300]) | st.floats(2.0**-300, 1e300))
    radius = st.sampled_from([1.0, 2.0, 2.000003, 4.0]) | st.floats(1.0, 100.0)
    r_end, r_start = sorted([draw(radius), draw(radius)])
    return [
        "--tol", repr(draw(st.sampled_from([1e-10, 1e-6, 1e-3]))), "--quiet", "horizon",
        "--mass", repr(mass), "--r-start", repr(r_start * mass), "--r-end", repr(r_end * mass),
        "--steps", str(draw(st.integers(1, 40))),
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(flags=horizon_flags())
def test_any_horizon_flags_give_an_exit_code(tmp_path, monkeypatch, flags):
    from grbell import geodesics

    monkeypatch.setattr(geodesics, "MAX_STEPS", 200)
    assert main([*flags, "--out", str(tmp_path / "horizon.csv")]) in (EXIT_OK, EXIT_CONFIG, EXIT_GEOMETRY)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mass, t, r, stop", [
    (1e-300, 1e10, 10.0, None),  # t = 1e310 M and r = 1e301 M, whose r^2 is inf
    (1e-300, 1e10, 10.0, {"kind": "coordinate_time", "value": 2e10}),  # the stop is inf M too
    (1e-300, 0.0, 1e100, {"kind": "radius", "value": 2e100}),
    (1e-10, 1e300, 10.0, {"kind": "coordinate_time", "value": 1e300}),
])
def test_an_origin_beyond_the_floats_in_units_of_m_gives_an_exit_code(tmp_path, mass, t, r, stop):
    f = 1.0 - 2.0 * mass / r
    data = {**schwarzschild_demo_config(), "metric": {"kind": "schwarzschild", "mass": mass},
            "origin": [t, r, math.pi / 2, 0.0], "lhv_audit": False,
            "u1": [1.0 / math.sqrt(f), 0.0, 0.0, 0.0], "u2": [1.2 / f, math.sqrt(1.44 - f), 0.0, 0.0]}
    if stop is not None:
        data["stop1"] = stop
    for fmt in ("json", "csv"):
        argv = ["run", "--config", write(tmp_path, data), "--out", str(tmp_path / "out"), "--format", fmt]
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_GEOMETRY)


def _scale_range(document) -> tuple[int, int]:
    """The k for which the square of each nonzero length (t, r, r sin theta,
    the stops) and angular rate of document lies within 2^-1000 and 2^1000
    at 2^k times its mass; (0, 0) if no k does."""
    t, r, theta, _ = document["origin"]
    stops = [document[key]["value"] for key in ("stop1", "stop2")]
    lo, hi = -2000, 2000
    for length in (t, r, r * math.sin(theta), *stops):
        if length != 0.0:
            e = math.frexp(length)[1]
            lo, hi = max(lo, -500 - e), min(hi, 500 - e)
    for rate in (u[i] for u in (document["u1"], document["u2"]) for i in (2, 3)):
        if rate != 0.0:
            e = math.frexp(rate)[1]
            lo, hi = max(lo, e - 500), min(hi, e + 500)
    return (lo, hi) if lo <= hi else (0, 0)


def _scaled(document, k: int, t0: float, phi0: float) -> dict:
    """document at 2^k times its mass, translated by t0 M in t and by phi0 in
    phi: t, r and the stops times 2^k, u^theta and u^phi over it."""
    s, M = 2.0**k, document["metric"]["mass"]
    t, r, theta, phi = document["origin"]
    out = json.loads(json.dumps(document))
    out["metric"]["mass"] = M * s
    out["origin"] = [(t + t0 * M) * s, r * s, theta, phi + phi0]
    for key in ("u1", "u2"):
        ut, ur, uth, uph = document[key]
        out[key] = [ut, ur, uth / s, uph / s]
    for key in ("stop1", "stop2"):
        out[key]["value"] = document[key]["value"] * s
    return out


@st.composite
def scaled_documents(draw):
    """A whole Schwarzschild document, a power of two k within its range, and
    a translation t0 (in units of M), phi0. A coordinate-time stop would have
    to move with t0, and that sum rounds (1000 + s - 1000 is not s), so a
    document with one is translated in phi only."""
    document = draw(schwarzschild_documents())
    k = draw(st.integers(*_scale_range(document)))
    t0, phi0 = draw(st.sampled_from([(0.0, 0.0), (1000.0, 1.0)]) | st.tuples(
        st.floats(-1e3, 1e3), st.floats(-7.0, 7.0)))
    if "coordinate_time" in (document["stop1"]["kind"], document["stop2"]["kind"]):
        t0 = 0.0
    return document, k, t0, phi0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=scaled_documents())
def test_a_scaled_and_translated_document_gives_the_same_results(tmp_path, monkeypatch, case):
    # M is the metric's one scale and t, phi its Killing coordinates, and a
    # leg runs in units of M from its start, so at M = 2^k the dimensionless
    # results are the same bits and the geodesic summaries scale exactly
    from grbell import geodesics

    monkeypatch.setattr(geodesics, "MAX_STEPS", 200)
    document, k, t0, phi0 = case
    results = []
    for name, data in (("one", document), ("two", _scaled(document, k, t0, phi0))):
        config, out = write(tmp_path, data, f"{name}.json"), tmp_path / f"{name}.csv"
        out.unlink(missing_ok=True)
        code = main(["run", "--config", config, "--out", str(out), "--format", "csv"])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_GEOMETRY, EXIT_AUDIT)
        report = tmp_path / f"{name}.out.json"
        main(["run", "--config", config, "--out", str(report), "--format", "json"])
        results.append((code, out.read_text() if out.exists() else None,
                        json.loads(report.read_text()) if code == EXIT_OK else None))
    (code_1, csv_1, json_1), (code_2, csv_2, json_2) = results
    assert code_2 == code_1 and csv_2 == csv_1
    if code_1 == EXIT_OK and (t0, phi0) == (0.0, 0.0):
        s = 2.0**k
        for label in ("geodesic_1", "geodesic_2"):
            one, two = json_1[label], json_2[label]
            assert two["tau_end"] == one["tau_end"] * s
            t, r, theta, phi = one["endpoint"]
            assert two["endpoint"] == [t * s, r * s, theta, phi]


def test_horizon_at_loose_tol_gives_ok_rows(tmp_path):
    out = tmp_path / "horizon.csv"
    code = main([
        "--tol", "1e-3", "--quiet", "horizon", "--mass", "1",
        "--r-start", "10", "--r-end", "6", "--steps", "2", "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["r=10", "ok"], ["r=6", "ok"]]


def test_horizon_at_loose_tol_reaches_the_guard_with_ok_rows(tmp_path):
    out = tmp_path / "horizon.csv"
    code = main([
        "--tol", "1e-3", "--quiet", "horizon", "--mass", "1",
        "--r-start", "10", "--r-end", "2.000003", "--steps", "40", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert [row.split(",")[1] for row in out.read_text().splitlines()[1:]] == ["ok"] * 40


@pytest.mark.parametrize("tol", [10.0**-k for k in range(3, 11)])
def test_comoving_readout_of_a_radial_infall_runs(tmp_path, tol):
    # particle 2 falls radially from rest to r = 2.01 (gamma 12.7 against
    # the static frame there) and is read out in its own frame
    data = schwarzschild_demo_config()
    data.update(
        frame_choice="comoving", lhv_audit=False, tol=tol,
        u2=[1.0 / math.sqrt(0.8), 0.0, 0.0, 0.0], stop2={"kind": "radius", "value": 2.01},
    )
    assert main(["--quiet", "run", "--config", write(tmp_path, data)]) == EXIT_OK


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("stop2", {"kind": "radius", "value": -1}, "stop2.value: target must be non-negative"),
        ("stop2", {"kind": "radius", "value": 0}, "stop2.value: radius target must be positive"),
        ("stop1", {"kind": "angle", "value": 1}, "stop1.kind: unknown kind 'angle'"),
        ("origin", [0.0, 10.0, 4.0, 0.0], "origin: theta = 4.0 outside (0, pi)"),
        # r^2 overflows: the origin is refused, not its tangents' NaN norms
        ("origin", [0.0, 1e200, math.pi / 2, 0.0], "origin: angular metric components inf"),
        # u.u overflows: the tangent is refused by name
        ("u1", [1.1952286093343936, 0.0, 0.0, 1e300], "u1: u.u = inf"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_bad_stop_is_named_in_its_error(tmp_path, capsys, field, value, message):
    data = schwarzschild_demo_config()
    data[field] = value
    assert main(["run", "--config", write(tmp_path, data)]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err


def test_repeated_runs_leave_no_reference_cycles(tmp_path):
    # cyclic garbage outlives a call until a full collection, so a process
    # that calls main() in a loop (the benchmark does) would keep growing
    import gc

    data = flat_baseline_config()
    data["sweep"] = {"parameter": "a_deg", "start": 0.0, "stop": 180.0, "step": 5.0}
    argv = ["--quiet", "sweep", "--config", write(tmp_path, data), "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 0
    gc.collect()
    assert main(argv) == 0
    assert gc.collect() == 0


NOT_NUMBERS = {
    "settings": {"a_deg": "0", "b_deg": True, "c_deg": 120},
    "synthetic": {"w_b": True, "b": [1, 0, 0], "w_c": "0.5", "c": [0, 1, 0]},
}


@pytest.mark.parametrize(
    "block, key, value",
    [
        (None, None, None),  # every field at once: the first one parsed is named
        ("settings", "a_deg", "0"),
        ("settings", "b_deg", True),
        ("synthetic", "w_b", True),
        ("synthetic", "w_c", "0.5"),
        ("synthetic", "b", [True, 0, 0]),
        ("synthetic", "c", ["0", 1, 0]),
    ],
)
def test_config_fields_that_are_not_numbers_are_config_errors(tmp_path, capsys, block, key, value):
    if block is None:
        data, field = NOT_NUMBERS, "synthetic.w_b"
    else:
        data = {
            "settings": {"a_deg": 0, "b_deg": 60, "c_deg": 120},
            "synthetic": {"w_b": 0.9, "b": [1, 0, 0], "w_c": 0.5, "c": [0, 1, 0]},
        }
        data[block][key] = value
        field = f"{block}.{key}"
    assert main(["--quiet", "run", "--config", write(tmp_path, data), "--format", "csv"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and field in err


SYNTHETIC = {
    "settings": {"a_deg": 0, "b_deg": 60, "c_deg": 120},
    "synthetic": {"w_b": 0.9, "b": [1, 0, 0], "w_c": 0.5, "c": [0, 1, 0]},
}


@pytest.mark.parametrize(
    "extra, field",
    [
        ({"mc": {"seed": -5}}, "mc.seed"),
        ({"mc": {"seed": True}}, "mc.seed"),
        ({"mc": {"seed": 7.0}}, "mc.seed"),
        ({"mc": {"n": "1000"}}, "mc.n"),
        ({"mc": {"n": 1000.7}}, "mc.n"),
        ({"mc": {"n": False}}, "mc.n"),
        ({"mc": {"n": "1000", "seed": True}, "lhv_audit": "no"}, "mc.n"),
        ({"lhv_audit": "no"}, "lhv_audit"),
        ({"lhv_audit": 1}, "lhv_audit"),
        ({"tol": 10**400}, "tol"),
        ({"settings": {"a_deg": -(10**400), "b_deg": 60, "c_deg": 120}}, "settings.a_deg"),
        ({"synthetic": {**SYNTHETIC["synthetic"], "c": [10**400, 0, 0]}}, "synthetic.c"),
        ({"settings": {"a": [1e308, 1e308, 0], "b": [0, 1, 0], "c": [0, 0, 1]}}, "settings.a"),
        ({"settings": {"a": [1, 0, 0], "b": [0, 0, 0], "c": [0, 0, 1]}}, "settings.b"),
    ],
)
def test_integer_boolean_and_huge_fields_are_config_errors(tmp_path, capsys, extra, field):
    data = {**SYNTHETIC, **extra}
    assert main(["--quiet", "run", "--config", write(tmp_path, data)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {field}:" in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--seed", "-3", "run"], "mc.seed"),
        (["run", "--seed", "-1"], "mc.seed"),
        (["lhv-audit", "--seed", "-3"], "mc.seed"),
        (["lhv-audit", "--n", "-3"], "mc.n"),
    ],
)
def test_negative_seed_or_n_override_is_config_error(capsys, argv, field):
    config = os.path.join(CONFIGS, "schwarzschild_demo.json")
    assert main([*argv, "--config", config]) == EXIT_CONFIG
    assert f"config error: {field}:" in capsys.readouterr().err


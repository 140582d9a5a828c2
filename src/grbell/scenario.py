"""End-to-end scenarios: config, pipeline, sweeps, and CSV reports.

A scenario emits two particles at a common event O, integrates their
geodesics to detection events L and R, embeds the right-hand measurement
settings b and c in a tetrad at R, carries them along R -> O -> L, projects
them in the tetrad at L, and evaluates the correlation and the three-setting
inequality. A synthetic mode bypasses the geometry and feeds (w, direction)
pairs straight into the correlation layer.

Config files are strict JSON; unknown keys are rejected. Angles are degrees
in configs and CSV columns, radians internally. Geometry scenario:

    {
      "metric": {"kind": "schwarzschild", "mass": 1.0},
      "origin": [0.0, 10.0, 1.5707963267948966, 0.0],
      "u1": [...], "u2": [...],
      "stop1": {"kind": "proper_time", "value": 20.0},
      "stop2": {"kind": "proper_time", "value": 20.0},
      "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
      "frame_choice": "static",
      "tol": 1e-10,
      "mc": {"n": 100000, "seed": 0},
      "lhv_audit": false
    }

Synthetic mode replaces the geometry block with
    "synthetic": {"w_b": 0.9, "b": [1,0,0], "w_c": 0.8, "c": [0.5,0.866,0]}
and an optional "sweep" block {"parameter", "start", "stop", "step"} drives
row generation for the sweep command.

The settings a, b and c are chosen at the detectors and do not enter the
geodesics, the detector tetrads or the R -> O -> L propagator, so the
pipeline runs in two steps: the geometry (both geodesics and both detector
frames), then the settings-dependent stages (embedding, transport,
projection, inequality, optional LHV audit). Every row of a sweep or of
the horizon study runs those stages on a shared geometry: a sweep integrates
its geometry once, and the horizon study builds its emission side once.
"""
from __future__ import annotations

import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .correlations import (
    InequalityReport,
    SettingsTriple,
    ViolationAngles,
    find_max_violation,
    generalized_bell_check,
    violation_condition,
)
from .errors import (
    DegenerateD,
    HorizonApproach,
    ParseError,
    PipelineError,
    SimulatorError,
    ValidationError,
)
from .frames import (
    Direction3,
    LocalFrame,
    ProjectionResult,
    build_comoving_frame,
    build_static_frame,
    embed_direction,
    make_projection,
    project_to_frame,
)
from .geodesics import GeodesicPath, StopCondition, integrate_geodesic
from .geometry import (
    MINKOWSKI,
    SCHWARZSCHILD,
    FourVector,
    MetricSpec,
    SpacetimePoint,
    metric_components,
)
from .lhv import LHVAuditReport, lhv_inequality_audit, make_sign_model
from .transport import transport_R_to_L

CSV_HEADER = (
    "scenario_id,status,theta_ab_deg,theta_ac_deg,theta_bc_deg,"
    "w_b,w_c,P_ab,P_ac,P_bc,lhs,rhs,margin,violated"
)
CSV_COLUMNS = CSV_HEADER.split(",")

DEFAULT_TOL = 1e-10
# below 100 machine epsilons the rounding of each step's update is a sizeable
# share of the local error the stepper controls, so its error control could
# not honour a smaller tol; such a tol is refused rather than quietly missed
MIN_TOL = 100.0 * float(np.finfo(float).eps)
DEFAULT_MC_N = 100_000
DEFAULT_MC_SEED = 0

FRAME_STATIC = "static"
FRAME_COMOVING = "comoving"

ANGLE_SWEEP_PARAMETERS = ("a_deg", "b_deg", "c_deg")
SWEEP_PARAMETERS = ANGLE_SWEEP_PARAMETERS + ("w", "w_b", "w_c")

# caps on the work one config may ask for, checked before anything is allocated
MAX_MC_N = 10_000_000
MAX_ROWS = 100_000

_GEOMETRY_KEYS = {"metric", "origin", "u1", "u2", "stop1", "stop2", "frame_choice"}
_TOP_KEYS = _GEOMETRY_KEYS | {
    "settings",
    "worldline",
    "tol",
    "mc",
    "lhv_audit",
    "synthetic",
    "sweep",
}


@dataclass(frozen=True, eq=False)
class SyntheticProjections:
    proj_b: ProjectionResult
    proj_c: ProjectionResult


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.step == 0.0:
            raise ValidationError("sweep.step", "must be nonzero")
        # values() stops after about span + 1 rows; inf and NaN fail too
        span = (self.stop - self.start) / self.step
        if not span < MAX_ROWS:
            raise ValidationError("sweep", f"asks for more than {MAX_ROWS} rows")

    def values(self) -> list[float]:
        sign = 1.0 if self.step > 0 else -1.0  # negation is exact
        eps = 1e-9 * max(1.0, abs(self.step))
        out = []
        v = self.start
        while sign * v <= sign * self.stop + eps:
            out.append(v)
            v = self.start + len(out) * self.step
        return out


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    settings: SettingsTriple
    frame_choice: str
    tol: float
    mc_n: int
    mc_seed: int
    lhv_audit: bool
    metric: MetricSpec | None = None
    origin: SpacetimePoint | None = None
    u1: FourVector | None = None
    u2: FourVector | None = None
    stop1: StopCondition | None = None
    stop2: StopCondition | None = None
    synthetic: SyntheticProjections | None = None
    sweep: SweepSpec | None = None
    echo: dict | None = None  # validated input with defaults; None if built internally

    @property
    def is_synthetic(self) -> bool:
        return self.synthetic is not None


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ValidationError(f"{where}.{key}" if where else key, "missing required field")
    return d[key]


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        field = f"{where}.{sorted(unknown)[0]}" if where else sorted(unknown)[0]
        raise ValidationError(field, "unknown field (strict mode)")


def _finite(value, field: str) -> float:
    """A finite float; JSON's NaN and Infinity literals are rejected here."""
    try:
        x = float(value)
    except (TypeError, ValueError) as e:
        raise ValidationError(field, f"not a number: {e}") from None
    if not math.isfinite(x):
        raise ValidationError(field, "must be finite")
    return x


def _tol(value) -> float:
    tol = _finite(value, "tol")
    if not MIN_TOL <= tol <= 1e-2:
        raise ValidationError("tol", f"must be in [{MIN_TOL:.3g}, 1e-2]")
    return tol


def _floats(value, count: int, field: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise ValidationError(field, f"not a numeric array: {e}") from None
    if arr.shape != (count,):
        raise ValidationError(field, f"expected {count} numbers, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(field, "values must be finite")
    return arr


def _parse_metric(d, field="metric") -> MetricSpec:
    if not isinstance(d, dict):
        raise ValidationError(field, "expected an object")
    _check_keys(d, {"kind", "mass", "horizon_eps"}, field)
    kind = _require(d, "kind", field)
    if kind == MINKOWSKI:
        if "mass" in d and d["mass"] not in (0, 0.0):
            raise ValidationError(f"{field}.mass", "flat metric takes no mass")
        return MetricSpec(MINKOWSKI)
    if kind == SCHWARZSCHILD:
        # MetricSpec rejects a non-positive mass or horizon_eps
        return MetricSpec(
            SCHWARZSCHILD,
            mass=_finite(_require(d, "mass", field), f"{field}.mass"),
            horizon_eps=_finite(d.get("horizon_eps", 1e-6), f"{field}.horizon_eps"),
        )
    raise ValidationError(f"{field}.kind", f"unknown metric kind {kind!r}")


def _parse_stop(d, field: str) -> StopCondition:
    if not isinstance(d, dict):
        raise ValidationError(field, "expected an object")
    _check_keys(d, {"kind", "value", "tolerance", "max_tau"}, field)
    try:
        return StopCondition(
            kind=_require(d, "kind", field),
            value=_finite(_require(d, "value", field), f"{field}.value"),
            tolerance=_finite(d.get("tolerance", 1e-10), f"{field}.tolerance"),
            max_tau=_finite(d["max_tau"], f"{field}.max_tau") if "max_tau" in d else None,
        )
    except ValidationError:
        raise
    except (TypeError, ValueError) as e:
        raise ValidationError(field, str(e)) from None


def _parse_settings(d) -> SettingsTriple:
    if not isinstance(d, dict):
        raise ValidationError("settings", "expected an object")
    if set(d) == {"a_deg", "b_deg", "c_deg"}:
        return SettingsTriple(
            a=Direction3.from_angle(math.radians(float(d["a_deg"]))),
            b=Direction3.from_angle(math.radians(float(d["b_deg"]))),
            c=Direction3.from_angle(math.radians(float(d["c_deg"]))),
        )
    if set(d) == {"a", "b", "c"}:
        return SettingsTriple(
            a=Direction3.from_vector(_floats(d["a"], 3, "settings.a")),
            b=Direction3.from_vector(_floats(d["b"], 3, "settings.b")),
            c=Direction3.from_vector(_floats(d["c"], 3, "settings.c")),
        )
    raise ValidationError(
        "settings", "use exactly {a_deg, b_deg, c_deg} or {a, b, c}"
    )


def _parse_synthetic(d) -> SyntheticProjections:
    if not isinstance(d, dict):
        raise ValidationError("synthetic", "expected an object")
    _check_keys(d, {"w_b", "b", "w_c", "c"}, "synthetic")
    w_b = float(_require(d, "w_b", "synthetic"))
    w_c = float(_require(d, "w_c", "synthetic"))
    for name, w in (("w_b", w_b), ("w_c", w_c)):
        if not 0.0 <= w <= 1.0:
            raise ValidationError(f"synthetic.{name}", "weight must be in [0, 1]")
    return SyntheticProjections(
        proj_b=make_projection(w_b, _floats(_require(d, "b", "synthetic"), 3, "synthetic.b")),
        proj_c=make_projection(w_c, _floats(_require(d, "c", "synthetic"), 3, "synthetic.c")),
    )


def _normalized_tangent(
    spec: MetricSpec, origin: SpacetimePoint, raw: np.ndarray, worldline: str, field: str
) -> FourVector:
    g = metric_components(spec, origin.coords)
    uu = float(raw @ g @ raw)
    if worldline == "timelike":
        if uu >= 0 or abs(uu + 1.0) > 1e-6:
            raise ValidationError(
                field, f"u.u = {uu}; timelike tangents must be unit within 1e-6"
            )
        return FourVector(raw / math.sqrt(-uu), origin)
    scale = float(np.max(np.abs(raw))) ** 2
    if abs(uu) > 1e-9 * max(scale, 1.0):
        raise ValidationError(field, f"u.u = {uu}; null tangents must have zero norm")
    return FourVector(raw, origin)


def config_from_dict(data: dict) -> ScenarioConfig:
    """Validate a parsed config and fill defaults (echoed on the result).

    Anything wrong with the file surfaces as ParseError/ValidationError,
    including bad value types caught deeper in the domain constructors.
    """
    try:
        return _config_from_dict(data)
    except (ParseError, ValidationError):
        raise
    except (SimulatorError, TypeError, ValueError, OverflowError) as e:
        raise ValidationError("<config>", str(e)) from e


def _config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ValidationError("<root>", "config must be a JSON object")
    _check_keys(data, _TOP_KEYS, "")

    synthetic = None
    if "synthetic" in data:
        overlap = _GEOMETRY_KEYS & set(data)
        if overlap:
            raise ValidationError(
                sorted(overlap)[0], "geometry fields conflict with synthetic mode"
            )
        synthetic = _parse_synthetic(data["synthetic"])

    settings = _parse_settings(_require(data, "settings", ""))
    tol = _tol(data.get("tol", DEFAULT_TOL))

    mc = data.get("mc", {})
    if not isinstance(mc, dict):
        raise ValidationError("mc", "expected an object")
    _check_keys(mc, {"n", "seed"}, "mc")
    mc_n = int(mc.get("n", DEFAULT_MC_N))
    mc_seed = int(mc.get("seed", DEFAULT_MC_SEED))
    if mc_n < 100:
        raise ValidationError("mc.n", "must be at least 100")
    if mc_n > MAX_MC_N:
        raise ValidationError("mc.n", f"must be at most {MAX_MC_N}")

    lhv_audit = bool(data.get("lhv_audit", False))

    sweep = None
    if "sweep" in data:
        s = data["sweep"]
        if not isinstance(s, dict):
            raise ValidationError("sweep", "expected an object")
        _check_keys(s, {"parameter", "start", "stop", "step"}, "sweep")
        parameter = _require(s, "parameter", "sweep")
        if parameter not in SWEEP_PARAMETERS:
            raise ValidationError("sweep.parameter", f"must be one of {SWEEP_PARAMETERS}")
        if parameter in ("w", "w_b", "w_c") and synthetic is None:
            raise ValidationError("sweep.parameter", "weight sweeps need synthetic mode")
        if parameter in ANGLE_SWEEP_PARAMETERS and "a_deg" not in data.get("settings", {}):
            raise ValidationError("sweep.parameter", "angle sweeps need angle-form settings")
        sweep = SweepSpec(
            parameter=parameter,
            start=_finite(_require(s, "start", "sweep"), "sweep.start"),
            stop=_finite(_require(s, "stop", "sweep"), "sweep.stop"),
            step=_finite(_require(s, "step", "sweep"), "sweep.step"),
        )

    worldline = data.get("worldline", "timelike")
    if worldline not in ("timelike", "null"):
        raise ValidationError("worldline", "must be 'timelike' or 'null'")

    metric = origin = u1 = u2 = stop1 = stop2 = None
    frame_choice = data.get("frame_choice", FRAME_STATIC)
    if frame_choice not in (FRAME_STATIC, FRAME_COMOVING):
        raise ValidationError("frame_choice", "must be 'static' or 'comoving'")

    if synthetic is None:
        metric = _parse_metric(_require(data, "metric", ""))
        coords = _floats(_require(data, "origin", ""), 4, "origin")
        try:
            origin = SpacetimePoint(coords, metric.chart)
            metric_components(metric, coords)
        except SimulatorError as e:
            raise ValidationError("origin", f"origin inside horizon guard: {e}") from None
        u1 = _normalized_tangent(
            metric, origin, _floats(_require(data, "u1", ""), 4, "u1"), worldline, "u1"
        )
        u2 = _normalized_tangent(
            metric, origin, _floats(_require(data, "u2", ""), 4, "u2"), worldline, "u2"
        )
        if np.max(np.abs(u1.components - u2.components)) <= 1e-12:
            raise ValidationError("u2", "u1 and u2 must define distinct geodesics")
        stop1 = _parse_stop(_require(data, "stop1", ""), "stop1")
        stop2 = _parse_stop(_require(data, "stop2", ""), "stop2")

    echo = _echo_dict(
        data, metric, tol, mc_n, mc_seed, frame_choice, worldline, lhv_audit
    )
    return ScenarioConfig(
        settings=settings,
        frame_choice=frame_choice,
        tol=tol,
        mc_n=mc_n,
        mc_seed=mc_seed,
        lhv_audit=lhv_audit,
        metric=metric,
        origin=origin,
        u1=u1,
        u2=u2,
        stop1=stop1,
        stop2=stop2,
        synthetic=synthetic,
        sweep=sweep,
        echo=echo,
    )


def _echo_dict(data, metric, tol, mc_n, mc_seed, frame_choice, worldline, lhv_audit) -> dict:
    echo = json.loads(json.dumps(data))  # deep copy of plain JSON
    echo["tol"] = tol
    echo["mc"] = {"n": mc_n, "seed": mc_seed}
    echo["lhv_audit"] = lhv_audit
    if metric is not None:
        echo["frame_choice"] = frame_choice
        echo["worldline"] = echo.get("worldline", worldline)
        m = dict(echo["metric"])
        if metric.kind == SCHWARZSCHILD:
            m.setdefault("horizon_eps", metric.horizon_eps)
        echo["metric"] = m
    return echo


def load_config(path) -> ScenarioConfig:
    """Read and validate a JSON scenario config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from None
    return config_from_dict(data)


# -- pipeline -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeodesicSummary:
    tau_end: float
    endpoint: list[float]
    drift: dict[str, float]
    stats: dict[str, int]  # integrator counters: nfev, accepted, rejected

    @classmethod
    def from_path(cls, path: GeodesicPath) -> "GeodesicSummary":
        return cls(
            tau_end=path.tau_end,
            endpoint=[float(x) for x in path.points[-1]],
            drift=path.conservation_drift(),
            stats={"nfev": path.nfev, "accepted": path.accepted, "rejected": path.rejected},
        )


@dataclass(frozen=True, eq=False)
class RunReport:
    status: str
    config: dict
    settings: SettingsTriple
    proj_b: ProjectionResult
    proj_c: ProjectionResult
    inequality: InequalityReport
    angles: ViolationAngles
    geodesic_1: GeodesicSummary | None = None
    geodesic_2: GeodesicSummary | None = None
    best_setting: Direction3 | None = None
    best_margin: float | None = None
    lhv: LHVAuditReport | None = None
    elapsed_s: float = 0.0


@contextmanager
def _stage(name: str):
    """Tag exceptions from one pipeline stage."""
    try:
        yield
    except SimulatorError as e:
        raise PipelineError(name, e) from e


def _detector_frame(cfg: ScenarioConfig, path: GeodesicPath) -> LocalFrame:
    end = path.end_point()
    if cfg.frame_choice == FRAME_COMOVING:
        return build_comoving_frame(cfg.metric, end, path.end_tangent())
    return build_static_frame(cfg.metric, end)


@dataclass(frozen=True, eq=False)
class _Geometry:
    """What a scenario computes before it looks at the settings."""

    geo1: GeodesicPath
    geo2: GeodesicPath
    frame_L: LocalFrame
    frame_R: LocalFrame
    summary_1: GeodesicSummary
    summary_2: GeodesicSummary


def _geometry(cfg: ScenarioConfig) -> _Geometry | None:
    """Both geodesics and both detector frames; None in synthetic mode."""
    if cfg.is_synthetic:
        return None
    with _stage("geodesic_1"):
        geo1 = integrate_geodesic(cfg.metric, cfg.origin, cfg.u1, cfg.stop1, cfg.tol)
    with _stage("geodesic_2"):
        geo2 = integrate_geodesic(cfg.metric, cfg.origin, cfg.u2, cfg.stop2, cfg.tol)
    with _stage("frames"):
        frame_L = _detector_frame(cfg, geo1)
        frame_R = _detector_frame(cfg, geo2)
    return _Geometry(
        geo1, geo2, frame_L, frame_R,
        GeodesicSummary.from_path(geo1), GeodesicSummary.from_path(geo2),
    )


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute the full pipeline for one configuration."""
    t0 = time.perf_counter()
    return _evaluate(cfg, _geometry(cfg), t0)


def _evaluate(cfg: ScenarioConfig, geometry: _Geometry | None, t0: float) -> RunReport:
    """The settings-dependent stages, on a geometry from ``_geometry(cfg)``."""
    if geometry is None:
        proj_b, proj_c = cfg.synthetic.proj_b, cfg.synthetic.proj_c
    else:
        geo1, geo2, frame_R = geometry.geo1, geometry.geo2, geometry.frame_R
        with _stage("transport"):
            moved_b = transport_R_to_L(geo1, geo2, embed_direction(frame_R, cfg.settings.b))
            moved_c = transport_R_to_L(geo1, geo2, embed_direction(frame_R, cfg.settings.c))
        with _stage("projection"):
            proj_b = project_to_frame(geometry.frame_L, moved_b.v)
            proj_c = project_to_frame(geometry.frame_L, moved_c.v)

    with _stage("inequality"):
        inequality = generalized_bell_check(cfg.settings, proj_b, proj_c)
        angles = violation_condition(cfg.settings, proj_b, proj_c)
        try:
            best_setting, best_report = find_max_violation(proj_b, proj_c, "analytic")
            best_margin = best_report.margin
        except DegenerateD:
            best_setting, best_margin = None, None

    lhv = None
    if cfg.lhv_audit:
        with _stage("lhv_audit"):
            ordered = (
                (proj_b, proj_c) if proj_b.w >= proj_c.w else (proj_c, proj_b)
            )
            lhv = lhv_inequality_audit(
                make_sign_model(cfg.mc_seed),
                [(cfg.settings, ordered[0], ordered[1])],
                cfg.mc_n,
                cfg.mc_seed,
            )

    return RunReport(
        status="ok",
        config=cfg.echo or {},
        settings=cfg.settings,
        proj_b=proj_b,
        proj_c=proj_c,
        inequality=inequality,
        angles=angles,
        geodesic_1=None if geometry is None else geometry.summary_1,
        geodesic_2=None if geometry is None else geometry.summary_2,
        best_setting=best_setting,
        best_margin=best_margin,
        lhv=lhv,
        elapsed_s=time.perf_counter() - t0,
    )


# -- serialization ------------------------------------------------------------


def _dir_list(d: Direction3 | None) -> list[float] | None:
    return None if d is None else [float(x) for x in d.d]


def _angle_deg(d1: Direction3 | None, d2: Direction3 | None) -> float:
    if d1 is None or d2 is None:
        return float("nan")
    return math.degrees(math.acos(max(-1.0, min(1.0, d1.dot(d2)))))


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready view of a run; excludes wall-clock time so output is stable."""
    ineq = report.inequality
    out = {
        "status": report.status,
        "config": report.config,
        "projections": {
            "b": {
                "w": report.proj_b.w,
                "direction": _dir_list(report.proj_b.direction),
                "time_component": report.proj_b.time_component,
                "degenerate": report.proj_b.degenerate,
            },
            "c": {
                "w": report.proj_c.w,
                "direction": _dir_list(report.proj_c.direction),
                "time_component": report.proj_c.time_component,
                "degenerate": report.proj_c.degenerate,
            },
        },
        "inequality": {
            "lhs": ineq.lhs,
            "rhs": ineq.rhs,
            "margin": ineq.margin,
            "violated": ineq.violated,
            "w_b": ineq.w_b,
            "w_c": ineq.w_c,
            "b_direction": _dir_list(ineq.b_direction),
            "c_direction": _dir_list(ineq.c_direction),
            "swapped": ineq.swapped,
        },
        "violation_angles": {
            "d": [float(x) for x in report.angles.d],
            "cos_phi": report.angles.cos_phi,
            "cos_theta": report.angles.cos_theta,
            "condition_holds": report.angles.condition_holds,
            "degenerate": report.angles.degenerate,
        },
        "best_setting": _dir_list(report.best_setting),
        "best_margin": report.best_margin,
    }
    for label, summary in (("geodesic_1", report.geodesic_1), ("geodesic_2", report.geodesic_2)):
        out[label] = (
            None
            if summary is None
            else {
                "tau_end": summary.tau_end,
                "endpoint": summary.endpoint,
                "drift": summary.drift,
                "stats": summary.stats,
            }
        )
    if report.lhv is not None:
        out["lhv_audit"] = {
            "model": report.lhv.model,
            "n": report.lhv.n,
            "seed": report.lhv.seed,
            "passed": report.lhv.passed,
            "rows": [
                {
                    "index": r.index,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "margin": r.margin,
                    "combined_stderr": r.combined_stderr,
                    "margin_stderr": r.margin_stderr,
                    "satisfied": r.satisfied,
                }
                for r in report.lhv.rows
            ],
        }
    else:
        out["lhv_audit"] = None
    return out


def report_to_json(report: RunReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def report_to_text(report: RunReport) -> str:
    d = report_to_dict(report)
    ineq = d["inequality"]
    lines = [
        f"status            {report.status}",
        f"w_b, w_c          {ineq['w_b']:.12g}, {ineq['w_c']:.12g}"
        + ("  (arms swapped so w_b >= w_c)" if ineq["swapped"] else ""),
        f"lhs | rhs         {ineq['lhs']:.12g} | {ineq['rhs']:.12g}",
        f"margin            {ineq['margin']:.12g}  -> {'VIOLATED' if ineq['violated'] else 'satisfied'}",
        f"|cos phi|, cos th {abs(d['violation_angles']['cos_phi']):.12g}, "
        f"{d['violation_angles']['cos_theta']:.12g}",
    ]
    if report.best_margin is not None:
        lines.append(f"best margin       {report.best_margin:.12g}")
    for label in ("geodesic_1", "geodesic_2"):
        if d[label] is not None:
            g = d[label]
            drift = ", ".join(f"{k}={v:.3e}" for k, v in g["drift"].items())
            stats = " ".join(f"{k}={v}" for k, v in g["stats"].items())
            lines.append(f"{label}        tau_end={g['tau_end']:.12g}  drift: {drift}  {stats}")
    if d["lhv_audit"] is not None:
        a = d["lhv_audit"]
        lines.append(
            f"lhv audit         n={a['n']} seed={a['seed']} "
            f"{'passed' if a['passed'] else 'FAILED'}"
        )
    lines.append(f"elapsed_s         {report.elapsed_s:.3f}")
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def csv_row(report: RunReport, scenario_id: str) -> dict[str, str]:
    """One CSV row; directions are the post-swap (w_b >= w_c) arms."""
    ineq = report.inequality
    a = report.settings.a
    return {
        "scenario_id": scenario_id,
        "status": report.status,
        "theta_ab_deg": _fmt(_angle_deg(a, ineq.b_direction)),
        "theta_ac_deg": _fmt(_angle_deg(a, ineq.c_direction)),
        "theta_bc_deg": _fmt(_angle_deg(ineq.b_direction, ineq.c_direction)),
        "w_b": _fmt(ineq.w_b),
        "w_c": _fmt(ineq.w_c),
        "P_ab": _fmt(ineq.p_ab),
        "P_ac": _fmt(ineq.p_ac),
        "P_bc": _fmt(ineq.p_bc),
        "lhs": _fmt(ineq.lhs),
        "rhs": _fmt(ineq.rhs),
        "margin": _fmt(ineq.margin),
        "violated": "true" if ineq.violated else "false",
    }


def error_row(scenario_id: str, status: str) -> dict[str, str]:
    row = {col: "nan" for col in CSV_COLUMNS}
    row["scenario_id"] = scenario_id
    row["status"] = status
    row["violated"] = "false"
    return row


def rows_to_csv(rows: list[dict[str, str]]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for row in rows:
        buf.write(",".join(row[col] for col in CSV_COLUMNS) + "\n")
    return buf.getvalue()


# -- sweeps -------------------------------------------------------------------


def _point_config(cfg: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    """cfg with one sweep value in place of a setting or of the weights."""
    if parameter in ANGLE_SWEEP_PARAMETERS:
        setting = {parameter[0]: Direction3.from_angle(math.radians(value))}
        changed = {"settings": replace(cfg.settings, **setting)}
    else:
        # revalidated, so that a weight outside [0, 1] gives an error row
        weights = ("w_b", "w_c") if parameter == "w" else (parameter,)
        block = {**cfg.echo["synthetic"], **dict.fromkeys(weights, value)}
        changed = {"synthetic": _parse_synthetic(block)}
    return replace(cfg, sweep=None, echo=None, **changed)


def _failure_status(e: SimulatorError) -> str:
    if isinstance(e, PipelineError):
        return "horizon_approach" if isinstance(e.cause, HorizonApproach) else f"error:{e.stage}"
    return f"error:{type(e).__name__}"


def _run_row(run, scenario_id: str) -> dict[str, str]:
    try:
        return csv_row(run(), scenario_id)
    except SimulatorError as e:
        return error_row(scenario_id, _failure_status(e))


def run_sweep(cfg: ScenarioConfig, workers: int = 1) -> list[dict[str, str]]:
    """One CSV row per sweep value, in sweep order.

    Neither the settings nor the synthetic weights enter the geometry, so
    a sweep integrates the geodesics and builds the detector frames once
    (none in synthetic mode), and each row runs only the settings-dependent
    stages on them; if the geometry fails, every row carries that failure's
    status. Rows run serially; ``workers`` is accepted and ignored.
    """
    if cfg.sweep is None:
        raise ValidationError("sweep", "config has no sweep block")
    param = cfg.sweep.parameter
    points = [(value, f"{param}={_fmt(value)}") for value in cfg.sweep.values()]
    try:
        geometry = _geometry(cfg)
    except PipelineError as e:
        return [error_row(sid, _failure_status(e)) for _, sid in points]
    return [
        _run_row(
            lambda v=v: _evaluate(_point_config(cfg, param, v), geometry, time.perf_counter()),
            sid,
        )
        for v, sid in points
    ]


DEFAULT_HORIZON_SETTINGS = {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0}


def run_horizon_sweep(
    spec: MetricSpec,
    r_values: list[float],
    settings: dict | None = None,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
) -> list[dict[str, str]]:
    """Weight-versus-radius study outside the horizon guard.

    The emission event sits at the first (largest) radius. Particle 1 stays
    there (a zero-length path read out in the static frame), which is built
    once; for each r particle 2 falls radially from rest and is read out at
    r in the static frame there, so the row's w_b tracks the transported
    weight w(r). Radii at or below the guard produce 'horizon_guard' rows
    instead of failing the run. The radii must be finite and strictly
    decreasing (ValidationError otherwise). Rows run serially; ``workers``
    is accepted and ignored.
    """
    if spec.kind != SCHWARZSCHILD:
        raise ValidationError("metric.kind", "horizon sweep needs a Schwarzschild metric")
    tol = _tol(tol)
    rs = [_finite(r, "r_values") for r in r_values]
    if any(b >= a for a, b in zip(rs, rs[1:])):
        raise ValidationError("r_values", "must be strictly decreasing")
    cfg = ScenarioConfig(
        settings=_parse_settings(dict(settings or DEFAULT_HORIZON_SETTINGS)),
        frame_choice=FRAME_STATIC,
        tol=tol,
        mc_n=DEFAULT_MC_N,
        mc_seed=DEFAULT_MC_SEED,
        lhv_audit=False,
        metric=spec,
    )
    # rs decreases, so the rows at or below the guard come last
    live = [(r, f"r={_fmt(r)}") for r in rs if r > spec.guard_radius]
    guarded = [error_row(f"r={_fmt(r)}", "horizon_guard") for r in rs[len(live):]]
    if not live:
        return guarded

    origin = spec.point(0.0, rs[0], math.pi / 2.0, 0.0)
    u_static = FourVector([1.0 / math.sqrt(1.0 - 2.0 * spec.mass / rs[0]), 0.0, 0.0, 0.0], origin)
    try:
        with _stage("geodesic_1"):
            geo1 = integrate_geodesic(spec, origin, u_static, StopCondition.proper_time(0.0), tol)
        with _stage("frames"):
            frame_L = _detector_frame(cfg, geo1)
    except PipelineError as e:
        return [error_row(sid, _failure_status(e)) for _, sid in live] + guarded
    summary_1 = GeodesicSummary.from_path(geo1)

    def row(r: float) -> RunReport:
        t0 = time.perf_counter()
        with _stage("geodesic_2"):
            geo2 = integrate_geodesic(spec, origin, u_static, StopCondition.radius(r), tol)
        with _stage("frames"):
            frame_R = _detector_frame(cfg, geo2)
        geometry = _Geometry(
            geo1, geo2, frame_L, frame_R, summary_1, GeodesicSummary.from_path(geo2)
        )
        return _evaluate(cfg, geometry, t0)

    return [_run_row(lambda r=r: row(r), sid) for r, sid in live] + guarded


# -- canned configs -----------------------------------------------------------


def flat_baseline_config() -> dict:
    """Opposite boosts in flat space with the canonical 0/60/120 settings."""
    gamma = 1.0 / math.sqrt(1.0 - 0.25)
    return {
        "metric": {"kind": "minkowski"},
        "origin": [0.0, 0.0, 0.0, 0.0],
        "u1": [gamma, 0.5 * gamma, 0.0, 0.0],
        "u2": [gamma, -0.5 * gamma, 0.0, 0.0],
        "stop1": {"kind": "proper_time", "value": 5.0},
        "stop2": {"kind": "proper_time", "value": 5.0},
        "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
    }


def schwarzschild_demo_config() -> dict:
    """Prograde/retrograde launches at r = 10M, read out after tau = 20."""
    r, M = 10.0, 1.0
    ut = 1.0 / math.sqrt(1.0 - 3.0 * M / r)
    uphi = math.sqrt(M / r**3) * ut
    return {
        "metric": {"kind": "schwarzschild", "mass": M},
        "origin": [0.0, r, math.pi / 2.0, 0.0],
        "u1": [ut, 0.0, 0.0, uphi],
        "u2": [ut, 0.0, 0.0, -uphi],
        "stop1": {"kind": "proper_time", "value": 20.0},
        "stop2": {"kind": "proper_time", "value": 20.0},
        "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
        "lhv_audit": True,
        "mc": {"n": 20000, "seed": 7},
    }

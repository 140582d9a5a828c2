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

A stop is {kind, value}; the metric is {kind, mass}, guarded at
2M(1 + 1e-6). The parser converts the origin into units of M once, with
geodesics.emission_event, whose one metric evaluation checks its domain,
rescales a tangent within 1e-6 of unit norm to it and tells u1 and u2
apart (one geodesic when their static-tetrad components differ by at most
1e-12). geodesics.leg_start checks each leg against the event: the
tangent's kind by geodesics.tangent_kind, which also asks u^t > 0, and a
radius stop against the guard. The config keeps the two checked starts
as its legs, and a run hands both to geodesics.run_legs, so it converts
and checks no start again.

A Schwarzschild run works in units of M, the metric's one scale, so its
weights, correlations, margins and verdict do not depend on M: the parser
and the horizon study check one emission event each, and every leg from
it, in units of M, the paths, frames, transport and projection hold
unit-mass numbers, and GeodesicSummary.from_path converts tau_end and the
endpoint back. The echo keeps the caller's numbers.

Synthetic mode replaces the geometry block with
    "synthetic": {"w_b": 0.9, "b": [1,0,0], "w_c": 0.8, "c": [0.5,0.866,0]}
and an optional "sweep" block {"parameter", "start", "stop", "step"} drives
row generation for the sweep command.

The settings a, b and c are chosen at the detectors and do not enter the
geodesics, the detector tetrads or the R -> O -> L propagator, so the
pipeline runs in two steps: the geometry (both geodesics and both
detector tetrads, each a 4x4 array with its legs as rows; the projector at
L is that tetrad times the metric its path stores at L), then the
settings-dependent stages. Those are linear up to the projection, so
they run as one array pass over k rows of settings:
the 2k settings b and c are embedded at R, carried to L by one solve and
one product, and projected together, and the inequality is evaluated over
the arrays. Each row keeps its own transport and projection checks, so a
failing row is tagged with its stage and the others go on. A synthetic
block is parsed once into two weights and two unit directions; its arms
are built from arrays of weights, so a weight row is one range check.
The settings are parsed into one (3, 3) array with rows a, b, c. A pass
returns one InequalityStack, which also holds its settings a and the
error of each failed row. A single run is the k = 1 pass: its report
keeps that stack, one violation_stack on its ordered arms (angles and
optimum), and the geodesic summaries and optional LHV audit; the public
one-row objects are views of them. A CSV row is one line of text, written
from the stack in one pass: the three angle columns are libm's
atan2(|x cross y|, x . y) over stacked cross and dot products, and one
template with %.17g reals writes each ok line; a single run's line comes
through the same formatter. The horizon study builds its emission event
and side once, integrates its radii's legs a chunk at a time with one
run_legs each, and evaluates each radius as its own one-row pass; a row
whose leg fails reads its own status, and a chunk's lines are made when
its first is asked for.
"""
from __future__ import annotations

import json
import math
import numbers
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .correlations import (
    InequalityReport,
    InequalityStack,
    SettingsTriple,
    ViolationStack,
    bell_stack,
    violation_stack,
)
from .errors import (
    BadNormalization,
    HorizonApproach,
    ParseError,
    PipelineError,
    SimulatorError,
    ValidationError,
)
from .frames import (
    Direction3,
    ProjectionResult,
    ProjectionStack,
    build_comoving_frame,
    build_static_frame,
    embed_stack,
    project_stack,
    unit_or_none,
    weighted_stack,
)
from .geodesics import (
    EmissionEvent,
    GeodesicPath,
    LegStart,
    StopCondition,
    emission_event,
    leg_start,
    run_legs,
)
from .geometry import (
    MINKOWSKI,
    SCHWARZSCHILD,
    MetricSpec,
    _frozen_array,
    row_dot,
)
from .lhv import LHVAuditReport, lhv_inequality_audit, make_sign_model
from .transport import transport_stack

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
    "tol",
    "mc",
    "lhv_audit",
    "synthetic",
    "sweep",
}


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.step == 0.0:
            raise ValidationError("sweep.step", "must be nonzero")
        # below it start + n step rounds back to start for many n in a row
        if abs(self.step) < math.ulp(max(abs(self.start), abs(self.stop))):
            raise ValidationError("sweep.step", "below the float spacing of the sweep's values")
        sign = 1.0 if self.step > 0 else -1.0  # negation is exact
        # at most half a step, so the tolerance never admits a value a step past stop
        eps = min(1e-9 * max(1.0, abs(self.step)), 0.5 * abs(self.step))
        out = []
        v = self.start
        while sign * v <= sign * self.stop + eps and len(out) <= MAX_ROWS:
            out.append(v)
            v = self.start + len(out) * self.step
        if len(out) > MAX_ROWS:
            raise ValidationError("sweep", f"asks for more than {MAX_ROWS} rows")
        object.__setattr__(self, "_values", tuple(out))

    def values(self) -> tuple[float, ...]:
        """start + n step from n = 0 while not past stop, listed once at construction."""
        return self._values


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    settings: np.ndarray  # (3, 3), rows a, b, c; read-only
    frame_choice: str
    tol: float
    mc_n: int
    mc_seed: int
    lhv_audit: bool
    legs: tuple[LegStart, LegStart] | None = None  # checked by leg_start, in units of M
    synthetic: Synthetic | None = None
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


def _is_real(value) -> bool:
    """A real number; JSON's true and false are not numbers here, nor is a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _finite(value, field: str) -> float:
    """A finite float; NaN, Infinity and integers beyond the float range are rejected here."""
    if not _is_real(value):
        raise ValidationError(field, f"not a number: {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(field, "must be finite")
    return x


def _integer(value, field: str) -> int:
    """A JSON integer: not 1000.0, and not true or false either."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValidationError(field, f"not an integer: {value!r}")
    return int(value)


def _tol(value) -> float:
    tol = _finite(value, "tol")
    if not MIN_TOL <= tol <= 1e-2:
        raise ValidationError("tol", f"must be in [{MIN_TOL:.3g}, 1e-2]")
    return tol


def _floats(value, count: int, field: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError:
        raise ValidationError(field, "values must be finite") from None
    except (TypeError, ValueError) as e:
        raise ValidationError(field, f"not a numeric array: {e}") from None
    if arr.shape != (count,):
        raise ValidationError(field, f"expected {count} numbers, got shape {arr.shape}")
    if not all(map(_is_real, value)):
        raise ValidationError(field, f"not a numeric array: {value!r}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(field, "values must be finite")
    return arr


def _parse_metric(d, field="metric") -> MetricSpec:
    if not isinstance(d, dict):
        raise ValidationError(field, "expected an object")
    _check_keys(d, {"kind", "mass"}, field)
    kind = _require(d, "kind", field)
    if kind == MINKOWSKI:
        if "mass" in d and d["mass"] not in (0, 0.0):
            raise ValidationError(f"{field}.mass", "flat metric takes no mass")
        return MetricSpec(MINKOWSKI)
    if kind == SCHWARZSCHILD:
        # MetricSpec rejects a non-positive mass
        return MetricSpec(SCHWARZSCHILD, mass=_finite(_require(d, "mass", field), f"{field}.mass"))
    raise ValidationError(f"{field}.kind", f"unknown metric kind {kind!r}")


def _parse_leg(data: dict, event: EmissionEvent, n: int) -> LegStart:
    """Leg n's start from the origin's checked event, uN to stopN, as
    leg_start checks it, with errors that name those fields. A tangent
    within 1e-6 of unit norm under the event's metric is first rescaled to it."""
    u = _floats(_require(data, f"u{n}", ""), 4, f"u{n}")
    u_m = event.tangent(u)
    with np.errstate(over="ignore", invalid="ignore"):  # leg_start refuses an overflowing u.u
        uu = float(u_m * event.g0 @ u_m)
    if abs(uu + 1.0) <= 1e-6:
        u = u / math.sqrt(-uu)
    field = f"stop{n}"
    d = _require(data, field, "")
    if not isinstance(d, dict):
        raise ValidationError(field, "expected an object")
    _check_keys(d, {"kind", "value"}, field)
    kind = _require(d, "kind", field)
    value = _finite(_require(d, "value", field), f"{field}.value")
    try:
        return leg_start(event, u, StopCondition(kind, value))
    except BadNormalization as e:
        raise ValidationError(f"u{n}", str(e)) from None
    except ValidationError as e:  # the stop's checks name its fields stop.kind, stop.value
        raise ValidationError(field + e.field.removeprefix("stop"), e.reason) from None


def _parse_settings(d) -> np.ndarray:
    """The settings as a read-only (3, 3) array of unit rows a, b, c; an
    angle is the in-plane direction (cos, sin, 0)."""
    if not isinstance(d, dict):
        raise ValidationError("settings", "expected an object")
    if set(d) == {"a_deg", "b_deg", "c_deg"}:
        angles = [math.radians(_finite(d[key], f"settings.{key}")) for key in ANGLE_SWEEP_PARAMETERS]
        return _frozen_array([[math.cos(x), math.sin(x), 0.0] for x in angles], (3, 3))
    if set(d) == {"a", "b", "c"}:
        rows = []
        for key in ("a", "b", "c"):
            unit = unit_or_none(_floats(d[key], 3, f"settings.{key}"))
            if unit is None:
                raise ValidationError(f"settings.{key}", "does not normalise to a unit vector")
            rows.append(unit)
        return _frozen_array(rows, (3, 3))
    raise ValidationError(
        "settings", "use exactly {a_deg, b_deg, c_deg} or {a, b, c}"
    )


class Synthetic(NamedTuple):
    """Each arm's weight, or a weight sweep's (k,) row weights, and unit
    direction (None if it cannot be normalised, for degenerate weights only)."""

    w_b: float | np.ndarray
    b: np.ndarray | None
    w_c: float | np.ndarray
    c: np.ndarray | None


def _parse_synthetic(d) -> Synthetic:
    if not isinstance(d, dict):
        raise ValidationError("synthetic", "expected an object")
    _check_keys(d, {"w_b", "b", "w_c", "c"}, "synthetic")
    synthetic = Synthetic(
        w_b=_finite(_require(d, "w_b", "synthetic"), "synthetic.w_b"),
        b=unit_or_none(_floats(_require(d, "b", "synthetic"), 3, "synthetic.b")),
        w_c=_finite(_require(d, "w_c", "synthetic"), "synthetic.w_c"),
        c=unit_or_none(_floats(_require(d, "c", "synthetic"), 3, "synthetic.c")),
    )
    # the block is its own one-row case: the check its sweep rows get
    errors = _synthetic_arms(synthetic, 1)[2]
    if errors:
        raise errors[0]
    return synthetic


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
    mc_n = _integer(mc.get("n", DEFAULT_MC_N), "mc.n")
    mc_seed = _integer(mc.get("seed", DEFAULT_MC_SEED), "mc.seed")
    if mc_seed < 0:
        raise ValidationError("mc.seed", "must be non-negative")
    if mc_n < 100:
        raise ValidationError("mc.n", "must be at least 100")
    if mc_n > MAX_MC_N:
        raise ValidationError("mc.n", f"must be at most {MAX_MC_N}")

    lhv_audit = data.get("lhv_audit", False)
    if not isinstance(lhv_audit, (bool, np.bool_)):
        raise ValidationError("lhv_audit", f"not true or false: {lhv_audit!r}")
    lhv_audit = bool(lhv_audit)

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

    legs = None
    frame_choice = data.get("frame_choice", FRAME_STATIC)
    if frame_choice not in (FRAME_STATIC, FRAME_COMOVING):
        raise ValidationError("frame_choice", "must be 'static' or 'comoving'")

    if synthetic is None:
        metric = _parse_metric(_require(data, "metric", ""))
        origin = _floats(_require(data, "origin", ""), 4, "origin")
        try:
            event = emission_event(metric, origin)
        except SimulatorError as e:
            raise ValidationError("origin", str(e)) from None
        legs = (_parse_leg(data, event, 1), _parse_leg(data, event, 2))
        # compared in the static tetrad, whose components do not depend on M
        if np.max(np.abs(legs[0].u0 - legs[1].u0) * np.sqrt(np.abs(event.g0))) <= 1e-12:
            raise ValidationError("u2", "u1 and u2 must define distinct geodesics")

    echo = _echo_dict(data, synthetic, tol, mc_n, mc_seed, frame_choice, lhv_audit)
    return ScenarioConfig(
        settings=settings,
        frame_choice=frame_choice,
        tol=tol,
        mc_n=mc_n,
        mc_seed=mc_seed,
        lhv_audit=lhv_audit,
        legs=legs,
        synthetic=synthetic,
        sweep=sweep,
        echo=echo,
    )


def _echo_dict(data, synthetic, tol, mc_n, mc_seed, frame_choice, lhv_audit) -> dict:
    echo = json.loads(json.dumps(data))  # deep copy of plain JSON
    echo["tol"] = tol
    echo["mc"] = {"n": mc_n, "seed": mc_seed}
    echo["lhv_audit"] = lhv_audit
    if synthetic is None:
        echo["frame_choice"] = frame_choice
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
        """The path's summary in the caller's units: the one conversion back
        from a Schwarzschild path's units of M."""
        M = path.spec.mass if path.spec.kind == SCHWARZSCHILD else 1.0
        t, r, theta, phi = path.points[-1].tolist()
        return cls(
            tau_end=path.tau_end * M,
            endpoint=[t * M, r * M, theta, phi],
            drift=dict(path.drift),
            stats={"nfev": path.nfev, "accepted": path.accepted, "rejected": path.rejected},
        )


@dataclass(frozen=True, eq=False)
class RunReport:
    """One run: its one-row arrays (rows, angles), best_margin (None where d
    vanishes) and the public one-row views proj_b, proj_c and inequality,
    each built when first read; the optimum is angles.best[0]."""

    status: str
    config: dict
    rows: InequalityStack
    angles: ViolationStack
    geodesic_1: GeodesicSummary | None = None
    geodesic_2: GeodesicSummary | None = None
    best_margin: float | None = None
    lhv: LHVAuditReport | None = None
    elapsed_s: float = 0.0

    @cached_property
    def proj_b(self) -> ProjectionResult:
        return _caller_arms(self.rows)[0].result(0)

    @cached_property
    def proj_c(self) -> ProjectionResult:
        return _caller_arms(self.rows)[1].result(0)

    @cached_property
    def inequality(self) -> InequalityReport:
        return self.rows.report(0)


def _caller_arms(rows: InequalityStack) -> tuple[ProjectionStack, ProjectionStack]:
    """A one-row stack's arms b and c in the caller's order, before any swap."""
    return (rows.c, rows.b) if rows.swapped[0] else (rows.b, rows.c)


@contextmanager
def _stage(name: str):
    """Tag exceptions from one pipeline stage."""
    try:
        yield
    except SimulatorError as e:
        raise PipelineError(name, e) from e


def _detector_frame(frame_choice: str, path: GeodesicPath) -> np.ndarray:
    """The tetrad at the path's end, with the metric the path holds there."""
    if frame_choice == FRAME_COMOVING:
        return build_comoving_frame(path.metrics[-1], path.tangents[-1])
    return build_static_frame(path.metrics[-1])


@dataclass(frozen=True, eq=False)
class _Geometry:
    """What a scenario computes before it looks at the settings.

    Besides the paths it keeps the two linear maps every setting goes
    through: the tetrad at R, whose spatial legs embed a setting, and the
    projector E * g of the tetrad at L.
    """

    geo1: GeodesicPath
    geo2: GeodesicPath
    tetrad_R: np.ndarray     # (4, 4), legs as rows
    projector_L: np.ndarray  # (4, 4)


def _geometry(cfg: ScenarioConfig) -> _Geometry | None:
    """Both geodesics and both detector frames; None in synthetic mode."""
    if cfg.is_synthetic:
        return None
    return _frames(cfg.frame_choice, *run_legs(cfg.legs, cfg.tol))


def _frames(frame_choice: str, geo1, geo2) -> _Geometry:
    """Both detector frames on two legs' outcomes, each a path or an error
    as run_legs gives it. Leg 1's error is raised first, as geodesic_1, then
    leg 2's, as geodesic_2, so where both fail the run reports geodesic_1."""
    for stage, outcome in (("geodesic_1", geo1), ("geodesic_2", geo2)):
        if isinstance(outcome, SimulatorError):
            raise PipelineError(stage, outcome) from outcome
    with _stage("frames"):
        E_L = _detector_frame(frame_choice, geo1)
        E_R = _detector_frame(frame_choice, geo2)
        return _Geometry(geo1, geo2, E_R, E_L * geo1.metrics[-1])


# both arms of k rows, and the error of each row that failed
_Arms = tuple[ProjectionStack, ProjectionStack, dict[int, SimulatorError]]


def _synthetic_arms(synthetic: Synthetic, k: int) -> _Arms:
    """Both arms of k synthetic rows. A row fails with ValidationError when a
    weight is outside [0, 1] or not degenerate on an unusable direction."""
    errors: dict[int, SimulatorError] = {}
    arms = []
    for name, w, direction in (("b", synthetic.w_b, synthetic.b), ("c", synthetic.w_c, synthetic.c)):
        w = np.broadcast_to(np.asarray(w, dtype=float), (k,))
        in_range = (0.0 <= w) & (w <= 1.0)
        arm = weighted_stack(np.where(in_range, w, 0.0), direction)
        for j in np.flatnonzero(~in_range).tolist():
            errors.setdefault(j, ValidationError(f"synthetic.w_{name}", "weight must be in [0, 1]"))
        for j, e in arm.errors.items():
            errors.setdefault(j, ValidationError(f"synthetic.{name}", str(e)))
        arms.append(arm)
    return arms[0], arms[1], errors


def _arms(
    geometry: _Geometry | None, b: np.ndarray, c: np.ndarray, synthetic: Synthetic | None
) -> _Arms:
    """Both arms for k rows of settings b, c, each (k, 3).

    On a geometry the 2k settings b and c are embedded at R, carried to L
    and projected as one stack. A row that fails transport or projection
    is tagged with that stage and the other rows go on. In synthetic mode
    (geometry None) the arms are the synthetic block's.
    """
    k = len(b)
    if geometry is None:
        return _synthetic_arms(synthetic, k)
    errors: dict[int, SimulatorError] = {}
    V_R = embed_stack(geometry.tetrad_R, np.concatenate([b, c]))
    with _stage("transport"):
        moved = transport_stack(geometry.geo1, geometry.geo2, V_R)
    projected = project_stack(geometry.projector_L, moved.v)
    # a row keeps the failure a one-row run meets first: transport
    # before projection, arm b before arm c (later entries win)
    for stage, failed in (("projection", projected.errors), ("transport", moved.errors)):
        for j in sorted(failed, reverse=True):
            errors[j % k] = PipelineError(stage, failed[j])
    return projected.rows(slice(0, k)), projected.rows(slice(k, None)), errors


def _evaluate(
    geometry: _Geometry | None,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    synthetic: Synthetic | None = None,
) -> InequalityStack:
    """The inequality for k rows of settings a, b, c, each (k, 3), and its failed rows' errors."""
    proj_b, proj_c, errors = _arms(geometry, b, c, synthetic)
    return bell_stack(a, proj_b, proj_c)._replace(errors=errors)


def _settings_rows(settings: np.ndarray, k: int = 1) -> np.ndarray:
    """a, b and c, the rows of the (3, 3) settings, each repeated over k rows: (3, k, 3)."""
    return np.repeat(settings[:, None], k, axis=1)


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute the full pipeline for one configuration."""
    t0 = time.perf_counter()
    geometry = _geometry(cfg)
    rows = _evaluate(geometry, *_settings_rows(cfg.settings), cfg.synthetic)
    if rows.errors:
        raise rows.errors[0] from getattr(rows.errors[0], "cause", None)
    angles = violation_stack(rows.a, rows.b, rows.c)
    # the optimum's margin takes the row's ordered arms and bound and forms
    # only its own left side; where d vanishes there is no optimum
    best_margin = rows.margin_at(angles.best)

    lhv = None
    if cfg.lhv_audit:
        triple = SettingsTriple(*map(Direction3, cfg.settings))
        with _stage("lhv_audit"):
            lhv = lhv_inequality_audit(
                make_sign_model(cfg.mc_seed),
                [(triple, rows.b.result(0), rows.c.result(0))],
                cfg.mc_n,
                cfg.mc_seed,
            )

    return RunReport(
        status="ok",
        config=cfg.echo or {},
        rows=rows,
        angles=angles,
        best_margin=None if angles.degenerate[0] else float(best_margin[0]),
        geodesic_1=None if geometry is None else GeodesicSummary.from_path(geometry.geo1),
        geodesic_2=None if geometry is None else GeodesicSummary.from_path(geometry.geo2),
        lhv=lhv,
        elapsed_s=time.perf_counter() - t0,
    )


# -- serialization ------------------------------------------------------------


def _direction(arm: ProjectionStack) -> list[float] | None:
    """A one-row arm's direction; None where it is degenerate."""
    return None if arm.degenerate[0] else arm.direction[0].tolist()


def _projection(arm: ProjectionStack) -> dict:
    """The JSON block of a one-row arm."""
    return {
        "w": float(arm.w[0]),
        "direction": _direction(arm),
        "time_component": float(arm.time_component[0]),
        "degenerate": bool(arm.degenerate[0]),
    }


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready view of a run; excludes wall-clock time so output is stable."""
    rows, angles = report.rows, report.angles
    proj_b, proj_c = _caller_arms(rows)
    out = {
        "status": report.status,
        "config": report.config,
        "projections": {"b": _projection(proj_b), "c": _projection(proj_c)},
        "inequality": {
            "lhs": float(rows.lhs[0]),
            "rhs": float(rows.rhs[0]),
            "margin": float(rows.margin[0]),
            "violated": bool(rows.violated[0]),
            "w_b": float(rows.b.w[0]),
            "w_c": float(rows.c.w[0]),
            "b_direction": _direction(rows.b),
            "c_direction": _direction(rows.c),
            "swapped": bool(rows.swapped[0]),
        },
        "violation_angles": {
            "d": angles.d[0].tolist(),
            "cos_phi": float(angles.cos_phi[0]),
            "cos_theta": float(angles.cos_theta[0]),
            "condition_holds": bool(angles.condition_holds[0]),
            "degenerate": bool(angles.degenerate[0]),
        },
        "best_setting": None if angles.degenerate[0] else angles.best[0].tolist(),
        "best_margin": report.best_margin,
    }
    for label, summary in (("geodesic_1", report.geodesic_1), ("geodesic_2", report.geodesic_2)):
        out[label] = None if summary is None else asdict(summary)
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


# a CSV line: its id and status, its reals, and its verdict
_REALS = len(CSV_COLUMNS) - 3
_OK_LINE = "%s,ok," + ",".join(["%.17g"] * _REALS) + ",%s"
_NANS = ",nan" * _REALS


def csv_row(report: RunReport, scenario_id: str) -> str:
    """A run's CSV line: its one row through the sweep's formatter."""
    return _csv_rows(report.rows, [scenario_id])[0]


def _csv_rows(rows: InequalityStack, scenario_ids: list[str]) -> list[str]:
    """The CSV line of each evaluated row, or its error line, in one pass over the arrays.

    The angles are between a and the post-swap arms, NaN beside a
    degenerate arm: each is libm's atan2 of |cross(x, y)| and dot(x, y)
    over one stack of the three columns' pairs (x, y), which keeps its
    digits near 0 and 180 degrees, where acos of the dot product loses half
    of them. Every real prints with %.17g, which is format(x, ".17g") byte
    for byte.
    """
    b, c, k = rows.b, rows.c, len(scenario_ids)
    x = np.concatenate([rows.a, rows.a, b.direction])
    y = np.concatenate([b.direction, c.direction, c.direction])
    cross = np.cross(x, y)
    degenerate = np.concatenate([b.degenerate, c.degenerate, b.degenerate | c.degenerate])
    # math.atan2 passes the NaN through
    cosines = np.where(degenerate, np.nan, row_dot(x, y)).tolist()
    sines = np.sqrt(row_dot(cross, cross)).tolist()
    angles = [math.degrees(math.atan2(sine, cosine)) for sine, cosine in zip(sines, cosines)]
    columns = np.stack([b.w, c.w, rows.p_ab, rows.p_ac, rows.p_bc, rows.lhs, rows.rhs, rows.margin])
    reals = zip(angles[:k], angles[k:2 * k], angles[2 * k:], *columns.tolist())
    return [
        error_row(sid, _failure_status(rows.errors[j])) if j in rows.errors
        else _OK_LINE % (sid, *row, "true" if violated else "false")
        for j, (sid, row, violated) in enumerate(zip(scenario_ids, reals, rows.violated.tolist()))
    ]


def error_row(scenario_id: str, status: str) -> str:
    """The CSV line of a row that failed: its status, NaN reals, not violated."""
    return f"{scenario_id},{status}{_NANS},false"


def rows_to_csv(lines: list[str]) -> str:
    return "\n".join([CSV_HEADER, *lines, ""])


# -- sweeps -------------------------------------------------------------------


def _failure_status(e: SimulatorError) -> str:
    if isinstance(e, PipelineError):
        return "horizon_approach" if isinstance(e.cause, HorizonApproach) else f"error:{e.stage}"
    return f"error:{type(e).__name__}"


def run_sweep(cfg: ScenarioConfig) -> list[str]:
    """One CSV line per sweep value, in sweep order.

    Neither the settings nor the synthetic weights enter the geometry, so
    a sweep integrates the geodesics and builds the detector frames once
    (none in synthetic mode) and evaluates all its rows on them as one
    array pass; if the geometry fails, every row carries that failure's
    status. An angle row replaces one column of the settings, a weight row
    one weight of the synthetic block. Rows run no LHV audit, which has no
    CSV column.
    """
    if cfg.sweep is None:
        raise ValidationError("sweep", "config has no sweep block")
    param = cfg.sweep.parameter
    values = cfg.sweep.values()
    if not values:
        return []
    sids = [f"{param}={value:.17g}" for value in values]
    settings = dict(zip("abc", _settings_rows(cfg.settings, len(values))))
    synthetic = cfg.synthetic
    if param in ANGLE_SWEEP_PARAMETERS:
        settings[param[0]] = np.array(
            [[math.cos(math.radians(v)), math.sin(math.radians(v)), 0.0] for v in values]
        )
    else:
        weights = ("w_b", "w_c") if param == "w" else (param,)
        synthetic = synthetic._replace(**dict.fromkeys(weights, np.array(values)))
    try:
        return _csv_rows(_evaluate(_geometry(cfg), **settings, synthetic=synthetic), sids)
    except PipelineError as e:
        return [error_row(sid, _failure_status(e)) for sid in sids]


DEFAULT_HORIZON_SETTINGS = {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0}
# live radii of a horizon study whose legs one run_legs integrates
_HORIZON_CHUNK = 64


def run_horizon_sweep(
    spec: MetricSpec, r_values: Iterable[float], tol: float = DEFAULT_TOL
) -> Iterator[str]:
    """Weight-versus-radius study outside the horizon guard, one CSV line per radius.

    The emission event sits at the first (largest) radius. Particle 1 stays
    there (a zero-length path read out in the static frame), which is built
    once; for each r particle 2 falls radially from rest and is read out at
    r in the static frame there, so the row's w_b tracks the transported
    weight w(r). Every row uses DEFAULT_HORIZON_SETTINGS. Radii at or below
    the guard, in units of M, produce 'horizon_guard' rows instead of
    failing the run. The radii must be finite and strictly decreasing
    (ValidationError otherwise). The arguments are checked at once; the
    returned iterator makes each line when it is asked for.
    """
    if spec.kind != SCHWARZSCHILD:
        raise ValidationError("metric.kind", "horizon sweep needs a Schwarzschild metric")
    tol = _tol(tol)
    rs = [_finite(r, "r_values") for r in r_values]
    if any(b >= a for a, b in zip(rs, rs[1:])):
        raise ValidationError("r_values", "must be strictly decreasing")
    return _horizon_rows(spec, rs, tol)


def _horizon_rows(spec: MetricSpec, rs: list[float], tol: float) -> Iterator[str]:
    """run_horizon_sweep's lines. Whether a radius lies outside the guard is
    decided in units of M, as leg_start does; rs decreases, so those come
    first. Their legs are integrated _HORIZON_CHUNK at a time, by one
    run_legs each, when the first line of the chunk is asked for."""
    guard = MetricSpec(SCHWARZSCHILD, 1.0).guard_radius
    live = [r for r in rs if r / spec.mass > guard]
    if live:
        try:
            with _stage("geodesic_1"):
                event = emission_event(spec, np.array([0.0, rs[0], math.pi / 2.0, 0.0]))
                # u^t = 1 / sqrt(f) does not depend on M
                u_static = build_static_frame(event.g0)[0]
                emitter = leg_start(event, u_static, StopCondition.proper_time(0.0))
        except PipelineError as e:
            yield from (error_row(f"r={r:.17g}", _failure_status(e)) for r in live)
        else:
            (geo1,) = run_legs([emitter], tol)
            settings = _settings_rows(_parse_settings(DEFAULT_HORIZON_SETTINGS))
            for start in range(0, len(live), _HORIZON_CHUNK):
                chunk = live[start : start + _HORIZON_CHUNK]
                paths = run_legs([leg_start(event, u_static, StopCondition.radius(r)) for r in chunk], tol)
                for r, geo2 in zip(chunk, paths):
                    sid = f"r={r:.17g}"
                    try:
                        yield _csv_rows(_evaluate(_frames(FRAME_STATIC, geo1, geo2), *settings), [sid])[0]
                    except SimulatorError as e:
                        yield error_row(sid, _failure_status(e))
    for r in rs[len(live) :]:
        yield error_row(f"r={r:.17g}", "horizon_guard")


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

"""Geodesic integration with adaptive error control and event-located stops.

The geodesic equation d2x/dtau2 + Gamma(x) u u = 0 is integrated as a first
order system in (x, u) with scipy's adaptive RK45, together with the
parallel propagator P of the leg: dP/dtau = -(Gamma(x) . u) P with P(0) = I,
so P(tau) carries any vector at the emission event to the event at tau
(Poisson, Pound & Vega, Living Rev. Relativ. 14, 7 (2011), sec. 5).
Terminal events (target radius or coordinate time) are located by root
bracketing on the event function. Each path stores P at its sampled steps
and is rejected unless P^T g(x) P = g(x0) holds at every one of them; it
keeps the metric at those steps and the conservation drift it was checked
against. One integration takes at most MAX_STEPS solver steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    BadNormalization,
    HorizonApproach,
    StepFailure,
    ValidationError,
)
from .geometry import (
    SCHWARZSCHILD,
    FourVector,
    MetricSpec,
    SpacetimePoint,
    christoffel_components,
    metric_components,
)

TIMELIKE = "timelike"
NULL = "null"

STOP_PROPER_TIME = "proper_time"
STOP_RADIUS = "radius"
STOP_COORDINATE_TIME = "coordinate_time"

NORMALIZATION_TOL = 1e-8

# cap on the accepted solver steps of one integration, so that a far or
# unreachable stop fails with StepFailure instead of running for days
MAX_STEPS = 50_000


@dataclass(frozen=True)
class StopCondition:
    """Where integration ends: affine parameter, radius, or coordinate time."""

    kind: str
    value: float
    tolerance: float = 1e-10
    max_tau: float | None = None

    def __post_init__(self):
        if self.kind not in (STOP_PROPER_TIME, STOP_RADIUS, STOP_COORDINATE_TIME):
            raise ValidationError("stop.kind", f"unknown kind {self.kind!r}")
        if self.value < 0.0 and self.kind != STOP_COORDINATE_TIME:
            raise ValidationError("stop.value", "target must be non-negative")
        if self.kind == STOP_RADIUS and self.value <= 0.0:
            raise ValidationError("stop.value", "radius target must be positive")

    @classmethod
    def proper_time(cls, tau: float, **kw) -> "StopCondition":
        return cls(STOP_PROPER_TIME, tau, **kw)

    @classmethod
    def radius(cls, r: float, **kw) -> "StopCondition":
        return cls(STOP_RADIUS, r, **kw)

    @classmethod
    def coordinate_time(cls, t: float, **kw) -> "StopCondition":
        return cls(STOP_COORDINATE_TIME, t, **kw)


@dataclass(frozen=True, eq=False)
class GeodesicPath:
    """Sampled geodesic with tangent, propagator and checked conservation drift."""

    spec: MetricSpec
    kind: str
    tol: float
    taus: np.ndarray          # (n,), strictly increasing, taus[0] == 0
    points: np.ndarray        # (n, 4)
    tangents: np.ndarray      # (n, 4)
    propagators: np.ndarray   # (n, 4, 4), parallel propagator from taus[0]
    metrics: np.ndarray       # (n, 4, 4), metric components at the points
    drift: dict[str, float]   # max conservation drifts, checked at integration

    @property
    def tau_end(self) -> float:
        return float(self.taus[-1])

    def start_point(self) -> SpacetimePoint:
        return SpacetimePoint(self.points[0], self.spec.chart)

    def end_point(self) -> SpacetimePoint:
        return SpacetimePoint(self.points[-1], self.spec.chart)

    def start_tangent(self) -> FourVector:
        return FourVector(self.tangents[0], self.start_point())

    def end_tangent(self) -> FourVector:
        return FourVector(self.tangents[-1], self.end_point())

    def conservation_drift(self) -> dict[str, float]:
        """Max drift of the tangent norm and, for Schwarzschild, E and L_z."""
        return dict(self.drift)


def _conservation_drift(
    spec: MetricSpec, kind: str, points: np.ndarray, tangents: np.ndarray, g: np.ndarray
) -> dict[str, float]:
    uu = np.einsum("nab,na,nb->n", g, tangents, tangents)
    n0 = -1.0 if kind == TIMELIKE else 0.0
    drift = {"norm": float(np.max(np.abs(uu - n0)))}
    if spec.kind == SCHWARZSCHILD:
        r, theta = points[:, 1], points[:, 2]
        f = 1.0 - 2.0 * spec.mass / r
        E = f * tangents[:, 0]
        Lz = r**2 * np.sin(theta) ** 2 * tangents[:, 3]
        drift["energy"] = float(np.max(np.abs(E - E[0])) / max(abs(E[0]), 1e-12))
        drift["angular_momentum"] = float(
            np.max(np.abs(Lz - Lz[0])) / max(abs(Lz[0]), 1.0)
        )
    return drift


def _classify_tangent(spec: MetricSpec, x0: SpacetimePoint, u0: FourVector) -> str:
    g = metric_components(spec, x0.coords)
    uu = float(u0.components @ g @ u0.components)
    if abs(uu + 1.0) <= NORMALIZATION_TOL:
        return TIMELIKE
    if abs(uu) <= NORMALIZATION_TOL:
        return NULL
    raise BadNormalization(f"u.u = {uu}, expected -1 (timelike) or 0 (null)")


def _tau_cap(
    spec: MetricSpec, x0: SpacetimePoint, u0: FourVector, stop: StopCondition
) -> float:
    if stop.kind == STOP_PROPER_TIME:
        if stop.max_tau is not None and stop.max_tau < stop.value:
            raise StepFailure(f"proper time {stop.value} exceeds max_tau = {stop.max_tau}")
        return stop.value
    if stop.max_tau is not None:
        return stop.max_tau
    if stop.kind == STOP_COORDINATE_TIME:
        # dt/dparam >= E0 along the path since g_tt u^t is conserved and f <= 1
        g = metric_components(spec, x0.coords)
        e0 = max(float(-g[0, 0] * u0.components[0]), 1e-12)
        return (abs(stop.value - x0.coords[0]) + 1.0) / min(e0, 1.0) + 1.0
    r0 = _chart_radius(spec, x0.coords)
    r_far = max(r0, stop.value)
    # generous radial free-fall scale ~ r^{3/2} / sqrt(M), plus a flat-space term
    # (r * sqrt(r) overflows to inf, where r**1.5 would raise, for a huge target)
    scale = r_far * math.sqrt(r_far) / math.sqrt(max(spec.mass, 1e-3))
    return 4.0 * scale + 10.0 * abs(r0 - stop.value) + 100.0


def _chart_radius(spec: MetricSpec, coords: np.ndarray) -> float:
    """Radial coordinate for radius stops: r, or Euclidean |x| in flat space."""
    if spec.kind == SCHWARZSCHILD:
        return float(coords[1])
    # hypot scales its arguments, so |x| does not overflow beyond 1e154
    return math.hypot(*coords[1:4])


def _drift_bound(tol: float) -> float:
    return max(1e-8, 100.0 * tol)


def _metric_stack(spec: MetricSpec, points: np.ndarray) -> np.ndarray:
    return np.stack([metric_components(spec, x) for x in points])


def check_metric_preserved(g: np.ndarray, propagators: np.ndarray, tol: float) -> float:
    """Raise StepFailure unless P^T g(x) P = g(x0) at every stored step.

    g holds the metric at the stored points, g[0] at the emission event.
    Like the tangent-norm check, the bound max(1e-8, 100 * tol) scales with
    the conditioning max(|P|^T |g| |P|), the size of the terms that cancel
    near the horizon. Returns the worst residual.
    """
    residual = float(np.max(np.abs(
        np.einsum("nab,nac,ncd->nbd", propagators, g, propagators) - g[0]
    )))
    P_abs = np.abs(propagators)
    conditioning = float(np.max(np.einsum("nab,nac,ncd->nbd", P_abs, np.abs(g), P_abs)))
    bound = _drift_bound(tol) * max(1.0, conditioning)
    if not residual <= bound:
        raise StepFailure(f"propagator metric residual {residual:.3e} exceeds {bound:.3e}")
    return residual


def integrate_geodesic(
    spec: MetricSpec,
    x0: SpacetimePoint,
    u0: FourVector,
    stop: StopCondition,
    tol: float = 1e-10,
) -> GeodesicPath:
    """Integrate the geodesic from (x0, u0) until the stop condition fires.

    tol controls the local error (relative tol; absolute is tol * 1e-3) of
    the path and of its parallel propagator alike.
    Raises HorizonApproach if the path would cross the guard radius,
    StepFailure if the stop is not reached within the tau cap or MAX_STEPS
    steps, conservation drifts exceed max(1e-8, 100 * tol) or the
    propagator fails to preserve the metric.
    """
    metric_components(spec, x0.coords)  # chart + domain check
    kind = _classify_tangent(spec, x0, u0)

    if stop.kind == STOP_RADIUS and spec.kind == SCHWARZSCHILD:
        if stop.value <= spec.guard_radius:
            raise ValidationError("stop.value", "radius target inside horizon guard")

    y0 = np.concatenate([x0.coords, u0.components, np.eye(4).ravel()])
    # degenerate stop: zero-length path
    if (
        (stop.kind == STOP_PROPER_TIME and stop.value == 0.0)
        or (
            stop.kind == STOP_RADIUS
            and abs(_chart_radius(spec, x0.coords) - stop.value) <= stop.tolerance
        )
        or (stop.kind == STOP_COORDINATE_TIME and abs(x0.coords[0] - stop.value) <= stop.tolerance)
    ):
        return _checked_path(spec, kind, tol, np.array([0.0]), y0[None, :])

    hard_floor = 2.0 * spec.mass if spec.kind == SCHWARZSCHILD else None

    def rhs(_tau, y):
        # gamma_u[a, b] = Gamma^a_{bc} u^c drives both u and the propagator
        u = y[4:8]
        gamma_u = christoffel_components(spec, y[:4], floor=hard_floor) @ u
        return np.concatenate([u, -gamma_u @ u, (-gamma_u @ y[8:].reshape(4, 4)).ravel()])

    steps = 0

    def step_budget(_tau, _y):
        # solve_ivp evaluates every event once at the start and once per step
        nonlocal steps
        steps += 1
        if steps > MAX_STEPS + 1:
            raise StepFailure(f"stop condition {stop.kind} = {stop.value} not reached "
                              f"within {MAX_STEPS} steps")
        return 1.0

    events = []
    stop_index = None
    if stop.kind == STOP_RADIUS:
        def stop_event(_tau, y, target=stop.value):
            return _chart_radius(spec, y[:4]) - target
        stop_event.terminal = True
        events.append(stop_event)
        stop_index = 0
    elif stop.kind == STOP_COORDINATE_TIME:
        def stop_event(_tau, y, target=stop.value):
            return y[0] - target
        stop_event.terminal = True
        events.append(stop_event)
        stop_index = 0

    guard_index = None
    if spec.kind == SCHWARZSCHILD:
        def guard_event(_tau, y, guard=spec.guard_radius):
            return y[1] - guard
        guard_event.terminal = True
        guard_event.direction = -1.0
        events.append(guard_event)
        guard_index = len(events) - 1
    events.append(step_budget)

    cap = _tau_cap(spec, x0, u0, stop)
    sol = solve_ivp(
        rhs,
        (0.0, cap),
        y0,
        method="RK45",
        rtol=tol,
        atol=tol * 1e-3,
        events=events,
    )
    if not sol.success:
        raise StepFailure(f"integrator failed: {sol.message}")
    if guard_index is not None and len(sol.t_events[guard_index]) > 0:
        raise HorizonApproach(
            f"path reached guard radius {spec.guard_radius} at tau = "
            f"{sol.t_events[guard_index][0]}"
        )
    if stop_index is not None and len(sol.t_events[stop_index]) == 0:
        raise StepFailure(
            f"stop condition {stop.kind} = {stop.value} not reached by tau = {cap}"
        )

    return _checked_path(spec, kind, tol, sol.t.copy(), sol.y.T.copy())


def _checked_path(
    spec: MetricSpec, kind: str, tol: float, taus: np.ndarray, states: np.ndarray
) -> GeodesicPath:
    """The path through the stored (x, u, P) states, once its checks pass.

    The metric is evaluated once per stored point; the conservation drift
    and the propagator check share that stack, and the path keeps both the
    stack and the drift.
    """
    points = np.ascontiguousarray(states[:, :4])
    tangents = np.ascontiguousarray(states[:, 4:8])
    propagators = states[:, 8:].reshape(-1, 4, 4)
    g = _metric_stack(spec, points)
    drift = _conservation_drift(spec, kind, points, tangents, g)
    bound = _drift_bound(tol)
    # the tangent-norm check cancels catastrophically near the horizon
    # (terms ~ E^2/f against a result of order 1), so its bound scales with
    # the conditioning number; the Killing checks have no such cancellation
    u_abs = np.abs(tangents)
    conditioning = float(np.max(np.einsum("nab,na,nb->n", np.abs(g), u_abs, u_abs)))
    bounds = {k: bound for k in drift}
    bounds["norm"] = bound * max(1.0, conditioning)
    bad = {k: v for k, v in drift.items() if v > bounds[k]}
    if bad:
        raise StepFailure(f"conservation drift {bad} exceeds {bounds}")
    check_metric_preserved(g, propagators, tol)
    return GeodesicPath(
        spec=spec,
        kind=kind,
        tol=tol,
        taus=taus,
        points=points,
        tangents=tangents,
        propagators=propagators,
        metrics=g,
        drift=drift,
    )

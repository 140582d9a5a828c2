"""Geodesics and the parallel propagator of each leg, in closed form where possible.

A leg's kind comes from its initial tangent alone: tangent_kind reads
timelike or null from u.u and refuses a past-pointing u. A stop is a kind
and a value; a radius or coordinate-time stop within STOP_SNAP of the
start gives a zero-length leg.

A Schwarzschild leg is converted into units of M, the chart's one scale,
once, where integrate_geodesic starts it, after its checks in the caller's
units: x0 becomes (t/M, r/M, theta, phi), u0 becomes (u^t, u^r, M u^theta,
M u^phi) and the stop value becomes value/M. Everything after that runs at
unit mass, and the path is stored in units of M: its taus, points,
tangents, metrics and propagators. It records the caller's spec, and
converting back is the report's business.

Flat legs are straight lines in the Cartesian chart, x = x0 + u0 tau, and
their parallel propagator is the identity. A radius stop is the first
positive root of a quadratic and a coordinate-time stop is linear, so flat
legs need no ODE.

Schwarzschild legs integrate the 9-component state (x, u, psi) with a
Dormand-Prince 5(4) stepper on Python floats (J. R. Dormand and P. J.
Prince, J. Comput. Appl. Math. 6, 19 (1980)), with rtol = tol and
atol = tol * 1e-3, which mean the same at every mass in units of M. t and
phi are stepped from the start, so the origin's t does not enter the step
control, and added back to the stored states. The RMS error norm,
step-size controller and initial-step rule follow Hairer, Norsett and
Wanner, Solving ODEs I, sec. II.4, and the quartic dense output L. F.
Shampine, Math. Comp. 46, 135 (1986), as in the common RK45 solvers.
Terminal events (target radius, coordinate time, horizon guard) are
located by bracketing the root on the step's dense interpolant. One
integration takes at most MAX_STEPS accepted steps. The stepper forms its
trial stages only on the components the right-hand side reads, and steps
only those it moves: a general leg reads (r, theta, u) and moves all nine;
a radial leg, u^theta = u^phi = 0, reads (r, u^t, u^r) and moves (t, r,
u^t, u^r), and its other five components stay put. Both store the bits
of the run that steps all nine components.

Every Schwarzschild geodesic lies in a plane through r = 0, so a frame
parallel along it is algebraic in (x, u) and the one scalar psi (J.-A.
Marck, Proc. R. Soc. Lond. A 385, 431 (1983)). With u^ the tangent in the
static tetrad, Lambda = |(u^2, u^3)|, n = (u^2, u^3) / Lambda, E = f u^t and
L = r Lambda, the frame holds u and the orbital-plane normal (0, 0, n3, -n2).
Both kinds of leg rebuild u^0 = hypot(u^1, sqrt(D)), D = eps + Lambda^2, from
the integrated spatial components, so u.u = -eps (1 timelike, 0 null) holds
to rounding; the path stores that u and checks the integrated one:

* timelike legs add a = (u^1, u^0, 0, 0) / sqrt(D) and
  b = (Lambda u^0, Lambda u^1, D n) / sqrt(D), turned by psi, with
  dpsi/dtau = -E L / (r^2 + L^2);
* null legs add m = m0 + psi u, where m0 = (0, Lambda, -u^1 n) / u^0 is the
  unit vector orthogonal to u, the plane normal and the static observer,
  and the null partner n of u with n.u = -1 and n orthogonal to m; here
  dpsi/dtau = -M L / (E r^3). (Taking m0 = (u^1, u^0, 0, 0) / Lambda
  instead gives dpsi/dtau = -E / L, whose terms grow like 1/L and cancel
  on near-radial rays.)

On a radial leg (L = 0), n is theta-hat and psi stays 0. The propagator of
a leg is P(tau) = F(tau) F(0)^-1 for that frame F, with P(0) = I exactly,
so P^T g(x) P = g(x0) holds by construction; it is still checked at every
stored step, at a rounding slack. A leg evaluates the metric once, as one
stack over its stored steps, from which the frame reads f = -g_tt and which
the drift and propagator checks contract. Each path keeps that stack, the
drift it was checked against and its integrator counters.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import (
    BadNormalization,
    HorizonApproach,
    HorizonDomain,
    StepFailure,
    ValidationError,
)
from .geometry import SCHWARZSCHILD, MetricSpec, metric_components, metric_stack

TIMELIKE = "timelike"
NULL = "null"

STOP_PROPER_TIME = "proper_time"
STOP_RADIUS = "radius"
STOP_COORDINATE_TIME = "coordinate_time"

NORMALIZATION_TOL = 1e-8
# u.u of a null tangent cancels terms of size max|u|^2, so its check scales
# with them, but never beyond NORMALIZATION_TOL
NULL_NORM_TOL = 1e-9

# a radius or coordinate-time stop this close to the start is already reached
# (in units of M on a Schwarzschild leg)
STOP_SNAP = 1e-10

# cap on the accepted solver steps of one integration, so that a far or
# unreachable stop fails with StepFailure instead of running for days
MAX_STEPS = 50_000

# slack of the propagator's metric check: the closed-form frame is
# orthonormal up to rounding, so P^T g P = g(x0) holds to a few ulp of the
# terms that cancel in it (the check's conditioning factor)
METRIC_SLACK = 64.0 * float(np.finfo(float).eps)

# Dormand-Prince 5(4): stage weights, 5th-order solution, error weights and
# the quartic dense output (Shampine's optimum c6)
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40
)
_DENSE = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


@dataclass(frozen=True)
class StopCondition:
    """Where integration ends: affine parameter, radius, or coordinate time."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in (STOP_PROPER_TIME, STOP_RADIUS, STOP_COORDINATE_TIME):
            raise ValidationError("stop.kind", f"unknown kind {self.kind!r}")
        if self.value < 0.0 and self.kind != STOP_COORDINATE_TIME:
            raise ValidationError("stop.value", "target must be non-negative")
        if self.kind == STOP_RADIUS and self.value <= 0.0:
            raise ValidationError("stop.value", "radius target must be positive")

    @classmethod
    def proper_time(cls, tau: float) -> "StopCondition":
        return cls(STOP_PROPER_TIME, tau)

    @classmethod
    def radius(cls, r: float) -> "StopCondition":
        return cls(STOP_RADIUS, r)

    @classmethod
    def coordinate_time(cls, t: float) -> "StopCondition":
        return cls(STOP_COORDINATE_TIME, t)


@dataclass(frozen=True, eq=False)
class GeodesicPath:
    """Sampled geodesic with tangent, propagator, checked drift and counters.

    spec is the caller's metric. A Schwarzschild path holds everything in
    units of M, in the exterior chart of unit mass: its taus, points,
    tangents, metrics and propagators; its t and phi are the caller's origin
    converted, not shifted to 0. nfev, accepted and rejected count the
    stepper's right-hand-side evaluations and its accepted and rejected
    steps; all three are 0 on a leg that needs no ODE (flat space, zero
    length).
    """

    spec: MetricSpec
    kind: str
    tol: float
    taus: np.ndarray          # (n,), strictly increasing, taus[0] == 0
    points: np.ndarray        # (n, 4)
    tangents: np.ndarray      # (n, 4); on Schwarzschild legs the frame's u
    propagators: np.ndarray   # (n, 4, 4), parallel propagator from taus[0]
    metrics: np.ndarray       # (n, 4), the metric's diagonal at the points
    drift: dict[str, float]   # max conservation drifts, checked at integration
    nfev: int = 0
    accepted: int = 0
    rejected: int = 0

    @property
    def tau_end(self) -> float:
        return float(self.taus[-1])


# the chart a Schwarzschild path is stored in
_UNIT_MASS = MetricSpec(SCHWARZSCHILD, 1.0)

_IDENTITY = np.eye(4)
_IDENTITY.flags.writeable = False


def _conservation_drift(
    chart: MetricSpec, kind: str, points: np.ndarray, tangents: np.ndarray, g: np.ndarray
) -> dict[str, float]:
    """Worst drift of u.u, E and L_z, from the metric stack g in the path's
    chart; L_z's floor is that chart's M, 1 on a Schwarzschild path."""
    uu = np.einsum("na,na,na->n", g, tangents, tangents)
    n0 = -1.0 if kind == TIMELIKE else 0.0
    drift = {"norm": float(np.abs(uu - n0).max())}
    if chart.kind == SCHWARZSCHILD:
        r, theta = points[:, 1], points[:, 2]
        # E = f u^t, positive on every leg integrate_geodesic accepts, and L_z
        weights = np.empty((2, len(points)))
        np.negative(g[:, 0], out=weights[0])
        np.multiply(r**2, np.sin(theta) ** 2, out=weights[1])
        killing = weights * tangents[:, ::3].T
        worst_E, worst_L = np.abs(killing - killing[:, :1]).max(axis=1).tolist()
        E0, L0 = killing[:, 0].tolist()
        drift["energy"] = worst_E / abs(E0)
        drift["angular_momentum"] = worst_L / max(abs(L0), chart.mass)
    return drift


def tangent_kind(u: np.ndarray, uu: float) -> str:
    """TIMELIKE or NULL: the kind of tangent u, whose norm is uu = g(u, u).

    Timelike means |u.u + 1| <= NORMALIZATION_TOL, null means |u.u| <=
    min(NORMALIZATION_TOL, NULL_NORM_TOL max|u|^2), at any scale of u where
    that bound does not underflow to 0. Either must be future-pointing,
    u^t > 0, which outside the horizon is the same condition in both
    charts. Raises BadNormalization for anything else.
    """
    if not u.any():
        raise BadNormalization("u is the zero vector")
    if not u[0] > 0.0:
        raise BadNormalization(f"u^t = {u[0]}; u must be future-pointing (u^t > 0)")
    if abs(uu + 1.0) <= NORMALIZATION_TOL:
        return TIMELIKE
    size = float(np.max(np.abs(u)))  # size * size is inf, where size ** 2 would raise, beyond 1e154
    null_tol = min(NORMALIZATION_TOL, NULL_NORM_TOL * size * size)
    if null_tol == 0.0:
        raise BadNormalization(f"u.u = {uu} underflows at max|u| = {size}: neither timelike nor null")
    if abs(uu) <= null_tol:
        return NULL
    raise BadNormalization(f"u.u = {uu}, expected -1 (timelike) or 0 (null)")


def _tau_cap(kind: str, stop: StopCondition, t0: float, r0: float, energy: float) -> float:
    """Largest affine parameter a unit-mass leg from (t0, r0), with E = f u^t > 0, may take.

    A radius stop's cap is a free-fall time, which a null leg's affine
    parameter stretches by 1/E, as the coordinate-time cap does on both kinds.
    """
    if stop.kind == STOP_PROPER_TIME:
        return stop.value
    if stop.kind == STOP_COORDINATE_TIME:
        # dt/dparam >= E along the path since f u^t is conserved and f <= 1
        return (abs(stop.value - t0) + 1.0) / min(energy, 1.0) + 1.0
    r_far = max(r0, stop.value)
    # generous radial free-fall scale ~ r^{3/2}, plus a flat-space term
    # (r * sqrt(r) overflows to inf, where r**1.5 would raise, for a huge target)
    scale = r_far * math.sqrt(r_far)
    cap = 4.0 * scale + 10.0 * abs(r0 - stop.value) + 100.0
    return cap / min(energy, 1.0) if kind == NULL else cap


def _chart_radius(spec: MetricSpec, coords: np.ndarray) -> float:
    """Radial coordinate for radius stops: r, or Euclidean |x| in flat space."""
    if spec.kind == SCHWARZSCHILD:
        return float(coords[1])
    # hypot scales its arguments, so |x| does not overflow beyond 1e154
    return math.hypot(*coords[1:4])


def _drift_bound(tol: float) -> float:
    """The relative drift a leg's conservation checks, and transport along it, allow at tol."""
    return max(1e-8, 100.0 * tol)


def check_metric_preserved(
    g: np.ndarray, propagators: np.ndarray, sizes: np.ndarray | None = None
) -> float:
    """Raise StepFailure unless P^T g(x) P = g(x0) at every stored step.

    g is the metric stack at the stored points, g[0] at the emission event.
    P is built from a frame that is orthonormal up to rounding, so the
    bound is METRIC_SLACK times the conditioning max(|P|^T |g| sizes), the
    size of the terms that cancel. sizes bounds, entry by entry, the terms
    summed into P and defaults to |P|; for P = F F(0)^-1 it is
    |F| |F(0)^-1|, which exceeds |P| by about gamma^2 on a leg whose tangent
    is boosted by gamma against the static frame. Returns the worst residual.
    """
    return _metric_residual(g, np.abs(g), propagators, sizes)


def _metric_residual(
    g: np.ndarray, g_abs: np.ndarray, propagators: np.ndarray, sizes: np.ndarray | None
) -> float:
    """check_metric_preserved from the metric stack g and its magnitudes g_abs."""
    residual = np.einsum("nab,na,nad->nbd", propagators, g, propagators)
    residual -= np.diag(g[0])
    residual = float(np.abs(residual, out=residual).max())
    P_abs = np.abs(propagators)
    sizes = P_abs if sizes is None else sizes
    conditioning = float(np.einsum("nab,na,nad->nbd", P_abs, g_abs, sizes).max())
    bound = METRIC_SLACK * max(1.0, conditioning)
    if not residual <= bound:
        raise StepFailure(f"propagator metric residual {residual:.3e} exceeds {bound:.3e}")
    return residual


def integrate_geodesic(
    spec: MetricSpec,
    x0: np.ndarray,
    u0: np.ndarray,
    stop: StopCondition,
    tol: float = 1e-10,
) -> GeodesicPath:
    """The geodesic from the event x0 with tangent u0, both (4,) arrays, until
    the stop fires.

    x0, u0 and the stop are in the caller's units, and are checked in them.
    A Schwarzschild leg is then converted into units of M, and its path is
    stored in them (see GeodesicPath); the path records spec as given.
    tol controls the local error (relative tol; absolute is tol * 1e-3) of
    the integrated state (x, u, psi), in units of M; flat legs are exact.
    Raises BadNormalization unless tangent_kind accepts u0 and, on a
    Schwarzschild leg, its Killing energy f u^t is positive, HorizonApproach
    if the path would cross the guard radius, StepFailure if the stop is
    not reached within the tau cap (a flat leg has none) or MAX_STEPS
    steps, the state turns non-finite, the step size underflows,
    conservation drifts exceed max(1e-8, 100 * tol) or the propagator fails
    to preserve the metric.
    """
    # the metric at x0 is also the domain check
    g0 = metric_components(spec, x0)
    with np.errstate(over="ignore", invalid="ignore"):  # tangent_kind refuses an overflowing u.u
        kind = tangent_kind(u0, float(u0 * g0 @ u0))

    if spec.kind == SCHWARZSCHILD:
        if stop.kind == STOP_RADIUS and stop.value <= spec.guard_radius:
            raise ValidationError("stop.value", "radius target inside horizon guard")
        # the one conversion into units of M, in Python floats: a t or r beyond
        # the floats becomes inf without a warning, and the leg's checks refuse it
        M = spec.mass
        t, r, theta, phi = x0.tolist()
        ut, ur, uth, uph = u0.tolist()
        x0, u0 = np.array([t / M, r / M, theta, phi]), np.array([ut, ur, uth * M, uph * M])
        stop = StopCondition(stop.kind, stop.value / M)
        # E = f u^t divides a null leg's rates, its caps and the energy drift;
        # a u^t so small that E underflows leaves them undefined
        if not (1.0 - 2.0 / (r / M)) * ut > 0.0:
            raise BadNormalization(f"Killing energy f u^t underflows to 0 at u^t = {ut}")

    # degenerate stop: zero-length path
    if (
        (stop.kind == STOP_PROPER_TIME and stop.value == 0.0)
        or (stop.kind == STOP_RADIUS and abs(_chart_radius(spec, x0) - stop.value) <= STOP_SNAP)
        # in Python floats, where inf - inf is NaN without a warning
        or (stop.kind == STOP_COORDINATE_TIME and abs(float(x0[0]) - stop.value) <= STOP_SNAP)
    ):
        return _checked_path(
            spec, kind, tol, np.array([0.0]), np.array([x0]), np.array([u0]),
            np.eye(4)[None, :, :],
        )
    if spec.kind == SCHWARZSCHILD:
        return _schwarzschild_leg(spec, kind, x0, u0, stop, tol)
    return _straight_line(spec, kind, x0, u0, stop, tol)


def _straight_line(
    spec: MetricSpec, kind: str, x0: np.ndarray, u0: np.ndarray,
    stop: StopCondition, tol: float,
) -> GeodesicPath:
    """A flat leg: x = x0 + u0 tau with P = I, its stop solved in closed form."""
    x, u = x0, u0
    if stop.kind == STOP_PROPER_TIME:
        tau = stop.value
    elif stop.kind == STOP_COORDINATE_TIME:
        tau = (stop.value - x[0]) / u[0]
    else:
        tau = _line_radius_root(x[1:4], u[1:4], stop.value)
    if not tau > 0.0:
        raise StepFailure(f"stop condition {stop.kind} = {stop.value} not reached by tau = inf")
    with np.errstate(over="ignore", invalid="ignore"):
        end = x + u * tau
    if not np.all(np.isfinite(end)):
        raise StepFailure(f"end event of a leg of length tau = {tau} overflows the chart")
    identity = np.eye(4)
    return _checked_path(
        spec, kind, tol, np.array([0.0, tau]), np.stack([x, end]), np.stack([u, u]),
        np.stack([identity, identity]),
    )


def _line_radius_root(x: np.ndarray, v: np.ndarray, radius: float) -> float:
    """Smallest tau > 0 with |x + v tau| = radius; NaN if there is none.

    Lengths are scaled by max(|x|, radius) and v by its norm, so the
    quadratic rho^2 + 2 b rho + c = 0 in rho = |v| tau / scale has terms of
    order 1, and each root is taken in the form that does not cancel.
    """
    speed = math.hypot(*v)
    if speed == 0.0:
        return math.nan
    scale = max(math.hypot(*x), radius)
    xs = x / scale
    rs = radius / scale
    b = float(xs @ v) / speed
    hx = math.hypot(*xs)
    c = (hx - rs) * (hx + rs)
    disc = b * b - c
    if disc < 0.0:
        return math.nan
    sq = math.sqrt(disc)
    if c < 0.0:  # inside the sphere: one root ahead
        rho = -c / (b + sq) if b > 0.0 else sq - b
    elif b < 0.0:  # outside and moving inward: the nearer crossing
        rho = c / (sq - b)
    else:
        return math.nan
    return rho * scale / speed


def _schwarzschild_rhs(kind: str, energy: float, ang_mom: float):
    """d(x, u, psi)/dtau on the exterior chart of unit mass, as a function of
    the components (r, theta, u^t, u^r, u^theta, u^phi) it reads.

    The geodesic term Gamma^a_bc u^b u^c is written out over the nine
    nonzero Christoffel symbols of the closed-form table in tests/reference.py,
    which the tests check this term against.
    States at or inside r = 2 raise HorizonDomain, which makes _dopri
    reject the step; trial stages between the guard and 2 still evaluate,
    so the guard event can locate the crossing.
    """
    timelike = kind == TIMELIKE
    L2 = ang_mom * ang_mom
    # dpsi/dtau = -E L / (r^2 + L^2) on timelike legs, -M L / (E r^3) on null ones
    psi_scale = -energy * ang_mom if timelike else -ang_mom / energy
    sin, cos = math.sin, math.cos

    def rhs(y):
        r, th, ut, ur, uth, uph = y
        if r <= 2.0:
            raise HorizonDomain(f"r = {r} M inside radius 2 M")
        f = 1.0 - 2.0 / r
        s, c = sin(th), cos(th)
        g_tr = 1.0 / (r * r * f)             # Gamma^t_tr = -Gamma^r_rr
        g_tt = f / (r * r)                   # Gamma^r_tt
        rf = r * f                           # -Gamma^r_thth
        inv_r = 1.0 / r                      # Gamma^th_rth = Gamma^ph_rph
        cot = c / s                          # Gamma^ph_thph
        uph2 = uph * uph
        return (
            ut, ur, uth, uph,
            -2.0 * g_tr * ut * ur,
            -g_tt * ut * ut + g_tr * ur * ur + rf * uth * uth + rf * s * s * uph2,
            -2.0 * inv_r * ur * uth + s * c * uph2,
            -2.0 * inv_r * ur * uph - 2.0 * cot * uth * uph,
            psi_scale / (r * r + L2) if timelike else psi_scale / (r * r * r),
        )

    return rhs


def _radial_rhs(y):
    """d(t, r, u^t, u^r)/dtau of a radial leg, u^theta = u^phi = 0, from (r, u^t, u^r).

    These are _schwarzschild_rhs's terms for the four components, in its
    order. Its two angular terms of du^r/dtau are +0.0 on a radial leg, or
    NaN where r f overflows, which is what r f * 0.0 gives. theta, phi,
    u^theta, u^phi and psi do not move.
    """
    r, ut, ur = y
    if r <= 2.0:
        raise HorizonDomain(f"r = {r} M inside radius 2 M")
    f = 1.0 - 2.0 / r
    g_tr = 1.0 / (r * r * f)
    g_tt = f / (r * r)
    return ut, ur, -2.0 * g_tr * ut * ur, -g_tt * ut * ut + g_tr * ur * ur + r * f * 0.0


# the components each right-hand side reads and moves, as _dopri's reads and moves
_GENERAL = (1, 2, 4, 5, 6, 7), None
_RADIAL = (1, 4, 5), (0, 1, 4, 5)


def _schwarzschild_leg(
    spec: MetricSpec, kind: str, x0: np.ndarray, u0: np.ndarray, stop: StopCondition, tol: float
) -> GeodesicPath:
    """A Schwarzschild leg at unit mass, from x0 with tangent u0 to the stop, all in units of M.

    t and phi are stepped from x0 and added back to the stored states. A
    radial leg, u^theta = u^phi = 0, steps (t, r, u^t, u^r) on _radial_rhs.
    """
    t0, r0, th0, ph0 = x0.tolist()
    y0 = [0.0, r0, th0, 0.0, *u0.tolist(), 0.0]
    energy = (1.0 - 2.0 / r0) * y0[4]
    if y0[6] == 0.0 and y0[7] == 0.0:  # radial: L = 0, and theta and phi stay put
        rhs, (reads, moves) = _radial_rhs, _RADIAL
    else:
        ang_mom = r0 * math.hypot(r0 * y0[6], r0 * math.sin(th0) * y0[7])
        rhs, (reads, moves) = _schwarzschild_rhs(kind, energy, ang_mom), _GENERAL

    # events: (state component, target, direction), the guard last
    events = []
    if stop.kind == STOP_RADIUS:
        events.append((1, stop.value, 0))
    elif stop.kind == STOP_COORDINATE_TIME:
        events.append((0, stop.value - t0, 0))
    guard = _UNIT_MASS.guard_radius
    events.append((1, guard, -1))
    what = f"stop condition {stop.kind} = {stop.value} M"
    cap = _tau_cap(kind, stop, t0, r0, energy)
    try:
        run = _dopri(rhs, y0, cap, tol, events, what, reads, moves)
    except (ArithmeticError, ValueError) as e:  # e.g. a trial stage on the polar axis
        raise StepFailure(f"integration failed: {e}") from None
    if run.event == len(events) - 1:
        raise HorizonApproach(f"path reached guard radius {guard} M at tau = {run.taus[-1]} M")
    if stop.kind != STOP_PROPER_TIME and run.event is None:
        raise StepFailure(f"{what} not reached by tau = {cap} M")

    taus = np.array(run.taus)
    states = np.fromiter(chain.from_iterable(run.states), float, 9 * len(taus)).reshape(-1, 9)
    states[:, 0] += t0
    states[:, 3] += ph0
    points = np.ascontiguousarray(states[:, :4])
    g = metric_stack(_UNIT_MASS, points)
    frames = _parallel_frames(kind, points, g, states[:, 4:8], states[:, 8])
    inverse = np.linalg.inv(frames[0])
    propagators = frames @ inverse
    propagators[0] = _IDENTITY
    # the integrated tangents are checked; the path stores the frame's u, which P carries
    return _checked_path(
        spec, kind, tol, taus, points, states[:, 4:8],
        propagators, np.abs(frames) @ np.abs(inverse), run.nfev, run.accepted, run.rejected,
        g=g, stored_tangents=np.ascontiguousarray(frames[:, :, 0]),
    )


def _parallel_frames(
    kind: str, points: np.ndarray, g: np.ndarray, tangents: np.ndarray, psi: np.ndarray
) -> np.ndarray:
    """Marck's parallel frame at each stored state, as the columns of (n, 4, 4).

    g is the metric stack at the points, whose -g_tt is f = 1 - 2M/r.
    Timelike legs: (u, a cos psi + b sin psi, -a sin psi + b cos psi, l),
    orthonormal. Null legs: (u, n, m, l) with n.u = -1, m.m = l.l = 1 and
    all other products 0. u^t is rebuilt by the one rule of the module
    docstring, so the Gram matrix holds to rounding wherever u drifts.
    Each column is written into one buffer in the static tetrad, which its
    legs then scale.
    """
    n = len(points)
    r, theta = points[:, 1], points[:, 2]
    # the legs f^-1/2 d_t, f^1/2 d_r, r^-1 d_theta, (r sin theta)^-1 d_phi
    legs = np.empty((n, 4))
    sqrt_f = np.sqrt(-g[:, 0], out=legs[:, 1])
    r_sin = r * np.sin(theta)
    np.divide(1.0, sqrt_f, out=legs[:, 0])
    np.divide(1.0, r, out=legs[:, 2])
    np.divide(1.0, r_sin, out=legs[:, 3])
    frames = np.zeros((n, 4, 4))
    u = frames[:, :, 0]
    U0, U1, U2, U3 = u.T
    np.divide(tangents[:, 1], sqrt_f, out=U1)
    np.multiply(r, tangents[:, 2], out=U2)
    np.multiply(r_sin, tangents[:, 3], out=U3)
    lam = np.hypot(U2, U3)
    # (n2, n3), the orbital plane's normal direction in the static tetrad
    if lam[0] == 0.0:  # radial leg: theta-hat and phi-hat are parallel
        normal = np.array([1.0, 0.0])
    else:
        normal = u[:, 2:] / lam[:, None]
    frames[:, 2, 3], frames[:, 3, 3] = normal[..., 1], -normal[..., 0]
    # U0^2 - U1^2 = D = eps + Lambda^2, with no cancellation in forming D
    eps = 1.0 if kind == TIMELIKE else 0.0
    D, root_D = eps + lam * lam, np.hypot(eps, lam)
    np.hypot(U1, root_D, out=U0)
    psi = psi[:, None]
    if kind == TIMELIKE:
        # a = (U1, U0, 0, 0) / sqrt(D), b = (Lambda U0, Lambda U1, D n) / sqrt(D)
        a, b = ab = np.zeros((2, n, 4))
        a[:, :2] = u[:, 1::-1]
        np.multiply(lam[:, None], u[:, :2], out=b[:, :2])
        np.multiply(D[:, None], normal, out=b[:, 2:])
        ab /= root_D[:, None]
        trig = np.empty((2, n, 1))
        np.cos(psi, out=trig[0])
        np.sin(psi, out=trig[1])
        # (a cos, a sin), (b cos, b sin)
        (a_cos, a_sin), (b_cos, b_sin) = ab[:, None] * trig
        np.add(a_cos, b_sin, out=frames[:, :, 1])
        np.subtract(b_cos, a_sin, out=frames[:, :, 2])
    else:
        # m0 = (0, Lambda, -U1 n) / U0, n0 = (U0, -U1, -Lambda n) / (2 U0^2)
        m0, n0 = np.zeros((2, n, 4))
        neg_U1 = -U1
        m0[:, 1] = lam
        np.multiply(neg_U1[:, None], normal, out=m0[:, 2:])
        n0[:, 0] = U0
        n0[:, 1] = neg_U1
        np.multiply(-lam[:, None], normal, out=n0[:, 2:])
        m0 /= U0[:, None]
        n0 /= (2.0 * U0 * U0)[:, None]
        np.add(n0, psi * m0, out=frames[:, :, 1])
        frames[:, :, 1] += 0.5 * psi * psi * u
        np.add(m0, psi * u, out=frames[:, :, 2])
    frames *= legs[:, :, None]
    return frames


@dataclass(frozen=True, eq=False)
class _Run:
    taus: list[float]
    states: list[Sequence[float]]  # every component of y0
    event: int | None  # index of the event that ended the run
    nfev: int
    accepted: int
    rejected: int


def _dopri(
    rhs, y0: list[float], tau_end: float, tol: float, events, what: str,
    reads: Sequence[int] | None = None, moves: Sequence[int] | None = None,
) -> _Run:
    """Integrate y' = rhs(y) from tau = 0 to tau_end with Dormand-Prince 5(4).

    reads and moves are increasing indices into y0, every component by
    default, with reads among moves: rhs takes the components in reads and
    returns the derivatives of those in moves. The trial stages are formed
    on reads; steps, the error norm and the dense output run over moves;
    every other component has derivative 0 and is carried, plus 0.0 after
    the first step, so each stored state has the bits of the run that moves
    every component with those zeros. The error norm still divides by
    sqrt(len(y0)), and the initial-step rule reads all of y0.

    events are terminal (component, target, direction) triples on moved
    components: event j fires where y[component] crosses target, upward
    for direction > 0, downward for direction < 0 and either way for 0.
    The run ends at the earliest root within the first step that shows a
    crossing, at a state read from the step's dense interpolant. A trial
    step whose stage the right-hand side refuses with HorizonDomain is
    rejected and shrunk by _MIN_FACTOR; nfev counts six evaluations per
    trial step. Messages give tau as stepped, in units of M on a
    Schwarzschild leg.
    """
    rtol, atol = tol, tol * 1e-3
    root_n = math.sqrt(len(y0))
    hypot, isfinite = math.hypot, math.isfinite
    every = range(len(y0))
    reads = every if reads is None else reads
    moves = every if moves is None else moves
    # the read components of a list over moves, as a tuple
    at = [moves.index(i) for i in reads]
    take = itemgetter(*at) if len(at) > 1 else lambda v, i=at[0]: (v[i],)

    def rms(values, scale):
        return hypot(*[v / s for v, s in zip(values, scale)]) / root_n

    # initial step (Hairer, Norsett and Wanner, sec. II.4)
    y = [y0[i] for i in moves]
    y_read = take(y)
    f = rhs(y_read)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = rms(y0, scale)
    scale = [scale[i] for i in moves]
    d1 = rms(f, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, tau_end)
    f1 = rhs([v + h0 * dv for v, dv in zip(y_read, take(f))])
    d2 = rms([b - a for a, b in zip(f, f1)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h1, tau_end)
    nfev, accepted, rejected = 2, 0, 0

    def finished(event):
        if len(moves) < len(y0):
            # each later state over all of y0: its moved components, and y0 + 0.0 for the rest
            after = [v + 0.0 for v in y0]
            whole = itemgetter(*[moves.index(i) if i in moves else len(moves) + i for i in every])
            states[1:] = [whole(v + after) for v in states[1:]]
            states[0] = y0
        return _Run(taus, states, event, nfev, accepted, rejected)

    t = 0.0
    y_abs = [abs(v) for v in y]
    taus, states = [t], [y]
    events = [(moves.index(c), target, direction) for c, target, direction in events]
    g = [y[c] - target for c, target, _ in events]
    while t < tau_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        k1, a1 = f, take(f)
        while True:
            if h_abs < min_step:
                raise StepFailure(f"step size underflow at tau = {t}")
            t_new = min(t + h_abs, tau_end)
            h = t_new - t
            h_abs = h
            nfev += 6
            try:
                k2 = rhs([v + h * (_A21 * a) for v, a in zip(y_read, a1)])
                a2 = take(k2)
                k3 = rhs([v + h * (_A31 * a + _A32 * b) for v, a, b in zip(y_read, a1, a2)])
                a3 = take(k3)
                k4 = rhs([v + h * (_A41 * a + _A42 * b + _A43 * c)
                          for v, a, b, c in zip(y_read, a1, a2, a3)])
                a4 = take(k4)
                k5 = rhs([v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                          for v, a, b, c, d in zip(y_read, a1, a2, a3, a4)])
                a5 = take(k5)
                k6 = rhs([v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                          for v, a, b, c, d, e in zip(y_read, a1, a2, a3, a4, a5)])
                y_new = [v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * p)
                         for v, a, c, d, e, p in zip(y, k1, k3, k4, k5, k6)]
                y_new_read = take(y_new)
                k7 = rhs(y_new_read)
            except HorizonDomain:
                # a trial stage left the chart: the step is too long
                h_abs *= _MIN_FACTOR
                step_rejected = True
                rejected += 1
                continue
            y_new_abs = [abs(w) for w in y_new]
            error = hypot(*[
                h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * p + _E7 * q)
                / (atol + (w if w > v else v) * rtol)
                for a, c, d, e, p, q, v, w in zip(k1, k3, k4, k5, k6, k7, y_abs, y_new_abs)
            ]) / root_n
            if not isfinite(error):
                raise StepFailure(f"non-finite state after tau = {t}")
            if error < 1.0:
                factor = _MAX_FACTOR if error == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * error ** -0.2
                )
                h_abs *= min(1.0, factor) if step_rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** -0.2)
            step_rejected = True
            rejected += 1
        accepted += 1
        if accepted > MAX_STEPS:
            raise StepFailure(f"{what} not reached within {MAX_STEPS} steps")

        g_new = [y_new[c] - target for c, target, _ in events]
        crossed = [
            j for j, (_, _, direction) in enumerate(events)
            if (direction >= 0 and g[j] <= 0.0 <= g_new[j])
            or (direction <= 0 and g[j] >= 0.0 >= g_new[j])
        ]
        if crossed:
            stages = (k1, k2, k3, k4, k5, k6, k7)
            # dense output y(t + x h) = y + h sum_j Q[i][j] x^(j+1)
            Q = [[sum(K[i] * row[j] for K, row in zip(stages, _DENSE)) for j in range(4)]
                 for i in range(len(y))]

            def dense(i, x):
                q = Q[i]
                return y[i] + h * x * (q[0] + x * (q[1] + x * (q[2] + x * q[3])))

            roots = [(_bracket_root(lambda x, c=events[j][0], target=events[j][1]:
                                    dense(c, x) - target), j) for j in crossed]
            x, event = min(roots)
            tau = t + x * h
            taus.append(tau)
            states.append([dense(i, x) for i in range(len(y))])
            return finished(event)

        t, y, y_read, y_abs, f, g = t_new, y_new, y_new_read, y_new_abs, k7, g_new
        taus.append(t)
        states.append(y)
    return finished(None)


def _bracket_root(fn) -> float:
    """Root of fn on [0, 1], where fn changes sign, by Illinois false position.

    Falls back to bisection whenever the secant does not land inside the
    bracket; stops when the bracket is 4 ulp wide. If rounding of the
    interpolant hides the sign change, the end nearer to zero is returned.
    """
    a, b = 0.0, 1.0
    fa, fb = fn(a), fn(b)
    if fa == 0.0:
        return a
    if fb == 0.0 or (fa < 0.0) == (fb < 0.0):
        return b if abs(fb) <= abs(fa) else a
    side = 0
    for _ in range(200):
        x = (a * fb - b * fa) / (fb - fa)
        if not a < x < b:
            x = 0.5 * (a + b)
        fx = fn(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = x, fx
            if side == 1:
                fa *= 0.5
            side = 1
        if b - a <= 4.0 * math.ulp(b):
            break
    return b


def _checked_path(
    spec: MetricSpec, kind: str, tol: float, taus: np.ndarray, points: np.ndarray,
    tangents: np.ndarray, propagators: np.ndarray, sizes: np.ndarray | None = None,
    nfev: int = 0, accepted: int = 0, rejected: int = 0,
    g: np.ndarray | None = None, stored_tangents: np.ndarray | None = None,
) -> GeodesicPath:
    """The path through the stored states, once the checks of its tangents pass.

    The metric is evaluated once per stored point, in the chart of the
    path's units, in one stack that also checks each point's domain, unless
    the caller passes that stack as g. The path keeps spec, the stack, the
    drift and stored_tangents, by default the checked ones.
    """
    chart = _UNIT_MASS if spec.kind == SCHWARZSCHILD else spec
    g = metric_stack(chart, points) if g is None else g
    g_abs = np.abs(g)
    drift = _conservation_drift(chart, kind, points, tangents, g)
    bound = _drift_bound(tol)
    # the tangent-norm check cancels catastrophically near the horizon
    # (terms ~ E^2/f against a result of order 1), so its bound scales with
    # the conditioning number; the Killing checks have no such cancellation
    u_abs = np.abs(tangents)
    conditioning = float(np.einsum("na,na,na->n", g_abs, u_abs, u_abs).max())
    bounds = {k: bound for k in drift}
    bounds["norm"] = bound * max(1.0, conditioning)
    bad = {k: v for k, v in drift.items() if v > bounds[k]}
    if bad:
        raise StepFailure(f"conservation drift {bad} exceeds {bounds}")
    _metric_residual(g, g_abs, propagators, sizes)
    return GeodesicPath(
        spec=spec,
        kind=kind,
        tol=tol,
        taus=taus,
        points=points,
        tangents=tangents if stored_tangents is None else stored_tangents,
        propagators=propagators,
        metrics=g,
        drift=drift,
        nfev=nfev,
        accepted=accepted,
        rejected=rejected,
    )

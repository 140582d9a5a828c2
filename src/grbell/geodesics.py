"""Geodesics and the parallel propagator of each leg, in closed form where possible.

A leg's kind comes from its initial tangent alone: tangent_kind reads
timelike or null from u.u and refuses a past-pointing u. A stop is a kind
and a value; a radius or coordinate-time stop within STOP_SNAP of the
start gives a zero-length leg, and a coordinate time before the start is
refused. No leg has a cap on tau: each runs to its stop or is refused for
a reason its orbit shows.

A Schwarzschild start is converted into units of M, the chart's one scale,
before anything checks it: x0 becomes (t/M, r/M, theta, phi), u0 becomes
(u^t, u^r, M u^theta, M u^phi) and the stop value becomes value/M. The
conversion keeps u.u and a tangent's components in the static tetrad.
Every check and everything after it runs at unit mass, and the path is
stored in units of M: its taus, points, tangents, metrics and propagators.
It records the caller's spec, and converting back is the report's
business. integrate_geodesic is the one-leg case of
run_legs([leg_start(emission_event(...))]) and raises its leg's error:
emission_event converts an event and evaluates the metric there once, as
its domain check; leg_start checks a leg against it (the tangent's kind, a
radius stop against the guard). Legs from one event share its conversion
and its metric, and run_legs gives each its own outcome, its path or its
error: it steps every leg, then stores and checks the legs that stepped as
one stack (see the last paragraph).

Flat legs are straight lines in the Cartesian chart, x = x0 + u0 tau, and
their parallel propagator is the identity. A radius stop is the first
positive root of a quadratic and a coordinate-time stop is linear, so flat
legs need no ODE.

Before any Schwarzschild leg runs, one test decides whether it meets a
radius stop (Chandrasekhar 1983, sec. 19-20). The leg moves only where
E^2 >= V(r) = f (eps + L^2/r^2), eps 1 on a timelike leg and 0 on a null
one. V has at most one maximum for r > 2 (at r = 3 on a null leg, at
6 / (1 + sqrt(1 - 12/L^2)) on a timelike one with L^2 > 12) and tends to 0
at r = 2 and to eps far out, so V at the stop, at that maximum and at
those limits decide every case. A stop where V exceeds E^2, or behind V's
maximum where that does, is refused (StepFailure). So is a stop below the
start of an outward leg that escapes, where V ahead (its maximum, if that
lies ahead, and its far limit) stays below E^2; above an inward leg that
nothing below turns back, the leg meets the guard first (HorizonApproach).
A stepped leg compares with the drift bound as its margin: its E and L are
exact, but its integrated u^r, and so its turning points, move with its
norm's drift. A radial leg, in closed form, has no such drift: it compares
with no margin, and measures V from its start, (u^r0)^2 = E^2 - V(r0)
against V(r) - V(r0) = 2 eps (r - r0) / (r r0), the terms its closed form
sums, so the two read one sign. A radial leg meets any other stop, however
long the leg.

A radial Schwarzschild leg, u^theta = u^phi = 0, is in closed form too,
and stores its two ends. E = f u^t is conserved, so u^t = E / f and
(u^r)^2 = E^2 - f (timelike) or E^2 (null). A timelike leg is the radial
Kepler problem in proper time, written in the universal anomaly s,
ds = dtau / r, with Stumpff's functions: one form for E < 1 (the cycloid
of MTW eq. 31.10), E = 1 and E > 1, and through the turning point of a
bound outward leg; t follows from the rapidity atanh(u^r / E). A null leg
has affine length |r - r0| / |u^r| and t follows the tortoise coordinate
r + 2M ln(r/2M - 1). A radius stop is direct; a proper-time or
coordinate-time stop inverts the increasing clock with the bracketing
root finder, and raises HorizonApproach if the motion reaches the guard
radius first. Radial legs take no steps, and their counters read 0.

Every other Schwarzschild leg is stepped in its orbital plane, since every
Schwarzschild geodesic lies in a plane through r = 0 with E = f u^t and L
conserved (Chandrasekhar 1983, sec. 19; MTW ch. 25). Its state is
(t, r, chi, psi, u^r), chi the angle it has turned through in that plane:
u^t = E / f and dchi/dtau = L / r^2 are in closed form, and
du^r/dtau = -eps / r^2 + L^2 / r^3 - 3 L^2 / r^4, so the right-hand side
reads only (r, u^r) and has no coordinate singularity on the polar axis.
It is stepped from t = chi = 0 with a Dormand-Prince 5(4) stepper on
Python floats (J. R. Dormand and P. J. Prince, J. Comput. Appl. Math. 6,
19 (1980)), with rtol = tol and atol = tol * 1e-3, which mean the same at
every mass in units of M.
The RMS error norm and step-size controller follow Hairer, Norsett and
Wanner, Solving ODEs I, sec. II.4, and the quartic dense output L. F.
Shampine, Math. Comp. 46, 135 (1986), as in the common RK45 solvers. The
first step is tol^(1/5) / 2 of the coordinate time the leg needs to move
by about r0: an orbit's r0^1.5, or r0 / v where that is shorter, v the
leg's speed against the static observer (1 on a null leg), divided by
u^t0 to give proper time or affine parameter. The generic starting
estimate of sec. II.4 sees only atol on t, chi and psi, which start at 0,
and starts two to three orders of magnitude too small. Terminal events
(target radius, coordinate time, horizon guard) are located by bracketing
the root on the step's dense interpolant.
A stop is stepped until it fires, the guard is met, the state turns
non-finite or MAX_STEPS steps are taken. On a radius stop, u^r crossing 0
away from the stop is an event too: between r_min and r_max an orbit turns
only at the roots of E^2 - V, so a leg that turns away from its stop first
never gets there. It is refused at the turn (StepFailure, naming the
turning radius and tau); that is where a stop within the margin of a
turning point ends, rather than at MAX_STEPS. The stepper forms its trial
stages only on the components the right-hand side reads. A trial step,
stages k2 to k7, the new state and its error norm, is one straight-line
function per state shape, written out from the tableau and compiled on
first use; it rounds each sum as the list form it replaced does. The
stepper keeps only its current state; the norm check reads each accepted
state, and the one an event ends it at, in Python floats: |u.u + eps| =
|((u^r)^2 - E^2) / f + L^2 / r^2 + eps| within the drift bound times
max(1, ((u^r)^2 + E^2) / f + L^2 / r^2). No other check reads integration
error, since E and L are exact. Only the end state is turned back into
(t, r, theta, phi, u, psi), with the origin's t and phi added: the leg is
at r n, n = cos chi e1 + sin chi e2, e1 toward the start and e2 along its
motion, so theta and phi are n's polar angles, u^theta and u^phi are
L / r^2 times their rates along m = dn/dchi, and L_z = L (e1 x e2)_z to
rounding. phi is n's azimuth on the branch nearest sign(u^phi0) chi, as it
turns that way within pi of chi; on a plane through the poles (u^phi0 =
+-0) that adds pi per pole, signed as the zero is. An end on the polar
axis is a StepFailure.

Since every Schwarzschild geodesic lies in a plane through r = 0, a frame
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
so P^T g(x) P = g(x0) holds by construction; it is still checked at both
ends, at a rounding slack.

The legs run_legs has stepped are stored as one (legs, 2, ...) stack of
their two ends; a zero-length leg holds its start twice, at tau 0 and 0.
The metric is evaluated once over the stack, and the frame (reading
f = -g_tt) and the checks contract it. The chart alone decides a leg's
propagator. On Schwarzschild one frame is built over the stack, each leg
with its kind and its start's radial test, and one inverse of the start
frames gives P, with P = I at tau = 0. Each check is taken once over the
stack and reduced over each leg's two rows; on a stepped leg the ends' E
and L_z drifts measure only the conversion's rounding, and the norm drift
is the larger of the ends' and the worst its stepper checked. Every step
acts row by row, so each path, a view of its leg's rows, holds the bits it
has alone. A flat leg keeps its checked tangent and P = I. Each path keeps
its rows of the metric stack, the drift it was checked against and its
integrator counters. A leg that fails, while stepping, in the metric stack
or in its checks, keeps that error as its outcome and changes no other
leg's: a leg with a point outside the chart is left out of the stack, and
every other leg is stepped and checked whatever the legs beside it meet.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import (
    BadNormalization,
    HorizonApproach,
    HorizonDomain,
    SimulatorError,
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

# Dormand-Prince 5(4): the stage weights of k2..k6, the 5th-order solution's
# weights of k1..k6, the error weights of k1..k7 and the quartic dense output
# (Shampine's optimum c6)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
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
    """A geodesic's two ends with tangent, propagator, checked drift and counters.

    Each array holds the start and the end, a zero-length path's start
    twice, at tau 0 and 0. spec is the caller's metric. A Schwarzschild path
    holds everything in units of M, in the exterior chart of unit mass: its
    taus, points, tangents, metrics and propagators; its t and phi are the
    caller's origin converted, not shifted to 0. The chart decides the
    tangents and propagators: a Schwarzschild path, zero-length or not,
    holds Marck's frame's u and P = F F(0)^-1, a flat one the checked
    tangent and P = I. nfev, accepted and rejected count the stepper's
    right-hand-side evaluations and its accepted and rejected steps; all
    three are 0 on a leg that needs no ODE (flat space, a radial
    Schwarzschild leg, zero length).
    """

    spec: MetricSpec
    kind: str
    tol: float
    taus: np.ndarray          # (2,), 0 and tau_end >= 0
    points: np.ndarray        # (2, 4)
    tangents: np.ndarray      # (2, 4); on Schwarzschild the frame's u
    propagators: np.ndarray   # (2, 4, 4), parallel propagator from taus[0]
    metrics: np.ndarray       # (2, 4), the metric's diagonal at the points
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
    chart: MetricSpec, kinds: Sequence[str], points: np.ndarray, tangents: np.ndarray, g: np.ndarray,
) -> list[dict[str, float]]:
    """Worst drift of u.u, E and L_z over the rows of each leg in a stack,
    from the metric stack g in the legs' chart; leg i, of kind kinds[i],
    holds row i of each (legs, rows, 4) array. E's drift is relative to
    E(0); L_z's to max(|L_z(0)|, floor), with the floor the chart's M on a
    timelike leg and E(0) M on a null one, whose E and L_z scale alike with
    its affine parameter."""
    uu = np.einsum("...a,...a,...a->...", g, tangents, tangents)
    uu -= np.array([-1.0 if kind == TIMELIKE else 0.0 for kind in kinds])[:, None]
    drifts = [{"norm": v} for v in np.maximum.reduce(np.abs(uu, out=uu), axis=1).tolist()]
    if chart.kind == SCHWARZSCHILD:
        r, theta = points[..., 1], points[..., 2]
        # E = f u^t, positive on every leg integrate_geodesic accepts, and L_z
        killing = np.empty((*r.shape, 2))
        np.negative(g[..., 0], out=killing[..., 0])
        np.multiply(r**2, np.sin(theta) ** 2, out=killing[..., 1])
        killing *= tangents[..., ::3]
        first = killing[:, 0].tolist()
        worst = np.maximum.reduce(np.abs(killing - killing[:, :1]), axis=1)
        for drift, kind, (worst_E, worst_L), (E0, L0) in zip(drifts, kinds, worst.tolist(), first):
            drift["energy"] = worst_E / abs(E0)
            floor = chart.mass if kind == TIMELIKE else E0 * chart.mass
            drift["angular_momentum"] = worst_L / max(abs(L0), floor)
    return drifts


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


def _chart_radius(spec: MetricSpec, coords: np.ndarray) -> float:
    """Radial coordinate for radius stops: r, or Euclidean |x| in flat space."""
    if spec.kind == SCHWARZSCHILD:
        return float(coords[1])
    # hypot scales its arguments, so |x| does not overflow beyond 1e154
    return math.hypot(*coords[1:4])


def _drift_bound(tol: float) -> float:
    """The relative drift a leg's conservation checks, and transport along it, allow at tol."""
    return max(1e-8, 100.0 * tol)


def _metric_residuals(
    g: np.ndarray, g_abs: np.ndarray, propagators: np.ndarray, sizes: np.ndarray
) -> list[tuple[float, float]]:
    """The worst residual of P^T g(x) P = g(x0) over the rows of each leg of
    a stack, and its bound; leg i holds row i of each (legs, rows, ...) array.

    g is the metric stack's diagonal at the stored points, each leg's first
    row at its emission event, and g_abs = |g|. P is built from
    a frame that is orthonormal up to rounding, so the bound is
    METRIC_SLACK times the conditioning max(|P|^T |g| sizes), the size of
    the terms that cancel. sizes bounds, entry by entry, the terms summed
    into P: for P = F F(0)^-1 it is |F| |F(0)^-1|, which exceeds |P| by
    about gamma^2 on a leg whose tangent is boosted by gamma against the
    static frame, and for P = I it is I.
    """
    residual = np.einsum("...ab,...a,...ad->...bd", propagators, g, propagators).reshape(*g.shape[:2], 16)
    residual[..., ::5] -= g[:, :1]  # the diagonal, less g(x0)
    residual = np.maximum.reduce(np.abs(residual, out=residual).reshape(len(g), -1), axis=1)
    conditioning = np.einsum("...ab,...a,...ad->...bd", np.abs(propagators), g_abs, sizes)
    conditioning = np.maximum.reduce(conditioning.reshape(len(g), -1), axis=1)
    return [
        (worst, METRIC_SLACK * max(1.0, scale))
        for worst, scale in zip(residual.tolist(), conditioning.tolist())
    ]


def _metric_failure(residual: float, bound: float) -> StepFailure:
    return StepFailure(f"propagator metric residual {residual:.3e} exceeds {bound:.3e}")


def integrate_geodesic(
    spec: MetricSpec,
    x0: np.ndarray,
    u0: np.ndarray,
    stop: StopCondition,
    tol: float = 1e-10,
) -> GeodesicPath:
    """The geodesic from the event x0 with tangent u0, both (4,) arrays, until
    the stop fires.

    x0, u0 and the stop are in the caller's units. A Schwarzschild leg is
    converted into units of M first, then checked and run in them, and its
    path is stored in them (see GeodesicPath); the path records spec as
    given. tol controls the local error (relative tol; absolute is tol *
    1e-3) of the integrated state (t, r, chi, psi, u^r) in the leg's
    orbital plane, in units of M; flat and radial legs are closed-form.
    Raises the metric's domain errors for an x0 outside the chart,
    BadNormalization unless tangent_kind accepts u0 and, on a Schwarzschild
    leg, its Killing energy f u^t is positive, ValidationError for a radius
    stop at or inside the guard,
    HorizonApproach if the path would cross the guard radius (at once for
    a radius stop above an inward leg that nothing below turns back),
    StepFailure if the leg never meets its stop (a coordinate time before
    the start; on a Schwarzschild leg a radius where the effective
    potential exceeds E^2, or one below the start of an outward leg that
    escapes, both decided by the one test of the module docstring before
    the leg runs; a radius a stepped leg turns back from before it gets
    there) or a stepped leg does not reach it within MAX_STEPS steps, the
    state turns non-finite, the step size underflows, conservation drifts
    exceed max(1e-8, 100 * tol) or the propagator fails to preserve the
    metric. No leg has a cap on tau.
    """
    (path,) = run_legs([leg_start(emission_event(spec, x0), u0, stop)], tol)
    if isinstance(path, SimulatorError):
        raise path
    return path


@dataclass(frozen=True, eq=False)
class EmissionEvent:
    """A checked event that legs leave from, as emission_event returns it:
    the caller's spec, and x0 and g0, the metric's diagonal at x0, as
    read-only (4,) arrays in units of M on Schwarzschild."""

    spec: MetricSpec
    x0: np.ndarray
    g0: np.ndarray

    def tangent(self, u0: np.ndarray) -> np.ndarray:
        """u0 at this event in its units, (u^t, u^r, M u^theta, M u^phi)."""
        M = self.spec.mass if self.spec.kind == SCHWARZSCHILD else 1.0
        ut, ur, uth, uph = u0.tolist()
        return np.array([ut, ur, uth * M, uph * M])


def emission_event(spec: MetricSpec, x0: np.ndarray) -> EmissionEvent:
    """The event x0 in units of M, (t/M, r/M, theta, phi) in Python floats,
    where a number beyond the floats becomes inf without a warning (M = 1 on
    a flat event), with the metric at it evaluated once as its domain check."""
    chart, M = (_UNIT_MASS, spec.mass) if spec.kind == SCHWARZSCHILD else (spec, 1.0)
    t, r, theta, phi = x0.tolist()
    x0 = np.array([t / M, r / M, theta, phi])
    g0 = metric_components(chart, x0)
    x0.flags.writeable = g0.flags.writeable = False
    return EmissionEvent(spec, x0, g0)


@dataclass(frozen=True, eq=False)
class LegStart:
    """A checked start, as leg_start returns it: spec is the caller's
    metric, kind the tangent's, and x0, u0 (read-only (4,) arrays) and the
    stop are in units of M on a Schwarzschild leg."""

    spec: MetricSpec
    kind: str
    x0: np.ndarray
    u0: np.ndarray
    stop: StopCondition


def leg_start(event: EmissionEvent, u0: np.ndarray, stop: StopCondition) -> LegStart:
    """The leg from the event with tangent u0 to the stop, both in the
    caller's units, converted into the event's and checked as
    integrate_geodesic checks it before it runs: BadNormalization unless
    tangent_kind accepts u0, ValidationError for a radius stop at or inside the guard."""
    spec, u0, value = event.spec, event.tangent(u0), stop.value
    with np.errstate(over="ignore", invalid="ignore"):  # tangent_kind refuses an overflowing u.u
        kind = tangent_kind(u0, float(u0 * event.g0 @ u0))
    if spec.kind == SCHWARZSCHILD:
        value = float(value) / spec.mass
        if stop.kind == STOP_RADIUS and value <= _UNIT_MASS.guard_radius:
            raise ValidationError("stop.value", "radius target inside horizon guard")
    u0.flags.writeable = False
    return LegStart(spec, kind, event.x0, u0, StopCondition(stop.kind, value))


def run_legs(legs: Sequence[LegStart], tol: float) -> list[GeodesicPath | SimulatorError]:
    """The outcome of each of legs that leave one emission event, in order:
    its path, with the bits it has alone, or the error it meets once its
    start is checked, which integrate_geodesic raises for it.

    Every leg is stepped, and the legs that stepped are then checked as one
    stack (_stack_paths), so a leg's outcome depends on that leg alone.
    """
    outcomes: list[_Stored | SimulatorError] = []
    for leg in legs:
        try:
            outcomes.append(_step(leg, tol))
        except SimulatorError as e:
            outcomes.append(e)
    stored = [o for o in outcomes if not isinstance(o, SimulatorError)]
    paths = iter(_stack_paths(stored, tol) if stored else ())
    return [o if isinstance(o, SimulatorError) else next(paths) for o in outcomes]


class _Stored(NamedTuple):
    """A leg's end, as stepping hands it to _stack_paths (its start is the
    leg's x0, u0 and psi = 0): its tau and row (x, u, psi) as Python floats,
    in units of M on a Schwarzschild leg and at the caller's t and phi, the
    worst norm drift its stepper checked (0 on a leg that takes no steps)
    and its counters. The chart decides what its path stores: on
    Schwarzschild Marck's frame's u and P = F F(0)^-1 at both ends; in flat
    space, where psi = 0, the checked tangent and P = I."""

    leg: LegStart
    tau: float
    end: Sequence[float]
    norm: float = 0.0
    nfev: int = 0
    accepted: int = 0
    rejected: int = 0


def _step(leg: LegStart, tol: float) -> _Stored:
    """A checked start's end, with the errors it meets before any check of it."""
    spec, kind, x0, u0, stop = leg.spec, leg.kind, leg.x0, leg.u0, leg.stop
    if spec.kind == SCHWARZSCHILD:
        # E = f u^t divides a null leg's rates and the energy drift; a u^t
        # so small that E underflows leaves them undefined
        ut = float(u0[0])
        if not (1.0 - 2.0 / float(x0[1])) * ut > 0.0:
            raise BadNormalization(f"Killing energy f u^t underflows to 0 at u^t = {ut}")

    # degenerate stop: zero-length path
    t0 = float(x0[0])
    if (
        (stop.kind == STOP_PROPER_TIME and stop.value == 0.0)
        or (stop.kind == STOP_RADIUS and abs(_chart_radius(spec, x0) - stop.value) <= STOP_SNAP)
        # in Python floats, where inf - inf is NaN without a warning
        or (stop.kind == STOP_COORDINATE_TIME and abs(t0 - stop.value) <= STOP_SNAP)
    ):
        return _Stored(leg, 0.0, [*x0.tolist(), *u0.tolist(), 0.0])
    if stop.kind == STOP_COORDINATE_TIME and not stop.value > t0:
        unit = " M" if spec.kind == SCHWARZSCHILD else ""
        raise StepFailure(
            f"stop condition {stop.kind} = {stop.value}{unit} precedes the start t = {t0}{unit}"
        )
    if spec.kind == SCHWARZSCHILD:
        return _schwarzschild_leg(leg, tol)
    return _straight_line(leg)


def _straight_line(leg: LegStart) -> _Stored:
    """A flat leg: x = x0 + u0 tau with P = I, its stop solved in closed form."""
    x, u, stop = leg.x0, leg.u0, leg.stop
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
    return _Stored(leg, tau, [*end.tolist(), *u.tolist(), 0.0])


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


def _plane_rhs(kind: str, energy: float, ang_mom: float):
    """d(t, r, chi, psi, u^r)/dtau of a leg in its orbital plane on the
    exterior chart of unit mass, chi the angle it has turned through, as a
    function of the components (r, u^r) it reads.

    E and L are conserved: u^t = E / f, dchi/dtau = L / r^2 and
    du^r/dtau = -eps / r^2 + L^2 / r^3 - 3 L^2 / r^4, eps 1 on a timelike
    leg and 0 on a null one. That is the radial geodesic equation at
    theta = pi/2 with u^theta = 0 and u^phi = L / r^2, which the tests
    check against the closed-form Christoffel table in tests/reference.py.
    States at or inside r = 2 raise HorizonDomain, which makes _dopri
    reject the step; trial stages between the guard and 2 still evaluate,
    so the guard event can locate the crossing.
    """
    timelike = kind == TIMELIKE
    eps = 1.0 if timelike else 0.0
    L2 = ang_mom * ang_mom
    # dpsi/dtau = -E L / (r^2 + L^2) on timelike legs, -M L / (E r^3) on null ones
    psi_scale = -energy * ang_mom if timelike else -ang_mom / energy

    def rhs(y):
        r, ur = y
        if r <= 2.0:
            raise HorizonDomain(f"r = {r} M inside radius 2 M")
        r2 = r * r
        r3 = r2 * r
        if r3 < math.inf:
            centrifugal, null_rate = L2 / r3, psi_scale / r3
        else:  # r^3 overflows from r ~ 5.6e102 M, where L^2 / r^3 is still finite
            centrifugal, null_rate = L2 / r2 / r, psi_scale / r2 / r
        return (
            energy / (1.0 - 2.0 / r), ur, ang_mom / r2,
            psi_scale / (r2 + L2) if timelike else null_rate,
            -eps / r2 + centrifugal - 3.0 * L2 / (r2 * r2),
        )

    return rhs


def _schwarzschild_leg(leg: LegStart, tol: float) -> _Stored:
    """A Schwarzschild leg's end at unit mass, from x0 with tangent u0 to the stop, all in units of M.

    A radius stop is first put to the module docstring's one test, which
    refuses it or reports the plunge before the leg runs. A radial leg,
    u^theta = u^phi = 0, is then _radial_leg's closed form. Any other steps
    the plane state (t, r, chi, psi, u^r) of _plane_rhs from t = chi = 0,
    with the norm checked at each accepted state, and its end state is
    turned back into (t, r, theta, phi, u, psi), with t0 and phi0 added.
    """
    kind, x0, u0, stop = leg.kind, leg.x0, leg.u0, leg.stop
    t0, r0, th0, ph0 = x0.tolist()
    ut0, ur0, uth0, uph0 = u0.tolist()
    radial = uth0 == 0.0 and uph0 == 0.0
    sin0, cos0 = math.sin(th0), math.cos(th0)
    energy = (1.0 - 2.0 / r0) * ut0
    ang_mom = r0 * math.hypot(r0 * uth0, r0 * sin0 * uph0)
    what = f"stop condition {stop.kind} = {stop.value} M"
    if stop.kind == STOP_RADIUS:
        # the module docstring's one test, with V's maximum at peak (0 where it has none) and
        # its far limit at far; a radial leg measures V from its start with no margin, in the
        # terms its closed form sums, so that eps - V(r0) = 2 eps / r0
        eps, target = (1.0 if kind == TIMELIKE else 0.0), stop.value
        if radial:
            E2, margin, base, far = ur0 * ur0, 1.0, (1.0 - 2.0 / r0) * eps, 2.0 * eps / r0

            def potential(r):
                return 2.0 * eps * (r - r0) / (r * r0)
        else:
            E2, margin, base, far = energy * energy, 1.0 - _drift_bound(tol), 0.0, eps

            def potential(r):
                q = ang_mom / r
                return (1.0 - 2.0 / r) * (eps + q * q)

        L2, peak = ang_mom * ang_mom, 0.0
        if not eps or L2 > 12.0:
            peak = 6.0 / (1.0 + math.sqrt(1.0 - 12.0 / L2)) if eps else 3.0
        where, V = "", potential(target)
        if min(r0, target) < peak < max(r0, target) and potential(peak) > V:
            where, V = f" behind r = {peak} M,", potential(peak)
        if E2 < margin * V:
            raise StepFailure(
                f"{what} lies{where} where the effective potential {base + V} exceeds E^2 = {base + E2},"
                " which the leg never reaches"
            )
        # a leg moving away from its stop turns back only where V ahead reaches E^2: at its
        # maximum, if that lies ahead, or toward its limit, which V only tends to
        out = ur0 > 0.0
        if ur0 and (target < r0) == out:
            ahead = far if out else potential(2.0)
            if (peak > r0) if out else (0.0 < peak < r0):
                ahead = max(ahead, potential(peak))
            if ahead <= margin * E2:
                way, leg, error = (
                    ("below", "an outward leg that escapes", StepFailure) if out
                    else ("above", "an inward leg that meets the guard first", HorizonApproach)
                )
                raise error(
                    f"{what} lies {way} r = {r0} M, behind {leg}: the effective potential ahead"
                    f" is at most {base + ahead}, below E^2 = {base + E2}, so it never turns back"
                )
    if radial:
        return _radial_leg(leg)

    # events: (state component, target, direction), the guard last; on a radius stop, u^r
    # through 0 away from the stop is a turn the leg never comes back from (module docstring)
    events = []
    if stop.kind == STOP_RADIUS:
        events += [(1, stop.value, 0), (4, 0.0, -1 if stop.value > r0 else 1)]
    elif stop.kind == STOP_COORDINATE_TIME:
        events.append((0, stop.value - t0, 0))
    guard = _UNIT_MASS.guard_radius
    events.append((1, guard, -1))
    tau_end = stop.value if stop.kind == STOP_PROPER_TIME else math.inf
    # the first step, tol^(1/5) / 2 of the leg's own time scale over u^t0 (module docstring)
    speed = 1.0 if kind == NULL else math.sqrt(max(0.0, 1.0 - 1.0 / (energy * ut0)))
    h0 = 0.5 * tol**0.2 * r0 / max(speed, r0**-0.5) / ut0
    # the plane's unit vectors e1 = a toward x0 and e2 = b along its motion, in axes where x0 has phi = 0
    w = math.hypot(uth0, sin0 * uph0)
    (a1, a2, a3), (b1, b2, b3) = (sin0, 0.0, cos0), (cos0 * uth0 / w, sin0 * uph0 / w, -sin0 * uth0 / w)
    # the norm check at each accepted state (module docstring); the path keeps its worst drift
    E2, L2, bound, eps = energy * energy, ang_mom * ang_mom, _drift_bound(tol), 1.0 if kind == TIMELIKE else 0.0
    worst = 0.0

    def check_norm(tau, state):
        nonlocal worst
        r, ur = state[1], state[4]
        f, ur2, centrifugal = 1.0 - 2.0 / r, ur * ur, L2 / (r * r)
        drift = abs((ur2 - E2) / f + centrifugal + eps)
        limit = bound * max(1.0, (ur2 + E2) / f + centrifugal)
        if not drift <= limit:  # written so that a NaN drift fails
            raise StepFailure(f"conservation drift {{'norm': {drift}}} exceeds {{'norm': {limit}}} at tau = {tau} M")
        worst = max(worst, drift)

    try:
        rhs = _plane_rhs(kind, energy, ang_mom)
        run = _dopri(rhs, [0.0, r0, 0.0, 0.0, ur0], h0, tau_end, tol, events, what, (1, 4), check_norm)
        if run.event == len(events) - 1:
            raise HorizonApproach(f"path reached guard radius {guard} M at tau = {run.tau} M")
        t, r, chi, psi, ur = run.state
        if stop.kind == STOP_RADIUS and run.event == 1:
            raise StepFailure(f"{what} not reached: the leg turns back at r = {r} M at tau = {run.tau} M")
        c, s = math.cos(chi), math.sin(chi)
        nx, ny, nz = c * a1 + s * b1, c * a2 + s * b2, c * a3 + s * b3
        mx, my, mz = c * b1 - s * a1, c * b2 - s * a2, c * b3 - s * a3
        rho, rate, phi = math.hypot(nx, ny), ang_mom / (r * r), math.atan2(ny, nx)
        phi += math.tau * round((math.copysign(chi, uph0) - phi) / math.tau)  # phi kept continuous
        end = [
            t + t0, r, math.atan2(rho, nz), phi + ph0, energy / (1.0 - 2.0 / r), ur,
            rate * (nz * (nx * mx + ny * my) / rho - rho * mz), rate * (nx * my - ny * mx) / (rho * rho), psi,
        ]
    except (ArithmeticError, ValueError) as e:  # e.g. an end on the polar axis, where rho = 0
        raise StepFailure(f"integration failed: {e}") from None
    return _Stored(leg, run.tau, end, worst, run.nfev, run.accepted, run.rejected)


def _radial_leg(leg: LegStart) -> _Stored:
    """The end of a radial leg, u^theta = u^phi = 0, at unit mass in closed form.

    E = f u^t is conserved, so the end's u^t is E / f; its u^r, tau and t
    come from _TimelikeFall or _NullFall, whose math errors are
    StepFailure, as the stepper's are. A radius stop has passed
    _schwarzschild_leg's test, so the motion meets it.
    """
    t0, r0, theta, phi = leg.x0.tolist()
    ut0, ur0 = leg.u0.tolist()[:2]
    energy = (1.0 - 2.0 / r0) * ut0
    try:
        fall = _NullFall(r0, ur0, energy) if leg.kind == NULL else _TimelikeFall(r0, ur0)
        tau, dt, r, ur = _radial_end(fall, leg.stop, t0)
        ut = energy / (1.0 - 2.0 / r)
    except (ArithmeticError, ValueError) as e:
        raise StepFailure(f"closed-form radial leg failed: {e}") from None
    if not math.isfinite(tau + dt + r + ut + ur):
        raise StepFailure(f"end of a radial leg of length tau = {tau} M overflows the chart")
    return _Stored(leg, tau, [t0 + dt, r, theta, phi, ut, ur, 0.0, 0.0, 0.0])


def _radial_end(fall, stop: StopCondition, t0: float) -> tuple[float, float, float, float]:
    """(tau, t - t0, r, u^r) where a radial motion meets its stop, in units of M.

    A radius stop, which _schwarzschild_leg's test has found the motion
    meets, is direct. A proper-time or coordinate-time stop inverts the
    motion's increasing clock with _bracket_root on [0, hi], hi below the
    guard and past the stop, and ends at the stop's value; HorizonApproach
    if the motion reaches the guard radius first.
    """
    if stop.kind == STOP_RADIUS:
        p, r, ur = fall.at_radius(stop.value)
        tau, dt = fall.clock(p, r, ur)
    else:
        proper = stop.kind == STOP_PROPER_TIME
        target = stop.value if proper else stop.value - t0
        guard = _UNIT_MASS.guard_radius
        at_guard = fall.at_radius(guard) if fall.falls else None
        if at_guard is not None:
            tau, dt = fall.clock(*at_guard)
            if (tau if proper else dt) <= target:
                raise HorizonApproach(f"path reached guard radius {guard} M at tau = {tau} M")
        if proper and fall.affine:
            p = target
        else:
            def late(p):
                return fall.clock(p, *fall.state(p))[0 if proper else 1] - target

            hi = fall.reach(proper, target)
            hi = hi if at_guard is None else min(hi, at_guard[0])
            p = hi * _bracket_root(lambda x: late(x * hi))
        r, ur = fall.state(p)
        tau, dt = fall.clock(p, r, ur)
        tau, dt = (target, dt) if proper else (tau, target)
    return tau, dt, r, ur


def _stumpff(z: float) -> tuple[float, float, float]:
    """Stumpff's c1, c2, c3 at z >= -1, c_k(z) = sum_j (-z)^j / (2j + k)!:
    by the series where z < 1, where the trigonometric forms cancel. Both
    callers take z < -1 in exponentials instead."""
    if z < 1.0:
        c1 = c2 = c3 = 0.0
        for inverse_factorials in _STUMPFF_SERIES:  # Horner
            c1 = inverse_factorials[0] - z * c1
            c2 = inverse_factorials[1] - z * c2
            c3 = inverse_factorials[2] - z * c3
        return c1, c2, c3
    w = math.sqrt(z)
    half = math.sin(0.5 * w) / w
    return math.sin(w) / w, 2.0 * half * half, (w - math.sin(w)) / (z * w)


# 1 / (2j + 1)!, 1 / (2j + 2)!, 1 / (2j + 3)! for j = 11 down to 0: |z|^12 / 25! < 1e-25
_STUMPFF_SERIES = tuple(
    tuple(1.0 / math.factorial(2 * j + k) for k in (1, 2, 3)) for j in range(11, -1, -1)
)


def _arctan_ratio(z: float) -> float:
    """atan(sqrt z) / sqrt z, continued as atanh(sqrt -z) / sqrt -z for z < 0; 1 at z = 0."""
    if z > 0.0:
        w = math.sqrt(z)
        return math.atan(w) / w
    if z < 0.0:
        w = math.sqrt(-z)
        return math.atanh(w) / w
    return 1.0


def _log_coth(v: float, a: float, r: float) -> float:
    """ln((v + a) / (v - a)) = 2 acoth(v / a) of a radial speed |v| > a, where
    v^2 - a^2 = 2 / r, as sign(v) (2 ln(a + |v|) - ln(2 / r))."""
    return math.copysign(2.0 * math.log(a + abs(v)) - math.log(2.0 / r), v)


def _rapidity(v: float, energy: float, f: float) -> float:
    """atanh(v / E) of a radial speed v at energy E, where E^2 - v^2 = f; near
    |v| = E as sign(v) (ln(E + |v|) - ln(f) / 2), which does not cancel."""
    x = v / energy
    if abs(x) <= 0.5:
        return math.atanh(x)
    return math.copysign(math.log(energy + abs(v)) - 0.5 * math.log(f), v)


class _TimelikeFall:
    """Radial timelike motion at unit mass from r0 with v0 = dr/dtau, in the
    universal anomaly s, ds = dtau / r.

    (dr/dtau)^2 = 2/r - alpha with alpha = 1 - E^2 = 2/r0 - v0^2, which is
    2/r0 at rest, with no cancellation there. That is the radial Kepler
    problem in proper time, and in s it is linear, r'' = 1 - alpha r; with
    Stumpff's c_k(alpha s^2)
        r = r0 + r0 v0 s c1 + (r0 v0^2 - 1) s^2 c2,
        tau = r0 s + r0 v0 s^2 c2 + (r0 v0^2 - 1) s^3 c3,
    one form for E < 1 (the cycloid of MTW eq. 31.10, eta = sqrt(alpha) s
    from r_max = 2 / alpha), E = 1 and E > 1, and through the turning point
    of an outward leg with E < 1. The speed falls as dv/ds = -1/r, so
        s = 2 int_v^v0 dv / (v^2 + alpha),
    and dt/ds = E r^2 / (r - 2) gives
        t - t0 = E (tau + 2 s) + 4 (atanh(v0 / E) - atanh(v / E)),
    with E = sqrt(f0 + v0^2) and every term finite at the guard.
    """

    affine = False

    def __init__(self, r0: float, v0: float):
        self.r0, self.v0 = r0, v0
        self.alpha = 2.0 / r0 - v0 * v0
        self.sigma, self.beta = r0 * v0, r0 * v0 * v0 - 1.0
        # every leg but an outward one with E >= 1 comes down to the guard
        self.falls = not (v0 > 0.0 and self.alpha <= 0.0)
        f0 = (r0 - 2.0) / r0
        self.energy = math.sqrt(f0 + v0 * v0)
        self.rapidity0 = _rapidity(v0, self.energy, f0)
        a = self.root = math.sqrt(-self.alpha) if self.alpha < 0.0 else 0.0
        if a > 0.0:
            # E > 1: r = A e^(a s) + B e^(-a s) - 1 / a^2, a^2 = -alpha, with A B = 1 / (4 a^4);
            # the larger of A and B has no cancellation, and the other is its quotient
            larger = 0.5 * (r0 + 1.0 / (a * a) + abs(self.sigma) / a)
            smaller = 1.0 / (4.0 * a**4 * larger)
            grow, decay = (larger, smaller) if v0 > 0.0 else (smaller, larger)
            self.log_grow, self.log_decay = math.log(grow), math.log(decay)

    def at_radius(self, r: float) -> tuple[float, float, float]:
        """(s, r, v) where the motion first reaches r, a radius it meets."""
        r0, v0 = self.r0, self.v0
        v2 = v0 * v0 + 2.0 * (r0 - r) / (r * r0)
        v = math.sqrt(v2) if r > r0 else -math.sqrt(v2)
        # v0 - v and alpha + v0 v, from the radii where v0 and v have one sign
        if (v0 > 0.0) != (v > 0.0):
            drop = v0 - v
            den = self.alpha + v0 * v
        else:
            drop = 2.0 * (r - r0) / (r * r0 * (v0 + v))
            den = 2.0 / r0 - v0 * drop if v < 0.0 else 2.0 / r + v * drop
        if den <= 0.0:  # a bound leg past its turning point
            root = math.sqrt(self.alpha)
            return 2.0 * math.atan2(root * drop, den) / root, r, v
        x = drop / den
        z = self.alpha * x * x
        if z >= -0.25:
            return 2.0 * x * _arctan_ratio(z), r, v
        # E > 1 and atanh(sqrt -z) near 1: s = (2 / a) (acoth(v / a) - acoth(v0 / a)),
        # in logs of v^2 - a^2 = 2 / r, which do not cancel
        a = self.root
        return (_log_coth(v, a, r) - _log_coth(v0, a, r0)) / a, r, v

    def state(self, s: float) -> tuple[float, float]:
        """(r, v) at anomaly s; v from the energy, v^2 = v0^2 + 2 (r0 - r) / (r r0),
        where that does not cancel, so that u.u = -1 at r to rounding."""
        r0, v0 = self.r0, self.v0
        z = self.alpha * s * s
        if z < -1.0:  # E > 1 and a s > 1, where the Stumpff terms grow like e^(a s) and cancel
            a = self.root
            grow, decay = math.exp(self.log_grow + a * s), math.exp(self.log_decay - a * s)
            r = grow + decay - 1.0 / (a * a)
            v = a * (grow - decay) / r
        else:
            c1, c2, _ = _stumpff(z)
            r = r0 + self.sigma * s * c1 + self.beta * s * s * c2
            v = (self.sigma * (1.0 - z * c2) + self.beta * s * c1) / r
        fall = 2.0 * (r0 - r) / (r * r0)
        v2 = v0 * v0 + fall
        if v2 >= 0.25 * (v0 * v0 + abs(fall)):
            v = math.copysign(math.sqrt(v2), v)
        return r, v

    def clock(self, s: float, r: float, v: float) -> tuple[float, float]:
        """(tau, t - t0) at anomaly s, where the motion is at r with speed v."""
        z = self.alpha * s * s
        if z < -1.0:
            # r'' = 1 - alpha r integrates to r v - r0 v0 = s - alpha tau, whose
            # terms are of the size of tau where a s > 1 has taken r e-fold from r0
            tau = (s + self.sigma - r * v) / self.alpha
        else:
            _, c2, c3 = _stumpff(z)
            tau = self.r0 * s + self.sigma * s * s * c2 + self.beta * s * s * s * c3
        rapidity = _rapidity(v, self.energy, (r - 2.0) / r)
        return tau, self.energy * (tau + 2.0 * s) + 4.0 * (self.rapidity0 - rapidity)

    def reach(self, proper: bool, target: float) -> float:
        """An anomaly s at which tau, or t - t0, is at least target: a leg that
        falls stays above the guard, where dtau/ds = r; one that escapes runs
        at r(tau) >= r0 + a tau, a = sqrt(-alpha), so s <= ln(1 + a tau / r0) / a;
        and t >= E tau."""
        tau = target if proper else target / self.energy
        if self.falls:
            return tau / _UNIT_MASS.guard_radius
        a = self.root
        return math.log1p(a * tau / self.r0) / a if a > 0.0 else tau / self.r0


class _NullFall:
    """A radial null ray at unit mass from r0 with v0 = dr/dlambda, which is
    constant: r = r0 + v0 lambda, and t follows the tortoise coordinate
    r + 2 ln(r/2 - 1), t - t0 = (E / v0) (r - r0 + 2 ln((r - 2) / (r0 - 2)))."""

    affine = True

    def __init__(self, r0: float, v0: float, energy: float):
        self.r0, self.v0, self.energy = r0, v0, energy
        self.falls = not v0 > 0.0

    def at_radius(self, r: float) -> tuple[float, float, float]:
        """(lambda, r, v0) where the ray reaches r, a radius it meets."""
        return (r - self.r0) / self.v0, r, self.v0

    def state(self, lam: float) -> tuple[float, float]:
        return self.r0 + self.v0 * lam, self.v0

    def clock(self, lam: float, r: float, v: float) -> tuple[float, float]:
        moved = self.v0 * lam  # r - r0, which may round to 0 far out
        ratio = moved / (self.r0 - 2.0)  # (r - 2) / (r0 - 2) - 1
        log = math.log1p(ratio) if abs(ratio) < 0.5 else math.log((r - 2.0) / (self.r0 - 2.0))
        return lam, self.energy / self.v0 * (moved + 2.0 * log)

    def reach(self, proper: bool, target: float) -> float:
        """A lambda at which t - t0 is at least target: dt/dlambda = E / f > E."""
        return target / self.energy


def _parallel_frames(
    kinds: Sequence[str], points: np.ndarray, g: np.ndarray, tangents: np.ndarray, psi: np.ndarray,
) -> np.ndarray:
    """Marck's parallel frame at each row of a stack of legs, as the columns
    of (legs, rows, 4, 4); leg i, of kind kinds[i], holds row i of each
    array, and is radial where its first row has Lambda = 0.

    g is the metric stack at the points, whose -g_tt is f = 1 - 2M/r.
    Timelike legs: (u, a cos psi + b sin psi, -a sin psi + b cos psi, l),
    orthonormal. Null legs: (u, n, m, l) with n.u = -1, m.m = l.l = 1 and
    all other products 0. u^t is rebuilt by the one rule of the module
    docstring, so the Gram matrix holds to rounding wherever u drifts.
    Each column is written into one buffer in the static tetrad, which its
    legs then scale. Every step acts row by row, so each row holds the bits
    its leg's frame has alone.
    """
    shape = psi.shape
    r, theta = points[..., 1], points[..., 2]
    # the legs f^-1/2 d_t, f^1/2 d_r, r^-1 d_theta, (r sin theta)^-1 d_phi
    legs = np.empty((*shape, 4))
    sqrt_f = np.sqrt(-g[..., 0], out=legs[..., 1])
    r_sin = r * np.sin(theta)
    np.divide(1.0, sqrt_f, out=legs[..., 0])
    np.divide(1.0, r, out=legs[..., 2])
    np.divide(1.0, r_sin, out=legs[..., 3])
    frames = np.zeros((*shape, 4, 4))
    u = frames[..., 0]
    U0, U1, U2, U3 = (u[..., i] for i in range(4))
    np.divide(tangents[..., 1], sqrt_f, out=U1)
    np.multiply(r, tangents[..., 2], out=U2)
    np.multiply(r_sin, tangents[..., 3], out=U3)
    lam = np.hypot(U2, U3)
    # (n2, n3), the orbital plane's normal direction in the static tetrad; on
    # a radial leg theta-hat and phi-hat are parallel, and n is theta-hat
    radial = lam[:, :1] == 0.0
    normal = np.zeros((*shape, 2))
    normal[..., 0] = 1.0
    np.divide(u[..., 2:], lam[..., None], out=normal, where=~radial[..., None])
    frames[..., 2, 3], frames[..., 3, 3] = normal[..., 1], -normal[..., 0]
    # U0^2 - U1^2 = D = eps + Lambda^2, with no cancellation in forming D
    eps = np.array([1.0 if kind == TIMELIKE else 0.0 for kind in kinds])[:, None]
    D, root_D = eps + lam * lam, np.hypot(eps, lam)
    np.hypot(U1, root_D, out=U0)
    present = dict.fromkeys(kinds)
    for kind in present:
        rows = slice(None) if len(present) == 1 else np.array([k == kind for k in kinds])
        columns = _timelike_columns if kind == TIMELIKE else _null_columns
        frames[rows, ..., 1], frames[rows, ..., 2] = columns(
            u[rows], lam[rows], normal[rows], D[rows], root_D[rows], psi[rows, ..., None]
        )
    frames *= legs[..., None]
    return frames


def _timelike_columns(u, lam, normal, D, root_D, psi) -> tuple[np.ndarray, np.ndarray]:
    """The frame's columns a cos psi + b sin psi and -a sin psi + b cos psi
    in the static tetrad, with a = (U1, U0, 0, 0) / sqrt(D) and
    b = (Lambda U0, Lambda U1, D n) / sqrt(D)."""
    a, b = ab = np.zeros((2, *u.shape))
    a[..., :2] = u[..., 1::-1]
    np.multiply(lam[..., None], u[..., :2], out=b[..., :2])
    np.multiply(D[..., None], normal, out=b[..., 2:])
    ab /= root_D[..., None]
    trig = np.empty((2, *psi.shape))
    np.cos(psi, out=trig[0])
    np.sin(psi, out=trig[1])
    # (a cos, a sin), (b cos, b sin)
    (a_cos, a_sin), (b_cos, b_sin) = ab[:, None] * trig
    return a_cos + b_sin, b_cos - a_sin


def _null_columns(u, lam, normal, D, root_D, psi) -> tuple[np.ndarray, np.ndarray]:
    """The frame's columns n = n0 + psi m0 + psi^2 u / 2 and m = m0 + psi u
    in the static tetrad, with m0 = (0, Lambda, -U1 n) / U0 and
    n0 = (U0, -U1, -Lambda n) / (2 U0^2)."""
    U0, neg_U1 = u[..., 0], -u[..., 1]
    m0, n0 = np.zeros((2, *u.shape))
    m0[..., 1] = lam
    np.multiply(neg_U1[..., None], normal, out=m0[..., 2:])
    n0[..., 0] = U0
    n0[..., 1] = neg_U1
    np.multiply(-lam[..., None], normal, out=n0[..., 2:])
    m0 /= U0[..., None]
    n0 /= (2.0 * U0 * U0)[..., None]
    n = n0 + psi * m0
    n += 0.5 * psi * psi * u
    return n, m0 + psi * u


class _Run(NamedTuple):
    tau: float  # where the run ends, and its state there
    state: list[float]
    event: int | None  # index of the event that ended the run
    nfev: int
    accepted: int
    rejected: int


@functools.cache
def _trial_step(m: int, at: tuple[int, ...]):
    """_dopri's trial step over m components, of which the right-hand side
    reads those at the positions at, as one straight-line function
    trial(rhs, h, y, k1, atol, rtol, root_n) -> ((k1, ..., k7), y_new, error).

    It forms stages k2..k7 and y_new and returns the RMS error norm. Every
    sum is written out per component from the tableau, with each weight as
    its float's repr, which reads back as the same float, and with the
    zero weights left out, in the operand order of the list form that
    tests/reference.py keeps as earlier_dopri; so every rounding is the
    same. rhs gets its components as a tuple.
    """
    every = range(m)

    def unpack(name, values):
        return f"    {''.join(f'{name}{i}, ' for i in every)}= {values}\n"

    def read(terms):
        return f"({''.join(f'{terms(i)}, ' for i in at)})"

    def weighted(weights, i):
        return " + ".join(f"{w!r} * k{s}_{i}" for s, w in enumerate(weights, 1) if w)

    src = "def trial(rhs, h, y, k1, atol, rtol, root_n):\n" + unpack("y", "y") + unpack("k1_", "k1")
    for s, row in enumerate(_A, 2):
        src += f"    k{s} = rhs({read(lambda i: f'y{i} + h * ({weighted(row, i)})')})\n"
        src += unpack(f"k{s}_", f"k{s}")
    src += "".join(f"    w{i} = y{i} + h * ({weighted(_B, i)})\n" for i in every)
    src += f"    k7 = rhs({read(lambda i: f'w{i}')})\n" + unpack("k7_", "k7")
    src += "".join(f"    v{i}, u{i} = abs(y{i}), abs(w{i})\n" for i in every)
    src += "    error = hypot(" + ", ".join(
        f"h * ({weighted(_E, i)}) / (atol + (u{i} if u{i} > v{i} else v{i}) * rtol)" for i in every
    ) + ") / root_n\n"
    src += f"    return (k1, k2, k3, k4, k5, k6, k7), [{', '.join(f'w{i}' for i in every)}], error\n"
    scope = {"hypot": math.hypot}
    exec(compile(src, f"<dopri trial step {m} {at}>", "exec"), scope)
    return scope["trial"]


def _dopri(
    rhs, y0: list[float], h0: float, tau_end: float, tol: float, events, what: str,
    reads: Sequence[int] | None, each,
) -> _Run:
    """Integrate y' = rhs(y) from tau = 0 to tau_end, which may be inf, with Dormand-Prince 5(4),
    trying h0 > 0 as the first step.

    reads are increasing indices into y0, or None for every component: rhs
    takes the components in reads and returns the derivatives of all of
    y0; the trial stages, _trial_step's function for (len(y0), reads), are
    formed on reads. each(tau, y) gets each accepted state, and the one an
    event ends the run at, the only states the run keeps, and may raise.

    events are terminal (component, target, direction) triples: event j
    fires where y[component] crosses target, upward
    for direction > 0, downward for direction < 0 and either way for 0.
    The run ends at the earliest root within the first step that shows a
    crossing, at a state read from the step's dense interpolant. A trial
    step whose stage the right-hand side refuses with HorizonDomain is
    rejected and shrunk by _MIN_FACTOR. nfev is 1, the evaluation at y0,
    plus six per trial step. A step that would take tau past the floats is
    a non-finite state. Messages give tau as stepped, in units of M on a
    Schwarzschild leg.
    """
    rtol, atol = tol, tol * 1e-3
    root_n = math.sqrt(len(y0))
    isfinite = math.isfinite
    at = tuple(range(len(y0)) if reads is None else reads)
    # the read components of a state, as a tuple
    take = itemgetter(*at) if len(at) > 1 else lambda v, i=at[0]: (v[i],)
    trial = _trial_step(len(y0), at)
    y = list(y0)
    f = rhs(take(y))
    h_abs, nfev, accepted, rejected = h0, 1, 0, 0

    t = 0.0
    g = [y[c] - target for c, target, _ in events]
    while t < tau_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise StepFailure(f"step size underflow at tau = {t}")
            t_new = min(t + h_abs, tau_end)
            h = t_new - t
            h_abs = h
            nfev += 6
            try:
                stages, y_new, error = trial(rhs, h, y, f, atol, rtol, root_n)
            except HorizonDomain:
                # a trial stage left the chart: the step is too long, unless
                # it is infinite, which shrinking leaves infinite
                if h == math.inf:
                    raise StepFailure(f"non-finite state after tau = {t}") from None
                h_abs *= _MIN_FACTOR
                step_rejected = True
                rejected += 1
                continue
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
            # dense output y(t + x h) = y + h sum_j Q[i][j] x^(j+1)
            Q = [[sum(K[i] * row[j] for K, row in zip(stages, _DENSE)) for j in range(4)]
                 for i in range(len(y))]

            def dense(i, x):
                q = Q[i]
                return y[i] + h * x * (q[0] + x * (q[1] + x * (q[2] + x * q[3])))

            roots = [(_bracket_root(lambda x, c=events[j][0], target=events[j][1]:
                                    dense(c, x) - target), j) for j in crossed]
            x, event = min(roots)
            tau, state = t + x * h, [dense(i, x) for i in range(len(y))]
            each(tau, state)
            return _Run(tau, state, event, nfev, accepted, rejected)

        t, y, f, g = t_new, y_new, stages[-1], g_new
        each(t, y)
    return _Run(t, y, None, nfev, accepted, rejected)


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


def _stack_paths(stored: Sequence[_Stored], tol: float) -> list[GeodesicPath | SimulatorError]:
    """The outcome of each stored leg, in order: its path, or the error its
    checks meet.

    The legs leave one event, so they share one chart, that of the path's
    units. Their two ends are stored as one (legs, 2, ...) stack, as
    _checked_paths describes, and its metric stack also checks each point's
    domain. Where it refuses a point, each leg is stacked alone: a leg with
    a point outside the domain has the error of its first such point as its
    outcome, and the other legs keep the paths they have alone.
    """
    spec = stored[0].leg.spec
    chart = _UNIT_MASS if spec.kind == SCHWARZSCHILD else spec
    taus = np.array([(0.0, leg.tau) for leg in stored])
    states = np.array([([*leg.leg.x0.tolist(), *leg.leg.u0.tolist(), 0.0], leg.end) for leg in stored])
    points = np.ascontiguousarray(states[..., :4])
    try:
        g = metric_stack(chart, points.reshape(-1, 4)).reshape(points.shape)
    except SimulatorError as e:
        # metric_stack raises at the first row it refuses: a lone leg fails with it, and
        # a larger stack is stacked leg by leg, so each leg with such a row fails alone
        return [e] if len(stored) == 1 else [_stack_paths([leg], tol)[0] for leg in stored]
    tangents = states[..., 4:8]
    if chart.kind == SCHWARZSCHILD:
        kinds = [leg.leg.kind for leg in stored]
        propagators, sizes, stored_tangents = _propagators(kinds, taus, points, g, tangents, states[..., 8])
    else:
        # a flat leg's P is the identity, which bounds its own terms, and it keeps its checked tangent
        propagators = sizes = np.tile(_IDENTITY, (*taus.shape, 1, 1))
        stored_tangents = np.ascontiguousarray(tangents)
    return _checked_paths(stored, tol, chart, taus, points, tangents, propagators, sizes, g, stored_tangents)


def _propagators(
    kinds: Sequence[str], taus: np.ndarray, points: np.ndarray, g: np.ndarray, tangents: np.ndarray,
    psi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P = F F(0)^-1 for Marck's frame F at each row of a stack of
    Schwarzschild legs, as in _parallel_frames, with P = I exactly wherever
    tau = 0, the sizes |F| |F(0)^-1| that bound the terms summed into P, and the frame's u."""
    frames = _parallel_frames(kinds, points, g, tangents, psi)
    inverse = np.linalg.inv(frames[:, 0])[:, None]
    propagators = frames @ inverse
    propagators[taus == 0.0] = _IDENTITY
    return propagators, np.abs(frames) @ np.abs(inverse), np.ascontiguousarray(frames[..., 0])


def _checked_paths(
    stored: Sequence[_Stored], tol: float, chart: MetricSpec, taus: np.ndarray, points: np.ndarray,
    tangents: np.ndarray, propagators: np.ndarray, sizes: np.ndarray, g: np.ndarray, stored_tangents: np.ndarray,
) -> list[GeodesicPath | SimulatorError]:
    """The outcome of each leg of a stack, in order: its path once the checks
    of its tangents pass, or the StepFailure of its first check that fails.

    Leg i holds row i of each (legs, 2, ...) array: taus and points, the
    integrated tangents, which are checked, the propagators, the sizes that
    bound the terms summed into them, the metric stack g at the points in
    the chart and the tangents the path stores. Every check is taken over
    the whole stack and reduced per leg, and each path holds views of its
    rows, the drift (its norm the larger of the rows' and the stepper's) and
    the stepper counters.
    """
    kinds = [leg.leg.kind for leg in stored]
    g_abs = np.abs(g)
    drifts = _conservation_drift(chart, kinds, points, tangents, g)
    # the tangent-norm check cancels catastrophically near the horizon
    # (terms ~ E^2/f against a result of order 1), so its bound scales with
    # the conditioning number; the Killing checks have no such cancellation
    u_abs = np.abs(tangents)
    conditioning = np.maximum.reduce(np.einsum("...a,...a,...a->...", g_abs, u_abs, u_abs), axis=1).tolist()
    metric = _metric_residuals(g, g_abs, propagators, sizes)
    bound = _drift_bound(tol)
    paths: list[GeodesicPath | SimulatorError] = []
    for i, (leg, kind, drift, scale, (residual, metric_bound)) in enumerate(
        zip(stored, kinds, drifts, conditioning, metric)
    ):
        bounds = {k: bound for k in drift}
        bounds["norm"] = bound * max(1.0, scale)
        bad = {k: v for k, v in drift.items() if not v <= bounds[k]}  # a NaN drift fails
        if bad:
            paths.append(StepFailure(f"conservation drift {bad} exceeds {bounds}"))
        elif not residual <= metric_bound:
            paths.append(_metric_failure(residual, metric_bound))
        else:
            drift["norm"] = max(drift["norm"], leg.norm)
            paths.append(GeodesicPath(
                spec=leg.leg.spec,
                kind=kind,
                tol=tol,
                taus=taus[i],
                points=points[i],
                tangents=stored_tangents[i],
                propagators=propagators[i],
                metrics=g[i],
                drift=drift,
                nfev=leg.nfev,
                accepted=leg.accepted,
                rejected=leg.rejected,
            ))
    return paths

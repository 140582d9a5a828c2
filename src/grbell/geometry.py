"""Spacetime geometry: the metric and products over stacks of rows.

An event is a plain (4,) array of chart coordinates x^mu, a vector a plain
(4,) array of contravariant components v^mu, and a stack of vectors holds
one per row.

Conventions used everywhere in this package:

* geometric units G = c = 1, lengths in units of the central mass M,
* metric signature (-, +, +, +),
* Minkowski spacetime in Cartesian coordinates (t, x, y, z),
* Schwarzschild spacetime in the exterior chart (t, r, theta, phi),
  restricted to r > 2M(1 + HORIZON_EPS), a fixed guard with
  HORIZON_EPS = 1e-6 just outside the horizon, to 0 < theta < pi and to
  finite t,
* both charts diagonal: the metric is stored as its diagonal, ETA or
  (-f, 1/f, r^2, (r sin theta)^2), so g(v, w) = v * g @ w; metric_stack
  evaluates it over a stack of events, one (n, 4) row each, and checks the
  domain at each; metric_components is its one-row case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonDomain, InvalidChart, MetricUnderflow, ValidationError

MINKOWSKI = "minkowski"
SCHWARZSCHILD = "schwarzschild"

ETA = np.array([-1.0, 1.0, 1.0, 1.0])
ETA.flags.writeable = False

HORIZON_EPS = 1e-6


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(shape).copy()
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"components must be finite, got {arr}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class MetricSpec:
    """Which spacetime to use: a kind and, for Schwarzschild, a mass."""

    kind: str
    mass: float = 0.0

    def __post_init__(self):
        if self.kind not in (MINKOWSKI, SCHWARZSCHILD):
            raise InvalidChart(f"unknown metric kind {self.kind!r}")
        if not math.isfinite(self.mass):
            raise ValidationError("metric.mass", "must be finite")
        if self.kind == SCHWARZSCHILD and not self.mass > 0.0:
            raise ValidationError("metric.mass", "must be positive")

    @property
    def guard_radius(self) -> float:
        """Smallest admissible radius, 2M(1 + HORIZON_EPS); 0 for flat space."""
        if self.kind == MINKOWSKI:
            return 0.0
        return 2.0 * self.mass * (1.0 + HORIZON_EPS)


def metric_stack(spec: MetricSpec, X: np.ndarray) -> np.ndarray:
    """The metric's diagonal g_{mu mu} as an (n, 4) array at the (n, 4) events X.

    Checks the chart's domain at every event. The first event outside it
    raises: HorizonDomain for r at or inside the guard, else InvalidChart for
    theta outside (0, pi), else MetricUnderflow where an angular component
    is not a positive finite float, else InvalidChart for a t that is not
    finite.
    """
    if spec.kind == MINKOWSKI:
        return np.broadcast_to(ETA, (len(X), 4)).copy()
    r, theta = X[:, 1], X[:, 2]
    g = np.empty((len(X), 4))
    g_tt, g_rr, g_thth, g_phph = g.T
    with np.errstate(all="ignore"):  # bad rows raise below instead of warning
        f = 1.0 - 2.0 * spec.mass / r
        r_sin = r * np.sin(theta)
        np.multiply(r, r, out=g_thth)
        np.multiply(r_sin, r_sin, out=g_phph)
    # the guard radius is positive, so r > 0 follows
    inside = r <= spec.guard_radius
    off_chart = ~((0.0 < theta) & (theta < math.pi))
    bad = inside | off_chart | ~((0.0 < g_phph) & (g_thth < math.inf) & np.isfinite(X[:, 0]))
    if np.logical_or.reduce(bad):
        j = int(np.argmax(bad))
        if inside[j]:
            raise HorizonDomain(f"r = {float(r[j])} inside radius {spec.guard_radius}")
        if off_chart[j]:
            raise InvalidChart(f"theta = {float(theta[j])} outside (0, pi)")
        if not (0.0 < g_phph[j] and g_thth[j] < math.inf):
            raise MetricUnderflow(
                f"angular metric components {float(g_thth[j])}, {float(g_phph[j])} not positive"
                f" and finite at r = {float(r[j])}, theta = {float(theta[j])}"
            )
        raise InvalidChart(f"t = {float(X[j, 0])} is not finite")
    np.negative(f, out=g_tt)
    np.divide(1.0, f, out=g_rr)
    return g


def metric_components(spec: MetricSpec, coords: np.ndarray) -> np.ndarray:
    """The metric's diagonal as a plain (4,) array at the event coords, metric_stack's one row."""
    return metric_stack(spec, coords[None])[0]


# Products over stacks of vectors, one vector per row. numpy's stacked matmul
# makes the same BLAS call for every row (gemv, or dot) that it makes for a
# single vector, so a row's result does not depend on how many rows are
# stacked and equals the single-vector product bit for bit; a plain 2-D
# product (gemm) rounds some columns differently.


def row_matvec(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M @ v for each row v of V."""
    return np.matmul(M, V[..., None])[..., 0]


def row_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """x @ y for each pair of rows; either side may be a single vector."""
    return np.matmul(X[..., None, :], Y[..., None])[..., 0, 0]

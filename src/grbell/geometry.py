"""Spacetime geometry: events in a chart, the metric, and products over stacks of rows.

A vector is a plain (4,) array of contravariant components v^mu, and a
stack of vectors holds one per row.

Conventions used everywhere in this package:

* geometric units G = c = 1, lengths in units of the central mass M,
* metric signature (-, +, +, +),
* Minkowski spacetime in Cartesian coordinates (t, x, y, z),
* Schwarzschild spacetime in the exterior chart (t, r, theta, phi),
  restricted to r > 2M(1 + HORIZON_EPS), a fixed guard with
  HORIZON_EPS = 1e-6 just outside the horizon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonDomain, InvalidChart, MetricUnderflow, ValidationError

MINKOWSKI = "minkowski"
SCHWARZSCHILD = "schwarzschild"

CHART_CARTESIAN = "cartesian"
CHART_SCHWARZSCHILD = "schwarzschild"

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
ETA.flags.writeable = False

HORIZON_EPS = 1e-6


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(shape).copy()
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"components must be finite, got {arr}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SpacetimePoint:
    """Event coordinates x^mu in a named chart."""

    coords: np.ndarray
    chart: str

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen_array(self.coords, (4,)))
        if self.chart not in (CHART_CARTESIAN, CHART_SCHWARZSCHILD):
            raise InvalidChart(f"unknown chart {self.chart!r}")
        if self.chart == CHART_SCHWARZSCHILD:
            r, theta = self.coords[1], self.coords[2]
            if r <= 0.0:
                raise HorizonDomain(f"r = {r} must be positive")
            if not 0.0 < theta < math.pi:
                raise InvalidChart(f"theta = {theta} outside (0, pi)")

    def __repr__(self):
        return f"SpacetimePoint({self.coords.tolist()}, {self.chart!r})"


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
    def chart(self) -> str:
        return CHART_CARTESIAN if self.kind == MINKOWSKI else CHART_SCHWARZSCHILD

    @property
    def guard_radius(self) -> float:
        """Smallest admissible radius, 2M(1 + HORIZON_EPS); 0 for flat space."""
        if self.kind == MINKOWSKI:
            return 0.0
        return 2.0 * self.mass * (1.0 + HORIZON_EPS)

    def point(self, *coords: float) -> SpacetimePoint:
        return SpacetimePoint(np.asarray(coords, dtype=float), self.chart)


def minkowski_point(t: float, x: float, y: float, z: float) -> SpacetimePoint:
    return SpacetimePoint(np.array([t, x, y, z]), CHART_CARTESIAN)


def schwarzschild_point(t: float, r: float, theta: float, phi: float) -> SpacetimePoint:
    return SpacetimePoint(np.array([t, r, theta, phi]), CHART_SCHWARZSCHILD)


def _check_domain(spec: MetricSpec, coords: np.ndarray) -> None:
    if spec.kind != SCHWARZSCHILD:
        return
    if coords[1] <= spec.guard_radius:
        raise HorizonDomain(f"r = {coords[1]} inside radius {spec.guard_radius}")


def metric_components(spec: MetricSpec, coords: np.ndarray) -> np.ndarray:
    """g_{mu nu} as a plain (4, 4) array."""
    _check_domain(spec, coords)
    if spec.kind == MINKOWSKI:
        return ETA.copy()
    r, theta = coords[1], coords[2]
    f = 1.0 - 2.0 * spec.mass / r
    g_thth, g_phph = r * r, (r * math.sin(theta)) ** 2
    # f > 0 outside the guard; an overflow shows up as a non-finite drift
    if g_thth == 0.0 or g_phph == 0.0:
        raise MetricUnderflow(f"angular metric components underflow at r = {r}, theta = {theta}")
    return np.diag([-f, 1.0 / f, g_thth, g_phph])


# Products over stacks of vectors, one vector per row. numpy's stacked matmul
# makes the same BLAS call for every row (gemv, or dot) that it makes for a
# single vector, so a row's result does not depend on how many rows are
# stacked and equals the single-vector product bit for bit; a plain 2-D
# product (gemm) rounds some columns differently.


def row_matvec(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M @ v for each row v of V."""
    return np.matmul(M, V[..., None])[..., 0]


def row_vecmat(V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v @ M for each row v of V."""
    return np.matmul(V[..., None, :], M)[..., 0, :]


def row_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """x @ y for each pair of rows; either side may be a single vector."""
    return np.matmul(X[..., None, :], Y[..., None])[..., 0, 0]

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
  HORIZON_EPS = 1e-6 just outside the horizon, and to 0 < theta < pi.
  metric_components checks that domain at every event it is given.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonDomain, InvalidChart, MetricUnderflow, ValidationError

MINKOWSKI = "minkowski"
SCHWARZSCHILD = "schwarzschild"

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
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


def _check_domain(spec: MetricSpec, coords: np.ndarray) -> None:
    if spec.kind != SCHWARZSCHILD:
        return
    # the guard radius is positive, so r > 0 follows
    if coords[1] <= spec.guard_radius:
        raise HorizonDomain(f"r = {coords[1]} inside radius {spec.guard_radius}")
    if not 0.0 < coords[2] < math.pi:
        raise InvalidChart(f"theta = {coords[2]} outside (0, pi)")


def metric_components(spec: MetricSpec, coords: np.ndarray) -> np.ndarray:
    """g_{mu nu} as a plain (4, 4) array at the event coords.

    Raises HorizonDomain or InvalidChart for an event outside the chart's
    domain, and MetricUnderflow where an angular component is not a positive
    finite float.
    """
    _check_domain(spec, coords)
    if spec.kind == MINKOWSKI:
        return ETA.copy()
    # Python floats: an overflow gives inf here, with no numpy warning
    r, theta = float(coords[1]), float(coords[2])
    f = 1.0 - 2.0 * spec.mass / r
    r_sin = r * math.sin(theta)
    g_thth, g_phph = r * r, r_sin * r_sin
    if not (0.0 < g_phph and g_thth < math.inf):
        raise MetricUnderflow(
            f"angular metric components {g_thth}, {g_phph} not positive and finite"
            f" at r = {r}, theta = {theta}"
        )
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

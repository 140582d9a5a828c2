"""Spacetime geometry: metric tensors, Christoffel symbols, inner products.

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

from .errors import (
    BasePointMismatch,
    HorizonDomain,
    InvalidChart,
    MetricUnderflow,
    ValidationError,
)

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


@dataclass(frozen=True, eq=False)
class FourVector:
    """Contravariant components v^mu attached to a base event."""

    components: np.ndarray
    base: SpacetimePoint

    def __post_init__(self):
        object.__setattr__(self, "components", _frozen_array(self.components, (4,)))

    def __repr__(self):
        return f"FourVector({self.components.tolist()} @ {self.base!r})"


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


@dataclass(frozen=True, eq=False)
class MetricTensor:
    """Covariant components g_{mu nu} at a base event."""

    g: np.ndarray
    base: SpacetimePoint

    def __post_init__(self):
        object.__setattr__(self, "g", _frozen_array(self.g, (4, 4)))


@dataclass(frozen=True, eq=False)
class ChristoffelSymbols:
    """Connection coefficients Gamma^mu_{alpha beta}, symmetric in (alpha, beta)."""

    gamma: np.ndarray
    base: SpacetimePoint

    def __post_init__(self):
        object.__setattr__(self, "gamma", _frozen_array(self.gamma, (4, 4, 4)))


def minkowski_point(t: float, x: float, y: float, z: float) -> SpacetimePoint:
    return SpacetimePoint(np.array([t, x, y, z]), CHART_CARTESIAN)


def schwarzschild_point(t: float, r: float, theta: float, phi: float) -> SpacetimePoint:
    return SpacetimePoint(np.array([t, r, theta, phi]), CHART_SCHWARZSCHILD)


def same_event(p: SpacetimePoint, q: SpacetimePoint, tol: float = 1e-12) -> bool:
    return p.chart == q.chart and bool(np.all(np.abs(p.coords - q.coords) <= tol))


def _check_domain(spec: MetricSpec, coords: np.ndarray) -> None:
    if spec.kind != SCHWARZSCHILD:
        return
    if coords[1] <= spec.guard_radius:
        raise HorizonDomain(f"r = {coords[1]} inside radius {spec.guard_radius}")


def _check_chart(spec: MetricSpec, p: SpacetimePoint) -> None:
    if p.chart != spec.chart:
        raise InvalidChart(f"point in chart {p.chart!r}, metric uses {spec.chart!r}")


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


def christoffel_components(spec: MetricSpec, coords: np.ndarray) -> np.ndarray:
    """Gamma^mu_{alpha beta} as a plain (4, 4, 4) array (closed forms)."""
    _check_domain(spec, coords)
    G = np.zeros((4, 4, 4))
    if spec.kind == MINKOWSKI:
        return G
    M = spec.mass
    r, theta = coords[1], coords[2]
    f = 1.0 - 2.0 * M / r
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    G[0, 0, 1] = G[0, 1, 0] = M / (r * r * f)
    G[1, 0, 0] = M * f / (r * r)
    G[1, 1, 1] = -M / (r * r * f)
    G[1, 2, 2] = -r * f
    G[1, 3, 3] = -r * f * sin_t * sin_t
    G[2, 1, 2] = G[2, 2, 1] = 1.0 / r
    G[2, 3, 3] = -sin_t * cos_t
    G[3, 1, 3] = G[3, 3, 1] = 1.0 / r
    G[3, 2, 3] = G[3, 3, 2] = cos_t / sin_t
    return G


def metric_at(spec: MetricSpec, p: SpacetimePoint) -> MetricTensor:
    """Exact metric tensor of `spec` at `p`."""
    _check_chart(spec, p)
    return MetricTensor(metric_components(spec, p.coords), p)


def christoffel_at(spec: MetricSpec, p: SpacetimePoint) -> ChristoffelSymbols:
    """Exact Christoffel symbols of `spec` at `p`."""
    _check_chart(spec, p)
    return ChristoffelSymbols(christoffel_components(spec, p.coords), p)


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


def inner(g: MetricTensor, u: FourVector, v: FourVector) -> float:
    """Scalar product g_{mu nu} u^mu v^nu; u and v must share g's base event.

    Contracted through the symmetrized outer product, so swapping u and v
    gives the bit-identical result.
    """
    if not (same_event(g.base, u.base) and same_event(g.base, v.base)):
        raise BasePointMismatch("inner() requires tensors at the same event")
    outer = np.outer(u.components, v.components)
    return float(np.sum(g.g * (0.5 * (outer + outer.T))))


def finite_difference_christoffel(
    spec: MetricSpec, p: SpacetimePoint, step: float = 1e-6
) -> np.ndarray:
    """Gamma rebuilt from centered differences of the metric.

    Validator for the closed forms: Gamma^mu_{ab} =
    (1/2) g^{mu nu} (d_a g_{nb} + d_b g_{na} - d_nu g_{ab}).
    """
    _check_chart(spec, p)
    coords = p.coords
    dg = np.zeros((4, 4, 4))  # dg[lam, mu, nu] = d_lam g_{mu nu}
    for lam in range(4):
        h = step * max(1.0, abs(coords[lam]))
        plus = coords.copy()
        minus = coords.copy()
        plus[lam] += h
        minus[lam] -= h
        dg[lam] = (metric_components(spec, plus) - metric_components(spec, minus)) / (2 * h)
    g_inv = np.linalg.inv(metric_components(spec, coords))
    # bracket[a, b, nu] = d_a g_{nu b} + d_b g_{nu a} - d_nu g_{ab}
    bracket = dg.transpose(0, 2, 1) + dg.transpose(2, 0, 1) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("mn,abn->mab", g_inv, bracket)

"""Local orthonormal tetrads and the weighted projection of transported vectors.

A tetrad is one (4, 4) array E with the legs e0..e3 as its rows, so that
g(e_a, e_b) = eta_ab. Its projector is E g, with g the metric at the
tetrad's event: (E g) v holds g(e_a, v).

A transported measurement direction generally acquires a time component in
the detector's tetrad. The rule used here: Euclidean-normalize the four
tetrad components to unit length, then take the spatial triple. Its
Euclidean norm is the weight w in [0, 1]; the triple divided by w is the
measured unit direction. A purely spatial vector keeps w = 1, a purely
timelike one degenerates to w = 0.

Embedding and projection are linear, so they run on stacks of vectors,
one per row: embed_stack puts every setting of a sweep into the tetrad at
once, and project_stack projects every transported row with the tetrad's
one 4x4 projector. One vector is a stack of one row, and a
ProjectionResult is built only for the rows a caller asks for.
weighted_stack builds the same stack from given weights along one
direction, without a tetrad (the synthetic mode); make_projection is its
one-row case.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadNormalization,
    DegenerateBasis,
    NonFiniteVector,
    SimulatorError,
    StaticFrameUnavailable,
    ZeroVector,
)
from .geodesics import TIMELIKE, tangent_kind
from .geometry import (
    ETA,
    MINKOWSKI,
    MetricSpec,
    _frozen_array,
    row_dot,
    row_matvec,
)

DEGENERATE_W = 1e-9
GRAM_SCHMIDT_PIVOT = 1e-12


@dataclass(frozen=True, eq=False)
class Direction3:
    """Unit 3-vector in a tetrad's spatial triad."""

    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _frozen_array(self.d, (3,)))
        norm = float(np.linalg.norm(self.d))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"direction norm {norm} not unit within 1e-12")

    @classmethod
    def from_vector(cls, v) -> "Direction3":
        arr = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise ZeroVector("cannot normalize a zero 3-vector")
        return cls(arr / norm)

    @classmethod
    def from_angle(cls, angle_rad: float) -> "Direction3":
        """In-plane direction (cos, sin, 0) in the frame's e1-e2 plane."""
        return cls(np.array([math.cos(angle_rad), math.sin(angle_rad), 0.0]))

    def dot(self, other: "Direction3") -> float:
        return float(self.d @ other.d)

    def __neg__(self) -> "Direction3":
        return Direction3(-self.d)


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Weight w in [0, 1] and unit direction of a vector seen in a tetrad.

    `time_component` is the normalized tetrad time component, so
    w**2 + time_component**2 == 1. `direction` is None when degenerate.
    """

    w: float
    direction: Direction3 | None
    degenerate: bool
    time_component: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"w = {self.w} outside [0, 1]")
        if not self.degenerate and self.direction is None:
            raise ValueError("non-degenerate projection needs a direction")


def make_projection(w: float, direction=None) -> ProjectionResult:
    """Synthetic projection for driving the correlation layer directly.

    A degenerate weight ignores direction; any other weight needs one that
    normalises (ZeroVector otherwise).
    """
    d = direction.d if isinstance(direction, Direction3) else unit_or_none(direction)
    stack = weighted_stack(np.array([w], dtype=float), d)
    if stack.errors:
        raise stack.errors[0]
    return stack.result(0)


def unit_or_none(v) -> np.ndarray | None:
    """v normalised as Direction3.from_vector does it; None if v is None or cannot be."""
    if v is None:
        return None
    try:
        with np.errstate(over="ignore"):  # an overflowing norm fails the unit check
            return Direction3.from_vector(v).d
    except (ZeroVector, ValueError):
        return None


def build_static_frame(spec: MetricSpec, x: np.ndarray) -> np.ndarray:
    """Tetrad of the static observer at the event x, a (4,) array: e0 along
    d/dt, spatial legs along the axes."""
    if spec.kind == MINKOWSKI:
        return np.eye(4)
    r, theta = x[1], x[2]
    if r <= spec.guard_radius:
        raise StaticFrameUnavailable(f"no static observer at r = {r} <= {spec.guard_radius}")
    if not 0.0 < theta < math.pi:
        raise StaticFrameUnavailable(f"no static observer at theta = {theta} outside (0, pi)")
    f = 1.0 - 2.0 * spec.mass / r
    return np.diag([1.0 / math.sqrt(f), math.sqrt(f), 1.0 / r, 1.0 / (r * math.sin(theta))])


def build_comoving_frame(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Tetrad riding with 4-velocity u at an event where the metric is g:
    e0 = u, spatial legs by Gram-Schmidt.

    Candidates are the spatial coordinate axes in chart order, so the result
    is deterministic. Future-pointing timelike u is required.
    """
    if tangent_kind(u, float(u @ g @ u)) != TIMELIKE:
        raise BadNormalization("a comoving frame needs a timelike u, not a null one")

    legs = [np.asarray(u, dtype=float)]
    for axis in (1, 2, 3):
        w = np.zeros(4)
        w[axis] = 1.0
        # eta-weighted projections: e0 has norm -1, spatial legs +1
        w = w + float(legs[0] @ g @ w) * legs[0]
        for prev in legs[1:]:
            w = w - float(prev @ g @ w) * prev
        norm_sq = float(w @ g @ w)
        if norm_sq <= GRAM_SCHMIDT_PIVOT:
            raise DegenerateBasis(f"pivot {norm_sq} for axis {axis}")
        legs.append(w / math.sqrt(norm_sq))
    return np.stack(legs)


def embed_stack(E: np.ndarray, D: np.ndarray) -> np.ndarray:
    """d1*e1 + d2*e2 + d3*e3 for each row d of D, with the legs e_a the rows of E."""
    return D[:, 0:1] * E[1] + D[:, 1:2] * E[2] + D[:, 2:3] * E[3]


_ETA_DIAG = np.diag(ETA)


class ProjectionStack(NamedTuple):
    """Projections of k vectors as arrays; row j is one ProjectionResult.

    direction rows are zero where degenerate. errors maps a row whose
    vector could not be projected to its error; such a row holds w = 0
    and counts as degenerate.
    """

    w: np.ndarray               # (k,)
    direction: np.ndarray       # (k, 3)
    degenerate: np.ndarray      # (k,) bool
    time_component: np.ndarray  # (k,)
    errors: dict[int, SimulatorError]

    @classmethod
    def of(cls, results: Sequence[ProjectionResult]) -> "ProjectionStack":
        return cls(
            w=np.array([p.w for p in results], dtype=float),
            direction=np.array(
                [np.zeros(3) if p.degenerate else p.direction.d for p in results]
            ).reshape(len(results), 3),
            degenerate=np.array([p.degenerate for p in results], dtype=bool),
            time_component=np.array([p.time_component for p in results], dtype=float),
            errors={},
        )

    def rows(self, index) -> "ProjectionStack":
        """The rows selected by index, without their errors."""
        return ProjectionStack(
            self.w[index], self.direction[index], self.degenerate[index],
            self.time_component[index], {},
        )

    def where(self, mask: np.ndarray, other: "ProjectionStack") -> "ProjectionStack":
        """Row j of self where mask[j], else row j of other."""
        return ProjectionStack(
            np.where(mask, self.w, other.w),
            np.where(mask[:, None], self.direction, other.direction),
            np.where(mask, self.degenerate, other.degenerate),
            np.where(mask, self.time_component, other.time_component),
            {},
        )

    def result(self, j: int) -> ProjectionResult:
        degenerate = bool(self.degenerate[j])
        return ProjectionResult(
            w=float(self.w[j]),
            direction=None if degenerate else Direction3(self.direction[j]),
            degenerate=degenerate,
            time_component=float(self.time_component[j]),
        )


def weighted_stack(w: np.ndarray, direction: np.ndarray | None) -> ProjectionStack:
    """Projections of the (k,) weights w, each along one unit direction.

    direction is None when it could not be normalised; a row whose weight
    is not degenerate then fails with ZeroVector and holds w = 0.
    """
    degenerate = w < DEGENERATE_W
    errors: dict[int, SimulatorError] = {}
    if direction is None:
        for j in np.flatnonzero(~degenerate).tolist():
            errors[j] = ZeroVector(f"weight {w[j]} needs a direction that normalises")
        w = np.where(degenerate, w, 0.0)
        degenerate, direction = np.ones_like(degenerate), np.zeros(3)
    direction = np.where(degenerate[:, None], 0.0, direction)
    return ProjectionStack(w, direction, degenerate, np.sqrt(np.maximum(0.0, 1.0 - w * w)), errors)


def project_stack(projector: np.ndarray, V: np.ndarray) -> ProjectionStack:
    """Weight and direction of each row of V, per the module's projection rule.

    projector is E g of the tetrad E the rows are read in, g the metric there.
    """
    with np.errstate(all="ignore"):  # a non-finite row is reported as an error
        comps = _ETA_DIAG * row_matvec(projector, V)
        total = np.sqrt(row_dot(comps, comps))
        q = comps / total[:, None]
        # rounding can push the norm a few ulp past 1; the invariant is exact
        w = np.minimum(np.sqrt(row_dot(q[:, 1:], q[:, 1:])), 1.0)
    ok = np.isfinite(total) & (total > 0.0)
    errors: dict[int, SimulatorError] = {}
    for j in np.flatnonzero(~ok).tolist():
        errors[j] = (
            ZeroVector("cannot project a zero vector")
            if total[j] == 0.0
            else NonFiniteVector(f"tetrad components {comps[j].tolist()} overflow")
        )
        q[j], w[j] = 0.0, 0.0
    degenerate = w < DEGENERATE_W
    direction = q[:, 1:] / np.where(degenerate, 1.0, w)[:, None]
    direction[degenerate] = 0.0
    return ProjectionStack(w, direction, degenerate, q[:, 0], errors)

"""Weighted singlet correlations and the three-setting inequality.

The spin correlation between a detector setting a (at the left detector)
and a transported setting with weight w and arrival direction b is

    P(a, b) = -(a . b) * w**2,

the flat-space singlet value scaled by the squared projection weight. For
two transported settings b, c with w_b >= w_c, local models are bounded by

    |P(a, b) - P(a, c)| <= w_b**2 - w_c**2 * (b . c),

and the weighted difference vector d = w_b**2 * b - w_c**2 * c controls
which settings a break that bound: the quantum value of the left side is
|a . d|, so any a with |a . d| > b . d violates.

The bound, the angle test and the optimum a = d/|d| hold only in that
order; _ordered alone decides it, up to rounding. An InequalityStack
holds its arms in that order as b and c, which violation_stack takes.

Every evaluation runs on arrays: the settings a as rows of a (k, 3) array
and each arm as a ProjectionStack, so a sweep's rows, a single run's one
row, the random triples of grbell selftest and the candidates of the grid
search are each one pass. find_max_violation takes and returns the public
one-row objects; an InequalityReport is built only for a row a caller
asks for.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateD, SimulatorError, ValidationError
from .frames import Direction3, ProjectionResult, ProjectionStack
from .geometry import row_dot

TOL_INEQ = 1e-12
# arms keep the caller's order unless w_c exceeds w_b by more than this many
# ulp of w_b: weights that differ by rounding alone (a symmetric geometry
# transports both arms alike) do not swap on their last bit
ARM_ORDER_ULP = 4


@dataclass(frozen=True, eq=False)
class SettingsTriple:
    """Setting a at the left detector; b and c at the right one."""

    a: Direction3
    b: Direction3
    c: Direction3


@dataclass(frozen=True, eq=False)
class InequalityReport:
    """Both sides of the bound; arms, weights and correlations are post-swap.

    p_bc = -(b . c) * w_c**2 is NaN when an arm is degenerate.
    """

    p_ab: float
    p_ac: float
    p_bc: float
    lhs: float
    rhs: float
    margin: float
    violated: bool
    w_b: float
    w_c: float
    b_direction: Direction3 | None
    c_direction: Direction3 | None
    swapped: bool
    degenerate: bool


class InequalityStack(NamedTuple):
    """Both sides of the bound over the rows a; b and c are the post-swap arms.
    errors maps each row whose arms could not be formed to its error."""

    a: np.ndarray  # (k, 3), or (1, 3) for one a against every row
    p_ab: np.ndarray
    p_ac: np.ndarray
    p_bc: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    violated: np.ndarray
    b: ProjectionStack
    c: ProjectionStack
    swapped: np.ndarray
    degenerate: np.ndarray
    errors: dict[int, SimulatorError]

    def report(self, j: int) -> InequalityReport:
        b, c = self.b.result(j), self.c.result(j)
        return InequalityReport(
            p_ab=float(self.p_ab[j]),
            p_ac=float(self.p_ac[j]),
            p_bc=float(self.p_bc[j]),
            lhs=float(self.lhs[j]),
            rhs=float(self.rhs[j]),
            margin=float(self.margin[j]),
            violated=bool(self.violated[j]),
            w_b=b.w,
            w_c=c.w,
            b_direction=b.direction,
            c_direction=c.direction,
            swapped=bool(self.swapped[j]),
            degenerate=bool(self.degenerate[j]),
        )

    def margin_at(self, a: np.ndarray) -> np.ndarray:
        """The margin of the rows a against these arms and this bound: the bits
        of bell_stack(a, self.b, self.c).margin, whose arms, in the bound's
        order, are not swapped again; only the left side is formed."""
        return np.abs(_correlations(a, self.b) - _correlations(a, self.c)) - self.rhs


class ViolationStack(NamedTuple):
    """Angle test on d = w_b^2 b - w_c^2 c per row: local models need |cos phi| <= cos theta.
    best is the setting of largest margin |a . d|, d/|d|, zeros where d vanishes."""

    d: np.ndarray  # (k, 3)
    cos_phi: np.ndarray
    cos_theta: np.ndarray
    condition_holds: np.ndarray
    degenerate: np.ndarray
    best: np.ndarray  # (k, 3)


def _correlations(a: np.ndarray, arm: ProjectionStack) -> np.ndarray:
    """P(a, b) = 0 - (a . b) * w**2 per row, never -0.0; exactly 0 for a degenerate arm."""
    return np.where(arm.degenerate, 0.0, 0.0 - row_dot(a, arm.direction) * arm.w**2)


def _weighted_differences(
    arm_b: ProjectionStack, arm_c: ProjectionStack
) -> tuple[np.ndarray, np.ndarray]:
    """d = w_b^2 * b - w_c^2 * c per row, degenerate arms contributing zero, and |d|."""
    term_b = np.where(arm_b.degenerate[:, None], 0.0, arm_b.w[:, None] ** 2 * arm_b.direction)
    term_c = np.where(arm_c.degenerate[:, None], 0.0, arm_c.w[:, None] ** 2 * arm_c.direction)
    # summed from zero, so that a -0.0 term reads 0.0
    d = 0.0 + term_b - term_c
    return d, np.sqrt(row_dot(d, d))


def _ordered(
    arm_b: ProjectionStack, arm_c: ProjectionStack
) -> tuple[ProjectionStack, ProjectionStack, np.ndarray]:
    """The arms in the bound's order, w_b >= w_c to ARM_ORDER_ULP ulp, and where they were swapped.

    The one place the two weights are compared: the bound, the angle test
    and the optimum all start from it.
    """
    swapped = arm_c.w - arm_b.w > ARM_ORDER_ULP * np.spacing(arm_b.w)
    if np.logical_or.reduce(swapped):
        return arm_c.where(swapped, arm_b), arm_b.where(swapped, arm_c), swapped
    return arm_b, arm_c, swapped


def bell_stack(a: np.ndarray, arm_b: ProjectionStack, arm_c: ProjectionStack) -> InequalityStack:
    """Both sides of the bound for the rows a of a (k, 3) array.

    Rows pair up by index; a side with one row is used for every row. The
    arms are taken in the bound's order (_ordered), and swapped says where.
    """
    b, c, swapped = _ordered(arm_b, arm_c)
    p_ab = _correlations(a, b)
    p_ac = _correlations(a, c)
    lhs = np.abs(p_ab - p_ac)
    degenerate = b.degenerate | c.degenerate
    bc = np.where(degenerate, 0.0, row_dot(b.direction, c.direction))
    p_bc = np.where(degenerate, np.nan, 0.0 - bc * c.w**2)
    rhs = b.w**2 - c.w**2 * bc
    margin = lhs - rhs
    return InequalityStack(
        a=a, p_ab=p_ab, p_ac=p_ac, p_bc=p_bc, lhs=lhs, rhs=rhs, margin=margin,
        violated=margin > TOL_INEQ, b=b, c=c, swapped=swapped, degenerate=degenerate,
        errors={},
    )


def violation_stack(a: np.ndarray, arm_b: ProjectionStack, arm_c: ProjectionStack) -> ViolationStack:
    """Angles of a and b against d per row, and the optimum; vacuous where d vanishes.
    The arms are in the bound's order, as an InequalityStack's b and c are."""
    d, norm = _weighted_differences(arm_b, arm_c)
    degenerate = norm <= 1e-12
    safe = np.where(degenerate, 1.0, norm)
    cos_phi = np.where(degenerate, 0.0, row_dot(a, d) / safe)
    cos_theta = np.where(degenerate | arm_b.degenerate, 0.0, row_dot(arm_b.direction, d) / safe)
    holds = degenerate | (np.abs(cos_phi) <= cos_theta + TOL_INEQ)
    best = np.where(degenerate[:, None], 0.0, d / safe[:, None])
    return ViolationStack(d, cos_phi, cos_theta, holds, degenerate, best)


def _grid_directions(n: int) -> np.ndarray:
    """The n x n sphere grid, theta-major, as the rows of an (n^2, 3) array."""
    thetas = [math.pi * (i + 0.5) / n for i in range(n)]
    phis = [2.0 * math.pi * j / n for j in range(n)]
    sin_t = np.array([math.sin(t) for t in thetas])[:, None]
    cos_p = np.array([math.cos(p) for p in phis])
    sin_p = np.array([math.sin(p) for p in phis])
    return np.stack(
        [
            (sin_t * cos_p).ravel(),
            (sin_t * sin_p).ravel(),
            np.repeat([math.cos(t) for t in thetas], n),
        ],
        axis=1,
    )


def find_max_violation(
    proj_b: ProjectionResult,
    proj_c: ProjectionResult,
    search: str = "analytic",
    grid_n: int = 48,
) -> tuple[Direction3, InequalityReport]:
    """Left-detector setting maximizing the inequality margin.

    Analytic mode: the quantum left side is |a . d|, maximal at a = d/|d|.
    Grid mode scans an n x n sphere grid and refines the best cell by
    shrinking-step coordinate descent; ties break lexicographically. Any
    other search raises ValidationError.
    """
    arm_b, arm_c = ProjectionStack.of([proj_b]), ProjectionStack.of([proj_c])
    # the optimum does not read the setting a the angles are taken against
    angles = violation_stack(np.zeros((1, 3)), *_ordered(arm_b, arm_c)[:2])
    if angles.degenerate[0]:
        raise DegenerateD("weighted difference vanishes; no optimizing setting")

    if search == "analytic":
        a_star = angles.best[0]
    elif search == "grid":
        candidates = _grid_directions(grid_n)
        margins = bell_stack(candidates, arm_b, arm_c).margin
        # the largest (margin, -direction), compared lexicographically
        order = np.lexsort((-candidates[:, 2], -candidates[:, 1], -candidates[:, 0], margins))
        a_star = _refine(candidates[order[-1]], arm_b, arm_c)
    else:
        raise ValidationError("search", f"unknown search mode {search!r}")

    return Direction3(a_star), bell_stack(a_star[None], arm_b, arm_c).report(0)


def _refine(a: np.ndarray, proj_b: ProjectionStack, proj_c: ProjectionStack) -> np.ndarray:
    """Coordinate descent on spherical angles from the unit (3,) a until margin gain < 1e-10.

    proj_b and proj_c are the two arms as one-row stacks. Each round scores
    its four neighbours as one stack and moves to the best one that gains;
    a round without a gain halves the step.
    """
    theta = math.acos(max(-1.0, min(1.0, a[2])))
    phi = math.atan2(a[1], a[0])
    step = 0.1
    current = float(bell_stack(a[None], proj_b, proj_c).margin[0])

    def direction_of(th, ph):
        return [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]

    while step > 1e-12:
        moves = ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step))
        candidates = np.array([direction_of(theta + dth, phi + dph) for dth, dph in moves])
        margins = bell_stack(candidates, proj_b, proj_c).margin
        best = int(np.argmax(margins))
        if margins[best] > current + 1e-10:
            theta, phi, current = theta + moves[best][0], phi + moves[best][1], float(margins[best])
        else:
            step *= 0.5
    return np.array(direction_of(theta, phi))

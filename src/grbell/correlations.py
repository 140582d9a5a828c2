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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateD
from .frames import Direction3, ProjectionResult

TOL_INEQ = 1e-12


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
    tol: float = TOL_INEQ


@dataclass(frozen=True, eq=False)
class ViolationAngles:
    """Angle test on d = w_b^2 b - w_c^2 c: local models need |cos phi| <= cos theta."""

    d: np.ndarray
    cos_phi: float
    cos_theta: float
    condition_holds: bool
    degenerate: bool


def quantum_correlation(a: Direction3, proj_b: ProjectionResult) -> float:
    """P(a, b) = -(a . b_direction) * w**2; exactly 0 for a degenerate arm."""
    if proj_b.degenerate:
        return 0.0
    return -a.dot(proj_b.direction) * proj_b.w**2


def weighted_difference(proj_b: ProjectionResult, proj_c: ProjectionResult) -> np.ndarray:
    """d = w_b^2 * b - w_c^2 * c with degenerate arms contributing zero."""
    d = np.zeros(3)
    if not proj_b.degenerate:
        d += proj_b.w**2 * proj_b.direction.d
    if not proj_c.degenerate:
        d -= proj_c.w**2 * proj_c.direction.d
    return d


def generalized_bell_check(
    triple: SettingsTriple,
    proj_b: ProjectionResult,
    proj_c: ProjectionResult,
    tol: float = TOL_INEQ,
) -> InequalityReport:
    """Evaluate |P(a,b) - P(a,c)| against w_b^2 - w_c^2 (b . c).

    The bound's derivation needs w_b >= w_c; when the caller's pair comes
    in the other order the two arms are swapped and the report says so.
    """
    swapped = proj_b.w < proj_c.w
    if swapped:
        proj_b, proj_c = proj_c, proj_b

    p_ab = quantum_correlation(triple.a, proj_b)
    p_ac = quantum_correlation(triple.a, proj_c)
    lhs = abs(p_ab - p_ac)

    if proj_b.degenerate or proj_c.degenerate:
        bc, p_bc = 0.0, float("nan")
    else:
        bc = proj_b.direction.dot(proj_c.direction)
        p_bc = -bc * proj_c.w**2
    rhs = proj_b.w**2 - proj_c.w**2 * bc
    margin = lhs - rhs
    return InequalityReport(
        p_ab=p_ab,
        p_ac=p_ac,
        p_bc=p_bc,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        violated=margin > tol,
        w_b=proj_b.w,
        w_c=proj_c.w,
        b_direction=proj_b.direction,
        c_direction=proj_c.direction,
        swapped=swapped,
        degenerate=proj_b.degenerate or proj_c.degenerate,
        tol=tol,
    )


def violation_condition(
    triple: SettingsTriple,
    proj_b: ProjectionResult,
    proj_c: ProjectionResult,
    tol: float = TOL_INEQ,
) -> ViolationAngles:
    """Angles of a and b against d; vacuously satisfied when d vanishes."""
    d = weighted_difference(proj_b, proj_c)
    norm = float(np.linalg.norm(d))
    if norm <= 1e-12:
        return ViolationAngles(
            d=d, cos_phi=0.0, cos_theta=0.0, condition_holds=True, degenerate=True
        )
    cos_phi = float(triple.a.d @ d) / norm
    b_dir = proj_b.direction if not proj_b.degenerate else None
    cos_theta = float(b_dir.d @ d) / norm if b_dir is not None else 0.0
    return ViolationAngles(
        d=d,
        cos_phi=cos_phi,
        cos_theta=cos_theta,
        condition_holds=abs(cos_phi) <= cos_theta + tol,
        degenerate=False,
    )


def _grid_directions(n: int) -> list[Direction3]:
    dirs = []
    for i in range(n):
        theta = math.pi * (i + 0.5) / n
        for j in range(n):
            phi = 2.0 * math.pi * j / n
            dirs.append(
                Direction3(
                    np.array(
                        [
                            math.sin(theta) * math.cos(phi),
                            math.sin(theta) * math.sin(phi),
                            math.cos(theta),
                        ]
                    )
                )
            )
    return dirs


def _margin_of(a: Direction3, proj_b, proj_c) -> float:
    probe = SettingsTriple(a=a, b=a, c=a)
    return generalized_bell_check(probe, proj_b, proj_c).margin


def find_max_violation(
    proj_b: ProjectionResult,
    proj_c: ProjectionResult,
    search: str = "analytic",
    grid_n: int = 48,
) -> tuple[Direction3, InequalityReport]:
    """Left-detector setting maximizing the inequality margin.

    Analytic mode: the quantum left side is |a . d|, maximal at a = d/|d|.
    Grid mode scans an n x n sphere grid and refines the best cell by
    shrinking-step coordinate descent; ties break lexicographically.
    """
    d = weighted_difference(proj_b, proj_c)
    norm = float(np.linalg.norm(d))
    if norm <= 1e-12:
        raise DegenerateD("weighted difference vanishes; no optimizing setting")

    if search == "analytic":
        a_star = Direction3(d / norm)
    elif search == "grid":
        best: tuple[float, tuple, Direction3] | None = None
        for cand in _grid_directions(grid_n):
            m = _margin_of(cand, proj_b, proj_c)
            key = (m, tuple(-cand.d))
            if best is None or key > best[:2]:
                best = (m, key[1], cand)
        a_star = _refine(best[2], proj_b, proj_c)
    else:
        raise ValueError(f"unknown search mode {search!r}")

    triple = SettingsTriple(
        a=a_star,
        b=proj_b.direction if not proj_b.degenerate else a_star,
        c=proj_c.direction if not proj_c.degenerate else a_star,
    )
    return a_star, generalized_bell_check(triple, proj_b, proj_c)


def _refine(a: Direction3, proj_b, proj_c) -> Direction3:
    """Coordinate descent on spherical angles until margin gain < 1e-10."""
    theta = math.acos(max(-1.0, min(1.0, a.d[2])))
    phi = math.atan2(a.d[1], a.d[0])
    step = 0.1
    current = _margin_of(a, proj_b, proj_c)

    def direction_of(th, ph):
        return Direction3(
            np.array(
                [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
            )
        )

    while step > 1e-12:
        improved = False
        for dth, dph in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            cand = direction_of(theta + dth, phi + dph)
            m = _margin_of(cand, proj_b, proj_c)
            if m > current + 1e-10:
                theta, phi, current = theta + dth, phi + dph, m
                improved = True
        if not improved:
            step *= 0.5
    return direction_of(theta, phi)

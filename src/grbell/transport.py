"""Parallel transport of vectors along stored geodesic paths.

Transport is linear, so each path carries one parallel propagator P,
which grbell.geodesics builds in closed form: the identity on a flat leg,
F(tau) F(0)^-1 for Marck's parallel frame F on a Schwarzschild leg.
Forward transport applies P at the last stored step, backward transport
solves with it, and the two-leg transfer R -> O -> L chains a backward leg
with a forward one: v_L = P_L solve(P_R, v_R).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BasePointMismatch,
    CommonOriginMismatch,
    InvalidChart,
    StepFailure,
)
from .geodesics import GeodesicPath
from .geometry import FourVector, same_event

FORWARD = "forward"
BACKWARD = "backward"

COMMON_ORIGIN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TransportedVector:
    """Vector arrived at the destination event, with conservation diagnostics."""

    v: FourVector
    norm_drift: float
    tangent_dot_drift: float


def _invariants(path: GeodesicPath, i: int, v: np.ndarray) -> tuple[float, float, float, float]:
    """(v.v, v.u) at stored step i plus the sum-of-magnitudes conditioning of each."""
    u, g = path.tangents[i], path.metrics[i]
    g_abs, v_abs, u_abs = np.abs(g), np.abs(v), np.abs(u)
    return (
        float(v @ g @ v),
        float(v @ g @ u),
        float(v_abs @ g_abs @ v_abs),
        float(v_abs @ g_abs @ u_abs),
    )


def parallel_transport(
    path: GeodesicPath,
    v0: FourVector,
    direction: str = FORWARD,
) -> TransportedVector:
    """Levi-Civita transport of v0 along the whole path.

    Forward transport starts at the path's first event, backward at its
    last. Inner products with the tangent and the vector's own norm are
    conserved; their relative drift is checked against max(1e-8, 100 * tol)
    and reported on the result.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    anchor = path.start_point() if direction == FORWARD else path.end_point()
    if not same_event(anchor, v0.base):
        raise BasePointMismatch(f"vector based at {v0.base}, path {direction} end is {anchor}")

    # the vector at the path's first and last stored steps
    P_end = path.propagators[-1]
    if direction == FORWARD:
        first = np.asarray(v0.components, dtype=float)
        last = P_end @ first
    else:
        last = np.asarray(v0.components, dtype=float)
        first = np.linalg.solve(P_end, last)

    at_first, at_last = _invariants(path, 0, first), _invariants(path, -1, last)
    start, end = (at_first, at_last) if direction == FORWARD else (at_last, at_first)
    start_norm, start_dot, cond_n0, cond_d0 = start
    end_norm, end_dot, cond_n1, cond_d1 = end
    norm_drift = abs(end_norm - start_norm) / max(abs(start_norm), 1.0)
    dot_drift = abs(end_dot - start_dot) / max(abs(start_dot), 1.0)
    bound = max(1e-8, 100.0 * path.tol)
    # near the horizon both products cancel heavily; scale the bound by the
    # worst conditioning seen at either end (1 in mild regimes)
    norm_bound = bound * max(1.0, cond_n0, cond_n1)
    dot_bound = bound * max(1.0, cond_d0, cond_d1)
    if norm_drift > norm_bound or dot_drift > dot_bound:
        raise StepFailure(
            f"transport drift norm={norm_drift:.3e} tangent_dot={dot_drift:.3e} "
            f"exceeds ({norm_bound:.3e}, {dot_bound:.3e})"
        )

    dest = path.end_point() if direction == FORWARD else path.start_point()
    return TransportedVector(
        v=FourVector(last if direction == FORWARD else first, dest),
        norm_drift=float(norm_drift),
        tangent_dot_drift=float(dot_drift),
    )


def transport_R_to_L(
    geo_L: GeodesicPath, geo_R: GeodesicPath, v_R: FourVector
) -> TransportedVector:
    """Carry v_R from event R back to the shared origin O, then out to L.

    Both paths must start at the same emission event within 1e-9 in
    coordinates. The result is based at geo_L's endpoint.
    """
    if geo_L.spec != geo_R.spec:
        raise InvalidChart("paths integrated in different metrics")
    origin_gap = np.max(np.abs(geo_L.points[0] - geo_R.points[0]))
    if origin_gap > COMMON_ORIGIN_TOL:
        raise CommonOriginMismatch(
            f"emission events differ by {origin_gap:.3e} in coordinates"
        )
    back = parallel_transport(geo_R, v_R, BACKWARD)
    # rebase onto geo_L's origin object: same event within the tolerance above
    at_origin = FourVector(back.v.components, geo_L.start_point())
    forward = parallel_transport(geo_L, at_origin, FORWARD)
    return TransportedVector(
        v=forward.v,
        norm_drift=max(back.norm_drift, forward.norm_drift),
        tangent_dot_drift=max(back.tangent_dot_drift, forward.tangent_dot_drift),
    )

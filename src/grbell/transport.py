"""Parallel transport of vectors along stored geodesic paths.

Transport is linear, so each path carries one parallel propagator P,
which grbell.geodesics builds in closed form: the identity on a flat leg,
F(tau) F(0)^-1 for Marck's parallel frame F on a Schwarzschild leg.
Forward transport applies P at the last stored step, backward transport
solves with it, and the two-leg transfer R -> O -> L chains a backward leg
with a forward one: v_L = P_L solve(P_R, v_R).

The work is done on stacks of vectors, one per row: transport_stack
carries every setting of a sweep in one solve and one product, and checks
each row's norm and tangent-dot drift on its own, so a row that fails
its check fails alone. One vector is a stack of one row: a row's result
does not depend on how many rows travel with it.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CommonOriginMismatch, InvalidChart, NonFiniteVector, SimulatorError, StepFailure
from .geodesics import GeodesicPath
from .geometry import row_dot, row_matvec

FORWARD = "forward"
BACKWARD = "backward"

COMMON_ORIGIN_TOL = 1e-9


class TransportedStack(NamedTuple):
    """Rows of vectors arrived at the destination event, with per-row diagnostics.

    errors maps the index of each row that failed its checks to its error;
    the other rows are valid.
    """

    v: np.ndarray                  # (k, 4)
    norm_drift: np.ndarray         # (k,)
    tangent_dot_drift: np.ndarray  # (k,)
    errors: dict[int, SimulatorError]


def _invariants(path: GeodesicPath, i: int, V: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row v of V: (v.v, v.u) at stored step i and the sum-of-magnitudes conditioning of each.

    g is diagonal in both charts, so v g is v times g's diagonal.
    """
    u, d = path.tangents[i], np.diagonal(path.metrics[i])
    V_abs = np.abs(V)
    vg, vg_abs = V * d, V_abs * np.abs(d)
    return row_dot(vg, V), row_dot(vg, u), row_dot(vg_abs, V_abs), row_dot(vg_abs, np.abs(u))


def _carry(path: GeodesicPath, V: np.ndarray, direction: str) -> TransportedStack:
    """Levi-Civita transport of the rows of V along the whole path.

    Inner products with the tangent and the vector's own norm are
    conserved; each row's relative drift is checked against
    max(1e-8, 100 * tol), and a row that exceeds it or is not finite fails.
    """
    # the vectors at the path's first and last stored steps
    P_end = path.propagators[-1]
    if direction == FORWARD:
        first, last = V, row_matvec(P_end, V)
    else:
        last, first = V, np.linalg.solve(P_end, V[..., None])[..., 0]
    at_first, at_last = _invariants(path, 0, first), _invariants(path, -1, last)
    start, end = (at_first, at_last) if direction == FORWARD else (at_last, at_first)
    start_norm, start_dot, cond_n0, cond_d0 = start
    end_norm, end_dot, cond_n1, cond_d1 = end
    norm_scale = np.maximum(np.abs(start_norm), 1.0)
    norm_drift = np.abs(end_norm - start_norm) / norm_scale
    dot_drift = np.abs(end_dot - start_dot) / np.maximum(np.abs(start_dot), 1.0)
    bound = max(1e-8, 100.0 * path.tol)
    # near the horizon both products cancel heavily; scale the bound by the
    # worst conditioning seen at either end (1 in mild regimes), taken relative
    # to |v.v| for the norm, as its drift is: it then does not grow with |v|
    norm_bound = bound * np.maximum(1.0, np.maximum(cond_n0, cond_n1) / norm_scale)
    dot_bound = bound * np.maximum(np.maximum(1.0, cond_d0), cond_d1)

    moved = last if direction == FORWARD else first
    finite = np.all(np.isfinite(moved), axis=-1)
    # written so that a NaN drift fails
    ok = finite & (norm_drift <= norm_bound) & (dot_drift <= dot_bound)
    errors: dict[int, SimulatorError] = {}
    for j in np.flatnonzero(~ok).tolist():
        errors[j] = (
            StepFailure(
                f"transport drift norm={norm_drift[j]:.3e} tangent_dot={dot_drift[j]:.3e} "
                f"exceeds ({norm_bound[j]:.3e}, {dot_bound[j]:.3e})"
            )
            if finite[j]
            else NonFiniteVector(f"transported vector {moved[j].tolist()} is not finite")
        )
    return TransportedStack(moved, norm_drift, dot_drift, errors)


def transport_stack(geo_L: GeodesicPath, geo_R: GeodesicPath, V_R: np.ndarray) -> TransportedStack:
    """Carry the rows of V_R from event R back to the shared origin O, then out to L.

    Both paths must start at the same emission event within 1e-9 in
    coordinates; the rows are based at geo_R's endpoint on entry and at
    geo_L's on return. A row that fails on the way back keeps that error.
    """
    if geo_L.spec != geo_R.spec:
        raise InvalidChart("paths integrated in different metrics")
    origin_gap = np.max(np.abs(geo_L.points[0] - geo_R.points[0]))
    if origin_gap > COMMON_ORIGIN_TOL:
        raise CommonOriginMismatch(
            f"emission events differ by {origin_gap:.3e} in coordinates"
        )
    with np.errstate(all="ignore"):  # a non-finite row is reported as an error
        back = _carry(geo_R, V_R, BACKWARD)
        out = _carry(geo_L, back.v, FORWARD)
    return TransportedStack(
        v=out.v,
        norm_drift=np.maximum(back.norm_drift, out.norm_drift),
        tangent_dot_drift=np.maximum(back.tangent_dot_drift, out.tangent_dot_drift),
        errors={**out.errors, **back.errors},
    )

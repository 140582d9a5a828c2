"""Parallel transport of vectors along stored geodesic paths.

Transport is linear, so each path carries one parallel propagator P,
which grbell.geodesics builds in closed form: the identity on a flat leg,
F(tau) F(0)^-1 for Marck's parallel frame F on a Schwarzschild leg.
Forward transport applies P at the last stored step, backward transport
solves with it, and the two-leg transfer R -> O -> L chains a backward leg
with a forward one: v_L = P_L solve(P_R, v_R). A Schwarzschild path holds
its propagators, metrics and points in units of M, so the solve and
COMMON_ORIGIN_TOL see numbers that do not depend on M.

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
from .geodesics import GeodesicPath, _drift_bound
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


def _invariants(path: GeodesicPath, W: np.ndarray) -> np.ndarray:
    """(v.v, v.u) per row v of W[0] at the path's first stored step and of
    W[1] at its last, and the sum-of-magnitudes conditioning of each.

    Returns (2, 2, 2, k): [products, conditioning], then [v.v, v.u], then
    the two ends; the four products are one stacked row_dot.
    """
    # partners[s, q, e]: v (q = 0) or u (q = 1) at end e, as is (s = 0) or in magnitude
    partners = np.empty((2, 2, *W.shape))
    partners[0, 0] = W
    partners[0, 1, 0], partners[0, 1, 1] = path.tangents[0], path.tangents[-1]
    np.abs(partners[0], out=partners[1])
    d = np.empty((2, 2, 1, 4))
    d[0, 0, 0], d[0, 1, 0] = path.metrics[0], path.metrics[-1]
    np.abs(d[0], out=d[1])
    return row_dot((partners[:, 0] * d)[:, None], partners)


def _carry(path: GeodesicPath, V: np.ndarray, direction: str) -> TransportedStack:
    """Levi-Civita transport of the rows of V along the whole path.

    Inner products with the tangent and the vector's own norm are
    conserved; each row's relative drift is checked against the geodesic's
    drift bound, and a row that exceeds it or is not finite fails.
    """
    # the vectors at the path's first and last stored steps
    W = np.empty((2, *V.shape))
    P_end = path.propagators[-1]
    if direction == FORWARD:
        W[0] = V
        W[1] = row_matvec(P_end, V)
        start, end = 0, 1
    else:
        W[1] = V
        W[0] = np.linalg.solve(P_end, V[..., None])[..., 0]
        start, end = 1, 0
    products, conditioning = _invariants(path, W)
    # per row: the drift of v.v and of v.u, each relative to its start
    scale = np.maximum(np.abs(products[:, start]), 1.0)
    drift = np.abs(products[:, end] - products[:, start]) / scale
    # near the horizon both products cancel heavily; scale the bound by the
    # worst conditioning seen at either end (1 in mild regimes), taken relative
    # to |v.v| for the norm, as its drift is: it then does not grow with |v|
    worst = conditioning.max(axis=1)
    worst[0] /= scale[0]
    bounds = _drift_bound(path.tol) * np.maximum(1.0, worst)

    moved = W[end]
    finite = np.isfinite(moved).all(axis=-1)
    # written so that a NaN drift fails
    ok = finite & (drift <= bounds).all(axis=0)
    norm_drift, dot_drift = drift
    errors: dict[int, SimulatorError] = {}
    for j in np.flatnonzero(~ok).tolist():
        errors[j] = (
            StepFailure(
                f"transport drift norm={norm_drift[j]:.3e} tangent_dot={dot_drift[j]:.3e} "
                f"exceeds ({bounds[0, j]:.3e}, {bounds[1, j]:.3e})"
            )
            if finite[j]
            else NonFiniteVector(f"transported vector {moved[j].tolist()} is not finite")
        )
    return TransportedStack(moved, norm_drift, dot_drift, errors)


def transport_stack(geo_L: GeodesicPath, geo_R: GeodesicPath, V_R: np.ndarray) -> TransportedStack:
    """Carry the rows of V_R from event R back to the shared origin O, then out to L.

    Both paths must be integrated in the same metric and start at the same
    emission event within 1e-9 in their stored coordinates; the rows are
    based at geo_R's endpoint on entry and at geo_L's on return. A row that
    fails on the way back keeps that error.
    """
    if geo_L.spec != geo_R.spec:
        raise InvalidChart("paths integrated in different metrics")
    origin_gap = np.abs(geo_L.points[0] - geo_R.points[0]).max()
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

"""Parallel transport of vectors along stored geodesic paths.

Transport is linear, so each path carries one parallel propagator P,
which grbell.geodesics builds in closed form: the identity on a flat leg,
F(tau) F(0)^-1 for Marck's parallel frame F on a Schwarzschild leg. The
transfer R -> O -> L takes the right leg backward, by one solve with its
P at the last stored step, and the left leg forward, by one product with
its own: v_L = P_L solve(P_R, v_R). A Schwarzschild path holds its
propagators, metrics and points in units of M, so the solve and
COMMON_ORIGIN_TOL see numbers that do not depend on M.

The work is done on stacks of vectors, one per row: transport_stack
carries every setting of a sweep in one solve and one product, and checks
each row's norm and tangent-dot drift along both legs at once, on its
own, so a row that fails its check fails alone. One vector is a stack of
one row: a row's result does not depend on how many rows travel with it.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CommonOriginMismatch, InvalidChart, NonFiniteVector, SimulatorError, StepFailure
from .geodesics import GeodesicPath, _drift_bound
from .geometry import row_dot, row_matvec

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


def _invariants(u: np.ndarray, d: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(v.v, v.u) per row v of W[i, e], against the tangent u[i, e] and the
    metric diagonal d[i, e] of leg i at its end e, and the
    sum-of-magnitudes conditioning of each.

    Returns (2, 2, 2, 2, k): [products, conditioning], then [v.v, v.u],
    then the leg and its end; the eight products are one stacked row_dot.
    """
    # partners[s, q]: v (q = 0) or u (q = 1), as is (s = 0) or in magnitude
    partners = np.empty((2, 2, *W.shape))
    partners[0, 0] = W
    partners[0, 1] = u[:, :, None]
    np.abs(partners[0], out=partners[1])
    g = np.empty((2, *d.shape))
    g[0] = d
    np.abs(d, out=g[1])
    return row_dot((partners[:, 0] * g[..., None, :])[:, None], partners)


def transport_stack(geo_L: GeodesicPath, geo_R: GeodesicPath, V_R: np.ndarray) -> TransportedStack:
    """Carry the rows of V_R from event R back to the shared origin O, then out to L.

    Both paths must be integrated in the same metric and start at the same
    emission event within 1e-9 in their stored coordinates; the rows are
    based at geo_R's endpoint on entry and at geo_L's on return. Inner
    products with the tangent and the vector's own norm are conserved along
    each leg; each row's relative drift on a leg is checked against that
    leg's drift bound, and a row that exceeds it or is not finite where it
    leaves the leg fails. A row that fails on the way back keeps that error.
    """
    if geo_L.spec != geo_R.spec:
        raise InvalidChart("paths integrated in different metrics")
    origin_gap = np.maximum.reduce(np.abs(geo_L.points[0] - geo_R.points[0]))
    if not origin_gap <= COMMON_ORIGIN_TOL:  # written so that a NaN gap fails
        raise CommonOriginMismatch(
            f"emission events differ by {origin_gap:.3e} in coordinates"
        )
    # W[i, e]: the rows where leg i (R, then L) is entered (e = 0) and left
    W = np.empty((2, 2, *V_R.shape))
    W[0, 0] = V_R
    u = np.array([geo_R.tangents[[-1, 0]], geo_L.tangents[[0, -1]]])
    d = np.array([geo_R.metrics[[-1, 0]], geo_L.metrics[[0, -1]]])
    with np.errstate(all="ignore"):  # a non-finite row is reported as an error
        W[0, 1] = W[1, 0] = np.linalg.solve(geo_R.propagators[-1], V_R[..., None])[..., 0]
        W[1, 1] = row_matvec(geo_L.propagators[-1], W[1, 0])
        products, conditioning = _invariants(u, d, W)
        # per leg and row: the drift of v.v and of v.u, each relative to where it is entered
        scale = np.maximum(np.abs(products[:, :, 0]), 1.0)
        drift = np.abs(products[:, :, 1] - products[:, :, 0]) / scale
        # near the horizon both products cancel heavily; scale the bound by the
        # worst conditioning seen at either end (1 in mild regimes), taken relative
        # to |v.v| for the norm, as its drift is: it then does not grow with |v|
        worst = np.maximum.reduce(conditioning, axis=2)
        worst[0] /= scale[0]
        bounds = np.array([[_drift_bound(geo_R.tol)], [_drift_bound(geo_L.tol)]]) * np.maximum(1.0, worst)
        finite = np.logical_and.reduce(np.isfinite(W[:, 1]), axis=-1)
        # written so that a NaN drift fails
        ok = finite & np.logical_and.reduce(drift <= bounds, axis=0)
    errors: dict[int, SimulatorError] = {}
    for j in (~np.logical_and.reduce(ok, axis=0)).nonzero()[0].tolist():
        i = int(ok[0, j])  # the first leg the row failed on
        errors[j] = (
            StepFailure(
                f"transport drift norm={drift[0, i, j]:.3e} tangent_dot={drift[1, i, j]:.3e} "
                f"exceeds ({bounds[0, i, j]:.3e}, {bounds[1, i, j]:.3e})"
            )
            if finite[i, j]
            else NonFiniteVector(f"transported vector {W[i, 1, j].tolist()} is not finite")
        )
    norm_drift, dot_drift = np.maximum.reduce(drift, axis=1)
    return TransportedStack(W[1, 1], norm_drift, dot_drift, errors)

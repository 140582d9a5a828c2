"""Reference code that the tests compare the package against.

The package needs no Christoffel symbols: the geodesic right-hand side
writes its connection terms out by hand, and transport uses a closed-form
propagator. christoffel_components is the closed-form table both are
checked against, and finite_difference_christoffel rebuilds that table
from the metric. column_list_frames, row_vecmat_invariants and the
earlier_* functions are the earlier forms of the package's kernels, kept so
that tests can pin the faster forms to their bits, and metric_matrices
rebuilds the full metric matrices they contract from the stored diagonals.
The adapters below give the stack kernels a one-row call shape, on the
package's public one-row objects, that several tests share, and csv_cells
reads a CSV line back as its named cells.
"""
import math

import numpy as np

from grbell import geodesics
from grbell.correlations import _ordered, _weighted_differences, bell_stack, violation_stack
from grbell.errors import NonFiniteVector, StepFailure
from grbell.frames import ProjectionStack
from grbell.geodesics import SCHWARZSCHILD, TIMELIKE, _drift_bound
from grbell.geometry import ETA, MINKOWSKI, MetricSpec, metric_components, metric_stack, row_dot, row_matvec
from grbell.scenario import CSV_COLUMNS


def christoffel_components(spec, coords):
    """Gamma^mu_{alpha beta} as a plain (4, 4, 4) array (closed forms)."""
    metric_components(spec, coords)  # the chart's domain check
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


def finite_difference_christoffel(spec, coords, step=1e-6):
    """Gamma rebuilt from centered differences of the metric.

    Validator for the closed forms: Gamma^mu_{ab} =
    (1/2) g^{mu nu} (d_a g_{nb} + d_b g_{na} - d_nu g_{ab}).
    """
    dg = np.zeros((4, 4, 4))  # dg[lam, mu, nu] = d_lam g_{mu nu}
    for lam in range(4):
        h = step * max(1.0, abs(coords[lam]))
        plus = coords.copy()
        minus = coords.copy()
        plus[lam] += h
        minus[lam] -= h
        dg[lam] = np.diag(metric_components(spec, plus) - metric_components(spec, minus)) / (2 * h)
    g_inv = np.linalg.inv(np.diag(metric_components(spec, coords)))
    # bracket[a, b, nu] = d_a g_{nu b} + d_b g_{nu a} - d_nu g_{ab}
    bracket = dg.transpose(0, 2, 1) + dg.transpose(2, 0, 1) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("mn,abn->mab", g_inv, bracket)


def column_list_frames(spec, kind, points, tangents, psi):
    """Marck's parallel frame assembled from 16 column arrays, with f from the mass."""
    r, theta = points[:, 1], points[:, 2]
    sqrt_f = np.sqrt(1.0 - 2.0 * spec.mass / r)
    r_sin = r * np.sin(theta)
    U1, U2, U3 = tangents[:, 1] / sqrt_f, r * tangents[:, 2], r_sin * tangents[:, 3]
    lam = np.hypot(U2, U3)
    zero = np.zeros_like(r)
    if lam[0] == 0.0:
        n2, n3 = np.ones_like(r), zero
    else:
        n2, n3 = U2 / lam, U3 / lam
    normal = (zero, zero, n3, -n2)
    eps = 1.0 if kind == TIMELIKE else 0.0
    D, root_D = eps + lam * lam, np.hypot(eps, lam)
    U0 = np.hypot(U1, root_D)
    u = (U0, U1, U2, U3)
    if kind == TIMELIKE:
        a = [c / root_D for c in (U1, U0, zero, zero)]
        b = [c / root_D for c in (lam * U0, lam * U1, D * n2, D * n3)]
        cos_psi, sin_psi = np.cos(psi), np.sin(psi)
        columns = (
            u,
            [ca * cos_psi + cb * sin_psi for ca, cb in zip(a, b)],
            [cb * cos_psi - ca * sin_psi for ca, cb in zip(a, b)],
            normal,
        )
    else:
        m0 = [c / U0 for c in (zero, lam, -U1 * n2, -U1 * n3)]
        n0 = [c / (2.0 * U0 * U0) for c in (U0, -U1, -lam * n2, -lam * n3)]
        columns = (
            u,
            [cn + psi * cm + 0.5 * psi * psi * ck for cn, cm, ck in zip(n0, m0, u)],
            [cm + psi * ck for cm, ck in zip(m0, u)],
            normal,
        )
    legs = np.stack([1.0 / sqrt_f, sqrt_f, 1.0 / r, 1.0 / r_sin], axis=1)
    return legs[:, :, None] * np.stack([np.stack(col, axis=1) for col in columns], axis=2)


def metric_matrices(g):
    """The full (..., 4, 4) metric matrices of the stored (..., 4) diagonals g."""
    full = np.zeros((*g.shape, 4))
    full[..., range(4), range(4)] = g
    return full


def row_vecmat(V, M):
    """v @ M for each row v of V, as a stacked matmul."""
    return np.matmul(V[..., None, :], M)[..., 0, :]


def row_vecmat_invariants(path, W):
    """transport's (v.v, v.u) and their conditioning at both ends, with v g
    as a full vector-matrix product."""
    u, g = path.tangents[[0, -1], None], metric_matrices(path.metrics[[0, -1], None])
    W_abs = np.abs(W)
    vg, vg_abs = row_vecmat(W, g), row_vecmat(W_abs, np.abs(g))
    return np.array([
        [row_dot(vg, W), row_dot(vg, u)], [row_dot(vg_abs, W_abs), row_dot(vg_abs, np.abs(u))]
    ])


def earlier_conservation_drift(chart, kind, points, tangents, d):
    """_conservation_drift with E and L_z as separate arrays and E's floor
    max(|E0|, 1e-12), which no leg with E >= 1e-12 reaches."""
    uu = np.einsum("na,na,na->n", d, tangents, tangents)
    n0 = -1.0 if kind == TIMELIKE else 0.0
    drift = {"norm": float(np.max(np.abs(uu - n0)))}
    if chart.kind == SCHWARZSCHILD:
        r, theta = points[:, 1], points[:, 2]
        E = -d[:, 0] * tangents[:, 0]
        Lz = r**2 * np.sin(theta) ** 2 * tangents[:, 3]
        drift["energy"] = float(np.max(np.abs(E - E[0])) / max(abs(E[0]), 1e-12))
        drift["angular_momentum"] = float(
            np.max(np.abs(Lz - Lz[0])) / max(abs(Lz[0]), chart.mass)
        )
    return drift


def earlier_metric_check(d, propagators, sizes=None):
    """check_metric_preserved with its own |d| and np.max reductions, and
    g(x0) as a full matrix."""
    residual = float(np.max(np.abs(
        np.einsum("nab,na,nad->nbd", propagators, d, propagators) - metric_matrices(d[0])
    )))
    P_abs = np.abs(propagators)
    sizes = P_abs if sizes is None else sizes
    conditioning = float(np.max(np.einsum("nab,na,nad->nbd", P_abs, np.abs(d), sizes)))
    bound = geodesics.METRIC_SLACK * max(1.0, conditioning)
    if not residual <= bound:
        raise StepFailure(f"propagator metric residual {residual:.3e} exceeds {bound:.3e}")
    return residual


def earlier_leg_arrays(kind, taus, states, t0, ph0):
    """A Schwarzschild leg's arrays from the stepper's lists, built with
    np.array and the 16-column frames: (taus, points, integrated tangents,
    propagators, sizes, metrics, stored tangents)."""
    states = np.array(states)
    states[:, 0] += t0
    states[:, 3] += ph0
    points = np.ascontiguousarray(states[:, :4])
    unit_mass = MetricSpec(SCHWARZSCHILD, 1.0)
    frames = column_list_frames(unit_mass, kind, points, states[:, 4:8], states[:, 8])
    inverse = np.linalg.inv(frames[0])
    propagators = frames @ inverse
    propagators[0] = np.eye(4)
    return (
        np.array(taus), points, states[:, 4:8], propagators, np.abs(frames) @ np.abs(inverse),
        metric_stack(unit_mass, points), np.ascontiguousarray(frames[:, :, 0]),
    )


def earlier_carry(path, V, direction):
    """transport._carry with the invariants of each end computed apart:
    (v, norm_drift, tangent_dot_drift, errors)."""
    def invariants(i, V):
        u, d = path.tangents[i], path.metrics[i]
        V_abs = np.abs(V)
        vg, vg_abs = V * d, V_abs * np.abs(d)
        return row_dot(vg, V), row_dot(vg, u), row_dot(vg_abs, V_abs), row_dot(vg_abs, np.abs(u))

    P_end = path.propagators[-1]
    if direction == "forward":
        first, last = V, row_matvec(P_end, V)
    else:
        last, first = V, np.linalg.solve(P_end, V[..., None])[..., 0]
    at_first, at_last = invariants(0, first), invariants(-1, last)
    start, end = (at_first, at_last) if direction == "forward" else (at_last, at_first)
    start_norm, start_dot, cond_n0, cond_d0 = start
    end_norm, end_dot, cond_n1, cond_d1 = end
    norm_scale = np.maximum(np.abs(start_norm), 1.0)
    norm_drift = np.abs(end_norm - start_norm) / norm_scale
    dot_drift = np.abs(end_dot - start_dot) / np.maximum(np.abs(start_dot), 1.0)
    bound = _drift_bound(path.tol)
    norm_bound = bound * np.maximum(1.0, np.maximum(cond_n0, cond_n1) / norm_scale)
    dot_bound = bound * np.maximum(np.maximum(1.0, cond_d0), cond_d1)
    moved = last if direction == "forward" else first
    finite = np.all(np.isfinite(moved), axis=-1)
    ok = finite & (norm_drift <= norm_bound) & (dot_drift <= dot_bound)
    errors = {}
    for j in np.flatnonzero(~ok).tolist():
        errors[j] = (
            StepFailure(
                f"transport drift norm={norm_drift[j]:.3e} tangent_dot={dot_drift[j]:.3e} "
                f"exceeds ({norm_bound[j]:.3e}, {dot_bound[j]:.3e})"
            )
            if finite[j]
            else NonFiniteVector(f"transported vector {moved[j].tolist()} is not finite")
        )
    return moved, norm_drift, dot_drift, errors


def checked(stack):
    """A one-row transport or projection stack; raises its row's error if it failed."""
    if stack.errors:
        raise stack.errors[0]
    return stack


def tetrad_components(E, g, v):
    """Components v^a with v = v^a e_a, via eta^{ab} g(e_b, v), for the tetrad
    E (legs as rows) at an event where the metric is g."""
    return ETA * (E * g @ v)


def weighted_difference(proj_b, proj_c):
    """d = w_b^2 b - w_c^2 c of one pair of arms, in the bound's order."""
    arms = _ordered(ProjectionStack.of([proj_b]), ProjectionStack.of([proj_c]))
    return _weighted_differences(arms[0], arms[1])[0][0]


def quantum_correlation(a, proj_b):
    """P(a, b) = -(a . b) w^2 of one setting a and one arm, from bell_stack."""
    arm = ProjectionStack.of([proj_b])
    return float(bell_stack(a.d[None], arm, arm).p_ab[0])


def generalized_bell_check(triple, proj_b, proj_c):
    """bell_stack's report of one triple's setting a and one pair of arms."""
    arm_b, arm_c = ProjectionStack.of([proj_b]), ProjectionStack.of([proj_c])
    return bell_stack(triple.a.d[None], arm_b, arm_c).report(0)


def violation_angles(triple, proj_b, proj_c):
    """violation_stack's row of one triple's setting a and one pair of arms."""
    arm_b, arm_c = ProjectionStack.of([proj_b]), ProjectionStack.of([proj_c])
    stack = violation_stack(triple.a.d[None], arm_b, arm_c)
    return type(stack)(*(field[0] for field in stack))


def csv_cells(line):
    """A CSV line as a dict from column name to cell. Only the id may hold a
    comma, so the line is split from the right."""
    return dict(zip(CSV_COLUMNS, line.rsplit(",", len(CSV_COLUMNS) - 1)))

"""Reference code that the tests compare the package against.

The package needs no Christoffel symbols: the geodesic right-hand side
writes its connection terms out by hand, and transport uses a closed-form
propagator. christoffel_components is the closed-form table both are
checked against, and finite_difference_christoffel rebuilds that table
from the metric. column_list_frames and row_vecmat_invariants are the
earlier forms of two kernels, kept so that tests can pin the package's
faster forms to their bits. The adapters below give the stack kernels a
one-row call shape, on the package's public one-row objects, that several
tests share.
"""
import math

import numpy as np

from grbell.correlations import _ordered, _weighted_differences, bell_stack, violation_stack
from grbell.frames import ProjectionStack
from grbell.geodesics import TIMELIKE
from grbell.geometry import ETA, MINKOWSKI, metric_components, row_dot


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
        dg[lam] = (metric_components(spec, plus) - metric_components(spec, minus)) / (2 * h)
    g_inv = np.linalg.inv(metric_components(spec, coords))
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


def row_vecmat(V, M):
    """v @ M for each row v of V, as a stacked matmul."""
    return np.matmul(V[..., None, :], M)[..., 0, :]


def row_vecmat_invariants(path, i, V):
    """transport's (v.v, v.u) and their conditioning, with v g as a full vector-matrix product."""
    u, g = path.tangents[i], path.metrics[i]
    V_abs = np.abs(V)
    vg, vg_abs = row_vecmat(V, g), row_vecmat(V_abs, np.abs(g))
    return row_dot(vg, V), row_dot(vg, u), row_dot(vg_abs, V_abs), row_dot(vg_abs, np.abs(u))


def checked(stack):
    """A one-row transport or projection stack; raises its row's error if it failed."""
    if stack.errors:
        raise stack.errors[0]
    return stack


def tetrad_components(E, g, v):
    """Components v^a with v = v^a e_a, via eta^{ab} g(e_b, v), for the tetrad
    E (legs as rows) at an event where the metric is g."""
    return np.diag(ETA) * (E @ g @ v)


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

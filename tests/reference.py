"""Reference code that the tests compare the package against.

The package needs no Christoffel symbols: the geodesic right-hand side
writes its connection terms out by hand, and transport uses a closed-form
propagator. christoffel_components is the closed-form table both are
checked against, and finite_difference_christoffel rebuilds that table
from the metric. The adapters below give the stack kernels a one-row call
shape, on the package's public one-row objects, that several tests share.
"""
import math

import numpy as np

from grbell.correlations import _ordered, _weighted_differences, bell_stack, violation_stack
from grbell.frames import ProjectionStack
from grbell.geometry import ETA, MINKOWSKI, metric_components


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

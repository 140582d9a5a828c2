"""Reference code that the tests compare the package against.

The package needs no Christoffel symbols: the geodesic right-hand side
is the radial equation of a leg in its orbital plane, and transport uses a
closed-form propagator. christoffel_components is the closed-form table
both are checked against, and finite_difference_christoffel rebuilds that
table from the metric. column_list_frames, row_vecmat_invariants and the
earlier_* functions are the earlier forms of the package's kernels and of
its JSON report, kept so that tests can pin the newer forms to their bits
(earlier_schwarzschild_rhs, the nine-component right-hand side general
legs were stepped on, is also the independent reference of the stepper's
error), and metric_matrices rebuilds the full metric matrices they
contract from the stored diagonals.
The adapters below give the stack kernels a one-row call shape, on the
package's public one-row objects, that several tests share; start_leg
cuts the one-row identity leg that lets transport_stack carry vectors
along one path; and csv_cells reads a CSV line back as its named cells.
"""
import dataclasses
import math
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from grbell import geodesics
from grbell.correlations import _ordered, _weighted_differences, bell_stack, violation_stack
from grbell.errors import HorizonDomain, NonFiniteVector, StepFailure
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


def row_vecmat_invariants(u, d, W):
    """transport's (v.v, v.u) and their conditioning at both ends of both
    legs, with v g as a full vector-matrix product."""
    u, g = u[:, :, None], metric_matrices(d[:, :, None])
    W_abs = np.abs(W)
    vg, vg_abs = row_vecmat(W, g), row_vecmat(W_abs, np.abs(g))
    return np.array([
        [row_dot(vg, W), row_dot(vg, u)], [row_dot(vg_abs, W_abs), row_dot(vg_abs, np.abs(u))]
    ])


def earlier_conservation_drift(chart, kind, points, tangents, d):
    """_conservation_drift with E and L_z as separate arrays and E's floor
    max(|E0|, 1e-12), which no leg with E >= 1e-12 reaches; L_z's floor is
    M on a timelike leg and E0 M on a null one."""
    uu = np.einsum("na,na,na->n", d, tangents, tangents)
    n0 = -1.0 if kind == TIMELIKE else 0.0
    drift = {"norm": float(np.max(np.abs(uu - n0)))}
    if chart.kind == SCHWARZSCHILD:
        r, theta = points[:, 1], points[:, 2]
        E = -d[:, 0] * tangents[:, 0]
        Lz = r**2 * np.sin(theta) ** 2 * tangents[:, 3]
        drift["energy"] = float(np.max(np.abs(E - E[0])) / max(abs(E[0]), 1e-12))
        floor = chart.mass if kind == TIMELIKE else E[0] * chart.mass
        drift["angular_momentum"] = float(np.max(np.abs(Lz - Lz[0])) / max(abs(Lz[0]), floor))
    return drift


def earlier_metric_check(d, propagators, sizes=None):
    """The leg stack's metric check on one leg, with its own |d| and np.max
    reductions, and g(x0) as a full matrix."""
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


def earlier_leg_arrays(kind, taus, states, x0, u0):
    """A Schwarzschild leg's arrays from the stepper's lists, built with
    np.array and the 16-column frames: (taus, points, integrated tangents,
    propagators, sizes, metrics, stored tangents). states are rows (x, u,
    psi) of a closed-form leg, or the plane states (t, r, chi, psi, u^r) of
    a leg stepped from x0 with tangent u0, each later one turned back into
    (x, u, psi) by earlier_plane_row."""
    if len(states[0]) == 5:
        t0, r0, th0, ph0 = x0.tolist()
        rows, phi = [[0.0 + t0, r0, th0, 0.0 + ph0, *u0.tolist(), 0.0]], 0.0
        for state in states[1:]:
            row, phi = earlier_plane_row(x0.tolist(), u0.tolist(), state, phi)
            rows.append(row)
        states = rows
    states = np.array(states)
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


def earlier_plane_row(x0, u0, state, phi_before):
    """The row (x, u, psi) of a plane state (t, r, chi, psi, u^r) of the leg
    from x0 with tangent u0 (lists) at unit mass, and its phi less phi0:
    the leg is at r n and moves along m in the plane of x0 and u0, with
    n = cos chi e1 + sin chi e2 and m = dn/dchi in Cartesian axes where x0
    lies at phi = 0, and phi is taken within pi of phi_before."""
    t0, r0, th0, ph0 = x0
    ut0, _, uth0, uph0 = u0
    t, r, chi, psi, ur = state
    sin0, cos0 = math.sin(th0), math.cos(th0)
    energy = (1.0 - 2.0 / r0) * ut0
    L = r0 * math.hypot(r0 * uth0, r0 * sin0 * uph0)
    w = math.hypot(uth0, sin0 * uph0)
    e1 = [sin0, 0.0, cos0]
    e2 = [cos0 * uth0 / w, sin0 * uph0 / w, -sin0 * uth0 / w]
    c, s = math.cos(chi), math.sin(chi)
    n = [c * e1[i] + s * e2[i] for i in range(3)]
    m = [c * e2[i] - s * e1[i] for i in range(3)]
    rho = math.hypot(n[0], n[1])
    phi = math.atan2(n[1], n[0])
    phi += 2.0 * math.pi * round((phi_before - phi) / (2.0 * math.pi))
    u_theta = L / (r * r) * (n[2] * (n[0] * m[0] + n[1] * m[1]) / rho - rho * m[2])
    u_phi = L / (r * r) * (n[0] * m[1] - n[1] * m[0]) / (rho * rho)
    return [t + t0, r, math.atan2(rho, n[2]), phi + ph0, energy / (1.0 - 2.0 / r), ur, u_theta, u_phi, psi], phi


def earlier_end_phi(x0, u0, states):
    """The end's phi of a leg stepped from x0 with tangent u0 (lists) at
    unit mass through the plane states (t, r, chi, psi, u^r) after its
    start, as the stepper's rows kept it continuous before only the end was
    converted: each state's phi within pi of the one before, from phi0."""
    phi = 0.0
    for state in states:
        row, phi = earlier_plane_row(x0, u0, state, phi)
    return row[3]


def earlier_schwarzschild_rhs(kind, energy, ang_mom):
    """d(x, u, psi)/dtau on the exterior chart of unit mass from (r, theta,
    u^t, u^r, u^theta, u^phi): the nine-component right-hand side the
    stepper ran general legs on before they were stepped in their orbital
    plane, with the geodesic term written out over the nine nonzero
    Christoffel symbols of christoffel_components, and a cot theta term."""
    timelike = kind == TIMELIKE
    L2 = ang_mom * ang_mom
    psi_scale = -energy * ang_mom if timelike else -ang_mom / energy

    def rhs(y):
        r, th, ut, ur, uth, uph = y
        if r <= 2.0:
            raise HorizonDomain(f"r = {r} M inside radius 2 M")
        f = 1.0 - 2.0 / r
        s, c = math.sin(th), math.cos(th)
        g_tr = 1.0 / (r * r * f)
        g_tt = f / (r * r)
        rf = r * f
        inv_r = 1.0 / r
        cot = c / s
        uph2 = uph * uph
        return (
            ut, ur, uth, uph,
            -2.0 * g_tr * ut * ur,
            -g_tt * ut * ut + g_tr * ur * ur + rf * uth * uth + rf * s * s * uph2,
            -2.0 * inv_r * ur * uth + s * c * uph2,
            -2.0 * inv_r * ur * uph - 2.0 * cot * uth * uph,
            psi_scale / (r * r + L2) if timelike else psi_scale / (r * r * r),
        )

    return rhs


# the Dormand-Prince 5(4) tableau as earlier_dopri writes it, a copy kept
# apart from the package's _A, _B and _E
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40
)


def hnw_first_step(rhs, y0, tau_end, tol, reads=None, moves=None):
    """The first step geodesics._dopri took before each leg gave it one, and
    scipy's RK45 takes: the starting estimate of Hairer, Norsett and Wanner,
    Solving ODEs I, sec. II.4, capped at tau_end, on earlier_dopri's reads
    and moves. It evaluates rhs twice, at y0 and one step of Euler on."""
    rtol, atol = tol, tol * 1e-3
    root_n = math.sqrt(len(y0))
    every = range(len(y0))
    reads = every if reads is None else reads
    moves = every if moves is None else moves
    at = [moves.index(i) for i in reads]
    take = itemgetter(*at) if len(at) > 1 else lambda v, i=at[0]: (v[i],)

    def rms(values, scale):
        return math.hypot(*[v / s for v, s in zip(values, scale)]) / root_n

    y_read = take([y0[i] for i in moves])
    f = rhs(y_read)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = rms(y0, scale)
    scale = [scale[i] for i in moves]
    d1 = rms(f, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, tau_end)
    f1 = rhs([v + h0 * dv for v, dv in zip(y_read, take(f))])
    d2 = rms([b - a for a, b in zip(f, f1)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, tau_end)


class SteppedRun(NamedTuple):
    """A stepper run as its list of states: taus and states from tau = 0,
    y0 first, the event that ended it and its counters; tau and state are
    where it ended, as geodesics._Run holds them."""

    taus: list
    states: list
    event: int | None
    nfev: int
    accepted: int
    rejected: int

    @property
    def tau(self):
        return self.taus[-1]

    @property
    def state(self):
        return self.states[-1]


# the stepper itself, which recorded_dopri runs whatever a test patches in its place
_dopri = geodesics._dopri


def recorded_dopri(rhs, y0, h0, tau_end, tol, events, what, reads=None, each=None):
    """geodesics._dopri on these arguments with a recorder as its per-step
    function, as a SteppedRun: y0 at tau 0, then each state the run hands
    the recorder, which passes it on to each where that is given. The
    run's own end is the recorder's last state, bit for bit."""
    taus, states = [0.0], [y0]

    def record(tau, state):
        taus.append(tau)
        states.append(state)
        if each is not None:
            each(tau, state)

    run = _dopri(rhs, y0, h0, tau_end, tol, events, what, reads, record)
    assert float(run.tau).hex() == float(taus[-1]).hex()
    assert [float(v).hex() for v in run.state] == [float(v).hex() for v in states[-1]]
    return SteppedRun(taus, states, run.event, run.nfev, run.accepted, run.rejected)


def earlier_dopri(rhs, y0, h0, tau_end, tol, events, what, reads=None, moves=None):
    """geodesics._dopri with its trial step written as list comprehensions
    over zip, each stage's read components taken with an itemgetter, the
    running |y| carried from step to step, and every state kept in a list,
    as a SteppedRun. With h0 None it starts, as the stepper did before its
    first step was an argument, at hnw_first_step, whose second evaluation
    nfev counts too."""
    rtol, atol = tol, tol * 1e-3
    root_n = math.sqrt(len(y0))
    hypot, isfinite = math.hypot, math.isfinite
    every = range(len(y0))
    reads = every if reads is None else reads
    moves = every if moves is None else moves
    # the read components of a list over moves, as a tuple
    at = [moves.index(i) for i in reads]
    take = itemgetter(*at) if len(at) > 1 else lambda v, i=at[0]: (v[i],)
    y = [y0[i] for i in moves]
    y_read = take(y)
    f = rhs(y_read)
    if h0 is None:
        h_abs, nfev = hnw_first_step(rhs, y0, tau_end, tol, reads, moves), 2
    else:
        h_abs, nfev = h0, 1
    accepted, rejected = 0, 0

    def finished(event):
        if len(moves) < len(y0):
            # each later state over all of y0: its moved components, and y0 + 0.0 for the rest
            after = [v + 0.0 for v in y0]
            whole = itemgetter(*[moves.index(i) if i in moves else len(moves) + i for i in every])
            states[1:] = [whole(v + after) for v in states[1:]]
            states[0] = y0
        return SteppedRun(taus, states, event, nfev, accepted, rejected)

    t = 0.0
    y_abs = [abs(v) for v in y]
    taus, states = [t], [y]
    events = [(moves.index(c), target, direction) for c, target, direction in events]
    g = [y[c] - target for c, target, _ in events]
    while t < tau_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        k1, a1 = f, take(f)
        while True:
            if h_abs < min_step:
                raise StepFailure(f"step size underflow at tau = {t}")
            t_new = min(t + h_abs, tau_end)
            h = t_new - t
            h_abs = h
            nfev += 6
            try:
                k2 = rhs([v + h * (_A21 * a) for v, a in zip(y_read, a1)])
                a2 = take(k2)
                k3 = rhs([v + h * (_A31 * a + _A32 * b) for v, a, b in zip(y_read, a1, a2)])
                a3 = take(k3)
                k4 = rhs([v + h * (_A41 * a + _A42 * b + _A43 * c)
                          for v, a, b, c in zip(y_read, a1, a2, a3)])
                a4 = take(k4)
                k5 = rhs([v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                          for v, a, b, c, d in zip(y_read, a1, a2, a3, a4)])
                a5 = take(k5)
                k6 = rhs([v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                          for v, a, b, c, d, e in zip(y_read, a1, a2, a3, a4, a5)])
                y_new = [v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * p)
                         for v, a, c, d, e, p in zip(y, k1, k3, k4, k5, k6)]
                y_new_read = take(y_new)
                k7 = rhs(y_new_read)
            except HorizonDomain:
                # a trial stage left the chart: the step is too long
                h_abs *= geodesics._MIN_FACTOR
                step_rejected = True
                rejected += 1
                continue
            y_new_abs = [abs(w) for w in y_new]
            error = hypot(*[
                h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * p + _E7 * q)
                / (atol + (w if w > v else v) * rtol)
                for a, c, d, e, p, q, v, w in zip(k1, k3, k4, k5, k6, k7, y_abs, y_new_abs)
            ]) / root_n
            if not isfinite(error):
                raise StepFailure(f"non-finite state after tau = {t}")
            if error < 1.0:
                factor = geodesics._MAX_FACTOR if error == 0.0 else min(
                    geodesics._MAX_FACTOR, geodesics._SAFETY * error ** -0.2
                )
                h_abs *= min(1.0, factor) if step_rejected else factor
                break
            h_abs *= max(geodesics._MIN_FACTOR, geodesics._SAFETY * error ** -0.2)
            step_rejected = True
            rejected += 1
        accepted += 1
        if accepted > geodesics.MAX_STEPS:
            raise StepFailure(f"{what} not reached within {geodesics.MAX_STEPS} steps")

        g_new = [y_new[c] - target for c, target, _ in events]
        crossed = [
            j for j, (_, _, direction) in enumerate(events)
            if (direction >= 0 and g[j] <= 0.0 <= g_new[j])
            or (direction <= 0 and g[j] >= 0.0 >= g_new[j])
        ]
        if crossed:
            stages = (k1, k2, k3, k4, k5, k6, k7)
            # dense output y(t + x h) = y + h sum_j Q[i][j] x^(j+1)
            Q = [[sum(K[i] * row[j] for K, row in zip(stages, geodesics._DENSE)) for j in range(4)]
                 for i in range(len(y))]

            def dense(i, x):
                q = Q[i]
                return y[i] + h * x * (q[0] + x * (q[1] + x * (q[2] + x * q[3])))

            roots = [(geodesics._bracket_root(lambda x, c=events[j][0], target=events[j][1]:
                                    dense(c, x) - target), j) for j in crossed]
            x, event = min(roots)
            tau = t + x * h
            taus.append(tau)
            states.append([dense(i, x) for i in range(len(y))])
            return finished(event)

        t, y, y_read, y_abs, f, g = t_new, y_new, y_new_read, y_new_abs, k7, g_new
        taus.append(t)
        states.append(y)
    return finished(None)


def earlier_radial_rhs(y):
    """d(t, r, u^t, u^r)/dtau of a radial leg, u^theta = u^phi = 0, from
    (r, u^t, u^r), at unit mass: the right-hand side the stepper ran radial
    legs on before they were closed-form. Its angular term of du^r/dtau is
    r f * 0.0, as the whole right-hand side's is on a radial leg."""
    r, ut, ur = y
    if r <= 2.0:
        raise HorizonDomain(f"r = {r} M inside radius 2 M")
    f = 1.0 - 2.0 / r
    g_tr = 1.0 / (r * r * f)
    g_tt = f / (r * r)
    return ut, ur, -2.0 * g_tr * ut * ur, -g_tt * ut * ut + g_tr * ur * ur + r * f * 0.0


def earlier_tau_cap(kind, stop, t0, r0, energy):
    """The tau_end the stepper ran a unit-mass leg from (t0, r0) to, with
    E = f u^t > 0, before no leg had a cap: the stop's value on a
    proper-time stop, else a free-fall time, which a null leg's affine
    parameter stretches by 1/E, as the coordinate-time cap does on both kinds."""
    if stop.kind == "proper_time":
        return stop.value
    if stop.kind == "coordinate_time":
        return (abs(stop.value - t0) + 1.0) / min(energy, 1.0) + 1.0
    r_far = max(r0, stop.value)
    cap = 4.0 * (r_far * math.sqrt(r_far)) + 10.0 * abs(r0 - stop.value) + 100.0
    return cap / min(energy, 1.0) if kind == "null" else cap


def earlier_radial_leg(kind, x0, u0, stop, tol, cap=None):
    """A radial leg at unit mass as the stepper ran it: earlier_dopri on
    earlier_radial_rhs, moving (t, r, u^t, u^r), with the events and
    outcomes of the stepped leg, up to tau = cap, by default
    earlier_tau_cap, which on a proper-time stop is its value. Returns ("ok",
    (tau, t, r, u^t, u^r)) at its end, or (the class name of what it
    raised, whether the cap or the step budget ended it)."""
    t0, r0, th0, _ = x0.tolist()
    y0 = [0.0, r0, th0, 0.0, *u0.tolist(), 0.0]
    energy = (1.0 - 2.0 / r0) * y0[4]
    events = []
    if stop.kind == "radius":
        events.append((1, stop.value, 0))
    elif stop.kind == "coordinate_time":
        events.append((0, stop.value - t0, 0))
    events.append((1, geodesics._UNIT_MASS.guard_radius, -1))
    cap = earlier_tau_cap(kind, stop, t0, r0, energy) if cap is None else cap
    try:
        run = earlier_dopri(earlier_radial_rhs, y0, None, cap, tol, events, "stop", (1, 4, 5), (0, 1, 4, 5))
    except StepFailure:
        return "StepFailure", True
    except (ArithmeticError, ValueError):
        return "StepFailure", False
    if run.event == len(events) - 1:
        return "HorizonApproach", False
    if stop.kind != "proper_time" and run.event is None:
        return "StepFailure", True
    t, r, _, _, ut, ur = run.states[-1][:6]
    return "ok", (run.taus[-1], t + t0, r, ut, ur)


def start_leg(path):
    """The zero-length identity leg cut from path's start, its start row
    twice. transport_stack(path, start_leg(path), V) carries V forward
    along path, and transport_stack(start_leg(path), path, V) carries it
    backward."""
    return dataclasses.replace(
        path, taus=path.taus[[0, 0]], points=path.points[[0, 0]], tangents=path.tangents[[0, 0]],
        propagators=path.propagators[[0, 0]], metrics=path.metrics[[0, 0]],
    )


def earlier_carry(path, V, direction):
    """The earlier one-path transport, with the invariants of each end
    computed apart: (v, norm_drift, tangent_dot_drift, errors)."""
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


def earlier_transport(geo_L, geo_R, V):
    """transport_stack as earlier_carry backward along geo_R, then forward
    along geo_L: each drift the worse of the two legs', and a row keeps
    the error it meets on geo_R before the one on geo_L."""
    back_v, back_norm, back_dot, back_errors = earlier_carry(geo_R, V, "backward")
    v, norm_drift, dot_drift, errors = earlier_carry(geo_L, back_v, "forward")
    return v, np.maximum(back_norm, norm_drift), np.maximum(back_dot, dot_drift), {**errors, **back_errors}


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
    a = triple.a.d[None]
    rows = bell_stack(a, ProjectionStack.of([proj_b]), ProjectionStack.of([proj_c]))
    stack = violation_stack(a, rows.b, rows.c)
    return type(stack)(*(field[0] for field in stack))


def _dir_list(d):
    return None if d is None else [float(x) for x in d.d]


def earlier_report_to_dict(report):
    """scenario.report_to_dict as it read a run's public one-row views,
    before it read the run's arrays."""
    ineq = report.inequality
    out = {
        "status": report.status,
        "config": report.config,
        "projections": {
            "b": {
                "w": report.proj_b.w,
                "direction": _dir_list(report.proj_b.direction),
                "time_component": report.proj_b.time_component,
                "degenerate": report.proj_b.degenerate,
            },
            "c": {
                "w": report.proj_c.w,
                "direction": _dir_list(report.proj_c.direction),
                "time_component": report.proj_c.time_component,
                "degenerate": report.proj_c.degenerate,
            },
        },
        "inequality": {
            "lhs": ineq.lhs,
            "rhs": ineq.rhs,
            "margin": ineq.margin,
            "violated": ineq.violated,
            "w_b": ineq.w_b,
            "w_c": ineq.w_c,
            "b_direction": _dir_list(ineq.b_direction),
            "c_direction": _dir_list(ineq.c_direction),
            "swapped": ineq.swapped,
        },
        "violation_angles": {
            "d": report.angles.d[0].tolist(),
            "cos_phi": float(report.angles.cos_phi[0]),
            "cos_theta": float(report.angles.cos_theta[0]),
            "condition_holds": bool(report.angles.condition_holds[0]),
            "degenerate": bool(report.angles.degenerate[0]),
        },
        "best_setting": None if report.angles.degenerate[0] else report.angles.best[0].tolist(),
        "best_margin": report.best_margin,
    }
    for label, summary in (("geodesic_1", report.geodesic_1), ("geodesic_2", report.geodesic_2)):
        out[label] = (
            None
            if summary is None
            else {
                "tau_end": summary.tau_end,
                "endpoint": summary.endpoint,
                "drift": summary.drift,
                "stats": summary.stats,
            }
        )
    if report.lhv is not None:
        out["lhv_audit"] = {
            "model": report.lhv.model,
            "n": report.lhv.n,
            "seed": report.lhv.seed,
            "passed": report.lhv.passed,
            "rows": [
                {
                    "index": r.index,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "margin": r.margin,
                    "combined_stderr": r.combined_stderr,
                    "margin_stderr": r.margin_stderr,
                    "satisfied": r.satisfied,
                }
                for r in report.lhv.rows
            ],
        }
    else:
        out["lhv_audit"] = None
    return out


def csv_cells(line):
    """A CSV line as a dict from column name to cell. Only the id may hold a
    comma, so the line is split from the right."""
    return dict(zip(CSV_COLUMNS, line.rsplit(",", len(CSV_COLUMNS) - 1)))

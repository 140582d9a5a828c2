"""The three benchmark workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop with one client: operation k+1 starts when
operation k has returned. Inputs depend only on (seed, k) and are valid by
construction; no generator calls the pipeline to filter its draws. Each
operation calls the package through module attributes (``scenario.run_scenario``,
``cli.main``, ``lhv.lhv_inequality_audit``) so that the traced run's hooks see
the call.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

from grbell import cli, lhv, scenario
from grbell.correlations import SettingsTriple
from grbell.frames import Direction3, make_projection

MASS = 1.0
MAX_TAU = 10.0
DRIFT_BOUND = max(1e-8, 100.0 * scenario.DEFAULT_TOL)

SWEEP_ROWS = 91
SWEEP_TAU = 5.0
LHV_N = 100_000
# The audit flags a triple whose Monte Carlo margin exceeds 4 sigma, a false
# alarm rate near 3e-5 for a triple sitting on the local bound. Triples are
# drawn at least this far inside the sign model's exact bound (about 9 sigma
# at n = 1e5), so a flagged triple means a broken audit, not bad luck.
LHV_MIN_SLACK = 0.05


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, *key])


def _unit3(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _angle_settings(rng: np.random.Generator) -> dict:
    a, b, c = rng.uniform(0.0, 360.0, 3)
    return {"a_deg": float(a), "b_deg": float(b), "c_deg": float(c)}


def _kronecker_step(dims: int) -> np.ndarray:
    """Additive-recurrence steps 1/phi_d^i with phi_d the root of x^(d+1) = x + 1."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return phi ** -np.arange(1.0, dims + 1.0)


# the seven draws that set a config's cost: r0, speed, two for the boost
# direction, two proper-time fractions, the infall's radius fraction
_COST_DIMS = 7
_COST_STEP = _kronecker_step(_COST_DIMS)


def _cost_point(seed: int, k: int) -> np.ndarray:
    """Point k // 4 of a shifted low-discrepancy sequence in [0, 1)^7.

    Each of the four config shapes walks its own randomly shifted sequence,
    so any run of consecutive configs covers the ranges evenly and the mix
    of cheap and expensive operations, which sets the percentiles, barely
    depends on the seed. Independent uniform draws let the p90 move by 15%
    between seeds over 300 configs.
    """
    shift = _rng(seed, k % 4, 0).random(_COST_DIMS)
    return (shift + (k // 4) * _COST_STEP) % 1.0


def _boosted_pair(u: np.ndarray, r0: float) -> tuple[list, list, float]:
    """Opposite static-tetrad boosts at (0, r0, pi/2, 0) and a safe proper time.

    With speed v, gamma = 1/sqrt(1 - v^2) and f0 = 1 - 2M/r0, both particles
    have Killing energy E = gamma sqrt(f0) and angular momentum at most
    L = r0 gamma v. While r >= r_min, |dr/dtau| <= sqrt(E^2 - 1 + 2M/r_min)
    and the swept angle grows at most L/r_min^2 per unit tau, so for tau up
    to the returned bound both paths stay outside r_min = 0.75 r0 >= 6M and
    within one radian of the equator, far from the horizon guard and from the
    chart's poles.
    """
    v = 0.15 + 0.4 * u[0]
    z, azimuth = 2.0 * u[1] - 1.0, 2.0 * math.pi * u[2]
    n = np.array([z, math.sqrt(1.0 - z * z) * math.cos(azimuth), math.sqrt(1.0 - z * z) * math.sin(azimuth)])
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    f0 = 1.0 - 2.0 * MASS / r0
    legs = np.diag([1.0 / math.sqrt(f0), math.sqrt(f0), 1.0 / r0, 1.0 / r0])
    spatial = legs[1:].T @ n
    u1 = gamma * (legs[0] + v * spatial)
    u2 = gamma * (legs[0] - v * spatial)
    r_min = 0.75 * r0
    energy_sq = gamma * gamma * f0
    tau_radial = (r0 - r_min) / math.sqrt(energy_sq - 1.0 + 2.0 * MASS / r_min)
    tau_angular = r_min * r_min / (r0 * gamma * v)
    return u1.tolist(), u2.tolist(), min(MAX_TAU, tau_radial, tau_angular)


def schwarzschild_config(seed: int, k: int) -> dict:
    """Config k of the seeded Schwarzschild set; k % 4 picks its shape.

    0, 2: opposite boosts, static detector frames; 1: the same with comoving
    frames; 3: particle 1 boosted, particle 2 falls radially from rest to a
    radius in [2.05, r0 - 1], the near-guard infalls that form the tail.
    """
    u = _cost_point(seed, k)
    r0 = float(8.0 + 17.0 * u[0])
    u1, u2, tau_max = _boosted_pair(u[1:4], r0)
    cfg = {
        "metric": {"kind": "schwarzschild", "mass": MASS},
        "origin": [0.0, r0, math.pi / 2.0, 0.0],
        "u1": u1,
        "u2": u2,
        "stop1": {"kind": "proper_time", "value": float(tau_max * (0.5 + 0.5 * u[4]))},
        "stop2": {"kind": "proper_time", "value": float(tau_max * (0.5 + 0.5 * u[5]))},
        "settings": _angle_settings(_rng(seed, k)),
        "frame_choice": "comoving" if k % 4 == 1 else "static",
        "lhv_audit": False,
    }
    if k % 4 == 3:
        cfg["u2"] = [1.0 / math.sqrt(1.0 - 2.0 * MASS / r0), 0.0, 0.0, 0.0]
        cfg["stop2"] = {"kind": "radius", "value": float(2.05 + (r0 - 3.05) * u[6])}
    return cfg


def _killing_energy(cfg: dict, u_key: str) -> float:
    r0 = cfg["origin"][1]
    return (1.0 - 2.0 * MASS / r0) * cfg[u_key][0]


def check_scenario(cfg: dict, report) -> list[str]:
    """Projection invariants, geodesic drifts and the quantum left side."""
    errors = []
    for arm, proj in (("b", report.proj_b), ("c", report.proj_c)):
        if not 0.0 <= proj.w <= 1.0:
            errors.append(f"w_{arm} = {proj.w} outside [0, 1]")
        unit_gap = abs(proj.w**2 + proj.time_component**2 - 1.0)
        if unit_gap > 1e-12:
            errors.append(f"w_{arm}^2 + t_{arm}^2 - 1 = {unit_gap:.3e}")
    for label, u_key in (("geodesic_1", "u1"), ("geodesic_2", "u2")):
        summary = getattr(report, label)
        # the tangent norm g(u, u) sums terms of size 2E^2/f - 1 to get -1,
        # so its rounding scales with that conditioning near the horizon
        # (the package's own drift bound does the same); E and L_z do not
        r_end = summary.endpoint[1]
        energy = _killing_energy(cfg, u_key)
        conditioning = 2.0 * energy**2 / (1.0 - 2.0 * MASS / r_end) - 1.0
        for name, drift in summary.drift.items():
            bound = DRIFT_BOUND * (max(1.0, conditioning) if name == "norm" else 1.0)
            if not drift <= bound:
                errors.append(f"{label} {name} drift {drift:.3e} > {bound:.3e}")
    a = Direction3.from_angle(math.radians(cfg["settings"]["a_deg"]))
    d = np.zeros(3)
    for sign, proj in ((1.0, report.proj_b), (-1.0, report.proj_c)):
        if not proj.degenerate:
            d += sign * proj.w**2 * proj.direction.d
    lhs_gap = abs(report.inequality.lhs - abs(float(a.d @ d)))
    if lhs_gap > 1e-12:
        errors.append(f"quantum lhs differs from |a.d| by {lhs_gap:.3e}")
    return errors


class ScenarioBatch:
    """run_scenario on a stream of distinct Schwarzschild configs."""

    name = "scenario_batch"
    item = "scenarios"
    items_per_op = 1
    trace_ops = 100

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def inputs(self, k: int):
        cfg = schwarzschild_config(self.seed, k)
        return cfg, scenario.config_from_dict(cfg)

    def run(self, inp):
        return scenario.run_scenario(inp[1])

    def check(self, inp, report) -> list[str]:
        return check_scenario(inp[0], report)


class SettingsSweep:
    """grbell.cli.main(["sweep", ...]) on a 91-row b_deg sweep of one geometry.

    The geometry is the package's Schwarzschild demo (circular orbits at
    r = 10M) read out at tau = 5 rather than 20, which halves a sweep's time
    so that a run holds about 14 sweeps, and the seed draws the settings a
    and c, which leave the work unchanged. A seeded geometry would make the
    sweep's cost a property of the seed: over 30 seeds, the Christoffel calls
    of one scenario_batch config spread by 22% of their median (interquartile
    range), and still by 8% to 15% when only the boost direction is drawn.
    """

    name = "settings_sweep"
    item = "rows"
    items_per_op = SWEEP_ROWS
    trace_ops = 1

    def __init__(self, seed: int, workdir: str):
        cfg = scenario.schwarzschild_demo_config()
        cfg["lhv_audit"] = False
        cfg["stop1"]["value"] = cfg["stop2"]["value"] = SWEEP_TAU
        cfg["settings"] = _angle_settings(_rng(seed, 0))
        cfg["sweep"] = {"parameter": "b_deg", "start": 0.0, "stop": 180.0, "step": 2.0}
        self.config_path = os.path.join(workdir, "sweep.json")
        self.csv_path = os.path.join(workdir, "sweep.csv")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.first_csv: bytes | None = None

    def inputs(self, k: int):
        return ["sweep", "--config", self.config_path, "--out", self.csv_path, "--quiet"]

    def run(self, argv):
        return cli.main(argv)

    def check(self, argv, exit_code) -> list[str]:
        if exit_code != 0:
            return [f"sweep exited with code {exit_code}"]
        with open(self.csv_path, "rb") as fh:
            data = fh.read()
        errors = []
        header, *rows = data.decode("utf-8").splitlines()
        if header != scenario.CSV_HEADER:
            errors.append(f"CSV header {header!r}")
        if len(rows) != SWEEP_ROWS:
            errors.append(f"{len(rows)} rows, expected {SWEEP_ROWS}")
        bad = [row.split(",")[0] for row in rows if row.split(",")[1:2] != ["ok"]]
        if bad:
            errors.append(f"rows not ok: {bad[:3]}")
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            errors.append("CSV bytes differ from the first sweep of this run")
        return errors


def lhv_triple(seed: int, k: int):
    """Synthetic triple with w_b >= w_c in [0.1, 1] and its audit seed."""
    rng = _rng(seed, k)
    while True:
        w_c, w_b = sorted(rng.uniform(0.1, 1.0, 2))
        a, b, c = _unit3(rng), _unit3(rng), _unit3(rng)
        if _sign_model_margin(a, w_b, b, w_c, c) <= -LHV_MIN_SLACK:
            break
    proj_b, proj_c = make_projection(w_b, b), make_projection(w_c, c)
    triple = SettingsTriple(Direction3(a), proj_b.direction, proj_c.direction)
    return triple, proj_b, proj_c, int(rng.integers(2**31))


def _sign_model_margin(a, w_b, b, w_c, c) -> float:
    """Exact |P(a,b) - P(a,c)| - (w_b^2 + P(b,c)) of the sign model."""

    def p(x, w, y):
        return -w * w * (1.0 - 2.0 * math.acos(max(-1.0, min(1.0, float(x @ y)))) / math.pi)

    return abs(p(a, w_b, b) - p(a, w_c, c)) - (w_b * w_b + p(b, w_c, c))


class LHVAudit:
    """lhv_inequality_audit on one synthetic triple at n = 1e5."""

    name = "lhv_audit"
    item = "triples"
    items_per_op = 1
    trace_ops = 100

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def inputs(self, k: int):
        return lhv_triple(self.seed, k)

    def run(self, inp):
        triple, proj_b, proj_c, mc_seed = inp
        return lhv.lhv_inequality_audit(
            lhv.make_sign_model(mc_seed), [(triple, proj_b, proj_c)], LHV_N, mc_seed
        )

    def check(self, inp, audit) -> list[str]:
        if len(audit.rows) != 1 or audit.failures != 0:
            return [f"audit failures {audit.failures} over {len(audit.rows)} rows"]
        return []


WORKLOADS = {w.name: w for w in (ScenarioBatch, SettingsSweep, LHVAudit)}

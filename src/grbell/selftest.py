"""Flat-space reduction checks runnable from the CLI (`grbell selftest`).

Everything here has a hand-computable answer: in Minkowski spacetime the
transport weight is exactly 1, the correlation reduces to -cos(theta), and
the three-setting inequality becomes the classic |P(a,b) - P(a,c)| <=
1 + P(b,c) with its textbook 0/60/120-degree violation.
"""
from __future__ import annotations

import math

import numpy as np

from .correlations import bell_stack, find_max_violation
from .frames import Direction3, make_projection, weighted_stack
from .geometry import row_dot
from .lhv import correlation_mc, make_sign_model, verify_anticorrelation
from .scenario import config_from_dict, flat_baseline_config, run_scenario


def run_selftest(quiet: bool = False) -> bool:
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok, detail))

    report = run_scenario(config_from_dict(flat_baseline_config()))
    ineq = report.inequality
    record(
        "flat weights are unity",
        abs(ineq.w_b - 1.0) <= 1e-9 and abs(ineq.w_c - 1.0) <= 1e-9,
        f"w_b={ineq.w_b!r} w_c={ineq.w_c!r}",
    )
    record(
        "canonical 0/60/120 margin is 0.5",
        abs(ineq.lhs - 1.0) <= 1e-9
        and abs(ineq.rhs - 0.5) <= 1e-9
        and ineq.violated,
        f"lhs={ineq.lhs!r} rhs={ineq.rhs!r}",
    )

    # 20 random unit triples a, b, c scored as one stack with both weights 1
    rng = np.random.default_rng(20240811)
    normals = rng.standard_normal((20, 3, 3))
    a, b, c = (normals / np.linalg.norm(normals, axis=2, keepdims=True)).transpose(1, 0, 2)
    ones = np.ones(20)
    ineq = bell_stack(a, weighted_stack(ones, b), weighted_stack(ones, c))
    record("P(a,b) = -cos(theta) at w = 1", bool(np.all(np.abs(ineq.p_ab + row_dot(a, b)) <= 1e-12)))
    record(
        "inequality reduces to the classic form at w = 1",
        bool(np.all(np.abs(ineq.rhs - (1.0 - row_dot(b, c))) <= 1e-15)),
    )

    model = make_sign_model(3)
    a = Direction3(np.array([0.0, 0.0, 1.0]))
    proj_a = make_projection(0.7, a)
    record(
        "sign model anti-correlation holds pointwise",
        verify_anticorrelation(model, a, proj_a, 10_000, seed=3),
    )

    # direction 60 degrees away from a = z-hat
    proj_b60 = make_projection(
        1.0, np.array([math.sin(math.radians(60.0)), 0.0, math.cos(math.radians(60.0))])
    )
    est = correlation_mc(model, a, proj_b60, 200_000, seed=5)
    target = -(1.0 - 2.0 * 60.0 / 180.0)
    record(
        "sign model correlation at 60 degrees",
        abs(est.mean - target) <= 4.0 * est.stderr,
        f"mean={est.mean:.5f} target={target:.5f} stderr={est.stderr:.2e}",
    )

    ok_grid = True
    for _ in range(5):
        proj_b = make_projection(rng.uniform(0.5, 1.0), rng.standard_normal(3))
        proj_c = make_projection(rng.uniform(0.1, proj_b.w), rng.standard_normal(3))
        _, rep_a = find_max_violation(proj_b, proj_c, "analytic")
        _, rep_g = find_max_violation(proj_b, proj_c, "grid", grid_n=24)
        if abs(rep_a.margin - rep_g.margin) > 1e-6:
            ok_grid = False
    record("grid search matches the analytic optimum", ok_grid)

    passed = all(ok for _, ok, _ in checks)
    if not quiet:
        for name, ok, detail in checks:
            suffix = f"  ({detail})" if detail and not ok else ""
            print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
        print(f"selftest {'passed' if passed else 'FAILED'} ({len(checks)} checks)")
    return passed

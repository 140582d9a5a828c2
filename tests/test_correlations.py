import math

import numpy as np
import pytest

from grbell import (
    DegenerateD,
    Direction3,
    SettingsTriple,
    ValidationError,
    find_max_violation,
    generalized_bell_check,
    make_projection,
    quantum_correlation,
)
from grbell.correlations import ARM_ORDER_ULP, bell_stack, optimal_settings, violation_stack
from grbell.frames import ProjectionStack
from conftest import random_direction
from reference import violation_angles, weighted_difference


def coplanar(angle_deg: float) -> Direction3:
    return Direction3.from_angle(math.radians(angle_deg))


def triple_at(a_deg, b_deg, c_deg) -> SettingsTriple:
    return SettingsTriple(coplanar(a_deg), coplanar(b_deg), coplanar(c_deg))


def test_perfect_anticorrelation():
    b = coplanar(25.0)
    assert quantum_correlation(b, make_projection(1.0, b)) == pytest.approx(-1.0, abs=1e-15)


def test_correlation_at_sixty_degrees():
    assert quantum_correlation(coplanar(0.0), make_projection(1.0, coplanar(60.0))) == pytest.approx(
        -0.5, abs=1e-12
    )


def test_correlation_weight_scaling():
    # aligned settings, w = 0.8: P = -0.64
    b = coplanar(10.0)
    assert quantum_correlation(b, make_projection(0.8, b)) == pytest.approx(-0.64, abs=1e-12)


def test_correlation_degenerate_arm_is_zero():
    assert quantum_correlation(coplanar(0.0), make_projection(0.0)) == 0.0


def test_correlation_sign_flip_and_bound(rng):
    for _ in range(50):
        a, b = random_direction(rng), random_direction(rng)
        w = rng.uniform(0.0, 1.0)
        proj = make_projection(w, b) if w >= 1e-9 else make_projection(0.0)
        p = quantum_correlation(a, proj)
        assert quantum_correlation(-a, proj) == -p
        assert abs(p) <= w**2 + 1e-15


def test_canonical_violation():
    # 0/60/120 degrees, flat weights: lhs = 1, rhs = 1/2
    report = generalized_bell_check(
        triple_at(0.0, 60.0, 120.0),
        make_projection(1.0, coplanar(60.0)),
        make_projection(1.0, coplanar(120.0)),
    )
    assert report.lhs == pytest.approx(1.0, abs=1e-12)
    assert report.rhs == pytest.approx(0.5, abs=1e-12)
    assert report.margin == pytest.approx(0.5, abs=1e-12)
    assert report.violated and not report.swapped


def test_violation_scales_with_common_weight():
    for w0 in (0.9, 0.5, 0.2):
        report = generalized_bell_check(
            triple_at(0.0, 60.0, 120.0),
            make_projection(w0, coplanar(60.0)),
            make_projection(w0, coplanar(120.0)),
        )
        assert report.lhs == pytest.approx(w0**2 * 1.0, abs=1e-12)
        assert report.rhs == pytest.approx(w0**2 * 0.5, abs=1e-12)
        assert report.violated


def test_equal_settings_satisfied():
    b = coplanar(45.0)
    report = generalized_bell_check(
        SettingsTriple(coplanar(0.0), b, b),
        make_projection(0.9, b),
        make_projection(0.9, b),
    )
    assert report.lhs == pytest.approx(0.0, abs=1e-15)
    assert report.rhs >= 0.0
    assert not report.violated


def test_arms_swapped_when_misordered():
    report = generalized_bell_check(
        triple_at(0.0, 60.0, 120.0),
        make_projection(0.5, coplanar(60.0)),
        make_projection(0.9, coplanar(120.0)),
    )
    assert report.swapped
    assert report.w_b == 0.9 and report.w_c == 0.5


def test_classic_form_at_unit_weight(rng):
    # with w = 1 the bound is exactly 1 + P(b, c)
    for _ in range(30):
        a, b, c = (random_direction(rng) for _ in range(3))
        proj_b, proj_c = make_projection(1.0, b), make_projection(1.0, c)
        report = generalized_bell_check(SettingsTriple(a, b, c), proj_b, proj_c)
        assert report.rhs == pytest.approx(1.0 + quantum_correlation(b, proj_c), abs=1e-15)
        assert report.lhs == pytest.approx(
            abs(quantum_correlation(a, proj_b) - quantum_correlation(a, proj_c)), abs=1e-15
        )


def test_rotation_invariance(rng):
    from scipy.spatial.transform import Rotation

    for _ in range(20):
        a, b, c = (random_direction(rng) for _ in range(3))
        w_b, w_c = sorted(rng.uniform(0.2, 1.0, size=2))[::-1]
        base = generalized_bell_check(
            SettingsTriple(a, b, c), make_projection(w_b, b), make_projection(w_c, c)
        )
        R = Rotation.random(random_state=int(rng.integers(2**31))).as_matrix()
        rotated = generalized_bell_check(
            SettingsTriple(
                Direction3.from_vector(R @ a.d),
                Direction3.from_vector(R @ b.d),
                Direction3.from_vector(R @ c.d),
            ),
            make_projection(w_b, R @ b.d),
            make_projection(w_c, R @ c.d),
        )
        assert rotated.lhs == pytest.approx(base.lhs, abs=1e-12)
        assert rotated.rhs == pytest.approx(base.rhs, abs=1e-12)


def test_violation_condition_hand_case():
    # b = x-hat, c = y-hat, w = 1: d = (1, -1, 0), cos_theta = 1/sqrt(2);
    # a along d gives |cos phi| = 1 > cos theta, so the bound fails
    proj_b = make_projection(1.0, [1.0, 0.0, 0.0])
    proj_c = make_projection(1.0, [0.0, 1.0, 0.0])
    d = weighted_difference(proj_b, proj_c)
    assert np.allclose(d, [1.0, -1.0, 0.0])
    a = Direction3.from_vector(d)
    angles = violation_angles(SettingsTriple(a, proj_b.direction, proj_c.direction), proj_b, proj_c)
    assert angles.cos_theta == pytest.approx(0.7071067811865476, abs=1e-12)
    assert angles.cos_phi == pytest.approx(1.0, abs=1e-12)
    assert not angles.condition_holds


def test_violation_condition_orthogonal_setting():
    proj_b = make_projection(1.0, [1.0, 0.0, 0.0])
    proj_c = make_projection(1.0, [0.0, 1.0, 0.0])
    a = Direction3(np.array([0.0, 0.0, 1.0]))  # orthogonal to d
    angles = violation_angles(SettingsTriple(a, proj_b.direction, proj_c.direction), proj_b, proj_c)
    assert angles.cos_phi == pytest.approx(0.0, abs=1e-15)
    assert angles.condition_holds


def test_violation_condition_vacuous_when_d_vanishes():
    b = coplanar(30.0)
    proj = make_projection(0.7, b)
    angles = violation_angles(SettingsTriple(coplanar(0.0), b, b), proj, proj)
    assert angles.degenerate and angles.condition_holds


def test_find_max_violation_analytic(rng):
    proj_b = make_projection(1.0, coplanar(60.0))
    proj_c = make_projection(1.0, coplanar(120.0))
    a_star, report = find_max_violation(proj_b, proj_c, "analytic")
    assert report.margin > 0.0
    d = weighted_difference(proj_b, proj_c)
    assert np.allclose(a_star.d, d / np.linalg.norm(d), atol=1e-12)


def test_no_violation_when_b_parallel_to_d():
    # c parallel to b with smaller weight: d is along b, cos theta = 1
    b = coplanar(40.0)
    proj_b = make_projection(0.9, b)
    proj_c = make_projection(0.5, b)
    a_star, report = find_max_violation(proj_b, proj_c, "analytic")
    assert report.margin <= 1e-12
    angles = violation_angles(SettingsTriple(a_star, b, b), proj_b, proj_c)
    assert angles.cos_theta == pytest.approx(1.0, abs=1e-12)


def test_unknown_search_mode_is_a_validation_error():
    proj_b = make_projection(1.0, coplanar(60.0))
    proj_c = make_projection(0.5, coplanar(120.0))
    with pytest.raises(ValidationError, match="unknown search mode 'newton'") as info:
        find_max_violation(proj_b, proj_c, "newton")
    assert info.value.field == "search"


def test_grid_search_matches_analytic(rng):
    for _ in range(20):
        w_b = rng.uniform(0.4, 1.0)
        w_c = rng.uniform(0.1, w_b)
        proj_b = make_projection(w_b, random_direction(rng))
        proj_c = make_projection(w_c, random_direction(rng))
        _, analytic = find_max_violation(proj_b, proj_c, "analytic")
        _, grid = find_max_violation(proj_b, proj_c, "grid", grid_n=24)
        assert abs(analytic.margin - grid.margin) < 1e-6


def test_find_max_violation_degenerate_d():
    b = coplanar(10.0)
    proj = make_projection(0.8, b)
    with pytest.raises(DegenerateD):
        find_max_violation(proj, proj, "analytic")


def test_margin_positive_iff_cos_theta_below_one(rng):
    # whenever |b.d| < |d| the analytic optimum violates
    hits = 0
    for _ in range(50):
        w_b = rng.uniform(0.3, 1.0)
        w_c = rng.uniform(0.1, w_b)
        proj_b = make_projection(w_b, random_direction(rng))
        proj_c = make_projection(w_c, random_direction(rng))
        d = weighted_difference(proj_b, proj_c)
        norm = np.linalg.norm(d)
        if norm <= 1e-12:
            continue
        if abs(proj_b.direction.d @ d) < norm * (1.0 - 1e-9):
            _, report = find_max_violation(proj_b, proj_c, "analytic")
            assert report.margin > 0.0
            hits += 1
    assert hits > 30


def test_stacked_rows_equal_one_row_evaluations(rng):
    # a row's results do not depend on the rows evaluated with it; the grid
    # search's tie-break relies on this
    pairs = []
    for j in range(12):
        w_b, w_c = rng.uniform(0.0, 1.0, 2)
        if j % 4 == 0:
            w_c = 0.0  # a degenerate arm
        if j % 5 == 0:
            w_c = w_b  # a vanishing d when the directions agree too
        b = random_direction(rng)
        c = b if j % 5 == 0 else random_direction(rng)
        pairs.append((make_projection(w_b, b), make_projection(w_c, c)))
    arm_b = ProjectionStack.of([pb for pb, _ in pairs])
    arm_c = ProjectionStack.of([pc for _, pc in pairs])
    a = np.array([random_direction(rng).d for _ in pairs])
    ineq = bell_stack(a, arm_b, arm_c)
    angles = violation_stack(a, arm_b, arm_c)
    best, found = optimal_settings(arm_b, arm_c)
    for j, (pb, pc) in enumerate(pairs):
        triple = SettingsTriple(Direction3(a[j]), Direction3(a[j]), Direction3(a[j]))
        one = generalized_bell_check(triple, pb, pc)
        row = ineq.report(j)
        for field in ("p_ab", "p_ac", "lhs", "rhs", "margin", "w_b", "w_c", "violated", "swapped"):
            assert getattr(row, field) == getattr(one, field)
        assert np.array_equal(row.p_bc, one.p_bc, equal_nan=True)
        one_angles = violation_angles(triple, pb, pc)
        assert np.array_equal(angles.d[j], one_angles.d)
        assert (angles.cos_phi[j], angles.cos_theta[j]) == (one_angles.cos_phi, one_angles.cos_theta)
        if found[j]:
            a_star, report = find_max_violation(pb, pc, "analytic")
            assert np.array_equal(best[j], a_star.d)
            assert bell_stack(best[j:j + 1], arm_b.rows(slice(j, j + 1)), arm_c.rows(slice(j, j + 1))).margin[0] == report.margin
        else:
            with pytest.raises(DegenerateD):
                find_max_violation(pb, pc, "analytic")
    assert not found.all() and found.any() and ineq.degenerate.any() and ineq.swapped.any()


def _unit_rows(rng, k):
    v = rng.standard_normal((k, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _random_arms(rng, k):
    """k random arm pairs, either arm the larger, as two ProjectionStacks."""
    return tuple(
        ProjectionStack(rng.uniform(1e-3, 1.0, k), _unit_rows(rng, k), np.zeros(k, bool), np.zeros(k), {})
        for _ in "bc"
    )


def test_bound_angle_test_and_optimum_agree_in_either_arm_order():
    # the angle test |a.d| > b.d and the bound give one verdict, and the
    # optimum is d/|d|, when all three take the arms in the bound's order
    rng = np.random.default_rng(1212)
    k = 20000
    arm_b, arm_c = _random_arms(rng, k)
    a = _unit_rows(rng, k)
    ineq = bell_stack(a, arm_b, arm_c)
    angles = violation_stack(a, arm_b, arm_c)
    best, found = optimal_settings(arm_b, arm_c)
    assert 9000 < ineq.swapped.sum() < 11000
    clear = np.abs(ineq.margin) > 1e-9
    assert clear.sum() > 19000
    assert not np.any(clear & (angles.condition_holds == ineq.violated))
    b, c = ineq.b, ineq.c
    d = b.w[:, None] ** 2 * b.direction - c.w[:, None] ** 2 * c.direction
    assert found.all()
    assert np.allclose(best, d / np.linalg.norm(d, axis=1)[:, None], rtol=0.0, atol=1e-12)
    assert np.allclose(angles.d, d, rtol=0.0, atol=1e-15)


def test_one_row_wrappers_agree_in_either_arm_order():
    rng = np.random.default_rng(1213)
    arm_b, arm_c = _random_arms(rng, 400)
    swapped = 0
    for j in range(400):
        pb, pc = arm_b.result(j), arm_c.result(j)
        triple = SettingsTriple(random_direction(rng), pb.direction, pc.direction)
        report = generalized_bell_check(triple, pb, pc)
        swapped += report.swapped
        if abs(report.margin) > 1e-9:
            assert violation_angles(triple, pb, pc).condition_holds == (not report.violated)
        order = (pc, pb) if report.swapped else (pb, pc)
        d = order[0].w ** 2 * order[0].direction.d - order[1].w ** 2 * order[1].direction.d
        assert np.allclose(weighted_difference(pb, pc), d, rtol=0.0, atol=1e-15)
        a_star, best = find_max_violation(pb, pc, "analytic")
        assert np.allclose(a_star.d, d / np.linalg.norm(d), rtol=0.0, atol=1e-12)
        assert best.swapped == report.swapped and best.margin >= report.margin
    assert 150 < swapped < 250


def _ulps_above(w, n):
    for _ in range(n):
        w = np.nextafter(w, 2.0)
    return float(w)


@pytest.mark.parametrize(
    "w_c, swapped",
    [
        (0.9, False),
        (_ulps_above(0.9, 1), False),
        (_ulps_above(0.9, ARM_ORDER_ULP), False),
        (_ulps_above(0.9, ARM_ORDER_ULP + 1), True),
        (0.9 + 1e-12, True),
        (0.5, False),
    ],
)
def test_arms_swap_only_beyond_rounding(w_c, swapped):
    # weights that differ in their last bits keep the caller's order
    proj_b, proj_c = make_projection(0.9, coplanar(60.0)), make_projection(w_c, coplanar(120.0))
    triple = triple_at(0.0, 60.0, 120.0)
    report = generalized_bell_check(triple, proj_b, proj_c)
    assert report.swapped is swapped
    assert (report.w_b, report.w_c) == ((w_c, 0.9) if swapped else (0.9, w_c))
    first = (proj_c if swapped else proj_b).direction.d
    assert np.array_equal(report.b_direction.d, first)
    # the angle test's b arm is the bound's b arm
    d = weighted_difference(proj_b, proj_c)
    angles = violation_angles(triple, proj_b, proj_c)
    assert angles.cos_theta == pytest.approx(first @ d / np.linalg.norm(d), abs=1e-15)

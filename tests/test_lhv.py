import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from grbell import (
    Direction3,
    InsufficientSamples,
    SettingsTriple,
    ValidationError,
    correlation_mc,
    lhv_inequality_audit,
    make_projection,
    make_sign_model,
    verify_anticorrelation,
)
from grbell.correlations import ARM_ORDER_ULP
from grbell.frames import ProjectionStack
from grbell.lhv import CHUNK, ROUNDING_SLACK, SIGMA_FACTOR, LHVModel, stream
from conftest import random_direction

Z = Direction3(np.array([0.0, 0.0, 1.0]))


def respond_A(model, a: Direction3, lam):
    """A's responses to the one direction a."""
    return model.respond_A(a.d[None], lam)[0]


def respond_B(model, proj, lam):
    """B's responses to the one arm proj."""
    return model.respond_B(ProjectionStack.of([proj]), lam)[0]


def tilted(theta_deg: float) -> Direction3:
    th = math.radians(theta_deg)
    return Direction3(np.array([math.sin(th), 0.0, math.cos(th)]))


def sign_correlation_quadrature(theta: float) -> float:
    """Sphere average of sign(a.lam) sign(b.lam) for settings at angle theta.

    Independent oracle: the azimuth integral is done in closed form (the
    fraction of the circle where b.lam > 0), the polar integral by
    Gauss-Legendre on the smooth pieces between the kinks at |c| = sin(theta)
    and c = 0.
    """
    sin_t, cos_t = math.sin(theta), math.cos(theta)

    def azimuth_mean(c):
        s = math.sqrt(max(0.0, 1.0 - c * c))
        A, B = sin_t * s, cos_t * c
        if A <= abs(B):
            return math.copysign(1.0, B) if B != 0.0 else 0.0
        phi0 = math.acos(-B / A)
        return 2.0 * phi0 / math.pi - 1.0

    knots = sorted({-1.0, -abs(sin_t), 0.0, abs(sin_t), 1.0})
    nodes, weights = np.polynomial.legendre.leggauss(200)
    total = 0.0
    for lo, hi in zip(knots, knots[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        for x, w in zip(nodes, weights):
            c = mid + half * x
            total += w * half * 0.5 * math.copysign(1.0, c) * azimuth_mean(c)
    return total


@pytest.mark.parametrize("theta_deg", [30.0, 60.0, 90.0, 120.0])
def test_closed_form_matches_quadrature(theta_deg):
    theta = math.radians(theta_deg)
    assert sign_correlation_quadrature(theta) == pytest.approx(
        1.0 - 2.0 * theta / math.pi, abs=1e-7
    )


def test_response_values_exact():
    model = make_sign_model(0)
    lam = model.sample(1000, stream(0))
    A = respond_A(model, Z, lam)
    assert set(np.unique(A)) <= {-1.0, 1.0}
    w = 0.73
    B = respond_B(model, make_projection(w, Z), lam)
    assert set(np.unique(B)) <= {-(w**2), w**2}


def test_response_hand_cases():
    model = make_sign_model(0)
    b = np.array([[0.0, 0.0, 1.0]])
    assert respond_A(model, Z, b)[0] == 1.0
    assert respond_B(model, make_projection(1.0, Z), b)[0] == -1.0
    # w = 0.5 and lambda anti-aligned: -w^2 sign(-1) = +0.25
    assert respond_B(model, make_projection(0.5, Z), -b)[0] == 0.25


def test_anticorrelation_holds_pointwise(rng):
    model = make_sign_model(11)
    for _ in range(10):
        a = random_direction(rng)
        w = rng.uniform(0.0, 1.0)
        proj = make_projection(w, a) if w >= 1e-9 else make_projection(0.0)
        assert verify_anticorrelation(model, a, proj, 1000, seed=int(rng.integers(1 << 30)))


def test_anticorrelation_detects_flipped_model():
    base = make_sign_model(0)
    broken = LHVModel(
        name="flipped",
        seed=0,
        sample=base.sample,
        respond_A=base.respond_A,
        respond_B=lambda arms, lam: -base.respond_B(arms, lam),
    )
    assert not verify_anticorrelation(broken, Z, make_projection(1.0, Z), 1000, seed=4)


def test_b_responds_alike_on_both_sides_of_a_stacked_call(rng):
    # the audit asks A for (b, a) and B for (b, c): b's two responses come
    # from the first row of same-shaped products and must anti-correlate
    # exactly at every sample, or the exact gate would fail a sound model
    model = make_sign_model(0)
    for k in range(20):
        a, b, c = random_direction(rng), random_direction(rng), random_direction(rng)
        proj_b, proj_c = make_projection(rng.uniform(0.3, 1.0), b), make_projection(0.2, c)
        for m in (1, 17, CHUNK):
            lam = model.sample(m, stream(k, m))
            A_b = model.respond_A(np.stack([b.d, a.d]), lam)[0]
            B_b = model.respond_B(ProjectionStack.of([proj_b, proj_c]), lam)[0]
            assert np.array_equal(B_b, -proj_b.w**2 * A_b)


def test_degenerate_weight_response_is_zero():
    model = make_sign_model(0)
    proj = make_projection(0.0)
    lam = model.sample(500, stream(9))
    assert np.all(respond_B(model, proj, lam) == 0.0)
    assert verify_anticorrelation(model, Z, proj, 500, seed=9)


def test_aligned_settings_give_exact_minus_one():
    model = make_sign_model(0)
    est = correlation_mc(model, Z, make_projection(1.0, Z), 1000, seed=2)
    assert est.mean == -1.0 and est.stderr == 0.0


@pytest.mark.parametrize("theta_deg", [30.0, 60.0, 90.0, 120.0])
def test_mc_matches_closed_form(theta_deg):
    model = make_sign_model(0)
    est = correlation_mc(model, Z, make_projection(1.0, tilted(theta_deg)), 100_000, seed=13)
    target = -(1.0 - 2.0 * math.radians(theta_deg) / math.pi)
    assert abs(est.mean - target) <= 4.0 * est.stderr


def test_mc_weight_scaling():
    model = make_sign_model(0)
    w = 0.6
    est = correlation_mc(model, Z, make_projection(w, tilted(60.0)), 100_000, seed=3)
    target = -(w**2) * (1.0 - 2.0 * math.radians(60.0) / math.pi)
    assert abs(est.mean - target) <= 4.0 * est.stderr


def test_mc_deterministic_given_seed():
    model = make_sign_model(0)
    e1 = correlation_mc(model, Z, make_projection(1.0, tilted(45.0)), 5000, seed=21)
    e2 = correlation_mc(model, Z, make_projection(1.0, tilted(45.0)), 5000, seed=21)
    assert e1 == e2
    e3 = correlation_mc(model, Z, make_projection(1.0, tilted(45.0)), 5000, seed=22)
    assert e3.mean != e1.mean


def test_mc_minimum_samples():
    model = make_sign_model(0)
    with pytest.raises(InsufficientSamples):
        correlation_mc(model, Z, make_projection(1.0, Z), 99, seed=0)


def test_stderr_halves_when_n_quadruples():
    # empirical error across seeds, not just the reported 1/sqrt(n) factor
    model = make_sign_model(0)
    proj = make_projection(1.0, tilted(75.0))
    means_small = [correlation_mc(model, Z, proj, 2000, seed=s).mean for s in range(60)]
    means_big = [correlation_mc(model, Z, proj, 8000, seed=s + 1000).mean for s in range(60)]
    ratio = np.std(means_small) / np.std(means_big)
    assert 1.6 <= ratio <= 2.4


def test_audit_boundary_triple():
    # 0/60/120 degrees at w = 1 sits on the inequality boundary: 2/3 <= 2/3
    model = make_sign_model(0)
    triple = SettingsTriple(Z, tilted(60.0), tilted(120.0))
    audit = lhv_inequality_audit(
        model,
        [(triple, make_projection(1.0, tilted(60.0)), make_projection(1.0, tilted(120.0)))],
        200_000,
        seed=5,
    )
    row = audit.rows[0]
    assert audit.passed
    assert row.lhs == pytest.approx(2.0 / 3.0, abs=0.01)
    assert row.rhs == pytest.approx(2.0 / 3.0, abs=0.01)


def test_audit_random_triples_hold(rng):
    model = make_sign_model(0)
    triples = []
    for _ in range(40):
        w_b = rng.uniform(0.3, 1.0)
        w_c = rng.uniform(0.05, w_b)
        triples.append(
            (
                SettingsTriple(random_direction(rng), random_direction(rng), random_direction(rng)),
                make_projection(w_b, random_direction(rng)),
                make_projection(w_c, random_direction(rng)),
            )
        )
    audit = lhv_inequality_audit(model, triples, 20_000, seed=17)
    assert audit.passed and audit.failures == 0


def test_sampled_hidden_variables_are_the_raw_normal_draw():
    # the responses read only lambda's direction, which is uniform for a
    # standard normal 3-vector, so the draw is not normalised; isotropy is
    # covered by the closed-form and quadrature tests
    model = make_sign_model(0)
    assert np.array_equal(model.sample(5000, stream(31)), stream(31).standard_normal((5000, 3)))


def test_audit_equal_settings_triple():
    # b = c: lhs is pure noise around 0, rhs is w^2 + P(b, b) around 0
    model = make_sign_model(0)
    b = tilted(40.0)
    triple = SettingsTriple(Z, b, b)
    proj = make_projection(0.8, b)
    audit = lhv_inequality_audit(model, [(triple, proj, proj)], 50_000, seed=8)
    row = audit.rows[0]
    assert row.satisfied
    assert abs(row.lhs) < 0.02
    assert abs(row.rhs) < 0.02


def test_audit_rejects_misordered_weights():
    model = make_sign_model(0)
    triple = SettingsTriple(Z, tilted(60.0), tilted(120.0))
    with pytest.raises(ValidationError):
        lhv_inequality_audit(
            model,
            [(triple, make_projection(0.4, tilted(60.0)), make_projection(0.9, tilted(120.0)))],
            1000,
            seed=0,
        )


def test_audit_accepts_weights_equal_to_rounding():
    # w_c above w_b by ARM_ORDER_ULP ulp is the bound's order to rounding;
    # with a = b = c every sample gives lhs - rhs = 2 (w_c^2 - w_b^2), the
    # most the sign model can exceed the bound by, and the exact gate holds
    w_b = 0.9
    w_c = w_b
    for _ in range(ARM_ORDER_ULP):
        w_c = float(np.nextafter(w_c, 1.0))
    b = tilted(40.0)
    audit = lhv_inequality_audit(
        make_sign_model(0),
        [(SettingsTriple(b, b, b), make_projection(w_b, b), make_projection(w_c, b))],
        1000,
        seed=0,
    )
    row = audit.rows[0]
    assert 0.0 < row.margin <= ROUNDING_SLACK / 2
    assert audit.passed
    with pytest.raises(ValidationError):
        lhv_inequality_audit(
            make_sign_model(0),
            [(SettingsTriple(b, b, b), make_projection(w_b, b),
              make_projection(float(np.nextafter(w_c, 1.0)), b))],
            1000,
            seed=0,
        )


def test_audit_deterministic():
    model = make_sign_model(0)
    triple = SettingsTriple(Z, tilted(50.0), tilted(110.0))
    args = [(triple, make_projection(0.9, tilted(50.0)), make_projection(0.7, tilted(110.0)))]
    a1 = lhv_inequality_audit(model, args, 5000, seed=3)
    a2 = lhv_inequality_audit(model, args, 5000, seed=3)
    assert a1.rows[0].lhs == a2.rows[0].lhs
    assert a1.rows[0].p_bc == a2.rows[0].p_bc


def boundary_triple():
    # 0/60/120 degrees at w = 1: a + c = b, so |P(a,b) - P(a,c)| = 1 + P(b,c)
    # holds at every lambda, and the exact gate has no room to spare
    b, c = tilted(60.0), tilted(120.0)
    return SettingsTriple(Z, b, c), make_projection(1.0, b), make_projection(1.0, c)


def test_audit_samples_once_per_triple():
    base = make_sign_model(0)
    calls = []

    def counting(n, rng):
        calls.append(n)
        return base.sample(n, rng)

    model = LHVModel("counted", 0, counting, base.respond_A, base.respond_B)
    triple, proj_b, proj_c = boundary_triple()
    args = [(triple, proj_b, proj_c), (triple, proj_b, make_projection(0.0)),
            (triple, make_projection(0.0), make_projection(0.0))]
    lhv_inequality_audit(model, args, 1000, seed=1)
    assert calls == [1000, 1000, 1000]
    # past one chunk, a triple draws its batch CHUNK rows at a time
    calls.clear()
    lhv_inequality_audit(model, args, 2 * CHUNK + 1, seed=1)
    assert calls == [CHUNK, CHUNK, 1] * 3


def test_exact_gate_flags_a_model_the_sigma_gate_passes():
    # B is doubled on the first 5 of the triple's 1e5 samples: each such
    # sample raises lhs - rhs by 1/n, far below 4 sigma but far above
    # rounding; the batch comes in chunks, so the stream position is counted
    # across sample calls
    base = make_sign_model(0)
    drawn = {"before": 0, "total": 0}

    def sample(n, rng):
        drawn["before"] = drawn["total"]
        drawn["total"] += n
        return base.sample(n, rng)

    def doubled_B(arms, lam):
        B = base.respond_B(arms, lam)
        B[:, : max(0, 5 - drawn["before"])] *= 2.0
        return B

    broken = LHVModel("broken", 0, sample, base.respond_A, doubled_B)
    args = [boundary_triple()]
    row = lhv_inequality_audit(broken, args, 100_000, seed=5).rows[0]
    assert row.margin == pytest.approx(5e-5, abs=1e-12)
    assert row.lhs <= row.rhs + SIGMA_FACTOR * row.combined_stderr
    assert not row.satisfied
    sound = lhv_inequality_audit(base, args, 100_000, seed=5).rows[0]
    assert sound.satisfied and abs(sound.margin) <= ROUNDING_SLACK


def test_audit_rows_identical_across_reruns(rng):
    model = make_sign_model(0)
    args = [boundary_triple()]
    for _ in range(5):
        w_b = rng.uniform(0.3, 1.0)
        args.append((
            SettingsTriple(random_direction(rng), random_direction(rng), random_direction(rng)),
            make_projection(w_b, random_direction(rng)),
            make_projection(rng.uniform(0.0, w_b), random_direction(rng)),
        ))
    args.append((args[1][0], make_projection(0.0), make_projection(0.0)))
    first, second = (lhv_inequality_audit(model, args, 5000, seed=9) for _ in range(2))
    assert [dataclasses.asdict(r) for r in first.rows] == [
        dataclasses.asdict(r) for r in second.rows
    ]


def test_margin_stderr_is_the_spread_of_the_per_sample_margin(rng):
    model = make_sign_model(0)
    n, seed = 20_000, 4
    args = [boundary_triple()]
    for _ in range(12):
        w_b = rng.uniform(0.3, 1.0)
        args.append((
            SettingsTriple(random_direction(rng), random_direction(rng), random_direction(rng)),
            make_projection(w_b, random_direction(rng)),
            make_projection(rng.uniform(0.05, w_b), random_direction(rng)),
        ))
    # past one chunk and not a multiple of it: the merged moments equal the
    # two-pass spread of the whole batch
    assert n > CHUNK and n % CHUNK
    rows = lhv_inequality_audit(model, args, n, seed=seed).rows
    ratios = []
    for i, ((triple, proj_b, proj_c), row) in enumerate(zip(args, rows)):
        lam = model.sample(n, stream(seed, i))
        ab = respond_A(model, triple.a, lam) * respond_B(model, proj_b, lam)
        ac = respond_A(model, triple.a, lam) * respond_B(model, proj_c, lam)
        bc = respond_A(model, proj_b.direction, lam) * respond_B(model, proj_c, lam)
        s = 1.0 if ab.mean() >= ac.mean() else -1.0
        margin = s * (ab - ac) - bc
        assert row.margin_stderr == pytest.approx(margin.std(ddof=1) / math.sqrt(n), rel=1e-9)
        assert row.margin == pytest.approx(margin.mean() - proj_b.w**2, abs=1e-12)
        assert row.satisfied == (
            row.lhs <= row.rhs + ROUNDING_SLACK
            and row.lhs <= row.rhs + SIGMA_FACTOR * min(row.margin_stderr, row.combined_stderr)
            + ROUNDING_SLACK * proj_b.w**2
        )
        ratios.append(row.margin_stderr / row.combined_stderr)
    # the three shared-batch estimates are correlated: the quadrature sum is
    # no estimate of the margin's noise (0 on the boundary triple, where the
    # margin is the same at every sample)
    assert ratios[0] == 0.0
    assert min(ratios[1:]) < 0.7 and max(ratios) > 0.9


def test_audit_passes_the_sound_model_on_coincident_settings(rng):
    # a = b = c: every product is -w^2 at every sample, so both sides are
    # constant and only rounding separates them; neither gate may flag that
    model = make_sign_model(0)
    for k in range(40):
        a = random_direction(rng)
        proj = make_projection(rng.uniform(0.1, 1.0), a)
        row = lhv_inequality_audit(model, [(SettingsTriple(a, a, a), proj, proj)], 1000, seed=k).rows[0]
        assert row.satisfied
        assert abs(row.margin) <= ROUNDING_SLACK


def test_audit_chunks_concatenate_to_one_draw():
    base = make_sign_model(0)
    chunks = []

    def recording(n, rng):
        chunks.append(base.sample(n, rng))
        return chunks[-1]

    model = LHVModel("recorded", 0, recording, base.respond_A, base.respond_B)
    n, seed = 3 * CHUNK + 17, 6
    lhv_inequality_audit(model, [boundary_triple()] * 2, n, seed=seed)
    for i in range(2):
        drawn = np.concatenate(chunks[4 * i : 4 * i + 4])
        assert np.array_equal(drawn, stream(seed, i).standard_normal((n, 3)))


def pinned_triples():
    # three fixed random triples and one whose c arm is degenerate
    rng = np.random.default_rng(2323)
    triples = [
        (
            SettingsTriple(random_direction(rng), random_direction(rng), random_direction(rng)),
            make_projection(w_b, random_direction(rng)),
            make_projection(w_c, random_direction(rng)),
        )
        for w_b, w_c in ((0.95, 0.4), (0.7, 0.7), (0.5, 0.2))
    ]
    a, b = random_direction(rng), random_direction(rng)
    triples.append((SettingsTriple(a, b, b), make_projection(0.8, b), make_projection(0.0)))
    return triples


# (p_ab, p_ac, p_bc as mean and stderr, margin, margin_stderr) of each audit,
# recorded while lambda was still normalised to the unit sphere: the signs of
# a . lambda, and so every number, must not move with its length
PINNED_AUDITS = {
    "demo": (-0.0654407616030947, 0.007038885266127828, 0.06184950029560779,
             0.007040508757342665, -0.32640574994714305, 0.006665788709178217,
             -0.5438765735671834, 0.009681212313426087),
    0: (0.205409, 0.006214306117015488, -0.021376000000000006, 0.0011212565237310962,
        -0.09772800000000004, 0.0008958247741055761, -0.5779869999999999, 0.005166180466513061),
    1: (0.14352099999999998, 0.0033129495785018076, -0.28895299999999996, 0.002798338743707761,
        -0.051253999999999994, 0.003445902651912025, -0.006272000000000055, 0.000782764164219886),
    2: (0.077725, 0.0016802030748896497, -0.03651200000000002, 0.00011551779091551675,
        0.012708000000000002, 0.0002681956995305178, -0.14847099999999996, 0.0014576883585724462),
    3: (-0.03500800000000001, 0.004518820972770248, 0.0, 0.0, 0.0, 0.0,
        -0.6049920000000001, 0.004518820972770248),
}


def test_audit_numbers_are_pinned_bit_for_bit():
    from grbell.scenario import load_config, run_scenario

    def numbers(row):
        values = (row.p_ab.mean, row.p_ab.stderr, row.p_ac.mean, row.p_ac.stderr,
                  row.p_bc.mean, row.p_bc.stderr, row.margin, row.margin_stderr)
        return [float(v).hex() for v in values]

    demo = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "schwarzschild_demo.json")
    rows = {"demo": run_scenario(load_config(demo)).lhv.rows[0]}
    triples = pinned_triples()
    rows.update(enumerate(lhv_inequality_audit(make_sign_model(0), triples, 20_000, seed=23).rows))
    assert {key: numbers(row) for key, row in rows.items()} == {
        key: [v.hex() for v in values] for key, values in PINNED_AUDITS.items()
    }
    # the degenerate arm responds +0.0 on every sample, never -0.0
    _, proj_b, proj_c = triples[3]
    lam = make_sign_model(0).sample(CHUNK, stream(23, 3))
    B = make_sign_model(0).respond_B(ProjectionStack.of([proj_b, proj_c]), lam)
    assert proj_c.degenerate and np.all(B[1] == 0.0) and not np.signbit(B[1]).any()
    assert np.signbit(B[0]).any() and not np.signbit(B[0]).all()


def random_triple(rng, w_b, w_c):
    return (
        SettingsTriple(random_direction(rng), random_direction(rng), random_direction(rng)),
        make_projection(w_b, random_direction(rng)),
        make_projection(w_c, random_direction(rng)),
    )


def test_audit_with_a_one_sample_last_chunk(rng):
    triple = random_triple(rng, 0.9, 0.6)
    row = lhv_inequality_audit(make_sign_model(0), [triple], 2 * CHUNK + 1, seed=3).rows[0]
    stderrs = [row.p_ab.stderr, row.p_ac.stderr, row.p_bc.stderr,
               row.combined_stderr, row.margin_stderr]
    assert all(math.isfinite(se) and se > 0.0 for se in stderrs)
    assert row.satisfied


def saturating_triple(rng):
    # b on the arc from a to c, and w_b = w_c: the per-sample margin is 0 at
    # every lambda, so only the summation's rounding is left in the margin
    a, c = random_direction(rng).d, random_direction(rng).d
    c = c - (c @ a) * a
    c /= np.linalg.norm(c)
    theta = rng.uniform(0.2, 3.0)
    t = rng.uniform(0.05, 0.95)
    b = math.cos(t * theta) * a + math.sin(t * theta) * c
    c = math.cos(theta) * a + math.sin(theta) * c
    w = rng.uniform(0.3, 1.0)
    proj_b = make_projection(w, Direction3.from_vector(b))
    proj_c = make_projection(w, Direction3.from_vector(c))
    triple = SettingsTriple(Direction3.from_vector(a), proj_b.direction, proj_c.direction)
    return triple, proj_b, proj_c


def test_saturating_triples_keep_the_exact_gate_at_a_million_samples(rng):
    triples = [saturating_triple(rng) for _ in range(4)]
    audit = lhv_inequality_audit(make_sign_model(0), triples, 1_000_000, seed=12)
    assert audit.passed
    assert all(abs(row.margin) <= ROUNDING_SLACK for row in audit.rows)


def test_audit_memory_does_not_grow_with_n(rng):
    # the batch streams through fixed chunks: the traced peak (numpy buffers
    # included) is about 1.0 MB at any n, where a whole batch of 1e6 samples
    # alone is 24 MB
    triple = random_triple(rng, 0.9, 0.5)
    peaks = []
    for n in (1_000_000, 4_000_000):
        tracemalloc.start()
        try:
            lhv_inequality_audit(make_sign_model(0), [triple], n, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
    assert max(peaks) < 1.5e6


# peak RSS of `grbell lhv-audit --n 10000000` on the demo: 38 MB measured
# (Python 3.11, numpy 2.4, x86-64 Linux), 658 MB when a triple held its
# whole batch
PEAK_RSS_BOUND_KB = 64 * 1024


def test_largest_accepted_audit_runs_in_bounded_memory():
    # mc.n at its cap on the demo; a wrapper process reports the peak RSS of
    # its one child, so no other child of the test process counts
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    code = (
        "import resource, subprocess, sys\n"
        "args = [sys.executable, '-m', 'grbell.cli', 'lhv-audit', '--config',\n"
        "        'configs/schwarzschild_demo.json', '--n', '10000000']\n"
        "code = subprocess.run(args, stdout=subprocess.DEVNULL).returncode\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kb < PEAK_RSS_BOUND_KB

import math

import numpy as np
import pytest

from grbell import (
    BadNormalization,
    Direction3,
    NonFiniteVector,
    StaticFrameUnavailable,
    ZeroVector,
    build_comoving_frame,
    build_static_frame,
    make_projection,
)
from grbell.frames import embed_stack, project_stack
from grbell.geometry import metric_components
from conftest import random_direction, random_exterior_point
from reference import checked, tetrad_components

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def projector(spec, p, E):
    """E g, with g the metric at the tetrad's event p."""
    return E @ metric_components(spec, p)


def assert_orthonormal(spec, p, E, tol=1e-9):
    assert np.max(np.abs(projector(spec, p, E) @ E.T - ETA)) < tol


def test_static_frame_flat_is_coordinate_basis(flat):
    E = build_static_frame(flat, np.array([1.0, 2.0, 3.0, 4.0]))
    for i, leg in enumerate(E):
        expected = np.zeros(4)
        expected[i] = 1.0
        assert np.array_equal(leg, expected)


def test_static_frame_schwarzschild_closed_form(schw):
    # e0^t = (1 - 2M/r)^{-1/2}, e1^r = (1 - 2M/r)^{1/2} at r = 8
    p = np.array([0.0, 8.0, math.pi / 2, 0.0])
    E = build_static_frame(schw, p)
    assert E[0, 0] == pytest.approx(1.1547005383792515, abs=1e-12)
    assert E[1, 1] == pytest.approx(0.8660254037844386, abs=1e-12)
    assert_orthonormal(schw, p, E)


def test_static_frame_unavailable_inside_guard(schw):
    with pytest.raises(StaticFrameUnavailable):
        build_static_frame(schw, np.array([0.0, 2.0 * (1 + 1e-8), 1.0, 0.0]))


def test_static_frame_unavailable_on_the_axis(schw):
    with pytest.raises(StaticFrameUnavailable):
        build_static_frame(schw, np.array([0.0, 8.0, 0.0, 0.0]))


def test_static_frames_orthonormal_at_random_points(schw, rng):
    for _ in range(20):
        p = random_exterior_point(rng)
        assert_orthonormal(schw, p, build_static_frame(schw, p))


def test_comoving_frame_flat_rest_is_coordinate_basis(flat):
    p = np.array([0.0, 0.0, 0.0, 0.0])
    E = build_comoving_frame(metric_components(flat, p), np.array([1.0, 0.0, 0.0, 0.0]))
    for i, leg in enumerate(E):
        expected = np.zeros(4)
        expected[i] = 1.0
        assert np.allclose(leg, expected, atol=1e-15)


def test_comoving_frame_boost(flat):
    # u = (cosh xi, sinh xi, 0, 0) gives e1 = (sinh xi, cosh xi, 0, 0)
    xi = 1.0
    p = np.array([0.0, 0.0, 0.0, 0.0])
    u = np.array([math.cosh(xi), math.sinh(xi), 0.0, 0.0])
    E = build_comoving_frame(metric_components(flat, p), u)
    assert E[1, 0] == pytest.approx(1.1752011936438014, abs=1e-12)
    assert E[1, 1] == pytest.approx(1.5430806348152437, abs=1e-12)
    assert_orthonormal(flat, p, E)


def test_comoving_frame_orthonormal_random(schw, rng):
    # boost the static observer by a random sub-luminal local velocity
    for _ in range(20):
        p = random_exterior_point(rng)
        static = build_static_frame(schw, p)
        vel = rng.uniform(-0.5, 0.5, size=3)
        gamma = 1.0 / math.sqrt(1.0 - vel @ vel)
        u = gamma * (static[0] + vel[0] * static[1] + vel[1] * static[2] + vel[2] * static[3])
        E = build_comoving_frame(metric_components(schw, p), u)
        assert_orthonormal(schw, p, E)
        assert np.allclose(E[0], u)


def test_comoving_frame_rejects_bad_normalization(flat):
    p = np.array([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(BadNormalization):
        build_comoving_frame(metric_components(flat, p), np.array([2.0, 0.0, 0.0, 0.0]))


def test_embed_direction_flat(flat):
    E = build_static_frame(flat, np.array([0.0, 0.0, 0.0, 0.0]))
    v = embed_stack(E, np.array([[1.0, 0.0, 0.0]]))[0]
    assert np.array_equal(v, [0.0, 1.0, 0.0, 0.0])


def test_embed_direction_properties(schw, rng):
    for _ in range(20):
        p = random_exterior_point(rng)
        E = build_static_frame(schw, p)
        v = embed_stack(E, random_direction(rng).d[None])[0]
        g = metric_components(schw, p)
        assert abs(v @ g @ E[0]) < 1e-10
        assert v @ g @ v == pytest.approx(1.0, abs=1e-9)


def test_projection_of_spatial_vector(flat):
    p = np.array([0.0, 0.0, 0.0, 0.0])
    E = build_static_frame(flat, p)
    d = Direction3.from_vector([2.0, -1.0, 0.5])
    V = embed_stack(E, d.d[None])
    proj = checked(project_stack(projector(flat, p, E), V)).result(0)
    assert proj.w == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(proj.direction.d, d.d, atol=1e-12)


def test_projection_symmetric_split(flat):
    # tetrad components (1, 1, 0, 0) -> w = 1/sqrt(2), direction (1, 0, 0)
    p = np.array([0.0, 0.0, 0.0, 0.0])
    E = build_static_frame(flat, p)
    proj = checked(project_stack(projector(flat, p, E), np.array([[1.0, 1.0, 0.0, 0.0]]))).result(0)
    assert proj.w == pytest.approx(0.7071067811865476, abs=1e-12)
    assert np.allclose(proj.direction.d, [1.0, 0.0, 0.0])


def test_projection_of_timelike_vector_is_degenerate(flat):
    p = np.array([0.0, 0.0, 0.0, 0.0])
    E = build_static_frame(flat, p)
    proj = checked(project_stack(projector(flat, p, E), np.array([[3.0, 0.0, 0.0, 0.0]]))).result(0)
    assert proj.degenerate
    assert proj.w == 0.0
    assert proj.direction is None


def test_projection_zero_vector_raises(flat):
    p = np.array([0.0, 0.0, 0.0, 0.0])
    E = build_static_frame(flat, p)
    with pytest.raises(ZeroVector):
        checked(project_stack(projector(flat, p, E), np.array([[0.0, 0.0, 0.0, 0.0]])))


def test_projection_of_an_overflowing_vector_raises(flat):
    # the tetrad components are finite but their norm overflows; w would
    # read 0 (a silent degenerate arm) or NaN without the check
    p = np.array([0.0, 0.0, 0.0, 0.0])
    E = build_static_frame(flat, p)
    with pytest.raises(NonFiniteVector):
        checked(project_stack(projector(flat, p, E), np.array([[1e300, 1e300, 0.0, 0.0]])))


def test_projection_stack_fails_only_the_bad_rows(schw, rng):
    # a row's result does not depend on how many rows are projected with it
    p = random_exterior_point(rng)
    E = build_static_frame(schw, p)
    D = np.array([random_direction(rng).d for _ in range(4)])
    V = np.concatenate([embed_stack(E, D), np.zeros((1, 4))])
    V[1] *= 1e300
    P = projector(schw, p, E)
    stack = project_stack(P, V)
    assert set(stack.errors) == {1, 4}
    assert isinstance(stack.errors[1], NonFiniteVector)
    assert isinstance(stack.errors[4], ZeroVector)
    assert stack.w[1] == stack.w[4] == 0.0 and stack.degenerate[1] and stack.degenerate[4]
    for j in (0, 2, 3):
        one = project_stack(P, V[j:j + 1])
        assert one.errors == {}
        assert stack.w[j] == one.w[0] and stack.time_component[j] == one.time_component[0]
        assert np.array_equal(stack.direction[j], one.direction[0])


def test_projection_weight_range_and_unitarity(schw, rng):
    # w in [0, 1] and w^2 + q0^2 = 1 for arbitrary vectors in arbitrary frames
    for _ in range(500):
        p = random_exterior_point(rng)
        E = build_static_frame(schw, p)
        v = rng.standard_normal(4) * 10 ** rng.uniform(-3, 3)
        proj = checked(project_stack(projector(schw, p, E), v[None])).result(0)
        assert 0.0 <= proj.w <= 1.0
        assert proj.w**2 + proj.time_component**2 == pytest.approx(1.0, abs=1e-10)


def test_embed_project_round_trip(schw, rng):
    for _ in range(50):
        p = random_exterior_point(rng)
        E = build_static_frame(schw, p)
        d = random_direction(rng)
        V = embed_stack(E, d.d[None])
        proj = checked(project_stack(projector(schw, p, E), V)).result(0)
        assert abs(proj.w - 1.0) < 1e-10
        assert np.max(np.abs(proj.direction.d - d.d)) < 1e-10


def test_tetrad_components_reconstruct(schw, rng):
    p = random_exterior_point(rng)
    E = build_static_frame(schw, p)
    v = rng.standard_normal(4)
    comps = tetrad_components(E, metric_components(schw, p), v)
    rebuilt = sum(c * leg for c, leg in zip(comps, E))
    assert np.allclose(rebuilt, v, atol=1e-12)


def test_make_projection_validates():
    with pytest.raises(ValueError):
        make_projection(1.5, [1, 0, 0])
    proj = make_projection(0.0)
    assert proj.degenerate
    proj = make_projection(0.8, [0, 1, 0])
    assert proj.w == 0.8 and not proj.degenerate


def test_direction3_unit_invariant():
    with pytest.raises(ValueError):
        Direction3(np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ZeroVector):
        Direction3.from_vector([0.0, 0.0, 0.0])

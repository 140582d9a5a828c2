import math

import numpy as np
import pytest

from grbell import (
    BasePointMismatch,
    FourVector,
    HorizonDomain,
    InvalidChart,
    MetricSpec,
    MetricUnderflow,
    ValidationError,
    christoffel_at,
    finite_difference_christoffel,
    inner,
    metric_at,
    minkowski_point,
    schwarzschild_point,
)
from conftest import random_exterior_point


def test_minkowski_metric_is_eta(flat):
    p = minkowski_point(3.0, -1.0, 2.0, 0.5)
    g = metric_at(flat, p)
    assert np.array_equal(g.g, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_schwarzschild_metric_closed_form(schw):
    # line element: g_tt = -(1 - 2M/r), g_rr = 1/(1 - 2M/r)
    p = schwarzschild_point(0.0, 4.0, math.pi / 2, 0.0)
    g = metric_at(schw, p)
    assert g.g[0, 0] == pytest.approx(-0.5, abs=1e-15)
    assert g.g[1, 1] == pytest.approx(2.0, abs=1e-15)
    assert g.g[2, 2] == pytest.approx(16.0, abs=1e-12)


def test_metric_is_symmetric_lorentzian(schw, rng):
    for _ in range(20):
        p = random_exterior_point(rng)
        g = metric_at(schw, p).g
        assert np.array_equal(g, g.T)
        eigs = np.linalg.eigvalsh(g)
        assert (eigs < 0).sum() == 1 and (eigs > 0).sum() == 3


def test_minkowski_christoffel_exactly_zero(flat):
    G = christoffel_at(flat, minkowski_point(1.0, 2.0, 3.0, 4.0))
    assert np.count_nonzero(G.gamma) == 0


def test_schwarzschild_christoffel_closed_form(schw):
    # Gamma^r_tt = (M/r^2)(1 - 2M/r), Gamma^t_tr = M / (r^2 (1 - 2M/r))
    p = schwarzschild_point(0.0, 4.0, math.pi / 2, 0.0)
    G = christoffel_at(schw, p).gamma
    assert G[1, 0, 0] == pytest.approx(0.03125, abs=1e-15)
    assert G[0, 0, 1] == pytest.approx(0.125, abs=1e-15)


def test_christoffel_lower_index_symmetry(schw, rng):
    for _ in range(10):
        G = christoffel_at(schw, random_exterior_point(rng)).gamma
        assert np.array_equal(G, G.transpose(0, 2, 1))


def test_christoffel_matches_finite_differences(schw, rng):
    for _ in range(25):
        p = random_exterior_point(rng)
        analytic = christoffel_at(schw, p).gamma
        numeric = finite_difference_christoffel(schw, p)
        assert np.max(np.abs(analytic - numeric)) < 1e-6


def test_horizon_guard(schw):
    with pytest.raises(HorizonDomain):
        metric_at(schw, schwarzschild_point(0.0, 2.0000001, math.pi / 2, 0.0))
    # guard is 2M(1 + 1e-6): just outside is fine
    metric_at(schw, schwarzschild_point(0.0, 2.0 * (1 + 2e-6), math.pi / 2, 0.0))


def test_chart_mismatch(schw, flat):
    with pytest.raises(InvalidChart):
        metric_at(schw, minkowski_point(0.0, 5.0, 0.0, 0.0))
    with pytest.raises(InvalidChart):
        metric_at(flat, schwarzschild_point(0.0, 5.0, 1.0, 0.0))


def test_inner_products_flat(flat):
    p = minkowski_point(0.0, 0.0, 0.0, 0.0)
    g = metric_at(flat, p)
    et = FourVector([1.0, 0.0, 0.0, 0.0], p)
    ex = FourVector([0.0, 1.0, 0.0, 0.0], p)
    assert inner(g, et, et) == -1.0
    assert inner(g, et, ex) == 0.0


def test_inner_product_schwarzschild_radial(schw):
    p = schwarzschild_point(0.0, 4.0, math.pi / 2, 0.0)
    g = metric_at(schw, p)
    er = FourVector([0.0, 1.0, 0.0, 0.0], p)
    assert inner(g, er, er) == pytest.approx(2.0, abs=1e-15)


def test_inner_is_symmetric(schw, rng):
    p = random_exterior_point(rng)
    g = metric_at(schw, p)
    for _ in range(20):
        u = FourVector(rng.standard_normal(4), p)
        v = FourVector(rng.standard_normal(4), p)
        assert inner(g, u, v) == inner(g, v, u)


def test_inner_rejects_base_mismatch(flat):
    p = minkowski_point(0.0, 0.0, 0.0, 0.0)
    q = minkowski_point(1.0, 0.0, 0.0, 0.0)
    g = metric_at(flat, p)
    with pytest.raises(BasePointMismatch):
        inner(g, FourVector([1, 0, 0, 0], p), FourVector([1, 0, 0, 0], q))


def test_metric_spec_validation():
    for bad in (
        {"mass": 0.0},
        {"mass": float("nan")},
        {"mass": float("inf")},
    ):
        with pytest.raises(ValidationError):
            MetricSpec("schwarzschild", **bad)
    with pytest.raises(ValidationError):
        MetricSpec("minkowski", mass=float("nan"))
    with pytest.raises(InvalidChart):
        MetricSpec("kerr", mass=1.0)


def test_metric_underflow_is_an_error():
    spec = MetricSpec("schwarzschild", mass=1e-300)
    with pytest.raises(MetricUnderflow):
        metric_at(spec, schwarzschild_point(0.0, 1e-298, math.pi / 2, 0.0))
    # sin(theta)^2 underflows near the axis even at an ordinary radius
    with pytest.raises(MetricUnderflow):
        metric_at(MetricSpec("schwarzschild", mass=1.0), schwarzschild_point(0.0, 10.0, 1e-170, 0.0))
    g = metric_at(spec, schwarzschild_point(0.0, 1e-150, math.pi / 2, 0.0)).g
    assert g[2, 2] > 0.0 and g[3, 3] > 0.0

import math

import numpy as np
import pytest

from grbell import (
    HorizonDomain,
    InvalidChart,
    MetricSpec,
    MetricUnderflow,
    ValidationError,
)
from grbell.geometry import metric_components
from conftest import random_exterior_point
from reference import christoffel_components, finite_difference_christoffel


def test_minkowski_metric_is_eta(flat):
    p = np.array([3.0, -1.0, 2.0, 0.5])
    g = metric_components(flat, p)
    assert np.array_equal(g, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_schwarzschild_metric_closed_form(schw):
    # line element: g_tt = -(1 - 2M/r), g_rr = 1/(1 - 2M/r)
    p = np.array([0.0, 4.0, math.pi / 2, 0.0])
    g = metric_components(schw, p)
    assert g[0, 0] == pytest.approx(-0.5, abs=1e-15)
    assert g[1, 1] == pytest.approx(2.0, abs=1e-15)
    assert g[2, 2] == pytest.approx(16.0, abs=1e-12)


def test_metric_is_symmetric_lorentzian(schw, rng):
    for _ in range(20):
        p = random_exterior_point(rng)
        g = metric_components(schw, p)
        assert np.array_equal(g, g.T)
        eigs = np.linalg.eigvalsh(g)
        assert (eigs < 0).sum() == 1 and (eigs > 0).sum() == 3


def test_minkowski_christoffel_exactly_zero(flat):
    G = christoffel_components(flat, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.count_nonzero(G) == 0


def test_schwarzschild_christoffel_closed_form(schw):
    # Gamma^r_tt = (M/r^2)(1 - 2M/r), Gamma^t_tr = M / (r^2 (1 - 2M/r))
    p = np.array([0.0, 4.0, math.pi / 2, 0.0])
    G = christoffel_components(schw, p)
    assert G[1, 0, 0] == pytest.approx(0.03125, abs=1e-15)
    assert G[0, 0, 1] == pytest.approx(0.125, abs=1e-15)


def test_christoffel_lower_index_symmetry(schw, rng):
    for _ in range(10):
        G = christoffel_components(schw, random_exterior_point(rng))
        assert np.array_equal(G, G.transpose(0, 2, 1))


def test_christoffel_matches_finite_differences(schw, rng):
    for _ in range(25):
        p = random_exterior_point(rng)
        analytic = christoffel_components(schw, p)
        numeric = finite_difference_christoffel(schw, p)
        assert np.max(np.abs(analytic - numeric)) < 1e-6


def test_horizon_guard(schw):
    with pytest.raises(HorizonDomain):
        metric_components(schw, np.array([0.0, 2.0000001, math.pi / 2, 0.0]))
    # guard is 2M(1 + 1e-6): just outside is fine
    metric_components(schw, np.array([0.0, 2.0 * (1 + 2e-6), math.pi / 2, 0.0]))


@pytest.mark.parametrize("theta", [0.0, math.pi, 4.0, -0.5])
def test_theta_outside_the_chart_is_invalid(schw, theta):
    with pytest.raises(InvalidChart, match="outside"):
        metric_components(schw, np.array([0.0, 10.0, theta, 0.0]))


def test_inner_products_flat(flat):
    p = np.array([0.0, 0.0, 0.0, 0.0])
    g = metric_components(flat, p)
    et = np.array([1.0, 0.0, 0.0, 0.0])
    ex = np.array([0.0, 1.0, 0.0, 0.0])
    assert et @ g @ et == -1.0
    assert et @ g @ ex == 0.0


def test_inner_product_schwarzschild_radial(schw):
    p = np.array([0.0, 4.0, math.pi / 2, 0.0])
    g = metric_components(schw, p)
    er = np.array([0.0, 1.0, 0.0, 0.0])
    assert er @ g @ er == pytest.approx(2.0, abs=1e-15)


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
        metric_components(spec, np.array([0.0, 1e-298, math.pi / 2, 0.0]))
    # sin(theta)^2 underflows near the axis even at an ordinary radius
    with pytest.raises(MetricUnderflow):
        near_axis = np.array([0.0, 10.0, 1e-170, 0.0])
        metric_components(MetricSpec("schwarzschild", mass=1.0), near_axis)
    g = metric_components(spec, np.array([0.0, 1e-150, math.pi / 2, 0.0]))
    assert g[2, 2] > 0.0 and g[3, 3] > 0.0

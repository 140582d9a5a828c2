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
from grbell.geometry import metric_components, metric_stack
from conftest import random_exterior_point, random_flat_point
from reference import christoffel_components, finite_difference_christoffel


def test_minkowski_metric_is_eta(flat):
    p = np.array([3.0, -1.0, 2.0, 0.5])
    g = metric_components(flat, p)
    assert np.array_equal(g, [-1.0, 1.0, 1.0, 1.0])


def test_schwarzschild_metric_closed_form(schw):
    # line element: g_tt = -(1 - 2M/r), g_rr = 1/(1 - 2M/r)
    p = np.array([0.0, 4.0, math.pi / 2, 0.0])
    g = metric_components(schw, p)
    assert g[0] == pytest.approx(-0.5, abs=1e-15)
    assert g[1] == pytest.approx(2.0, abs=1e-15)
    assert g[2] == pytest.approx(16.0, abs=1e-12)


def test_metric_is_symmetric_lorentzian(schw, rng):
    for _ in range(20):
        p = random_exterior_point(rng)
        g = np.diag(metric_components(schw, p))
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
    assert et * g @ et == -1.0
    assert et * g @ ex == 0.0


def test_inner_product_schwarzschild_radial(schw):
    p = np.array([0.0, 4.0, math.pi / 2, 0.0])
    g = metric_components(schw, p)
    er = np.array([0.0, 1.0, 0.0, 0.0])
    assert er * g @ er == pytest.approx(2.0, abs=1e-15)


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
    assert g[2] > 0.0 and g[3] > 0.0


@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("chart", ["flat", "schw"])
def test_metric_stack_rows_are_metric_components(request, rng, chart, n):
    # a row's metric does not depend on how many events are stacked with it
    spec = request.getfixturevalue(chart)
    if chart == "flat":
        X = np.array([random_flat_point(rng) for _ in range(n)])
    else:
        X = np.array([random_exterior_point(rng, r_min=2.0 * (1 + 2e-6)) for _ in range(n)])
    g = metric_stack(spec, X)
    assert g.shape == (n, 4)
    for x, g_x in zip(X, g):
        assert np.array_equal(g_x, metric_components(spec, x))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "mass, bad, error, message",
    [
        (1.0, [0.0, 2.0000001, math.pi / 2, 0.0], HorizonDomain,
         "r = 2.0000001 inside radius 2.000002"),
        (1.0, [0.0, 10.0, 0.0, 0.0], InvalidChart, "theta = 0.0 outside (0, pi)"),
        (1e-300, [0.0, 1e-298, math.pi / 2, 0.0], MetricUnderflow,
         "angular metric components 0.0, 0.0 not positive and finite"
         " at r = 1e-298, theta = 1.5707963267948966"),
        (1.0, [0.0, 1e200, math.pi / 2, 0.0], MetricUnderflow,
         "angular metric components inf, inf not positive and finite"
         " at r = 1e+200, theta = 1.5707963267948966"),
        # a NaN coordinate fails no comparison of the guard or the chart
        (1.0, [0.0, math.nan, 1.0, 0.0], MetricUnderflow,
         "angular metric components nan, nan not positive and finite at r = nan, theta = 1.0"),
        (1.0, [0.0, 5.0, math.nan, 0.0], InvalidChart, "theta = nan outside (0, pi)"),
        # the chart's t is a float: an event whose t is not finite is off it
        (1.0, [math.inf, 10.0, math.pi / 2, 0.0], InvalidChart, "t = inf is not finite"),
        (1.0, [math.nan, 10.0, 1.0, 0.0], InvalidChart, "t = nan is not finite"),
        (1.0, [-math.inf, 1e200, math.pi / 2, 0.0], MetricUnderflow,
         "angular metric components inf, inf not positive and finite"
         " at r = 1e+200, theta = 1.5707963267948966"),
    ],
)
def test_metric_stack_raises_for_its_first_bad_row(rng, mass, bad, error, message):
    # the class and message metric_components gives for that row alone; a
    # later row that is bad in another way is not the one reported
    spec = MetricSpec("schwarzschild", mass=mass)
    X = np.array([random_exterior_point(rng) for _ in range(6)])
    X[2] = bad
    X[4] = [0.0, 10.0, 4.0, 0.0]
    for events in (X, X[2:3]):
        with pytest.raises(error) as raised:
            metric_stack(spec, events)
        assert str(raised.value) == message
    with pytest.raises(error) as raised:
        metric_components(spec, X[2])
    assert str(raised.value) == message


def test_metric_stack_checks_rows_in_order_not_by_kind(schw, rng):
    # row 5 fails the guard, which each row checks first, but row 3 comes first
    X = np.array([random_exterior_point(rng) for _ in range(7)])
    X[3, 2] = -0.5
    X[5, 1] = 2.0000001
    with pytest.raises(InvalidChart, match=r"^theta = -0\.5 outside \(0, pi\)$"):
        metric_stack(schw, X)

import math

import numpy as np
import pytest

from grbell import Direction3, MetricSpec


@pytest.fixture
def flat():
    return MetricSpec("minkowski")


@pytest.fixture
def schw():
    return MetricSpec("schwarzschild", mass=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(91121)


def random_direction(rng) -> Direction3:
    return Direction3.from_vector(rng.standard_normal(3))


def random_exterior_point(rng, r_min=3.0, r_max=30.0):
    return np.array([
        rng.uniform(-5, 5),
        rng.uniform(r_min, r_max),
        rng.uniform(0.3, math.pi - 0.3),
        rng.uniform(-math.pi, math.pi),
    ])


def random_flat_point(rng):
    return rng.uniform(-10, 10, size=4)

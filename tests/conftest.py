import math
from typing import NamedTuple

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


class RecordedLeg(NamedTuple):
    """One leg of a stack geodesics._checked_paths was given, as its two
    rows of each array; tangents are the integrated ones the checks read,
    and sizes is None on a flat leg, whose P = I."""

    spec: MetricSpec
    kind: str
    tol: float
    taus: np.ndarray
    points: np.ndarray
    tangents: np.ndarray
    propagators: np.ndarray
    sizes: np.ndarray | None
    g: np.ndarray
    stored_tangents: np.ndarray
    nfev: int


def recording_checked_legs(monkeypatch) -> list[RecordedLeg]:
    """Every leg whose stack geodesics._checked_paths checks, in order."""
    from grbell import geodesics

    legs = []
    original = geodesics._checked_paths

    def recording(stored, tol, chart, *arrays):
        framed = chart.kind == "schwarzschild"
        for i, leg in enumerate(stored):
            taus, points, tangents, propagators, sizes, g, stored_tangents = (a[i] for a in arrays)
            legs.append(RecordedLeg(
                leg.leg.spec, leg.leg.kind, tol, taus, points, tangents, propagators,
                sizes if framed else None, g, stored_tangents, leg.nfev,
            ))
            if not framed:
                assert np.array_equal(sizes, np.abs(propagators))
        return original(stored, tol, chart, *arrays)

    monkeypatch.setattr(geodesics, "_checked_paths", recording)
    return legs


def metric_check(g, propagators, sizes=None) -> float:
    """The leg stack's metric check on one leg with the metric stack g, over
    all its rows: its worst residual, or the StepFailure it raises, from
    geodesics._metric_residuals and _metric_failure; sizes defaults to |P|."""
    from grbell import geodesics

    sizes = np.abs(propagators) if sizes is None else sizes
    ((residual, bound),) = geodesics._metric_residuals(g[None], np.abs(g)[None], propagators[None], sizes[None])
    if not residual <= bound:
        raise geodesics._metric_failure(residual, bound)
    return residual


def recording_runs(monkeypatch) -> list:
    """Every run of geodesics._dopri, in order, as reference.recorded_dopri
    records it through the run's per-step function: y0 and every state
    the run checks."""
    from grbell import geodesics
    from reference import recorded_dopri

    runs = []

    def recording(*args):
        runs.append(recorded_dopri(*args))
        return runs[-1]

    monkeypatch.setattr(geodesics, "_dopri", recording)
    return runs

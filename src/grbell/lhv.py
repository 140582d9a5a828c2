"""Local hidden-variable models and Monte Carlo checks of the inequality.

The built-in model draws a shared unit 3-vector lambda uniformly on the
sphere. The left response is sign(a . lambda) = +-1; the right response is
-w**2 * sign(b . lambda), so the exact anti-correlation B = -w**2 * A holds
pointwise for every lambda. For w = 1 this is the classic sign model whose
correlation is -(1 - 2*theta/pi) at setting angle theta.

Randomness is driven by numpy SeedSequence streams: the stream for key
(seed, i, j) is spawned deterministically, so every estimate depends only
on its seed and key, and a run reproduces bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientSamples, ValidationError
from .frames import Direction3, ProjectionResult
from .correlations import SettingsTriple

MIN_SAMPLES = 100
SIGMA_FACTOR = 4.0


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n: int
    seed: int


@dataclass(frozen=True, eq=False)
class LHVModel:
    """Sampler over hidden variables plus the two detector responses.

    respond_A maps (direction, lambdas) to +-1 per sample; respond_B maps
    (projection, lambdas) to +-w**2 per sample.
    """

    name: str
    seed: int
    sample: Callable[[int, np.random.Generator], np.ndarray]
    respond_A: Callable[[Direction3, np.ndarray], np.ndarray]
    respond_B: Callable[[ProjectionResult, np.ndarray], np.ndarray]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic sub-stream for (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _uniform_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _sign(x: np.ndarray) -> np.ndarray:
    # sign(0) -> +1 so responses are exactly +-1 on every sample
    return np.where(x >= 0.0, 1.0, -1.0)


def make_sign_model(seed: int = 0) -> LHVModel:
    """Uniform-sphere sign model; obeys the anti-correlation identity exactly."""

    def respond_A(a: Direction3, lam: np.ndarray) -> np.ndarray:
        return _sign(lam @ a.d)

    def respond_B(proj: ProjectionResult, lam: np.ndarray) -> np.ndarray:
        if proj.degenerate:
            return np.zeros(lam.shape[0])
        return -proj.w**2 * _sign(lam @ proj.direction.d)

    return LHVModel(
        name="sign",
        seed=seed,
        sample=_uniform_sphere,
        respond_A=respond_A,
        respond_B=respond_B,
    )


def _estimate(
    model: LHVModel,
    a: Direction3,
    proj_b: ProjectionResult,
    n: int,
    rng: np.random.Generator,
    seed: int,
) -> MCEstimate:
    lam = model.sample(n, rng)
    prod = model.respond_A(a, lam) * model.respond_B(proj_b, lam)
    mean = float(prod.mean())
    stderr = float(prod.std(ddof=1) / math.sqrt(n))
    return MCEstimate(mean=mean, stderr=stderr, n=n, seed=seed)


def correlation_mc(
    model: LHVModel,
    a: Direction3,
    proj_b: ProjectionResult,
    n: int,
    seed: int | None = None,
) -> MCEstimate:
    """Sample mean of A(a, lambda) * B(b, lambda) over n draws."""
    if n < MIN_SAMPLES:
        raise InsufficientSamples(f"n = {n} below minimum {MIN_SAMPLES}")
    root = model.seed if seed is None else seed
    return _estimate(model, a, proj_b, n, stream(root), root)


def verify_anticorrelation(
    model: LHVModel,
    a: Direction3,
    proj_a: ProjectionResult,
    n: int,
    seed: int | None = None,
) -> bool:
    """True iff B(a, lambda) == -w**2 * A(a, lambda) on every sampled lambda.

    proj_a is the transported projection of the same setting a; the identity
    is evaluated on its arrival direction.
    """
    root = model.seed if seed is None else seed
    lam = model.sample(n, stream(root))
    B = model.respond_B(proj_a, lam)
    if proj_a.degenerate:
        return bool(np.all(B == 0.0))
    A = model.respond_A(proj_a.direction, lam)
    return bool(np.array_equal(B, -proj_a.w**2 * A))


@dataclass(frozen=True, eq=False)
class TripleAudit:
    index: int
    p_ab: MCEstimate
    p_ac: MCEstimate
    p_bc: MCEstimate
    lhs: float
    rhs: float
    margin: float
    combined_stderr: float
    satisfied: bool


@dataclass(frozen=True, eq=False)
class LHVAuditReport:
    model: str
    n: int
    seed: int
    rows: list[TripleAudit]

    @property
    def passed(self) -> bool:
        return all(row.satisfied for row in self.rows)

    @property
    def failures(self) -> int:
        return sum(not row.satisfied for row in self.rows)


def lhv_inequality_audit(
    model: LHVModel,
    triples: list[tuple[SettingsTriple, ProjectionResult, ProjectionResult]],
    n: int,
    seed: int | None = None,
) -> LHVAuditReport:
    """Check |P(a,b) - P(a,c)| <= w_b^2 + P(b,c) + 4 sigma on every triple.

    Each triple needs w_b >= w_c (the bound's precondition). The three
    correlations use independent sub-streams keyed by (seed, triple index,
    correlation index), so the audit is reproducible.
    """
    if n < MIN_SAMPLES:
        raise InsufficientSamples(f"n = {n} below minimum {MIN_SAMPLES}")
    root = model.seed if seed is None else seed
    rows = []
    for i, (triple, proj_b, proj_c) in enumerate(triples):
        if proj_b.w < proj_c.w:
            raise ValidationError(
                f"triples[{i}]", f"needs w_b >= w_c, got {proj_b.w} < {proj_c.w}"
            )
        est_ab = _estimate(model, triple.a, proj_b, n, stream(root, i, 0), root)
        est_ac = _estimate(model, triple.a, proj_c, n, stream(root, i, 1), root)
        if proj_b.degenerate:
            # b arm carries no direction: P(b, c) has A(b) undefined, but its
            # weight is zero too, so the bound reduces to lhs <= 0 + noise
            est_bc = MCEstimate(mean=0.0, stderr=0.0, n=n, seed=root)
        else:
            est_bc = _estimate(model, proj_b.direction, proj_c, n, stream(root, i, 2), root)
        lhs = abs(est_ab.mean - est_ac.mean)
        rhs = proj_b.w**2 + est_bc.mean
        combined = math.sqrt(est_ab.stderr**2 + est_ac.stderr**2 + est_bc.stderr**2)
        rows.append(
            TripleAudit(
                index=i,
                p_ab=est_ab,
                p_ac=est_ac,
                p_bc=est_bc,
                lhs=lhs,
                rhs=rhs,
                margin=lhs - rhs,
                combined_stderr=combined,
                satisfied=lhs <= rhs + SIGMA_FACTOR * combined,
            )
        )
    return LHVAuditReport(model=model.name, n=n, seed=root, rows=rows)

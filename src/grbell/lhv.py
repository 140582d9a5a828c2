"""Local hidden-variable models and Monte Carlo checks of the inequality.

The built-in model draws a shared hidden variable lambda, a standard normal
3-vector: it is isotropic, not unit, because a normal 3-vector already has
a uniformly distributed direction (M. E. Muller, Comm. ACM 2, 19 (1959))
and the responses read only that direction. The left response is
sign(a . lambda) = +-1; the right response is -w**2 * sign(b . lambda), so
the exact anti-correlation B = -w**2 * A holds pointwise for every lambda.
For w = 1 this is the classic sign model whose correlation is
-(1 - 2*theta/pi) at setting angle theta. Each side responds to a stack of
settings at once, so a chunk of lambda costs one matrix product per side.

Randomness is driven by numpy SeedSequence streams: the stream for a key
is spawned deterministically, so every estimate depends only on its seed
and key, and a run reproduces bit for bit. The inequality audit draws one
batch per triple, from the stream keyed (seed, i), and evaluates all three
correlations on it. Because the bound holds at every lambda of that batch
(J. S. Bell, Physics 1, 195 (1964)), its sample means obey it exactly up
to rounding, and a row passes two gates: that exact one, with a
rounding-only slack, and the 4-sigma statistical one.

Every estimate streams its batch: lambda is drawn CHUNK rows at a time from
the one stream, and the chunks concatenate to the same lambda as one draw
of n, so every per-sample response is the same as in one draw. Each chunk
is folded into per-series moments and dropped, so an estimate's memory does
not grow with n beyond one sum per chunk. Only the summation order differs
from one whole-batch pass: a mean is the exactly rounded sum (math.fsum) of
the chunk sums over n, and a standard error comes from the chunks' centred
sums of squares, merged by the rule of T. F. Chan, G. H. Golub and R. J.
LeVeque ("Algorithms for computing the sample variance", 1983).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientSamples, ValidationError
from .frames import Direction3, ProjectionResult, ProjectionStack
from .correlations import SettingsTriple, _ordered

MIN_SAMPLES = 100
SIGMA_FACTOR = 4.0
# slack of the exact audit gate, for rounding only: the three sample means
# and the lhs and rhs built from them each carry a few ulp of rounding
# (triples that saturate the bound with w_b = w_c < 1 reach |margin| = 2 eps
# at n = 1e6, 1/8 of this slack); sampling noise does not enter that gate
ROUNDING_SLACK = 16.0 * float(np.finfo(float).eps)
# lambda rows per chunk: a chunk's working set (lambda, its responses and
# the per-sample series) stays in cache, and its arrays stay below the size
# at which the allocator maps and trims them on every call
CHUNK = 2**13


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n: int
    seed: int


@dataclass(frozen=True, eq=False)
class LHVModel:
    """Sampler over hidden variables plus the two detectors' responses.

    sample(m, rng) draws m hidden variables, (m, 3). respond_A(a, lam) maps
    the (k, 3) left directions a to +-1 per sample, (k, m); respond_B(arms,
    lam) maps the k right arms of a ProjectionStack to +-w**2 per sample,
    (k, m), with +0.0 on every sample of a degenerate arm. Each side reads
    only its own settings and lambda, as locality demands.
    """

    name: str
    seed: int
    sample: Callable[[int, np.random.Generator], np.ndarray]
    respond_A: Callable[[np.ndarray, np.ndarray], np.ndarray]
    respond_B: Callable[[ProjectionStack, np.ndarray], np.ndarray]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic sub-stream for (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _sign(x: np.ndarray) -> np.ndarray:
    """+1 where x >= 0, else -1, written over x.

    sign(0) -> +1, so responses are exactly +-1 on every sample.
    """
    np.multiply(x >= 0.0, 2.0, out=x)
    x -= 1.0
    return x


def make_sign_model(seed: int = 0) -> LHVModel:
    """Sign model on raw normal lambda; obeys the anti-correlation identity exactly."""

    def respond_A(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return _sign(a @ lam.T)

    def respond_B(arms: ProjectionStack, lam: np.ndarray) -> np.ndarray:
        response = _sign(arms.direction @ lam.T)
        response *= -arms.w[:, None] ** 2
        # assigned, not multiplied by 0, which would give -0.0 where the sign is +1
        response[arms.degenerate] = 0.0
        return response

    return LHVModel(
        name="sign",
        seed=seed,
        sample=lambda n, rng: rng.standard_normal((n, 3)),
        respond_A=respond_A,
        respond_B=respond_B,
    )


def _root_seed(model: LHVModel, n: int, seed: int | None) -> int:
    """The seed of an estimate of n samples, the model's unless one is given;
    every estimate needs n >= MIN_SAMPLES (InsufficientSamples otherwise)."""
    if n < MIN_SAMPLES:
        raise InsufficientSamples(f"n = {n} below minimum {MIN_SAMPLES}")
    return model.seed if seed is None else seed


def _chunks(model: LHVModel, n: int, rng: np.random.Generator):
    """n hidden variables from rng, drawn CHUNK rows at a time."""
    for start in range(0, n, CHUNK):
        yield model.sample(min(CHUNK, n - start), rng)


class _Moments:
    """Count, chunk sums and merged centred sum of squares of k series.

    add takes one chunk, shape (k, m); the centred sums of squares (M2)
    of the chunks are merged pairwise by Chan, Golub and LeVeque's rule.
    """

    def __init__(self, k: int, n: int):
        self.n = 0
        self.sums = np.empty((-(-n // CHUNK), k))
        self.mean = np.zeros(k)
        self.m2 = np.zeros(k)

    def add(self, x: np.ndarray) -> None:
        m = x.shape[1]
        s = self.sums[self.n // CHUNK]  # every chunk before the last is full
        x.sum(axis=1, out=s)
        mean = s / m
        dev = x - mean[:, None]
        delta = mean - self.mean
        n = self.n + m
        self.m2 += np.einsum("ij,ij->i", dev, dev) + delta**2 * (self.n * m / n)
        self.mean += delta * (m / n)
        self.n = n

    def estimates(self, seed: int) -> list[MCEstimate]:
        """Per series: mean as math.fsum of the chunk sums over n, and stderr."""
        stderr = np.sqrt(self.m2 / (self.n - 1)) / math.sqrt(self.n)
        return [
            MCEstimate(mean=math.fsum(col) / self.n, stderr=float(se), n=self.n, seed=seed)
            for col, se in zip(self.sums.T, stderr)
        ]


def correlation_mc(
    model: LHVModel,
    a: Direction3,
    proj_b: ProjectionResult,
    n: int,
    seed: int | None = None,
) -> MCEstimate:
    """Sample mean of A(a, lambda) * B(b, lambda) over n draws."""
    root = _root_seed(model, n, seed)
    a_rows, arm = a.d[None], ProjectionStack.of([proj_b])
    moments = _Moments(1, n)
    for lam in _chunks(model, n, stream(root)):
        moments.add(model.respond_A(a_rows, lam) * model.respond_B(arm, lam))
    return moments.estimates(root)[0]


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
    root = _root_seed(model, n, seed)
    arm = ProjectionStack.of([proj_a])
    for lam in _chunks(model, n, stream(root)):
        A = 0.0 if proj_a.degenerate else model.respond_A(arm.direction, lam)
        if not np.all(model.respond_B(arm, lam) == -proj_a.w**2 * A):
            return False
    return True


@dataclass(frozen=True, eq=False)
class TripleAudit:
    index: int
    p_ab: MCEstimate
    p_ac: MCEstimate
    p_bc: MCEstimate
    lhs: float
    rhs: float
    margin: float
    combined_stderr: float  # the three estimates' errors added in quadrature
    margin_stderr: float    # standard error of the per-sample margin
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
    """Check |P(a,b) - P(a,c)| <= w_b^2 + P(b,c) on every triple.

    Only triple.a is read: the audit's b and c are the arms' arrival
    directions, proj_b.direction and proj_c.direction, weighted by their w.
    Each triple needs its arms in the bound's order, w_b >= w_c, as
    correlations decides it for the quantum side. Triple i draws
    one batch of n hidden variables from the stream keyed (seed, i) and
    evaluates all three correlations on it, CHUNK rows at a time; the audit
    is reproducible, and its memory does not grow with the number of
    triples, nor with n beyond one sum per chunk. A row is satisfied
    only if it passes two gates: lhs <= rhs + ROUNDING_SLACK, which a model
    with B(x, lambda) = -w_x^2 A(x, lambda) at every sample meets exactly,
    and lhs <= rhs + SIGMA_FACTOR * min(margin_stderr, combined_stderr)
    + ROUNDING_SLACK * w_b^2. The three estimates share their batch, so
    they are correlated and combined_stderr, which adds their errors in
    quadrature, misstates the margin's noise; margin_stderr is the standard
    error of the per-sample margin s (A_a B_b - A_a B_c) - A_b B_c, with s
    the sign of P(a,b) - P(a,c), on the same batch. Taking the smaller keeps
    the statistical gate at least as tight as the quadrature sum alone. The
    per-sample margin can be exactly constant (b = c), so that gate also
    allows the rounding of terms of size w_b^2.
    """
    root = _root_seed(model, n, seed)
    rows = []
    for i, (triple, proj_b, proj_c) in enumerate(triples):
        arms = ProjectionStack.of([proj_b, proj_c])
        if _ordered(arms.rows([0]), arms.rows([1]))[2][0]:
            raise ValidationError(
                f"triples[{i}]", f"needs w_b >= w_c, got {proj_b.w} < {proj_c.w}"
            )
        # per sample: ab, ac, bc and the margin for either sign s of
        # P(a,b) - P(a,c), (ab - ac) - bc and (ab - ac) + bc; s is known
        # only once the means are, so both are kept. Per chunk, A responds
        # to b's arrival direction and a, B to the arms b and c: b is the
        # first row on both sides, so A(b) and B(b) come from the same row
        # of same-shaped products and the sign model's B = -w^2 A holds at
        # every sample, as the exact gate needs. A degenerate b arm has no
        # direction (its row is zero), so A(b) means nothing, but its B and
        # bc are zero and the bound reduces to 0 <= w_b^2
        left = np.stack([arms.direction[0], triple.a.d])
        moments = _Moments(5, n)
        for lam in _chunks(model, n, stream(root, i)):
            series = np.empty((5, lam.shape[0]))
            ab, ac, bc, minus, plus = series
            A_b, A_a = model.respond_A(left, lam)
            B_b, B_c = model.respond_B(arms, lam)
            np.multiply(A_a, B_b, out=ab)
            np.multiply(A_a, B_c, out=ac)
            if proj_b.degenerate:
                bc.fill(0.0)
            else:
                np.multiply(A_b, B_c, out=bc)
            np.subtract(ab, ac, out=minus)
            np.add(minus, bc, out=plus)
            minus -= bc
            moments.add(series)
        est_ab, est_ac, est_bc, est_minus, est_plus = moments.estimates(root)
        lhs = abs(est_ab.mean - est_ac.mean)
        rhs = proj_b.w**2 + est_bc.mean
        combined = math.sqrt(est_ab.stderr**2 + est_ac.stderr**2 + est_bc.stderr**2)
        margin_stderr = (est_minus if est_ab.mean >= est_ac.mean else est_plus).stderr
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
                margin_stderr=margin_stderr,
                satisfied=(
                    lhs <= rhs + ROUNDING_SLACK
                    and lhs <= rhs + SIGMA_FACTOR * min(margin_stderr, combined)
                    + ROUNDING_SLACK * proj_b.w**2
                ),
            )
        )
    return LHVAuditReport(model=model.name, n=n, seed=root, rows=rows)

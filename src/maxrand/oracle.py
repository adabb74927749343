"""Seeded Monte Carlo and exhaustive oracles for the closed forms.

These deliberately avoid the order-statistic formulas: the simulator
draws actual counts and takes maxima, and the enumerator sums over every
t-tuple of counts.  They exist so the closed forms can be validated
independently, and they are public so audits can reproduce the agreement
evidence.

Each simulation owns its generator; identical configs give bit-identical
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import count_distribution
from .errors import DomainError, FeasibilityError
from .orderstat import TaskSpec

__all__ = [
    "GENERATOR",
    "ENUMERATION_LIMIT",
    "MAX_TRIALS",
    "MAX_DRAWS",
    "SimulationConfig",
    "SimulationResult",
    "simulate_expected_max",
    "enumerate_max_pmf",
]

# numpy's PCG64: a named, published, portable 64-bit generator, so the
# same (spec, trials, seed) reproduces across machines.
GENERATOR = "pcg64"

ENUMERATION_LIMIT = 10**7

# Largest trial count simulated.  The maxima and the temporary of their
# standard deviation take 16 bytes per trial, so 10^8 trials need about
# 1.6 GB; a larger request is refused before anything is allocated.
MAX_TRIALS = 10**8

# Largest number of uniforms drawn, trials * t: about four minutes at the
# 4·10^7 draws a second of one x86-64 core.  A larger request is refused
# before any draw.
MAX_DRAWS = 10**10

# Uniform draws per batch.  Batching bounds memory without changing the
# draw order, so results are independent of the batch size.  A trial with
# more draws than this takes them in pieces of this size.
_CHUNK_DRAWS = 1 << 22


@dataclass(frozen=True)
class SimulationConfig:
    """A reproducible simulation request."""

    spec: TaskSpec
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise FeasibilityError(
                f"trials={self.trials} exceeds the largest supported trial count, {MAX_TRIALS}"
            )
        if self.trials * self.spec.t > MAX_DRAWS:
            raise FeasibilityError(f"trials * t = {self.trials * self.spec.t} exceeds the largest "
                                   f"supported number of draws, {MAX_DRAWS}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class SimulationResult:
    """Monte Carlo estimate with its standard error and provenance."""

    estimate: float
    std_error: float
    trials: int
    seed: int
    generator: str = field(default=GENERATOR)


def simulate_expected_max(config: SimulationConfig) -> SimulationResult:
    """Estimate the expected maximum accuracy by direct simulation.

    Each trial draws ``t`` iid counts by inverse-cdf lookup (binary
    search on the precomputed cdf) and records the maximum accuracy;
    returns the sample mean and its standard error.
    """
    maxima = _simulated_maxima(config)
    estimate = float(maxima.mean())
    if config.trials > 1:
        std_error = float(maxima.std(ddof=1)) / math.sqrt(config.trials)
    else:
        std_error = 0.0
    return SimulationResult(
        estimate=estimate,
        std_error=std_error,
        trials=config.trials,
        seed=config.seed,
    )


def _simulated_maxima(config: SimulationConfig) -> np.ndarray:
    """The best accuracy of each trial, in trial order.

    The inverse cdf is nondecreasing, so the largest of a trial's ``t``
    counts is the count of its largest uniform: one lookup per trial
    gives the same maxima as looking up every draw.
    """
    spec = config.spec
    base = count_distribution(spec.labels, spec.n)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    cdf = base.cdf
    maxima = np.empty(config.trials)
    rows_per_chunk = max(1, _CHUNK_DRAWS // spec.t)
    done = 0
    while done < config.trials:
        rows = min(rows_per_chunk, config.trials - done)
        top = _largest_uniforms(rng, rows, spec.t)
        # top in [0, 1) and cdf[n] == 1, so every lookup lands in 0..n.
        maxima[done : done + rows] = np.searchsorted(cdf, top, side="right") / spec.n
        done += rows
    return maxima


def _largest_uniforms(rng: np.random.Generator, rows: int, t: int) -> np.ndarray:
    """The largest of ``t`` uniforms for each of ``rows`` trials, drawn trial by trial.

    At most ``_CHUNK_DRAWS`` uniforms are held at once: a trial with more
    (then ``rows == 1``) keeps a running maximum over pieces, which PCG64
    fills with the same values as one draw of all ``t``.
    """
    if t <= _CHUNK_DRAWS:
        u = rng.random((rows, t))
        return u[:, 0] if t == 1 else u.max(axis=1)
    top = np.zeros(rows)
    for start in range(0, t, _CHUNK_DRAWS):
        np.maximum(top, rng.random((rows, min(_CHUNK_DRAWS, t - start))).max(axis=1), out=top)
    return top


def enumerate_max_pmf(spec: TaskSpec) -> np.ndarray:
    """Exact pmf of the maximum count, by summing all (n+1)^t weighted tuples.

    Raises:
        FeasibilityError: when ``(n+1)^t`` exceeds :data:`ENUMERATION_LIMIT`.
    """
    size = (spec.n + 1) ** spec.t
    if size > ENUMERATION_LIMIT:
        raise FeasibilityError(
            f"(n+1)^t = {size} tuples exceeds the enumeration limit of {ENUMERATION_LIMIT}"
        )
    base = count_distribution(spec.labels, spec.n)
    counts = np.arange(spec.n + 1)
    weights = base.pmf.copy()
    maxima = counts.copy()
    for _ in range(spec.t - 1):
        weights = np.multiply.outer(weights, base.pmf).ravel()
        maxima = np.maximum.outer(maxima, counts).ravel()
    return np.bincount(maxima, weights=weights, minlength=spec.n + 1)

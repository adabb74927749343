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

from .dist import _integer, count_distribution
from .errors import DomainError, FeasibilityError
from .orderstat import TaskSpec, _base

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

# Largest trial count simulated.  The maxima take 8 bytes per trial (their
# standard deviation is formed in place), so 10^8 trials need about 0.8 GB;
# a larger request is refused before anything is allocated.
MAX_TRIALS = 10**8

# Largest number of uniforms drawn, trials * t: about four minutes at the
# 4·10^7 draws a second of one x86-64 core.  A larger request is refused
# before any draw.
MAX_DRAWS = 10**10

# Uniform draws per chunk: 512 KB, so a chunk's draws, its row maxima and
# their guide-table lookup stay in cache.  Every chunk is drawn into one
# reused buffer, in the generator's order, so results are independent of
# the chunk size.  A trial with more draws than this takes them in pieces
# of this size.
_CHUNK_DRAWS = 1 << 16

# Largest t whose row maxima are taken column by column: np.maximum over
# t strided columns beats max(axis=1) over short rows up to about t = 56
# on an x86-64 core, and loses from t = 64.
_COLUMN_MAX_T = 48


@dataclass(frozen=True)
class SimulationConfig:
    """A reproducible simulation request."""

    spec: TaskSpec
    trials: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", _integer(self.trials, "trials"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
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

    Each trial draws ``t`` iid counts by inverse-cdf lookup and records
    the maximum accuracy; returns the sample mean and its standard error.
    The lookup is an exact guide table (see ``_InverseCdf``): it gives the
    counts a binary search on the cdf would, with a search only for the
    few draws that land in a bucket a cdf value splits.
    """
    maxima = _simulated_maxima(config)
    mean = maxima.mean()
    std_error = 0.0
    if config.trials > 1:
        # std(ddof=1) step by step, from the one mean and in place: the
        # same subtraction, squares and pairwise sum, so the same bits.
        np.subtract(maxima, mean, out=maxima)
        np.square(maxima, out=maxima)
        std_error = math.sqrt(maxima.sum() / (config.trials - 1)) / math.sqrt(config.trials)
    return SimulationResult(
        estimate=float(mean),
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
    spec, t, trials = config.spec, config.spec.t, config.trials
    base = _base(spec)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    # P(X <= k) for the counts k = lo..hi of the window; below it the cdf is 0.
    cdf = np.append(1.0 - base.window_sf[1:], 1.0)
    lookup = _InverseCdf(cdf, base.lo, spec.n, _guide_size(len(cdf), trials))
    rows_per_chunk = min(max(1, _CHUNK_DRAWS // t), trials)
    draws = np.empty(rows_per_chunk * min(t, _CHUNK_DRAWS))
    # At t = 1 the draws are their own maxima and share their buffer.
    top = draws if t == 1 else np.empty(rows_per_chunk)
    maxima = np.empty(trials)
    for done in range(0, trials, rows_per_chunk):
        rows = min(rows_per_chunk, trials - done)
        lookup(_largest_uniforms(rng, draws, top[:rows], t), out=maxima[done : done + rows])
    return maxima


def _guide_size(window: int, trials: int) -> int:
    """Buckets of the guide table: a power of two near 16 per window count, at most trials / 4.

    Sixteen buckets per count leave few buckets that a cdf value splits,
    so few keys need a search; the trial bound keeps the table's cost
    below that of the searches it saves.
    """
    return 1 << min((16 * window - 1).bit_length(), max(trials // 4, 1).bit_length() - 1)


class _InverseCdf:
    """``u -> (lo + #{cdf <= u}) / n`` for ``u`` in [0, 1), by a guide table.

    The guide table of Chen & Asau (1974; Devroye 1986, section III.2.4)
    splits [0, 1) into ``size`` equal buckets.  ``size`` is a power of
    two, so ``u * size`` and ``cdf * size`` are exact and bucket
    ``j = floor(u * size)`` holds exactly the ``u`` with
    ``j / size <= u < (j + 1) / size``.  When no cdf value lies strictly
    inside a bucket, ``#{cdf <= u}`` is the same for all of its ``u`` and
    the table stores that bucket's accuracy, from the same division as a
    search would make; the other buckets hold NaN and their keys are
    searched.  Each result equals ``(lo + searchsorted(cdf, u,
    side="right")) / n`` bit for bit.  The buckets of every call go into
    one buffer, made by the first call.
    """

    def __init__(self, cdf: np.ndarray, lo: int, n: int, size: int):
        self.cdf, self.lo, self.n, self.size = cdf, lo, n, size
        self.buckets = np.empty(0, np.intp)
        scaled = cdf * size
        # below[j] = #{cdf <= j / size} and inside[j] = #{cdf < (j + 1) / size}.
        below = np.cumsum(np.bincount(np.ceil(scaled).astype(np.intp), minlength=size + 1)[:size])
        inside = np.cumsum(np.bincount(np.floor(scaled).astype(np.intp), minlength=size + 1)[:size])
        self.table = (lo + below) / n
        self.table[below != inside] = np.nan

    def __call__(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        # u < 1, so u * size < size and the cast truncates to the bucket.
        # The product goes straight into intp, which np.take indexes by
        # without a copy, and mode="clip" lets it write into ``out`` unbuffered.
        if len(self.buckets) < len(u):
            self.buckets = np.empty(len(u), np.intp)
        buckets = np.multiply(u, self.size, out=self.buckets[: len(u)], casting="unsafe")
        np.take(self.table, buckets, out=out, mode="clip")
        split = np.flatnonzero(np.isnan(out))
        # u in [0, 1) and cdf[-1] == 1, so every search lands in lo..hi.
        out[split] = (self.lo + np.searchsorted(self.cdf, u[split], side="right")) / self.n
        return out


def _largest_uniforms(rng: np.random.Generator, draws: np.ndarray, top: np.ndarray,
                      t: int) -> np.ndarray:
    """The largest of ``t`` uniforms for each of ``len(top)`` trials, drawn trial by trial.

    The uniforms go into ``draws``, at most ``_CHUNK_DRAWS`` of them at
    once, and their maxima into ``top``.  A trial with more draws (then
    ``len(top) == 1``) keeps a running maximum over pieces, which PCG64
    fills with the same values as one draw of all ``t``.  A maximum is
    exact, so the order in which it is taken does not change its bits.
    """
    rows = len(top)
    if t > _CHUNK_DRAWS:
        top[0] = max(rng.random(out=draws[: min(_CHUNK_DRAWS, t - start)]).max()
                     for start in range(0, t, _CHUNK_DRAWS))
        return top
    u = rng.random(out=draws[: rows * t].reshape(rows, t))
    if t == 1:
        return u.ravel()
    if t > _COLUMN_MAX_T:
        return u.max(axis=1, out=top)
    np.maximum(u[:, 0], u[:, 1], out=top)
    for column in range(2, t):
        np.maximum(top, u[:, column], out=top)
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

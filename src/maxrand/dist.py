"""Exact distributions of correct-guess counts for random classifiers.

A classifier that guesses every example uniformly at random gets ``X``
out of ``n`` examples right, and its accuracy is ``X / n``.  With the
same ``m`` labels on every example, ``X`` is Binomial(n, 1/m); when the
number of labels varies per example, ``X`` is Poisson binomial.  Both
are computed exactly: pmfs in log space via log-gamma (finite for ``n``
in the thousands), then the upper tail ``S(k) = P(X >= k)`` by one
vectorised suffix sum per build, compensated with the error-free TwoSum
transformation, from which the cdf and the log-pmf are derived, plus an
independent regularized-incomplete-beta binomial cdf as a cross-check.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, FeasibilityError

__all__ = [
    "UniformLabels",
    "PerExampleLabels",
    "LabelScheme",
    "CountDistribution",
    "binomial_distribution",
    "binomial_cdf_beta",
    "poisson_binomial_distribution",
    "count_distribution",
    "tail_sums",
]

# Largest n built: a distribution holds two float64 arrays of n + 1 entries.
MAX_N = 10**7


@dataclass(frozen=True)
class UniformLabels:
    """Every example offers ``m`` equally likely labels.

    A uniform guess is correct with probability ``p = 1/m`` on each
    example independently.
    """

    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise DomainError(f"label count m must be >= 2, got {self.m}")

    @property
    def p(self) -> float:
        return 1.0 / self.m

    def expected_accuracy(self) -> float:
        """Expected accuracy of a single uniform random guesser."""
        return self.p


@dataclass(frozen=True, init=False)
class PerExampleLabels:
    """Each example ``i`` is guessed correctly with its own ``p_i``.

    Every baseline depends only on the multiset of the ``p_i``, so a
    scheme is stored as its histogram: the distinct ``p_i`` in descending
    order (ascending label count) and how many examples have each.
    Equality and hashing are those of these two short tuples, so a
    permutation of a scheme equals it and shares its cache entry.
    ``n`` and ``probabilities`` are derived from them.

    Probabilities must lie in (0, 1]; a zero-probability example would
    make the count degenerate and is rejected.
    """

    distinct: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __init__(self, probabilities: Sequence[float]) -> None:
        histogram = Counter(probabilities)
        if not all(0.0 < p <= 1.0 for p in histogram):
            for i, p in enumerate(probabilities):
                if not 0.0 < p <= 1.0:
                    raise DomainError(f"probability {p!r} at index {i} is outside (0, 1]")
        self._store((float(p), k) for p, k in histogram.items())

    def _store(self, histogram: Iterable[tuple[float, int]]) -> None:
        """Set the fields from (p, multiplicity) pairs; equal p are merged."""
        merged: Counter = Counter()
        for p, k in histogram:
            merged[p] += k
        if not merged:
            raise DomainError("per-example scheme needs at least one probability")
        distinct = sorted(merged, reverse=True)
        object.__setattr__(self, "distinct", tuple(distinct))
        object.__setattr__(self, "multiplicities", tuple(merged[p] for p in distinct))

    @classmethod
    def from_label_counts(cls, counts: Sequence[int]) -> "PerExampleLabels":
        """Build the scheme from per-example label counts (p_i = 1 / count_i).

        Only the distinct counts are checked and inverted; a bad one is
        then looked for in ``counts``, so the error names its index.
        """
        histogram = Counter(counts)
        if any(int(c) != c or c < 1 for c in histogram):
            for i, c in enumerate(counts):
                if int(c) != c or c < 1:
                    raise DomainError(f"label count {c!r} at index {i} must be a positive integer")
        pairs = []
        for c, k in histogram.items():
            try:
                pairs.append((1.0 / int(c), k))
            except OverflowError:  # int(c) does not fit in a float
                raise DomainError(
                    f"label count {c!r} at index {counts.index(c)} exceeds the largest float, "
                    f"{sys.float_info.max:.4g}"
                ) from None
        scheme = cls.__new__(cls)
        scheme._store(pairs)
        return scheme

    @functools.cached_property
    def n(self) -> int:
        """Number of examples."""
        return sum(self.multiplicities)

    @property
    def probabilities(self) -> tuple[float, ...]:
        """Every example's ``p_i``, in the canonical order the histogram fixes.

        The examples of each distinct ``p_i`` are spread evenly: the j-th
        of k sits at (j + 1/2) / k, and ties go to the larger ``p_i``.  A
        sorted order would start the Poisson binomial convolution with a
        long run of one ``p_i``, which fills its tails with subnormal
        values; on x86-64 that makes it three times slower at n = 20,000.
        """
        positions = np.concatenate([(np.arange(k) + 0.5) / k for k in self.multiplicities])
        expanded = np.repeat(self.distinct, self.multiplicities)
        return tuple(expanded[np.argsort(positions, kind="stable")].tolist())

    @functools.cached_property
    def _mean(self) -> float:
        return math.fsum(self.probabilities) / self.n

    def expected_accuracy(self) -> float:
        """Expected accuracy of a single random guesser: the mean of the p_i (summed once)."""
        return self._mean


LabelScheme = UniformLabels | PerExampleLabels


@dataclass(frozen=True, eq=False)
class CountDistribution:
    """Exact distribution of a correct-guess count on 0..n.

    ``pmf`` and ``sf`` are read-only parallel arrays of length ``n + 1``
    indexed by the count ``k``.  ``sf[k] = P(X >= k)`` is nonincreasing
    with ``sf[0] == 1.0`` exactly (any mass the pmf misses sits at count 0).
    ``cdf`` and ``log_pmf`` are derived from them on each access.
    """

    n: int
    pmf: np.ndarray
    sf: np.ndarray

    @property
    def cdf(self) -> np.ndarray:
        """P(X <= k) = 1 - S(k + 1), nondecreasing with ``cdf[n] == 1.0``."""
        return np.append(1.0 - self.sf[1:], 1.0)

    @property
    def log_pmf(self) -> np.ndarray:
        """log P(X = k), read-only; ``-inf`` wherever ``pmf`` is zero or has underflowed."""
        with np.errstate(divide="ignore"):
            out = np.log(self.pmf)
        out.flags.writeable = False
        return out

    def tail(self, k: int) -> float:
        """P(X >= k), looked up in ``sf``."""
        if k <= 0:
            return 1.0
        if k > self.n:
            return 0.0
        return float(self.sf[k])


def tail_sums(pmf: np.ndarray) -> np.ndarray:
    """P(X >= k) for every k: compensated suffix sums of ``pmf``, capped at 1.

    ``cumsum`` adds the pmf from the top down; the exact rounding error of
    each step (TwoSum; Ogita, Rump & Oishi 2005, "Accurate sum and dot
    product") is accumulated by a second ``cumsum`` and added back, which
    gives every suffix sum as if carried in twice the working precision.
    """
    # Allocate the kept array before the temporaries: the other order
    # fragments the heap over many builds and raises peak memory.
    tails = np.empty(len(pmf))
    partial = tails[::-1]
    addend = pmf[::-1]
    np.cumsum(addend, out=partial)
    # TwoSum of partial[i] = partial[i-1] + addend[i]: with
    # b' = partial[i] - partial[i-1] and a' = partial[i] - b', the error is
    # (partial[i-1] - a') + (addend[i] - b').
    error = np.subtract(partial[1:], partial[:-1])
    other = np.subtract(partial[1:], error)
    np.subtract(partial[:-1], other, out=other)
    np.subtract(addend[1:], error, out=error)
    error += other
    np.cumsum(error, out=error)
    partial[1:] += error
    np.minimum(tails, 1.0, out=tails)
    return tails


def _finalize(n: int, pmf: np.ndarray) -> CountDistribution:
    sf = tail_sums(pmf)
    deficit = 1.0 - float(sf[0])
    if not abs(deficit) < 1e-9:
        raise FeasibilityError(
            f"the count distribution for n={n} misses a probability mass of {deficit:.3g} "
            "(more than 1e-9); it cannot be computed exactly at this n"
        )
    # Rounding each suffix sum of a nonnegative pmf keeps S nonincreasing,
    # but the compensation is not proved to round every index; S must not rise.
    np.maximum.accumulate(sf[::-1], out=sf[::-1])
    sf[0] = 1.0
    for array in (pmf, sf):
        array.flags.writeable = False
    return CountDistribution(n=n, pmf=pmf, sf=sf)


def _check_n(n: int) -> None:
    """Reject ``n`` outside 1..MAX_N before anything of size n is allocated."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > MAX_N:
        raise FeasibilityError(f"n={n} exceeds the largest supported n, {MAX_N}")


# log(k!) for k = 0, 1, ...: one read-only table, grown to the largest n asked for.
_log_factorial_table = np.zeros(0)


def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n, read-only, as a slice of the shared table.

    Two threads may grow the table at once; both compute the same values,
    so whichever table is kept is correct.
    """
    global _log_factorial_table
    table = _log_factorial_table
    if len(table) <= n:
        grown = np.empty(n + 1)
        grown[: len(table)] = table
        grown[len(table) :] = [math.lgamma(i + 1.0) for i in range(len(table), n + 1)]
        grown.flags.writeable = False
        _log_factorial_table = table = grown
    return table[: n + 1]


def binomial_distribution(n: int, p: float) -> CountDistribution:
    """Binomial(n, p) distribution of the number of correct guesses.

    The pmf is evaluated as ``exp(log C(n, k) + k log p + (n-k) log(1-p))``
    with log-gamma factorials, so it never overflows; the upper tail is
    the compensated sum of the pmf from the top down.

    Raises:
        DomainError: if ``n < 1`` or ``p`` is outside [0, 1].
        FeasibilityError: if ``n > MAX_N`` or the pmf misses unit mass by over 1e-9.
    """
    _check_n(n)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        log_pmf = np.full(n + 1, -np.inf)
        log_pmf[0] = 0.0
    elif p == 1.0:
        log_pmf = np.full(n + 1, -np.inf)
        log_pmf[n] = 0.0
    else:
        lf = _log_factorials(n)
        ks = np.arange(n + 1)
        rev = ks[::-1]
        log_pmf = lf[n] - lf[ks] - lf[rev] + ks * math.log(p) + rev * math.log1p(-p)
    return _finalize(n, np.exp(log_pmf))


def binomial_cdf_beta(n: int, p: float, k: int) -> float:
    """Binomial cdf F(k) through the regularized incomplete beta identity.

    ``F(k) = I_{1-p}(n - k, 1 + k)``, evaluated by a continued fraction.
    This route shares nothing with the summed tail behind ``cdf`` and
    exists to cross-check it.

    Raises:
        DomainError: if the parameters are invalid or ``k`` is outside [0, n].
        ConvergenceError: if the continued fraction does not settle within
            its iteration bound.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    if not 0 <= k <= n:
        raise DomainError(f"k must lie in [0, {n}], got {k}")
    if k == n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    return _regularized_incomplete_beta(n - k, k + 1.0, 1.0 - p)


def _regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) via the continued fraction, split at the symmetry point."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def _beta_continued_fraction(a: float, b: float, x: float, max_iterations: int = 500) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge in {max_iterations} iterations "
        f"(a={a}, b={b}, x={x})"
    )


def poisson_binomial_distribution(probabilities: Sequence[float]) -> CountDistribution:
    """Poisson binomial distribution: independent trials with their own p_i.

    Exact O(n^2) dynamic program, convolving one trial at a time in O(n)
    space.  With all p_i equal this reproduces the binomial distribution.
    Plain double precision is carried throughout; accuracy has been
    validated for n up to 20,000.

    Raises:
        DomainError: if the sequence is empty or any p_i is outside (0, 1].
        FeasibilityError: if ``n > MAX_N`` or the pmf misses unit mass by over 1e-9.
    """
    probs = [float(p) for p in probabilities]
    _check_n(len(probs))
    for i, p in enumerate(probs):
        if not 0.0 < p <= 1.0:
            raise DomainError(f"probability {p!r} at index {i} is outside (0, 1]")
    n = len(probs)
    pmf = np.zeros(n + 1)
    pmf[0] = 1.0
    moved = np.empty(n)
    for i, p in enumerate(probs, start=1):
        np.multiply(pmf[:i], p, out=moved[:i])
        pmf[:i] *= 1.0 - p
        pmf[1 : i + 1] += moved[:i]
    return _finalize(n, pmf)


def count_distribution(labels: LabelScheme, n: int) -> CountDistribution:
    """Distribution of correct guesses on an n-example task under ``labels``.

    A per-example scheme is convolved in the canonical order of its
    ``probabilities``, so every permutation of a scheme builds the same bits.
    """
    if isinstance(labels, UniformLabels):
        return binomial_distribution(n, labels.p)
    if labels.n != n:
        raise DomainError(f"per-example scheme has {labels.n} probabilities but n={n}")
    return poisson_binomial_distribution(labels.probabilities)

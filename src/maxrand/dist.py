"""Exact distributions of correct-guess counts for random classifiers.

A classifier that guesses every example uniformly at random gets ``X``
out of ``n`` examples right, and its accuracy is ``X / n``.  With the
same ``m`` labels on every example, ``X`` is Binomial(n, 1/m); when the
number of labels varies per example, ``X`` is Poisson binomial.  Both
are computed exactly, and only on the window of counts where the pmf is
not 0.0 in float64 (Hoeffding's bound, about 38.6 sqrt(n) counts wide):
binomial pmfs by Loader's saddle-point form, a Poisson binomial as the
convolution of one binomial per distinct p_i, then the upper tail
``S(k) = P(X >= k)`` by one vectorised suffix sum per build, compensated
with the error-free TwoSum transformation.  The cdf, the log-pmf and the
arrays over every count are derived from these; an independent
regularized-incomplete-beta binomial cdf serves as a cross-check.
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

# Largest n built.  A distribution stores O(sqrt(n)) floats, but its derived
# arrays over every count hold n + 1.
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
        if self.m > sys.float_info.max:
            raise DomainError(
                f"label count m={self.m} exceeds the largest float, {sys.float_info.max:.4g}"
            )

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
        if not all(map(_is_probability, histogram)):
            i, p = next((i, p) for i, p in enumerate(probabilities) if not _is_probability(p))
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
        if not all(map(_is_label_count, histogram)):
            i, c = next((i, c) for i, c in enumerate(counts) if not _is_label_count(c))
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
        of k sits at (j + 1/2) / k, and ties go to the larger ``p_i``.
        """
        positions = np.concatenate([(np.arange(k) + 0.5) / k for k in self.multiplicities])
        expanded = np.repeat(self.distinct, self.multiplicities)
        return tuple(expanded[np.argsort(positions, kind="stable")].tolist())

    @functools.cached_property
    def _mean(self) -> float:
        return math.fsum(np.repeat(self.distinct, self.multiplicities)) / self.n

    def expected_accuracy(self) -> float:
        """Expected accuracy of a single random guesser: the mean of the p_i (summed once)."""
        return self._mean


LabelScheme = UniformLabels | PerExampleLabels


def _is_probability(p: object) -> bool:
    try:
        return 0.0 < p <= 1.0
    except TypeError:  # None, a string
        return False


def _is_label_count(c: object) -> bool:
    try:
        return int(c) == c and c >= 1
    except (TypeError, ValueError, OverflowError):  # None; NaN or a string; infinity
        return False


@dataclass(frozen=True, eq=False)
class CountDistribution:
    """Exact distribution of a correct-guess count on 0..n, stored on its window.

    Only the counts ``lo..hi`` can have a pmf above zero in float64 (see
    ``_window``).  ``window_pmf`` and ``window_sf`` are read-only arrays
    of ``P(X = k)`` and ``S(k) = P(X >= k)`` for those counts, indexed by
    ``k - lo``; ``window_sf[0] == 1.0`` exactly and ``S`` is
    nonincreasing.  Below the window ``S(k)`` is exactly 1.0, above it
    0.0.  ``pmf``, ``sf``, ``cdf`` and ``log_pmf`` are the read-only
    arrays over every count ``0..n``, derived on each access.
    """

    n: int
    lo: int
    window_pmf: np.ndarray
    window_sf: np.ndarray

    @property
    def hi(self) -> int:
        """The largest count of the window."""
        return self.lo + len(self.window_pmf) - 1

    def _over_all_counts(self, window: np.ndarray, below: float) -> np.ndarray:
        out = np.zeros(self.n + 1)
        out[: self.lo] = below
        out[self.lo : self.hi + 1] = window
        out.flags.writeable = False
        return out

    @property
    def pmf(self) -> np.ndarray:
        """P(X = k) for k = 0..n."""
        return self._over_all_counts(self.window_pmf, 0.0)

    @property
    def sf(self) -> np.ndarray:
        """S(k) = P(X >= k) for k = 0..n, with ``sf[0] == 1.0``."""
        return self._over_all_counts(self.window_sf, 1.0)

    @property
    def cdf(self) -> np.ndarray:
        """P(X <= k) = 1 - S(k + 1), nondecreasing with ``cdf[n] == 1.0``."""
        out = np.append(1.0 - self.sf[1:], 1.0)
        out.flags.writeable = False
        return out

    @property
    def log_pmf(self) -> np.ndarray:
        """log P(X = k); ``-inf`` wherever ``pmf`` is zero or has underflowed."""
        with np.errstate(divide="ignore"):
            out = np.log(self.pmf)
        out.flags.writeable = False
        return out

    def tail(self, k: int) -> float:
        """P(X >= k), looked up in ``window_sf``."""
        j = k - self.lo
        if j <= 0:
            return 1.0
        if j >= len(self.window_sf):
            return 0.0
        return float(self.window_sf[j])


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


def _finalize(n: int, lo: int, pmf: np.ndarray) -> CountDistribution:
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
    return CountDistribution(n=n, lo=lo, window_pmf=pmf, window_sf=sf)


def _check_n(n: int) -> None:
    """Reject ``n`` outside 1..MAX_N before anything of size n is allocated."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > MAX_N:
        raise FeasibilityError(f"n={n} exceeds the largest supported n, {MAX_N}")


# Hoeffding: a sum of n independent trials with mean mu exceeds mu + d, or
# falls below mu - d, with probability at most exp(-2 d^2 / n) each.  At
# d^2 = n * _HOEFFDING that is 2^-1075, which float64 rounds to 0.0.
_HOEFFDING = 1075 * math.log(2) / 2


def _window(n: int, mean: float) -> tuple[int, int]:
    """The counts lo..hi outside which every pmf value, and S or 1 - S, is 0.0 in float64."""
    d = math.sqrt(n * _HOEFFDING)
    return max(0, math.floor(mean - d)), min(n, math.ceil(mean + d))


# stirlerr(k) = log(k!) - (k + 1/2) log(k) + k - log(2 pi) / 2 for k = 0..15,
# from mpmath at 50 digits (tests/test_dist.py recomputes them).  Entry 0 is
# never read: the end counts 0 and n have their own formula.
_STIRLERR_TABLE = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])

# Above 15, the Stirling series (1/12 - 1/(360k^2) + 1/(1260k^4) - ...) / k,
# with as many terms as each range of k needs to keep the dropped ones
# below 3e-17: (largest k not in the range, coefficients).
_STIRLING_SERIES = (
    (500, (1 / 12, -1 / 360)),
    (15, (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)),
)


def _stirlerr(first: int, last: int) -> np.ndarray:
    """stirlerr(k) for the integers k = first..last, one formula per range of k."""
    out = np.empty(last - first + 1)
    top = last + 1
    for bound, coefficients in _STIRLING_SERIES:
        start = max(first, bound + 1)
        if start < top:
            k = np.arange(start, top, dtype=float)
            inverse_square = 1.0 / (k * k)
            series = np.full(top - start, coefficients[-1])
            for coefficient in reversed(coefficients[:-1]):
                series *= inverse_square
                series += coefficient
            out[start - first : top - first] = series / k
            top = start
    out[: top - first] = _STIRLERR_TABLE[first:top]
    return out


def _bd0(first: int, last: int, mean: float, mean_error: float) -> np.ndarray:
    """Loader's deviance ``x log(x / mean) + mean - x`` for the integers x = first..last >= 1.

    ``mean + mean_error`` is the mean to twice the working precision, so
    ``x - mean`` carries no rounding.  Near the mean the terms cancel, and
    the series ``(x - mean) v + 2x (v^3/3 + v^5/5 + ...)`` in
    ``v = (x - mean) / (x + mean)`` is used instead, for ``|v| < 0.1``.
    """
    x = np.arange(first, last + 1, dtype=float)
    delta = x - mean
    delta -= mean_error
    out = np.empty(len(x))
    near_lo = min(max(first, math.floor(mean * 9 / 11) + 1), last + 1)
    near_hi = max(min(last, math.ceil(mean * 11 / 9) - 1), near_lo - 1)
    a, b = near_lo - first, near_hi - first + 1
    for part in (slice(0, a), slice(b, len(x))):
        if part.start < part.stop:
            # x / mean overflows only for a mean below n / 1.8e308; the pmf
            # at x >= 1 is then below 1e-301, and the infinite deviance makes it 0.
            with np.errstate(over="ignore"):
                far = np.log1p(delta[part] / mean)
            far *= x[part]
            far -= delta[part]
            out[part] = far
    if a < b:
        d, xs = delta[a:b], x[a:b]
        v = d / (xs + mean)
        largest = max(abs(float(v[0])), abs(float(v[-1])))
        terms = 1
        while largest ** (2 * terms + 1) > 2**-56:
            terms += 1
        v2 = v * v
        series = np.full(b - a, 1.0 / (2 * terms + 1))
        for j in range(terms - 1, 0, -1):
            series *= v2
            series += 1.0 / (2 * j + 1)
        series *= v2
        series *= v
        series *= 2 * xs
        series += d * v
        out[a:b] = series
    return out


def _split(numerator: int, denominator: int) -> tuple[float, float]:
    """``numerator / denominator`` as the nearest float and the float nearest the remainder."""
    head = numerator / denominator
    head_numerator, head_denominator = head.as_integer_ratio()
    remainder = numerator * head_denominator - head_numerator * denominator
    return head, remainder / (denominator * head_denominator)


def _binomial_window(n: int, p: float) -> tuple[int, np.ndarray]:
    """``(lo, pmf)``: the Binomial(n, p) pmf on its window lo..hi.

    Loader's saddle-point form (C. Loader 2000, "Fast and Accurate
    Computation of Binomial Probabilities", as in R's ``dbinom``):
    ``P(X = k) = exp(stirlerr(n) - stirlerr(k) - stirlerr(n - k)
    - bd0(k, np) - bd0(n - k, nq)) / sqrt(2 pi k (n - k) / n)``, and
    ``q^n``, ``p^n`` at the end counts.  With ``np`` and ``nq`` carried to
    twice the working precision, the exponent's absolute error stays near
    eps times its size, the log of the pmf.
    """
    if p == 0.0 or p == 1.0:
        return (0 if p == 0.0 else n), np.ones(1)
    if n == 1:
        return 0, np.array([1.0 - p, p])
    # n p and n q to twice the working precision, from p = num / den exactly.
    num, den = p.as_integer_ratio()
    mean, mean_error = _split(n * num, den)
    other, other_error = _split(n * (den - num), den)
    lo, hi = _window(n, mean)
    pmf = np.empty(hi - lo + 1)
    first, last = max(lo, 1), min(hi, n - 1)
    if first <= last:
        inner = pmf[first - lo : last - lo + 1]
        inner[:] = _stirlerr(n, n)[0]
        stirlerr_k = _stirlerr(first, last)
        inner -= stirlerr_k
        # Over the whole support 1..n-1, the counts n - k are the counts k reversed.
        inner -= (stirlerr_k if first == n - last else _stirlerr(n - last, n - first))[::-1]
        inner -= _bd0(first, last, mean, mean_error)
        inner -= _bd0(n - last, n - first, other, other_error)[::-1]
        np.exp(inner, out=inner)
        k = np.arange(first, last + 1, dtype=float)
        scale = k * (n - k)
        scale *= 2 * math.pi / n
        np.sqrt(scale, out=scale)
        inner /= scale
    if lo == 0:
        pmf[0] = math.exp(n * math.log1p(-p))
    if hi == n:
        pmf[-1] = math.exp(n * math.log(p))
    return lo, pmf


def binomial_distribution(n: int, p: float) -> CountDistribution:
    """Binomial(n, p) distribution of the number of correct guesses.

    The pmf is Loader's saddle-point form, evaluated only on the window
    of counts where it can exceed zero in float64; the upper tail is the
    compensated sum of the pmf from the top down.

    Raises:
        DomainError: if ``n < 1`` or ``p`` is outside [0, 1].
        FeasibilityError: if ``n > MAX_N`` or the pmf misses unit mass by over 1e-9.
    """
    _check_n(n)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    return _finalize(n, *_binomial_window(n, p))


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

    The trials that share a ``p_i`` have a binomial count, so the
    distribution is the convolution of one windowed binomial per distinct
    ``p_i``, taken in descending order of ``p_i`` and cut back after each
    step to the window of the trials so far.  Every permutation of the
    trials builds the same bits.

    Raises:
        DomainError: if the sequence is empty or any p_i is outside (0, 1].
        FeasibilityError: if ``n > MAX_N`` or the pmf misses unit mass by over 1e-9.
    """
    probs = [float(p) for p in probabilities]
    _check_n(len(probs))
    return _grouped_convolution(PerExampleLabels(probs))


# The running convolution is held times this power of two.  Then no value
# in a window, and no product of two of them that matters, is a subnormal
# float, which x86-64 multiplies far more slowly than a normal one (at
# n = 20,000, 27 against 7 ms of convolutions); every scaling is exact
# wherever the result is normal.
_CONVOLUTION_SCALE = 2.0**500


def _grouped_convolution(labels: PerExampleLabels) -> CountDistribution:
    lo, pmf = 0, np.full(1, _CONVOLUTION_SCALE)
    trials, mean = 0, 0.0
    for p, k in zip(labels.distinct, labels.multiplicities):
        shift, binomial = _binomial_window(k, p)
        pmf = np.convolve(pmf, binomial * _CONVOLUTION_SCALE)
        pmf *= 1 / _CONVOLUTION_SCALE
        lo += shift
        trials += k
        mean += k * p
        keep_lo, keep_hi = _window(trials, mean)
        start = max(keep_lo - lo, 0)
        pmf = pmf[start : keep_hi - lo + 1]
        lo += start
    return _finalize(trials, lo, pmf * (1 / _CONVOLUTION_SCALE))


def count_distribution(labels: LabelScheme, n: int) -> CountDistribution:
    """Distribution of correct guesses on an n-example task under ``labels``."""
    if isinstance(labels, UniformLabels):
        return binomial_distribution(n, labels.p)
    if labels.n != n:
        raise DomainError(f"per-example scheme has {labels.n} probabilities but n={n}")
    _check_n(n)
    return _grouped_convolution(labels)

"""Exact distributions of correct-guess counts for random classifiers.

A classifier that guesses every example uniformly at random gets ``X``
out of ``n`` examples right, and its accuracy is ``X / n``.  With the
same ``m`` labels on every example, ``X`` is Binomial(n, 1/m); when the
number of labels varies per example, ``X`` is Poisson binomial.  Both
are computed exactly, and only on the window of counts where the pmf is
not 0.0 in float64 (Chernoff's bound, within about 0.5% of the counts
whose pmf is nonzero): binomial pmfs by Loader's saddle-point form, a
Poisson binomial as the convolution of one binomial per distinct p_i,
cut back after each step to the entries whose tail mass is not
negligible, then the upper tail ``S(k) = P(X >= k)`` by one vectorised
suffix sum per build, compensated with the error-free TwoSum
transformation.  The cdf, the log-pmf and the
arrays over every count are derived from these; an independent
regularized-incomplete-beta binomial cdf serves as a cross-check.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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
        scheme = cls._from_count_histogram(Counter(counts))
        if scheme is not None:
            return scheme
        for i, c in enumerate(counts):
            if not _is_label_count(c):
                raise DomainError(f"label count {c!r} at index {i} must be a positive integer")
        i, c = next((i, c) for i, c in enumerate(counts) if _inverse(c) is None)
        raise DomainError(
            f"label count {c!r} at index {i} exceeds the largest float, "
            f"{sys.float_info.max:.4g}"
        )

    @classmethod
    def _from_count_histogram(cls, histogram: Mapping[object, int]) -> "PerExampleLabels | None":
        """The scheme with ``histogram[c]`` examples of each label count ``c``.

        None if a count is not a positive integer or its inverse is not a
        float; :meth:`from_label_counts` names it.
        """
        pairs = []
        for c, k in histogram.items():
            p = _inverse(c) if _is_label_count(c) else None
            if p is None:
                return None
            pairs.append((p, k))
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
        # The sum of every p_i, exactly: each p_i is an integer over a power
        # of two, so one common denominator holds them all, and the int/int
        # division rounds correctly, as fsum of the expanded p_i does.
        ratios = [p.as_integer_ratio() for p in self.distinct]
        denominator = max(den for _, den in ratios)
        numerator = sum(k * num * (denominator // den)
                        for (num, den), k in zip(ratios, self.multiplicities))
        return numerator / denominator / self.n

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


def _inverse(c: int) -> float | None:
    """1 / c for a label count; None if c does not fit in a float."""
    try:
        return 1.0 / int(c)
    except OverflowError:
        return None


@dataclass(frozen=True, eq=False)
class CountDistribution:
    """Exact distribution of a correct-guess count on 0..n, stored on its window.

    Only the counts ``lo..hi`` can have a pmf above zero in float64 (see
    the Chernoff window of ``_binomial_window`` / ``_upper_edge``).
    ``window_pmf`` and ``window_sf`` are read-only arrays of ``P(X = k)``
    and ``S(k) = P(X >= k)`` for those counts, indexed by ``k - lo``;
    ``window_sf[0] == 1.0`` exactly and ``S`` is nonincreasing.  Below
    the window ``S(k)`` is exactly 1.0, above it 0.0.  ``pmf``, ``sf``,
    ``cdf`` and ``log_pmf`` are the read-only arrays over every count
    ``0..n``, derived on each access.
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

    def tails(self, ks) -> np.ndarray:
        """P(X >= k) for each count in ``ks``, the values of :meth:`tail`, in one lookup."""
        j = np.asarray(ks, dtype=np.int64) - self.lo
        found = self.window_sf[np.clip(j, 0, len(self.window_sf) - 1)]  # window_sf[0] is 1.0
        return np.where(j < len(self.window_sf), found, 0.0)


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


# A tail mass below 2^-1075 rounds to 0.0 in float64: the level, in nats,
# beyond which a binomial window leaves its tails.
_NEGLIGIBLE = 1075 * math.log(2)


def _upper_edge(n: int, mean: float, other: float, level: float) -> int:
    """The least count above which Binomial(n, mean / n) has a mass below ``exp(-level)``.

    ``other`` is ``n - mean``.  Chernoff's bound is ``P(X >= x) <=
    exp(-g(x))`` for ``x >= mean``, with ``g(x) = x log(x / mean) + (n - x)
    log((n - x) / other)``, which is ``n`` times the Kullback-Leibler
    divergence of ``x / n`` from ``p``.  ``g`` is convex and rises from 0 at
    the mean, so Newton's method started above the root of ``g = level``
    (Pinsker's ``g(x) >= 2 (x - mean)^2 / n`` gives a start) descends to it
    without crossing it; every count past the root has ``g > level``.
    """
    x = mean + math.sqrt(n * level / 2)
    log_mean, log_other = math.log(mean), math.log(other)

    def g(x: float) -> float:
        return x * (math.log(x) - log_mean) + (n - x) * (math.log(n - x) - log_other)

    if x >= n - 1:
        if mean >= n - 1 or g(n - 1) < level:
            return n
        x = n - 1
    while True:
        slope = math.log(x) - log_mean - math.log(n - x) + log_other
        step = (g(x) - level) / slope
        x -= step
        if not step > 2**-10:
            return min(n, math.ceil(x))


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


def _bd0(
    first: int, last: int, mean: float, mean_error: float, span: tuple[int, int]
) -> np.ndarray:
    """Loader's deviance ``x log(x / mean) + mean - x`` for the integers x = first..last >= 1.

    ``mean + mean_error`` is the mean to twice the working precision, so
    ``x - mean`` carries no rounding.  Near the mean the terms cancel, and
    the series ``(x - mean) v + 2x (v^3/3 + v^5/5 + ...)`` in
    ``v = (x - mean) / (x + mean)`` is used instead, for ``|v| < 0.1``.
    The series has as many terms as the counts ``span[0]..span[1]``, which
    hold first..last, need; so a value does not depend on first and last.
    """
    x = np.arange(first, last + 1, dtype=float)
    delta = x - mean
    delta -= mean_error
    out = np.empty(len(x))
    near_first, near_last = math.floor(mean * 9 / 11) + 1, math.ceil(mean * 11 / 9) - 1
    near_lo = min(max(first, near_first), last + 1)
    near_hi = max(min(last, near_last), near_lo - 1)
    a, b = near_lo - first, near_hi - first + 1
    for part in (slice(0, a), slice(b, len(x))):
        if part.start < part.stop:
            if math.isinf((first + part.stop - 1) / mean):  # a mean below n / 1.8e308
                far = np.log(x[part]) - math.log(mean)
            else:
                far = np.log1p(delta[part] / mean)
            far *= x[part]
            far -= delta[part]
            out[part] = far
    if a < b:
        d, xs = delta[a:b], x[a:b]
        v = d / (xs + mean)
        ends = [float(count) for count in (max(span[0], near_first), min(span[1], near_last))]
        largest = max(abs((end - mean - mean_error) / (end + mean)) for end in ends)
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


def _binomial_window(
    n: int, p: float, level: float = _NEGLIGIBLE, scale_exponent: int = 0
) -> tuple[int, np.ndarray]:
    """``(lo, pmf)``: the Binomial(n, p) pmf times ``2^scale_exponent`` on its window lo..hi.

    The window is the Chernoff window of ``level``: the mass below ``lo``,
    and the mass above ``hi``, are each below ``exp(-level)``.  At the
    default, 2^-1075, every pmf value outside it is 0.0 in float64.

    The pmf is Loader's saddle-point form (C. Loader 2000, "Fast and
    Accurate Computation of Binomial Probabilities", as in R's ``dbinom``):
    ``P(X = k) = exp(stirlerr(n) - stirlerr(k) - stirlerr(n - k)
    - bd0(k, np) - bd0(n - k, nq)) / sqrt(2 pi k (n - k) / n)``, and
    ``q^n``, ``p^n`` at the end counts.  With ``np`` and ``nq`` carried to
    twice the working precision, the exponent's absolute error stays near
    eps times its size, the log of the pmf.  Each count is evaluated on its
    own, so a value does not depend on the window around it.

    The scaling is exact wherever the unscaled value is a normal float.
    Below ``exp(_DEEP)`` it is added to the exponent instead, so that a
    scaled value does not underflow where the unscaled one would.
    """
    scale = 2.0**scale_exponent
    if p == 0.0 or p == 1.0:
        return (0 if p == 0.0 else n), np.full(1, scale)
    if n == 1:
        return 0, np.array([(1.0 - p) * scale, p * scale])
    # n p and n q to twice the working precision, from p = num / den exactly.
    num, den = p.as_integer_ratio()
    mean, mean_error = _split(n * num, den)
    other, other_error = _split(n * (den - num), den)
    lo, hi = n - _upper_edge(n, other, mean, level), _upper_edge(n, mean, other, level)
    # Pinsker's bound puts every window of this level within reach of the mean.
    reach = math.sqrt(n * level / 2)
    span = max(math.floor(mean - reach), 1), min(math.ceil(mean + reach), n - 1)
    pmf = np.empty(hi - lo + 1)
    first, last = max(lo, 1), min(hi, n - 1)
    if first <= last:
        inner = pmf[first - lo : last - lo + 1]
        inner[:] = _stirlerr(n, n)[0]
        stirlerr_k = _stirlerr(first, last)
        inner -= stirlerr_k
        # Over the whole support 1..n-1, the counts n - k are the counts k reversed.
        inner -= (stirlerr_k if first == n - last else _stirlerr(n - last, n - first))[::-1]
        inner -= _bd0(first, last, mean, mean_error, span)
        inner -= _bd0(n - last, n - first, other, other_error, (n - span[1], n - span[0]))[::-1]
        # The exponent is concave in k, so it is least at an end.
        deep = None
        if scale_exponent and min(inner[0], inner[-1]) < _DEEP:
            deep = np.flatnonzero(inner < _DEEP)
            deep_values = np.exp(inner[deep] + scale_exponent * math.log(2))
        np.exp(inner, out=inner)
        if scale_exponent:
            inner *= scale
        if deep is not None:
            inner[deep] = deep_values
        k = np.arange(first, last + 1, dtype=float)
        spread = k * (n - k)
        spread *= 2 * math.pi / n
        np.sqrt(spread, out=spread)
        inner /= spread
    if lo == 0:
        pmf[0] = _scaled_exp(n * math.log1p(-p), scale_exponent)
    if hi == n:
        pmf[-1] = _scaled_exp(n * math.log(p), scale_exponent)
    return lo, pmf


# exp(x) for x >= _DEEP stays a normal float after the division by
# sqrt(2 pi k (n - k) / n) <= sqrt(pi MAX_N / 2).
_DEEP = -600.0


def _scaled_exp(x: float, scale_exponent: int) -> float:
    """``exp(x) * 2^scale_exponent``, scaled as ``_binomial_window`` scales."""
    if x < _DEEP and scale_exponent:
        return math.exp(x + scale_exponent * math.log(2))
    return math.ldexp(math.exp(x), scale_exponent)


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


# The running convolution is held times 2^_SCALE_EXPONENT.  Then no value
# in a window, and no product of two of them that matters, is a subnormal
# float, which x86-64 multiplies far more slowly than a normal one (at
# n = 20,000, 27 against 7 ms of convolutions); every scaling is exact
# wherever the result is normal.
_SCALE_EXPONENT = 500

# Each cut of the grouped convolution leaves out a mass below
# 2^-_CUT_EXPONENT / (number of groups); see _grouped_convolution.
_CUT_EXPONENT = 1078


def _grouped_convolution(labels: PerExampleLabels) -> CountDistribution:
    """The distribution of the count: one windowed binomial per distinct p_i, convolved.

    After each step the running pmf is cut back at both ends: the entries
    whose sum from that end stays below ``2^-1078 / G`` (``G`` groups) are
    dropped, read off the scaled pmf by :func:`_negligible`.  Each binomial
    window leaves out below ``2^-1078 / G`` at each end too (Chernoff).

    Why every value outside the final window is 0.0: follow the groups'
    counts one group at a time.  The running pmf holds exactly the mass of
    the paths whose every group count lies in its binomial's window and
    whose every running sum survived its cut, and it holds none outside its
    window.  Any other path was cut at its first step out, so the true mass
    outside the final window is at most what the ``4 G`` cuts left out,
    ``2^-1076``, even if the masses read are off by a factor of 2 (their
    rounding is far smaller).  The binomials are scaled so that none of
    their values underflows, so no path is lost to rounding either.  Each
    pmf value outside the window, and each ``S`` above it or ``1 - S``
    below it, is therefore below 2^-1075: 0.0 in float64.
    """
    groups = len(labels.distinct)
    level = _CUT_EXPONENT * math.log(2) + math.log(groups)
    budget = 2.0 ** (_SCALE_EXPONENT - _CUT_EXPONENT) / groups
    unscale = 2.0**-_SCALE_EXPONENT
    lo, pmf = 0, np.full(1, 2.0**_SCALE_EXPONENT)
    for p, k in zip(labels.distinct, labels.multiplicities):
        shift, binomial = _binomial_window(k, p, level, _SCALE_EXPONENT)
        pmf = np.convolve(pmf, binomial)
        pmf *= unscale
        start = _negligible(pmf, budget)
        pmf = pmf[start : len(pmf) - _negligible(pmf[::-1], budget)]
        lo += shift + start
    return _finalize(labels.n, lo, pmf * unscale)


def _negligible(values: np.ndarray, budget: float) -> int:
    """How many leading ``values`` (nonnegative) sum to below ``budget``.

    Adds the first few one by one, then reads prefixes eight times longer
    each round; so it reads about as many values as it counts.
    """
    total = 0.0
    for count, value in enumerate(values[:8].tolist()):
        total += value
        if total >= budget:
            return count
    width = 64
    while True:
        sums = np.cumsum(values[:width])
        count = int(np.searchsorted(sums, budget))
        if count < width or width >= len(values):
            return count
        width *= 8


def count_distribution(labels: LabelScheme, n: int) -> CountDistribution:
    """Distribution of correct guesses on an n-example task under ``labels``."""
    if isinstance(labels, UniformLabels):
        return binomial_distribution(n, labels.p)
    if labels.n != n:
        raise DomainError(f"per-example scheme has {labels.n} probabilities but n={n}")
    _check_n(n)
    return _grouped_convolution(labels)

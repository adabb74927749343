"""The maximum random baseline and its tail probabilities.

When an experiment evaluates ``t`` prompts (or classifiers, or
hyperparameter settings) on the same validation set and reports the best
accuracy, the fair comparison is the best of ``t`` random classifiers,
not a single one.  Everything here derives from the stored upper tail
``S(k) = P(X >= k)`` of one classifier: the best of ``t`` reaches ``k``
with probability ``1 - (1 - S(k))^t``, whose sum over ``k >= 1`` is ``n``
times the maximum random baseline.  p-values against both baselines are
lookups in these tails, and the least accuracies that clear either bar
are searches over them.

Everything here is a pure function of immutable inputs and is safe to
call concurrently.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dist import (
    CountDistribution,
    LabelScheme,
    PerExampleLabels,
    UniformLabels,
    _check_n,
    _integer,
    count_distribution,
    tail_sums,  # unused here; perfbench/tracing.py wraps orderstat.tail_sums
)
from .errors import DomainError

__all__ = [
    "COUNT_TOLERANCE",
    "TaskSpec",
    "MaxOrderDistribution",
    "BaselineReport",
    "accuracy_to_count",
    "max_order_distribution",
    "expected_standard_accuracy",
    "expected_max_accuracy",
    "expected_max_accuracies",
    "max_tail",
    "p_value_standard",
    "p_value_max",
    "tail_probability_standard",
    "tail_probability_max",
    "min_accuracy_beating_max",
    "min_accuracy_at_significance",
    "baseline_report",
]

# Accuracy on n examples is definitionally k/n; observed values farther than
# this, or than a quarter count, from every k/n are rejected, never rounded.
COUNT_TOLERANCE = 1e-6

# An accuracy at most 2^-_DUST_BITS relative above k/n is float dust on k/n.
# Its source is audit.empirical_expected_maxima, exactly k/n for one value or
# a t = 1 mean that is a count.  Its weights telescope, so at t = 1 the
# rounding of each P(V <= v) (u = 2^-53) moves the sum by at most u v_max;
# the power t multiplies that rounding by up to t.  Against 60-digit mpmath
# (30 random samples per N prompts, n 50..10^5, t 1..10^6) it was off by at
# most 2.0 eps at N = 100, 1.4 at N = 1000 and 27 at N = 10^4, and 132 on 8
# samples at N = 10^5, worst at large t; 2^-30 is about 3000 times what a
# linear growth in N predicts at N = 10^6.  At n <= 10^7 it is below
# 0.01 count, so it never reaches a second count.
_DUST_BITS = 30

# The base-distribution cache holds at most this many bytes of arrays.  A
# task's entry is 16 bytes per count of its window, at most about
# 16 * 38.6 * sqrt(n) bytes (at p = 1/2), so 32 MiB keeps 386 tasks of
# n = 20000 at m = 2, 649 at m = 10 and 494 per-example ones with counts 2
# to 10, or 54 of n = 10^6 at m = 2 and 90 at m = 10.
_BASE_CACHE_BYTES = 32 * 2**20

# Elements (float64) of each block of the t-by-k arrays that
# expected_max_accuracies and audit.empirical_expected_maxima sum row by
# row: a whole t axis then needs no more memory than one t at n >= 2^15,
# and 256 KiB per block below.
_T_BLOCK_ELEMENTS = 2**15


def _check_t(t: int) -> int:
    """``t`` as an integer in 1..the largest float: every formula raises a tail to the power t."""
    t = _integer(t, "t")
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    if t > sys.float_info.max:
        raise DomainError(f"t={t} exceeds the largest float, {sys.float_info.max:.4g}")
    return t


@dataclass(frozen=True)
class TaskSpec:
    """An evaluation setup: ``n`` examples, a label scheme, ``t`` reuses.

    ``t`` counts how many times the validation set is evaluated before
    the maximum accuracy is reported; ``t = 1`` is the true few-shot
    setting, where the maximum and standard baselines coincide.
    """

    n: int
    labels: LabelScheme
    t: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_n(self.n))
        object.__setattr__(self, "t", _check_t(self.t))
        if isinstance(self.labels, PerExampleLabels) and self.labels.n != self.n:
            raise DomainError(
                f"per-example scheme has {self.labels.n} probabilities but n={self.n}"
            )

    @classmethod
    def uniform(cls, n: int, m: int, t: int) -> "TaskSpec":
        """Spec for a task with ``m`` equally likely labels per example."""
        return cls(n=n, labels=UniformLabels(m), t=t)

    @functools.cached_property
    def _task(self) -> "TaskSpec":
        """This spec at t = 1, the key of its task's base distribution; made once per spec."""
        return TaskSpec(n=self.n, labels=self.labels, t=1)


@dataclass(frozen=True, eq=False)
class MaxOrderDistribution:
    """Distribution of the maximum count among ``t`` iid copies of ``base``."""

    base: CountDistribution
    t: int
    pmf_max: np.ndarray
    cdf_max: np.ndarray


@dataclass(frozen=True)
class BaselineReport:
    """Both baselines for one task, with p-values when an accuracy was observed.

    ``expected_max >= expected_standard`` always, with equality at t = 1;
    the p-values satisfy ``p_standard <= p_max``.
    """

    spec: TaskSpec
    expected_standard: float
    expected_max: float
    observed_accuracy: float | None = None
    p_standard: float | None = None
    p_max: float | None = None


_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "entries", "nbytes", "max_bytes"])


def _lru_by_bytes(max_bytes: int):
    """Like ``functools.lru_cache``, but bounded by the bytes of the cached distributions.

    Entries range from 16 bytes to 2 MB (n up to ``MAX_N``), so a bound on
    their number bounds neither memory nor how many tasks stay cached.
    The newest entry always stays, even when it alone exceeds the bound.
    A build runs outside the lock; two threads that miss on the same key
    both build it, and the first result to finish stays cached.
    """

    def decorate(build):
        entries: OrderedDict = OrderedDict()  # key -> (value, nbytes), oldest first
        lock = threading.Lock()
        hits = misses = held = 0

        @functools.wraps(build)
        def cached(key):
            nonlocal hits, misses, held
            with lock:
                found = entries.get(key)
                if found is not None:
                    entries.move_to_end(key)
                    hits += 1
                    return found[0]
                misses += 1
            value = build(key)
            size = value.window_pmf.nbytes + value.window_sf.nbytes
            with lock:
                if key not in entries:
                    entries[key] = (value, size)
                    held += size
                    while held > max_bytes and len(entries) > 1:
                        held -= entries.popitem(last=False)[1][1]
            return value

        def cache_info() -> _CacheInfo:
            with lock:
                return _CacheInfo(hits, misses, len(entries), held, max_bytes)

        def cache_clear() -> None:
            nonlocal hits, misses, held
            with lock:
                entries.clear()
                hits = misses = held = 0

        cached.cache_info = cache_info
        cached.cache_clear = cache_clear
        return cached

    return decorate


@_lru_by_bytes(_BASE_CACHE_BYTES)
def _base_distribution(spec: TaskSpec) -> CountDistribution:
    # Called with t = 1 specs only (see _base), so the key is the task.
    return count_distribution(spec.labels, spec.n)


def _base(spec: TaskSpec) -> CountDistribution:
    """One classifier's count distribution for ``spec``'s task, cached once for every t."""
    return _base_distribution(spec if spec.t == 1 else spec._task)


def accuracy_to_count(n: int, observed: float) -> int:
    """Map an observed accuracy to its integer correct count out of ``n``.

    Rejects values farther than ``COUNT_TOLERANCE``, or than a quarter count,
    from every k/n: silently rounding could flip a p-value at a decision
    boundary, and at any ``n`` no value between two counts maps to either.
    """
    n = _integer(n, "n")
    if not 0.0 <= observed <= 1.0:
        raise DomainError(f"accuracy must lie in [0, 1], got {observed}")
    if n > sys.float_info.max:
        raise DomainError(f"n={n} exceeds the largest float, {sys.float_info.max:.4g}")
    count = round(n * observed)
    if abs(n * observed - count) > min(COUNT_TOLERANCE * n, 0.25):
        raise DomainError(
            f"accuracy {observed!r} does not correspond to an integer count out of {n}"
        )
    return count


def max_order_distribution(base: CountDistribution, t: int) -> MaxOrderDistribution:
    """Sample-maximum distribution of ``t`` iid counts drawn from ``base``.

    ``P(max <= k) = (1 - S(k+1))^t`` is evaluated as ``exp(t log1p(-S(k+1)))``
    so that large ``t`` keeps full precision, and the pmf is the difference
    of consecutive cdf values.  ``t = 1`` returns the base pmf and
    ``1 - S(k+1)``.
    """
    t = _check_t(t)
    above = base.tails(np.arange(1, base.n + 2))  # S(k + 1) for k = 0..n
    if t == 1:
        pmf_max = base.pmf
        cdf_max = 1.0 - above
    else:
        with np.errstate(divide="ignore"):
            cdf_max = np.exp(t * np.log1p(-above))
        pmf_max = np.diff(cdf_max, prepend=0.0)
    for array in (pmf_max, cdf_max):
        array.flags.writeable = False
    return MaxOrderDistribution(base=base, t=t, pmf_max=pmf_max, cdf_max=cdf_max)


def expected_standard_accuracy(spec: TaskSpec) -> float:
    """Expected accuracy of a single random classifier (1/m, or the mean p_i)."""
    return spec.labels.expected_accuracy()


def expected_max_accuracy(spec: TaskSpec) -> float:
    """Expected best accuracy among ``t`` random classifiers.

    The maximum random baseline, ``(1/n) sum_{k>=1} (1 - (1 - S(k))^t)``;
    exactly :func:`expected_standard_accuracy` at ``t = 1``, where the
    base distribution is still built so an infeasible ``n`` fails at every ``t``.
    """
    return float(expected_max_accuracies(spec, [spec.t])[0])


def expected_max_accuracies(spec: TaskSpec, ts: Sequence[int]) -> np.ndarray:
    """:func:`expected_max_accuracy` of ``spec``'s task at each ``t`` in ``ts``, bit for bit.

    ``spec.t`` is not used, and ``ts`` may repeat and come in any order.
    At ``t = 1`` the value is :func:`expected_standard_accuracy`.  For the
    other ``t`` the terms for ``k = 1..lo`` are exactly 1, as ``S(k) = 1``
    there, and those above the window are 0.  Over the rest of the window,
    ``log1p(-S(k))`` is computed once, and the rows
    ``-expm1(t log1p(-S(k)))`` are summed over ``k`` a block of rows at a
    time, each block at most ``_T_BLOCK_ELEMENTS`` elements or one row;
    each row sum has the same bits as the row summed on its own.
    """
    for t in ts:
        _check_t(t)
    base = _base(spec)
    times = np.array([float(t) for t in ts])
    values = np.full(times.size, expected_standard_accuracy(spec))
    raised = times != 1
    if raised.any():
        times = times[raised]
        sums = np.empty(times.size)
        # t log(1 - S) is -inf at S = 1, or when it overflows: -expm1 gives 1, the exact limit.
        with np.errstate(divide="ignore", over="ignore"):
            log_below = np.log1p(-base.window_sf[1:])
            step = max(1, _T_BLOCK_ELEMENTS // max(1, log_below.size))
            for start in range(0, times.size, step):
                terms = np.multiply.outer(times[start : start + step], log_below)
                np.expm1(terms, out=terms)
                np.negative(terms, out=terms)
                sums[start : start + step] = terms.sum(axis=1)
        values[raised] = (sums + base.lo) / spec.n
    return values


def max_tail(tail, t):
    """P(best of t >= k) = 1 - (1 - S(k))^t from the tail(s) ``S(k)``, in expm1/log1p
    form, which stays accurate both when the tail is near 1 and deep in the upper tail.

    ``t`` is one integer t, or a float array of integral t, one for each
    tail.  Either way each value has the bits of its one-t call, and
    ``t = 1`` gives the tail itself.
    """
    if np.ndim(t) == 0:
        if _check_t(t) == 1:
            return tail
    else:
        valid = (t >= 1) & (t < np.inf) & (np.trunc(t) == t)
        if not valid.all():
            raise DomainError(f"t must hold integers >= 1, got {float(t[~valid][0])}")
    with np.errstate(divide="ignore", over="ignore"):
        raised = -np.expm1(t * np.log1p(-tail))
    return raised if np.ndim(t) == 0 else np.where(t == 1, tail, raised)


def p_value_standard(spec: TaskSpec, observed: float) -> float:
    """P(a single random classifier scores at least ``observed``).

    Equals ``1 - F(n*observed - 1)`` with ``F(-1) = 0``; the observed
    accuracy must map to an integer count.
    """
    return _base(spec).tail(accuracy_to_count(spec.n, observed))


def p_value_max(spec: TaskSpec, observed: float) -> float:
    """P(the best of ``t`` random classifiers scores at least ``observed``).

    Equals ``1 - F(n*observed - 1)^t``; coincides with
    :func:`p_value_standard` at ``t = 1``.
    """
    return float(max_tail(p_value_standard(spec, observed), spec.t))


def tail_probability_standard(spec: TaskSpec, accuracy: float) -> float:
    """P(a single random classifier scores at least ``accuracy``), any real value.

    Exact for integer-valued counts: ``P(X/n >= a) = P(X >= ceil(n a))``
    from the exact ``a``, except that float dust on a ``k/n`` reads as
    ``k/n`` (``_DUST_BITS``).  Unlike :func:`p_value_standard` this accepts
    accuracies between attainable values, e.g. an empirical expected maximum.
    """
    if not 0.0 <= accuracy <= 1.0:
        raise DomainError(f"accuracy must lie in [0, 1], got {accuracy}")
    return _base(spec).tail(_ceil_count(spec.n, accuracy))


def _ceil_count(n: int, accuracy: float) -> int:
    """``ceil(n a)`` from the exact float ``a``, or ``k`` when ``a`` is float dust on ``k/n``."""
    p, q = accuracy.as_integer_ratio()
    count = -(-n * p // q)  # ceil(n a), exactly
    if (n * p - (count - 1) * q) << _DUST_BITS <= (count - 1) * q:
        count -= 1  # float dust above (count - 1) / n
    return count


def tail_probability_max(spec: TaskSpec, accuracy: float) -> float:
    """P(the best of ``t`` random classifiers scores at least ``accuracy``)."""
    return float(max_tail(tail_probability_standard(spec, accuracy), spec.t))


def min_accuracy_beating_max(spec: TaskSpec) -> float | None:
    """Least attainable accuracy k/n that beats the maximum baseline ``E``.

    ``k/n`` beats ``E`` when the float ``k / n`` is greater, as in
    ``audit.categorize_observation``, so ``1/m`` at t = 1 does not.
    None when ``E`` is 1.0: every example is certain, or ``E`` rounds to 1.
    """
    return _least_accuracy_over(spec.n, expected_max_accuracy(spec))


def _least_accuracy_over(n: int, bar: float) -> float | None:
    """Least float ``k / n`` greater than ``bar``, or None when no ``k <= n`` gives one.

    The exact ``k/n`` first exceeds ``bar`` at ``k = floor(n bar) + 1``; when
    that ``k / n`` rounds to ``bar``, ``k + 1`` is the least.
    """
    p, q = bar.as_integer_ratio()
    k = n * p // q + 1
    if k / n <= bar:
        k += 1
    return k / n if k <= n else None


def min_accuracy_at_significance(spec: TaskSpec, alpha: float) -> float | None:
    """Least attainable accuracy whose max-baseline p-value is below ``alpha``.

    The first count where the (nonincreasing) p-value drops below
    ``alpha``, searched over the window of the base distribution; above
    it the p-value is 0.  None when even a perfect score is not significant.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    base = _base(spec)
    significant = np.append(max_tail(base.window_sf, spec.t) < alpha, True)
    k = base.lo + int(np.argmax(significant))
    return k / spec.n if k <= spec.n else None


def baseline_report(spec: TaskSpec, observed_accuracy: float | None = None) -> BaselineReport:
    """Both baselines for ``spec``, with p-values for an observed accuracy."""
    expected_standard = expected_standard_accuracy(spec)
    expected_max = expected_max_accuracy(spec)
    if observed_accuracy is None:
        return BaselineReport(spec, expected_standard, expected_max)
    tail = p_value_standard(spec, observed_accuracy)
    return BaselineReport(
        spec=spec,
        expected_standard=expected_standard,
        expected_max=expected_max,
        observed_accuracy=observed_accuracy,
        p_standard=tail,
        p_max=float(max_tail(tail, spec.t)),
    )

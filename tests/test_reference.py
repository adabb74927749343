"""The closed forms against a 40-digit mpmath reference.

E[max], ``p_value_standard`` and ``p_value_max`` must agree with the
reference to 1e-11 relative over n in {1, 2, 7, 50, 300, 2000}, m in
{2, 3, 10} and t in {1, 10, 10^4, 10^6}, plus two per-example schemes:
40 examples, and 2,000 examples with random counts in random order.
Tails below 1e-290 are skipped: there double
precision runs into its subnormal range.  The threshold solvers are
also checked against the count scans they replaced.
"""

import math
import random
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxrand import (
    PerExampleLabels,
    TaskSpec,
    UniformLabels,
    expected_max_accuracy,
    min_accuracy_at_significance,
    min_accuracy_beating_max,
    p_value_max,
    p_value_standard,
)
from maxrand.orderstat import _TIE_GUARD

mp = mpmath.mp.clone()
mp.dps = 40

RTOL = 1e-11
SMALLEST_TAIL = 1e-290
TS = [1, 10, 10**4, 10**6]
PER_EXAMPLE_COUNTS = [
    [2 + (7 * i) % 9 for i in range(40)],
    random.Random(2000).choices(range(2, 11), k=2000),
]
SCHEMES = [(n, UniformLabels(m)) for n in (1, 2, 7, 50, 300, 2000) for m in (2, 3, 10)]
SCHEMES += [(len(counts), PerExampleLabels.from_label_counts(counts))
            for counts in PER_EXAMPLE_COUNTS]


@lru_cache(maxsize=None)
def reference_tails(n: int, labels) -> list:
    """S(k) = P(X >= k) for k = 0..n at 40 digits."""
    if isinstance(labels, UniformLabels):
        m = labels.m
        pmf = [mp.mpf(math.comb(n, k) * (m - 1) ** (n - k)) / mp.mpf(m) ** n
               for k in range(n + 1)]
    else:
        # The pmf times the product of the counts: the coefficients of the
        # product of (count - 1 + x) over the examples, in exact integers.
        coefficients = np.ones(1, dtype=object)
        denominator = 1
        for p, multiplicity in zip(labels.distinct, labels.multiplicities):
            count = round(1 / p)
            for _ in range(multiplicity):
                grown = np.zeros(len(coefficients) + 1, dtype=object)
                grown[:-1] = coefficients * (count - 1)
                grown[1:] += coefficients
                coefficients = grown
            denominator *= count**multiplicity
        pmf = [mp.mpf(c) / denominator for c in coefficients]
    tails = [mp.mpf(0)] * (n + 1)
    running = mp.mpf(0)
    for k in range(n, -1, -1):
        running += pmf[k]
        tails[k] = running
    return tails


def best_of(tail, t: int):
    """1 - (1 - S)^t at 40 digits."""
    return mp.mpf(1) if tail == 1 else -mp.expm1(t * mp.log1p(-tail))


def relative_error(value: float, reference) -> float:
    return float(abs((mp.mpf(value) - reference) / reference))


def scheme_id(scheme) -> str:
    n, labels = scheme
    return f"n{n}-m{labels.m}" if isinstance(labels, UniformLabels) else f"n{n}-per-example"


@pytest.mark.parametrize("t", TS)
@pytest.mark.parametrize("scheme", SCHEMES, ids=scheme_id)
def test_expected_max_matches_the_reference(scheme, t):
    n, labels = scheme
    tails = reference_tails(n, labels)
    reference = mp.fsum(best_of(tails[k], t) for k in range(1, n + 1)) / n
    assert relative_error(expected_max_accuracy(TaskSpec(n=n, labels=labels, t=t)), reference) <= RTOL


@pytest.mark.parametrize("t", TS)
@pytest.mark.parametrize("scheme", SCHEMES, ids=scheme_id)
def test_p_values_match_the_reference(scheme, t):
    n, labels = scheme
    spec = TaskSpec(n=n, labels=labels, t=t)
    worst = 0.0
    for k, tail in enumerate(reference_tails(n, labels)):
        if tail < SMALLEST_TAIL:
            break
        worst = max(worst,
                    relative_error(p_value_standard(spec, k / n), tail),
                    relative_error(p_value_max(spec, k / n), best_of(tail, t)))
    assert worst <= RTOL


def least_count_above_by_scan(spec: TaskSpec) -> float | None:
    """The count scan min_accuracy_beating_max ran before it used floor(n * bar)."""
    target = expected_max_accuracy(spec)
    for k in range(spec.n + 1):
        if k / spec.n > target + _TIE_GUARD:
            return k / spec.n
    return None


def least_significant_count_by_scan(spec: TaskSpec, alpha: float) -> float | None:
    """The count scan min_accuracy_at_significance ran before its vector search."""
    for k in range(spec.n + 1):
        if p_value_max(spec, k / spec.n) < alpha:
            return k / spec.n
    return None


label_schemes = st.one_of(
    st.sampled_from([2, 3, 4, 10]).map(UniformLabels),
    st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=40).map(
        PerExampleLabels.from_label_counts
    ),
)


@given(
    labels=label_schemes,
    n=st.integers(min_value=1, max_value=3000),
    t=st.one_of(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=10**6)),
    alpha=st.floats(min_value=1e-12, max_value=0.999),
)
@settings(max_examples=150, deadline=None)
def test_threshold_solvers_agree_with_the_count_scans(labels, n, t, alpha):
    if isinstance(labels, PerExampleLabels):
        n = len(labels.probabilities)
    spec = TaskSpec(n=n, labels=labels, t=t)
    assert min_accuracy_beating_max(spec) == least_count_above_by_scan(spec)
    assert min_accuracy_at_significance(spec, alpha) == least_significant_count_by_scan(spec, alpha)

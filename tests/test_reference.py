"""The closed forms against a 40-digit mpmath reference.

Cells: n in {1, 2, 7, 50, 300, 2000, 10^5, 10^6}, m in {2, 3, 10} and
t in {1, 10, 10^4, 10^6}, plus two per-example schemes: 40 examples, and
2,000 examples with random counts in random order.

- E[max] must agree with the reference to ``EXPECTED_MAX_RTOL`` relative.
- A p-value whose reference tail is ``S(k)`` must agree to
  ``P_VALUE_C * (1 + |ln S(k)|) * eps``: ``exp`` amplifies the rounding of
  a log-pmf by the size of that log, so no double-precision pmf does
  better deep in a tail.  Tails below 1e-290 are skipped: there double
  precision runs into its subnormal range.

The binomial reference is evaluated at the double ``p = 1/m`` the program
is given, so it measures the pmf and the tail sums.  Rounding 1/m to a
double moves ``S(k)`` by about ``|k - np| eps / (2q)`` relative on its own
(up to 1.6e-12 at n = 10^6, m = 3).  The per-example reference uses the
exact 1/count.  Beyond 2,000 examples the binomial reference covers
``np +- 40 SD``, where the mass outside is below 1e-340.  The threshold
solvers are also checked against the count scans they replaced.
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
    count_distribution,
    expected_max_accuracy,
    min_accuracy_at_significance,
    min_accuracy_beating_max,
    p_value_max,
    p_value_standard,
)
from maxrand.orderstat import _TIE_GUARD

mp = mpmath.mp.clone()
mp.dps = 40

EPS = 2.0**-52
EXPECTED_MAX_RTOL = 1e-15
P_VALUE_C = 8
SMALLEST_TAIL = 1e-290
# Terms of n E[max] within this of 1 count as 1, and those below it as 0.
NEGLIGIBLE = 1e-30
TS = [1, 10, 10**4, 10**6]
LARGE_N = (10**5, 10**6)
# At the large n, every this-many-th count is checked for its p-values.
P_VALUE_STRIDE = 97
PER_EXAMPLE_COUNTS = [
    [2 + (7 * i) % 9 for i in range(40)],
    random.Random(2000).choices(range(2, 11), k=2000),
]
SCHEMES = [(n, UniformLabels(m)) for n in (1, 2, 7, 50, 300, 2000, *LARGE_N) for m in (2, 3, 10)]
SCHEMES += [(len(counts), PerExampleLabels.from_label_counts(counts))
            for counts in PER_EXAMPLE_COUNTS]


@lru_cache(maxsize=None)
def reference_tails(n: int, labels) -> tuple[int, list]:
    """(lo, tails) with tails[j] = S(lo + j) = P(X >= lo + j) at 40 digits.

    Below ``lo`` the tail is 1 and above the last count 0, to within the
    mass the reference leaves out.
    """
    if isinstance(labels, UniformLabels):
        p = mp.mpf(labels.p)
        q = 1 - p
        lo, hi = 0, n
        if n > 2000:
            sd = math.sqrt(n * labels.p * (1 - labels.p))
            lo = max(0, math.floor(n * labels.p - 40 * sd))
            hi = min(n, math.ceil(n * labels.p + 40 * sd))
        pmf = [mp.exp(mp.loggamma(n + 1) - mp.loggamma(lo + 1) - mp.loggamma(n - lo + 1)
                      + lo * mp.log(p) + (n - lo) * mp.log(q))]
        ratio = p / q
        for k in range(lo, hi):
            pmf.append(pmf[-1] * (n - k) / (k + 1) * ratio)
    else:
        # The pmf times the product of the counts: the coefficients of the
        # product of (count - 1 + x) over the examples, in exact integers.
        lo = 0
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
    tails = [mp.mpf(0)] * len(pmf)
    running = mp.mpf(0)
    for j in range(len(pmf) - 1, -1, -1):
        running += pmf[j]
        tails[j] = running
    return lo, tails


def best_of(tail, t: int):
    """1 - (1 - S)^t at 40 digits."""
    if t == 1 or tail == 1:
        return tail
    return -mp.expm1(t * mp.log1p(-tail))


def reference_expected_max(n: int, labels, t: int):
    """(1/n) sum over k >= 1 of 1 - (1 - S(k))^t, each term to within NEGLIGIBLE."""
    lo, tails = reference_tails(n, labels)
    total = mp.mpf(max(lo - 1, 0))  # k = 1..lo-1, where S(k) = 1
    for j in range(max(1 - lo, 0), len(tails)):
        tail = tails[j]
        below = float(1 - tail)
        if below <= 0.0 or t * math.log(below) < math.log(NEGLIGIBLE):
            total += 1
        elif t * float(tail) >= NEGLIGIBLE:
            total += best_of(tail, t)
    return total / n


def relative_error(value: float, reference) -> float:
    return float(abs((mp.mpf(value) - reference) / reference))


def scheme_id(scheme) -> str:
    n, labels = scheme
    return f"n{n}-m{labels.m}" if isinstance(labels, UniformLabels) else f"n{n}-per-example"


@pytest.mark.parametrize("t", TS)
@pytest.mark.parametrize("scheme", SCHEMES, ids=scheme_id)
def test_expected_max_matches_the_reference(scheme, t):
    n, labels = scheme
    reference = reference_expected_max(n, labels, t)
    error = relative_error(expected_max_accuracy(TaskSpec(n=n, labels=labels, t=t)), reference)
    assert error <= EXPECTED_MAX_RTOL


@pytest.mark.parametrize("t", TS)
@pytest.mark.parametrize("scheme", SCHEMES, ids=scheme_id)
def test_p_values_match_the_reference(scheme, t):
    n, labels = scheme
    spec = TaskSpec(n=n, labels=labels, t=t)
    lo, tails = reference_tails(n, labels)
    stride = P_VALUE_STRIDE if n in LARGE_N else 1
    worst = 0.0
    for j in range(0, len(tails), stride):
        tail = tails[j]
        if tail < SMALLEST_TAIL:
            break
        k = lo + j
        bound = P_VALUE_C * (1 + abs(float(mp.log(tail)))) * EPS
        worst = max(worst,
                    relative_error(p_value_standard(spec, k / n), tail) / bound,
                    relative_error(p_value_max(spec, k / n), best_of(tail, t)) / bound)
    assert worst <= 1.0


def test_grouped_per_example_tails_are_as_close_as_the_dynamic_program_was():
    # Against the exact-integer reference, the one-trial-at-a-time dynamic
    # program this route replaced was at worst 4.1e-14 on this scheme.
    n, labels = SCHEMES[-1]
    lo, tails = reference_tails(n, labels)
    sf = count_distribution(labels, n).sf
    worst = max(relative_error(sf[k], tail) for k, tail in enumerate(tails)
                if tail >= SMALLEST_TAIL)
    assert worst <= 2 * 4.1e-14


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

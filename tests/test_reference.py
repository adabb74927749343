"""The closed forms against a 40-digit mpmath reference.

Cells: n in {1, 2, 7, 50, 300, 2000, 10^5, 10^6}, m in {2, 3, 10} and
t in {1, 10, 10^4, 10^6}, plus three per-example schemes: 40 examples,
and 2,000 and 20,000 examples with random counts 2 to 10 in random order
(the last is the documented per-example n and the benchmark's shape).

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
``np +- 40 SD``, where the mass outside is below 1e-340.  Beyond 2,000
examples the per-example reference is a one-example-at-a-time dynamic
program in double-double arithmetic (see ``double_double_pmf``).  The
threshold solvers are also checked against the count scans they replaced.
The empirical estimator behind ``curve`` must agree with its reference to
``ESTIMATOR_RTOL`` relative at 10^4 prompts.
"""

import math
import random
from collections import Counter
from fractions import Fraction
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
    empirical_expected_maxima,
    expected_max_accuracy,
    min_accuracy_at_significance,
    min_accuracy_beating_max,
    p_value_max,
    p_value_standard,
)
from oracles import expanded_probabilities

mp = mpmath.mp.clone()
mp.dps = 40

EPS = 2.0**-52
EXPECTED_MAX_RTOL = 1e-15
P_VALUE_C = 8
SMALLEST_TAIL = 1e-290
# Before its weights telescoped, the estimator was off by about 490 eps on the
# samples of test_empirical_estimator_at_ten_thousand_prompts_matches_the_reference.
ESTIMATOR_RTOL = 64 * EPS
# Terms of n E[max] within this of 1 count as 1, and those below it as 0.
NEGLIGIBLE = 1e-30
TS = [1, 10, 10**4, 10**6]
LARGE_N = (10**5, 10**6)
# At the large n, every this-many-th count is checked for its p-values.
P_VALUE_STRIDE = 97
PER_EXAMPLE_COUNTS = [
    [2 + (7 * i) % 9 for i in range(40)],
    random.Random(2000).choices(range(2, 11), k=2000),
    random.Random(20_000).choices(range(2, 11), k=20_000),
]
SCHEMES = [(n, UniformLabels(m)) for n in (1, 2, 7, 50, 300, 2000, *LARGE_N) for m in (2, 3, 10)]
SCHEMES += [(len(counts), PerExampleLabels.from_label_counts(counts))
            for counts in PER_EXAMPLE_COUNTS]


def per_example_scheme(n: int):
    return next(scheme for scheme in SCHEMES[-len(PER_EXAMPLE_COUNTS):] if scheme[0] == n)


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
    elif n > 2000:
        lo, pmf = double_double_pmf(tuple(round(1 / p) for p in expanded_probabilities(labels)))
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


# Dekker's splitting constant, 2^27 + 1, and the double-double program's scale.
SPLIT = 2.0**27 + 1
DD_SCALE = 2**600


def dekker_split(x):
    """x = high + low, each half a double's significand: their products are exact."""
    t = SPLIT * x
    high = t - (t - x)
    return high, x - high


def dd_times(value, split, factor):
    """A double-double array ``value`` times a double-double scalar ``factor``."""
    (high, low), (split_high, split_low), (factor_high, factor_low) = value, split, factor
    product = high * factor_high
    fh, fl = dekker_split(factor_high)
    error = ((split_high * fh - product) + split_high * fl + split_low * fh) + split_low * fl
    error += high * factor_low + low * factor_high
    total = product + error
    return total, error - (total - product)


def dd_plus(a, b):
    """The sum of two double-double arrays of nonnegative values."""
    total = a[0] + b[0]
    back = total - a[0]
    error = (a[0] - (total - back)) + (b[0] - back)
    error += a[1] + b[1]
    result = total + error
    return result, error - (result - total)


def as_double_double(x: Fraction) -> tuple[float, float]:
    high = float(x)
    return high, float(x - Fraction(high))


@lru_cache(maxsize=None)
def double_double_pmf(counts: tuple[int, ...]) -> tuple[int, list]:
    """(lo, pmf) with pmf[j] = P(X = lo + j), from a dynamic program in double-double.

    The examples are taken one at a time, in the order given, each with
    its exact 1/count as a double-double (TwoSum and Dekker's TwoProduct,
    about 106 bits), so the relative error after all 2 * 10^4 of them is
    near 1e-27.  The pmf is held times 2^600, so nothing that matters is
    subnormal, and only on mean +- 50 SD of the whole sum, slid along with
    the running mean: for the counts 2 to 10 at n = 2 * 10^4 the mass
    beyond +50 SD is below 1e-482 and below -50 SD below 1e-670 (Chernoff),
    so over every step the mass left out stays below 1e-477.  Shares no
    code with the grouped convolution.
    """
    factors = {c: (as_double_double(Fraction(1, c)), as_double_double(1 - Fraction(1, c)))
               for c in set(counts)}
    sd = math.sqrt(sum((1 / c) * (1 - 1 / c) for c in counts))
    half = math.ceil(50 * sd)
    size = 2 * half + 2
    value = (np.zeros(size), np.zeros(size))
    value[0][0] = float(DD_SCALE)
    lo, running_mean = 0, 0.0
    for c in counts:
        p, q = factors[c]
        split = dekker_split(value[0])
        stay = dd_times(value, split, q)
        up = [np.concatenate(([0.0], part[:-1])) for part in dd_times(value, split, p)]
        value = dd_plus(stay, up)
        running_mean += 1 / c
        shift = max(0, math.floor(running_mean - half)) - lo
        if shift > 0:
            value = tuple(np.concatenate((part[shift:], np.zeros(shift))) for part in value)
            lo += shift
    return lo, [(mp.mpf(high) + mp.mpf(low)) / DD_SCALE
                for high, low in zip(value[0].tolist(), value[1].tolist())]


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
    stride = P_VALUE_STRIDE if n > 2000 else 1
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
    n, labels = per_example_scheme(2000)
    lo, tails = reference_tails(n, labels)
    dist = count_distribution(labels, n)
    worst = max(relative_error(dist.tail(k), tail) for k, tail in enumerate(tails)
                if tail >= SMALLEST_TAIL)
    assert worst <= 2 * 4.1e-14


def test_per_example_window_at_the_documented_n_holds_every_nonzero_value():
    n, labels = per_example_scheme(20_000)
    lo, pmf = double_double_pmf(tuple(round(1 / p) for p in expanded_probabilities(labels)))
    dist = count_distribution(labels, n)
    assert lo < dist.lo and dist.hi < lo + len(pmf) - 1
    tiny = mp.mpf(2) ** -1075
    assert sum(pmf[: dist.lo - lo]) < tiny and sum(pmf[dist.hi + 1 - lo :]) < tiny


def test_per_example_tails_at_the_documented_n_are_as_close_as_on_hoeffding_windows():
    # With Hoeffding windows on every binomial and on the running sum, the
    # worst S(k) was 2.58 (1 + |ln S(k)|) eps from the reference, 3.04e-14
    # relative at its worst: the tightened windows must not lose accuracy.
    n, labels = per_example_scheme(20_000)
    lo, tails = reference_tails(n, labels)
    dist = count_distribution(labels, n)
    worst = max(relative_error(dist.tail(lo + j), tail) / ((1 + abs(float(mp.log(tail)))) * EPS)
                for j, tail in enumerate(tails) if tail >= SMALLEST_TAIL)
    assert worst <= 2.59


def least_count_above_by_scan(spec: TaskSpec) -> float | None:
    """The least k/n above the maximum baseline by a scan of the floats k / n."""
    target = expected_max_accuracy(spec)
    for k in range(spec.n + 1):
        if k / spec.n > target:
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
        n = labels.n
    spec = TaskSpec(n=n, labels=labels, t=t)
    assert min_accuracy_beating_max(spec) == least_count_above_by_scan(spec)
    assert min_accuracy_at_significance(spec, alpha) == least_significant_count_by_scan(spec, alpha)


def reference_empirical_expected_max(values, t: int):
    """sum over distinct v of v (P(V <= v)^t - P(V < v)^t) for the sample, at 40 digits."""
    counts = Counter(values)
    total, below = mp.mpf(0), 0
    for value in sorted(counts):
        at_most = below + counts[value]
        total += mp.mpf(value) * ((mp.mpf(at_most) / len(values)) ** t
                                  - (mp.mpf(below) / len(values)) ** t)
        below = at_most
    return total


@pytest.mark.parametrize("seed", [1, 2])
def test_empirical_estimator_at_ten_thousand_prompts_matches_the_reference(seed):
    # Accuracies k/n of 10^4 prompts with a small mean and a wide spread,
    # where the rounding of the weights showed most.
    rng = random.Random(seed)
    n = 10**5
    values = [min(n, max(0, round(n * rng.gauss(0.2, 0.15)))) / n for _ in range(10**4)]
    ts = [1, 2, 12, 500, 10**4]
    for t, value in zip(ts, empirical_expected_maxima(values, ts)):
        reference = reference_empirical_expected_max(values, t)
        assert relative_error(value, reference) <= ESTIMATOR_RTOL, t

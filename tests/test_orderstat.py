import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import maxrand.orderstat as orderstat_mod
from maxrand import (
    DomainError,
    PerExampleLabels,
    TaskSpec,
    UniformLabels,
    accuracy_to_count,
    baseline_report,
    binomial_distribution,
    count_distribution,
    expected_max_accuracies,
    expected_max_accuracy,
    expected_standard_accuracy,
    max_order_distribution,
    min_accuracy_at_significance,
    min_accuracy_beating_max,
    p_value_max,
    p_value_standard,
    tail_probability_max,
    tail_probability_standard,
)
from maxrand.orderstat import max_tail
from oracles import expected_accuracy_of_pmf, max_tuple_enumeration_pmf


class TestMaxOrderDistribution:
    def test_t_one_is_the_base_distribution(self):
        base = binomial_distribution(2, 0.5)
        mo = max_order_distribution(base, 1)
        assert_array_equal(mo.pmf_max, base.pmf)
        assert_array_equal(mo.cdf_max, 1.0 - base.tails(np.arange(1, 4)))

    def test_two_classifiers_single_example(self):
        # four joint outcomes: both wrong with probability 1/4
        mo = max_order_distribution(binomial_distribution(1, 0.5), 2)
        assert_allclose(mo.pmf_max, [0.25, 0.75], atol=1e-12)

    def test_two_classifiers_two_examples(self):
        # sixteen joint outcomes: max count 0/1/2 with weights 1/16, 8/16, 7/16
        mo = max_order_distribution(binomial_distribution(2, 0.5), 2)
        assert_allclose(mo.pmf_max, [0.0625, 0.5, 0.4375], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("p", [0.25, 1 / 3, 0.5])
    def test_against_tuple_enumeration(self, n, t, p):
        base = binomial_distribution(n, p)
        mo = max_order_distribution(base, t)
        assert_allclose(mo.pmf_max, max_tuple_enumeration_pmf(list(base.pmf), t), atol=1e-12)

    @pytest.mark.parametrize("n", [5, 50, 311])
    @pytest.mark.parametrize("t", [2, 7, 10_000])
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
    def test_cdf_max_is_cdf_power_t(self, n, t, p):
        base = binomial_distribution(n, p)
        mo = max_order_distribution(base, t)
        cdf = 1.0 - base.tails(np.arange(1, n + 2))
        assert np.max(np.abs(mo.cdf_max - cdf**t)) < 1e-12
        assert abs(math.fsum(mo.pmf_max) - 1.0) < 1e-10
        assert_allclose(np.cumsum(mo.pmf_max)[-1], 1.0, atol=1e-10)
        assert np.all(mo.pmf_max >= 0)
        # pmf is exactly the difference of consecutive cdf values
        diffs = np.diff(mo.cdf_max, prepend=0.0)
        assert np.max(np.abs(mo.pmf_max - diffs)) < 1e-12

    def test_rejects_t_below_one(self):
        with pytest.raises(DomainError):
            max_order_distribution(binomial_distribution(2, 0.5), 0)


class TestExpectedMaxAccuracy:
    def test_hundred_examples_ten_evaluations(self):
        value = expected_max_accuracy(TaskSpec.uniform(100, 2, 10))
        assert abs(value - 0.575) <= 0.005

    def test_t_one_equals_success_probability(self):
        for n in (7, 37, 50, 300, 2000, 20000):
            for m in (2, 3, 4, 7, 10):
                spec = TaskSpec.uniform(n, m, 1)
                assert expected_max_accuracy(spec) == expected_standard_accuracy(spec) == 1.0 / m

    def test_two_examples_two_classifiers(self):
        # (0*1/16 + 1*8/16 + 2*7/16) / 2 = 11/16 from the 16-outcome enumeration
        value = expected_max_accuracy(TaskSpec.uniform(2, 2, 2))
        assert abs(value - 0.6875) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_against_tuple_enumeration(self, n, t, m):
        base = binomial_distribution(n, 1.0 / m)
        expected = expected_accuracy_of_pmf(max_tuple_enumeration_pmf(list(base.pmf), t))
        assert abs(expected_max_accuracy(TaskSpec.uniform(n, m, t)) - expected) < 1e-12

    @pytest.mark.parametrize("n", [10, 100, 1000])
    @pytest.mark.parametrize("m", [2, 4])
    def test_nondecreasing_in_t(self, n, m):
        values = [
            expected_max_accuracy(TaskSpec.uniform(n, m, t))
            for t in (1, 2, 5, 10, 50, 200, 1000)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_per_example_scheme_at_t_one(self):
        labels = PerExampleLabels.from_label_counts([2, 3, 3, 5, 4])
        spec = TaskSpec(n=5, labels=labels, t=1)
        assert expected_max_accuracy(spec) == labels.expected_accuracy()

    def test_per_example_scheme_against_enumeration(self):
        labels = PerExampleLabels.from_label_counts([2, 3, 4])
        spec = TaskSpec(n=3, labels=labels, t=3)
        base = count_distribution(labels, 3)
        expected = expected_accuracy_of_pmf(max_tuple_enumeration_pmf(list(base.pmf), 3))
        assert abs(expected_max_accuracy(spec) - expected) < 1e-12

    def test_per_example_scheme_obeys_the_power_identity(self):
        labels = PerExampleLabels.from_label_counts([2, 3, 4, 5, 2, 3])
        base = count_distribution(labels, 6)
        cdf = 1.0 - base.tails(np.arange(1, 8))
        for t in (2, 17):
            mo = max_order_distribution(base, t)
            assert np.max(np.abs(mo.cdf_max - cdf**t)) < 1e-12
        values = [
            expected_max_accuracy(TaskSpec(n=6, labels=labels, t=t)) for t in (1, 2, 5, 50)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "n, labels",
        [
            (2000, UniformLabels(2)),
            (300, PerExampleLabels.from_label_counts([2 + (7 * i) % 9 for i in range(300)])),
        ],
        ids=["uniform", "per-example"],
    )
    def test_one_base_build_serves_every_t(self, monkeypatch, n, labels):
        builds = []

        def counting(labels, n):
            builds.append((labels, n))
            return count_distribution(labels, n)

        monkeypatch.setattr(orderstat_mod, "count_distribution", counting)
        orderstat_mod._base_distribution.cache_clear()
        for t in (1, 10, 100):
            expected_max_accuracy(TaskSpec(n=n, labels=labels, t=t))
        info = orderstat_mod._base_distribution.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert builds == [(labels, n)]

    def test_base_cache_keeps_more_small_tasks_than_it_used_to_count(self):
        # The cache used to hold 256 entries whatever their size; 300 small
        # tasks fit in its byte bound, so a second pass over them only hits.
        orderstat_mod._base_distribution.cache_clear()
        specs = [TaskSpec.uniform(n, 2, 1) for n in range(10, 310)]
        for _ in range(2):
            for spec in specs:
                expected_max_accuracy(spec)
        info = orderstat_mod._base_distribution.cache_info()
        assert (info.misses, info.hits, info.entries) == (300, 300, 300)
        assert info.nbytes == sum(16 * (spec.n + 1) for spec in specs)
        orderstat_mod._base_distribution.cache_clear()
        assert orderstat_mod._base_distribution.cache_info()[:4] == (0, 0, 0, 0)

    def test_byte_bound_evicts_least_recently_used_and_keeps_the_newest(self):
        built = []

        def build(n):
            built.append(n)
            return count_distribution(UniformLabels(2), n)

        cached = orderstat_mod._lru_by_bytes(16 * (3 + 4 + 5))(build)  # n = 2, 3, 4 fit
        for n in (2, 3, 4, 2, 5):  # the hit on 2 makes 3 the oldest; 5 evicts it, then 4
            cached(n)
        info = cached.cache_info()
        assert (info.hits, info.misses, info.entries, info.nbytes) == (1, 4, 2, 16 * (3 + 6))
        cached(2)
        cached(3)
        assert built == [2, 3, 4, 5, 3]
        cached(100)  # larger than the whole bound: it stays, alone
        assert cached.cache_info()[2:4] == (1, 16 * 101)
        assert cached(100) is cached(100)


def expected_max_one_t(spec, t):
    """The maximum baseline at one t, summed over the window on its own."""
    if t == 1:
        return expected_standard_accuracy(spec)
    base = count_distribution(spec.labels, spec.n)
    with np.errstate(divide="ignore"):
        window = float((-np.expm1(t * np.log1p(-base.window_sf[1:]))).sum())
    return (window + base.lo) / spec.n


class TestExpectedMaxAccuracies:
    TS = [1, 2, 3, 7, 10, 50, 199, 200, 10**4, 10**6]

    @pytest.mark.parametrize("n", [1, 10, 137, 2000, 20_000, 40_000])
    @pytest.mark.parametrize("m", [2, 3, 10])
    def test_each_t_has_the_bits_of_its_own_sum(self, n, m):
        spec = TaskSpec.uniform(n, m, 1)
        values = expected_max_accuracies(spec, self.TS)
        assert [float(v) for v in values] == [expected_max_one_t(spec, t) for t in self.TS]

    def test_per_example_scheme_and_small_blocks(self, monkeypatch):
        labels = PerExampleLabels.from_label_counts([2 + (5 * i) % 7 for i in range(300)])
        spec = TaskSpec(n=300, labels=labels, t=4)
        ts = list(range(1, 41))
        whole = expected_max_accuracies(spec, ts)
        monkeypatch.setattr(orderstat_mod, "_T_BLOCK_ELEMENTS", 700)  # two rows per block
        assert_array_equal(expected_max_accuracies(spec, ts), whole)
        assert [float(v) for v in whole] == [expected_max_one_t(spec, t) for t in ts]

    def test_spec_t_is_not_used_and_a_scalar_call_agrees(self):
        spec = TaskSpec.uniform(100, 2, 10)
        assert expected_max_accuracies(spec, [10, 1]).tolist() == [
            expected_max_accuracy(spec), 0.5]
        assert expected_max_accuracies(spec, []).shape == (0,)

    def test_rejects_t_below_one(self):
        with pytest.raises(DomainError, match="t must be >= 1, got 0"):
            expected_max_accuracies(TaskSpec.uniform(10, 2, 1), [3, 0])


class TestPValues:
    def test_zero_accuracy_has_p_value_one(self):
        for spec in (TaskSpec.uniform(10, 2, 1), TaskSpec.uniform(100, 2, 7)):
            assert p_value_standard(spec, 0.0) == 1.0
            assert p_value_max(spec, 0.0) == 1.0

    def test_perfect_score_on_two_examples(self):
        spec = TaskSpec.uniform(2, 2, 1)
        assert abs(p_value_standard(spec, 1.0) - 0.25) < 1e-15
        assert abs(p_value_standard(spec, 0.5) - 0.75) < 1e-15

    def test_max_p_value_two_classifiers(self):
        spec = TaskSpec.uniform(2, 2, 2)
        assert abs(p_value_max(spec, 1.0) - 0.4375) < 1e-15

    @pytest.mark.parametrize("t", [0, -1, 10**400, 2.5, math.nan, math.inf, np.array([2.0, np.inf]),
                                   np.array([2.5, 2.0]), np.array([np.nan, 2.0])])
    def test_max_tail_checks_t(self, t):
        with pytest.raises(DomainError, match="t"):
            max_tail(0.5, t)
        with pytest.raises(DomainError, match="t"):
            max_tail(np.array([1.0, 0.5]), t)

    def test_t_one_p_values_coincide_exactly(self):
        spec = TaskSpec.uniform(30, 3, 1)
        for k in range(31):
            assert p_value_max(spec, k / 30) == p_value_standard(spec, k / 30)

    @pytest.mark.parametrize("t", [1, 2, 10, 200, 10_000])
    def test_max_p_value_dominates_standard(self, t):
        spec = TaskSpec.uniform(25, 3, t)
        for k in range(26):
            p_std = p_value_standard(spec, k / 25)
            p_mx = p_value_max(spec, k / 25)
            assert 0.0 <= p_std <= 1.0
            assert 0.0 <= p_mx <= 1.0
            assert p_std <= p_mx

    def test_nonincreasing_in_observed_accuracy(self):
        spec = TaskSpec.uniform(30, 3, 5)
        p_stds = [p_value_standard(spec, k / 30) for k in range(31)]
        p_maxs = [p_value_max(spec, k / 30) for k in range(31)]
        assert all(a >= b for a, b in zip(p_stds, p_stds[1:]))
        assert all(a >= b for a, b in zip(p_maxs, p_maxs[1:]))

    @given(
        n=st.integers(min_value=1, max_value=60),
        m=st.sampled_from([2, 3, 4, 10]),
        t=st.integers(min_value=1, max_value=500),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_ordering_property(self, n, m, t, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        spec = TaskSpec.uniform(n, m, t)
        p_std = p_value_standard(spec, k / n)
        p_mx = p_value_max(spec, k / n)
        assert 0.0 <= p_std <= p_mx <= 1.0
        if t == 1:
            assert p_std == p_mx

    def test_deep_tail_stays_positive(self):
        # 1 - F would round to zero here; the tail summation must not
        spec = TaskSpec.uniform(100, 2, 10)
        p = p_value_standard(spec, 1.0)
        assert 0.0 < p < 1e-29
        assert p_value_max(spec, 1.0) > p

    def test_rejects_non_integral_accuracy(self):
        spec = TaskSpec.uniform(100, 2, 1)
        with pytest.raises(DomainError):
            p_value_standard(spec, 0.503)
        with pytest.raises(DomainError):
            p_value_max(spec, 0.503)

    def test_accepts_near_integral_accuracy(self):
        spec = TaskSpec.uniform(100, 2, 1)
        assert p_value_standard(spec, 0.5 + 1e-9) == p_value_standard(spec, 0.5)

    def test_rejects_accuracy_outside_unit_interval(self):
        spec = TaskSpec.uniform(10, 2, 1)
        with pytest.raises(DomainError):
            p_value_standard(spec, 1.2)
        with pytest.raises(DomainError):
            p_value_max(spec, -0.1)

    def test_per_example_p_values(self):
        labels = PerExampleLabels((1.0, 0.5))
        spec = TaskSpec(n=2, labels=labels, t=1)
        # counts: P(X>=1) = 1, P(X>=2) = 0.5
        assert p_value_standard(spec, 0.5) == 1.0
        assert abs(p_value_standard(spec, 1.0) - 0.5) < 1e-15


class TestAccuracyToCount:
    def test_round_trip(self):
        assert accuracy_to_count(100, 0.56) == 56
        assert accuracy_to_count(3, 2 / 3) == 2
        assert accuracy_to_count(1, 1.0) == 1

    def test_rejects_between_counts(self):
        # At n = 2e6 an accuracy window of 1e-6 spans two counts either side;
        # the window must stay below half a count, so 1000.4 counts is no count.
        for n, accuracy in ((100, 0.503), (2_000_000, 1000.4 / 2e6)):
            with pytest.raises(DomainError):
                accuracy_to_count(n, accuracy)

    def test_n_must_be_an_integer(self):
        for n in (10.0, 10.5, True, "10"):
            with pytest.raises(DomainError, match="n must be an integer"):
                accuracy_to_count(n, 0.5)
        assert accuracy_to_count(np.int64(10), 0.5) == 5


class TestTailProbabilities:
    def test_matches_p_value_at_attainable_accuracies(self):
        spec = TaskSpec.uniform(20, 4, 7)
        for k in range(21):
            assert tail_probability_standard(spec, k / 20) == p_value_standard(spec, k / 20)
            assert tail_probability_max(spec, k / 20) == p_value_max(spec, k / 20)

    def test_between_counts_uses_the_ceiling(self):
        spec = TaskSpec.uniform(4, 2, 1)
        # P(X/4 >= 0.3) = P(X >= 2) = 1 - (1 + 4) / 16
        assert abs(tail_probability_standard(spec, 0.3) - 0.6875) < 1e-12
        assert tail_probability_standard(spec, 0.3) == p_value_standard(spec, 0.5)

    @pytest.mark.parametrize(
        "n, accuracy, count",
        [(4, 0.3, 2), (10**6, 0.3000001, 300001), (10**6, 0.3000004, 300001),
         # within 2^-30 relative above 300000 / 10^6: float dust, read as that count
         (10**6, 0.3000000000001, 300000)],
    )
    def test_looks_up_the_ceiling_count(self, monkeypatch, n, accuracy, count):
        looked_up = []

        class Recorder:
            def tail(self, k):
                looked_up.append(k)
                return 0.5

        monkeypatch.setattr(orderstat_mod, "_base_distribution", lambda spec: Recorder())
        tail_probability_standard(TaskSpec.uniform(n, 2, 1), accuracy)
        assert looked_up == [count]

    @pytest.mark.parametrize("n, accuracy, printed", [(100, 0.560001, "0.0967"),
                                                      (10**6, 0.5000002, "0.49960")])
    def test_an_accuracy_just_above_a_count_reads_the_next_count(self, n, accuracy, printed):
        tail = tail_probability_standard(TaskSpec.uniform(n, 2, 1), accuracy)
        assert f"{tail:.{len(printed) - 2}f}" == printed

    def test_rejects_outside_unit_interval(self):
        spec = TaskSpec.uniform(4, 2, 1)
        with pytest.raises(DomainError):
            tail_probability_max(spec, 1.01)


class TestThresholds:
    def test_beating_max_at_t_one(self):
        assert min_accuracy_beating_max(TaskSpec.uniform(100, 2, 1)) == 0.51

    def test_beating_max_at_t_ten(self):
        # expected max is ~0.5768, so the least attainable count above is 58
        assert min_accuracy_beating_max(TaskSpec.uniform(100, 2, 10)) == 0.58

    def test_beating_max_two_examples(self):
        assert min_accuracy_beating_max(TaskSpec.uniform(2, 2, 2)) == 1.0

    def test_beating_max_unattainable_when_everything_is_certain(self):
        spec = TaskSpec(n=2, labels=PerExampleLabels((1.0, 1.0)), t=3)
        assert min_accuracy_beating_max(spec) is None

    def test_significance_single_example(self):
        assert min_accuracy_at_significance(TaskSpec.uniform(1, 2, 1), 0.6) == 1.0

    def test_significance_unattainable(self):
        assert min_accuracy_at_significance(TaskSpec.uniform(2, 2, 1), 0.2) is None

    def test_significance_against_direct_scan(self):
        spec = TaskSpec.uniform(100, 2, 10)
        alpha = 0.05
        by_scan = next(
            (k / 100 for k in range(101) if p_value_max(spec, k / 100) < alpha), None
        )
        assert by_scan == 0.64
        assert min_accuracy_at_significance(spec, alpha) == by_scan

    def test_significance_rejects_bad_alpha(self):
        spec = TaskSpec.uniform(10, 2, 1)
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                min_accuracy_at_significance(spec, alpha)


class TestTaskSpecAndReport:
    def test_validation(self):
        with pytest.raises(DomainError):
            TaskSpec.uniform(0, 2, 1)
        with pytest.raises(DomainError):
            TaskSpec.uniform(10, 2, 0)
        with pytest.raises(DomainError):
            TaskSpec(n=3, labels=PerExampleLabels((0.5, 0.5)), t=1)

    @pytest.mark.parametrize("field, value", [("n", 10.5), ("n", 10.0), ("n", True), ("t", 2.5),
                                              ("t", 2.0), ("t", False), ("t", "2")])
    def test_n_and_t_must_be_integers(self, field, value):
        fields = {"n": 10, "labels": UniformLabels(2), "t": 2, field: value}
        with pytest.raises(DomainError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            TaskSpec(**fields)

    def test_numpy_integers_are_read_as_python_integers(self):
        spec = TaskSpec(n=np.int64(10), labels=UniformLabels(np.int32(3)), t=np.uint8(4))
        assert spec == TaskSpec.uniform(10, 3, 4)
        assert [type(value) for value in (spec.n, spec.labels.m, spec.t)] == [int, int, int]

    def test_every_t_argument_must_be_an_integer(self):
        spec = TaskSpec.uniform(10, 2, 3)
        with pytest.raises(DomainError, match="t must be an integer, got 2.0"):
            expected_max_accuracies(spec, [1, 2.0])
        with pytest.raises(DomainError, match="t must be an integer, got 2.5"):
            max_order_distribution(binomial_distribution(10, 0.5), 2.5)
        assert max_order_distribution(binomial_distribution(10, 0.5), np.int64(2)).t == 2

    def test_report_without_observation(self):
        report = baseline_report(TaskSpec.uniform(100, 2, 10))
        assert report.expected_standard == 0.5
        assert report.expected_max > report.expected_standard
        assert report.observed_accuracy is None
        assert report.p_standard is None and report.p_max is None

    def test_report_with_observation(self):
        spec = TaskSpec.uniform(100, 2, 10)
        report = baseline_report(spec, 0.56)
        assert report.p_standard == p_value_standard(spec, 0.56)
        assert report.p_max == p_value_max(spec, 0.56)
        assert report.p_standard <= report.p_max

    def test_report_equality_of_baselines_at_t_one(self):
        report = baseline_report(TaskSpec.uniform(37, 4, 1))
        assert report.expected_max == report.expected_standard

    def test_expected_standard_accuracy(self):
        assert expected_standard_accuracy(TaskSpec.uniform(10, 4, 3)) == 0.25
        labels = PerExampleLabels.from_label_counts([2, 4])
        assert expected_standard_accuracy(TaskSpec(n=2, labels=labels, t=1)) == 0.375

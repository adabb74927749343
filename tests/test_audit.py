import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxrand import (
    DomainError,
    ExperimentRecord,
    PerExampleLabels,
    TaskSpec,
    UniformLabels,
    aggregate,
    categorize_observation,
    classify,
    empirical_expected_max,
    evaluate_prediction,
    expected_max_accuracy,
    min_accuracy_beating_max,
    pr_points,
    read_records,
    roc_points,
)

# Frozen for readability: expected_max_accuracy(n=100, m=2, t=10) ~ 0.5768.
EXPECTED_MAX_100_2_10 = expected_max_accuracy(TaskSpec.uniform(100, 2, 10))

# (n, m, t) whose maximum baseline lies less than 1e-9 below the least count
# that beats it.
NEAR_TIE_CELLS = [(384, 2, 286), (10**5, 5, 1563), (10**6, 2, 146), (10**6, 3, 566)]

evaluations = st.one_of(st.integers(min_value=1, max_value=50),
                        st.integers(min_value=1, max_value=10**6))
task_specs = st.one_of(
    st.builds(TaskSpec.uniform, n=st.integers(min_value=1, max_value=3000),
              m=st.sampled_from([2, 3, 4, 5, 10]), t=evaluations),
    st.builds(
        lambda counts, t: TaskSpec(len(counts), PerExampleLabels.from_label_counts(counts), t),
        st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=40),
        evaluations,
    ),
)


def record(
    id="r",
    model="model-a",
    dataset="task-1",
    n=100,
    labels=UniformLabels(2),
    t=10,
    observed=0.56,
    **kwargs,
):
    return ExperimentRecord(
        id=id,
        model=model,
        dataset=dataset,
        n=n,
        labels=labels,
        t=t,
        observed_max_accuracy=observed,
        **kwargs,
    )


class TestEmpiricalExpectedMax:
    def test_t_one_is_the_mean(self):
        assert abs(empirical_expected_max([0.2, 0.4], 1) - 0.3) < 1e-15

    def test_best_of_two_from_two_values(self):
        # four equally weighted pairs; the max is 0.4 in three of them
        assert abs(empirical_expected_max([0.2, 0.4], 2) - 0.35) < 1e-15

    def test_single_value_is_constant(self):
        for t in (1, 2, 50):
            assert empirical_expected_max([0.7], t) == 0.7

    def test_repeated_values(self):
        assert abs(empirical_expected_max([0.2, 0.2, 0.8], 2) - (0.2 * 4 / 9 + 0.8 * 5 / 9)) < 1e-12

    def test_rejects_empty_and_bad_t(self):
        with pytest.raises(DomainError):
            empirical_expected_max([], 1)
        with pytest.raises(DomainError):
            empirical_expected_max([0.5], 0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_mean_and_max_and_monotone_in_t(self, values, t):
        estimate = empirical_expected_max(values, t)
        mean = sum(values) / len(values)
        assert mean - 1e-9 <= estimate <= max(values) + 1e-9
        assert estimate <= empirical_expected_max(values, t + 1) + 1e-9


class TestClassify:
    def test_at_the_standard_baseline_is_below_both(self):
        assert classify(record(observed=0.50)).category == "below_both"

    def test_between_the_baselines_is_a_flip(self):
        verdict = classify(record(observed=0.56))
        assert verdict.category == "flip"
        assert verdict.expected_standard == 0.5
        assert abs(verdict.expected_max - EXPECTED_MAX_100_2_10) < 1e-15
        assert verdict.p_standard <= verdict.p_max

    def test_above_both_baselines(self):
        assert classify(record(observed=0.60)).category == "above_both"

    def test_boundary_ties_go_to_the_weaker_category(self):
        assert categorize_observation(0.5, 0.5, 0.6) == "below_both"
        assert categorize_observation(0.6, 0.5, 0.6) == "flip"
        assert categorize_observation(0.60000001, 0.5, 0.6) == "above_both"

    def test_never_flips_at_t_one(self):
        for k in range(11):
            verdict = classify(record(n=10, t=1, observed=k / 10))
            assert verdict.category in ("below_both", "above_both")

    def test_per_example_labels(self):
        labels = PerExampleLabels.from_label_counts([2, 2, 4, 4])
        verdict = classify(record(n=4, labels=labels, t=1, observed=0.5))
        assert verdict.expected_standard == 0.375
        assert verdict.category == "above_both"

    @given(spec=task_specs, other=st.integers(min_value=0))
    @example(spec=TaskSpec.uniform(*NEAR_TIE_CELLS[0]), other=0)
    @example(spec=TaskSpec.uniform(*NEAR_TIE_CELLS[1]), other=0)
    @example(spec=TaskSpec.uniform(*NEAR_TIE_CELLS[2]), other=0)
    @example(spec=TaskSpec.uniform(*NEAR_TIE_CELLS[3]), other=0)
    @settings(max_examples=150, deadline=None)
    def test_above_both_from_the_least_count_that_beats_the_max(self, spec, other):
        least = min_accuracy_beating_max(spec)
        least_count = spec.n + 1 if least is None else round(least * spec.n)
        counts = {least_count - 2, least_count - 1, least_count, least_count + 1,
                  other % (spec.n + 1)}
        for k in sorted(c for c in counts if 0 <= c <= spec.n):
            verdict = classify(record(n=spec.n, labels=spec.labels, t=spec.t, observed=k / spec.n))
            assert (verdict.category == "above_both") == (k >= least_count), k

    def test_the_count_decides_not_the_float_given(self):
        # 220/384 beats E[max] = 0.5729166659... by 7e-10; the accuracy as
        # given lies 1e-9 lower but still reads as the count 220.
        verdict = classify(record(n=384, t=286, observed=220 / 384 - 1e-9))
        assert verdict.category == "above_both"


class TestAggregate:
    def test_exact_counts_from_a_known_fixture(self):
        observations = [0.45, 0.50, 0.56, 0.57, 0.56, 0.60, 0.70, 0.44, 0.57, 0.62]
        # hand-scored against 0.5 and ~0.5768: 3 below, 4 flips, 3 above
        verdicts = [
            classify(record(id=f"r{i}", observed=obs)) for i, obs in enumerate(observations)
        ]
        summary = aggregate(verdicts)
        assert summary.total.below_both == 3
        assert summary.total.flip == 4
        assert summary.total.above_both == 3
        assert summary.total.total == 10
        assert abs(summary.total.flipped_percentage - 100 * 4 / 7) < 1e-12

    def test_flip_share_of_fixture_with_255_above_standard(self):
        verdicts = [classify(record(id=f"f{i}", observed=0.56)) for i in range(56)]
        verdicts += [classify(record(id=f"a{i}", observed=0.60)) for i in range(199)]
        verdicts += [classify(record(id=f"b{i}", observed=0.45)) for i in range(33)]
        summary = aggregate(verdicts)
        assert summary.total.flip == 56
        assert summary.total.above_both == 199
        assert abs(summary.total.flipped_percentage - 22.0) <= 0.05

    def test_zero_denominator_reports_zero_with_flag(self):
        verdicts = [classify(record(id=f"r{i}", observed=0.45)) for i in range(3)]
        summary = aggregate(verdicts)
        assert summary.total.flipped_percentage == 0.0
        assert summary.total.flipped_denominator_zero

    def test_groups_by_model_and_dataset(self):
        verdicts = [
            classify(record(id="1", model="m1", dataset="d1", observed=0.60)),
            classify(record(id="2", model="m1", dataset="d2", observed=0.56)),
            classify(record(id="3", model="m1", dataset="d1", observed=0.45)),
        ]
        summary = aggregate(verdicts)
        keys = [(group.model, group.dataset) for group in summary.groups]
        assert keys == [("m1", "d1"), ("m1", "d2")]
        assert summary.groups[0].counts.above_both == 1
        assert summary.groups[0].counts.below_both == 1
        assert summary.groups[1].counts.flip == 1

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            aggregate([])


# Planted prediction cohort: (count, observed, heldout) per cell, with
# n=100, m=2, t=10 so the baselines are 0.5 and ~0.5768.  The expected
# confusion counts below are scored from this plan by hand, not by the
# library.
_COHORT_PLAN = [
    (12, 0.70, 0.60),  # above both baselines, held-out above random
    (8, 0.70, 0.40),   # above both baselines, held-out below random
    (10, 0.55, 0.60),  # above standard only, held-out above random
    (5, 0.55, 0.40),   # above standard only, held-out below random
    (9, 0.45, 0.60),   # below both baselines, held-out above random
    (6, 0.45, 0.40),   # below both baselines, held-out below random
]


def _cohort_records():
    records = []
    for group, (count, observed, heldout) in enumerate(_COHORT_PLAN):
        for i in range(count):
            records.append(
                record(
                    id=f"g{group}-{i}",
                    observed=observed,
                    heldout_accuracy=heldout,
                    heldout_n=100,
                )
            )
    return records


def _evaluate(records):
    return evaluate_prediction(records, [classify(r) for r in records])


class TestEvaluatePrediction:
    def test_perfectly_separable_records(self):
        records = [
            record(id=f"p{i}", observed=1.0, heldout_accuracy=1.0, heldout_n=50)
            for i in range(4)
        ]
        evaluation = _evaluate(records)
        for stats in (evaluation.standard, evaluation.max):
            assert stats.accuracy == 1.0
            assert stats.precision == 1.0
            assert stats.recall == 1.0
        # single-class ground truth: ROC undefined, PR trivially perfect
        assert math.isnan(evaluation.auroc)
        assert evaluation.aupr == 1.0

    def test_confusion_counts_match_the_hand_scored_plan(self):
        evaluation = _evaluate(_cohort_records())
        assert (evaluation.standard.tp, evaluation.standard.fp) == (22, 13)
        assert (evaluation.standard.fn, evaluation.standard.tn) == (9, 6)
        assert (evaluation.max.tp, evaluation.max.fp) == (12, 8)
        assert (evaluation.max.fn, evaluation.max.tn) == (19, 11)
        assert evaluation.standard.total == evaluation.max.total == 50
        assert abs(evaluation.standard.accuracy - 28 / 50) < 1e-12
        assert abs(evaluation.max.precision - 12 / 20) < 1e-12
        assert abs(evaluation.max.recall - 12 / 31) < 1e-12

    def test_max_positive_set_is_nested_in_standard_positive_set(self):
        evaluation = _evaluate(_cohort_records())
        max_positives = evaluation.max.tp + evaluation.max.fp
        standard_positives = evaluation.standard.tp + evaluation.standard.fp
        assert max_positives <= standard_positives
        # record-level nesting: every max-positive is a standard-positive
        for r in _cohort_records():
            report_max = r.observed_max_accuracy > EXPECTED_MAX_100_2_10
            report_std = r.observed_max_accuracy > 0.5
            assert not report_max or report_std

    def test_requires_heldout_fields(self):
        with pytest.raises(DomainError):
            _evaluate([record(id="x", observed=0.56)])
        with pytest.raises(DomainError):
            _evaluate([])

    def test_predictors_follow_the_verdicts_and_truth_the_heldout_count(self):
        # Both accuracies are 1e-9 off their counts: 220/384 beats the
        # maximum baseline, and 1/2 does not beat the standard one.
        near = record(n=384, t=286, observed=220 / 384 - 1e-9,
                      heldout_accuracy=0.5 + 1e-9, heldout_n=2)
        evaluation = _evaluate([near])
        assert (evaluation.standard.fp, evaluation.max.fp) == (1, 1)
        assert evaluation.standard.tp == evaluation.max.tp == 0

    def test_verdicts_must_match_the_records_in_order(self):
        records = _cohort_records()[:3]
        verdicts = [classify(r) for r in records]
        for mismatched in (verdicts[::-1], verdicts[:2], verdicts + verdicts[:1]):
            with pytest.raises(DomainError):
                evaluate_prediction(records, mismatched)

    def test_curve_areas_live_in_the_unit_interval(self):
        evaluation = _evaluate(_cohort_records())
        assert 0.0 <= evaluation.auroc <= 1.0
        assert 0.0 <= evaluation.aupr <= 1.0
        assert evaluation.roc_points[0] == (0.0, 0.0)
        assert evaluation.roc_points[-1] == (1.0, 1.0)


class TestCurvePoints:
    TRUTHS = [True, False, True, True, False]
    SCORES = [0.9, 0.8, 0.8, 0.4, 0.2]

    def test_roc_points_with_ties_grouped(self):
        points = roc_points(self.TRUTHS, self.SCORES)
        assert points == ((0.0, 0.0), (0.0, 1 / 3), (0.5, 2 / 3), (0.5, 1.0), (1.0, 1.0))

    def test_pr_points_with_ties_grouped(self):
        points = pr_points(self.TRUTHS, self.SCORES)
        assert points == ((1 / 3, 1.0), (2 / 3, 2 / 3), (1.0, 0.75), (1.0, 0.6))

    def test_areas_against_hand_computation(self):
        # trapezoid over the ROC points above: 0.25 + 0.5 = 0.75, which also
        # equals the rank statistic (4.5 of 6 positive-negative pairs ordered)
        points = roc_points(self.TRUTHS, self.SCORES)
        area = sum(
            (x1 - x0) * (y0 + y1) / 2 for (x0, y0), (x1, y1) in zip(points, points[1:])
        )
        assert abs(area - 0.75) < 1e-12
        # step sum over the PR points: 1/3 + (1/3)(2/3) + (1/3)(3/4) = 29/36
        aupr = 0.0
        previous = 0.0
        for recall, precision in pr_points(self.TRUTHS, self.SCORES):
            aupr += (recall - previous) * precision
            previous = recall
        assert abs(aupr - 29 / 36) < 1e-12

    def test_monotone_transform_leaves_curves_unchanged(self):
        transformed = [s**10 for s in self.SCORES]
        assert roc_points(self.TRUTHS, self.SCORES) == roc_points(self.TRUTHS, transformed)
        assert pr_points(self.TRUTHS, self.SCORES) == pr_points(self.TRUTHS, transformed)

    def test_single_class_inputs_are_rejected(self):
        with pytest.raises(DomainError):
            roc_points([True, True], [0.1, 0.2])
        with pytest.raises(DomainError):
            pr_points([False, False], [0.1, 0.2])


class TestExperimentRecordValidation:
    def test_observed_must_match_per_prompt_maximum(self):
        with pytest.raises(DomainError, match="per-prompt maximum 57/100"):
            record(observed=0.56, per_prompt_accuracies=(0.5, 0.57))

    def test_per_prompt_maximum_matches_by_count(self):
        r = record(t=2, observed=0.56, per_prompt_accuracies=(0.5, 0.56 + 1e-8))
        assert r.warnings == ()

    def test_per_prompt_length_mismatch_attaches_warning(self):
        r = record(observed=0.56, per_prompt_accuracies=(0.5, 0.56), t=10)
        assert len(r.warnings) == 1
        assert "t wins" in r.warnings[0]

    def test_matching_per_prompt_is_clean(self):
        r = record(t=2, observed=0.56, per_prompt_accuracies=(0.5, 0.56))
        assert r.warnings == ()

    def test_non_integral_accuracies_are_rejected(self):
        with pytest.raises(DomainError):
            record(observed=0.503)
        with pytest.raises(DomainError):
            record(observed=0.56, heldout_accuracy=0.333, heldout_n=100)

    def test_heldout_fields_must_come_together(self):
        with pytest.raises(DomainError):
            record(heldout_accuracy=0.6)
        with pytest.raises(DomainError):
            record(heldout_n=100)


CSV_FIXTURE = """id,model,dataset,n,labels,t,observed_max_accuracy,heldout_accuracy,heldout_n
r1,olmo,emoji,100,2,10,0.56,0.6,100
r2,олмо,movies,4,2;3;3;5,2,0.5,,
r3,falcon,emoji,10,4,1,0.3,0.4,10
"""


class TestReadRecords:
    def test_csv_round_trip(self):
        result = read_records(io.StringIO(CSV_FIXTURE), format="csv")
        assert result.errors == ()
        assert len(result.records) == 3
        first, second, third = result.records
        assert first.id == "r1" and first.n == 100 and first.t == 10
        assert first.labels == UniformLabels(2)
        assert first.heldout_accuracy == 0.6 and first.heldout_n == 100
        assert second.labels == PerExampleLabels((0.5, 1 / 3, 1 / 3, 0.2))
        assert second.heldout_accuracy is None
        assert third.model == "falcon" and third.observed_max_accuracy == 0.3

    def test_non_integral_accuracy_is_collected_as_row_error(self):
        text = CSV_FIXTURE + "r4,olmo,emoji,100,2,10,0.503,,\n"
        result = read_records(io.StringIO(text), format="csv")
        assert len(result.records) == 3
        assert len(result.errors) == 1
        assert result.errors[0].row == 4
        assert "integer count" in result.errors[0].message

    def test_jsonl_with_per_example_label_counts(self):
        line = json.dumps(
            {
                "id": "j1",
                "model": "olmo",
                "dataset": "puzzles",
                "n": 4,
                "labels": [2, 3, 3, 5],
                "t": 2,
                "observed_max_accuracy": 0.5,
                "per_prompt_accuracies": [0.25, 0.5],
            }
        )
        result = read_records(io.StringIO(line + "\n"), format="jsonl")
        assert result.errors == ()
        (record_,) = result.records
        assert record_.labels == PerExampleLabels((0.5, 1 / 3, 1 / 3, 0.2))
        assert record_.per_prompt_accuracies == (0.25, 0.5)

    def test_missing_required_field(self):
        result = read_records(io.StringIO("id,model\nr1,olmo\n"), format="csv")
        assert result.records == ()
        assert result.errors[0].row == 1
        assert "missing required field" in result.errors[0].message

    def test_invalid_json_line(self):
        result = read_records(io.StringIO("{not json}\n"), format="jsonl")
        assert result.errors[0].row == 1
        assert "invalid JSON" in result.errors[0].message

    def test_bad_labels_value(self):
        text = "id,model,dataset,n,labels,t,observed_max_accuracy\nr1,m,d,10,two,1,0.5\n"
        result = read_records(io.StringIO(text), format="csv")
        assert result.errors[0].field == "labels"

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_a_stream_that_is_not_utf8_is_a_domain_error(self, format):
        stream = io.TextIOWrapper(io.BytesIO(b"id,n\n\xff\n"), encoding="utf-8")
        with pytest.raises(DomainError, match="input is not UTF-8: byte 0xff"):
            read_records(stream, format=format)

    def test_unknown_format_rejected(self):
        with pytest.raises(DomainError):
            read_records(io.StringIO(""), format="tsv")

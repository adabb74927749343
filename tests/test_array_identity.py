"""The array passes of ``audit`` and ``curve`` give the scalar functions' bits.

``classify_records`` works a file at a time, one pass per task, and ``curve``
computes a record's whole t axis at once.  The one-record, one-t public
functions stay the reference: ``baseline_report`` with the count rule for a
verdict, and ``empirical_expected_max``, ``expected_max_accuracy``,
``tail_probability_standard`` and ``tail_probability_max`` for a curve row.
Values are compared by ``float.hex``, so a last bit or the sign of a zero
counts.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from maxrand import cli
from maxrand.audit import (
    categorize_observation,
    classify,
    classify_records,
    empirical_expected_max,
    read_records,
)
from maxrand.dist import PerExampleLabels, UniformLabels
from maxrand.orderstat import (
    TaskSpec,
    _base,
    baseline_report,
    expected_max_accuracies,
    expected_max_accuracy,
    tail_probability_max,
    tail_probability_standard,
)

# The curve's raw columns, before the 12-digit formatting of the output.
curve_rows = cli.curve.callback.__wrapped__

evaluations = st.one_of(st.sampled_from([1, 2, 3, 10**6]), st.integers(min_value=1,
                                                                        max_value=10**6))
# (n, labels as a record file writes them): an int m, or per-example label counts.
tasks = st.one_of(
    st.tuples(st.one_of(st.integers(min_value=1, max_value=3000),
                        st.integers(min_value=1, max_value=10**6)),
              st.integers(min_value=2, max_value=10)),
    st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=60).map(
        lambda counts: (len(counts), counts)),
)


def bits(value) -> str:
    return float(value).hex()


def scheme(labels):
    if isinstance(labels, int):
        return UniformLabels(labels)
    return PerExampleLabels.from_label_counts(labels)


def write_and_read(payloads: list[dict], t_axis: str | None = None):
    """The records of a JSON-lines file of ``payloads``, and ``curve``'s rows when given an axis."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "records.jsonl"
        path.write_text("".join(json.dumps(payload) + "\n" for payload in payloads))
        loaded = read_records(path, format="jsonl")
        rows = None
        if t_axis is not None:
            [(_, _, columns)] = curve_rows(input_path=str(path), input_format=None, t_axis=t_axis)
            rows = list(zip(*columns))
    assert loaded.errors == ()
    return list(loaded.records), rows


def one_t_estimate(accuracies, t: int) -> float:
    """The empirical expected maximum at one t, as a single product and dot."""
    values = np.asarray(accuracies, dtype=float)
    distinct, counts = np.unique(values, return_counts=True)
    cumulative = np.cumsum(counts)
    at_most = cumulative / values.size
    below = (cumulative - counts) / values.size
    return float(distinct @ (at_most**t - below**t))


@given(chosen=st.lists(tasks, min_size=1, max_size=3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_verdicts_have_the_bits_of_baseline_report_and_the_count_rule(chosen, data):
    payloads = []
    for i in range(data.draw(st.integers(min_value=1, max_value=12), label="records")):
        n, labels = data.draw(st.sampled_from(chosen), label="task")
        base = _base(TaskSpec(n=n, labels=scheme(labels), t=1))
        # counts below, on the edges of, inside and above the base window
        edges = [0, base.lo - 1, base.lo, (base.lo + base.hi) // 2, base.hi, base.hi + 1, n]
        k = data.draw(st.one_of(st.sampled_from(edges), st.integers(min_value=0, max_value=n)),
                      label="k")
        k = min(max(k, 0), n)
        payloads.append({"id": f"r{i}", "model": "m", "dataset": "d", "n": n, "labels": labels,
                         "t": data.draw(evaluations, label="t"), "observed_max_accuracy": k / n})
    records, _ = write_and_read(payloads)
    verdicts = classify_records(records)
    assert len(verdicts) == len(records)
    for record, verdict in zip(records, verdicts):
        report = baseline_report(record.spec(), record.observed_max_accuracy)
        k = round(record.observed_max_accuracy * record.n)
        assert (verdict.id, verdict.model, verdict.dataset, verdict.observed_max_accuracy) == (
            record.id, record.model, record.dataset, record.observed_max_accuracy)
        assert verdict.category == categorize_observation(
            k / record.n, report.expected_standard, report.expected_max)
        for field in ("expected_standard", "expected_max", "p_standard", "p_max"):
            assert bits(getattr(verdict, field)) == bits(getattr(report, field)), field
        assert classify(record) == verdict


# (n, labels) with windows from one count (every example certain) to the
# 38,601 counts of n = 10^6 at m = 2.
window_tasks = st.one_of(
    st.tuples(st.sampled_from([1, 2, 7, 1000, 20_000, 10**6]) | st.integers(1, 10**6),
              st.integers(2, 10)),
    st.integers(1, 40).map(lambda n: (n, [1] * n)),
    st.lists(st.integers(1, 10), min_size=1, max_size=300).map(lambda counts: (len(counts),
                                                                               counts)),
)


@given(chosen=st.lists(window_tasks, min_size=1, max_size=4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_file_of_mixed_tasks_has_the_bits_of_baseline_report(chosen, data):
    # A few t per file, t = 1 among them, so that records repeat (task, t) rows.
    pool = data.draw(st.lists(evaluations, min_size=1, max_size=3), label="ts") + [1]
    payloads = []
    for i in range(data.draw(st.integers(min_value=1, max_value=16), label="records")):
        n, labels = data.draw(st.sampled_from(chosen), label="task")
        base = _base(TaskSpec(n=n, labels=scheme(labels), t=1))
        edges = [0, base.lo - 1, base.lo, base.lo + 1, (base.lo + base.hi) // 2, base.hi - 1,
                 base.hi, base.hi + 1, n]
        k = min(max(data.draw(st.sampled_from(edges), label="k"), 0), n)
        payloads.append({"id": f"r{i}", "model": "m", "dataset": "d", "n": n, "labels": labels,
                         "t": data.draw(st.sampled_from(pool), label="t"),
                         "observed_max_accuracy": k / n})
    records, _ = write_and_read(payloads)
    for record, verdict in zip(records, classify_records(records), strict=True):
        report = baseline_report(record.spec(), record.observed_max_accuracy)
        assert verdict.category == categorize_observation(
            record._count / record.n, report.expected_standard, report.expected_max)
        for field in ("expected_standard", "expected_max", "p_standard", "p_max"):
            assert bits(getattr(verdict, field)) == bits(getattr(report, field)), field
        assert bits(verdict.expected_max) == bits(one_t_baseline(record))


def one_t_baseline(record) -> float:
    """The maximum baseline of one record, summed on its own from the base tail."""
    base = _base(record._task)
    if record.t == 1:
        return record.labels.expected_accuracy()
    with np.errstate(divide="ignore", over="ignore"):
        terms = -np.expm1(float(record.t) * np.log1p(-base.window_sf[1:]))
    return (terms.sum() + base.lo) / record.n


def assert_rows_have_the_scalar_bits(record, rows):
    accuracies = record.per_prompt_accuracies
    for record_id, t, empirical, baseline, p_standard, p_max in rows:
        assert record_id == record.id
        spec = TaskSpec(n=record.n, labels=record.labels, t=t)
        reference = min(max(empirical_expected_max(accuracies, t), 0.0), 1.0)
        assert bits(empirical) == bits(reference), t
        assert bits(empirical) == bits(min(max(one_t_estimate(accuracies, t), 0.0), 1.0)), t
        assert bits(baseline) == bits(expected_max_accuracy(spec)), t
        assert bits(p_standard) == bits(tail_probability_standard(spec, reference)), t
        assert bits(p_max) == bits(tail_probability_max(spec, reference)), t


@given(task=tasks, data=st.data())
@settings(max_examples=60, deadline=None)
def test_curve_rows_have_the_bits_of_the_one_t_functions(task, data):
    n, labels = task
    # a few distinct counts drawn again and again: samples with ties
    pool = data.draw(st.lists(st.integers(min_value=0, max_value=n), min_size=1, max_size=8),
                     label="pool")
    counts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60), label="counts")
    ts = sorted({1, 2} | set(data.draw(st.lists(evaluations, max_size=8), label="ts")))
    [record], rows = write_and_read([{
        "id": "c", "model": "m", "dataset": "d", "n": n, "labels": labels, "t": len(counts),
        "observed_max_accuracy": max(counts) / n,
        "per_prompt_accuracies": [k / n for k in counts]}], t_axis=",".join(map(str, ts)))
    assert [row[1] for row in rows] == ts
    assert_rows_have_the_scalar_bits(record, rows)


def test_t_beyond_the_exact_doubles_is_read_as_float_t():
    # 2^53 + 1 and the two above 2^63 are not doubles. At 900 of 1000 the tail is about
    # 1e-150, so p_max is about t times it and shows which double t became.
    ts = [2**53 + 1, 2**63 + 2**11 + 1, 2**70 + 2**17 + 1]
    [record], rows = write_and_read([{
        "id": "far", "model": "m", "dataset": "d", "n": 1000, "labels": 2, "t": 3,
        "observed_max_accuracy": 0.9, "per_prompt_accuracies": [0.1, 0.5, 0.9]}],
        t_axis=",".join(map(str, ts)))
    assert_rows_have_the_scalar_bits(record, rows)
    for t, row in zip(ts, rows, strict=True):
        p_standard, p_max = row[4], row[5]
        assert 0.0 < p_standard < 1e-100
        assert bits(p_max) == bits(-np.expm1(float(t) * np.log1p(-p_standard))), t
        assert bits(row[3]) == bits(expected_max_accuracies(record._task, [int(float(t))])[0]), t


def test_a_long_axis_over_many_distinct_values_crosses_blocks():
    # 300 distinct values, each twice, make blocks of 109 t: 1..2000 spans 19 of them.
    counts = list(range(0, 900, 3)) * 2
    [record], rows = write_and_read([{
        "id": "long", "model": "m", "dataset": "d", "n": 1000, "labels": 4, "t": 600,
        "observed_max_accuracy": max(counts) / 1000,
        "per_prompt_accuracies": [k / 1000 for k in counts]}], t_axis="1:2000")
    assert len(rows) == 2000
    assert_rows_have_the_scalar_bits(record, rows)

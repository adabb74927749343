"""Re-contextualizing reported results against the stronger baseline.

Takes experiment records, one reported best-of-t validation accuracy
each, recomputes both random baselines, and sorts every result into
``below_both``, ``flip`` (above the standard baseline but not above the
maximum baseline), or ``above_both``.  Also estimates the expected best
accuracy directly from observed per-prompt samples, and evaluates how
well each baseline predicts above-random held-out accuracy.

Record processing is independent per record; aggregates depend only on
the multiset of inputs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Mapping, Sequence, TextIO

import numpy as np

from .dist import LabelScheme, PerExampleLabels, UniformLabels, _integer
from .errors import DomainError, FeasibilityError
from .orderstat import (
    _T_BLOCK_ELEMENTS,
    TaskSpec,
    _accuracy_counts,
    _check_ts,
    _Tails,
    accuracy_to_count,
    baseline_report,  # unused here; perfbench/tracing.py wraps audit.baseline_report
    max_tail,
)

__all__ = [
    "CATEGORIES",
    "ExperimentRecord",
    "AuditVerdict",
    "CategoryCounts",
    "GroupCounts",
    "AuditSummary",
    "PredictorStats",
    "PredictionEvaluation",
    "RowError",
    "LoadResult",
    "empirical_expected_max",
    "empirical_expected_maxima",
    "categorize_observation",
    "classify",
    "classify_records",
    "aggregate",
    "evaluate_prediction",
    "roc_points",
    "pr_points",
    "read_records",
    "parse_label_counts",
]

CATEGORIES = ("below_both", "flip", "above_both")


@dataclass(frozen=True)
class ExperimentRecord:
    """One reported result: a best-of-t accuracy on an n-example task.

    ``per_prompt_accuracies`` (all t individual accuracies) and the
    held-out fields are optional; when a per-prompt list is present its
    maximum must have the count of ``observed_max_accuracy``.  If its
    length disagrees with ``t``, the explicit ``t`` wins and a warning is
    attached (published summaries often omit the raw per-prompt data).
    """

    id: str
    model: str
    dataset: str
    n: int
    labels: LabelScheme
    t: int
    observed_max_accuracy: float
    per_prompt_accuracies: tuple[float, ...] | None = None
    heldout_accuracy: float | None = None
    heldout_n: int | None = None
    warnings: tuple[str, ...] = ()
    # __post_init__ sets _count and _heldout_count, the counts k of
    # observed_max_accuracy and heldout_accuracy that every decision reads,
    # and _task, the record's task (n, labels) as a t = 1 spec.
    _heldout_count = None

    def __post_init__(self) -> None:
        # TaskSpec construction validates n, t and the labels length.
        spec = TaskSpec(n=self.n, labels=self.labels, t=self.t)
        object.__setattr__(self, "_task", spec._task)
        object.__setattr__(self, "_count", accuracy_to_count(spec.n, self.observed_max_accuracy))
        if self.per_prompt_accuracies is not None:
            if len(self.per_prompt_accuracies) == 0:
                raise DomainError(f"record {self.id!r}: per_prompt_accuracies is empty")
            best = max(accuracy_to_count(spec.n, a) for a in self.per_prompt_accuracies)
            if best != self._count:
                raise DomainError(
                    f"record {self.id!r}: observed_max_accuracy {self.observed_max_accuracy} "
                    f"does not match the per-prompt maximum {best}/{spec.n}"
                )
            if len(self.per_prompt_accuracies) != self.t:
                object.__setattr__(self, "warnings", self.warnings + (
                    _length_warning(self.id, self.t, len(self.per_prompt_accuracies)),))
        if self.heldout_accuracy is not None:
            if self.heldout_n is None:
                raise DomainError(f"record {self.id!r}: heldout_accuracy without heldout_n")
            if self.heldout_n < 1:
                raise DomainError(f"record {self.id!r}: heldout_n must be >= 1")
            heldout_count = accuracy_to_count(self.heldout_n, self.heldout_accuracy)
            object.__setattr__(self, "_heldout_count", heldout_count)
        elif self.heldout_n is not None:
            raise DomainError(f"record {self.id!r}: heldout_n without heldout_accuracy")

    @classmethod
    def _checked(cls, task: TaskSpec, count: int, heldout_count: int | None,
                 *values) -> "ExperimentRecord":
        """A record of field values and counts that ``read_records`` checked as ``__post_init__`` does."""
        record = cls.__new__(cls)
        vars(record).update(zip(_RECORD_FIELDS, values), _task=task, _count=count,
                            _heldout_count=heldout_count)
        return record

    def spec(self) -> TaskSpec:
        return TaskSpec(n=self.n, labels=self.labels, t=self.t)


_RECORD_FIELDS = tuple(field.name for field in dataclasses.fields(ExperimentRecord))


def _length_warning(record_id: str, t: int, given: int) -> str:
    return f"record {record_id!r}: t={t} but {given} per-prompt accuracies given; t wins"


@dataclass(frozen=True)
class AuditVerdict:
    """One record's category and the numbers behind it."""

    id: str
    model: str
    dataset: str
    observed_max_accuracy: float
    category: str
    expected_standard: float
    expected_max: float
    p_standard: float
    p_max: float


@dataclass(frozen=True)
class CategoryCounts:
    """Verdict counts plus the share of above-standard results that flipped."""

    below_both: int = 0
    flip: int = 0
    above_both: int = 0

    @property
    def total(self) -> int:
        return self.below_both + self.flip + self.above_both

    @property
    def flipped_denominator_zero(self) -> bool:
        return self.flip + self.above_both == 0

    @property
    def flipped_percentage(self) -> float:
        """100 * flip / (flip + above_both); 0.0 when nothing beat the standard baseline."""
        denominator = self.flip + self.above_both
        if denominator == 0:
            return 0.0
        return 100.0 * self.flip / denominator


@dataclass(frozen=True)
class GroupCounts:
    model: str
    dataset: str
    counts: CategoryCounts


@dataclass(frozen=True)
class AuditSummary:
    """Overall counts and a per-(model, dataset) breakdown, sorted by key."""

    total: CategoryCounts
    groups: tuple[GroupCounts, ...]


@dataclass(frozen=True)
class PredictorStats:
    """Confusion counts and derived rates for one binary predictor."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0


@dataclass(frozen=True)
class PredictionEvaluation:
    """How well each baseline predicted above-random held-out accuracy.

    ``standard`` and ``max`` are the two threshold predictors; the ROC
    and precision-recall curves come from the shared ranking score (the
    validation distribution function).  With single-class ground truth
    the undefined curve areas are NaN and their point lists empty.
    """

    standard: PredictorStats
    max: PredictorStats
    roc_points: tuple[tuple[float, float], ...]
    auroc: float
    pr_points: tuple[tuple[float, float], ...]
    aupr: float
    n_records: int


@dataclass(frozen=True)
class RowError:
    """A rejected input row: its 1-based row number, field if known, and why."""

    row: int
    field: str | None
    message: str


@dataclass(frozen=True)
class LoadResult:
    records: tuple[ExperimentRecord, ...]
    errors: tuple[RowError, ...]


def empirical_expected_max(accuracies: Sequence[float], t: int) -> float:
    """Expected best of ``t`` draws from the empirical distribution of a sample.

    ``sum_v v * (P(V <= v)^t - P(V < v)^t)`` over distinct observed
    values: the sample mean at ``t = 1``, approaching the sample maximum
    as ``t`` grows.
    """
    return empirical_expected_maxima(accuracies, [t])[0]


def empirical_expected_maxima(accuracies: Sequence[float], ts: Sequence[int]) -> list[float]:
    """:func:`empirical_expected_max` at each ``t`` in ``ts``, sorting the sample once.

    The powers ``P(V <= v)^t`` are raised for a block of ``t`` at a time, at
    most ``_T_BLOCK_ELEMENTS`` elements or one row.  Each row's exponent is
    broadcast, so numpy runs the ``pow`` loop it runs for one ``t``; ``t = 2``
    is squared, as ``** 2`` squares one ``t``.  Both cdf values come from
    the exact integer counts, so each ``P(V < v)`` is the previous
    ``P(V <= v)``, bit for bit: each weight ``P(V <= v)^t - P(V < v)^t`` is the
    difference of adjacent powers, and the weights telescope.  Each row
    meets the values in a dot of its own.  So every value has the bits of
    its one-t call.
    """
    if len(accuracies) == 0:
        raise DomainError("accuracies must be nonempty")
    _check_ts(ts)
    values = np.asarray(accuracies, dtype=float)
    distinct, counts = np.unique(values, return_counts=True)
    at_most = np.cumsum(counts) / values.size
    times = np.array(ts, dtype=float)[:, None]
    step = max(1, _T_BLOCK_ELEMENTS // distinct.size)
    curve: list[float] = []
    for start in range(0, len(times), step):
        block = times[start : start + step]
        powers = at_most**block
        powers[block[:, 0] == 2] = at_most**2
        curve += [float(distinct @ row) for row in np.diff(powers, axis=1, prepend=0.0)]
    return curve


def categorize_observation(observed: float, expected_standard: float, expected_max: float) -> str:
    """Sort one observation against both baselines; beating is strict.

    Beating is being the greater float, the rule ``min_accuracy_beating_max``
    solves.  Ties sit with the weaker category: equal to the standard baseline
    is ``below_both``, equal to the maximum baseline is ``flip``.
    """
    if observed <= expected_standard:
        return "below_both"
    if observed <= expected_max:
        return "flip"
    return "above_both"


def classify(record: ExperimentRecord) -> AuditVerdict:
    """Compare one record's best-of-t accuracy, as ``k/n`` of its count, against both baselines."""
    return classify_records([record])[0]


def classify_records(records: Sequence[ExperimentRecord]) -> list[AuditVerdict]:
    """:func:`classify` of each record, in order, in one flat pass over the file.

    One flat pass over the distinct ``(task, t)`` rows of the file gives
    every maximum baseline (``orderstat._Tails``), each p-value is read from
    its task's tail, and ``max_tail`` runs once, over the p-values of every
    record.  Every number has the bits that ``baseline_report`` gives for
    the record on its own.
    """
    if not records:
        return []
    tasks: dict[TaskSpec, int] = {}
    task = [tasks.setdefault(record._task, len(tasks)) for record in records]
    keys = list(zip(task, [record.t for record in records]))
    rows = {key: i for i, key in enumerate(sorted(set(keys)))}  # each task's rows together
    table = _Tails(list(tasks))
    maxima = table.expected_maxima([i for i, _ in rows], [t for _, t in rows])
    expected_max = maxima[[rows[key] for key in keys]]
    counts = np.array([record._count for record in records], np.int64)
    p_standard = table.tails(task, counts)
    p_max = max_tail(p_standard, np.array([float(record.t) for record in records]))
    standard = np.array([record.labels.expected_accuracy() for record in records])
    observed = counts / np.array([record.n for record in records])
    category = np.where(observed <= standard, 0, np.where(observed <= expected_max, 1, 2))
    return [
        AuditVerdict(record.id, record.model, record.dataset, record.observed_max_accuracy,
                     CATEGORIES[c], *numbers)
        for record, c, *numbers in zip(records, category.tolist(), standard.tolist(),
                                       expected_max.tolist(), p_standard.tolist(), p_max.tolist())
    ]


def aggregate(verdicts: Sequence[AuditVerdict]) -> AuditSummary:
    """Total and per-(model, dataset) category counts with flip percentages, from one tally."""
    if len(verdicts) == 0:
        raise DomainError("verdicts must be nonempty")
    total = dict.fromkeys(CATEGORIES, 0)
    groups: dict[tuple[str, str], dict[str, int]] = {}
    for (model, dataset, category), count in Counter(
            map(attrgetter("model", "dataset", "category"), verdicts)).items():
        total[category] += count
        groups.setdefault((model, dataset), dict.fromkeys(CATEGORIES, 0))[category] += count
    return AuditSummary(
        total=CategoryCounts(**total),
        groups=tuple(GroupCounts(model, dataset, CategoryCounts(**counts))
                     for (model, dataset), counts in sorted(groups.items())),
    )


def _sweep(truths: Sequence[bool], scores: Sequence[float]) -> list[tuple[int, int]]:
    """Cumulative (tp, fp) after each group of tied scores, taken in descending score order."""
    sweep: list[tuple[int, int]] = []
    tp = fp = 0
    previous = None
    for score, truth in sorted(zip(scores, map(bool, truths)), reverse=True):
        if sweep and score == previous:
            sweep.pop()  # a tie: the group's point moves on
        tp += truth
        fp += not truth
        sweep.append((tp, fp))
        previous = score
    return sweep


def roc_points(truths: Sequence[bool], scores: Sequence[float]) -> tuple[tuple[float, float], ...]:
    """ROC sweep points (fpr, tpr) over descending score thresholds.

    Tied scores enter in a single step.  Requires both classes present.
    """
    positives = sum(bool(v) for v in truths)
    negatives = len(truths) - positives
    if positives == 0 or negatives == 0:
        raise DomainError("ROC needs both a positive and a negative example")
    sweep = _sweep(truths, scores)
    return ((0.0, 0.0),) + tuple((fp / negatives, tp / positives) for tp, fp in sweep)


def pr_points(truths: Sequence[bool], scores: Sequence[float]) -> tuple[tuple[float, float], ...]:
    """Precision-recall sweep points (recall, precision), ties grouped."""
    positives = sum(bool(v) for v in truths)
    if positives == 0:
        raise DomainError("precision-recall needs a positive example")
    return tuple((tp / positives, tp / (tp + fp)) for tp, fp in _sweep(truths, scores))


def _trapezoidal_area(points: Sequence[tuple[float, float]]) -> float:
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def _step_area(points: Sequence[tuple[float, float]]) -> float:
    # Step interpolation: no credit between precision-recall points.
    area = 0.0
    previous_recall = 0.0
    for recall, precision in points:
        area += (recall - previous_recall) * precision
        previous_recall = recall
    return area


def evaluate_prediction(
    records: Sequence[ExperimentRecord], verdicts: Sequence[AuditVerdict]
) -> PredictionEvaluation:
    """Score both baselines as predictors of above-random held-out accuracy.

    ``verdicts`` are ``classify(record)`` for each record, in order; their
    baselines, categories and p-values are used as they are, not recomputed.
    Ground truth is the held-out count's ``k/n`` beating the standard
    baseline (the held-out set is used once, so no stronger bar applies).
    The ``standard`` predictor fires on a verdict above ``below_both``, the
    ``max`` one on ``above_both``.  The shared ranking score is the validation
    distribution function F(count - 1): the fraction of random classifiers
    the observed accuracy strictly beats.
    """
    if len(records) == 0:
        raise DomainError("records must be nonempty")
    if [v.id for v in verdicts] != [r.id for r in records]:
        raise DomainError("verdicts must be the classify() results of the records, in order")
    truths: list[bool] = []
    standard_preds: list[bool] = []
    max_preds: list[bool] = []
    scores: list[float] = []
    for record, verdict in zip(records, verdicts):
        if record._heldout_count is None:
            raise DomainError(f"record {record.id!r} is missing held-out fields")
        truths.append(record._heldout_count / record.heldout_n > verdict.expected_standard)
        standard_preds.append(verdict.category != "below_both")
        max_preds.append(verdict.category == "above_both")
        scores.append(1.0 - verdict.p_standard)
    positives = sum(truths)
    negatives = len(truths) - positives
    if positives and negatives:
        roc = roc_points(truths, scores)
        auroc = _trapezoidal_area(roc)
    else:
        roc, auroc = (), math.nan
    if positives:
        pr = pr_points(truths, scores)
        aupr = _step_area(pr)
    else:
        pr, aupr = (), math.nan
    return PredictionEvaluation(
        standard=_confusion(truths, standard_preds),
        max=_confusion(truths, max_preds),
        roc_points=roc,
        auroc=auroc,
        pr_points=pr,
        aupr=aupr,
        n_records=len(records),
    )


def _confusion(truths: Sequence[bool], predictions: Sequence[bool]) -> PredictorStats:
    tp = fp = tn = fn = 0
    for truth, predicted in zip(truths, predictions):
        if predicted:
            if truth:
                tp += 1
            else:
                fp += 1
        elif truth:
            fn += 1
        else:
            tn += 1
    return PredictorStats(tp=tp, fp=fp, tn=tn, fn=fn)


# ---------------------------------------------------------------------------
# Record ingestion

_REQUIRED_FIELDS = ("id", "model", "dataset", "n", "labels", "t", "observed_max_accuracy")


def parse_label_counts(text: str) -> PerExampleLabels:
    """Per-example label counts written ``2;3;4``; a single count is one example."""
    scheme = _scheme_of_counts(_digit_counts(text))
    return scheme if scheme is not None else _label_counts(text.split(";"))


def _digit_counts(text: str, separator: str = ";") -> np.ndarray | None:
    """The counts of ``text`` as int64, if it is ASCII digits between separators and spaces.

    numpy reads text more leniently than ``int`` does (``"3 4"`` reads as
    3 under numpy 1), so text it does not read as one count per separator
    is None, for :func:`_parse_int` to read count by count.  An empty count
    reads as 0, which no caller takes.  numpy clamps a count beyond int64,
    so a count of 10^18 or more is read count by count too.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if data.translate(None, b"0123456789 " + separator.encode("ascii")) \
            or not data[:1].isdigit() or not data[-1:].isdigit():
        return None
    try:
        counts = np.fromstring(text, dtype=np.int64, sep=separator)
    except ValueError:  # numpy 2 stops on text it cannot read
        return None
    if counts.size != text.count(separator) + 1 or counts.max() >= 10**18:
        return None
    return counts


def _scheme_of_counts(counts: np.ndarray | None) -> PerExampleLabels | None:
    """The scheme of an int64 array of label counts, from one histogram; None unless each is >= 1."""
    if counts is None or counts.size == 0 or counts.min() < 1:
        return None
    distinct, multiplicities = np.unique(counts, return_counts=True)
    return PerExampleLabels._from_count_histogram(
        dict(zip(distinct.tolist(), multiplicities.tolist())))


def _label_counts(values: Sequence[object]) -> PerExampleLabels:
    """Per-example scheme from counts each read as :func:`_parse_int` reads them.

    One pass counts the values; each distinct value is then read once.  On
    an error the values are read again one by one, so that the message
    names the first bad one.
    """
    try:
        histogram = Counter(values)
        # A Counter merges True with the count 1 (and False with 0), so the
        # values are searched for a boolean only when 0 or 1 is a key,
        # which it never is for text.
        if (1 in histogram or 0 in histogram) and any(type(v) is bool for v in values):
            raise DomainError("labels must be integers, not booleans")
        read = {value: _parse_int(value, "labels") for value in histogram}
    except (TypeError, DomainError):  # TypeError: a value does not hash
        for value in values:
            _parse_int(value, "labels")
        raise
    counts: Counter = Counter()
    for value, k in histogram.items():
        counts[read[value]] += k
    scheme = PerExampleLabels._from_count_histogram(counts)
    if scheme is None:  # a bad count: this raises, naming the first
        scheme = PerExampleLabels.from_label_counts([read[value] for value in values])
    return scheme


def _parse_labels(value: object, field: str = "labels") -> LabelScheme:
    if isinstance(value, PerExampleLabels):  # read by _decode_label_array
        return value
    if isinstance(value, (list, tuple)):
        return _label_counts(value)
    if isinstance(value, str):
        text = value.strip()
        if ";" in text:
            return parse_label_counts(text)
        return UniformLabels(_parse_int(text, field))
    if isinstance(value, int) and not isinstance(value, bool):
        return UniformLabels(value)
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return UniformLabels(_parse_int(value, field))  # 4.0 is 4, as for n and t
    raise DomainError(f"{field} must be an integer or per-example counts, got {value!r}")


def _parse_int(value: object, field: str) -> int:
    # JSON admits NaN, Infinity and 1e400 (which parses as inf).
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            raise DomainError(f"{field} must be an integer, got {value!r}") from None
    return _integer(value, field)


def _parse_float(value: object, field: str) -> float:
    if isinstance(value, bool):
        raise DomainError(f"{field} must be a number, got {value!r}")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the largest float
            raise DomainError(
                f"{field} {value} exceeds the largest float, {sys.float_info.max:.4g}"
            ) from None
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            raise DomainError(f"{field} must be a number, got {value!r}") from None
    raise DomainError(f"{field} must be a number, got {value!r}")


def _parse_text(value: object, field: str) -> str:
    text = str(value)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, from a JSON escape such as \ud800
        raise DomainError(f"{field} {text!r} is not valid Unicode") from None
    return text


def _parse_accuracies(value: object, field: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise DomainError("must be an array of accuracies")
    if set(map(type, value)) <= {float}:
        return tuple(value)
    return tuple(_parse_float(v, field) for v in value)


# Columns that one call reads as the parser reads each value: ints or
# floats as they are, text through int or float (both strip, as the
# parsers do), and text that encodes as UTF-8 as it is.  A column of any
# other kinds is None; a ValueError means some value is for the parser
# to reject.
def _int_column(values: list) -> list | None:
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values
    return list(map(int, map(str.strip, values))) if kinds == {str} else None


def _float_column(values: list) -> list | None:
    kinds = set(map(type, values))
    if kinds <= {float}:
        return values
    return list(map(float, map(str.strip, values))) if kinds == {str} else None


def _labels_column(values: list) -> list | None:
    # A file repeats its tasks: equal ints, or equal text, are read once.
    kinds = set(map(type, values)) - {list, PerExampleLabels}
    if not (kinds <= {int} or kinds <= {str}):
        return None
    once = {value: _parse_labels(value) for value in {v for v in values if type(v) in kinds}}
    return [once[value] if type(value) in kinds else _parse_labels(value) for value in values]


def _text_column(values: list) -> list | None:
    if not set(map(type, values)) <= {str}:
        return None
    "".join(values).encode("utf-8")
    return values


# Every record field with its parser and its column reader, in the order
# rows report errors.
_FIELD_PARSERS = (
    ("n", _parse_int, _int_column),
    ("t", _parse_int, _int_column),
    ("observed_max_accuracy", _parse_float, _float_column),
    ("labels", _parse_labels, _labels_column),
    ("heldout_accuracy", _parse_float, _float_column),
    ("heldout_n", _parse_int, _int_column),
    ("per_prompt_accuracies", _parse_accuracies, None),
    ("id", _parse_text, _text_column),
    ("model", _parse_text, _text_column),
    ("dataset", _parse_text, _text_column),
)


def _read_column(parser, column_reader, values: list, field: str) -> tuple[list, dict]:
    """``parser(value, field)`` of every value, and the DomainError of each bad one by index."""
    if column_reader is not None:
        try:
            read = column_reader(values)
        except ValueError:  # some value is bad: each is read on its own, for its message
            read = None
        if read is not None:
            return read, {}
    read, errors = [], {}
    for i, value in enumerate(values):
        try:
            read.append(parser(value, field))
        except DomainError as exc:
            read.append(None)
            errors[i] = exc
    return read, errors


def _absent_as_none(column: list) -> list:
    """The column with None for each value that is absent: null, or blank text."""
    kinds = set(map(type, column))
    if str in kinds and (kinds != {str} or "" in column or any(map(str.isspace, column))):
        return [None if isinstance(value, str) and not value.strip() else value
                for value in column]
    return column


def _records(rows: list[int], columns: dict[str, list],
             errors: list[RowError]) -> list[ExperimentRecord]:
    """The records of the rows numbered ``rows``, from each field's column of values.

    Each field is read as one column, and each distinct task ``(n,
    labels)`` becomes one t = 1 ``TaskSpec`` that its records share.  The
    observed, held-out and per-prompt accuracies map to counts in one
    array pass, ``orderstat._accuracy_counts``.  A row that any of these
    finds wrong, or that they cannot decide (a ``heldout_n`` above 2^53),
    is built by ``ExperimentRecord`` itself, which raises the error the
    row reports.  A bad row adds its :class:`RowError` entries to
    ``errors`` in field order instead of a record.
    """
    columns = {field: _absent_as_none(column) for field, column in columns.items()}
    missing_rows: set[int] = set()
    if any(None in columns[field] for field in _REQUIRED_FIELDS):
        for i, row in enumerate(rows):
            missing = [field for field in _REQUIRED_FIELDS if columns[field][i] is None]
            if missing:
                errors.append(RowError(row, missing[0],
                                       f"missing required field(s): {', '.join(missing)}"))
                missing_rows.add(i)
    bad = set(missing_rows)
    for field, parser, column_reader in _FIELD_PARSERS:
        column = columns[field]
        if not missing_rows and None not in column:
            columns[field], failed = _read_column(parser, column_reader, column, field)
            present = range(len(column))
        else:
            present = [i for i, value in enumerate(column)
                       if value is not None and i not in missing_rows]
            read, failed = _read_column(parser, column_reader, [column[i] for i in present], field)
            for i, value in zip(present, read):
                column[i] = value
        for j, exc in failed.items():
            errors.append(RowError(rows[present[j]], field, str(exc)))
            bad.add(present[j])
    if bad:  # only the rows that parsed go on
        good = [i for i in range(len(rows)) if i not in bad]
        rows = [rows[i] for i in good]
        columns = {field: [column[i] for i in good] for field, column in columns.items()}

    ids, models, datasets, ns, ts, labels, observed, heldout, heldout_ns, per_prompt = (
        columns[field] for field in ("id", "model", "dataset", "n", "t", "labels",
                                     "observed_max_accuracy", "heldout_accuracy", "heldout_n",
                                     "per_prompt_accuracies"))
    tasks: dict[tuple, TaskSpec | None] = {}
    task = []
    for key in zip(ns, labels):
        spec = tasks.get(key, False)
        if spec is False:
            try:
                spec = TaskSpec(n=key[0], labels=key[1], t=1)
            except (DomainError, FeasibilityError):  # the row's own build names it
                spec = None
            tasks[key] = spec
        task.append(spec)
    # The rows the array pass decides: a task, t in range, both held-out
    # fields with heldout_n up to 2^53 or neither, and no empty per-prompt list.
    checked = [j for j, (spec, t, accuracy, held_n, prompts) in enumerate(
                   zip(task, ts, heldout, heldout_ns, per_prompt))
               if spec is not None and 1 <= t <= sys.float_info.max and prompts != ()
               and (accuracy is None and held_n is None
                    or accuracy is not None and held_n is not None and 1 <= held_n <= 2**53)]
    held = [j for j in checked if heldout_ns[j] is not None]
    prompted = [j for j in checked if per_prompt[j] is not None]
    lengths = np.array([len(per_prompt[j]) for j in prompted], np.intp)
    counts, ok = _accuracy_counts(
        np.concatenate([np.array([ns[j] for j in checked] + [heldout_ns[j] for j in held], float),
                        np.repeat(np.array([ns[j] for j in prompted], float), lengths)]),
        np.array([observed[j] for j in checked] + [heldout[j] for j in held]
                 + [a for j in prompted for a in per_prompt[j]], float))
    c, h = len(checked), len(held)
    count = dict(zip(checked, counts[:c].tolist()))
    fast = dict(zip(checked, ok[:c].tolist()))
    heldout_count = dict(zip(held, counts[c : c + h].tolist()))
    for j, k_ok in zip(held, ok[c : c + h].tolist()):
        fast[j] = fast[j] and k_ok
    if prompted:
        starts = c + h + np.cumsum(lengths) - lengths
        for j, best, all_ok in zip(prompted, np.maximum.reduceat(counts, starts).tolist(),
                                   np.logical_and.reduceat(ok, starts).tolist()):
            fast[j] = fast[j] and all_ok and best == count[j]
    records = []
    for j, values in enumerate(zip(ids, models, datasets, ns, labels, ts, observed, per_prompt,
                                   heldout, heldout_ns)):
        if fast.get(j):
            prompts, t = values[7], values[5]
            warnings = () if prompts is None or len(prompts) == t else (
                _length_warning(values[0], t, len(prompts)),)
            records.append(ExperimentRecord._checked(task[j], count[j], heldout_count.get(j),
                                                     *values, warnings))
            continue
        try:
            records.append(ExperimentRecord(**{field: column[j] for field, column in columns.items()
                                               if column[j] is not None}))
        except (DomainError, FeasibilityError) as exc:
            errors.append(RowError(rows[j], None, str(exc)))
    return records


# The longest CSV field read: 2 * 10^4 per-example label counts (the
# documented per-example range) of up to 309 digits each, the length of the
# largest float, with their separators.
_CSV_FIELD_LIMIT = 2 * 10**4 * 310


def read_records(source: str | Path | TextIO, format: str = "csv") -> LoadResult:
    """Parse experiment records from a path or an open text stream.

    ``format`` is ``"csv"`` (header row required) or ``"jsonl"`` (one
    JSON object per line).  Malformed rows become :class:`RowError`
    entries carrying their row number instead of silently disappearing.
    Input that is not UTF-8, and CSV that the reader cannot split into
    rows, raise :class:`DomainError`.
    """
    if format not in ("csv", "jsonl"):
        raise DomainError(f"format must be 'csv' or 'jsonl', got {format!r}")
    try:
        if hasattr(source, "read"):
            return _read_stream(source, format)  # type: ignore[arg-type]
        # utf-8-sig: a leading byte-order mark, as spreadsheet exports write, is not data.
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            return _read_stream(handle, format)
    except UnicodeDecodeError as exc:
        if hasattr(source, "read"):  # a stream cannot be read again for the offset
            raise DomainError(f"input is not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                              f"({exc.reason})") from None
        raise DomainError(f"{source} is not UTF-8: {_first_bad_byte(source)}") from None


def _first_bad_byte(path: str | Path) -> str:
    """Where a file first fails to decode as UTF-8: the byte, its offset and why."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"byte 0x{data[exc.start]:02x} at offset {exc.start} ({exc.reason})"
    return "it changed while it was read"


# A "labels" array, which json.dumps writes as "labels": [2, 3, 4].
_LABELS_ARRAY = re.compile(r'"labels": ?\[')
# A noncharacter, which stands in for the array while json reads the rest.
_SLOT = "\ufdd0"


def _decode_label_array(line: str) -> dict | None:
    """``json.loads(line)`` with its "labels" array of label counts read as a scheme, or None.

    Most of the bytes of a file with per-example labels are these arrays,
    and ``json`` makes a Python int of each count.  So the array is cut
    out, ``json`` reads the line with a string in its place, and the
    counts are read in one numpy pass.  That gives ``json.loads``'s value
    only when the string must stand where the array stood, and the counts
    are what ``json`` reads: so the line holds no backslash and no U+FDD0,
    the string lands as the object's "labels", and the array is counts of
    1 or more, without a leading zero (which JSON forbids), between commas
    and spaces.  Any other line is None, for ``json.loads`` to read.  The
    caller makes that call itself: ``json`` counts nesting against Python's
    recursion limit, so one more frame would change the error a deeply
    nested line reports.
    """
    found = _LABELS_ARRAY.search(line)
    if found is None or "\\" in line or _SLOT in line:
        return None
    end = line.find("]", found.end())
    text = line[found.end() : end]
    scheme = _scheme_of_counts(_digit_counts(text, ",") if end > 0 else None)
    if scheme is None:
        return None
    codes = np.frombuffer(text.encode("ascii"), np.uint8)
    if text[0] == "0" or np.any((codes[1:] == ord("0")) & (codes[:-1] < ord("0"))):
        return None  # a count starts with 0: JSON forbids it
    try:
        value = json.loads(f'{line[: found.end() - 1]}"{_SLOT}"{line[end + 1 :]}')
    except (ValueError, RecursionError):  # json.loads of the line itself names the error
        return None
    if not (isinstance(value, dict) and value.get("labels") == _SLOT):
        return None
    value["labels"] = scheme
    return value


def _read_stream(stream: TextIO, format: str) -> LoadResult:
    rows: list[int] = []
    objects: list[Mapping] = []
    errors: list[RowError] = []
    if format == "csv":
        # The limit is process-wide; it is restored on the way out.
        previous_limit = csv.field_size_limit(_CSV_FIELD_LIMIT)
        try:
            reader = csv.DictReader(stream)
            if reader.fieldnames is None:
                raise DomainError("CSV input has no header row")
            objects = list(reader)
        except csv.Error as exc:  # line_num counts the lines read before the bad record
            raise DomainError(f"CSV input line {reader.line_num + 1}: {exc}") from None
        finally:
            csv.field_size_limit(previous_limit)
        rows = list(range(1, len(objects) + 1))
    else:
        for row_number, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                value = _decode_label_array(line)
                if value is None:
                    value = json.loads(line)
            except (ValueError, RecursionError) as exc:  # ValueError: also an int too long
                errors.append(RowError(row_number, None, f"invalid JSON: {exc}"))
                continue
            if not isinstance(value, dict):
                errors.append(RowError(row_number, None, "each line must be a JSON object"))
                continue
            rows.append(row_number)
            objects.append(value)
    columns = {field: [value.get(field) for value in objects] for field, _, _ in _FIELD_PARSERS}
    records = _records(rows, columns, errors)
    # Each row's errors come from one stage, in field order; the stages go row by row.
    errors.sort(key=lambda error: error.row)
    return LoadResult(records=tuple(records), errors=tuple(errors))

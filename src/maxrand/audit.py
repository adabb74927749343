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
import itertools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .dist import LabelScheme, PerExampleLabels, UniformLabels
from .errors import DomainError, FeasibilityError
from .orderstat import (
    _T_BLOCK_ELEMENTS,
    TaskSpec,
    _base,
    _check_t,
    accuracy_to_count,
    baseline_report,  # unused here; perfbench/tracing.py wraps audit.baseline_report
    expected_max_accuracies,
    expected_standard_accuracy,
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
    # observed_max_accuracy and heldout_accuracy that every decision reads.
    _heldout_count = None

    def __post_init__(self) -> None:
        # TaskSpec construction validates n, t and the labels length.
        spec = TaskSpec(n=self.n, labels=self.labels, t=self.t)
        object.__setattr__(self, "_spec", spec)
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
                message = (
                    f"record {self.id!r}: t={self.t} but "
                    f"{len(self.per_prompt_accuracies)} per-prompt accuracies given; t wins"
                )
                object.__setattr__(self, "warnings", self.warnings + (message,))
        if self.heldout_accuracy is not None:
            if self.heldout_n is None:
                raise DomainError(f"record {self.id!r}: heldout_accuracy without heldout_n")
            if self.heldout_n < 1:
                raise DomainError(f"record {self.id!r}: heldout_n must be >= 1")
            heldout_count = accuracy_to_count(self.heldout_n, self.heldout_accuracy)
            object.__setattr__(self, "_heldout_count", heldout_count)
        elif self.heldout_n is not None:
            raise DomainError(f"record {self.id!r}: heldout_n without heldout_accuracy")

    def spec(self) -> TaskSpec:
        return self._spec


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

    The weights ``P(V <= v)^t - P(V < v)^t`` are raised for a block of ``t``
    at a time, at most ``_T_BLOCK_ELEMENTS`` elements or one row.  Each row's
    exponent is broadcast, so numpy runs the ``pow`` loop it runs for one
    ``t``; ``t = 2`` is squared, as ``** 2`` squares one ``t``.  Each row
    meets the values in a dot of its own.  So every value has the bits of
    its one-t call.
    """
    if len(accuracies) == 0:
        raise DomainError("accuracies must be nonempty")
    for t in ts:
        _check_t(t)
    values = np.asarray(accuracies, dtype=float)
    distinct, counts = np.unique(values, return_counts=True)
    at_most = np.cumsum(counts) / values.size
    below = at_most - counts / values.size
    times = np.array([float(t) for t in ts])[:, None]
    step = max(1, _T_BLOCK_ELEMENTS // distinct.size)
    curve: list[float] = []
    for start in range(0, len(times), step):
        block = times[start : start + step]
        weights = at_most**block - below**block
        weights[block[:, 0] == 2] = at_most**2 - below**2
        curve += [float(distinct @ row) for row in weights]
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
    """:func:`classify` of each record, in order, in one pass over the records.

    Each task ``(n, labels)`` gets one ``expected_max_accuracies`` call over
    the distinct ``t`` of its records and one base distribution lookup, and
    ``max_tail`` runs once, over the p-values of every record.  Every number
    has the bits that ``baseline_report`` gives for the record on its own.
    """
    members: dict[TaskSpec, list[int]] = {}
    for i, record in enumerate(records):
        members.setdefault(record.spec()._task, []).append(i)
    expected_max = [0.0] * len(records)
    p_standard = np.empty(len(records))
    for task, indices in members.items():
        ts = list(dict.fromkeys(records[i].t for i in indices))
        bars = dict(zip(ts, expected_max_accuracies(task, ts).tolist()))
        base = _base(task)
        for i in indices:
            expected_max[i] = bars[records[i].t]
            p_standard[i] = base.tail(records[i]._count)
    p_max = max_tail(p_standard, np.array([float(record.t) for record in records]))
    verdicts = []
    for record, bar, tail, max_tail_ in zip(records, expected_max, p_standard.tolist(),
                                            p_max.tolist()):
        expected_standard = expected_standard_accuracy(record.spec())
        verdicts.append(AuditVerdict(
            id=record.id,
            model=record.model,
            dataset=record.dataset,
            observed_max_accuracy=record.observed_max_accuracy,
            category=categorize_observation(record._count / record.n, expected_standard, bar),
            expected_standard=expected_standard,
            expected_max=bar,
            p_standard=tail,
            p_max=max_tail_,
        ))
    return verdicts


def _count_categories(verdicts: Iterable[AuditVerdict]) -> CategoryCounts:
    tally = {category: 0 for category in CATEGORIES}
    for verdict in verdicts:
        tally[verdict.category] += 1
    return CategoryCounts(**tally)


def aggregate(verdicts: Sequence[AuditVerdict]) -> AuditSummary:
    """Total and per-(model, dataset) category counts with flip percentages."""
    if len(verdicts) == 0:
        raise DomainError("verdicts must be nonempty")
    by_group: dict[tuple[str, str], list[AuditVerdict]] = {}
    for verdict in verdicts:
        by_group.setdefault((verdict.model, verdict.dataset), []).append(verdict)
    groups = tuple(
        GroupCounts(model=model, dataset=dataset, counts=_count_categories(group))
        for (model, dataset), group in sorted(by_group.items())
    )
    return AuditSummary(total=_count_categories(verdicts), groups=groups)


def _sweep(truths: Sequence[bool], scores: Sequence[float]) -> list[tuple[int, int]]:
    """Cumulative (tp, fp) after each group of tied scores, taken in descending score order."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    sweep = []
    tp = fp = 0
    for _, group in itertools.groupby(order, key=scores.__getitem__):
        hits = [bool(truths[i]) for i in group]
        tp += sum(hits)
        fp += len(hits) - sum(hits)
        sweep.append((tp, fp))
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
    return _label_counts(text.split(";"))


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
    if isinstance(value, bool):
        raise DomainError(f"{field} must be an integer or per-example counts, got {value!r}")
    if isinstance(value, int):
        return UniformLabels(value)
    if isinstance(value, (list, tuple)):
        return _label_counts(value)
    if isinstance(value, str):
        text = value.strip()
        if ";" in text:
            return parse_label_counts(text)
        return UniformLabels(_parse_int(text, field))
    raise DomainError(f"{field} must be an integer or per-example counts, got {value!r}")


def _parse_int(value: object, field: str) -> int:
    if isinstance(value, bool):
        raise DomainError(f"{field} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    # JSON admits NaN, Infinity and 1e400 (which parses as inf).
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            raise DomainError(f"{field} must be an integer, got {value!r}") from None
    raise DomainError(f"{field} must be an integer, got {value!r}")


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
    return tuple(_parse_float(v, field) for v in value)


# Every record field with its parser, in the order rows report errors.
_FIELD_PARSERS = (
    ("n", _parse_int),
    ("t", _parse_int),
    ("observed_max_accuracy", _parse_float),
    ("labels", _parse_labels),
    ("heldout_accuracy", _parse_float),
    ("heldout_n", _parse_int),
    ("per_prompt_accuracies", _parse_accuracies),
    ("id", _parse_text),
    ("model", _parse_text),
    ("dataset", _parse_text),
)


def _record_from_mapping(
    raw: Mapping[str, object], row: int, errors: list[RowError]
) -> ExperimentRecord | None:
    present = {
        key: value
        for key, value in raw.items()
        if value is not None and not (isinstance(value, str) and value.strip() == "")
    }
    missing = [field for field in _REQUIRED_FIELDS if field not in present]
    if missing:
        errors.append(RowError(row, missing[0], f"missing required field(s): {', '.join(missing)}"))
        return None
    fields: dict[str, object] = {}
    ok = True
    for field, parser in _FIELD_PARSERS:
        if field in present:
            try:
                fields[field] = parser(present[field], field)
            except DomainError as exc:
                errors.append(RowError(row, field, str(exc)))
                ok = False
    if not ok:
        return None
    try:
        return ExperimentRecord(**fields)  # type: ignore[arg-type]
    except (DomainError, FeasibilityError) as exc:
        errors.append(RowError(row, None, str(exc)))
        return None


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


def _read_stream(stream: TextIO, format: str) -> LoadResult:
    records: list[ExperimentRecord] = []
    errors: list[RowError] = []
    if format == "csv":
        # The limit is process-wide; it is restored on the way out.
        previous_limit = csv.field_size_limit(_CSV_FIELD_LIMIT)
        try:
            reader = csv.DictReader(stream)
            if reader.fieldnames is None:
                raise DomainError("CSV input has no header row")
            for row_number, raw in enumerate(reader, start=1):
                record = _record_from_mapping(raw, row_number, errors)
                if record is not None:
                    records.append(record)
        except csv.Error as exc:  # line_num counts the lines read before the bad record
            raise DomainError(f"CSV input line {reader.line_num + 1}: {exc}") from None
        finally:
            csv.field_size_limit(previous_limit)
    else:
        for row_number, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except (ValueError, RecursionError) as exc:  # ValueError: also an int too long
                errors.append(RowError(row_number, None, f"invalid JSON: {exc}"))
                continue
            if not isinstance(raw, dict):
                errors.append(RowError(row_number, None, "each line must be a JSON object"))
                continue
            record = _record_from_mapping(raw, row_number, errors)
            if record is not None:
                records.append(record)
    return LoadResult(records=tuple(records), errors=tuple(errors))

"""Reference implementations used only by the tests.

The numeric references share no code with the package: exact rational
arithmetic and exhaustive enumeration, feasible only at small sizes.
``row_read_records`` is the record reader that parsed a file row by row;
it shares only the record and label types with the package.
"""

import csv
import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence, TextIO

from maxrand.audit import ExperimentRecord, LoadResult, RowError
from maxrand.dist import LabelScheme, PerExampleLabels, UniformLabels, _integer
from maxrand.errors import DomainError, FeasibilityError


def exact_binomial_pmf(n: int, p: Fraction) -> list[float]:
    """Binomial pmf by exact rational arithmetic."""
    return [float(math.comb(n, k) * p**k * (1 - p) ** (n - k)) for k in range(n + 1)]


def bernoulli_enumeration_pmf(probabilities) -> list[float]:
    """Pmf of a sum of independent Bernoulli trials by full 2^n enumeration."""
    probs = [Fraction(p) for p in probabilities]
    n = len(probs)
    pmf = [Fraction(0)] * (n + 1)
    for outcome in itertools.product((0, 1), repeat=n):
        weight = Fraction(1)
        for bit, p in zip(outcome, probs):
            weight *= p if bit else 1 - p
        pmf[sum(outcome)] += weight
    return [float(value) for value in pmf]


def expanded_probabilities(scheme) -> list[float]:
    """Every example's p_i of a per-example scheme: each distinct p_i, repeated, in its order."""
    return [p for p, k in zip(scheme.distinct, scheme.multiplicities) for _ in range(k)]


def max_tuple_enumeration_pmf(base_pmf, t: int) -> list[float]:
    """Pmf of the max of t iid draws, summing all (n+1)^t weighted tuples."""
    n = len(base_pmf) - 1
    out = [0.0] * (n + 1)
    for tup in itertools.product(range(n + 1), repeat=t):
        weight = 1.0
        for k in tup:
            weight *= base_pmf[k]
        out[max(tup)] += weight
    return out


def expected_accuracy_of_pmf(pmf) -> float:
    n = len(pmf) - 1
    return sum(k * pk for k, pk in enumerate(pmf)) / n


# ---------------------------------------------------------------------------
# The record reader that parsed a file row by row, field by field, kept as
# the reference for ``maxrand.read_records``, which reads a file a column
# at a time.  It builds the package's record types, and each record through
# ``ExperimentRecord``'s own checks.

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
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return UniformLabels(int(value))
    if isinstance(value, (list, tuple)):
        return _label_counts(value)
    if isinstance(value, str):
        text = value.strip()
        if ";" in text:
            return parse_label_counts(text)
        return UniformLabels(_parse_int(text, field))
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


def row_read_records(source, format: str = "csv") -> LoadResult:
    """``maxrand.read_records`` as it read each row: one mapping, one parser call per field."""
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

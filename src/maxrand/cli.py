"""Command-line front end.

Subcommands: ``baseline``, ``pvalue``, ``threshold``, ``grid``,
``audit``, ``simulate``, ``curve``.  Output is CSV by default or
JSON-lines with ``--format json`` (one object per line; ``audit`` lines
carry a ``kind`` field mirroring the CSV sections).  Floats are printed
with 12 significant digits and output is byte-identical across runs for
identical inputs, flags and seeds.

Exit codes: 0 success, 2 usage or validation error, 3 numeric or
feasibility error.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import audit as audit_mod
from .dist import LabelScheme, UniformLabels
from .errors import ConvergenceError, DomainError, FeasibilityError
from .oracle import SimulationConfig, simulate_expected_max
from .orderstat import (
    TaskSpec,
    _base,
    _ceil_count,
    _least_accuracy_over,
    expected_max_accuracies,
    expected_max_accuracy,
    expected_standard_accuracy,
    max_tail,
    min_accuracy_at_significance,
    min_accuracy_beating_max,
    p_value_max,
    p_value_standard,
    tail_probability_max,
    tail_probability_standard,  # unused here; perfbench/tracing.py wraps it in cli
)

_VALIDATION_EXIT = 2
_NUMERIC_EXIT = 3


def _write(stream, text: str) -> None:
    # Not click.echo: click keeps a never-freed entry per redirected stream.
    stream.write(text)
    stream.flush()


# ---------------------------------------------------------------------------
# Output helpers

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        if math.isnan(value):
            return None
        return float(f"{value:.12g}")
    return value


def _csv_cells(column) -> list[str]:
    """``_cell`` of each value of one column, in one pass."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return list(map("{:.12g}".format, column))  # also "nan" and "inf", as _cell prints them
    return list(map(str if kinds <= {int, str} else _cell, column))


def _json_values(column) -> list:
    """``_json_value`` of each value of one column, in one pass."""
    if set(map(type, column)) != {float}:
        return list(map(_json_value, column))
    return [None if text == "nan" else float(text) for text in map("{:.12g}".format, column)]


def _csv_block(header, rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *zip(*map(_csv_cells, zip(*rows)))])
    return buffer.getvalue()


def _json_block(kind, header, rows) -> str:
    """One ``json.dumps`` line per row, keyed by the header and led by ``kind`` unless it is None."""
    lead = {"kind": kind} if kind else {}
    return "".join([json.dumps(lead | dict(zip(header, row))) + "\n"
                    for row in zip(*map(_json_values, zip(*rows)))])


def _emit_sections(sections, fmt: str, out: str | None) -> None:
    """Write ``(kind, header, rows)`` sections as CSV blocks or JSON lines.

    CSV prints each section as a header plus rows, blocks separated by a
    blank line, so an empty section still prints its header.  JSON prints
    one object per row, keyed by the header and led by ``kind`` unless
    the kind is None.  A file that cannot be written is a validation error.
    """
    if fmt == "json":
        text = "".join(_json_block(kind, header, rows) for kind, header, rows in sections)
    else:
        text = "\n".join(_csv_block(header, rows) for _, header, rows in sections)
    if out is None:
        _write(sys.stdout, text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            _write(sys.stderr, f"error: cannot write --out {out}: {exc.strerror or exc}\n")
            raise SystemExit(_VALIDATION_EXIT) from None


def _record(payload: dict) -> list:
    """One unnamed section of one row: the payload's keys over its values."""
    return [(None, list(payload), [list(payload.values())])]


def _fields(obj, names) -> list:
    return [getattr(obj, name) for name in names]


# ---------------------------------------------------------------------------
# Flag parsing

def _scheme(m: int | None, labels: str | None) -> LabelScheme:
    if (m is None) == (labels is None):
        raise DomainError("provide exactly one of --m or --labels")
    if m is not None:
        return UniformLabels(m)
    return audit_mod.parse_label_counts(labels)


_MAX_AXIS_POINTS = 10**6


def _parse_axis(text: str, name: str) -> list[int]:
    """Axis syntax: 'a,b,c' explicit, 'lo:hi' every integer, 'lo:hi:count' log-spaced."""
    syntax = f"{name} must be 'a,b,c', 'lo:hi', or 'lo:hi:count' (log-spaced), got {text!r}"
    try:
        parts = [int(part) for part in text.split(":" if ":" in text else ",")]
    except ValueError:  # also a mix of ',' and ':'
        raise DomainError(syntax) from None
    if ":" in text:
        if len(parts) == 2:
            lo, hi = parts
            if lo > hi:
                raise DomainError(f"{name} range {text!r}: lo must not exceed hi")
            if hi - lo >= _MAX_AXIS_POINTS:
                raise DomainError(f"{name} range {text!r} has over 10^6 points; use lo:hi:count")
            values = list(range(lo, hi + 1))
        elif len(parts) == 3:
            lo, hi, count = parts
            if not 1 <= lo <= hi <= sys.float_info.max or count < 1:
                raise DomainError(
                    f"{name} log-range needs 1 <= lo <= hi <= {sys.float_info.max:.4g} "
                    "and count >= 1"
                )
            if count > _MAX_AXIS_POINTS:
                raise DomainError(f"{name} log-range {text!r} asks for over 10^6 points")
            with np.errstate(over="ignore"):  # on the way to hi, geomspace may reach inf
                values = sorted({int(round(v)) for v in np.geomspace(float(lo), float(hi), count)})
        else:
            raise DomainError(f"{name} range syntax is 'lo:hi' or 'lo:hi:count', got {text!r}")
    else:
        values = sorted(set(parts))
    if not values or min(values) < 1:
        raise DomainError(f"{name} values must be integers >= 1, got {text!r}")
    return values


_m_option = click.option("--m", type=int, default=None, help="Number of labels per example.")
_labels_option = click.option(
    "--labels", default=None, help="Semicolon-delimited per-example label counts, e.g. 2;3;4."
)
_input_format_option = click.option(
    "--input-format",
    type=click.Choice(["csv", "jsonl"]),
    default=None,
    help="Defaults by extension (.jsonl/.ndjson are JSON-lines, anything else CSV).",
)


@click.group()
def main() -> None:
    """Stronger random baselines for reused validation sets."""


def _command(fn):
    """Register ``fn``, which returns ``(kind, header, rows)`` sections, as a subcommand.

    Adds ``--format`` and ``--out`` after ``fn``'s options, maps errors to
    an ``error:`` line and exit 3 (numeric or feasibility) or 2
    (validation), and writes the sections.  The command returns None,
    which is what ``main(args, standalone_mode=False)`` passes on.
    """

    @functools.wraps(fn)
    def run(fmt: str, out: str | None, **options) -> None:
        try:
            sections = fn(**options)
        except (FeasibilityError, ConvergenceError) as exc:
            _write(sys.stderr, f"error: {exc}\n")
            raise SystemExit(_NUMERIC_EXIT)
        except DomainError as exc:
            _write(sys.stderr, f"error: {exc}\n")
            raise SystemExit(_VALIDATION_EXIT)
        _emit_sections(sections, fmt, out)

    command = main.command()(run)
    formats = click.Choice(["csv", "json"])
    command.params += [
        click.Option(["--format", "fmt"], type=formats, default="csv", show_default=True),
        click.Option(["--out"], type=click.Path(dir_okay=False, writable=True), default=None),
    ]
    return command


def _task_flags(fn):
    """Declare ``--n``, ``--m`` or ``--labels``, and ``--t``; pass ``fn`` the ``spec`` they make."""

    @click.option("--n", type=int, required=True, help="Validation-set size.")
    @_m_option
    @_labels_option
    @click.option("--t", type=int, required=True, help="Number of validation-set evaluations.")
    @functools.wraps(fn)  # first, so the options join those fn already has
    def with_spec(n: int, m: int | None, labels: str | None, t: int, **options):
        return fn(spec=TaskSpec(n=n, labels=_scheme(m, labels), t=t), **options)

    return with_spec


@_command
@_task_flags
def baseline(spec: TaskSpec):
    """Standard and maximum random baselines, and the accuracy that beats them."""
    expected_max = expected_max_accuracy(spec)
    return _record({
        "expected_standard": expected_standard_accuracy(spec),
        "expected_max": expected_max,
        "min_accuracy_beating_max": _least_accuracy_over(spec.n, expected_max),
    })


@_command
@_task_flags
@click.option("--acc", type=float, required=True, help="Observed accuracy (must be k/n).")
def pvalue(spec: TaskSpec, acc: float):
    """p-values of an observed accuracy against both baselines."""
    return _record({
        "p_standard": p_value_standard(spec, acc),
        "p_max": p_value_max(spec, acc),
    })


@_command
@_task_flags
@click.option("--alpha", type=float, default=None, help="Significance level for the p-value solver.")
def threshold(spec: TaskSpec, alpha: float | None):
    """Least attainable accuracies above the maximum baseline / below alpha.

    Empty (null) values mean the threshold is unattainable.
    """
    return _record({
        "min_accuracy_beating_max": min_accuracy_beating_max(spec),
        "min_accuracy_at_significance": (
            min_accuracy_at_significance(spec, alpha) if alpha is not None else None
        ),
    })


@_command
@click.option("--n", "n_axis", required=True, help="n axis: 'a,b,c', 'lo:hi', or 'lo:hi:count'.")
@click.option("--t", "t_axis", required=True, help="t axis: 'a,b,c', 'lo:hi', or 'lo:hi:count'.")
@_m_option
@_labels_option
@click.option(
    "--quantity",
    type=click.Choice(["expected_max", "p_value", "threshold"]),
    default="expected_max",
    show_default=True,
)
@click.option("--acc", type=float, default=None, help="Accuracy for --quantity p_value.")
@click.option("--alpha", type=float, default=None, help="Significance level for --quantity threshold.")
def grid(n_axis, t_axis, m, labels, quantity, acc, alpha):
    """One value per (n, t) cell, n-major ascending; empty cells are unattainable."""
    scheme = _scheme(m, labels)
    ns = _parse_axis(n_axis, "--n")
    ts = _parse_axis(t_axis, "--t")
    if quantity == "p_value" and acc is None:
        raise DomainError("--quantity p_value requires --acc")
    if quantity == "threshold" and alpha is None:
        raise DomainError("--quantity threshold requires --alpha")
    rows = []
    for n in ns:
        if quantity == "expected_max":
            values = expected_max_accuracies(TaskSpec(n=n, labels=scheme, t=1), ts).tolist()
        elif quantity == "p_value":
            values = [tail_probability_max(TaskSpec(n=n, labels=scheme, t=t), acc) for t in ts]
        else:
            values = [min_accuracy_at_significance(TaskSpec(n=n, labels=scheme, t=t), alpha)
                      for t in ts]
        rows += [[n, t, value] for t, value in zip(ts, values)]
    return [(None, ["n", "t", "value"], rows)]


@_command
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@_input_format_option
@click.option("--eval-heldout", is_flag=True, help="Also score held-out prediction quality.")
def audit(input_path, input_format, eval_heldout):
    """Classify records against both baselines and aggregate the verdicts."""
    records = _load_records_strict(input_path, input_format)
    verdicts = audit_mod.classify_records(records)
    summary = audit_mod.aggregate(verdicts)
    scopes = [("total", None, None, summary.total)]
    scopes += [("group", g.model, g.dataset, g.counts) for g in summary.groups]
    sections = [
        ("verdict", _VERDICT_HEADER, [_fields(v, _VERDICT_HEADER) for v in verdicts]),
        ("summary", _SUMMARY_HEADER,
         [[scope, model, dataset, *_fields(counts, _SUMMARY_HEADER[3:])]
          for scope, model, dataset, counts in scopes]),
    ]
    if eval_heldout:
        prediction = audit_mod.evaluate_prediction(records, verdicts)
        points = [["roc", x, y] for x, y in prediction.roc_points]
        points += [["pr", x, y] for x, y in prediction.pr_points]
        sections += [
            ("predictor", _PREDICTOR_HEADER,
             [[name, *_fields(stats, _PREDICTOR_HEADER[1:])]
              for name, stats in (("standard", prediction.standard), ("max", prediction.max))]),
            ("metric", ["metric", "value"],
             [["auroc", prediction.auroc], ["aupr", prediction.aupr]]),
            ("curve", ["curve", "x", "y"], points),
        ]
    return sections


@_command
@_task_flags
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, required=True)
def simulate(spec: TaskSpec, trials: int, seed: int):
    """Monte Carlo estimate of the maximum baseline next to the closed form."""
    result = simulate_expected_max(SimulationConfig(spec=spec, trials=trials, seed=seed))
    return _record({
        "estimate": result.estimate,
        "std_error": result.std_error,
        "closed_form": expected_max_accuracy(spec),
        "trials": result.trials,
        "seed": result.seed,
        "generator": result.generator,
    })


@_command
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@_input_format_option
@click.option(
    "--t",
    "t_axis",
    default=None,
    help="t axis ('a,b,c', 'lo:hi', or 'lo:hi:count'); default 1..record t.",
)
def curve(input_path, input_format, t_axis):
    """Empirical expected-max curve next to the maximum baseline, per record.

    Every record must carry per_prompt_accuracies, which require
    JSON-lines input.  The p-value columns evaluate the empirical curve
    value at each t.  For each record the sample is sorted once, and the
    empirical curve, the baseline, the counts' tails and their maxima are
    each computed over the whole t axis, with the bits of one t at a time.
    """
    records = _load_records_strict(input_path, input_format)
    for record in records:
        if record.per_prompt_accuracies is None:
            raise DomainError(f"record {record.id!r} has no per_prompt_accuracies")
        if t_axis is None and record.t > _MAX_AXIS_POINTS:
            raise DomainError(f"record {record.id!r}: the t axis 1..{record.t} has over 10^6 "
                              "points; use --t")
    ts_flag = _parse_axis(t_axis, "--t") if t_axis is not None else None
    rows = []
    for record in records:
        ts = ts_flag if ts_flag is not None else list(range(1, record.t + 1))
        task = record.spec()._task
        # the estimator is bounded by the sample range; shed float dust
        empirical = [min(max(value, 0.0), 1.0) for value in
                     audit_mod.empirical_expected_maxima(record.per_prompt_accuracies, ts)]
        # tail_probability_standard and tail_probability_max of each point, as arrays
        counts = np.array([_ceil_count(task.n, value) for value in empirical], np.int64)
        p_standard = _base(task).tails(counts)
        p_max = max_tail(p_standard, np.array([float(t) for t in ts]))
        rows += zip([record.id] * len(ts), ts, empirical,
                    expected_max_accuracies(task, ts).tolist(), p_standard.tolist(), p_max.tolist())
    header = ["id", "t", "empirical_expected_max", "expected_max_baseline", "p_standard", "p_max"]
    return [(None, header, rows)]


# ---------------------------------------------------------------------------
# audit/curve plumbing

def _load_records_strict(input_path: str, input_format: str | None):
    if input_format is None:
        suffix = Path(input_path).suffix.lower()
        input_format = "jsonl" if suffix in (".jsonl", ".ndjson") else "csv"
    loaded = audit_mod.read_records(input_path, format=input_format)
    for record in loaded.records:
        for warning in record.warnings:
            _write(sys.stderr, f"warning: {warning}\n")
    if loaded.errors:
        for error in loaded.errors:
            location = f"row {error.row}" + (f", field {error.field}" if error.field else "")
            _write(sys.stderr, f"error: {location}: {error.message}\n")
        raise SystemExit(_VALIDATION_EXIT)
    if not loaded.records:
        raise DomainError("input contains no records")
    return list(loaded.records)


_VERDICT_HEADER = [
    "id",
    "model",
    "dataset",
    "observed_max_accuracy",
    "expected_standard",
    "expected_max",
    "p_standard",
    "p_max",
    "category",
]

_SUMMARY_HEADER = [
    "scope",
    "model",
    "dataset",
    "below_both",
    "flip",
    "above_both",
    "flipped_percentage",
    "flipped_denominator_zero",
]

_PREDICTOR_HEADER = ["predictor", "tp", "fp", "tn", "fn", "accuracy", "precision", "recall"]


if __name__ == "__main__":
    main()

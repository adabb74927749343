"""Hypothesis fuzzing of every CLI command, in process.

Whatever the flags or the input file, a command ends in exit 0, 2 or 3,
raises nothing but ``SystemExit``, prints no traceback, and leaves stdout
empty when it fails.  The sizes a command may be asked for are bounded,
so that no example allocates much or runs long: ``n <= 2000``, at most
50 trials, ``t <= 1000`` for ``simulate`` and axes of a few points.  The
out-of-range values 0, -1, ``MAX_N + 1`` and ``10**400`` are mixed in,
because they are rejected before anything is allocated.  Some examples
pass ``--out`` under ``tmp_path``, some of them into a directory that does
not exist: then stdout stays empty, and the missing directory is an error.
"""

import csv
import io
import json
import math
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from maxrand.cli import main
from maxrand.dist import MAX_N

# tmp_path is shared by the examples of a test; each writes the same file name.
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])

OUT_OF_RANGE = [0, -1, MAX_N + 1, 10**400]


def sized(lo: int, hi: int, edges=OUT_OF_RANGE):
    return st.integers(lo, hi) | st.sampled_from(edges)


ns = sized(1, 2000)
ts = sized(1, 10**6, OUT_OF_RANGE + [10**308])
simulate_ts = sized(1, 1000, [0, -1, 10**400])
ms = sized(2, 12)
label_lists = st.lists(st.integers(-1, 12) | st.sampled_from([10**400]), min_size=1, max_size=6)
label_flags = label_lists.map(lambda counts: ";".join(map(str, counts))) | st.text(
    alphabet="0123456789; x-", max_size=10
)
# One of --m and --labels, or both, or neither.
schemes = st.one_of(
    st.tuples(ms, st.none()),
    st.tuples(st.none(), label_flags),
    st.tuples(st.none() | ms, st.none() | label_flags),
)
probabilities = st.floats(-0.5, 1.5) | st.sampled_from([0.0, 0.5, 1.0, math.nan, math.inf])
axis_points = sized(1, 2000)
axes = st.one_of(
    st.lists(axis_points, min_size=1, max_size=3).map(lambda v: ",".join(map(str, v))),
    st.tuples(axis_points, st.integers(-1, 3)).map(lambda p: f"{p[0]}:{p[0] + p[1]}"),
    st.tuples(axis_points, axis_points, sized(1, 4)).map(lambda p: "{}:{}:{}".format(*p)),
    st.text(alphabet="0123456789:,-x", max_size=8),
)


# Where --out points, relative to tmp_path; None passes no --out.
outs = st.sampled_from([None, None, "out.csv", "missing/out.csv"])


def scheme_flags(scheme) -> list[str]:
    m, labels = scheme
    return (["--m", str(m)] if m is not None else []) + (
        ["--labels", labels] if labels is not None else []
    )


def check(args: list[str], tmp_path: Path, out: str | None) -> None:
    if out is not None:
        args = [*args, "--out", str(tmp_path / out)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3), (args, result.stderr, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.exception)
    assert "Traceback" not in result.stderr, args
    if result.exit_code != 0 or out is not None:
        assert result.stdout == "", args
    if out is not None and not (tmp_path / out).parent.is_dir():
        assert result.exit_code != 0, args
        assert any(line.startswith("error: ") for line in result.stderr.splitlines()), args


@FUZZ
@given(n=ns, scheme=schemes, t=ts, fmt=st.sampled_from(["csv", "json"]), out=outs)
@example(n=10, scheme=(2, None), t=10**400, fmt="csv", out=None)  # once an OverflowError
@example(n=10, scheme=(2, None), t=2, fmt="csv", out="missing/out.csv")  # once a traceback
def test_baseline(tmp_path, n, scheme, t, fmt, out):
    check(["baseline", "--n", str(n), *scheme_flags(scheme), "--t", str(t), "--format", fmt],
          tmp_path, out)


@FUZZ
@given(n=ns, scheme=schemes, t=ts, acc=probabilities, out=outs)
def test_pvalue(tmp_path, n, scheme, t, acc, out):
    check(["pvalue", "--n", str(n), *scheme_flags(scheme), "--t", str(t), "--acc", repr(acc)],
          tmp_path, out)


@FUZZ
@given(n=ns, scheme=schemes, t=ts, alpha=st.none() | probabilities, out=outs)
def test_threshold(tmp_path, n, scheme, t, alpha, out):
    extra = ["--alpha", repr(alpha)] if alpha is not None else []
    check(["threshold", "--n", str(n), *scheme_flags(scheme), "--t", str(t), *extra],
          tmp_path, out)


@FUZZ
@given(
    n_axis=axes,
    t_axis=axes,
    scheme=schemes,
    quantity=st.sampled_from(["expected_max", "p_value", "threshold"]),
    acc=st.none() | probabilities,
    alpha=st.none() | probabilities,
    out=outs,
)
def test_grid(tmp_path, n_axis, t_axis, scheme, quantity, acc, alpha, out):
    extra = ["--acc", repr(acc)] if acc is not None else []
    extra += ["--alpha", repr(alpha)] if alpha is not None else []
    check(["grid", "--n", n_axis, "--t", t_axis, *scheme_flags(scheme),
           "--quantity", quantity, *extra], tmp_path, out)


@FUZZ
@given(
    n=ns,
    scheme=schemes,
    t=simulate_ts,
    trials=sized(1, 50, [0, -1, 10**400]),
    seed=st.integers(-1, 2**64),
    out=outs,
)
def test_simulate(tmp_path, n, scheme, t, trials, seed, out):
    check(["simulate", "--n", str(n), *scheme_flags(scheme), "--t", str(t),
           "--trials", str(trials), "--seed", str(seed)], tmp_path, out)


FIELDS = ["id", "model", "dataset", "n", "labels", "t", "observed_max_accuracy",
          "heldout_accuracy", "heldout_n", "per_prompt_accuracies"]
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.floats(),
    st.sampled_from(OUT_OF_RANGE),
    st.lists(st.integers(-1, 3), max_size=3),
)


@st.composite
def records(draw) -> dict:
    """A record that is valid as drawn, then has a few fields replaced or dropped."""
    n = draw(st.integers(1, 50))
    best = draw(st.integers(0, n))
    record = {
        "id": draw(st.text(max_size=3)),
        "model": draw(st.sampled_from(["a", "b"])),
        "dataset": draw(st.sampled_from(["x", "y"])),
        "n": n,
        "labels": draw(ms | st.lists(st.integers(1, 5), min_size=n, max_size=n)),
        "t": draw(st.integers(1, 30)),
        "observed_max_accuracy": best / n,
    }
    if draw(st.booleans()):
        heldout_n = draw(st.integers(1, 50))
        record["heldout_n"] = heldout_n
        record["heldout_accuracy"] = draw(st.integers(0, heldout_n)) / heldout_n
    if draw(st.booleans()):
        others = draw(st.lists(st.integers(0, best), max_size=4))
        record["per_prompt_accuracies"] = [k / n for k in others] + [best / n]
    for field in draw(st.lists(st.sampled_from(FIELDS), max_size=2)):
        if draw(st.booleans()):
            record[field] = draw(junk)
        else:
            record.pop(field, None)
    return record


def serialize(rows: list[dict], suffix: str) -> bytes:
    if suffix == ".jsonl":
        return "".join(json.dumps(row) + "\n" for row in rows).encode()
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue().encode()


def write_records(directory: str, rows: list[dict], suffix: str) -> str:
    path = Path(directory) / f"records{suffix}"
    path.write_bytes(serialize(rows, suffix))
    return str(path)


input_files = st.tuples(
    st.lists(records(), max_size=4),
    st.sampled_from([".jsonl", ".csv"]),
    st.sampled_from([[], ["--input-format", "csv"], ["--input-format", "jsonl"]]),
)


@FUZZ
@given(files=input_files, eval_heldout=st.booleans(), fmt=st.sampled_from(["csv", "json"]),
       out=outs)
def test_audit(tmp_path, files, eval_heldout, fmt, out):
    rows, suffix, input_format = files
    with tempfile.TemporaryDirectory() as directory:
        path = write_records(directory, rows, suffix)
        check(["audit", path, *input_format, *(["--eval-heldout"] if eval_heldout else []),
               "--format", fmt], tmp_path, out)


@FUZZ
@given(files=input_files, t_axis=st.none() | axes, out=outs)
@example(files=([{"id": "r", "model": "a", "dataset": "x", "n": 1, "labels": 2, "t": 1,  # once
                  "observed_max_accuracy": 0.0, "heldout_n": 10**400,  # an OverflowError
                  "heldout_accuracy": 0.0}], ".jsonl", []), t_axis=None, out=None)
def test_curve(tmp_path, files, t_axis, out):
    rows, suffix, input_format = files
    with tempfile.TemporaryDirectory() as directory:
        path = write_records(directory, rows, suffix)
        check(["curve", path, *input_format, *(["--t", t_axis] if t_axis is not None else [])],
              tmp_path, out)


@st.composite
def raw_files(draw) -> tuple[bytes, str]:
    """The bytes of an input file and its suffix: junk, or records broken at the byte level.

    Arbitrary bytes; records with one field hundreds of thousands of
    characters long; a line nested up to 10^5 deep; records cut off
    anywhere; records with a few bytes spliced in.
    """
    suffix = draw(st.sampled_from([".jsonl", ".csv"]))
    kind = draw(st.sampled_from(["bytes", "long-field", "deep", "truncated", "spliced"]))
    if kind == "bytes":
        return draw(st.binary(max_size=300)), suffix
    rows = draw(st.lists(records(), min_size=1, max_size=3))
    if kind == "deep":
        opener = draw(st.sampled_from(["[", '{"a": ', '{"labels": [']))
        line = opener * draw(st.integers(1, 10**5))
        return serialize(rows, suffix) + line.encode() + b"\n", suffix
    if kind == "long-field":
        filler = draw(st.sampled_from(["2;", "9", "0.5,", "[", "x", "\u00e9"]))
        rows[0][draw(st.sampled_from(FIELDS))] = filler * draw(st.integers(10**4, 3 * 10**5))
    data = serialize(rows, suffix)
    cut = draw(st.integers(0, len(data)))
    if kind == "truncated":
        return data[:cut], suffix
    if kind == "spliced":
        return data[:cut] + draw(st.binary(min_size=1, max_size=8)) + data[cut:], suffix
    return data, suffix


raw_inputs = st.tuples(
    raw_files(),
    st.sampled_from([[], ["--input-format", "csv"], ["--input-format", "jsonl"]]),
)


@FUZZ
@given(raw=raw_inputs, fmt=st.sampled_from(["csv", "json"]), out=outs)
@example(raw=((b"id,n\n\xff\n", ".csv"), []), fmt="csv", out=None)  # once a UnicodeDecodeError
@example(raw=((b"[" * 10**5 + b"\n", ".jsonl"), []), fmt="csv", out=None)  # once a RecursionError
def test_audit_bytes(tmp_path, raw, fmt, out):
    (data, suffix), input_format = raw
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"records{suffix}"
        path.write_bytes(data)
        check(["audit", str(path), *input_format, "--format", fmt], tmp_path, out)


@FUZZ
@given(raw=raw_inputs, t_axis=st.none() | axes, out=outs)
@example(raw=((b"id,labels\n1," + b"9" * 140_000 + b"\n", ".csv"), []),  # once a csv.Error
         t_axis=None, out=None)
def test_curve_bytes(tmp_path, raw, t_axis, out):
    (data, suffix), input_format = raw
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"records{suffix}"
        path.write_bytes(data)
        check(["curve", str(path), *input_format, *(["--t", t_axis] if t_axis is not None else [])],
              tmp_path, out)

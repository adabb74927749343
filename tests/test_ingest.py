"""``read_records`` against the row-by-row reader it replaced.

``read_records`` reads a file a column at a time: one parse per field,
label counts as one array, one task per distinct ``(n, labels)`` and
every accuracy mapped to its count in one array pass.  ``row_read_records``
in ``tests/oracles.py`` is the reader that parsed each row field by field
and built each record through ``ExperimentRecord``.  On any file both give
equal records (every field, both counts, the task and the warnings), the
same ``RowError`` list, or the same error.  The files come from the CLI
fuzz's strategies, and from label counts written in the ways text and
JSON allow and forbid.
"""

import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st
from oracles import row_read_records
from test_cli_fuzz import FUZZ, FIELDS, raw_inputs, records, serialize

from maxrand.audit import read_records


def outcome(read, path: Path, format: str):
    """What ``read`` makes of the file: its records with their counts and errors, or its error."""
    try:
        loaded = read(path, format=format)
    except Exception as exc:  # noqa: BLE001 - the reference may raise anything
        return type(exc), str(exc)
    return ([(record, record._count, record._heldout_count, record._task, record.spec())
             for record in loaded.records], loaded.errors)


def assert_same_reading(data: bytes, format: str) -> None:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "records"
        path.write_bytes(data)
        assert outcome(read_records, path, format) == outcome(row_read_records, path, format)
        # An open stream takes the same path, with its own decode error.
        with open(path, encoding="utf-8", newline="") as handle:
            streamed = outcome(read_records, handle, format)
        with open(path, encoding="utf-8", newline="") as handle:
            assert streamed == outcome(row_read_records, handle, format)


@FUZZ
@given(rows=st.lists(records(), max_size=6), suffix=st.sampled_from([".jsonl", ".csv"]))
def test_records_read_as_the_row_reader_reads_them(rows, suffix):
    assert_same_reading(serialize(rows, suffix), "jsonl" if suffix == ".jsonl" else "csv")


@FUZZ
@given(raw=raw_inputs)
def test_bytes_read_as_the_row_reader_reads_them(raw):
    (data, suffix), flags = raw
    format = flags[1] if flags else ("jsonl" if suffix == ".jsonl" else "csv")
    assert_same_reading(data, format)


# Label counts as text or a JSON array would write them, right and wrong:
# spaces, leading zeros, empty counts, signs, 19 digits and more, bools.
count_text = st.one_of(
    st.integers(1, 12).map(str),
    st.sampled_from(["0", "00", "07", "10", " 3", "4 ", "", "+2", "-1", "2.0", "x", "\t5",
                     "3 4", "١", str(10**18 - 1), str(10**18), str(2**63), str(10**30)]),
)
separators = st.sampled_from([",", ", ", " ,", ",  ", ";", "; "])


@st.composite
def label_lines(draw) -> tuple[bytes, str]:
    """A file whose labels are per-example counts, as JSON arrays or ';' text."""
    lines = []
    format = draw(st.sampled_from(["jsonl", "csv"]))
    for i in range(draw(st.integers(1, 4))):
        counts = draw(st.lists(count_text, min_size=1, max_size=8))
        text = draw(separators).join(counts)
        n = draw(st.sampled_from([len(counts), len(counts) + 1]))
        if format == "csv":
            lines.append(f"r{i},m,d,{n},\"{text}\",2,0\n")
            continue
        head = draw(st.sampled_from(['"labels": [', '"labels":[', '"labels": [ ']))
        tail = draw(st.sampled_from(["]", " ]", "]]", ""]))
        extra = draw(st.sampled_from(["", ', "labels": 3', ', "x": {"labels": [2]}',
                                      ', "id": "\\ufdd0"', ', "id": "a\\"b"', ', "id": "﷐"']))
        lines.append(f'{{"id": "r{i}", "model": "m", "dataset": "d", "n": {n}, "t": 2, '
                     f'"observed_max_accuracy": 0, {head}{text}{tail}{extra}}}\n')
    if format == "csv":
        lines.insert(0, ",".join(FIELDS[:7]) + "\n")
    return "".join(lines).encode(), format


@FUZZ
@given(file=label_lines())
@example(file=(b'{"id": "r", "model": "m", "dataset": "d", "n": 2, "t": 2, '
               b'"observed_max_accuracy": 0, "labels": [02, 3]}\n', "jsonl"))
@example(file=(b'{"id": "r", "model": "m", "dataset": "d", "n": 3, "t": 2, '
               b'"observed_max_accuracy": 0, "labels": [2, , 3]}\n', "jsonl"))
@example(file=(b"id,model,dataset,n,labels,t,observed_max_accuracy\n"
               b"r,m,d,3,\"2; ;3\",2,0\n", "csv"))
def test_label_counts_read_as_the_row_reader_reads_them(file):
    data, format = file
    assert_same_reading(data, format)


@st.composite
def counted_records(draw) -> dict:
    """A record whose accuracies lie on, near and between counts of n."""
    n = draw(st.integers(1, 60) | st.sampled_from([1000, 10**6, 10**7]))

    def accuracy(n):
        # offsets within and beyond the quarter count and 1e-6 n tolerances
        offset = draw(st.sampled_from([0.0, 0.1, 0.24, 0.26, 0.5, 1e-7 * n, 1.1e-6 * n]))
        k = draw(st.integers(0, n))
        return (k + draw(st.sampled_from([1, -1])) * offset) / n

    record = {"id": "r", "model": "m", "dataset": "d", "n": n, "labels": 2,
              "t": draw(st.integers(1, 4)), "observed_max_accuracy": accuracy(n)}
    if draw(st.booleans()):
        record["per_prompt_accuracies"] = draw(st.lists(st.builds(accuracy, st.just(n)),
                                                        max_size=4))
    if draw(st.booleans()):
        held = draw(st.integers(1, 100) | st.sampled_from([2**53, 2**53 + 1, 10**20]))
        record["heldout_n"] = held
        record["heldout_accuracy"] = (accuracy(held) if held <= 2**53
                                      else draw(st.sampled_from([0.5, 0.25, 1 / 3])))
    return record


@FUZZ
@given(rows=st.lists(counted_records(), min_size=1, max_size=6))
def test_counts_read_as_the_row_reader_reads_them(rows):
    assert_same_reading(serialize(rows, ".jsonl"), "jsonl")


def test_a_file_repeats_its_task_and_records_share_it():
    lines = "".join(json.dumps({"id": f"r{i}", "model": "m", "dataset": "d", "n": 4,
                                "labels": [2, 3, 3, 5], "t": t, "observed_max_accuracy": 0.5})
                    + "\n" for i, t in enumerate([2, 3, 2]))
    records = read_records(io.StringIO(lines), format="jsonl").records
    assert records[0]._task is records[1]._task is records[2]._task
    assert records[0]._task.t == 1

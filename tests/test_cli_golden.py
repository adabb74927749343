"""Golden CLI output: every command's stdout bytes and exit code, pinned.

Each case runs once per ``--format``.  The expected stdout of case
``<name>`` in format ``<fmt>`` is ``golden/expected/<name>-<fmt>.out``;
for ``--out`` cases it is the written file and stdout must be empty.
Stderr is compared only for the label-count cases, whose messages name
the bad count: ``golden/expected/<name>-<fmt>.err``.  After a deliberate
output change, rewrite the expected files with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from maxrand.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

# (name, args, exit code); "{in}" is the inputs directory, "{out}" an --out path.
CASES = [
    ("baseline-uniform", ["baseline", "--n", "100", "--m", "2", "--t", "10"], 0),
    ("baseline-labels", ["baseline", "--n", "3", "--labels", "2;3;4", "--t", "5"], 0),
    ("baseline-one-label-count", ["baseline", "--n", "1", "--labels", "5", "--t", "3"], 0),
    ("baseline-bad-labels", ["baseline", "--n", "2", "--labels", "2;x", "--t", "3"], 2),
    ("pvalue", ["pvalue", "--n", "100", "--m", "2", "--t", "10", "--acc", "0.56"], 0),
    ("pvalue-labels", ["pvalue", "--n", "3", "--labels", "2;3;4", "--t", "4", "--acc", "1.0"], 0),
    ("pvalue-off-grid", ["pvalue", "--n", "100", "--m", "2", "--t", "10", "--acc", "0.555"], 2),
    ("threshold", ["threshold", "--n", "100", "--m", "2", "--t", "10", "--alpha", "0.05"], 0),
    ("threshold-no-alpha", ["threshold", "--n", "100", "--m", "2", "--t", "10"], 0),
    ("threshold-unattainable", ["threshold", "--n", "5", "--m", "2", "--t", "10", "--alpha", "1e-9"], 0),
    ("grid-expected-max", ["grid", "--n", "10,100", "--t", "1:3", "--m", "2"], 0),
    ("grid-expected-max-log", ["grid", "--n", "10:1000:3", "--t", "1,50", "--m", "3",
                               "--quantity", "expected_max"], 0),
    ("grid-p-value", ["grid", "--n", "100", "--t", "1,10,100", "--m", "2",
                      "--quantity", "p_value", "--acc", "0.6"], 0),
    ("grid-threshold", ["grid", "--n", "5,100", "--t", "1,10,100", "--m", "2",
                        "--quantity", "threshold", "--alpha", "0.05"], 0),
    ("simulate", ["simulate", "--n", "20", "--m", "3", "--t", "5", "--trials", "2000", "--seed", "7"], 0),
    ("simulate-labels", ["simulate", "--n", "3", "--labels", "2;3;4", "--t", "2",
                         "--trials", "500", "--seed", "1"], 0),
    ("simulate-window-above-zero", ["simulate", "--n", "5000", "--m", "3", "--t", "1",
                                    "--trials", "200000", "--seed", "11"], 0),
    ("simulate-labels-many-trials", ["simulate", "--n", "12", "--labels", "2;3;4;5;2;7;3;10;2;4;6;3",
                                     "--t", "10", "--trials", "100000", "--seed", "5"], 0),
    ("curve", ["curve", "{in}/mixed.jsonl", "--t", "1:3"], 0),
    ("curve-default-axis", ["curve", "{in}/mixed.jsonl"], 0),
    ("audit-csv", ["audit", "{in}/mixed.csv"], 0),
    ("audit-csv-heldout", ["audit", "{in}/mixed.csv", "--eval-heldout"], 0),
    ("audit-jsonl", ["audit", "{in}/mixed.jsonl"], 0),
    ("audit-jsonl-heldout", ["audit", "{in}/mixed.jsonl", "--eval-heldout"], 0),
    ("audit-single-class", ["audit", "{in}/single_class.csv", "--eval-heldout"], 0),
    ("audit-bad-rows", ["audit", "{in}/bad_rows.csv"], 2),
    ("out-baseline", ["baseline", "--n", "100", "--m", "2", "--t", "10", "--out", "{out}"], 0),
    ("out-audit-heldout", ["audit", "{in}/mixed.csv", "--eval-heldout", "--out", "{out}"], 0),
]

# Label-count lists, parsed in one pass or count by count: stdout, exit code and stderr.
LABEL_CASES = [
    ("labels-jsonl-accepted", ["audit", "{in}/labels_ok.jsonl"], 0),
    ("labels-jsonl-rejected", ["audit", "{in}/labels_bad.jsonl"], 2),
    ("labels-csv-rejected", ["audit", "{in}/labels_bad.csv"], 2),
    ("labels-flag-spaces", ["baseline", "--n", "2", "--labels", " 2; 3", "--t", "4"], 0),
    ("labels-flag-bad", ["baseline", "--n", "3", "--labels", "2;x;0", "--t", "4"], 2),
]

FORMATS = ["csv", "json"]


def run_case(args: list[str], fmt: str, out: Path) -> tuple[str, int, str]:
    """Run one case; return what it printed (or wrote with --out), its exit code and stderr."""
    argv = [arg.replace("{in}", str(INPUTS)).replace("{out}", str(out)) for arg in args]
    result = CliRunner().invoke(main, argv + ["--format", fmt])
    if "{out}" in args:
        assert result.stdout == ""
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        return text, result.exit_code, result.stderr
    return result.stdout, result.exit_code, result.stderr


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name, args, exit_code", CASES, ids=[case[0] for case in CASES])
def test_cli_output_is_unchanged(name, args, exit_code, fmt, tmp_path):
    text, code, _ = run_case(args, fmt, tmp_path / "out.txt")
    assert code == exit_code
    assert text == (EXPECTED / f"{name}-{fmt}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name, args, exit_code", LABEL_CASES, ids=[case[0] for case in LABEL_CASES])
def test_label_count_output_and_messages_are_unchanged(name, args, exit_code, fmt, tmp_path):
    text, code, errors = run_case(args, fmt, tmp_path / "out.txt")
    assert code == exit_code
    assert text == (EXPECTED / f"{name}-{fmt}.out").read_text(encoding="utf-8")
    assert errors == (EXPECTED / f"{name}-{fmt}.err").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for name, args, exit_code in CASES + LABEL_CASES:
            for fmt in FORMATS:
                text, code, errors = run_case(args, fmt, Path(scratch) / f"{name}-{fmt}")
                if code != exit_code:
                    raise SystemExit(f"{name}-{fmt}: exit {code}, expected {exit_code}")
                (EXPECTED / f"{name}-{fmt}.out").write_text(text, encoding="utf-8")
                if (name, args, exit_code) in LABEL_CASES:
                    (EXPECTED / f"{name}-{fmt}.err").write_text(errors, encoding="utf-8")

import csv
import gc
import io
import json
import os
import random
import re
import tempfile
import weakref
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import maxrand.cli as cli_mod
import maxrand.dist as dist_mod
import maxrand.oracle as oracle_mod
import maxrand.orderstat as orderstat_mod
from maxrand import PerExampleLabels, TaskSpec, enumerate_max_pmf
from maxrand.cli import main

AUDIT_CSV = """id,model,dataset,n,labels,t,observed_max_accuracy,heldout_accuracy,heldout_n
r1,olmo,emoji,100,2,10,0.56,0.6,100
r2,olmo,emoji,100,2,10,0.45,0.4,100
r3,falcon,stories,100,2,10,0.70,0.8,100
"""

CURVE_JSONL = (
    json.dumps(
        {
            "id": "c1",
            "model": "olmo",
            "dataset": "emoji",
            "n": 10,
            "labels": 2,
            "t": 2,
            "observed_max_accuracy": 0.4,
            "per_prompt_accuracies": [0.2, 0.4],
        }
    )
    + "\n"
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def no_pmf_builds(monkeypatch):
    """Fail at once, instead of exhausting memory, if a binomial pmf is built."""

    def must_not_run(n, p):
        raise AssertionError(f"a Binomial({n}, {p}) pmf was built")

    monkeypatch.setattr(dist_mod, "_binomial_window", must_not_run)


def env_with_src() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def rows(output: str) -> list[dict]:
    lines = output.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestBaselineCommand:
    def test_hundred_examples_ten_evaluations(self, runner):
        result = runner.invoke(main, ["baseline", "--n", "100", "--m", "2", "--t", "10"])
        assert result.exit_code == 0
        (row,) = rows(result.output)
        assert abs(float(row["expected_max"]) - 0.575) <= 0.005
        assert row["expected_standard"] == "0.5"
        assert row["min_accuracy_beating_max"] == "0.58"

    def test_t_one_collapses_to_the_standard_baseline(self, runner):
        result = runner.invoke(main, ["baseline", "--n", "100", "--m", "2", "--t", "1"])
        (row,) = rows(result.output)
        assert float(row["expected_max"]) == 0.5

    def test_per_example_labels_match_the_enumeration_oracle(self, runner):
        result = runner.invoke(
            main, ["baseline", "--n", "3", "--labels", "2;3;4", "--t", "5", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        pmf = enumerate_max_pmf(
            TaskSpec(n=3, labels=PerExampleLabels.from_label_counts([2, 3, 4]), t=5)
        )
        oracle_value = float(np.arange(4) @ pmf / 3)
        assert abs(payload["expected_max"] - oracle_value) < 1e-12

    def test_a_count_too_large_for_a_float_exits_2(self, runner):
        result = runner.invoke(
            main, ["baseline", "--n", "2", "--labels", f"2;{10**400}", "--t", "3"]
        )
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: label count {10**400} at index 1 exceeds the largest float, 1.798e+308\n"
        )
        assert result.stdout == ""

    def test_one_expected_max_pass(self, runner, monkeypatch):
        passes = []
        one_pass = orderstat_mod.expected_max_accuracies

        def counted(spec, ts):
            passes.append(list(ts))
            return one_pass(spec, ts)

        monkeypatch.setattr(orderstat_mod, "expected_max_accuracies", counted)
        result = runner.invoke(main, ["baseline", "--n", "384", "--m", "2", "--t", "286"])
        assert result.exit_code == 0
        assert rows(result.output)[0]["min_accuracy_beating_max"] == "0.572916666667"
        assert passes == [[286]]

    def test_requires_exactly_one_label_flag(self, runner):
        result = runner.invoke(main, ["baseline", "--n", "10", "--t", "1"])
        assert result.exit_code == 2
        both = runner.invoke(
            main, ["baseline", "--n", "10", "--m", "2", "--labels", "2;2", "--t", "1"]
        )
        assert both.exit_code == 2


class TestPvalueCommand:
    def test_two_classifiers_perfect_score(self, runner):
        result = runner.invoke(
            main, ["pvalue", "--n", "2", "--m", "2", "--t", "2", "--acc", "1.0"]
        )
        (row,) = rows(result.output)
        assert float(row["p_max"]) == 0.4375
        assert float(row["p_standard"]) == 0.25

    def test_zero_accuracy(self, runner):
        result = runner.invoke(
            main, ["pvalue", "--n", "2", "--m", "2", "--t", "1", "--acc", "0.0"]
        )
        (row,) = rows(result.output)
        assert row["p_standard"] == "1" and row["p_max"] == "1"

    def test_matches_monte_carlo_tail(self, runner):
        result = runner.invoke(
            main, ["pvalue", "--n", "100", "--m", "2", "--t", "200", "--acc", "0.6"]
        )
        (row,) = rows(result.output)
        p_max = float(row["p_max"])
        rng = np.random.default_rng(2024)
        trials = 20_000
        best = rng.binomial(100, 0.5, size=(trials, 200)).max(axis=1)
        estimate = float(np.mean(best >= 60))
        std_error = float(np.sqrt(estimate * (1 - estimate) / trials))
        assert abs(p_max - estimate) <= 4 * std_error

    def test_non_integral_accuracy_exits_2(self, runner):
        result = runner.invoke(
            main, ["pvalue", "--n", "100", "--m", "2", "--t", "1", "--acc", "0.503"]
        )
        assert result.exit_code == 2
        assert "integer count" in result.stderr


class TestThresholdCommand:
    def test_both_solvers(self, runner):
        result = runner.invoke(
            main, ["threshold", "--n", "100", "--m", "2", "--t", "10", "--alpha", "0.05"]
        )
        (row,) = rows(result.output)
        assert row["min_accuracy_beating_max"] == "0.58"
        assert row["min_accuracy_at_significance"] == "0.64"

    # E[max] lies within 1e-9 below each of these least counts.
    @pytest.mark.parametrize("n, m, t, printed", [
        (384, 2, 286, "0.572916666667"),
        (10**5, 5, 1563, "0.20427"),
        (10**6, 2, 146, "0.50132"),
        (10**6, 3, 566, "0.334783"),
    ])
    def test_least_count_just_above_the_max_baseline(self, runner, n, m, t, printed):
        result = runner.invoke(main, ["threshold", "--n", str(n), "--m", str(m), "--t", str(t)])
        assert rows(result.output)[0]["min_accuracy_beating_max"] == printed

    def test_unattainable_alpha_is_empty(self, runner):
        result = runner.invoke(
            main, ["threshold", "--n", "2", "--m", "2", "--t", "1", "--alpha", "0.2"]
        )
        (row,) = rows(result.output)
        assert row["min_accuracy_at_significance"] == ""


class TestGridCommand:
    def test_single_cell(self, runner):
        result = runner.invoke(main, ["grid", "--n", "100", "--t", "10", "--m", "2"])
        (row,) = rows(result.output)
        assert abs(float(row["value"]) - 0.575) <= 0.005

    def test_t_axis_of_one_gives_the_success_probability(self, runner):
        result = runner.invoke(main, ["grid", "--n", "10,20,50", "--t", "1", "--m", "4"])
        for row in rows(result.output):
            assert float(row["value"]) == 0.25

    def test_rows_are_n_major_and_nondecreasing_in_t(self, runner):
        result = runner.invoke(main, ["grid", "--n", "10,100", "--t", "1,5,20", "--m", "2"])
        parsed = rows(result.output)
        assert [(r["n"], r["t"]) for r in parsed] == [
            ("10", "1"), ("10", "5"), ("10", "20"),
            ("100", "1"), ("100", "5"), ("100", "20"),
        ]
        for n in ("10", "100"):
            values = [float(r["value"]) for r in parsed if r["n"] == n]
            assert values == sorted(values)

    def test_log_spaced_axis(self, runner):
        result = runner.invoke(main, ["grid", "--n", "10:1000:3", "--t", "1", "--m", "2"])
        assert [r["n"] for r in rows(result.output)] == ["10", "100", "1000"]

    def test_p_value_quantity(self, runner):
        result = runner.invoke(
            main,
            ["grid", "--n", "10", "--t", "1,2", "--m", "2", "--quantity", "p_value",
             "--acc", "0.7"],
        )
        parsed = rows(result.output)
        assert len(parsed) == 2
        assert float(parsed[0]["value"]) <= float(parsed[1]["value"])

    def test_quantity_flag_requirements(self, runner):
        missing_acc = runner.invoke(
            main, ["grid", "--n", "10", "--t", "1", "--m", "2", "--quantity", "p_value"]
        )
        assert missing_acc.exit_code == 2
        missing_alpha = runner.invoke(
            main, ["grid", "--n", "10", "--t", "1", "--m", "2", "--quantity", "threshold"]
        )
        assert missing_alpha.exit_code == 2

    def test_per_example_scheme_needs_matching_n(self, runner):
        result = runner.invoke(main, ["grid", "--n", "3,4", "--t", "1", "--labels", "2;3;4"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("axis", ["2:3,5", "1,2:3", "1:2,3:4"])
    def test_mixed_axis_syntax_exits_2(self, runner, axis):
        result = runner.invoke(main, ["grid", "--n", "10", "--t", axis, "--m", "2"])
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: --t must be 'a,b,c', 'lo:hi', or 'lo:hi:count' (log-spaced), got {axis!r}\n"
        )
        assert result.stdout == ""

    def test_a_range_from_high_to_low_exits_2(self, runner):
        result = runner.invoke(main, ["grid", "--n", "10", "--t", "3:1", "--m", "2"])
        assert result.exit_code == 2
        assert result.stderr == "error: --t range '3:1': lo must not exceed hi\n"

    # Rejected before any axis is built: 10^10 log-spaced points would take 80 GB.
    @pytest.mark.parametrize("axis", ["1:1000001", "10:1000:1000001", "10:1000:10000000000"])
    def test_axis_over_a_million_points_exits_2(self, runner, axis):
        result = runner.invoke(main, ["grid", "--n", axis, "--t", "1", "--m", "2"])
        assert result.exit_code == 2
        assert "over 10^6 points" in result.stderr


class TestAuditCommand:
    def test_verdicts_and_summary(self, runner, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(AUDIT_CSV)
        result = runner.invoke(main, ["audit", str(path)])
        assert result.exit_code == 0
        verdict_block, summary_block = result.output.split("\n\n")
        verdicts = rows(verdict_block)
        assert [v["category"] for v in verdicts] == ["flip", "below_both", "above_both"]
        summary = rows(summary_block)
        assert summary[0]["scope"] == "total"
        assert summary[0]["flip"] == "1" and summary[0]["above_both"] == "1"
        assert summary[0]["flipped_percentage"] == "50"
        assert [s["model"] for s in summary[1:]] == ["falcon", "olmo"]

    def test_eval_heldout_sections(self, runner, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(AUDIT_CSV)
        result = runner.invoke(main, ["audit", str(path), "--eval-heldout"])
        assert result.exit_code == 0
        blocks = result.output.split("\n\n")
        assert len(blocks) == 5
        predictors = rows(blocks[2])
        assert [p["predictor"] for p in predictors] == ["standard", "max"]
        metrics = {r["metric"]: r["value"] for r in rows(blocks[3])}
        assert set(metrics) == {"auroc", "aupr"}

    def test_json_lines_output(self, runner, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(AUDIT_CSV)
        result = runner.invoke(main, ["audit", str(path), "--format", "json"])
        lines = [json.loads(line) for line in result.output.splitlines()]
        verdicts = [line for line in lines if line["kind"] == "verdict"]
        summaries = [line for line in lines if line["kind"] == "summary"]
        assert len(verdicts) == 3
        assert summaries[0]["scope"] == "total" and summaries[0]["flip"] == 1
        assert not any(line["kind"] in ("predictor", "metric", "curve") for line in lines)

    def test_json_lines_with_heldout_sections(self, runner, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(AUDIT_CSV)
        result = runner.invoke(
            main, ["audit", str(path), "--format", "json", "--eval-heldout"]
        )
        lines = [json.loads(line) for line in result.output.splitlines()]
        kinds = {line["kind"] for line in lines}
        assert kinds == {"verdict", "summary", "predictor", "metric", "curve"}

    def test_bad_row_aborts_with_row_number(self, runner, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(AUDIT_CSV + "r4,olmo,emoji,100,2,10,0.503,,\n")
        result = runner.invoke(main, ["audit", str(path)])
        assert result.exit_code == 2
        assert "row 4" in result.stderr
        assert result.stdout == ""

    def test_least_counts_just_above_the_max_baseline_are_above_both(self, runner, tmp_path):
        lines = ["id,model,dataset,n,labels,t,observed_max_accuracy"]
        for n, m, t, least in ((384, 2, 286, 220), (10**5, 5, 1563, 20427),
                               (10**6, 2, 146, 501320), (10**6, 3, 566, 334783)):
            lines += [f"{n}-{k},m,d,{n},{m},{t},{k / n!r}" for k in (least, least - 1)]
        path = tmp_path / "records.csv"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["audit", str(path)])
        verdicts = rows(result.output.split("\n\n")[0])
        assert [v["category"] for v in verdicts] == ["above_both", "flip"] * 4

    def test_jsonl_input_by_extension(self, runner, tmp_path):
        path = tmp_path / "records.jsonl"
        lines = [
            json.dumps(
                {"id": "r1", "model": "m", "dataset": "d", "n": 10, "labels": 2,
                 "t": 1, "observed_max_accuracy": 0.7}
            )
        ]
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["audit", str(path)])
        assert result.exit_code == 0
        assert rows(result.output.split("\n\n")[0])[0]["category"] == "above_both"

    @pytest.mark.parametrize("field", ["n", "t", "heldout_n"])
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_integer_field_is_a_row_error(self, runner, tmp_path, field, token):
        good = {"id": "r", "model": "m", "dataset": "d", "n": 100, "labels": 2, "t": 10,
                "observed_max_accuracy": 0.56, "heldout_accuracy": 0.6, "heldout_n": 100}
        bad = json.dumps({**good, field: "VALUE"}).replace('"VALUE"', token)
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(good) + "\n" + bad + "\n")
        result = runner.invoke(main, ["audit", str(path)])
        assert result.exit_code == 2
        assert f"error: row 2, field {field}: {field} must be an integer" in result.stderr
        assert result.stdout == ""

    def test_n_above_the_supported_bound_is_a_row_error(self, runner, tmp_path, no_pmf_builds):
        record = {"id": "r", "model": "m", "dataset": "d", "n": 10**24, "labels": 2, "t": 3,
                  "observed_max_accuracy": 0.5}
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(record) + "\n")
        result = runner.invoke(main, ["audit", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: row 1: n={10**24} exceeds the largest")
        assert result.stdout == ""

    def test_a_heldout_n_too_large_for_a_float_is_a_row_error(self, runner, tmp_path):
        record = {"id": "r", "model": "m", "dataset": "d", "n": 10, "labels": 2, "t": 1,
                  "observed_max_accuracy": 0.5, "heldout_n": 10**400, "heldout_accuracy": 0.0}
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(record) + "\n")
        for command in ("audit", "curve"):
            result = runner.invoke(main, [command, str(path)])
            assert result.exit_code == 2
            assert result.stderr.startswith(f"error: row 1: n={10**400} exceeds the largest float")
            assert result.stdout == ""

    def test_a_count_too_large_for_a_float_is_a_row_error(self, runner, tmp_path):
        record = {"id": "r", "model": "m", "dataset": "d", "n": 3, "labels": [2, 3, 10**400],
                  "t": 3, "observed_max_accuracy": 2 / 3}
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(record) + "\n")
        result = runner.invoke(main, ["audit", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: row 1, field labels: label count {10**400} at")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_out_flag_writes_the_file(self, runner, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(AUDIT_CSV)
        out = tmp_path / "verdicts.csv"
        result = runner.invoke(main, ["audit", str(path), "--out", str(out)])
        assert result.exit_code == 0
        assert result.output == ""
        assert "category" in out.read_text()

    @pytest.mark.parametrize("command", [["baseline", "--n", "10", "--m", "2", "--t", "2"],
                                         ["audit", "RECORDS"]])
    def test_out_into_a_missing_directory_exits_2(self, runner, tmp_path, command):
        path = tmp_path / "records.csv"
        path.write_text(AUDIT_CSV)
        out = tmp_path / "missing" / "x.csv"
        args = [str(path) if arg == "RECORDS" else arg for arg in command]
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == f"error: cannot write --out {out}: No such file or directory\n"
        assert result.stdout == ""
        assert not out.parent.exists()


class TestSimulateCommand:
    def test_closed_form_next_to_the_estimate(self, runner):
        result = runner.invoke(
            main,
            ["simulate", "--n", "2", "--m", "2", "--t", "2", "--trials", "4000",
             "--seed", "11"],
        )
        (row,) = rows(result.output)
        assert row["generator"] == "pcg64"
        assert float(row["closed_form"]) == 0.6875
        assert abs(float(row["estimate"]) - 0.6875) <= 4 * float(row["std_error"])

    def test_too_many_trials_exit_3_before_allocating(self, runner, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("an array was allocated")

        monkeypatch.setattr(np, "empty", must_not_run)
        result = runner.invoke(
            main, ["simulate", "--n", "100", "--m", "2", "--t", "10",
                   "--trials", str(10**12), "--seed", "1"],
        )
        assert result.exit_code == 3
        assert result.stderr.startswith(f"error: trials={10**12} exceeds the largest")
        assert result.stdout == ""


    @pytest.mark.parametrize("t, trials", [(10**12, 1), (10**6, 10**5), (10**308, 1)])
    def test_too_many_draws_exit_3_before_drawing(self, runner, monkeypatch, t, trials):
        def must_not_run(*args):
            raise AssertionError("uniforms were drawn")

        monkeypatch.setattr(oracle_mod, "_largest_uniforms", must_not_run)
        result = runner.invoke(
            main, ["simulate", "--n", "10", "--m", "2", "--t", str(t),
                   "--trials", str(trials), "--seed", "1"],
        )
        assert result.exit_code == 3
        assert result.stderr == (
            f"error: trials * t = {trials * t} exceeds the largest supported number of draws, "
            f"{10**10}\n"
        )
        assert result.stdout == ""


RECORD_HEADER = "id,model,dataset,n,labels,t,observed_max_accuracy\n"


@pytest.mark.parametrize("command", ["audit", "curve"])
class TestMalformedInputFiles:
    """Inputs that once ended in a traceback: each now exits 0 or 2 with an error line."""

    def test_twenty_thousand_six_digit_label_counts_fit_in_a_csv_field(self, runner, tmp_path,
                                                                        command):
        counts = random.Random(6).choices(range(100_000, 1_000_000), k=20_000)
        path = tmp_path / "records.csv"
        path.write_text(RECORD_HEADER + f"r1,a,x,20000,{';'.join(map(str, counts))},5,0.0\n")
        result = runner.invoke(main, [command, str(path)])
        assert "Traceback" not in result.stderr
        if command == "audit":  # curve needs per-prompt accuracies, which CSV cannot hold
            assert result.exit_code == 0, result.stderr
            assert rows(result.output.split("\n\n")[0])[0]["category"] == "below_both"
        else:
            assert result.exit_code == 2
            assert result.stderr == "error: record 'r1' has no per_prompt_accuracies\n"

    def test_a_csv_field_over_the_limit_exits_2(self, runner, tmp_path, command):
        path = tmp_path / "records.csv"
        path.write_text(RECORD_HEADER + "r1,a,x,10," + "2;" * 3_100_001 + ",5,0.5\n")
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.stderr == (
            "error: CSV input line 2: field larger than field limit (6200000)\n")
        assert result.stdout == ""

    @pytest.mark.parametrize("suffix, data", [
        (".csv", RECORD_HEADER.encode() + b"r1,a,x,10,\xff2,5,0.5\n"),
        (".jsonl", CURVE_JSONL.encode() + b'{"id": "r\xff"}\n'),
    ])
    def test_a_byte_that_is_not_utf8_exits_2_naming_its_offset(self, runner, tmp_path, command,
                                                               suffix, data):
        path = tmp_path / f"records{suffix}"
        path.write_bytes(data)
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.stderr == (f"error: {path} is not UTF-8: byte 0xff at offset "
                                 f"{data.index(0xff)} (invalid start byte)\n")
        assert result.stdout == ""

    @pytest.mark.parametrize("suffix, text", [
        (".csv", RECORD_HEADER + "r1,a,x,10,2,5,0.5\n"),
        (".jsonl", CURVE_JSONL),
    ], ids=["csv", "jsonl"])
    def test_a_leading_byte_order_mark_is_not_data(self, runner, tmp_path, command, suffix,
                                                   text):
        # Spreadsheet "CSV UTF-8" exports start the file with the mark EF BB BF.
        plain = tmp_path / f"plain{suffix}"
        plain.write_text(text, encoding="utf-8")
        marked = tmp_path / f"marked{suffix}"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        expected = runner.invoke(main, [command, str(plain)])
        result = runner.invoke(main, [command, str(marked)])
        assert (result.exit_code, result.stdout, result.stderr) == (
            expected.exit_code, expected.stdout, expected.stderr)
        # curve reads the CSV record and then refuses it for lack of per-prompt accuracies
        assert result.exit_code == (2 if (command, suffix) == ("curve", ".csv") else 0)

    @pytest.mark.parametrize("line, message", [
        ("[" * 10**5, "invalid JSON: maximum recursion depth exceeded"),
        ('{"n": ' + "1" * 5000 + "}", "invalid JSON: Exceeds the limit (4300 digits)"),
    ], ids=["deep-nesting", "long-integer"])
    def test_json_the_parser_refuses_is_a_row_error(self, runner, tmp_path, command, line,
                                                    message):
        path = tmp_path / "records.jsonl"
        path.write_text(CURVE_JSONL + line + "\n")
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: row 2: {message}")
        assert result.stdout == ""

    def test_a_lone_surrogate_in_a_name_is_a_row_error(self, runner, tmp_path, command):
        path = tmp_path / "records.jsonl"
        path.write_text(CURVE_JSONL.replace('"olmo"', '"\\ud800"'))
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.stderr == "error: row 1, field model: model '\\ud800' is not valid Unicode\n"
        assert result.stdout == ""


class TestCurveCommand:
    def test_pair_sample(self, runner, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(CURVE_JSONL)
        result = runner.invoke(main, ["curve", str(path), "--t", "1,2"])
        assert result.exit_code == 0
        parsed = rows(result.output)
        assert [r["t"] for r in parsed] == ["1", "2"]
        assert float(parsed[0]["empirical_expected_max"]) == 0.3
        assert float(parsed[1]["empirical_expected_max"]) == 0.35
        assert float(parsed[0]["expected_max_baseline"]) == 0.5

    def test_default_axis_runs_to_the_record_t(self, runner, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(CURVE_JSONL)
        result = runner.invoke(main, ["curve", str(path)])
        assert [r["t"] for r in rows(result.output)] == ["1", "2"]

    def test_constant_sample_gives_a_constant_curve(self, runner, tmp_path):
        payload = {
            "id": "flat", "model": "m", "dataset": "d", "n": 10, "labels": 2, "t": 3,
            "observed_max_accuracy": 0.6, "per_prompt_accuracies": [0.6, 0.6, 0.6],
        }
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        result = runner.invoke(main, ["curve", str(path)])
        for row in rows(result.output):
            assert float(row["empirical_expected_max"]) == 0.6

    def test_default_axis_over_a_million_points_exits_2(self, runner, tmp_path):
        record = json.loads(CURVE_JSONL) | {"t": 10**7}
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(record) + "\n")
        result = runner.invoke(main, ["curve", str(path)])
        assert result.exit_code == 2
        assert result.stderr == (
            "warning: record 'c1': t=10000000 but 2 per-prompt accuracies given; t wins\n"
            "error: record 'c1': the t axis 1..10000000 has over 10^6 points; use --t\n"
        )
        assert result.stdout == ""
        assert runner.invoke(main, ["curve", str(path), "--t", "1:10000000:3"]).exit_code == 0

    @given(n=st.integers(min_value=1, max_value=1000), t=st.integers(min_value=1, max_value=20),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_p_values_look_up_the_count_of_the_exact_curve_value(self, n, t, data):
        counts = data.draw(st.lists(st.integers(min_value=0, max_value=n), min_size=1,
                                    max_size=200))
        exact, below = Fraction(0), 0
        for k, times in sorted(Counter(counts).items()):
            exact += Fraction(k, n) * (Fraction(below + times, len(counts)) ** t
                                       - Fraction(below, len(counts)) ** t)
            below += times
        scaled = exact * n
        lower = scaled.numerator // scaled.denominator
        dust = Fraction(1, 2**orderstat_mod._DUST_BITS)
        if scaled.denominator == 1:
            expected = lower
        else:
            assume(scaled - lower > dust * lower and lower + 1 - scaled > dust * (lower + 1))
            expected = lower + 1
        payload = {"id": "c", "model": "m", "dataset": "d", "n": n, "labels": 2,
                   "t": len(counts), "observed_max_accuracy": max(counts) / n,
                   "per_prompt_accuracies": [k / n for k in counts]}
        looked_up = []
        tails = dist_mod.CountDistribution.tails

        def recorded(distribution, ks):
            looked_up.extend(ks)
            return tails(distribution, ks)

        with tempfile.TemporaryDirectory() as folder, pytest.MonkeyPatch.context() as patch:
            path = Path(folder) / "records.jsonl"
            path.write_text(json.dumps(payload) + "\n")
            patch.setattr(dist_mod.CountDistribution, "tails", recorded)
            result = CliRunner().invoke(main, ["curve", str(path), "--t", str(t)])
        assert result.exit_code == 0, result.output
        assert looked_up == [expected]

    def test_missing_per_prompt_exits_2(self, runner, tmp_path):
        payload = {
            "id": "x", "model": "m", "dataset": "d", "n": 10, "labels": 2, "t": 3,
            "observed_max_accuracy": 0.6,
        }
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        result = runner.invoke(main, ["curve", str(path)])
        assert result.exit_code == 2
        assert "per_prompt_accuracies" in result.stderr


BEYOND_FLOATS = str(10**400)
AT_FLOAT_LIMIT = str(10**308)


class TestFloatLimits:
    """t and m above the largest float exit 2; t just below it prints without warnings."""

    @pytest.mark.parametrize(
        "args",
        [
            ["baseline", "--n", "10", "--m", "2", "--t", BEYOND_FLOATS],
            ["pvalue", "--n", "10", "--m", "2", "--t", BEYOND_FLOATS, "--acc", "0.5"],
            ["threshold", "--n", "10", "--m", "2", "--t", BEYOND_FLOATS, "--alpha", "0.05"],
            ["grid", "--n", "10", "--m", "2", "--t", f"1,{BEYOND_FLOATS}"],
            ["grid", "--n", "10", "--m", "2", "--t", f"1:{BEYOND_FLOATS}:3"],
            ["grid", "--n", f"1:{BEYOND_FLOATS}:3", "--m", "2", "--t", "2"],
            ["simulate", "--n", "10", "--m", "2", "--t", BEYOND_FLOATS,
             "--trials", "1", "--seed", "1"],
            ["baseline", "--n", "10", "--m", BEYOND_FLOATS, "--t", "2"],
        ],
        ids=["baseline", "pvalue", "threshold", "grid", "grid-log-t", "grid-log-n", "simulate",
             "m"],
    )
    def test_flags_beyond_the_largest_float_exit_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args, field",
        [(["audit"], {"t": 10**400}), (["audit"], {"labels": 10**400}),
         (["audit"], {"observed_max_accuracy": 10**400}),
         (["curve", "--t", f"1,{BEYOND_FLOATS}"], {})],
        ids=["audit-t", "audit-labels", "audit-accuracy", "curve"],
    )
    def test_records_beyond_the_largest_float_exit_2(self, runner, tmp_path, args, field):
        record = {"id": "r", "model": "m", "dataset": "d", "n": 10, "labels": 2, "t": 2,
                  "observed_max_accuracy": 0.4, "per_prompt_accuracies": [0.2, 0.4], **field}
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(record) + "\n")
        result = runner.invoke(main, [args[0], str(path), *args[1:]])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "exceeds the largest float" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args, expected",
        [
            (["baseline", "--n", "10", "--m", "2", "--t", AT_FLOAT_LIMIT],
             "expected_standard,expected_max,min_accuracy_beating_max\n0.5,1,\n"),
            (["threshold", "--n", "10", "--m", "2", "--t", AT_FLOAT_LIMIT, "--alpha", "0.05"],
             "min_accuracy_beating_max,min_accuracy_at_significance\n,\n"),
            (["grid", "--n", "10", "--m", "2", "--t", f"1,{AT_FLOAT_LIMIT}"],
             f"n,t,value\n10,1,0.5\n10,{AT_FLOAT_LIMIT},1\n"),
        ],
        ids=["baseline", "threshold", "grid"],
    )
    def test_t_at_the_float_limit_prints_cleanly(self, runner, args, expected):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.stderr == ""
        assert result.stdout == expected


# Option names of each command's --help, as every release so far has listed them.
HELP_OPTIONS = {
    "baseline": ["--n", "--m", "--labels", "--t", "--format", "--out", "--help"],
    "pvalue": ["--n", "--m", "--labels", "--t", "--acc", "--format", "--out", "--help"],
    "threshold": ["--n", "--m", "--labels", "--t", "--alpha", "--format", "--out", "--help"],
    "grid": ["--n", "--t", "--m", "--labels", "--quantity", "--acc", "--alpha", "--format",
             "--out", "--help"],
    "audit": ["--input-format", "--eval-heldout", "--format", "--out", "--help"],
    "simulate": ["--n", "--m", "--labels", "--t", "--trials", "--seed", "--format", "--out",
                 "--help"],
    "curve": ["--input-format", "--t", "--format", "--out", "--help"],
}


@pytest.mark.parametrize("command", HELP_OPTIONS)
def test_help_lists_the_same_options(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    assert re.findall(r"^  (--[a-z-]+)", result.stdout, flags=re.MULTILINE) == HELP_OPTIONS[command]


class TestDeterminismAndErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["baseline", "--n", "100", "--m", "2", "--t", "10"],
            ["pvalue", "--n", "100", "--m", "2", "--t", "10", "--acc", "0.6"],
            ["grid", "--n", "10:1000:5", "--t", "1,10,100", "--m", "2"],
            ["simulate", "--n", "50", "--m", "2", "--t", "5", "--trials", "2000",
             "--seed", "3"],
        ],
    )
    def test_repeated_runs_are_byte_identical(self, runner, args):
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_validation_error_exit_code(self, runner):
        result = runner.invoke(main, ["baseline", "--n", "0", "--m", "2", "--t", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["baseline", "threshold", "simulate"])
    def test_n_above_the_supported_bound_exits_3(self, runner, no_pmf_builds, command):
        extra = ["--trials", "10", "--seed", "1"] if command == "simulate" else []
        result = runner.invoke(main, [command, "--n", str(10**24), "--m", "2", "--t", "1", *extra])
        assert result.exit_code == 3
        assert result.stderr.startswith(f"error: n={10**24} exceeds the largest supported n")

    def test_numeric_error_exit_code(self, runner, monkeypatch):
        import maxrand.cli as cli_mod
        from maxrand import FeasibilityError

        def explode(spec):
            raise FeasibilityError("too big")

        monkeypatch.setattr(cli_mod, "expected_max_accuracy", explode)
        result = runner.invoke(main, ["baseline", "--n", "10", "--m", "2", "--t", "1"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_pmf_missing_mass_exits_3(self, flags):
        # The mass check is a raise, not an assert, so -O keeps it.
        script = (
            "import maxrand.dist as dist\n"
            "build = dist._binomial_window\n"
            "def short(n, p):\n"
            "    lo, pmf = build(n, p)\n"
            "    return lo, pmf * (1 - 1e-6)\n"
            "dist._binomial_window = short\n"
            "from maxrand.cli import main\n"
            "main()\n"
        )
        result = subprocess.run(
            [sys.executable, *flags, "-c", script, "baseline", "--n", "952000", "--m", "2",
             "--t", "1"],
            capture_output=True, text=True, env=env_with_src(), timeout=120,
        )
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: the count distribution for n=952000 misses")

    def test_importing_the_cli_loads_no_reference_library(self):
        script = "import sys, maxrand.cli; print(sorted({'mpmath', 'scipy'} & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=env_with_src(), timeout=120)
        assert (result.returncode, result.stdout) == (0, "[]\n")

    def test_in_process_calls_release_their_redirected_streams(self):
        buffers = []
        for i in range(200):
            buffer = io.StringIO()
            with redirect_stdout(buffer), redirect_stderr(buffer):
                if i % 2:
                    with pytest.raises(SystemExit):
                        main(["baseline", "--n", "0", "--m", "2", "--t", "1"],
                             standalone_mode=False)
                else:
                    main(["baseline", "--n", "100", "--m", "2", "--t", str(i + 1)],
                         standalone_mode=False)
            assert buffer.getvalue()
            buffers.append(weakref.ref(buffer))
            del buffer
        gc.collect()
        assert [ref for ref in buffers if ref() is not None] == []

    def test_json_and_csv_agree(self, runner):
        args = ["baseline", "--n", "100", "--m", "2", "--t", "10"]
        csv_row = rows(runner.invoke(main, args).output)[0]
        payload = json.loads(runner.invoke(main, args + ["--format", "json"]).output)
        assert float(csv_row["expected_max"]) == payload["expected_max"]


# Cell values of every kind the commands emit, and some they do not.
cell_values = {
    "float": st.floats(),  # with nan, inf and -0.0
    "text": st.text(alphabet=st.characters(exclude_characters="\0"), max_size=6)
    | st.sampled_from(["", "a,b", 'say "x"', "a\nb", "a\rb", "é"]),
    "int": st.integers(),
    "mixed": st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                       st.text(alphabet=st.characters(exclude_characters="\0"), max_size=3),
                       st.floats().map(np.float64)),
}


class TestColumnEmission:
    """Sections are formatted a column at a time, with the bytes of the value-by-value rules."""

    @given(kinds=st.lists(st.sampled_from(sorted(cell_values)), min_size=1, max_size=4),
           kind=st.sampled_from([None, "verdict"]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_columns_print_what_the_cell_rules_print(self, kinds, kind, data):
        header = [f"h{i}" for i in range(len(kinds))]
        table = data.draw(st.lists(st.tuples(*(cell_values[k] for k in kinds)), max_size=6))
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in table:
            writer.writerow([cli_mod._cell(value) for value in row])
        assert cli_mod._csv_block(header, table) == buffer.getvalue()
        objects = [({"kind": kind} if kind else {})
                   | {key: cli_mod._json_value(value) for key, value in zip(header, row)}
                   for row in table]
        assert cli_mod._json_block(kind, header, table) == "".join(
            json.dumps(obj) + "\n" for obj in objects)

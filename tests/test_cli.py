import gc
import io
import json
import os
import re
import weakref
from contextlib import redirect_stderr, redirect_stdout
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import maxrand.dist as dist_mod
import maxrand.oracle as oracle_mod
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

    def must_not_run(size):
        raise AssertionError(f"log-factorials up to {size} were built")

    monkeypatch.setattr(dist_mod, "_log_factorials", must_not_run)


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
    def test_unnormalizable_large_n_exits_3(self, flags):
        # The binomial pmf at this n misses unit mass by more than 1e-9.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        result = subprocess.run(
            [sys.executable, *flags, "-m", "maxrand.cli",
             "baseline", "--n", "952000", "--m", "2", "--t", "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and "n=952000" in result.stderr

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

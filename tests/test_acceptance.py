"""Acceptance criteria, one test each, with a printed pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import json
import math
import time

import numpy as np
from click.testing import CliRunner

import maxrand.orderstat
from maxrand import (
    SimulationConfig,
    TaskSpec,
    UniformLabels,
    binomial_cdf_beta,
    binomial_distribution,
    classify,
    aggregate,
    enumerate_max_pmf,
    evaluate_prediction,
    ExperimentRecord,
    expected_max_accuracy,
    max_order_distribution,
    p_value_max,
    p_value_standard,
    poisson_binomial_distribution,
    pr_points,
    roc_points,
    simulate_expected_max,
)
from maxrand.cli import main as cli_main
from oracles import bernoulli_enumeration_pmf


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def timed_best_of(calls: int, fn):
    best = math.inf
    for _ in range(calls):
        maxrand.orderstat._base_distribution.cache_clear()
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def test_point_value_at_t_ten():
    value, seconds = timed_best_of(5, lambda: expected_max_accuracy(TaskSpec.uniform(100, 2, 10)))
    ok = abs(value - 0.575) <= 0.005 and seconds < 0.010
    assert report(
        "point-value", ok, f"expected_max(100, 1/2, 10) = {value:.6f}, {seconds * 1e3:.2f} ms"
    )


def test_scaling_with_large_n_and_t():
    value, seconds = timed_best_of(
        3, lambda: expected_max_accuracy(TaskSpec.uniform(1000, 2, 10_000))
    )
    ok = value < 0.575 and seconds < 1.0
    assert report(
        "scaling", ok, f"expected_max(1000, 1/2, 10000) = {value:.6f} < 0.575, {seconds:.3f} s"
    )


def test_threshold_moves_by_more_than_seven_points():
    value = expected_max_accuracy(TaskSpec.uniform(100, 2, 10))
    ok = value - 0.5 > 0.07
    assert report("threshold-shift", ok, f"baseline moved by {value - 0.5:.4f} > 0.07")


def test_monte_carlo_agreement_over_the_grid():
    start = time.perf_counter()
    worst = 0.0
    cells = 0
    ok = True
    for i, (n, m, t) in enumerate(
        (n, m, t) for n in (10, 50, 100, 200) for m in (4, 2) for t in (1, 5, 20, 200)
    ):
        spec = TaskSpec.uniform(n, m, t)
        result = simulate_expected_max(
            SimulationConfig(spec=spec, trials=100_000, seed=1000 + 17 * i)
        )
        closed = expected_max_accuracy(spec)
        gap = abs(result.estimate - closed)
        limit = 4 * result.std_error
        worst = max(worst, gap / limit if limit else 0.0)
        ok = ok and gap <= limit
        cells += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert report(
        "monte-carlo",
        ok,
        f"{cells} cells within 4 SE (worst gap {worst:.2f} of limit), {elapsed:.1f} s",
    )


def test_exhaustive_agreement():
    worst_max = 0.0
    for n in range(1, 7):
        for t in range(1, 5):
            for m in (4, 3, 2):
                closed = max_order_distribution(binomial_distribution(n, 1.0 / m), t).pmf_max
                enumerated = enumerate_max_pmf(TaskSpec.uniform(n, m, t))
                worst_max = max(worst_max, float(np.max(np.abs(closed - enumerated))))
    worst_pb = 0.0
    vectors = [
        [0.5] * 12,
        [k / 13 for k in range(1, 13)],
        [1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 2, 1 / 3, 1 / 4, 1 / 5, 0.9, 0.99, 1.0, 0.6],
        [0.25, 1 / 3],
        [0.7],
    ]
    for probs in vectors:
        pmf = poisson_binomial_distribution(probs).pmf
        enumerated = bernoulli_enumeration_pmf(probs)
        worst_pb = max(worst_pb, float(np.max(np.abs(pmf - enumerated))))
    ok = worst_max < 1e-12 and worst_pb < 1e-12
    assert report(
        "exhaustive",
        ok,
        f"max-order worst |diff| {worst_max:.2e}, poisson-binomial worst |diff| {worst_pb:.2e}",
    )


def test_identity_suite():
    worst_beta = 0.0
    for n in range(1, 51):
        for p in (0.1, 0.25, 0.5, 1 / 3):
            dist = binomial_distribution(n, p)
            for k in range(n + 1):
                cdf = 1.0 - dist.tail(k + 1)
                worst_beta = max(worst_beta, abs(binomial_cdf_beta(n, p, k) - cdf))
    worst_reduction = 0.0
    for n, m in ((1, 2), (10, 3), (37, 4), (100, 2)):
        spec = TaskSpec.uniform(n, m, 1)
        worst_reduction = max(worst_reduction, abs(expected_max_accuracy(spec) - 1.0 / m))
    p_values_match = True
    spec = TaskSpec.uniform(30, 3, 1)
    for k in range(31):
        p_values_match = p_values_match and (
            p_value_max(spec, k / 30) == p_value_standard(spec, k / 30)
        )
    ok = worst_beta < 1e-10 and worst_reduction < 1e-12 and p_values_match
    assert report(
        "identity-suite",
        ok,
        f"beta-vs-sum worst {worst_beta:.2e}, t=1 reduction worst {worst_reduction:.2e}, "
        f"p_max == p_standard at t=1: {p_values_match}",
    )


def test_monotone_transform_roc_equivalence():
    t = 10
    records = []
    for i in range(200):
        k = 26 + (i % 20)
        records.append(
            ExperimentRecord(
                id=f"s{i}",
                model="m",
                dataset="d",
                n=50,
                labels=UniformLabels(2),
                t=t,
                observed_max_accuracy=k / 50,
                heldout_accuracy=0.6 if (i * 7) % 10 < 7 else 0.4,
                heldout_n=50,
            )
        )
    spec_one = TaskSpec.uniform(50, 2, 1)
    truths = [r.heldout_accuracy > 0.5 for r in records]
    scores = [1.0 - p_value_standard(spec_one, r.observed_max_accuracy) for r in records]
    powered = [s**t for s in scores]
    roc_same = roc_points(truths, scores) == roc_points(truths, powered)
    pr_same = pr_points(truths, scores) == pr_points(truths, powered)
    ok = roc_same and pr_same
    assert report(
        "monotone-roc",
        ok,
        f"200-record fixture: ROC identical {roc_same}, PR identical {pr_same}",
    )


def test_audit_pipeline_on_hand_scored_fixtures():
    # Category counts and the flipped share, hand-scored from the plan:
    # n=100, m=2, t=10 has baselines 0.5 and ~0.5768.
    def rec(i, observed, heldout=None, heldout_n=None):
        return ExperimentRecord(
            id=f"r{i}",
            model="m",
            dataset="d",
            n=100,
            labels=UniformLabels(2),
            t=10,
            observed_max_accuracy=observed,
            heldout_accuracy=heldout,
            heldout_n=heldout_n,
        )

    verdicts = [classify(rec(i, 0.56)) for i in range(56)]
    verdicts += [classify(rec(1000 + i, 0.60)) for i in range(199)]
    verdicts += [classify(rec(2000 + i, 0.45)) for i in range(10)]
    summary = aggregate(verdicts)
    counts_ok = (
        summary.total.flip == 56
        and summary.total.above_both == 199
        and summary.total.below_both == 10
    )
    flip_pct = summary.total.flipped_percentage
    flips_ok = abs(flip_pct - 22.0) <= 0.05

    # Confusion counts, hand-scored: positives are heldout 0.6, negatives 0.4;
    # observed 0.70 clears both baselines, 0.55 only the standard one, 0.45 neither.
    plan = [(12, 0.70, 0.60), (8, 0.70, 0.40), (10, 0.55, 0.60),
            (5, 0.55, 0.40), (9, 0.45, 0.60), (6, 0.45, 0.40)]
    cohort = []
    i = 0
    for count, observed, heldout in plan:
        for _ in range(count):
            cohort.append(rec(f"c{i}", observed, heldout, 100))
            i += 1
    evaluation = evaluate_prediction(cohort, [classify(r) for r in cohort])
    confusion_ok = (
        (evaluation.standard.tp, evaluation.standard.fp,
         evaluation.standard.tn, evaluation.standard.fn) == (22, 13, 6, 9)
        and (evaluation.max.tp, evaluation.max.fp,
             evaluation.max.tn, evaluation.max.fn) == (12, 8, 11, 19)
    )
    ok = counts_ok and flips_ok and confusion_ok
    assert report(
        "audit-fixtures",
        ok,
        f"category counts {counts_ok}, flipped {flip_pct:.2f}% within 22.0±0.05 {flips_ok}, "
        f"confusion counts {confusion_ok}",
    )


def test_cli_determinism():
    runner = CliRunner()
    commands = [
        ["baseline", "--n", "100", "--m", "2", "--t", "10"],
        ["pvalue", "--n", "100", "--m", "2", "--t", "200", "--acc", "0.6"],
        ["threshold", "--n", "100", "--m", "2", "--t", "10", "--alpha", "0.05"],
        ["grid", "--n", "10:1000:4", "--t", "1,10,100", "--m", "2", "--format", "json"],
        ["simulate", "--n", "100", "--m", "2", "--t", "10", "--trials", "20000",
         "--seed", "42"],
    ]
    ok = True
    for args in commands:
        first = runner.invoke(cli_main, args)
        second = runner.invoke(cli_main, args)
        ok = ok and first.exit_code == 0 and first.output == second.output
    assert report("cli-determinism", ok, f"{len(commands)} commands byte-identical across runs")

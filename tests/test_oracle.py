import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

import maxrand.oracle
from maxrand import (
    DomainError,
    FeasibilityError,
    PerExampleLabels,
    SimulationConfig,
    TaskSpec,
    binomial_distribution,
    count_distribution,
    enumerate_max_pmf,
    expected_max_accuracy,
    max_order_distribution,
    simulate_expected_max,
)
from maxrand.cli import main


def test_reproducibility_is_exact():
    config = SimulationConfig(spec=TaskSpec.uniform(10, 2, 3), trials=5000, seed=123)
    first = simulate_expected_max(config)
    second = simulate_expected_max(config)
    assert first == second


def test_different_seeds_differ():
    spec = TaskSpec.uniform(10, 2, 3)
    a = simulate_expected_max(SimulationConfig(spec=spec, trials=5000, seed=1))
    b = simulate_expected_max(SimulationConfig(spec=spec, trials=5000, seed=2))
    assert a.estimate != b.estimate


def test_result_records_the_generator():
    config = SimulationConfig(spec=TaskSpec.uniform(2, 2, 1), trials=10, seed=0)
    result = simulate_expected_max(config)
    assert result.generator == "pcg64"
    assert result.trials == 10 and result.seed == 0


def test_certain_success_has_zero_error():
    spec = TaskSpec(n=1, labels=PerExampleLabels((1.0,)), t=3)
    result = simulate_expected_max(SimulationConfig(spec=spec, trials=100, seed=7))
    assert result.estimate == 1.0
    assert result.std_error == 0.0


def test_simulation_matches_enumerated_value():
    # closed form 11/16 from the 16-outcome enumeration
    config = SimulationConfig(spec=TaskSpec.uniform(2, 2, 2), trials=10**6, seed=1)
    result = simulate_expected_max(config)
    assert result.std_error > 0
    assert abs(result.estimate - 0.6875) <= 4 * result.std_error


def test_simulation_matches_closed_form():
    spec = TaskSpec.uniform(100, 2, 10)
    result = simulate_expected_max(SimulationConfig(spec=spec, trials=10**5, seed=42))
    assert abs(result.estimate - expected_max_accuracy(spec)) <= 4 * result.std_error


def test_batching_does_not_change_the_stream(monkeypatch):
    config = SimulationConfig(spec=TaskSpec.uniform(5, 2, 4), trials=2000, seed=99)
    reference = simulate_expected_max(config)
    monkeypatch.setattr(maxrand.oracle, "_CHUNK_DRAWS", 64)
    assert simulate_expected_max(config) == reference


PER_EXAMPLE = [2, 3, 4, 5, 2, 7, 3, 10, 2, 4, 6, 3]


def per_draw_maxima(config):
    """Each trial's best accuracy with every one of its t draws looked up, in one draw."""
    spec = config.spec
    cdf = 1.0 - count_distribution(spec.labels, spec.n).tails(np.arange(1, spec.n + 2))
    rng = np.random.Generator(np.random.PCG64(config.seed))
    counts = np.searchsorted(cdf, rng.random((config.trials, spec.t)), side="right")
    return counts.max(axis=1) / spec.n


@pytest.mark.parametrize(
    "spec, trials",
    [
        pytest.param(TaskSpec.uniform(1, 2, 1), 3000, id="spec0"),
        pytest.param(TaskSpec.uniform(20, 3, 1), 3000, id="spec1"),
        pytest.param(TaskSpec.uniform(20, 3, 7), 3000, id="spec2"),
        pytest.param(TaskSpec.uniform(100, 2, 200), 3000, id="spec3"),
        pytest.param(TaskSpec(n=4, labels=PerExampleLabels.from_label_counts([2, 3, 4, 10]), t=13),
                     3000, id="spec4"),
        # Enough trials for a guide table of thousands of buckets.
        pytest.param(TaskSpec.uniform(1000, 2, 1), 10**5, id="table-uniform"),
        pytest.param(TaskSpec.uniform(100, 7, 10), 10**5, id="table-t-ten"),
        pytest.param(TaskSpec(n=12, labels=PerExampleLabels.from_label_counts(PER_EXAMPLE), t=1),
                     10**5, id="table-per-example"),
    ],
)
def test_one_lookup_per_trial_gives_the_maxima_of_every_lookup(spec, trials):
    config = SimulationConfig(spec=spec, trials=trials, seed=17)
    assert np.array_equal(maxrand.oracle._simulated_maxima(config), per_draw_maxima(config))


DEFAULT_CHUNK = maxrand.oracle._CHUNK_DRAWS
COLUMN_MAX_T = maxrand.oracle._COLUMN_MAX_T
PER_EXAMPLE_SPEC = TaskSpec(n=12, labels=PerExampleLabels.from_label_counts(PER_EXAMPLE), t=40)


@pytest.mark.parametrize("chunk", [8, 64, DEFAULT_CHUNK])
@pytest.mark.parametrize(
    "spec",
    [pytest.param(TaskSpec.uniform(30, 2, t), id=f"t{t}")
     for t in sorted({1, 2, 31, 32, 33, COLUMN_MAX_T, COLUMN_MAX_T + 1, 100, 1000})]
    + [pytest.param(PER_EXAMPLE_SPEC, id="per-example")],
)
def test_chunked_maxima_equal_the_maxima_of_every_lookup(monkeypatch, spec, chunk):
    # Two default chunks and three trials more: every chunk size ends on a
    # partial chunk, or on a partial piece of a trial longer than a chunk.
    trials = 2 * max(1, DEFAULT_CHUNK // spec.t) + 3
    config = SimulationConfig(spec=spec, trials=trials, seed=spec.t)
    monkeypatch.setattr(maxrand.oracle, "_CHUNK_DRAWS", chunk)
    assert np.array_equal(maxrand.oracle._simulated_maxima(config), per_draw_maxima(config))


@pytest.mark.parametrize(
    "spec, trials",
    [
        pytest.param(TaskSpec.uniform(316, 5, 1), 10**5 + 3, id="t1"),
        pytest.param(TaskSpec.uniform(100, 2, 10), 2, id="two-trials"),
        pytest.param(TaskSpec.uniform(100, 2, 1000), 101, id="t1000"),
        pytest.param(PER_EXAMPLE_SPEC, 5000, id="per-example"),
        pytest.param(TaskSpec(n=1, labels=PerExampleLabels((1.0,)), t=3), 100, id="constant"),
    ],
)
def test_estimate_and_error_have_the_bits_of_mean_and_std(spec, trials):
    config = SimulationConfig(spec=spec, trials=trials, seed=11)
    maxima = maxrand.oracle._simulated_maxima(config)
    result = simulate_expected_max(config)
    assert result.estimate == float(maxima.mean())
    assert result.std_error == float(maxima.std(ddof=1)) / math.sqrt(trials)


def test_one_trial_has_zero_error():
    config = SimulationConfig(spec=TaskSpec.uniform(100, 2, 10), trials=1, seed=11)
    result = simulate_expected_max(config)
    assert result.estimate == maxrand.oracle._simulated_maxima(config)[0]
    assert result.std_error == 0.0


@pytest.mark.parametrize(
    "t, trials, bound",
    [
        # The 8 MB of maxima, and one chunk's draws and lookup temporaries.
        pytest.param(1, 10**6, 8 * 10**6 + 2**21, id="t1"),
        pytest.param(10**4, 100, 2**20, id="t10000"),
    ],
)
def test_simulation_holds_the_maxima_and_one_chunk(t, trials, bound):
    spec = TaskSpec.uniform(316, 5, t)
    # Build and cache the base distribution, and make numpy's one-time
    # allocations, before tracing.
    simulate_expected_max(SimulationConfig(spec=spec, trials=2, seed=3))
    tracemalloc.start()
    try:
        simulate_expected_max(SimulationConfig(spec=spec, trials=trials, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def window_cdf(spec):
    base = count_distribution(spec.labels, spec.n)
    return base, np.append(1.0 - base.window_sf[1:], 1.0)


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(TaskSpec.uniform(5000, 3, 1), id="window-above-zero"),
        pytest.param(TaskSpec(n=12, labels=PerExampleLabels.from_label_counts(PER_EXAMPLE), t=1),
                     id="per-example"),
        pytest.param(TaskSpec(n=1, labels=PerExampleLabels((1.0,)), t=1), id="certain"),
        pytest.param(TaskSpec.uniform(1000, 2, 1), id="cdf-repeats-one"),
    ],
)
@pytest.mark.parametrize("size", [1, 2, 64, 4096, 2**16])
def test_guide_table_equals_the_search_on_adversarial_keys(spec, size):
    base, cdf = window_cdf(spec)
    edges = np.arange(size) / size
    keys = np.concatenate([[0.0, 1 - 2**-53], cdf, edges])
    keys = np.concatenate([keys, np.nextafter(keys, 0.0), np.nextafter(keys, 1.0)])
    keys = keys[keys < 1.0]
    lookup = maxrand.oracle._InverseCdf(cdf, base.lo, spec.n, size)
    found = lookup(keys, out=np.empty(len(keys)))
    # Distinct counts below 2^53 divide by n to distinct doubles: equal
    # accuracies are equal counts.
    assert np.array_equal(found, (base.lo + np.searchsorted(cdf, keys, side="right")) / spec.n)


def test_the_adversarial_schemes_have_what_they_are_named_for():
    assert window_cdf(TaskSpec.uniform(5000, 3, 1))[0].lo > 0
    assert window_cdf(TaskSpec.uniform(1000, 2, 1))[1][:-1].tolist().count(1.0) > 1
    certain = window_cdf(TaskSpec(n=1, labels=PerExampleLabels((1.0,)), t=1))[1]
    assert certain.tolist() == [1.0]


@pytest.mark.parametrize("window", [1, 101, 1001, 38_605])
@pytest.mark.parametrize("trials", [1, 3, 100, 10**6, maxrand.oracle.MAX_TRIALS])
def test_guide_size_is_a_power_of_two_within_the_trial_bound(window, trials):
    size = maxrand.oracle._guide_size(window, trials)
    assert size & (size - 1) == 0
    assert size <= max(trials // 4, 1) and size < 2**31
    assert size >= 16 * window or 2 * size > trials // 4


def test_a_million_draws_search_for_under_two_percent_of_keys(monkeypatch):
    searched = []
    search = np.searchsorted

    def counting(a, v, *args, **kwargs):
        searched.append(np.size(v))
        return search(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    result = CliRunner().invoke(main, ["simulate", "--n", "1000", "--m", "2", "--t", "1",
                                       "--trials", "1000000", "--seed", "3"])
    assert result.exit_code == 0
    assert searched and sum(searched) < 0.02 * 10**6


@pytest.mark.parametrize("t", [9, 16, 17, 40])
def test_trials_longer_than_a_chunk_draw_in_pieces(monkeypatch, t):
    config = SimulationConfig(spec=TaskSpec.uniform(30, 2, t), trials=300, seed=5)
    one_shot = maxrand.oracle._simulated_maxima(config)
    monkeypatch.setattr(maxrand.oracle, "_CHUNK_DRAWS", 8)
    assert np.array_equal(maxrand.oracle._simulated_maxima(config), one_shot)
    assert np.array_equal(one_shot, per_draw_maxima(config))


def test_config_validation():
    spec = TaskSpec.uniform(2, 2, 1)
    with pytest.raises(DomainError):
        SimulationConfig(spec=spec, trials=0, seed=1)
    with pytest.raises(DomainError):
        SimulationConfig(spec=spec, trials=10, seed=-1)
    with pytest.raises(DomainError):
        SimulationConfig(spec=spec, trials=10, seed=2**64)
    SimulationConfig(spec=spec, trials=10, seed=2**64 - 1)
    for trials, seed in ((2.5, 1), (True, 1), (10, 1.5), (10, 1.0), (10, "1")):
        with pytest.raises(DomainError, match="must be an integer"):
            SimulationConfig(spec=spec, trials=trials, seed=seed)
    config = SimulationConfig(spec=spec, trials=np.int64(10), seed=np.uint64(2**64 - 1))
    assert (type(config.trials), type(config.seed)) == (int, int)
    SimulationConfig(spec=spec, trials=maxrand.oracle.MAX_TRIALS, seed=1)
    with pytest.raises(FeasibilityError):
        SimulationConfig(spec=spec, trials=maxrand.oracle.MAX_TRIALS + 1, seed=1)


def test_draws_are_bounded_before_any_is_made():
    spec = TaskSpec.uniform(2, 2, 10**5)
    SimulationConfig(spec=spec, trials=maxrand.oracle.MAX_DRAWS // 10**5, seed=1)
    with pytest.raises(FeasibilityError, match=r"trials \* t = 10000100000 exceeds"):
        SimulationConfig(spec=spec, trials=maxrand.oracle.MAX_DRAWS // 10**5 + 1, seed=1)


class TestEnumerateMaxPmf:
    def test_single_example_two_classifiers(self):
        pmf = enumerate_max_pmf(TaskSpec.uniform(1, 2, 2))
        assert_allclose(pmf, [0.25, 0.75], atol=1e-15)

    def test_identity_at_t_one(self):
        pmf = enumerate_max_pmf(TaskSpec.uniform(2, 2, 1))
        assert_allclose(pmf, [0.25, 0.5, 0.25], atol=1e-15)

    def test_agrees_with_closed_form(self):
        spec = TaskSpec.uniform(3, 3, 3)
        mo = max_order_distribution(binomial_distribution(3, 1 / 3), 3)
        assert_allclose(enumerate_max_pmf(spec), mo.pmf_max, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 6])
    @pytest.mark.parametrize("t", [1, 2, 4])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_small_grid_agreement(self, n, t, m):
        spec = TaskSpec.uniform(n, m, t)
        mo = max_order_distribution(binomial_distribution(n, 1.0 / m), t)
        assert np.max(np.abs(enumerate_max_pmf(spec) - mo.pmf_max)) < 1e-12

    def test_per_example_scheme(self):
        labels = PerExampleLabels.from_label_counts([2, 3, 4])
        spec = TaskSpec(n=3, labels=labels, t=2)
        mo = max_order_distribution(count_distribution(labels, 3), 2)
        assert_allclose(enumerate_max_pmf(spec), mo.pmf_max, atol=1e-12)

    def test_feasibility_bound(self):
        with pytest.raises(FeasibilityError):
            enumerate_max_pmf(TaskSpec.uniform(100, 2, 4))

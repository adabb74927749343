import numpy as np
import pytest
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


def per_draw_maxima(config):
    """Each trial's best accuracy with every one of its t draws looked up, in one draw."""
    spec = config.spec
    cdf = count_distribution(spec.labels, spec.n).cdf
    rng = np.random.Generator(np.random.PCG64(config.seed))
    counts = np.searchsorted(cdf, rng.random((config.trials, spec.t)), side="right")
    return counts.max(axis=1) / spec.n


@pytest.mark.parametrize(
    "spec",
    [
        TaskSpec.uniform(1, 2, 1),
        TaskSpec.uniform(20, 3, 1),
        TaskSpec.uniform(20, 3, 7),
        TaskSpec.uniform(100, 2, 200),
        TaskSpec(n=4, labels=PerExampleLabels.from_label_counts([2, 3, 4, 10]), t=13),
    ],
)
def test_one_lookup_per_trial_gives_the_maxima_of_every_lookup(spec):
    config = SimulationConfig(spec=spec, trials=3000, seed=17)
    assert np.array_equal(maxrand.oracle._simulated_maxima(config), per_draw_maxima(config))


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

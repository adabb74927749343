import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import maxrand.dist as dist_mod
from maxrand import (
    DomainError,
    FeasibilityError,
    PerExampleLabels,
    UniformLabels,
    binomial_cdf_beta,
    binomial_distribution,
    count_distribution,
    poisson_binomial_distribution,
)
from maxrand.dist import tail_sums
from oracles import bernoulli_enumeration_pmf, exact_binomial_pmf


def stirlerr_50_digits(k: int):
    """log(k!) - (k + 1/2) log(k) + k - log(2 pi) / 2 at 50 digits."""
    mp = mpmath.mp.clone()
    mp.dps = 50
    return mp.loggamma(k + 1) - (k + mp.mpf(1) / 2) * mp.log(k) + k - mp.log(2 * mp.pi) / 2


TINY = mpmath.mpf(2) ** -1075


def sf(dist) -> np.ndarray:
    """S(k) = P(X >= k) for k = 0..n."""
    return dist.tails(np.arange(dist.n + 1))


def cdf(dist) -> np.ndarray:
    """P(X <= k) = 1 - S(k + 1) for k = 0..n."""
    return 1.0 - dist.tails(np.arange(1, dist.n + 2))


def binomial_mass_beyond(n: int, p: float, k: int, direction: int):
    """P(X <= k) (direction -1) or P(X >= k) (direction 1) for Binomial(n, p), at 40 digits."""
    if not 0 <= k <= n:
        return mpmath.mpf(0)
    mp = mpmath.mp.clone()
    mp.dps = 40
    p, q = mp.mpf(p), 1 - mp.mpf(p)
    term = mp.exp(mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)
                  + k * mp.log(p) + (n - k) * mp.log(q))
    total = mp.mpf(0)
    while 0 <= k <= n and term > total * mp.mpf(10) ** -45:
        total += term
        term *= (n - k) / (k + 1) * p / q if direction > 0 else k / (n - k + 1) * q / p
        k += direction
    return total


def assert_window_is_tight_and_exact(dist) -> None:
    """The window exceeds its nonzero counts by at most about 0.5%, and S is exact outside it."""
    nonzero = int(np.count_nonzero(dist.window_pmf))
    assert len(dist.window_pmf) <= 1.005 * nonzero + 2
    tails = sf(dist)
    assert (tails[: dist.lo + 1] == 1.0).all() and not tails[dist.hi + 1 :].any()
    assert not dist.pmf[: dist.lo].any() and not dist.pmf[dist.hi + 1 :].any()
    for k in (dist.lo - 1, dist.lo, dist.lo + 1, (dist.lo + dist.hi) // 2, dist.hi, dist.hi + 1):
        assert dist.tail(k) == (tails[k] if 0 <= k <= dist.n else float(k <= 0))


class TestBinomialDistribution:
    def test_fair_coin_twice(self):
        dist = binomial_distribution(2, 0.5)
        assert_allclose(dist.pmf, [0.25, 0.5, 0.25], atol=1e-15)

    def test_certain_success(self):
        dist = binomial_distribution(5, 1.0)
        assert list(dist.pmf) == [0, 0, 0, 0, 0, 1]
        assert list(cdf(dist)) == [0, 0, 0, 0, 0, 1]

    def test_certain_failure(self):
        dist = binomial_distribution(4, 0.0)
        assert list(dist.pmf) == [1, 0, 0, 0, 0]
        assert 1.0 - dist.tail(1) == 1.0

    def test_against_exact_rational_oracle(self):
        dist = binomial_distribution(10, 1 / 3)
        exact = exact_binomial_pmf(10, Fraction(1, 3))
        assert abs(dist.pmf[3] - exact[3]) < 1e-12
        assert_allclose(dist.pmf, exact, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 13, 100, 1000, 5000])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 1 / 3, 0.5, 0.9, 1.0])
    def test_construction_invariants(self, n, p):
        dist = binomial_distribution(n, p)
        assert abs(math.fsum(dist.pmf) - 1.0) < 1e-10
        assert cdf(dist)[n] == 1.0
        assert np.all(np.diff(cdf(dist)) >= 0)
        assert sf(dist)[0] == 1.0
        assert np.all(np.diff(sf(dist)) <= 0)
        assert np.all(dist.pmf >= 0)

    def test_cdf_matches_partial_sums(self):
        dist = binomial_distribution(40, 0.3)
        partial = [math.fsum(dist.pmf[: k + 1]) for k in range(41)]
        assert_allclose(cdf(dist), partial, atol=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            binomial_distribution(0, 0.5)
        with pytest.raises(DomainError):
            binomial_distribution(10, -0.1)
        with pytest.raises(DomainError):
            binomial_distribution(10, 1.1)

    @pytest.mark.parametrize("n", [dist_mod.MAX_N + 1, 10**24])
    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_rejects_n_above_the_bound_before_allocating(self, monkeypatch, n, p):
        def must_not_run(n, p):
            raise AssertionError(f"a Binomial({n}, {p}) pmf was built")

        monkeypatch.setattr(dist_mod, "_binomial_window", must_not_run)
        with pytest.raises(FeasibilityError, match="exceeds the largest supported n"):
            binomial_distribution(n, p)

    def test_stirlerr_constants_are_recomputed_bit_for_bit(self):
        table = dist_mod._STIRLERR_TABLE
        assert len(table) == 16 and table[0] == 0.0  # entry 0 is never read
        for k in range(1, 16):
            assert table[k] == float(stirlerr_50_digits(k)), k

    def test_stirlerr_series_meets_the_table_and_mpmath(self):
        values = dist_mod._stirlerr(1, 10**6)
        assert values[:15].tolist() == dist_mod._STIRLERR_TABLE[1:].tolist()
        # The pmf adds stirlerr to its exponent, so its absolute error is what counts.
        for k in [*range(16, 600), 10**4, 10**6]:
            assert abs(values[k - 1] - float(stirlerr_50_digits(k))) <= 3e-17, k

    @pytest.mark.parametrize("n", [940_000 + 4_000 * i for i in range(16)])
    def test_every_probe_n_near_a_million_builds_with_unit_mass(self, n):
        dist = binomial_distribution(n, 0.5)
        assert dist.window_sf[0] == 1.0
        assert abs(math.fsum(dist.window_pmf) - 1.0) <= 4 * 2.0**-53

    @pytest.mark.parametrize("n", [1, 50, 2000, 10**5, 10**6])
    @pytest.mark.parametrize("p", [0.5, 1 / 3, 0.1, 0.01])
    def test_window_holds_every_nonzero_value(self, n, p):
        dist = binomial_distribution(n, p)
        # The mass on either side of the window rounds to 0.0, by 40-digit mpmath.
        assert binomial_mass_beyond(n, p, dist.lo - 1, -1) < TINY
        assert binomial_mass_beyond(n, p, dist.hi + 1, 1) < TINY
        assert_window_is_tight_and_exact(dist)

    def test_window_at_a_million_holds_the_chernoff_counts(self):
        dist = binomial_distribution(10**6, 0.5)
        assert (dist.lo, dist.hi) == (480_700, 519_300)
        assert dist.window_pmf.nbytes + dist.window_sf.nbytes == 16 * 38_601

    def test_window_at_a_million_and_p_one_tenth_holds_at_most_23200_counts(self):
        # The Hoeffding window it replaced held 38,605; 23,053 counts are nonzero.
        dist = binomial_distribution(10**6, 0.1)
        assert dist.hi - dist.lo + 1 <= 23_200

    def test_window_values_do_not_depend_on_the_window(self):
        # Loader's form evaluates each count on its own: a wider level gives
        # a wider window with the same bits on the counts both hold.
        for n, p in [(2000, 0.5), (10**5, 1 / 3), (10**6, 0.1), (3 * 10**6, 1 / 7)]:
            lo, pmf = dist_mod._binomial_window(n, p)
            wide_lo, wide = dist_mod._binomial_window(n, p, level=dist_mod._NEGLIGIBLE + 20)
            assert wide_lo < lo and len(wide) > len(pmf)
            assert_array_equal(wide[lo - wide_lo : lo - wide_lo + len(pmf)], pmf)

    def test_a_subnormal_p_keeps_its_single_successes(self):
        # n p is below n / 1.8e308, so x / (n p) overflows; the deviance comes from logs.
        assert binomial_distribution(10, 5e-324).pmf[1] == 10 * 5e-324
        assert poisson_binomial_distribution([5e-324] * 3 + [0.5]).pmf[2] > 0.0

    @pytest.mark.parametrize("count", [2.5, 2.9, 2.0, True, "3", 10**20])
    def test_tails_reads_integer_counts_only(self, count):
        dist = binomial_distribution(10, 0.5)
        with pytest.raises(DomainError, match="counts must be integers"):
            dist.tails([count])
        with pytest.raises(DomainError, match="counts must be integers"):
            dist.tail(count)

    def test_integer_counts_of_any_width_read_their_tails(self):
        dist = binomial_distribution(10, 0.5)
        assert dist.tails([-5, 2, 11]).tolist() == [1.0, dist.tail(2), 0.0]
        for dtype in (np.int8, np.int32, np.uint8, np.uint64):
            counts = np.array([0, 2, 11], dtype=dtype)
            assert dist.tails(counts).tolist() == [1.0, dist.tail(2), 0.0]
        # Beyond int64, numpy holds a count as uint64: above the window, so its tail is 0.
        assert dist.tails([2**63, 2**64 - 1]).tolist() == [0.0, 0.0]
        assert dist.tail(np.uint64(2**64 - 1)) == 0.0
        assert dist.tails([]).shape == (0,)
        with pytest.raises(DomainError, match="counts must be integers"):
            dist.tails([3, 2.5])

    @pytest.mark.parametrize("counts", [[3, True], (False, 3), [3, np.True_], [[3], [True]]])
    def test_tails_reads_a_bool_among_integers_as_no_count(self, counts):
        # np.asarray reads [3, True] as the int64 array [3, 1].
        with pytest.raises(DomainError, match="counts must be integers"):
            binomial_distribution(10, 0.5).tails(counts)

    def test_n_must_be_an_integer(self):
        for n in (10.0, 10.5, True):
            with pytest.raises(DomainError, match="n must be an integer"):
                binomial_distribution(n, 0.5)
        assert binomial_distribution(np.int64(10), 0.5).n == 10

    def test_tail_is_upper_sum(self):
        dist = binomial_distribution(12, 0.4)
        assert dist.tail(0) == 1.0
        assert dist.tail(13) == 0.0
        assert abs(dist.tail(5) - math.fsum(dist.pmf[5:])) < 1e-15


class TestBinomialCdfBeta:
    def test_at_most_one_of_two(self):
        assert abs(binomial_cdf_beta(2, 0.5, 1) - 0.75) < 1e-12

    def test_single_trial_failure(self):
        assert abs(binomial_cdf_beta(1, 0.25, 0) - 0.75) < 1e-12

    def test_against_summation(self):
        dist = binomial_distribution(20, 0.3)
        assert abs(binomial_cdf_beta(20, 0.3, 6) - (1.0 - dist.tail(7))) < 1e-10

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 1 / 3])
    def test_identity_with_summation_for_all_small_n(self, p):
        for n in range(1, 51):
            dist = binomial_distribution(n, p)
            for k in range(n + 1):
                assert abs(binomial_cdf_beta(n, p, k) - (1.0 - dist.tail(k + 1))) < 1e-10

    def test_degenerate_p(self):
        assert binomial_cdf_beta(5, 0.0, 2) == 1.0
        assert binomial_cdf_beta(5, 1.0, 4) == 0.0
        assert binomial_cdf_beta(5, 1.0, 5) == 1.0

    def test_rejects_k_outside_range(self):
        with pytest.raises(DomainError):
            binomial_cdf_beta(5, 0.5, -1)
        with pytest.raises(DomainError):
            binomial_cdf_beta(5, 0.5, 6)


class TestPoissonBinomial:
    def test_reduces_to_fair_binomial(self):
        dist = poisson_binomial_distribution([0.5, 0.5])
        assert_allclose(dist.pmf, [0.25, 0.5, 0.25], atol=1e-15)

    def test_one_certain_one_fair(self):
        # enumerating the four outcome combinations: counts 1 and 2 each at 1/2
        dist = poisson_binomial_distribution([1.0, 0.5])
        assert_allclose(dist.pmf, [0.0, 0.5, 0.5], atol=1e-15)

    def test_against_exhaustive_enumeration(self):
        probs = [1 / 2, 1 / 3, 1 / 4]
        dist = poisson_binomial_distribution(probs)
        assert_allclose(dist.pmf, bernoulli_enumeration_pmf(probs), atol=1e-12)

    @pytest.mark.parametrize(
        "probs",
        [
            [0.3],
            [0.9, 0.1, 0.5, 0.5],
            [1 / 2, 1 / 3, 1 / 3, 1 / 5, 0.99, 0.01],
            [k / 13 for k in range(1, 13)],  # n = 12
        ],
    )
    def test_enumeration_agreement_up_to_n_12(self, probs):
        dist = poisson_binomial_distribution(probs)
        assert_allclose(dist.pmf, bernoulli_enumeration_pmf(probs), atol=1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_enumeration_agreement_property(self, probs):
        dist = poisson_binomial_distribution(probs)
        assert_allclose(dist.pmf, bernoulli_enumeration_pmf(probs), atol=1e-12)
        assert abs(math.fsum(dist.pmf) - 1.0) < 1e-10
        assert cdf(dist)[len(probs)] == 1.0
        assert np.all(np.diff(cdf(dist)) >= 0)

    @pytest.mark.parametrize("n", [1, 7, 40, 200])
    @pytest.mark.parametrize("p", [0.25, 1 / 3, 0.7])
    def test_constant_probabilities_match_binomial(self, n, p):
        pb = poisson_binomial_distribution([p] * n)
        binom = binomial_distribution(n, p)
        assert_allclose(pb.pmf, binom.pmf, atol=1e-12)
        assert_allclose(cdf(pb), cdf(binom), atol=1e-12)

    @pytest.mark.parametrize(
        "counts",
        [
            random.Random(20_000).choices(range(2, 11), k=20_000),
            [2] * 1500 + [3] * 1500,
            list(range(2, 2002)),
            [2] * 10 + [10**6] * 5000,
        ],
        ids=["counts-2-to-10", "counts-2-and-3", "all-distinct", "two-far-groups"],
    )
    def test_window_is_tight_and_exact_outside(self, counts):
        # That the window holds every nonzero value is checked against an
        # independent reference at n = 2e4 in test_reference.py.
        dist = count_distribution(PerExampleLabels.from_label_counts(counts), len(counts))
        assert_window_is_tight_and_exact(dist)

    def test_rejects_zero_probability_and_empty(self):
        with pytest.raises(DomainError):
            poisson_binomial_distribution([0.5, 0.0])
        with pytest.raises(DomainError):
            poisson_binomial_distribution([])
        with pytest.raises(DomainError):
            poisson_binomial_distribution([0.5, 1.2])


def _exact_suffix_sums(pmf) -> list[float]:
    """Every suffix sum of ``pmf`` in exact rational arithmetic, rounded once, capped at 1."""
    total = Fraction(0)
    out = []
    for value in reversed(pmf.tolist()):
        total += Fraction(value)
        out.append(min(float(total), 1.0))
    return out[::-1]


class TestTailSums:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: binomial_distribution(10**5, 0.1).pmf,
            lambda: binomial_distribution(3 * 10**5, 0.5).pmf,
            lambda: poisson_binomial_distribution(
                [1.0 / (2 + (7 * i) % 9) for i in range(5000)]
            ).pmf,
        ],
        ids=["binomial-1e5-0.1", "binomial-3e5-0.5", "poisson-binomial-5000"],
    )
    def test_every_suffix_sum_is_exactly_rounded(self, build):
        pmf = build()
        assert tail_sums(pmf).tolist() == _exact_suffix_sums(pmf)

    def test_small_inputs(self):
        assert tail_sums(np.array([0.25, 0.5, 0.25])).tolist() == [1.0, 0.75, 0.25]
        assert tail_sums(np.array([1.0])).tolist() == [1.0]
        assert tail_sums(np.array([])).tolist() == []


class TestLabelSchemes:
    def test_uniform_success_probability(self):
        assert UniformLabels(4).p == 0.25
        assert UniformLabels(2).expected_accuracy() == 0.5

    def test_uniform_requires_two_labels(self):
        with pytest.raises(DomainError):
            UniformLabels(1)

    @pytest.mark.parametrize("m", [2.5, 2.0, True, "2"])
    def test_uniform_label_count_must_be_an_integer(self, m):
        with pytest.raises(DomainError, match="label count m must be an integer"):
            UniformLabels(m)

    def test_per_example_from_label_counts(self):
        scheme = PerExampleLabels.from_label_counts([2, 3, 3, 5])
        assert (scheme.distinct, scheme.multiplicities) == ((0.5, 1 / 3, 0.2), (1, 2, 1))

    @given(st.lists(st.tuples(
        st.integers(1, 10**4) | st.sampled_from([3**40, 10**307, 10**308]),
        st.integers(1, 50)), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_mean_is_the_correctly_rounded_sum_of_every_p(self, histogram):
        counts = [c for c, k in histogram for _ in range(k)]
        scheme = PerExampleLabels.from_label_counts(counts)
        expanded = np.repeat(scheme.distinct, scheme.multiplicities)
        assert scheme.expected_accuracy() == math.fsum(expanded) / len(counts)

    def test_per_example_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            PerExampleLabels.from_label_counts([2, 0])
        with pytest.raises(DomainError, match="at index 1 must be a positive integer"):
            PerExampleLabels.from_label_counts([1, np.True_])
        with pytest.raises(DomainError):
            PerExampleLabels((0.5, -0.2))

    def test_count_distribution_dispatch(self):
        uniform = count_distribution(UniformLabels(2), 3)
        assert_allclose(uniform.pmf, binomial_distribution(3, 0.5).pmf)
        per_example = count_distribution(PerExampleLabels((0.5, 0.5)), 2)
        assert_allclose(per_example.pmf, [0.25, 0.5, 0.25], atol=1e-15)

    def test_permutations_build_the_same_bits(self):
        rng = np.random.default_rng(2000)
        counts = rng.integers(2, 11, size=2000).tolist()
        shuffled = rng.permutation(counts).tolist()
        given_order = [poisson_binomial_distribution([1.0 / c for c in order])
                       for order in (counts, shuffled)]
        schemes = [count_distribution(PerExampleLabels.from_label_counts(order), 2000)
                   for order in (counts, shuffled)]
        for dist in given_order[1:] + schemes:
            assert dist.lo == given_order[0].lo
            assert_array_equal(dist.window_pmf, given_order[0].window_pmf)
            assert_array_equal(dist.window_sf, given_order[0].window_sf)

    def test_count_distribution_length_mismatch(self):
        with pytest.raises(DomainError):
            count_distribution(PerExampleLabels((0.5, 0.5)), 3)

    def test_distribution_arrays_are_read_only(self):
        dist = binomial_distribution(3, 0.5)
        with pytest.raises(ValueError):
            dist.pmf[0] = 0.0

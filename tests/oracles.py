"""Brute-force reference implementations used only by the tests.

These share no code with the package: exact rational arithmetic and
exhaustive enumeration, feasible only at small sizes.
"""

import itertools
import math
from fractions import Fraction


def exact_binomial_pmf(n: int, p: Fraction) -> list[float]:
    """Binomial pmf by exact rational arithmetic."""
    return [float(math.comb(n, k) * p**k * (1 - p) ** (n - k)) for k in range(n + 1)]


def bernoulli_enumeration_pmf(probabilities) -> list[float]:
    """Pmf of a sum of independent Bernoulli trials by full 2^n enumeration."""
    probs = [Fraction(p) for p in probabilities]
    n = len(probs)
    pmf = [Fraction(0)] * (n + 1)
    for outcome in itertools.product((0, 1), repeat=n):
        weight = Fraction(1)
        for bit, p in zip(outcome, probs):
            weight *= p if bit else 1 - p
        pmf[sum(outcome)] += weight
    return [float(value) for value in pmf]


def expanded_probabilities(scheme) -> list[float]:
    """Every example's p_i of a per-example scheme: each distinct p_i, repeated, in its order."""
    return [p for p, k in zip(scheme.distinct, scheme.multiplicities) for _ in range(k)]


def max_tuple_enumeration_pmf(base_pmf, t: int) -> list[float]:
    """Pmf of the max of t iid draws, summing all (n+1)^t weighted tuples."""
    n = len(base_pmf) - 1
    out = [0.0] * (n + 1)
    for tup in itertools.product(range(n + 1), repeat=t):
        weight = 1.0
        for k in tup:
            weight *= base_pmf[k]
        out[max(tup)] += weight
    return out


def expected_accuracy_of_pmf(pmf) -> float:
    n = len(pmf) - 1
    return sum(k * pk for k, pk in enumerate(pmf)) / n

"""Per-example label counts: the histogram parser against the count-by-count one.

``old_parse_labels`` and ``old_parse_label_counts`` are the parsers that
read every count with one ``_parse_int`` call, kept here as the oracle:
for any input the histogram parser must build a scheme with the same
multiset of probabilities, or raise the same error with the same message.
"""

import math
import pickle
import random
from collections import Counter

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import maxrand.audit as audit_mod
import maxrand.orderstat as orderstat_mod
from maxrand import DomainError, PerExampleLabels, TaskSpec
from maxrand.audit import _parse_labels, parse_label_counts
from maxrand.cli import main
from oracles import expanded_probabilities


def old_parse_int(value, field):
    if isinstance(value, bool):
        raise DomainError(f"{field} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            raise DomainError(f"{field} must be an integer, got {value!r}") from None
    raise DomainError(f"{field} must be an integer, got {value!r}")


def old_from_label_counts(counts):
    for i, c in enumerate(counts):
        if int(c) != c or c < 1:
            raise DomainError(f"label count {c!r} at index {i} must be a positive integer")
    probabilities = []
    for i, c in enumerate(counts):
        try:
            probabilities.append(1.0 / int(c))
        except OverflowError:
            raise DomainError(
                f"label count {c!r} at index {i} exceeds the largest float, 1.798e+308"
            ) from None
    if len(probabilities) == 0:
        raise DomainError("per-example scheme needs at least one probability")
    return probabilities


def old_parse_labels(values):
    return old_from_label_counts([old_parse_int(c, "labels") for c in values])


def old_parse_label_counts(text):
    return old_parse_labels(text.split(";"))


def outcome(parse, value):
    """(sorted probabilities, None) on success, (None, (error type, message)) on failure."""
    try:
        result = parse(value)
    except Exception as exc:  # noqa: BLE001 - the oracle may raise anything
        return None, (type(exc), str(exc))
    if isinstance(result, PerExampleLabels):
        result = expanded_probabilities(result)
    return sorted(result), None


counts = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.integers(min_value=2**62, max_value=2**64),
    st.sampled_from([10**30, 10**400]),
    st.booleans(),
    st.integers(min_value=-2, max_value=12).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-3, max_value=12).map(str),
    st.sampled_from(["x", "", " 3", "4 ", "\t5\n", "2.0", "1_0", "+7", "0x10", "\x1c3", " 4"]),
)
count_texts = st.one_of(
    st.integers(min_value=-3, max_value=12).map(str),
    st.sampled_from(["x", "", " 3", "4 ", "\t5", "2.0", "1_0", "+7", "\x1c3", " 4",
                     str(2**63), str(10**30), str(10**400)]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(counts, min_size=0, max_size=8))
def test_list_parser_matches_the_count_by_count_parser(values):
    assert outcome(_parse_labels, values) == outcome(old_parse_labels, values)


@settings(max_examples=400, deadline=None)
@given(st.lists(count_texts, min_size=1, max_size=8))
def test_text_parser_matches_the_count_by_count_parser(parts):
    text = ";".join(parts)
    assert outcome(parse_label_counts, text) == outcome(old_parse_label_counts, text)


@pytest.mark.parametrize(
    "values, message",
    [
        ([True, 2], "labels must be an integer, got True"),
        ([2, 0], "label count 0 at index 1 must be a positive integer"),
        ([2, -3, 4], "label count -3 at index 1 must be a positive integer"),
        ([2, "x"], "labels must be an integer, got 'x'"),
        ([0, "x"], "labels must be an integer, got 'x'"),
        ([10**30, 0], "label count 0 at index 1 must be a positive integer"),
        ([], "per-example scheme needs at least one probability"),
        pytest.param([2, 10**400, 10**400],
                     f"label count {10**400} at index 1 exceeds the largest float, 1.798e+308",
                     id="count-above-the-largest-float"),
    ],
)
def test_bad_lists_name_the_first_bad_count(values, message):
    with pytest.raises(DomainError) as caught:
        _parse_labels(values)
    assert str(caught.value) == message


def test_integral_floats_and_huge_counts_are_counts():
    assert _parse_labels([2.0, 3, "4"]) == PerExampleLabels((0.5, 1 / 3, 0.25))
    assert expanded_probabilities(_parse_labels([10**30, 2])) == [0.5, 1.0 / 10**30]


def test_schemes_from_a_list_a_string_and_probabilities_are_one_cache_key():
    from_list = _parse_labels([2, 3, 4])
    from_text = parse_label_counts(" 2; 3;4")
    from_probabilities = PerExampleLabels((0.5, 1 / 3, 0.25))
    assert from_list == from_text == from_probabilities
    assert hash(from_list) == hash(from_text) == hash(from_probabilities)
    assert from_list != PerExampleLabels((0.5, 1 / 3, 0.2))
    orderstat_mod._base_distribution.cache_clear()
    first = orderstat_mod._base(TaskSpec(n=3, labels=from_list, t=5))
    second = orderstat_mod._base(TaskSpec(n=3, labels=from_text, t=7))
    info = orderstat_mod._base_distribution.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert second is first


def test_permuted_schemes_are_equal_and_share_one_cache_entry():
    given = PerExampleLabels.from_label_counts([4, 2, 3, 2])
    permuted = parse_label_counts("2;3;2;4")
    assert given == permuted and hash(given) == hash(permuted)
    assert expanded_probabilities(given) == expanded_probabilities(permuted) == [
        0.5, 0.5, 1 / 3, 0.25]
    assert given != PerExampleLabels.from_label_counts([4, 2, 3, 3])
    orderstat_mod._base_distribution.cache_clear()
    first = orderstat_mod._base(TaskSpec(n=4, labels=given, t=3))
    second = orderstat_mod._base(TaskSpec(n=4, labels=permuted, t=1))
    info = orderstat_mod._base_distribution.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert second is first


def test_a_scheme_survives_pickling_with_a_fresh_hash():
    scheme = PerExampleLabels.from_label_counts([2, 3, 4])
    copy = pickle.loads(pickle.dumps(scheme))
    assert copy == scheme and hash(copy) == hash(scheme)
    assert expanded_probabilities(copy) == expanded_probabilities(scheme)


@pytest.mark.parametrize(
    "probabilities, message",
    [
        ((0.5, 0.0, 2.0), "probability 0.0 at index 1 is outside (0, 1]"),
        ((0.5, 1, -1), "probability -1 at index 2 is outside (0, 1]"),
        ((False, 0.5), "probability False at index 0 is outside (0, 1]"),
        ((0.5, math.nan), "probability nan at index 1 is outside (0, 1]"),
        ((1.5,), "probability 1.5 at index 0 is outside (0, 1]"),
        ((), "per-example scheme needs at least one probability"),
    ],
)
def test_probability_checks_name_the_first_bad_value(probabilities, message):
    with pytest.raises(DomainError) as caught:
        PerExampleLabels(probabilities)
    assert str(caught.value) == message


def test_non_numbers_are_compared_as_python_compares_them():
    with pytest.raises(DomainError, match=r"probability '0.5' at index 1 is outside"):
        PerExampleLabels((0.5, "0.5"))
    with pytest.raises(TypeError):
        PerExampleLabels((0.5, [0.5]))
    assert PerExampleLabels((True, 0.5)) == PerExampleLabels((1.0, 0.5))
    assert expanded_probabilities(PerExampleLabels([0.5, 0.25])) == [0.5, 0.25]


@pytest.mark.parametrize(
    "build, values, message",
    [
        (PerExampleLabels.from_label_counts, [2, math.inf],
         "label count inf at index 1 must be a positive integer"),
        (PerExampleLabels.from_label_counts, [2, math.nan],
         "label count nan at index 1 must be a positive integer"),
        (PerExampleLabels.from_label_counts, [2, "x"],
         "label count 'x' at index 1 must be a positive integer"),
        (PerExampleLabels.from_label_counts, [2, None],
         "label count None at index 1 must be a positive integer"),
        (PerExampleLabels.from_label_counts, [True, 2],
         "label count True at index 0 must be a positive integer"),
        (PerExampleLabels.from_label_counts, [1, True],
         "label count True at index 1 must be a positive integer"),
        (PerExampleLabels, [0.5, "x"], "probability 'x' at index 1 is outside (0, 1]"),
        (PerExampleLabels, [0.5, None], "probability None at index 1 is outside (0, 1]"),
    ],
    ids=["inf", "nan", "string", "none", "bool", "bool-merged-with-one", "probability-string",
         "probability-none"],
)
def test_values_that_are_not_counts_or_probabilities_are_domain_errors(build, values, message):
    with pytest.raises(DomainError) as caught:
        build(values)
    assert str(caught.value) == message


def test_a_20000_count_labels_flag_reads_each_distinct_count_once(monkeypatch):
    calls = Counter()
    read = audit_mod._parse_int

    def counted(value, field):
        calls[value] += 1
        return read(value, field)

    monkeypatch.setattr(audit_mod, "_parse_int", counted)
    counts = random.Random(20_000).choices(range(2, 11), k=20_000)
    args = ["baseline", "--n", "20000", "--t", "1", "--labels", ";".join(map(str, counts))]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert calls == Counter()  # digits between single ';' are read as one array
    # Text the array reader leaves alone goes through the histogram.
    monkeypatch.setattr(audit_mod, "_digit_counts", lambda text: None)
    fallback = CliRunner().invoke(main, args)
    assert fallback.output == result.output
    assert calls == Counter({str(c): 1 for c in set(counts)})


def test_a_boolean_merged_with_the_count_one_is_still_rejected():
    with pytest.raises(DomainError, match="labels must be an integer, got True"):
        _parse_labels([1, 2, True])
    with pytest.raises(DomainError, match="labels must be an integer, got False"):
        _parse_labels([2, 0.0, False])
    assert parse_label_counts("1;2;1") == PerExampleLabels((1.0, 0.5, 1.0))

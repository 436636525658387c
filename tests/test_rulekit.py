"""Rule parsing, canonicalisation and the exact shape predicates."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoreline import (
    RuleCategory,
    ScoringRule,
    canonicalize,
    classify,
    cox_threshold,
    is_borda_equivalent,
    parse_rule,
    plateaus,
    shape_profile,
    subrule,
)
from scoreline.errors import (
    ConstantRuleError,
    NotNonincreasingError,
    RuleParseError,
    RuleTooLargeError,
    SubruleIndexError,
)
from scoreline.rulekit import MAX_SCORE_DIGITS, MAX_TOKEN, ConstantSubrule

from util import random_rule, random_weakly_concave_rule, rule_from_ints


def test_parse_plurality():
    rule = parse_rule("1,0,0,0")
    assert rule.scores == (F(1), F(0), F(0), F(0))


def test_parse_twelve_candidate_rule():
    rule = parse_rule("4,4,4,3,3,3,2,1,1,0,0,0")
    assert rule.m == 12
    assert rule.scores[6] == F(2)


def test_parse_fractions_and_whitespace():
    rule = parse_rule(" 1 , 2/5 , 0 , 0 ")
    assert rule.scores == (F(1), F(2, 5), F(0), F(0))


def test_parse_rejects_increasing():
    with pytest.raises(NotNonincreasingError):
        parse_rule("0,1")


def test_parse_rejects_constant():
    with pytest.raises(ConstantRuleError):
        parse_rule("2,2,2")


@pytest.mark.parametrize("text", ["", "1,,0", "1,a,0", "1"])
def test_parse_rejects_malformed(text):
    with pytest.raises(RuleParseError):
        parse_rule(text)


@pytest.mark.parametrize(
    "given_scores, canonical",
    [
        ((3, 2, 1, 0), (3, 2, 1, 0)),
        ((7, 5, 3, 1), (3, 2, 1, 0)),
        ((F(1), F(1, 2), F(0)), (2, 1, 0)),
    ],
)
def test_canonicalize(given_scores, canonical):
    rule = ScoringRule(tuple(F(s) for s in given_scores))
    assert canonicalize(rule).scores == tuple(F(c) for c in canonical)


def test_canonical_score_length_is_bounded():
    """Short tokens can make canonical scores too long to print; such a
    rule is refused when parsed, and when canonicalised directly.  The
    bound is exact: a canonical score of MAX_SCORE_DIGITS digits passes."""
    text = ",".join(f"1/{10**89 + i}" for i in range(60)) + ",0"
    assert all(len(t) <= MAX_TOKEN for t in text.split(","))
    with pytest.raises(RuleTooLargeError):
        parse_rule(text)
    raw = ScoringRule(tuple(F(1, 10**89 + i) for i in range(60)) + (F(0),))
    with pytest.raises(RuleTooLargeError):
        canonicalize(raw)
    longest = 10**MAX_SCORE_DIGITS - 1
    assert canonicalize(ScoringRule((F(longest), F(1), F(0)))).scores[0] == longest
    with pytest.raises(RuleTooLargeError):
        canonicalize(ScoringRule((F(longest + 1), F(1), F(0))))


def test_canonicalize_idempotent_on_samples():
    import random

    rng = random.Random(1)
    for _ in range(50):
        rule = random_rule(rng)
        canon = canonicalize(rule)
        assert canonicalize(canon) == canon
        assert canon.scores[-1] == 0


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1,0,0,0", F(3, 4)),
        ("1,1,1,0", F(1, 4)),
        ("2,2,1,1,1,0", F(5, 12)),
    ],
)
def test_cox_threshold_values(text, expected):
    assert cox_threshold(parse_rule(text)) == expected


@pytest.mark.parametrize(
    "text, category",
    [
        ("1,0,0,0", RuleCategory.BEST_REWARDING),
        ("10,10,4,3,3,0", RuleCategory.INTERMEDIATE),
        ("2,2,1,1,1,0", RuleCategory.WORST_PUNISHING),
    ],
)
def test_classify(text, category):
    assert classify(parse_rule(text)).category is category


def test_shape_twelve_candidate_rule():
    shape = shape_profile(parse_rule("4,4,4,3,3,3,2,1,1,0,0,0"))
    assert shape.weakly_concave
    assert not shape.tail_balance


def test_shape_nine_candidate_counterexample():
    shape = shape_profile(parse_rule("7,6,6,6,6,2,1,1,0"))
    assert shape.weakly_concave
    assert not shape.tail_balance


def test_shape_single_positive_negative_is_symmetric():
    shape = shape_profile(parse_rule("2,1,1,1,0"))
    assert shape.symmetric
    assert shape.weakly_concave


def test_symmetric_implies_weakly_concave_and_concave_implies_weakly():
    import random

    rng = random.Random(2)
    for _ in range(100):
        shape = shape_profile(random_rule(rng))
        if shape.symmetric:
            assert shape.weakly_concave
        if shape.concave:
            assert shape.weakly_concave


@pytest.mark.parametrize(
    "text, expected",
    [("1,1,1,0", (3, 3)), ("1,0,0,0", (1, 1)), ("3,1,1,1,1,1,1,0", (1, 7))],
)
def test_plateaus(text, expected):
    assert plateaus(parse_rule(text)) == expected


def test_subrule_window():
    rule = rule_from_ints([1, 1, 1] + [0] * 17)
    assert subrule(rule, 1, 3).scores == (F(1), F(1), F(1), F(0))
    assert subrule(parse_rule("3,2,1,0"), 2, 2).scores == (F(2), F(1), F(0))


def test_subrule_constant_marker():
    marker = subrule(parse_rule("1,1,1,0"), 1, 2)
    assert isinstance(marker, ConstantSubrule)
    assert marker.value == 1 and marker.length == 3


def test_subrule_bad_indices():
    rule = parse_rule("3,2,1,0")
    for i, j in [(0, 1), (1, 0), (2, 3), (4, 1)]:
        with pytest.raises(SubruleIndexError):
            subrule(rule, i, j)


@pytest.mark.parametrize(
    "values, expected",
    [((3, 2, 1, 0), True), ((7, 5, 3, 1), True), ((1, 0, 0, 0), False)],
)
def test_is_borda_equivalent(values, expected):
    assert is_borda_equivalent(rule_from_ints(values)) is expected


# ---------------------------------------------------------------- properties

small_scores = st.lists(st.integers(0, 30), min_size=4, max_size=9).map(
    lambda vs: sorted(vs, reverse=True)
).filter(lambda vs: vs[0] > vs[-1])


@given(small_scores, st.integers(1, 7), st.integers(-5, 5))
@settings(max_examples=150, deadline=None)
def test_affine_invariance(values, alpha, beta):
    rule = rule_from_ints(values)
    scaled = ScoringRule(tuple(F(alpha) * s + beta for s in rule.scores))
    assert cox_threshold(scaled) == cox_threshold(rule)
    assert classify(scaled) == classify(rule)
    assert shape_profile(scaled) == shape_profile(rule)
    assert is_borda_equivalent(scaled) == is_borda_equivalent(rule)
    assert canonicalize(scaled) == canonicalize(rule)


@given(small_scores)
@settings(max_examples=120, deadline=None)
def test_convex_iff_all_subrules_top_heavy(values):
    """Convexity is equivalent to every nonconstant score window having a
    threshold of at least 1/2, exhaustively over all windows."""
    rule = rule_from_ints(values)
    all_windows = True
    for i in range(1, rule.m):
        for j in range(1, rule.m - i + 1):
            window = subrule(rule, i, j)
            if isinstance(window, ConstantSubrule):
                continue
            if cox_threshold(window) < F(1, 2):
                all_windows = False
    assert shape_profile(rule).convex == all_windows


@given(small_scores)
@settings(max_examples=150, deadline=None)
def test_convex_borda_iff_endpoint_sum_is_twice_mean(values):
    rule = rule_from_ints(values)
    if shape_profile(rule).convex:
        endpoint = rule.scores[0] + rule.scores[-1] == 2 * rule.mean
        assert is_borda_equivalent(rule) == endpoint


@given(small_scores)
@settings(max_examples=150, deadline=None)
def test_weakly_concave_implies_not_best_rewarding(values):
    rule = rule_from_ints(values)
    if shape_profile(rule).weakly_concave:
        assert cox_threshold(rule) <= F(1, 2)


def test_weakly_concave_tail_balance_redundant_up_to_eight():
    import random

    rng = random.Random(3)
    for _ in range(300):
        rule = random_weakly_concave_rule(rng, rng.randint(4, 8))
        assert shape_profile(rule).tail_balance

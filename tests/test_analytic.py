"""Closed-form results: intervals, verdicts, pruning and constructions."""

import random
from fractions import Fraction as F

import pytest

from scoreline import (
    Conclusion,
    Interval,
    ScoringRule,
    Status,
    bipositional_solve,
    canonicalize,
    characterize_small_election,
    cne_interval,
    enumerate_cluster_types,
    flat_middle_analysis,
    impossibility_verdicts,
    multipositional_check,
    multipositional_construct,
    parse_rule,
    plateaus,
    prune_cluster_type,
    structural_bounds,
    verify_profile,
)
from scoreline.errors import (
    CompositionMismatchError,
    OddCandidateCountError,
    RuleFormError,
    UnsupportedCandidateCountError,
)

from util import random_rule, rule_from_ints


def test_interval_membership_and_emptiness():
    iv = Interval(F(1, 3), F(1, 2), True, False)
    assert iv.contains(F(1, 3)) and iv.contains(F(5, 12))
    assert not iv.contains(F(1, 2))
    assert Interval(F(1, 2), F(1, 2), True, False).is_empty
    assert not Interval(F(1, 2), F(1, 2)).is_empty


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1,1,1,0", Interval(F(1, 4), F(3, 4))),
        ("10,10,4,3,3,0", Interval(F(1, 2), F(1, 2))),
    ],
)
def test_cne_interval(text, expected):
    assert cne_interval(parse_rule(text)) == expected


def test_cne_interval_empty_for_best_rewarding():
    assert cne_interval(parse_rule("1,0,0,0")) is None


def test_structural_bounds():
    plurality4 = structural_bounds(parse_rule("1,0,0,0"))
    assert plurality4.min_positions == 2
    assert plurality4.forbidden_center == Interval(F(1, 4), F(3, 4), False, False)
    # threshold 4/5 forces at least three occupied positions
    rule = rule_from_ints([5, 0, 0, 0, 0])  # c = 4/5
    assert structural_bounds(rule).min_positions == 3
    veto = parse_rule("1,1,1,0")
    b = structural_bounds(veto)
    assert b.min_positions == 1 and b.forbidden_center is None
    assert b.max_gap == 2 * (1 - F(1, 4))


def reasons_of(rule):
    return {(v.conclusion, v.reason) for v in impossibility_verdicts(rule)}


def test_half_approval_has_no_equilibria_at_all():
    rule = parse_rule("1,1,0,0,0")
    assert (Conclusion.NO_NE, "leading-plateau") in reasons_of(rule)


def test_highly_best_rewarding_rules():
    assert (Conclusion.NO_NE, "highly-best-rewarding") in reasons_of(
        parse_rule("5,1,1,0,0,0")
    )
    assert (Conclusion.NO_NE, "highly-best-rewarding") in reasons_of(
        parse_rule("7,2,1,0,0,0")
    )


def test_borda_no_ncne_via_weak_concavity():
    verdicts = reasons_of(parse_rule("3,2,1,0"))
    assert (Conclusion.NO_NCNE, "weakly-concave") in verdicts
    assert (Conclusion.NO_NCNE, "convex") in verdicts
    assert (Conclusion.NO_NCNE, "symmetric") in verdicts


def test_convex_exception_is_inconclusive():
    # plurality: arithmetic head (1,0) shorter than the constant tail
    verdicts = impossibility_verdicts(parse_rule("1,0,0,0"))
    assert any(v.reason == "convex-arithmetic-head-exception" for v in verdicts)
    assert not any(v.reason == "convex" for v in verdicts)


def test_near_plurality_convex_rule_has_no_equilibria():
    assert (Conclusion.NO_NE, "convex") in reasons_of(parse_rule("1,2/5,0,0"))


def test_weakly_concave_without_tail_balance_is_restricted():
    verdicts = impossibility_verdicts(parse_rule("7,6,6,6,6,2,1,1,0"))
    assert any(v.reason == "weakly-concave-restricted" for v in verdicts)
    assert not any(v.reason == "weakly-concave" for v in verdicts)


@pytest.mark.parametrize(
    "text, parts, kept",
    [
        ("1,1,1,0", (2, 2), False),  # three-way top plateau needs bigger ends
        ("3,2,1,0", (2, 2), False),  # end pair needs 2nd and (m-1)th equal
        ("3,1,1,1,1,1,1,0", (2, 2, 2, 2), True),
        ("1,0,0,0", (1, 3), False),  # end singleton
        ("3,2,1,0", (2, 1, 1), False),
    ],
)
def test_prune_cluster_type(text, parts, kept):
    keep, reasons = prune_cluster_type(parse_rule(text), parts)
    assert keep is kept
    assert kept == (not reasons)


def test_prune_interior_singletons_even_m():
    rule = parse_rule("3,2,1,0")  # s_2 != s_3 bars all unpaired candidates
    keep, _ = prune_cluster_type(rule, (2, 1, 1))
    assert not keep


def test_prune_allows_median_singleton_odd_m():
    rule = parse_rule("10,10,4,3,3,1,0")  # s_3 != s_5, median may be unpaired
    keep, _ = prune_cluster_type(rule, (3, 1, 3))
    assert keep
    keep, _ = prune_cluster_type(rule, (4, 1, 2))
    assert not keep


def test_prune_rejects_bad_composition():
    with pytest.raises(CompositionMismatchError):
        prune_cluster_type(parse_rule("1,0,0,0"), (2, 3))


def _reference_prune(rule, parts):
    """prune_cluster_type as it was before the rule-only facts were cached:
    every fact recomputed from the scores on every call."""
    m = rule.m
    if any(p <= 0 for p in parts) or sum(parts) != m:
        raise CompositionMismatchError(f"{parts} is not a composition of {m}")
    if len(parts) == 1:
        return (True, [])
    s = rule.scores
    reasons = []
    k, _ = plateaus(rule)
    if min(parts[0], parts[-1]) <= k:
        reasons.append(f"end cluster needs at least {k + 1} candidates")
    if (parts[0] == 2 or parts[-1] == 2) and s[1] != s[m - 2]:
        reasons.append("end cluster of two needs the 2nd and (m-1)th scores equal")
    if m % 2 == 0:
        singles_barred = s[m // 2 - 1] != s[m // 2]
        median_left = None
    else:
        singles_barred = s[(m - 1) // 2 - 1] != s[(m + 3) // 2 - 1]
        median_left = (m - 1) // 2
    if singles_barred:
        left = 0
        for i, p in enumerate(parts):
            if p == 1 and 0 < i < len(parts) - 1 and left != median_left:
                reasons.append(f"interior singleton at index {i} cannot be unpaired")
                break
            left += p
    return (not reasons, reasons)


def test_prune_matches_per_call_reference():
    """Same (keep, reasons) as the per-call reference for every type of 42
    seeded rules, m = 4..10, on raw rational rules and their canonical
    forms, with calls in runs on one rule and alternating between two."""
    rng = random.Random(5)
    seen = set()
    for i in range(42):
        m = 4 + i % 7
        while True:
            vals = sorted((rng.randint(0, 3) for _ in range(m)), reverse=True)
            if vals[0] > vals[-1]:
                break
        scale, shift = F(rng.randint(1, 9), rng.randint(1, 7)), F(rng.randint(-5, 5), 3)
        raw = ScoringRule(tuple(v * scale + shift for v in vals))
        canon = canonicalize(raw)
        types = [e.ctype.parts for e in enumerate_cluster_types(m)]
        for rule in (raw, canon):
            for parts in types:
                assert prune_cluster_type(rule, parts) == _reference_prune(rule, parts)
        for parts in types:
            for rule in (raw, canon):
                keep, reasons = _reference_prune(rule, parts)
                assert prune_cluster_type(rule, parts) == (keep, reasons)
                seen.add((m % 2, "kept" if keep else "pruned"))
                seen.update((m % 2, r.split(" at ")[0].split(" needs")[0]) for r in reasons)
    kinds = {"kept", "pruned", "end cluster", "end cluster of two", "interior singleton"}
    assert seen == {(parity, kind) for parity in (0, 1) for kind in kinds}


def test_flat_middle_analysis():
    restricted = flat_middle_analysis(parse_rule("3,1,1,1,1,1,1,0"))
    assert restricted.conclusion is Conclusion.INCONCLUSIVE
    assert restricted.details["max_cluster_size"] == 2
    blocked = flat_middle_analysis(parse_rule("2,1,1,1,0"))
    assert blocked.conclusion is Conclusion.NO_NCNE
    assert flat_middle_analysis(parse_rule("3,2,1,0")) is None


def test_bipositional_examples():
    rng, witness = bipositional_solve(parse_rule("2,2,1,1,1,0"))
    assert rng == Interval(F(1, 3), F(1, 2), True, False)
    rule = parse_rule("2,2,1,1,1,0")
    assert verify_profile(rule, witness).status is Status.EQUILIBRIUM

    rng, witness = bipositional_solve(parse_rule("10,10,4,3,3,0"))
    assert rng == Interval(F(2, 7), F(1, 2), True, False)

    rng, witness = bipositional_solve(parse_rule("4,3,1,1,0,0"))
    assert rng == Interval(F(1, 3), F(1, 3))
    assert witness.positions == (F(1, 3), F(2, 3))


def test_bipositional_witnesses_at_range_ends():
    """Closed endpoints of the admissible range are themselves equilibria."""
    from scoreline import Cluster, Profile

    for text in ["2,2,1,1,1,0", "10,10,4,3,3,0", "4,3,1,1,0,0"]:
        rule = parse_rule(text)
        rng, _ = bipositional_solve(rule)
        candidates = [rng.midpoint]
        if rng.lower_closed:
            candidates.append(rng.lower)
        if rng.upper_closed:
            candidates.append(rng.upper)
        for x1 in candidates:
            prof = Profile((Cluster(x1, 3), Cluster(1 - x1, 3)))
            assert verify_profile(rule, prof).status is Status.EQUILIBRIUM


def test_bipositional_none_when_condition_fails():
    assert bipositional_solve(parse_rule("1,1,1,0,0,0")) is None
    # plurality with six candidates: range is empty
    assert bipositional_solve(parse_rule("1,0,0,0,0,0")) is None


def test_bipositional_odd_m_rejected():
    with pytest.raises(OddCandidateCountError):
        bipositional_solve(parse_rule("1,0,0"))


def test_multipositional_three_approval_twenty():
    rule = rule_from_ints([1] * 3 + [0] * 17)
    for q, r in [(5, 4), (4, 5)]:
        prof = multipositional_construct(rule, q, r)
        assert prof is not None and prof.q == q
        assert multipositional_check(rule, prof)
        assert verify_profile(rule, prof).status is Status.EQUILIBRIUM


def test_multipositional_plurality_pairs():
    rule = parse_rule("1,0,0,0,0,0")
    prof = multipositional_construct(rule, 3, 2)
    assert prof.positions == (F(1, 6), F(1, 2), F(5, 6))
    assert verify_profile(rule, prof).status is Status.EQUILIBRIUM
    # three per position would need a worst-punishing head subrule
    assert multipositional_construct(rule, 2, 3) is None


def test_multipositional_form_mismatch():
    with pytest.raises(RuleFormError):
        multipositional_construct(parse_rule("3,2,1,0"), 2, 2)


@pytest.mark.parametrize(
    "q, r, message",
    [
        (-2, -2, r"at least 2 positions, got q=-2"),
        (1, 4, r"at least 2 positions, got q=1"),
        (4, 0, r"at least 1 candidate per position, got r=0"),
        (3, 1, r"q\*r == m, got 3\*1 != 4"),
    ],
)
def test_multipositional_split_errors_name_the_fault(q, r, message):
    with pytest.raises(CompositionMismatchError, match=message):
        multipositional_construct(parse_rule("1,0,0,0"), q, r)


def test_multipositional_check_rejects_lopsided_profile():
    from scoreline import make_profile

    rule = parse_rule("1,0,0,0")
    prof = make_profile([(F(1, 5), 2), (F(3, 4), 2)], rule)
    assert not multipositional_check(rule, prof)


def test_multipositional_check_requires_uniform_counts():
    from scoreline import make_profile

    rule = parse_rule("1,0,0,0")
    prof = make_profile([(F(1, 4), 1), (F(3, 4), 3)], rule)
    with pytest.raises(CompositionMismatchError):
        multipositional_check(rule, prof)


def test_characterize_four_candidates():
    verdict = characterize_small_election(parse_rule("1,0,0,0"))
    assert verdict.conclusion is Conclusion.NCNE_CONSTRUCTED
    assert verdict.witness.positions == (F(1, 4), F(3, 4))
    rule = parse_rule("1,0,0,0")
    assert verify_profile(rule, verdict.witness).status is Status.EQUILIBRIUM
    assert (
        characterize_small_election(parse_rule("3,2,1,0")).conclusion
        is Conclusion.NO_NCNE
    )


def test_characterize_five_candidates():
    rule = parse_rule("1,0,0,0,0")
    verdict = characterize_small_election(rule)
    assert verdict.witness.positions == (F(1, 6), F(1, 2), F(5, 6))
    assert verdict.witness.counts == (2, 1, 2)
    assert verify_profile(rule, verdict.witness).status is Status.EQUILIBRIUM


def test_characterize_six_candidates():
    v = characterize_small_election(parse_rule("2,2,1,1,1,0"))
    assert v.conclusion is Conclusion.NCNE_CONSTRUCTED
    assert v.witness.counts == (3, 3)
    assert (
        characterize_small_election(parse_rule("5,1,1,0,0,0")).conclusion
        is Conclusion.NO_NCNE
    )
    v = characterize_small_election(parse_rule("1,0,0,0,0,0"))
    assert v.conclusion is Conclusion.INCONCLUSIVE
    assert v.details["types"] == [(2, 2, 2), (2, 1, 1, 2)]


def test_characterize_unsupported_m():
    with pytest.raises(UnsupportedCandidateCountError):
        characterize_small_election(parse_rule("1,0,0,0,0,0,0"))


def test_dichotomy_four_candidates():
    """With four candidates a rule never has both kinds of equilibria."""
    rng = random.Random(14)
    for _ in range(200):
        rule = random_rule(rng, 4)
        if cne_interval(rule) is not None:
            verdict = characterize_small_election(rule)
            assert verdict.conclusion is Conclusion.NO_NCNE

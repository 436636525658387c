"""The independent oracle: certification, refutation and the grid net."""

import ast
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from scoreline import (
    AtCluster,
    Cluster,
    LeftLimit,
    Profile,
    RightLimit,
    Status,
    candidate_score,
    deviation_score,
    grid_cross_check,
    make_profile,
    parse_rule,
    verify_profile,
)
from scoreline.errors import CountMismatchError

from util import random_profile, random_rule

R12 = parse_rule("4,4,4,3,3,3,2,1,1,0,0,0")
P12 = make_profile([(F(13, 28), 8), (F(41, 84), 4)], R12)


def entry_for(report, mover, target):
    return next(
        e for e in report.ledger if e.mover == mover and e.target == target
    )


def test_asymmetric_two_cluster_equilibrium():
    report = verify_profile(R12, P12)
    assert report.status is Status.EQUILIBRIUM
    assert report.cluster_scores == (F(25, 12), F(25, 12))
    assert entry_for(report, 0, LeftLimit(0)).score == F(157, 84)
    assert entry_for(report, 0, AtCluster(1)).score == F(218, 105)
    assert entry_for(report, 1, AtCluster(0)).score == F(131, 63)
    assert entry_for(report, 0, RightLimit(0)).score == F(25, 12)
    assert not report.violations


def test_ledger_covers_every_cluster_and_target():
    report = verify_profile(R12, P12)
    keys = {(e.mover, e.target) for e in report.ledger}
    for mover in (0, 1):
        for k in (0, 1):
            assert (mover, LeftLimit(k)) in keys
            assert (mover, RightLimit(k)) in keys
            if k != mover:
                assert (mover, AtCluster(k)) in keys
    assert len(keys) == len(report.ledger)


def test_seven_candidate_asymmetric_counts():
    rule = parse_rule("10,10,4,3,3,1,0")
    prof = make_profile([(F(1, 3), 4), (F(2, 3), 3)], rule)
    assert verify_profile(rule, prof).status is Status.EQUILIBRIUM


def test_plurality_spread_pair_is_not_equilibrium():
    rule = parse_rule("1,0,0,0")
    prof = make_profile([(F(3, 10), 2), (F(7, 10), 2)], rule)
    report = verify_profile(rule, prof)
    assert report.status is Status.NOT_EQUILIBRIUM
    entry = entry_for(report, 0, LeftLimit(0))
    assert entry.score == F(3, 10) and entry.slack == F(1, 4) - F(3, 10)


def test_single_cluster_profiles():
    rule = parse_rule("1,1,1,0")  # threshold 1/4: centre cluster is stable
    prof = make_profile([(F(1, 2), 4)], rule)
    assert verify_profile(rule, prof).status is Status.EQUILIBRIUM
    off_centre = make_profile([(F(1, 10), 4)], rule)
    assert verify_profile(rule, off_centre).status is Status.NOT_EQUILIBRIUM
    plurality = parse_rule("1,0,0,0")
    centre = make_profile([(F(1, 2), 4)], plurality)
    assert verify_profile(plurality, centre).status is Status.NOT_EQUILIBRIUM


def test_count_mismatch():
    rule = parse_rule("1,0,0,0")
    prof = make_profile([(F(1, 2), 4)], rule)
    with pytest.raises(CountMismatchError):
        verify_profile(parse_rule("1,0,0"), prof)


def test_grid_cross_check_statuses():
    rule = parse_rule("1,0,0,0")
    bad = make_profile([(F(3, 10), 2), (F(7, 10), 2)], rule)
    assert grid_cross_check(rule, bad, 10).status is Status.NOT_EQUILIBRIUM
    assert grid_cross_check(R12, P12, 100).status is Status.EQUILIBRIUM
    centre = make_profile([(F(1, 2), 4)], rule)
    report = grid_cross_check(rule, centre, 4)
    assert report.status is Status.NOT_EQUILIBRIUM
    # the probe at 1/4 already earns 3/8 against the cluster's 1/4
    from scoreline import FreePoint

    entry = entry_for(report, 0, FreePoint(F(1, 4)))
    assert entry.score == F(3, 8)


def test_grid_never_contradicts_dominating_set():
    rng = random.Random(31)
    for _ in range(60):
        rule = random_rule(rng)
        prof = random_profile(rng, rule.m)
        base = verify_profile(rule, prof)
        grid = grid_cross_check(rule, prof, 57)
        assert grid.status == base.status


def test_grid_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        grid_cross_check(R12, P12, 1)


def test_oracle_agrees_with_region_scorer():
    """Two independent scoring implementations (full per-cell sort here,
    incremental region walk in profiles) must agree exactly."""
    rng = random.Random(32)
    for _ in range(150):
        rule = random_rule(rng)
        prof = random_profile(rng, rule.m)
        report = verify_profile(rule, prof)
        for k in range(prof.q):
            assert report.cluster_scores[k] == candidate_score(prof, rule, k)


def test_pair_cluster_limit_entries_average_to_score():
    rng = random.Random(33)
    seen = 0
    for _ in range(200):
        rule = random_rule(rng)
        prof = random_profile(rng, rule.m)
        if prof.positions[0] == 0 or prof.positions[-1] == 1:
            continue
        report = verify_profile(rule, prof)
        for k, c in enumerate(prof.clusters):
            if c.count != 2:
                continue
            left = entry_for(report, k, LeftLimit(k))
            right = entry_for(report, k, RightLimit(k))
            assert left.score + right.score == 2 * report.cluster_scores[k]
            seen += 1
    assert seen > 30


def test_conservation_audit():
    rng = random.Random(34)
    for _ in range(100):
        rule = random_rule(rng)
        prof = random_profile(rng, rule.m)
        report = verify_profile(rule, prof)
        total = sum(
            s * c.count for s, c in zip(report.cluster_scores, prof.clusters)
        )
        assert total == sum(rule.scores)


# Pairwise coprime denominators, so the oracle's common scale is a product.
MIXED_POSITIONS = (
    F(0), F(1, 7), F(3, 11), F(1, 3), F(5, 13), F(9, 17), F(97, 101), F(1)
)


def mixed_denominator_profile(rng, m):
    q = rng.randint(1, min(5, m))
    cuts = sorted(rng.sample(range(1, m), q - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [m])]
    positions = sorted(rng.sample(MIXED_POSITIONS, q))
    return Profile(tuple(Cluster(p, c) for p, c in zip(positions, counts)))


def test_ledger_matches_region_walk_on_mixed_denominators():
    """Every ledger score equals the region walk's, on positions whose
    denominators are coprime, with clusters at 0 and 1 and q = 1 included."""
    rng = random.Random(35)
    seen_q1 = seen_ends = 0
    for i in range(80):
        rule = random_rule(rng)
        prof = mixed_denominator_profile(rng, rule.m)
        seen_q1 += prof.q == 1
        seen_ends += prof.positions[0] == 0 or prof.positions[-1] == 1
        report = verify_profile(rule, prof)
        for k in range(prof.q):
            assert report.cluster_scores[k] == candidate_score(prof, rule, k)
        for e in report.ledger:
            assert e.score == deviation_score(prof, rule, e.mover, e.target)
        if i % 16 == 0:
            assert grid_cross_check(rule, prof, 37).status == report.status
    assert seen_q1 >= 5 and seen_ends >= 20


def test_oracle_imports_only_data_types_from_the_scorers():
    """The oracle shares the profile data types, the rule and the errors
    with the rest of the package, and nothing else: no scorer from
    profiles, nothing from search or lpcore, nothing via the package root."""
    import scoreline.verify

    tree = ast.parse(Path(scoreline.verify.__file__).read_text())
    data_types = {
        "Profile", "AtCluster", "LeftLimit", "RightLimit", "FreePoint",
        "DeviationTarget",  # the union of the four target classes
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("scoreline") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if not (node.level or name.startswith("scoreline")):
                continue  # the standard library
            module = name.removeprefix("scoreline").strip(".")
            assert module in {"profiles", "rulekit", "errors"}, module or "root"
            if module == "profiles":
                names = {a.name for a in node.names}
                assert names <= data_types, names - data_types

"""Cluster-type enumeration, the deviation LP, and the full search."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from scoreline import (
    ClusterType,
    LpStatus,
    ScoringRule,
    SearchOptions,
    Status,
    build_deviation_lp,
    canonicalize,
    cne_interval,
    cox_threshold,
    enumerate_cluster_types,
    find_ncne,
    parse_rule,
    prune_cluster_type,
    search,
    solve,
    verify_profile,
)
from scoreline.errors import (
    CompositionMismatchError,
    InternalVerificationError,
    TooManyCandidatesError,
)
from scoreline.lpcore import certifies, satisfies

from util import random_rule, reference_deviation_rows


def test_enumerate_counts():
    assert len(list(enumerate_cluster_types(4))) == 8
    assert len(list(enumerate_cluster_types(12))) == 2048


def test_enumerate_streams():
    """Types are yielded one at a time, never built as a list first."""
    stream = enumerate_cluster_types(30)
    assert iter(stream) is stream
    assert next(stream).ctype.parts == (30,)
    assert next(stream).ctype.parts == (1, 29)
    with pytest.raises(CompositionMismatchError):
        enumerate_cluster_types(1)


def test_enumerate_order_and_contents():
    parts = [e.ctype.parts for e in enumerate_cluster_types(4)]
    assert parts == [
        (4,),
        (1, 3),
        (2, 2),
        (3, 1),
        (1, 1, 2),
        (1, 2, 1),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumerate_with_pruner_tags_types():
    rule = parse_rule("1,1,1,0,0,0")  # top plateau of three
    entries = list(enumerate_cluster_types(6, lambda p: prune_cluster_type(rule, p)))
    for e in entries:
        if min(e.ctype.parts[0], e.ctype.parts[-1]) <= 3:
            assert e.pruned and e.prune_reasons
        # every type stays in the list
    assert len(entries) == 32


def test_lp_plurality_pair_type():
    lp = build_deviation_lp(parse_rule("1,0,0,0"), ClusterType((2, 2)))
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == F(1, 4)
    assert out.point[:2] == (F(1, 4), F(3, 4))


def test_lp_borda_pair_type_has_no_gap():
    lp = build_deviation_lp(parse_rule("3,2,1,0"), ClusterType((2, 2)))
    out = solve(lp)
    assert out.status is LpStatus.INFEASIBLE or out.value == 0
    assert certifies(lp, out)


def test_tampered_certificate_stops_the_search(monkeypatch, capsys):
    """A type without an equilibrium is reported only with a certificate
    that checks; a zeroed one exits 3 and names the type."""
    from scoreline import search
    from scoreline.cli import main

    def tampered(lp):
        out = solve(lp)
        return replace(out, certificate=tuple(F(0) for _ in out.certificate))

    monkeypatch.setattr(search, "solve", tampered)
    with pytest.raises(InternalVerificationError, match=r"type \(1,3\)"):
        find_ncne(parse_rule("3,2,1,0"), SearchOptions(prune=False))
    assert main(["find-ncne", "--no-prune", "--rule", "3,2,1,0"]) == 3
    assert "type (1,3)" in capsys.readouterr().err


def test_oracle_refusal_names_witness_and_violation(monkeypatch, capsys):
    """A witness the oracle refutes exits 3 naming the type, the witness
    profile and each violating deviation with its slack."""
    from scoreline import AtCluster, verify
    from scoreline.cli import main

    def refuting(rule, profile):
        entry = verify.LedgerEntry(0, AtCluster(1), F(1, 3), F(-1, 12))
        return verify.EquilibriumReport(
            verify.Status.NOT_EQUILIBRIUM, (F(1, 4), F(1, 4)), (entry,)
        )

    monkeypatch.setattr(verify, "verify_profile", refuting)
    assert main(["find-ncne", "--rule", "1,0,0,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "type (2,2)" in captured.err
    assert "1/4*2;3/4*2" in captured.err
    assert "mover 0 to AtCluster(cluster=1) slack -1/12" in captured.err


def test_lp_single_cluster_reproduces_existence_interval():
    rng = random.Random(21)
    for _ in range(60):
        rule = random_rule(rng)
        out = solve(build_deviation_lp(rule, ClusterType((rule.m,))))
        interval = cne_interval(rule)
        if interval is None:
            assert out.status is LpStatus.INFEASIBLE
        else:
            assert out.status is LpStatus.OPTIMAL
            assert interval.contains(out.point[0])


def test_lp_composition_mismatch():
    with pytest.raises(CompositionMismatchError):
        build_deviation_lp(parse_rule("1,0,0,0"), ClusterType((2, 2, 2)))


def test_twelve_candidate_asymmetric_type_is_reachable():
    """The (8,4) LP is feasible with positive gap and the known witness
    satisfies every constraint exactly."""
    rule = parse_rule("4,4,4,3,3,3,2,1,1,0,0,0")
    lp = build_deviation_lp(rule, ClusterType((8, 4)))
    x1, x2 = F(13, 28), F(41, 84)
    delta = min(x1, x2 - x1, 1 - x2)
    assert satisfies(lp, (x1, x2, delta))
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL and out.value > 0


def test_find_ncne_plurality_four():
    result = find_ncne(parse_rule("1,0,0,0"))
    assert [t.parts for t in result.ncne_types] == [(2, 2)]
    witness = result.witnesses()[0]
    assert witness.positions == (F(1, 4), F(3, 4))
    assert result.cne is None


def test_find_ncne_skips_single_cluster_by_default():
    result = find_ncne(parse_rule("1,1,1,0"))
    assert all(o.ctype.q >= 2 for o in result.outcomes)
    with_cne = find_ncne(parse_rule("1,1,1,0"), SearchOptions(include_single_cluster=True))
    solo = next(o for o in with_cne.outcomes if o.ctype.q == 1)
    assert solo.lp_outcome.status is LpStatus.OPTIMAL
    assert with_cne.ncne_types == ()


def test_find_ncne_seven_candidates_mirror_pair():
    result = find_ncne(parse_rule("10,10,4,3,3,1,0"))
    found = {t.parts for t in result.ncne_types}
    assert (4, 3) in found and (3, 4) in found


def test_find_ncne_near_plurality_has_none():
    # a slight second-place reward already destroys the plurality equilibria
    assert find_ncne(parse_rule("1,2/5,0,0")).ncne_types == ()


def test_pruning_soundness_small_rules():
    rng = random.Random(22)
    for _ in range(12):
        rule = random_rule(rng, rng.randint(4, 6))
        with_prune = find_ncne(rule)
        without = find_ncne(rule, SearchOptions(prune=False))
        assert with_prune.ncne_types == without.ncne_types


def test_affine_invariance_of_search():
    rng = random.Random(23)
    for _ in range(8):
        rule = random_rule(rng, rng.randint(4, 6))
        scaled = ScoringRule(tuple(3 * s + 7 for s in rule.scores))
        a = find_ncne(rule)
        b = find_ncne(scaled)
        assert a.ncne_types == b.ncne_types
        assert [w.positions for w in a.witnesses()] == [
            w.positions for w in b.witnesses()
        ]


def test_mirror_closure_of_witnesses():
    rng = random.Random(24)
    checked = 0
    for _ in range(30):
        rule = random_rule(rng, rng.randint(4, 6))
        result = find_ncne(rule)
        for outcome in result.outcomes:
            if not outcome.is_equilibrium:
                continue
            mirrored = outcome.witness.mirrored()
            lp = build_deviation_lp(result.rule, outcome.ctype.mirrored())
            gap = min(
                [mirrored.positions[0], 1 - mirrored.positions[-1]]
                + [
                    b - a
                    for a, b in zip(mirrored.positions, mirrored.positions[1:])
                ]
            )
            assert satisfies(lp, mirrored.positions + (gap,))
            checked += 1
    assert checked > 0


def test_no_five_candidate_two_three_split():
    """No 5-candidate rule has an equilibrium of type (2,3) or (3,2), with
    or without pruning."""
    rng = random.Random(25)
    for _ in range(40):
        rule = random_rule(rng, 5)
        for opts in (SearchOptions(), SearchOptions(prune=False)):
            found = {t.parts for t in find_ncne(rule, opts).ncne_types}
            assert (2, 3) not in found and (3, 2) not in found


def test_all_witnesses_pass_oracle():
    rng = random.Random(26)
    for _ in range(15):
        rule = random_rule(rng, rng.randint(4, 6))
        result = find_ncne(rule)
        for witness in result.witnesses():
            assert verify_profile(result.rule, witness).status is Status.EQUILIBRIUM
            assert all(0 < p < 1 for p in witness.positions)


def test_search_refuses_m_above_limit(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(search, "enumerate_cluster_types", no_enumeration)
    search.require_searchable(search.MAX_M)
    rule = parse_rule(",".join(["1"] + ["0"] * search.MAX_M))
    with pytest.raises(TooManyCandidatesError, match=f"limit of {search.MAX_M}"):
        find_ncne(rule)


def test_twelve_candidate_search_rediscovers_asymmetric_pair():
    rule = parse_rule("4,4,4,3,3,3,2,1,1,0,0,0")
    result = find_ncne(rule)
    assert {t.parts for t in result.ncne_types} == {(8, 4), (4, 8)}
    by_type = {o.ctype.parts: o for o in result.outcomes if o.is_equilibrium}
    assert by_type[(8, 4)].witness.positions == (F(13, 28), F(41, 84))
    assert by_type[(8, 4)].gap == F(1, 42)


def test_deviation_rows_match_oracle_ledger():
    """Every deviation row of the LP, evaluated at strictly ordered interior
    positions, equals D times minus the slack of some entry in the
    independent oracle's ledger, D = 2 lcm(1..m) being the rows' common
    denominator for an integer rule, and the rows all hold exactly at an
    equilibrium."""
    from math import lcm

    from scoreline import Cluster, Profile

    rng = random.Random(27)
    equilibria = 0
    for _ in range(300):
        rule = random_rule(rng)
        m = rule.m
        q = rng.randint(1, min(4, m))
        cuts = sorted(rng.sample(range(1, m), q - 1))
        counts = [b - a for a, b in zip([0] + cuts, cuts + [m])]
        numerators = sorted(rng.sample(range(1, 48), q))
        positions = tuple(F(n, 48) for n in numerators)
        profile = Profile(
            tuple(Cluster(p, n) for p, n in zip(positions, counts))
        )
        lp = build_deviation_lp(rule, ClusterType(tuple(counts)))
        values = [
            sum(c * x for c, x in zip(row, positions)) - row[-1]
            for row in lp.constraints[q + 2 :]
        ]
        report = verify_profile(rule, profile)
        scale = 2 * lcm(*range(1, m + 1))
        deficits = {-e.slack * scale for e in report.ledger}
        assert all(v in deficits for v in values)
        holds = all(v <= 0 for v in values)
        assert holds == (report.status is Status.EQUILIBRIUM)
        equilibria += holds
    assert equilibria > 0


def _row_identity_rules():
    """About 40 seeded rules, m = 3..9, each as given and canonical.  Every
    third one has rational scores; the integer ones are shifted and scaled
    at random, so the raw and canonical objects differ."""
    rng = random.Random(28)
    rules = [parse_rule("7/2,1,1/3,0")]
    for i in range(39):
        m = 3 + i % 7
        if i % 3 == 0:
            while True:
                scores = sorted(
                    (F(rng.randint(0, 30), rng.choice([1, 2, 3, 5, 7])) for _ in range(m)),
                    reverse=True,
                )
                if scores[0] > scores[-1]:
                    break
            rules.append(ScoringRule(tuple(scores)))
        else:
            base = random_rule(rng, m)
            factor, shift = rng.randint(1, 3), rng.randint(0, 2)
            rules.append(ScoringRule(tuple(factor * s + shift for s in base.scores)))
    return [(rule, canonicalize(rule)) for rule in rules]


def test_builder_rows_match_fraction_reference():
    """build_deviation_lp writes, in order, the rows that the Fraction
    region walk with per-term conversion wrote, for every q <= 5 type.
    Rules are visited A, B, A (each case's raw rule again after the next
    case), so rows built from another rule's memoised forms would show."""
    cases = _row_identity_rules()
    assert any(raw.scores != canon.scores for raw, canon in cases)
    assert any(s.denominator > 1 for raw, _ in cases for s in raw.scores)
    expected = {}
    visits = []
    for i, (raw, canon) in enumerate(cases):
        visits += [raw, canon] + ([cases[i - 1][0]] if i else [])
    for rule in visits:
        types = [
            e.ctype for e in enumerate_cluster_types(rule.m) if e.ctype.q <= 5
        ]
        if id(rule) not in expected:
            expected[id(rule)] = [reference_deviation_rows(rule, t.parts) for t in types]
        for ctype, rows in zip(types, expected[id(rule)]):
            assert build_deviation_lp(rule, ctype).constraints == rows, (rule, ctype)


def test_score_forms_are_reused_for_an_equal_rule_object():
    """Each search canonicalises a new rule object (as every ``cli.main``
    call does), so repeated searches of one rule find the forms memoised
    for it only through equal scores."""
    scores = canonicalize(parse_rule("3,1,1,1,1,0")).scores
    build_deviation_lp(ScoringRule(scores), ClusterType((2, 2, 2)))
    memo = search._forms
    lp = build_deviation_lp(ScoringRule(tuple(F(s) for s in scores)), ClusterType((2, 2, 2)))
    assert search._forms is memo
    assert lp.constraints == reference_deviation_rows(ScoringRule(scores), (2, 2, 2))
    build_deviation_lp(parse_rule("3,2,1,0"), ClusterType((2, 2)))
    assert search._forms is not memo


def test_six_candidate_characterization_agrees_with_search():
    from scoreline import characterize_small_election, Conclusion

    rng = random.Random(28)
    for _ in range(25):
        rule = random_rule(rng, 6)
        verdict = characterize_small_election(rule)
        result = find_ncne(rule)
        found = {t.parts for t in result.ncne_types}
        if verdict.conclusion is Conclusion.NO_NCNE:
            assert found == set()
        elif verdict.conclusion is Conclusion.NCNE_CONSTRUCTED:
            assert (3, 3) in found
        else:
            assert found <= {(2, 2, 2), (2, 1, 1, 2)}

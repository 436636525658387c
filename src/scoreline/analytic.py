"""Closed-form equilibrium results: existence intervals, impossibility
verdicts, cluster-type pruning, and explicit constructions.

Everything here is decided by exact rational comparison.  Witnesses carry
enough structure for the independent oracle in :mod:`scoreline.verify` to
certify them; no operation in this module trusts its own output.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    CompositionMismatchError,
    OddCandidateCountError,
    RuleFormError,
    UnsupportedCandidateCountError,
)
from .profiles import Cluster, Profile, make_profile
from .rulekit import (
    HALF,
    ScoringRule,
    canonicalize,
    cox_threshold,
    is_borda_equivalent,
    plateaus,
    shape_profile,
    subrule,
)

__all__ = [
    "Interval",
    "Conclusion",
    "Verdict",
    "StructuralBounds",
    "cne_interval",
    "structural_bounds",
    "impossibility_verdicts",
    "prune_cluster_type",
    "flat_middle_analysis",
    "bipositional_solve",
    "multipositional_check",
    "multipositional_construct",
    "characterize_small_election",
]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Interval:
    """A rational interval with closed/open flags at each end."""

    lower: Fraction
    upper: Fraction
    lower_closed: bool = True
    upper_closed: bool = True

    @property
    def is_empty(self) -> bool:
        if self.lower > self.upper:
            return True
        if self.lower == self.upper:
            return not (self.lower_closed and self.upper_closed)
        return False

    def contains(self, x: Fraction) -> bool:
        if self.is_empty:
            return False
        lo_ok = x >= self.lower if self.lower_closed else x > self.lower
        hi_ok = x <= self.upper if self.upper_closed else x < self.upper
        return lo_ok and hi_ok

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    def __str__(self) -> str:
        lo = "[" if self.lower_closed else "("
        hi = "]" if self.upper_closed else ")"
        return f"{lo}{self.lower}, {self.upper}{hi}"


class Conclusion(enum.Enum):
    NO_NCNE = "no-ncne"
    NO_NE = "no-ne"
    NCNE_CONSTRUCTED = "ncne-constructed"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one closed-form result applied to one rule.

    ``NO_NE`` subsumes ``NO_NCNE`` (the single-cluster interval is empty as
    well).  A constructed witness always passes the independent oracle;
    this is asserted by the test suite, not assumed.
    """

    conclusion: Conclusion
    reason: str
    witness: Profile | None = None
    interval: Interval | None = None
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StructuralBounds:
    """Necessary geometry of any nonconvergent equilibrium.

    ``max_gap`` bounds the distance between neighbouring occupied positions
    (and from the boundary to the nearest one), ``min_positions`` is the
    implied lower bound on the number of occupied positions, and
    ``forbidden_center`` is the open central interval that the extreme
    positions must avoid when the threshold exceeds 1/2.
    """

    max_gap: Fraction
    min_positions: int
    forbidden_center: Interval | None


def cne_interval(rule: ScoringRule) -> Interval | None:
    """Positions where the all-in-one-cluster profile is an equilibrium.

    The interval is [c, 1-c] with c the Cox threshold; it is empty exactly
    when c > 1/2, in which case None is returned.
    """
    c = cox_threshold(rule)
    if c > HALF:
        return None
    return Interval(c, 1 - c)


def structural_bounds(rule: ScoringRule) -> StructuralBounds:
    c = cox_threshold(rule)
    gap = 2 * (1 - c)
    min_positions = math.ceil(1 / gap)
    forbidden = Interval(1 - c, c, False, False) if c > HALF else None
    return StructuralBounds(gap, min_positions, forbidden)


def _no_ne_or_no_ncne(rule: ScoringRule, reason: str, **details) -> Verdict:
    """NO_NCNE upgrades to NO_NE when the rule has no single-cluster NE."""
    if cox_threshold(rule) > HALF:
        return Verdict(Conclusion.NO_NE, reason, details=details)
    return Verdict(Conclusion.NO_NCNE, reason, details=details)


def impossibility_verdicts(rule: ScoringRule) -> list[Verdict]:
    """Apply every nonexistence theorem whose hypothesis the rule meets.

    Emitted reasons:

    * ``leading-plateau``: at least half the scores are tied at the top, so
      both extreme clusters would need more than half the candidates.
    * ``convex``: convex scores admit no equilibria at all unless the
      nonconstant head of the vector is an arithmetic progression shorter
      than the constant tail (that exception is reported as inconclusive
      and left to the search).
    * ``weakly-concave-restricted``: weak concavity alone excludes
      nonconvergent equilibria with both end clusters holding at most half
      the candidates.
    * ``weakly-concave``: with the tail-balance inequality as well, no
      nonconvergent equilibria exist at all.
    * ``symmetric``: symmetric rules never have nonconvergent equilibria.
    * ``flat-middle``: rules (a, b, ..., b, 0) with a <= 2b have none.
    * ``highly-best-rewarding``: a top score so dominant that the required
      number of occupied positions cannot be staffed.
    """
    verdicts: list[Verdict] = []
    m = rule.m
    shape = shape_profile(rule)
    k, n = plateaus(rule)

    if k >= m // 2:
        verdicts.append(_no_ne_or_no_ncne(rule, "leading-plateau", leading_run=k))

    if shape.convex:
        # The head s_1..s_{n+1} always drops, so it is a rule of its own.
        if n + 1 <= m // 2 and is_borda_equivalent(subrule(rule, 1, n)):
            verdicts.append(
                Verdict(
                    Conclusion.INCONCLUSIVE,
                    "convex-arithmetic-head-exception",
                    details={"head_length": n + 1},
                )
            )
        else:
            verdicts.append(_no_ne_or_no_ncne(rule, "convex"))

    if shape.weakly_concave:
        if shape.tail_balance:
            verdicts.append(Verdict(Conclusion.NO_NCNE, "weakly-concave"))
        else:
            verdicts.append(
                Verdict(
                    Conclusion.INCONCLUSIVE,
                    "weakly-concave-restricted",
                    details={"max_end_cluster_exceeds": m // 2},
                )
            )

    if shape.symmetric:
        verdicts.append(Verdict(Conclusion.NO_NCNE, "symmetric"))

    flat = flat_middle_analysis(rule)
    if flat is not None and flat.conclusion is Conclusion.NO_NCNE:
        verdicts.append(flat)

    c = cox_threshold(rule)
    if m == 2:
        highly = False  # the even-m threshold 1 - 1/(m - 2) is undefined
    else:
        threshold = 1 - Fraction(1, m - 2 if m % 2 == 0 else m - 1)
        highly = c > threshold and _middle_scores_differ(rule)
    if highly:
        verdicts.append(_no_ne_or_no_ncne(rule, "highly-best-rewarding"))

    return verdicts


@dataclass(frozen=True)
class _PruneFacts:
    """The rule-only inputs of :func:`prune_cluster_type`."""

    min_end: int  # an end cluster needs more candidates than the leading plateau
    end_pair_barred: bool  # 2nd and (m-1)th scores differ
    singles_barred: bool
    median_left: int | None  # candidates left of the admissible singleton (odd m)


def _middle_scores_differ(rule: ScoringRule) -> bool:
    """s_{m/2} != s_{m/2+1} for even m, s_{(m-1)/2} != s_{(m+3)/2} for odd m.

    An unpaired candidate's payoff slope must vanish on both sides, which
    pins these scores; when they differ, the only admissible singleton is
    the median candidate (odd m).
    """
    s = rule.scores
    m = rule.m
    if m % 2 == 0:
        return s[m // 2 - 1] != s[m // 2]
    return s[(m - 1) // 2 - 1] != s[(m + 3) // 2 - 1]


def _prune_facts(rule: ScoringRule) -> _PruneFacts:
    s = rule.scores
    m = rule.m
    k, _ = plateaus(rule)
    median_left = (m - 1) // 2 if m % 2 else None
    return _PruneFacts(k + 1, s[1] != s[m - 2], _middle_scores_differ(rule), median_left)


# prune_cluster_type runs once per cluster type, 2^(m-1) times for one rule
# in a search, so the facts of the last rule seen are kept.  The key is the
# rule object itself: hashing a rule would hash every score on every call.
_last_facts: tuple[ScoringRule, _PruneFacts] | None = None


def prune_cluster_type(
    rule: ScoringRule, parts: tuple[int, ...]
) -> tuple[bool, list[str]]:
    """Per-type necessary conditions for a nonconvergent equilibrium.

    Returns (keep, reasons); reasons list every condition that fails.
    These are local tests only (end-cluster sizes and unpaired candidates);
    global nonexistence theorems are deliberately not consulted, so the
    search remains an independent check on them.
    """
    global _last_facts
    m = rule.m
    if not parts or min(parts) <= 0 or sum(parts) != m:
        raise CompositionMismatchError(f"{parts} is not a composition of {m}")
    q = len(parts)
    if q == 1:
        return (True, [])  # single cluster is not nonconvergent; nothing applies
    cached = _last_facts
    if cached is not None and cached[0] is rule:
        facts = cached[1]
    else:
        facts = _prune_facts(rule)
        _last_facts = (rule, facts)
    reasons: list[str] = []
    first, last = parts[0], parts[-1]
    if first < facts.min_end or last < facts.min_end:
        reasons.append(f"end cluster needs at least {facts.min_end} candidates")
    if facts.end_pair_barred and (first == 2 or last == 2):
        reasons.append("end cluster of two needs the 2nd and (m-1)th scores equal")
    if facts.singles_barred and 1 in parts[1:-1]:
        left = first
        for i in range(1, q - 1):
            if parts[i] == 1 and left != facts.median_left:
                reasons.append(f"interior singleton at index {i} cannot be unpaired")
                break
            left += parts[i]
    return (not reasons, reasons)


def flat_middle_analysis(rule: ScoringRule) -> Verdict | None:
    """Analysis for rules whose canonical form is (a, b, ..., b, 0).

    Returns None when the rule is not of this shape.  With a <= 2b there
    are no nonconvergent equilibria; with a > 2b any nonconvergent
    equilibrium puts at most two candidates at each position, which the
    search uses as a pruning restriction.
    """
    canon = canonicalize(rule)
    s = canon.scores
    if canon.m < 3:
        return None
    middle = s[1:-1]
    if any(v != middle[0] for v in middle):
        return None
    a, b = s[0], middle[0]
    if a <= 2 * b:
        return Verdict(Conclusion.NO_NCNE, "flat-middle", details={"a": a, "b": b})
    return Verdict(
        Conclusion.INCONCLUSIVE,
        "flat-middle-restriction",
        details={"a": a, "b": b, "max_cluster_size": 2},
    )


def bipositional_solve(
    rule: ScoringRule,
) -> tuple[Interval, Profile] | None:
    """Symmetric two-cluster equilibria for even m: half the candidates at
    x and half at 1-x.

    Such a profile is an equilibrium iff (s_{m/2} + s_{m/2+1})/2 < mean(s)
    and x lies in the closed range

        (s_1 + s_{m/2} - 2 mean) / (2 (s_1 - s_{m/2+1}))
            <= x <= (2 mean - s_m - s_{m/2}) / (2 (s_1 - s_{m/2})),

    intersected with 0 < x < 1/2.  Returns the admissible range and a
    witness at its midpoint, or None when no such equilibrium exists.
    """
    m = rule.m
    if m % 2 != 0:
        raise OddCandidateCountError("symmetric bipositional analysis needs even m")
    s = rule.scores
    mean = rule.mean
    mid_lo, mid_hi = s[m // 2 - 1], s[m // 2]
    if not (mid_lo + mid_hi) / 2 < mean:
        return None
    lower = (s[0] + mid_lo - 2 * mean) / (2 * (s[0] - mid_hi))
    upper = (2 * mean - s[-1] - mid_lo) / (2 * (s[0] - mid_lo))
    # The lower end is strictly positive for any nonconstant rule passing
    # the strict mean condition, so only the 1/2 end can need clipping.
    if upper >= HALF:
        rng = Interval(lower, HALF, True, False)
    else:
        rng = Interval(lower, upper, True, True)
    if rng.is_empty:
        return None
    x1 = rng.midpoint
    witness = Profile((Cluster(x1, m // 2), Cluster(1 - x1, m // 2)))
    return rng, witness


def _electorates(profile: Profile) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(left half, right half, full length) of each position's electorate.

    Electorate i is the voter interval nearer position i than any other:
    from the midpoint with the previous position to the midpoint with the
    next one, the end electorates extending to the boundary.
    """
    pos = profile.positions
    cells = []
    for i, p in enumerate(pos):
        lo = ZERO if i == 0 else (pos[i - 1] + p) / 2
        hi = ONE if i == len(pos) - 1 else (p + pos[i + 1]) / 2
        cells.append((p - lo, hi - p, hi - lo))
    return cells


def _zero_tail_subrule(rule: ScoringRule, r: int) -> ScoringRule:
    """First r-1 scores plus a zero, for rules with a zero tail from rank r."""
    canon = canonicalize(rule)
    if any(v != 0 for v in canon.scores[r - 1 :]):
        raise RuleFormError(f"scores from rank {r} on must vanish after canonicalisation")
    return ScoringRule(canon.scores[: r - 1] + (ZERO,))


def multipositional_check(rule: ScoringRule, profile: Profile) -> bool:
    """Check the clustered-equilibrium conditions for r candidates at each
    of q positions under a rule that pays nothing below rank r-1.

    Condition (a): every half electorate is at most (1 - c') times the
    smallest full electorate, c' being the threshold of the length-r head
    subrule.  Condition (b): the largest full electorate is at most
    (1 + 1/r) times the smallest.
    """
    counts = set(profile.counts)
    if len(counts) != 1:
        raise CompositionMismatchError("profile must put the same count at every position")
    r = counts.pop()
    if profile.q * r != rule.m:
        raise CompositionMismatchError("cluster counts do not tile the candidate set")
    head = _zero_tail_subrule(rule, r)
    c_head = cox_threshold(head)
    cells = _electorates(profile)
    min_full = min(full for _, _, full in cells)
    max_full = max(full for _, _, full in cells)
    max_half = max(max(left, right) for left, right, _ in cells)
    cond_a = max_half <= (1 - c_head) * min_full
    cond_b = max_full <= (1 + Fraction(1, r)) * min_full
    return cond_a and cond_b


def multipositional_construct(
    rule: ScoringRule, q: int, r: int
) -> Profile | None:
    """Symmetric witness with r candidates at the centre of each of q equal
    electorates, valid exactly when the head subrule's threshold is <= 1/2.
    """
    if q < 2:
        raise CompositionMismatchError(f"need at least 2 positions, got q={q}")
    if r < 1:
        raise CompositionMismatchError(f"need at least 1 candidate per position, got r={r}")
    if q * r != rule.m:
        raise CompositionMismatchError(f"need q*r == m, got {q}*{r} != {rule.m}")
    head = _zero_tail_subrule(rule, r)
    if cox_threshold(head) > HALF:
        return None
    clusters = tuple(Cluster(Fraction(2 * i + 1, 2 * q), r) for i in range(q))
    return Profile(clusters)


def _small_m4(rule: ScoringRule) -> Verdict:
    s = canonicalize(rule).scores
    if cox_threshold(rule) > HALF and s[0] > s[1] == s[2]:
        x1 = Fraction(1, 4) * (s[0] - s[3]) / (s[0] - s[1])
        witness = Profile((Cluster(x1, 2), Cluster(1 - x1, 2)))
        return Verdict(
            Conclusion.NCNE_CONSTRUCTED,
            "four-candidate-unique",
            witness=witness,
            details={"types": [(2, 2)]},
        )
    return Verdict(Conclusion.NO_NCNE, "four-candidate-unique")


def _small_m5(rule: ScoringRule) -> Verdict:
    s = canonicalize(rule).scores
    if cox_threshold(rule) > HALF and s[0] > s[1] == s[2] == s[3]:
        x1 = Fraction(1, 6) * (s[0] + s[1]) / (s[0] - s[1])
        witness = Profile((Cluster(x1, 2), Cluster(HALF, 1), Cluster(1 - x1, 2)))
        return Verdict(
            Conclusion.NCNE_CONSTRUCTED,
            "five-candidate-unique",
            witness=witness,
            details={"types": [(2, 1, 2)]},
        )
    return Verdict(Conclusion.NO_NCNE, "five-candidate-unique")


def _small_m6(rule: ScoringRule) -> Verdict:
    """Six candidates: equilibria are confined to the type groups
    {(2,2,2), (2,1,1,2)} and {(3,3), (6)}.

    The first group requires a dominant top score over a flat middle; its
    existence is settled by the search, not here.  When the first group is
    excluded, the only nonconvergent candidate type is (3,3), which for six
    candidates is always symmetric and therefore decided exactly by
    :func:`bipositional_solve`.
    """
    s = canonicalize(rule).scores
    group1 = cox_threshold(rule) > HALF and s[0] > s[1] == s[2] == s[3] == s[4]
    if group1:
        return Verdict(
            Conclusion.INCONCLUSIVE,
            "six-candidate-groups",
            details={"types": [(2, 2, 2), (2, 1, 1, 2)], "group": 1},
        )
    solved = bipositional_solve(rule)
    if solved is None:
        return Verdict(
            Conclusion.NO_NCNE,
            "six-candidate-groups",
            details={"types": [(3, 3), (6,)], "group": 2},
        )
    rng, witness = solved
    return Verdict(
        Conclusion.NCNE_CONSTRUCTED,
        "six-candidate-groups",
        witness=witness,
        interval=rng,
        details={"types": [(3, 3), (6,)], "group": 2},
    )


def characterize_small_election(rule: ScoringRule) -> Verdict:
    """Complete characterisation for m = 4 and 5; type groups for m = 6.

    For four candidates an NCNE exists iff the threshold exceeds 1/2 and
    s_1 > s_2 = s_3; it is unique and symmetric with
    x = (s_1 - s_4) / (4 (s_1 - s_2)).  For five candidates the condition
    is s_1 > s_2 = s_3 = s_4 with threshold above 1/2, and the unique
    equilibrium is (x, 2), (1/2, 1), (1-x, 2) with
    x = (s_1 + s_2) / (6 (s_1 - s_2)) after normalising s_5 = 0.
    """
    if rule.m == 4:
        return _small_m4(rule)
    if rule.m == 5:
        return _small_m5(rule)
    if rule.m == 6:
        return _small_m6(rule)
    raise UnsupportedCandidateCountError(f"no closed form for m={rule.m}")

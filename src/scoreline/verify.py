"""Independent equilibrium oracle.

Certifies or refutes a claimed equilibrium by evaluating every dominating
deviation exactly.  The scoring path here is deliberately different from
the one in :mod:`scoreline.profiles` and from the search's symbolic
constraint builder: the unit interval is cut at *every* pairwise midpoint
between stations, and inside each cell the full distance ranking is
rebuilt by sorting.  A bug in the incremental region walk used elsewhere
cannot silently certify itself against this module.

The arithmetic runs on integer coordinates: positions are scaled by
4 * lcm(their denominators), so cuts, cell centres and cell lengths are
exact integers, and each score is turned into a Fraction once, from the
cell lengths summed per rank block of the subject station.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CountMismatchError
from .profiles import (
    AtCluster,
    DeviationTarget,
    FreePoint,
    LeftLimit,
    Profile,
    RightLimit,
)
from .rulekit import ScoringRule

__all__ = [
    "Status",
    "LedgerEntry",
    "EquilibriumReport",
    "verify_profile",
    "grid_cross_check",
]

ZERO = Fraction(0)
ONE = Fraction(1)

# Tie ranks order co-located stations: the mover's limit approach decides
# whether it sits just ahead of or just behind the resident block.
_AHEAD, _RESIDENT, _BEHIND = 0, 1, 2


class Status(enum.Enum):
    EQUILIBRIUM = "equilibrium"
    NOT_EQUILIBRIUM = "not-equilibrium"


@dataclass(frozen=True)
class _Station:
    position: Fraction
    count: int
    # tie_side: None for ordinary stations; for a limit mover, "left" or
    # "right" marks the approach side.
    tie_side: str | None = None
    is_subject: bool = False


@dataclass(frozen=True)
class LedgerEntry:
    mover: int
    target: DeviationTarget
    score: Fraction
    slack: Fraction


@dataclass(frozen=True)
class EquilibriumReport:
    status: Status
    cluster_scores: tuple[Fraction, ...]
    ledger: tuple[LedgerEntry, ...]

    @property
    def violations(self) -> tuple[LedgerEntry, ...]:
        return tuple(e for e in self.ledger if e.slack < 0)


def _cells(points: set[int], scale: int) -> list[tuple[int, int]]:
    """Cut [0, scale] at every pairwise midpoint and at the points themselves.

    The positions are needed as cuts because a limit mover ties with the
    residents at its own station: which side of the position a voter is on
    decides the tie, so the ranking is only constant between such cuts.
    """
    cuts = {0, scale}
    positions = sorted(points)
    for i, p in enumerate(positions):
        if 0 < p < scale:
            cuts.add(p)
        for other in positions[i + 1 :]:
            mid = (p + other) // 2
            if 0 < mid < scale:
                cuts.add(mid)
    ordered = sorted(cuts)
    return list(zip(ordered, ordered[1:]))


def _tie_rank(st: _Station, point: int, rep: int) -> int:
    if st.tie_side is None:
        return _RESIDENT
    on_approach_side = rep < point if st.tie_side == "left" else rep > point
    return _AHEAD if on_approach_side else _BEHIND


def _scan_score(scores: tuple[Fraction, ...], stations: list[_Station]) -> Fraction:
    """Score of the subject station's members via full per-cell sorting.

    Within a cell all voters rank the stations identically, so its
    integer centre determines the rank blocks; the subject block earns its
    mean score over the cell.  Scores are taken over a common integer
    denominator, so the result is the only Fraction built.
    """
    # Lists, not generators, go into math.lcm: CPython builds a generator
    # argument into a tuple by resizing it, which strands the tuple on
    # another size's free list, and over many calls that grew the peak
    # memory of a run by about 2 MiB.
    scale = 4 * math.lcm(*[st.position.denominator for st in stations])
    placed = [
        (st.position.numerator * (scale // st.position.denominator), st)
        for st in stations
    ]
    lengths: dict[tuple[int, int], int] = {}
    for lo, hi in _cells({point for point, _ in placed}, scale):
        rep = (lo + hi) // 2
        order = sorted(
            placed, key=lambda ps: (abs(rep - ps[0]), _tie_rank(ps[1], ps[0], rep))
        )
        rank = 1
        for _, st in order:
            if st.is_subject:
                block = (rank, st.count)
                lengths[block] = lengths.get(block, 0) + hi - lo
                break
            rank += st.count
    denom = math.lcm(*[s.denominator for s in scores])
    units = [s.numerator * (denom // s.denominator) for s in scores]
    per_member = math.lcm(*[count for _, count in lengths])
    weighted = sum(
        sum(units[rank - 1 : rank - 1 + count]) * (per_member // count) * length
        for (rank, count), length in lengths.items()
    )
    return Fraction(weighted, denom * per_member * scale)


def _baseline(profile: Profile, idx: int) -> list[_Station]:
    return [
        _Station(c.position, c.count, is_subject=(k == idx))
        for k, c in enumerate(profile.clusters)
    ]


def _departed(profile: Profile, mover: int) -> list[_Station]:
    out = []
    for k, c in enumerate(profile.clusters):
        if k == mover:
            if c.count > 1:
                out.append(_Station(c.position, c.count - 1))
        else:
            out.append(_Station(c.position, c.count))
    return out


def _deviation(
    rule: ScoringRule, profile: Profile, mover: int, target: DeviationTarget
) -> Fraction:
    rest = _departed(profile, mover)
    if isinstance(target, FreePoint):
        stations = rest + [_Station(target.point, 1, is_subject=True)]
        return _scan_score(rule.scores, stations)
    pos = profile.clusters[target.cluster].position
    if isinstance(target, AtCluster):
        stations = []
        for st in rest:
            if st.position == pos:
                stations.append(_Station(pos, st.count + 1, is_subject=True))
            else:
                stations.append(st)
        return _scan_score(rule.scores, stations)
    side = "left" if isinstance(target, LeftLimit) else "right"
    stations = rest + [_Station(pos, 1, tie_side=side, is_subject=True)]
    return _scan_score(rule.scores, stations)


def _dominating_targets(profile: Profile, mover: int) -> list[DeviationTarget]:
    """Joining or flanking every still-occupied cluster.

    The mover's own cluster only appears when residents remain; rejoining
    it is the status quo and is omitted.  Limits that would approach a
    cluster from outside [0, 1] are omitted as well: no real move lives
    there, and the adjacent positions are covered by the other targets.
    """
    vacated = profile.clusters[mover].count == 1
    targets: list[DeviationTarget] = []
    for k, c in enumerate(profile.clusters):
        if k == mover and vacated:
            continue
        if k != mover:
            targets.append(AtCluster(k))
        if c.position > ZERO:
            targets.append(LeftLimit(k))
        if c.position < ONE:
            targets.append(RightLimit(k))
    return targets


def verify_profile(rule: ScoringRule, profile: Profile) -> EquilibriumReport:
    """Certify or refute a profile by exhaustive dominating-set deviation.

    Equilibrium iff no mover earns more at any target than at home.  The
    ledger records every (mover, target) pair with its exact score and
    slack; negative slack entries are the violations.
    """
    if profile.m != rule.m:
        raise CountMismatchError(f"profile has {profile.m} candidates, rule {rule.m}")
    cluster_scores = tuple(
        _scan_score(rule.scores, _baseline(profile, k)) for k in range(profile.q)
    )
    ledger: list[LedgerEntry] = []
    for mover in range(profile.q):
        base = cluster_scores[mover]
        for target in _dominating_targets(profile, mover):
            score = _deviation(rule, profile, mover, target)
            ledger.append(LedgerEntry(mover, target, score, base - score))
    status = (
        Status.EQUILIBRIUM
        if all(e.slack >= 0 for e in ledger)
        else Status.NOT_EQUILIBRIUM
    )
    return EquilibriumReport(status, cluster_scores, tuple(ledger))


def grid_cross_check(
    rule: ScoringRule, profile: Profile, resolution: int
) -> EquilibriumReport:
    """Dominating-set check plus exact free-point probes at k/resolution.

    The grid adds nothing in theory (each probe lands inside an affine
    piece whose endpoints the dominating set already covers) and must never
    find a violation that :func:`verify_profile` missed; it exists as an
    independent safety net under that argument.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    base_report = verify_profile(rule, profile)
    occupied = set(profile.positions)
    ledger = list(base_report.ledger)
    for mover in range(profile.q):
        base = base_report.cluster_scores[mover]
        for k in range(resolution + 1):
            t = Fraction(k, resolution)
            if t in occupied:
                continue
            target = FreePoint(t)
            score = _deviation(rule, profile, mover, target)
            ledger.append(LedgerEntry(mover, target, score, base - score))
    status = (
        Status.EQUILIBRIUM
        if all(e.slack >= 0 for e in ledger)
        else Status.NOT_EQUILIBRIUM
    )
    return EquilibriumReport(status, base_report.cluster_scores, tuple(ledger))

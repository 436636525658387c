"""Clustered strategy profiles and exact candidate/deviation scores.

Voters are uniform on [0, 1] and rank candidates by distance; candidates
sharing a position are ordered by a fair lottery, so each one collects the
mean of the scores over the shared rank block.  A candidate's total score
is therefore an integral of a step function: the unit interval splits at
the midpoints between the candidate's position and every other occupied
position, and inside each region the rank block is constant.  All values
here are exact rationals; voters exactly equidistant between two distinct
positions form a measure-zero set and never contribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Rational

from .errors import (
    CountMismatchError,
    InvalidTargetError,
    PositionOutOfRangeError,
)
from .rulekit import ScoringRule

__all__ = [
    "Cluster",
    "Profile",
    "AtCluster",
    "LeftLimit",
    "RightLimit",
    "FreePoint",
    "DeviationTarget",
    "Piece",
    "PiecewiseLinear",
    "make_profile",
    "candidate_score",
    "deviation_score",
    "score_pieces",
]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Cluster:
    position: Fraction
    count: int


@dataclass(frozen=True)
class Profile:
    """Distinct positions with multiplicities, strictly increasing."""

    clusters: tuple[Cluster, ...]

    @property
    def q(self) -> int:
        return len(self.clusters)

    @property
    def m(self) -> int:
        return sum(c.count for c in self.clusters)

    @property
    def positions(self) -> tuple[Fraction, ...]:
        return tuple(c.position for c in self.clusters)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(c.count for c in self.clusters)

    def mirrored(self) -> "Profile":
        """Reflection through 1/2."""
        return Profile(
            tuple(Cluster(1 - c.position, c.count) for c in reversed(self.clusters))
        )

    def __str__(self) -> str:
        return ";".join(f"{c.position}*{c.count}" for c in self.clusters)


# Deviation targets.  Cluster indices refer to the clusters of the original
# profile (0-based); the mover is always removed from its own cluster before
# the target is evaluated.
@dataclass(frozen=True)
class AtCluster:
    cluster: int


@dataclass(frozen=True)
class LeftLimit:
    cluster: int


@dataclass(frozen=True)
class RightLimit:
    cluster: int


@dataclass(frozen=True)
class FreePoint:
    point: Fraction


DeviationTarget = AtCluster | LeftLimit | RightLimit | FreePoint


@dataclass(frozen=True)
class Piece:
    """One affine piece of a deviation payoff, on the open interval (lo, hi).

    ``at_lo`` and ``at_hi`` are the one-sided limit values at the ends; the
    payoff itself may jump at occupied positions.
    """

    lo: Fraction
    hi: Fraction
    slope: Fraction
    at_lo: Fraction
    at_hi: Fraction


@dataclass(frozen=True)
class PiecewiseLinear:
    pieces: tuple[Piece, ...]


def _as_fraction(value) -> Fraction:
    # Floats are read through their shortest decimal representation so that
    # 0.3 means 3/10, not the binary float it would otherwise denote.
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, Rational):
        return Fraction(value)
    return Fraction(str(value))


def make_profile(entries, rule: ScoringRule) -> Profile:
    """Build a validated profile; entries with equal positions are merged.

    ``entries`` is an iterable of (position, count).  Counts must be
    positive and sum to the rule's candidate number.
    """
    merged: dict[Fraction, int] = {}
    for position, count in entries:
        pos = _as_fraction(position)
        count = int(count)
        if count <= 0:
            raise CountMismatchError(f"count {count} at {pos} is not positive")
        if not ZERO <= pos <= ONE:
            raise PositionOutOfRangeError(f"position {pos} outside [0, 1]")
        merged[pos] = merged.get(pos, 0) + count
    if not merged:
        raise CountMismatchError("profile needs at least one cluster")
    total = sum(merged.values())
    if total != rule.m:
        raise CountMismatchError(f"counts sum to {total}, rule has m={rule.m}")
    clusters = tuple(Cluster(p, merged[p]) for p in sorted(merged))
    return Profile(clusters)


@dataclass(frozen=True)
class ScoreTable:
    """A rule's scores in the integers that :func:`score_form` reads.

    With L the lcm of the score denominators and D = 2·lcm(1..m)·L,
    ``prefix[i]`` is L times the sum of the first i scores and, for
    n >= 1, ``per_size[n]`` is 2·lcm(1..m) // n.  The mean of the n scores
    behind ``a`` candidates, times D, is then
    ``per_size[n] * (prefix[a + n] - prefix[a])``, an even integer, so
    every half-difference of two means is exact.
    """

    prefix: tuple[int, ...]
    per_size: tuple[int, ...]
    denominator: int


_last_table: tuple[tuple, ScoreTable] | None = None


def score_table(scores: tuple[Fraction, ...]) -> ScoreTable:
    """The :class:`ScoreTable` of a score vector.  The last one is kept and
    handed back for the same or an equal vector: each search canonicalises
    a new rule object, so repeated searches of one rule (one per
    ``cli.main`` call) find its table, and the score forms memoised on it,
    only by equality."""
    global _last_table
    cached = _last_table
    if cached is not None and (cached[0] is scores or cached[0] == scores):
        return cached[1]
    scale = lcm(*[s.denominator for s in scores])
    prefix = [0]
    for s in scores:
        prefix.append(prefix[-1] + s.numerator * (scale // s.denominator))
    block = 2 * lcm(*range(1, len(scores) + 1))
    per_size = (0,) + tuple(block // n for n in range(1, len(scores) + 1))
    table = ScoreTable(tuple(prefix), per_size, block * scale)
    _last_table = (scores, table)
    return table


def score_form(table: ScoreTable, counts: tuple[int, ...], idx: int) -> tuple[int, list[int]]:
    """Score of one member of station ``idx``, times ``table.denominator``,
    as ``const + sum(w[i] * x_i)`` with integer ``const`` and ``w``.

    Stations are listed in position order with their counts; ``x_i`` is the
    position of station i, and the result is ``(const, w)``.  Regions are
    delimited by the midpoints between the home station and every other
    station, crossed in index order; inside each region the home block sits
    behind every nearer station.  Telescoping the region integral, each
    midpoint (x_idx + x_k) / 2 adds half the drop in block mean across it to
    both w[idx] and w[k], and the last block mean is the constant.

    The walk compares indices, never positions, so two stations may share a
    position.  That makes a one-sided limit a member score: the mover is
    its own count-1 station at the target's position, listed just before
    the target for the left approach or just after it for the right one.
    The mover-target midpoint then reduces to the position itself, with the
    mover ahead of the residents on its approach side and behind them on
    the far side.
    """
    prefix = table.prefix
    size = counts[idx]
    per = table.per_size[size]
    weights = [0] * len(counts)
    closer = sum(counts[:idx])
    mean = per * (prefix[closer + size] - prefix[closer])
    for k, count in enumerate(counts):
        if k == idx:
            continue
        closer += count if k > idx else -count
        after = per * (prefix[closer + size] - prefix[closer])
        half = (mean - after) // 2
        weights[idx] += half
        weights[k] += half
        mean = after
    return mean, weights


def _score_at(scores: tuple[Fraction, ...], clusters: tuple[Cluster, ...], idx: int) -> Fraction:
    """Evaluate :func:`score_form` at the clusters' positions, on integers
    over the lcm of the position denominators, and divide once."""
    table = score_table(scores)
    const, weights = score_form(table, tuple(c.count for c in clusters), idx)
    scale = lcm(*[c.position.denominator for c in clusters])
    total = const * scale
    for w, c in zip(weights, clusters):
        total += w * c.position.numerator * (scale // c.position.denominator)
    return Fraction(total, table.denominator * scale)


def _depart(profile: Profile, mover_cluster: int) -> tuple[Cluster, ...]:
    """Remove one candidate from the mover's cluster; drop it if emptied."""
    if not 0 <= mover_cluster < profile.q:
        raise InvalidTargetError(f"no cluster {mover_cluster}")
    out = []
    for k, c in enumerate(profile.clusters):
        if k == mover_cluster:
            if c.count > 1:
                out.append(Cluster(c.position, c.count - 1))
        else:
            out.append(c)
    return tuple(out)


def _post_index(profile: Profile, mover_cluster: int, cluster: int) -> int:
    """Map an original cluster index into the post-departure tuple."""
    if not 0 <= cluster < profile.q:
        raise InvalidTargetError(f"no cluster {cluster}")
    vacated = profile.clusters[mover_cluster].count == 1
    if vacated and cluster == mover_cluster:
        raise InvalidTargetError("target references the mover's vacated position")
    if vacated and cluster > mover_cluster:
        return cluster - 1
    return cluster


def candidate_score(profile: Profile, rule: ScoringRule, cluster: int) -> Fraction:
    """Exact score of any one candidate in the given cluster."""
    if profile.m != rule.m:
        raise CountMismatchError(f"profile has {profile.m} candidates, rule {rule.m}")
    if not 0 <= cluster < profile.q:
        raise InvalidTargetError(f"no cluster {cluster}")
    return _score_at(rule.scores, profile.clusters, cluster)


def deviation_score(
    profile: Profile,
    rule: ScoringRule,
    mover_cluster: int,
    target: DeviationTarget,
) -> Fraction:
    """Exact score the mover earns at the target, everyone else fixed.

    The mover's departure is modelled first: its cluster count drops by one
    (the cluster disappears when emptied), and the target is evaluated in
    that configuration.  One-sided limits are first-class targets rather
    than epsilon evaluations.  Limits that would approach a cluster from
    outside the issue space (left of 0, right of 1) are invalid.
    """
    if profile.m != rule.m:
        raise CountMismatchError(f"profile has {profile.m} candidates, rule {rule.m}")
    post = _depart(profile, mover_cluster)

    if isinstance(target, FreePoint):
        t = _as_fraction(target.point)
        if not ZERO <= t <= ONE:
            raise InvalidTargetError(f"free point {t} outside [0, 1]")
        if any(c.position == t for c in post):
            raise InvalidTargetError(f"free point {t} is occupied")
        merged = tuple(sorted(post + (Cluster(t, 1),), key=lambda c: c.position))
        idx = next(k for k, c in enumerate(merged) if c.position == t)
        return _score_at(rule.scores, merged, idx)

    idx = _post_index(profile, mover_cluster, target.cluster)
    if isinstance(target, AtCluster):
        joined = tuple(
            Cluster(c.position, c.count + 1) if k == idx else c
            for k, c in enumerate(post)
        )
        return _score_at(rule.scores, joined, idx)
    if isinstance(target, LeftLimit):
        if post[idx].position == ZERO:
            raise InvalidTargetError("no approach from the left of position 0")
        slot = idx
    elif isinstance(target, RightLimit):
        if post[idx].position == ONE:
            raise InvalidTargetError("no approach from the right of position 1")
        slot = idx + 1
    else:
        raise InvalidTargetError(f"unknown target {target!r}")
    mover = (Cluster(post[idx].position, 1),)
    return _score_at(rule.scores, post[:slot] + mover + post[slot:], slot)


def score_pieces(
    profile: Profile, rule: ScoringRule, mover_cluster: int
) -> PiecewiseLinear:
    """Full piecewise-linear description of the mover's payoff in its position.

    With the mover removed, its payoff as a function of its new position t
    is affine on every open interval between consecutive occupied positions
    (and between the boundary and the nearest one).  With j candidates to
    the left of the interval and k to the right the slope is
    ``(s_{j+1} - s_{k+1}) / 2``; on the two end intervals this specialises
    to ``+(s_1 - s_m)/2`` and ``-(s_1 - s_m)/2``.
    """
    if profile.m != rule.m:
        raise CountMismatchError(f"profile has {profile.m} candidates, rule {rule.m}")
    post = _depart(profile, mover_cluster)
    s = rule.scores
    bounds = [ZERO] + [c.position for c in post] + [ONE]
    pieces = []
    left_count = 0
    total = sum(c.count for c in post)
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        if i > 0:
            left_count += post[i - 1].count
        if lo >= hi:
            continue
        slope = (s[left_count] - s[total - left_count]) / 2
        rep = (lo + hi) / 2
        value = deviation_score(profile, rule, mover_cluster, FreePoint(rep))
        pieces.append(
            Piece(
                lo=lo,
                hi=hi,
                slope=slope,
                at_lo=value - slope * (rep - lo),
                at_hi=value + slope * (hi - rep),
            )
        )
    return PiecewiseLinear(tuple(pieces))

"""Equilibrium search: enumerate cluster types, build one exact LP per
type, and collect every nonconvergent equilibrium with a certified witness.

For a fixed assignment of candidate counts (n_1, ..., n_q) to ordered
positions x^1 < ... < x^q, every candidate score and every deviation score
is an affine function of the positions: the voter regions are delimited by
midpoints (affine in the positions) and the rank block inside each region
depends only on the cluster order.  Deviation-proofness is therefore a
system of linear inequalities, and strictness is recovered by maximising
the minimum gap between neighbouring positions and to the boundary.

Dominating deviation set
------------------------
The mover's payoff as a function of its new position is affine on every
open interval between consecutive occupied positions, so its supremum over
each interval is attained at a one-sided limit toward an endpoint.  The
two boundary intervals have slopes +(s_1 - s_m)/2 and -(s_1 - s_m)/2,
which point toward the interior, so they are dominated by the limit at
the innermost endpoint.  Hence it suffices to constrain, for every mover
and every cluster of the post-departure configuration, the two one-sided
limit scores and the score from joining the cluster outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import sub
from typing import Callable, Iterator

from . import verify as verify_mod
from .analytic import Conclusion, Interval, cne_interval, flat_middle_analysis, prune_cluster_type
from .errors import CompositionMismatchError, InternalVerificationError, TooManyCandidatesError
from .lpcore import LinearProgram, LpOutcome, LpStatus, certifies, solve, structural_rows
from .profiles import Cluster, Profile, ScoreTable, score_form, score_table
from .rulekit import ScoringRule, canonicalize

__all__ = [
    "ClusterType",
    "TypeOutcome",
    "SearchOptions",
    "SearchResult",
    "enumerate_cluster_types",
    "build_deviation_lp",
    "find_ncne",
    "require_searchable",
    "MAX_M",
]

# A search enumerates, prunes and reports all 2^(m-1) cluster types, so
# each further candidate doubles its time, memory and output.  With every
# type pruned, m = 16 (32,768 types) takes about 0.5 s and prints 15 MB of
# JSON; m = 20 takes about 9 s, peaks at 350 MiB and prints 260 MB (Python
# 3.11, 2-CPU VM).  Unpruned types each cost an LP on top of that.
MAX_M = 20


@dataclass(frozen=True)
class ClusterType:
    """Composition (n_1, ..., n_q) of the candidate count."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts or min(self.parts) <= 0:
            raise CompositionMismatchError(f"{self.parts} has nonpositive parts")

    @property
    def q(self) -> int:
        return len(self.parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def mirrored(self) -> "ClusterType":
        return ClusterType(tuple(reversed(self.parts)))

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class TypeOutcome:
    """Search result for one cluster type."""

    ctype: ClusterType
    pruned: bool = False
    prune_reasons: tuple[str, ...] = ()
    lp_outcome: LpOutcome | None = None
    gap: Fraction | None = None
    witness: Profile | None = None
    is_equilibrium: bool = False


def enumerate_cluster_types(
    m: int, pruner: Callable[[tuple[int, ...]], tuple[bool, list[str]]] | None = None
) -> Iterator[TypeOutcome]:
    """All 2^(m-1) compositions of m, ordered by q then lexicographically,
    yielded one at a time as outcomes that are pruned or still open.

    Pruned types are yielded with their reasons so that reports can show
    why a type was never sent to the solver.
    """
    if m < 2:
        raise CompositionMismatchError("need at least two candidates")
    return _compositions(m, pruner)


def _compositions(m: int, pruner) -> Iterator[TypeOutcome]:
    for q in range(1, m + 1):
        for cuts in combinations(range(1, m), q - 1):
            edges = (0,) + cuts
            parts = tuple(map(sub, cuts + (m,), edges))
            if pruner is None:
                yield TypeOutcome(ClusterType(parts))
            else:
                keep, reasons = pruner(parts)
                yield TypeOutcome(ClusterType(parts), not keep, tuple(reasons))


# Score forms of the last rule an LP was built for, keyed on (counts,
# idx), with the score table they were read from.  ``score_table`` hands
# back the same table for an equal score vector, so repeated searches of
# one rule, each of which canonicalises a new rule object (as every
# ``cli.main`` call does), still reuse the forms.
_forms: tuple[ScoreTable, dict] | None = None


def build_deviation_lp(rule: ScoringRule, ctype: ClusterType) -> LinearProgram:
    """The max-min-gap LP whose strictly positive optimum certifies a
    nonconvergent equilibrium of the given type.

    Variables are the q positions plus the gap delta.  The structural rows
    (``lpcore.structural_rows``, always first) keep the positions ordered
    with gap at least delta between neighbours and to both boundaries (any
    equilibrium has strictly interior positions, so this costs no
    solutions).  One row per mover and dominating-set target
    requires the deviation score not to exceed the mover's current score.
    Its integer entries are the score differences times D =
    2·lcm(1..m)·lcm(score denominators): the integer score forms of
    ``profiles.score_form``, memoised per rule, with each station's weight
    added to its position variable.
    """
    global _forms
    q = ctype.q
    if ctype.total != rule.m:
        raise CompositionMismatchError(
            f"type {ctype} does not partition {rule.m} candidates"
        )
    table = score_table(rule.scores)
    if _forms is None or _forms[0] is not table:
        _forms = (table, {})
    forms = _forms[1]

    def form(counts: tuple[int, ...], idx: int) -> tuple[int, list[int]]:
        key = (counts, idx)
        found = forms.get(key)
        if found is None:
            found = forms[key] = score_form(table, counts, idx)
        return found

    names = tuple(f"x{i + 1}" for i in range(q)) + ("delta",)
    # LP variables are nonnegative, which costs no solutions here: the
    # structural rows and delta >= 0 keep every position >= delta >= 0.
    rows = structural_rows(q)
    rows.append((0,) * q + (-1, 0))  # delta >= 0

    parts = ctype.parts
    every = tuple(range(q))
    seen: set[tuple[int, ...]] = set()
    for j in range(q):
        home_const, home = form(parts, j)
        minus_home = [-w for w in home] + [0]
        # Stations after the mover leaves: their position variables and counts.
        if parts[j] == 1:
            post_vars, post = every[:j] + every[j + 1 :], parts[:j] + parts[j + 1 :]
        else:
            post_vars, post = every, parts[:j] + (parts[j] - 1,) + parts[j + 1 :]
        for k, var in enumerate(post_vars):
            # One-sided limits: the mover is its own station at x_var, listed
            # just before station k (left approach) or just after it (right).
            limit_vars = post_vars[:k] + (var,) + post_vars[k:]
            targets = []
            if var != j:
                targets.append((post_vars, post[:k] + (post[k] + 1,) + post[k + 1 :], k))
            targets.append((limit_vars, post[:k] + (1,) + post[k:], k))
            targets.append((limit_vars, post[: k + 1] + (1,) + post[k + 1 :], k + 1))
            for stations, counts, idx in targets:
                const, weights = form(counts, idx)
                row = minus_home.copy()
                for v, w in zip(stations, weights):
                    row[v] += w
                bound = home_const - const
                if bound >= 0 and not any(row):
                    continue  # vacuously satisfied
                row.append(bound)
                row = tuple(row)
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
    return LinearProgram(names, rows)


@dataclass(frozen=True)
class SearchOptions:
    prune: bool = True
    include_single_cluster: bool = False


@dataclass(frozen=True)
class SearchResult:
    rule: ScoringRule
    outcomes: tuple[TypeOutcome, ...]
    ncne_types: tuple[ClusterType, ...]
    cne: Interval | None

    def witnesses(self) -> list[Profile]:
        return [o.witness for o in self.outcomes if o.is_equilibrium and o.witness]


def _make_pruner(rule: ScoringRule):
    flat = flat_middle_analysis(rule)
    cap = (
        flat.details.get("max_cluster_size")
        if flat is not None and flat.conclusion is Conclusion.INCONCLUSIVE
        else None
    )

    def pruner(parts: tuple[int, ...]) -> tuple[bool, list[str]]:
        keep, reasons = prune_cluster_type(rule, parts)
        if cap is not None and any(p > cap for p in parts):
            keep = False
            reasons = reasons + [f"flat-middle rule allows at most {cap} per position"]
        return keep, reasons

    return pruner


def _solve_type(rule: ScoringRule, entry: TypeOutcome) -> TypeOutcome:
    """Solve an enumerated type's LP; a pruned type is returned unchanged."""
    if entry.pruned:
        return entry
    lp = build_deviation_lp(rule, entry.ctype)
    outcome = solve(lp)
    gap = outcome.value if outcome.status is LpStatus.OPTIMAL else None
    if gap is None or gap <= 0:
        # "No equilibrium of this type" rests on the LP's certificate,
        # checked here from the LP alone, not on trust in the solver.
        if not certifies(lp, outcome):
            raise InternalVerificationError(
                f"{outcome.status.value} LP of type {entry.ctype} has no valid certificate"
            )
        return TypeOutcome(entry.ctype, False, (), outcome, gap)
    positions = outcome.point[: entry.ctype.q]
    witness = Profile(tuple(Cluster(p, n) for p, n in zip(positions, entry.ctype.parts)))
    return TypeOutcome(entry.ctype, False, (), outcome, gap, witness, True)


def require_searchable(m: int) -> None:
    """Raise TooManyCandidatesError when m is above MAX_M."""
    if m > MAX_M:
        raise TooManyCandidatesError(
            f"{m} candidates is above the search limit of {MAX_M} "
            "(the search enumerates 2^(m-1) cluster types)"
        )


def find_ncne(rule: ScoringRule, options: SearchOptions | None = None) -> SearchResult:
    """Run the full search and certify every witness with the independent
    oracle before reporting it.

    Types whose LP is infeasible or tops out at gap zero are never reported
    as equilibria (a zero gap means the only candidates sit on a boundary
    or coincide, which no equilibrium does); each such verdict is checked
    exactly against the LP's dual certificate (``lpcore.certifies``).
    With ``include_single_cluster`` the q = 1 type is solved as well,
    reproducing the single-cluster existence interval as a cross-check of
    the constraint builder.  Rules with more than ``MAX_M`` candidates are
    refused before any type is enumerated.
    """
    opts = options or SearchOptions()
    require_searchable(rule.m)
    canon = canonicalize(rule)
    pruner = _make_pruner(canon) if opts.prune else None
    checked: list[TypeOutcome] = []
    ncne: list[ClusterType] = []
    # Enumeration order is (q, parts) order, which reports keep.
    for entry in enumerate_cluster_types(canon.m, pruner):
        if entry.ctype.q < 2 and not opts.include_single_cluster:
            continue
        out = _solve_type(canon, entry)
        if out.is_equilibrium:
            report = verify_mod.verify_profile(canon, out.witness)
            if report.status is not verify_mod.Status.EQUILIBRIUM:
                violations = "; ".join(
                    f"mover {e.mover} to {e.target} slack {e.slack}"
                    for e in report.violations
                )
                raise InternalVerificationError(
                    f"search witness {out.witness} for type {out.ctype} "
                    f"failed the oracle: {violations}"
                )
            if out.ctype.q >= 2:
                ncne.append(out.ctype)
        checked.append(out)
    return SearchResult(canon, tuple(checked), tuple(ncne), cne_interval(canon))

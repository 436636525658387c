"""Shared generators and oracles for the test suite.

Rule generators return exact-integer score vectors by construction so that
class membership (convex, weakly concave, symmetric, ...) holds by design,
not by luck.  All randomness is seeded by the caller.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

from scoreline import (
    Cluster,
    LinearProgram,
    Profile,
    ScoringRule,
    cox_threshold,
    shape_profile,
)
from scoreline.lpcore import satisfies, structural_rows

F = Fraction


def rule_from_ints(values) -> ScoringRule:
    return ScoringRule(tuple(F(v) for v in values))


def random_rule(rng: random.Random, m: int | None = None, top: int = 12) -> ScoringRule:
    """Generic nonincreasing, nonconstant integer rule."""
    m = m or rng.randint(4, 8)
    while True:
        vals = sorted((rng.randint(0, top) for _ in range(m)), reverse=True)
        if vals[0] > vals[-1]:
            return rule_from_ints(vals)


def random_convex_rule(rng: random.Random, m: int | None = None) -> ScoringRule:
    """Nonincreasing consecutive differences, not all zero."""
    m = m or rng.randint(4, 8)
    while True:
        diffs = sorted((rng.randint(0, 4) for _ in range(m - 1)), reverse=True)
        if any(diffs):
            break
    vals = [0]
    for d in reversed(diffs):
        vals.append(vals[-1] + d)
    return rule_from_ints(list(reversed(vals)))


def random_convex_no_exception_rule(rng: random.Random, m: int | None = None) -> ScoringRule:
    """Convex rule whose nonconstant head is not an arithmetic progression
    shorter than the constant tail (the one convex family that can still
    have equilibria)."""
    while True:
        rule = random_convex_rule(rng, m)
        s = rule.scores
        n = rule.m - 1
        while s[n - 1] == s[-1]:
            n -= 1
        head = s[: n + 1]
        d = head[0] - head[1]
        arithmetic = d > 0 and all(
            head[i] - head[i + 1] == d for i in range(len(head) - 1)
        )
        if not (arithmetic and n + 1 <= rule.m // 2):
            return rule


def random_weakly_concave_rule(
    rng: random.Random, m: int | None = None, require_tail_balance: bool = False
) -> ScoringRule:
    """Top-end differences no larger than the mirrored bottom-end ones."""
    m = m or rng.randint(4, 8)
    while True:
        diffs = [rng.randint(0, 4) for _ in range(m - 1)]
        for i in range(m // 2):
            j = m - 2 - i
            if i < j and diffs[i] > diffs[j]:
                diffs[i], diffs[j] = diffs[j], diffs[i]
        if not any(diffs):
            continue
        vals = [0]
        for d in reversed(diffs):
            vals.append(vals[-1] + d)
        rule = rule_from_ints(list(reversed(vals)))
        shape = shape_profile(rule)
        assert shape.weakly_concave
        if require_tail_balance and not shape.tail_balance:
            continue
        return rule


def random_symmetric_rule(rng: random.Random, m: int | None = None) -> ScoringRule:
    m = m or rng.randint(4, 8)
    while True:
        half = [rng.randint(0, 4) for _ in range((m - 1) // 2 + 1)]
        diffs = [half[min(i, m - 2 - i)] for i in range(m - 1)]
        if any(diffs):
            break
    vals = [0]
    for d in reversed(diffs):
        vals.append(vals[-1] + d)
    return rule_from_ints(list(reversed(vals)))


def random_plateau_rule(rng: random.Random, m: int | None = None) -> ScoringRule:
    """Leading constant run of length at least floor(m/2)."""
    m = m or rng.randint(4, 8)
    k = rng.randint(m // 2, m - 1)
    top = rng.randint(3, 8)
    tail = sorted((rng.randint(0, top - 1) for _ in range(m - k)), reverse=True)
    return rule_from_ints([top] * k + tail)


def random_highly_best_rewarding_rule(
    rng: random.Random, m: int | None = None
) -> ScoringRule:
    """Threshold above 1 - 1/(m-2) (even m) or 1 - 1/(m-1) (odd m), with
    the middle-score inequality that rules out unpaired candidates."""
    m = m or rng.randint(4, 8)
    while True:
        tail = sorted((rng.randint(0, 3) for _ in range(m - 1)), reverse=True)
        top = rng.randint(1, 40)
        vals = [top] + tail
        if vals[0] <= vals[1]:
            continue
        rule = rule_from_ints(vals)
        c = cox_threshold(rule)
        s = rule.scores
        if m % 2 == 0:
            ok = c > 1 - F(1, m - 2) and s[m // 2 - 1] != s[m // 2]
        else:
            ok = c > 1 - F(1, m - 1) and s[(m - 1) // 2 - 1] != s[(m + 3) // 2 - 1]
        if ok:
            return rule


def random_profile(rng: random.Random, m: int, max_q: int = 5) -> Profile:
    """Random clustered profile with small-denominator positions."""
    q = rng.randint(1, min(max_q, m))
    cuts = sorted(rng.sample(range(1, m), q - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [m])]
    denom = rng.choice([16, 24, 36, 60])
    numerators = rng.sample(range(0, denom + 1), q)
    positions = sorted(F(n, denom) for n in numerators)
    return Profile(tuple(Cluster(p, c) for p, c in zip(positions, counts)))


def _gauss_solve(A, b):
    n = len(A[0])
    rows = [list(map(F, row)) + [F(v)] for row, v in zip(A, b)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            return None
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    if len(pivots) < n:
        return None
    x = [F(0)] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][-1]
    return x


def brute_force_lp(lp: LinearProgram):
    """Vertex-enumeration optimum for small LPs with a bounded feasible set.

    Every vertex of the feasible polytope solves some n-subset of the
    constraints as equalities; enumerate them all, keep the feasible ones,
    and take the best objective value.  Returns (feasible, best value).
    """
    n = len(lp.variables)
    rows = lp.constraints
    best = None
    feasible = False
    for subset in itertools.combinations(range(len(rows)), n):
        A = [rows[i][:n] for i in subset]
        b = [rows[i][n] for i in subset]
        x = _gauss_solve(A, b)
        if x is None:
            continue
        if satisfies(lp, x):
            feasible = True
            if best is None or x[-1] > best:  # the objective is delta
                best = x[-1]
    return feasible, best


def _fraction_score_form(scores, counts, idx):
    """The region walk on Fractions, as the builder once ran it: the score
    of one member of station ``idx`` as ``const + sum(w[i] * x_i)``."""
    def block_mean(ahead, size):
        return sum(scores[ahead : ahead + size]) / size

    weights = [F(0)] * len(counts)
    size = counts[idx]
    closer = sum(counts[:idx])
    mean = block_mean(closer, size)
    for k, count in enumerate(counts):
        if k == idx:
            continue
        closer += count if k > idx else -count
        after = block_mean(closer, size)
        half = (mean - after) / 2
        weights[idx] += half
        weights[k] += half
        mean = after
    return mean, weights


# Fraction score forms per score vector and (counts, idx), kept only so
# that the reference stays quick enough to run over many rules.
_FRACTION_FORMS: dict[tuple, dict] = {}


def reference_deviation_rows(rule: ScoringRule, parts) -> list[tuple[int, ...]]:
    """The rows of ``build_deviation_lp(rule, ClusterType(parts))`` as the
    builder wrote them from Fraction score forms, converting each term to
    an integer over D = 2 lcm(1..m) lcm(score denominators)."""
    scores = rule.scores
    q = len(parts)
    scale = 2 * lcm(*range(1, rule.m + 1)) * lcm(*[s.denominator for s in scores])

    forms = _FRACTION_FORMS.setdefault(scores, {})

    def score_row(stations, idx):
        key = (tuple(n for _, n in stations), idx)
        if key not in forms:
            forms[key] = _fraction_score_form(scores, key[0], idx)
        const, weights = forms[key]
        coeffs = [0] * q
        for (var, _), w in zip(stations, weights):
            coeffs[var] += w.numerator * (scale // w.denominator)
        return coeffs, const.numerator * (scale // const.denominator)

    rows = structural_rows(q)
    rows.append((0,) * q + (-1, 0))
    full = list(enumerate(parts))
    seen = set()
    for j in range(q):
        home, home_const = score_row(full, j)
        post = [(var, n - 1 if var == j else n) for var, n in full if (var, n) != (j, 1)]
        deviations = []
        for k, (var, n) in enumerate(post):
            if var != j:
                deviations.append(score_row(post[:k] + [(var, n + 1)] + post[k + 1 :], k))
            deviations.append(score_row(post[:k] + [(var, 1)] + post[k:], k))
            deviations.append(score_row(post[: k + 1] + [(var, 1)] + post[k + 1 :], k + 1))
        for coeffs, const in deviations:
            diff = [a - b for a, b in zip(coeffs, home)]
            bound = home_const - const
            if bound >= 0 and not any(diff):
                continue
            row = tuple(diff + [0, bound])
            if row not in seen:
                seen.add(row)
                rows.append(row)
    return rows

"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed.  The rule generators
mirror the impossibility classes of the test suite's generators (criterion
8) and its random rules and profiles (criterion 9), but are written again
here so that the benchmark does not depend on the tests.  Rules are
integer score lists; the program receives them as command-line text.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction


def _from_diffs(diffs: list[int]) -> list[int]:
    vals = [0]
    for d in reversed(diffs):
        vals.append(vals[-1] + d)
    return list(reversed(vals))


def convex_no_exception_rule(rng: random.Random, m: int) -> list[int]:
    """Convex rule whose nonconstant head is not an arithmetic progression
    shorter than the constant tail."""
    while True:
        diffs = sorted((rng.randint(0, 4) for _ in range(m - 1)), reverse=True)
        if not any(diffs):
            continue
        s = _from_diffs(diffs)
        n = m - 1
        while s[n - 1] == s[-1]:
            n -= 1
        head = s[: n + 1]
        d = head[0] - head[1]
        arithmetic = d > 0 and all(
            head[i] - head[i + 1] == d for i in range(len(head) - 1)
        )
        if not (arithmetic and n + 1 <= m // 2):
            return s


def weakly_concave_tail_balance_rule(rng: random.Random, m: int) -> list[int]:
    """Top-end differences no larger than the mirrored bottom-end ones, with
    the tail-balance inequality."""
    while True:
        diffs = [rng.randint(0, 4) for _ in range(m - 1)]
        for i in range(m // 2):
            j = m - 2 - i
            if i < j and diffs[i] > diffs[j]:
                diffs[i], diffs[j] = diffs[j], diffs[i]
        if not any(diffs):
            continue
        s = _from_diffs(diffs)
        if m <= 4 or (s[3] + s[m - 4]) * (m - 3) >= sum(s[: m - 3]) + sum(s[3:]):
            return s


def plateau_rule(rng: random.Random, m: int) -> list[int]:
    """Leading constant run of length at least floor(m/2)."""
    k = rng.randint(m // 2, m - 1)
    top = rng.randint(3, 8)
    tail = sorted((rng.randint(0, top - 1) for _ in range(m - k)), reverse=True)
    return [top] * k + tail


def symmetric_rule(rng: random.Random, m: int) -> list[int]:
    while True:
        half = [rng.randint(0, 4) for _ in range((m - 1) // 2 + 1)]
        diffs = [half[min(i, m - 2 - i)] for i in range(m - 1)]
        if any(diffs):
            return _from_diffs(diffs)


def highly_best_rewarding_rule(rng: random.Random, m: int) -> list[int]:
    """Cox threshold above 1 - 1/(m-2) (even m) or 1 - 1/(m-1) (odd m), with
    the middle-score inequality that rules out unpaired candidates."""
    while True:
        tail = sorted((rng.randint(0, 3) for _ in range(m - 1)), reverse=True)
        s = [rng.randint(1, 40)] + tail
        if s[0] <= s[1]:
            continue
        c = Fraction(m * s[0] - sum(s), m * (s[0] - s[-1]))
        if m % 2 == 0:
            ok = c > 1 - Fraction(1, m - 2) and s[m // 2 - 1] != s[m // 2]
        else:
            ok = c > 1 - Fraction(1, m - 1) and s[(m - 1) // 2 - 1] != s[(m + 3) // 2 - 1]
        if ok:
            return s


def prune_signature(s: list[int]) -> tuple:
    """The score features that the per-type necessary conditions read: the
    leading plateau length, whether an end cluster of two is allowed, and
    whether an interior singleton is."""
    m = len(s)
    k = 1
    while s[k] == s[0]:
        k += 1
    if m % 2 == 0:
        singles = s[m // 2 - 1] == s[m // 2]
    else:
        singles = s[(m - 1) // 2 - 1] == s[(m + 3) // 2 - 1]
    return (k, s[1] == s[m - 2], singles)


IMPOSSIBILITY_CLASSES = (
    ("convex-no-arithmetic-tail", convex_no_exception_rule),
    ("weakly-concave-tail-balance", weakly_concave_tail_balance_rule),
    ("leading-plateau", plateau_rule),
    ("symmetric", symmetric_rule),
    ("highly-best-rewarding", highly_best_rewarding_rule),
)


def random_rule(rng: random.Random, m: int, top: int = 12) -> list[int]:
    """Generic nonincreasing, nonconstant integer rule."""
    while True:
        s = sorted((rng.randint(0, top) for _ in range(m)), reverse=True)
        if s[0] > s[-1]:
            return s


def random_profile(rng: random.Random, m: int, q: int) -> list[tuple[Fraction, int]]:
    """Clustered profile of q positions with small-denominator positions."""
    cuts = sorted(rng.sample(range(1, m), q - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [m])]
    denom = rng.choice([16, 24, 36, 60])
    positions = sorted(Fraction(n, denom) for n in rng.sample(range(denom + 1), q))
    return list(zip(positions, counts))


def rule_text(scores: list[int]) -> str:
    return ",".join(str(s) for s in scores)


def profile_text(profile: list[tuple[Fraction, int]]) -> str:
    return ";".join(f"{p}*{c}" for p, c in profile)


def digest(keys: list[str]) -> str:
    """Short content hash of generated inputs, to show that runs share them."""
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]

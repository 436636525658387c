"""Parsing, canonicalisation and classification of positional scoring rules.

A scoring rule for an ``m``-candidate election is a nonincreasing vector
``s = (s_1, ..., s_m)`` with ``s_1 > s_m``; a voter's ranked ballot awards
``s_i`` points to the candidate ranked ``i``-th.  Two vectors related by a
positive affine transformation ``alpha * s + beta`` define the same rule, so
every rule is canonicalised here to the unique integer vector with
``s_m = 0`` and coordinate gcd 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConstantRuleError,
    NotNonincreasingError,
    RuleParseError,
    RuleTooLargeError,
    SubruleIndexError,
)

__all__ = [
    "ScoringRule",
    "RuleCategory",
    "RuleClass",
    "ShapeProfile",
    "ConstantSubrule",
    "parse_rule",
    "parse_number",
    "canonicalize",
    "cox_threshold",
    "classify",
    "shape_profile",
    "plateaus",
    "subrule",
    "is_borda_equivalent",
]

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ScoringRule:
    """A validated score vector.

    Invariants: at least two scores, nonincreasing, first strictly greater
    than last.  Scores are exact rationals; no floats are accepted anywhere.
    """

    scores: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.scores) < 2:
            raise RuleParseError("a rule needs at least two scores")
        for a, b in zip(self.scores, self.scores[1:]):
            if a < b:
                raise NotNonincreasingError(f"scores increase: {a} < {b}")
        if self.scores[0] == self.scores[-1]:
            raise ConstantRuleError("constant score vector defines no rule")

    @property
    def m(self) -> int:
        """Number of candidates."""
        return len(self.scores)

    @property
    def mean(self) -> Fraction:
        return Fraction(sum(self.scores), self.m)

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self.scores) + ")"


class RuleCategory(enum.Enum):
    BEST_REWARDING = "best-rewarding"
    WORST_PUNISHING = "worst-punishing"
    INTERMEDIATE = "intermediate"


@dataclass(frozen=True)
class RuleClass:
    """Cox classification of a rule together with the exact threshold."""

    category: RuleCategory
    threshold: Fraction


@dataclass(frozen=True)
class ShapeProfile:
    """Exact score-shape predicates used by the equilibrium theorems.

    ``tail_balance`` is the condition
    ``s_4 + s_{m-3} >= (sum_{i<=m-3} s_i + sum_{i>=4} s_i) / (m - 3)``,
    which strengthens weak concavity enough to exclude nonconvergent
    equilibria with a large end cluster.  For m <= 4 the block sums
    degenerate and the condition is defined to hold.
    """

    convex: bool
    concave: bool
    weakly_concave: bool
    symmetric: bool
    tail_balance: bool


@dataclass(frozen=True)
class ConstantSubrule:
    """Marker for a constant score window, which defines no rule."""

    value: Fraction
    length: int


# Longest number token accepted.  Exponent notation is refused: a token as
# short as 1e999999999 stands for an integer of a billion digits, and one of
# 1e5000 parses but cannot be printed back (sys.get_int_max_str_digits).
MAX_TOKEN = 100

# Most decimal digits in a canonical score.  Short tokens can still make long
# canonical integers (the lcm of 60 denominators near 10^89 has over 5,000
# digits), and Python refuses to print an int of more than 4,300
# (sys.get_int_max_str_digits).  Printed numbers are built from the
# canonical scores.  A search witness, the longest, is a ratio of determinants
# of at most MAX_M + 1 = 21 integer LP rows with entries under 10^(11 + this
# bound), so it has fewer than 21 * 161 + 20 = 3,401 digits.
MAX_SCORE_DIGITS = 150
_SCORE_LIMIT = 10**MAX_SCORE_DIGITS


def parse_number(token: str) -> Fraction:
    """An exact rational from an integer, decimal or ``p/q`` token.

    Raises ValueError or ZeroDivisionError when the token is malformed, is
    in exponent notation or is longer than ``MAX_TOKEN`` characters.
    """
    if len(token) > MAX_TOKEN or "e" in token.lower():
        raise ValueError(f"not a plain number of at most {MAX_TOKEN} characters")
    return Fraction(token)


def _to_fraction(token: str) -> Fraction:
    try:
        return parse_number(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise RuleParseError(f"bad score token {token!r}") from exc


def parse_rule(text: str) -> ScoringRule:
    """Parse comma-separated integers or ``p/q`` fractions into a rule.

    Raises RuleParseError for malformed tokens, NotNonincreasingError when
    the sequence increases anywhere, ConstantRuleError when all scores are
    equal, and RuleTooLargeError when a canonical score would have more
    than ``MAX_SCORE_DIGITS`` digits.
    """
    tokens = [t.strip() for t in text.split(",")]
    if tokens and tokens[-1] == "":
        tokens.pop()
    if not tokens or any(t == "" for t in tokens):
        raise RuleParseError(f"empty score token in {text!r}")
    rule = ScoringRule(tuple(_to_fraction(t) for t in tokens))
    _canonical_ints(rule.scores)  # refuses a rule whose canonical scores are too long
    return rule


def _canonical_ints(scores: tuple[Fraction, ...]) -> list[int]:
    """The scores shifted to end at 0 and scaled to coprime integers."""
    scale = math.lcm(*[s.denominator for s in scores])
    last = scores[-1].numerator * (scale // scores[-1].denominator)
    ints = [s.numerator * (scale // s.denominator) - last for s in scores]
    g = math.gcd(*ints)
    if ints[0] // g >= _SCORE_LIMIT:
        raise RuleTooLargeError(
            f"canonical scores of more than {MAX_SCORE_DIGITS} digits are not supported"
        )
    return [v // g for v in ints]


def canonicalize(rule: ScoringRule) -> ScoringRule:
    """Return the affine-equivalent integer rule with last score 0 and gcd 1.

    Idempotent, and every classification in this module is invariant under
    it.  The integer form makes reports readable and hashable.  Raises
    RuleTooLargeError when the first (largest) canonical score has more than
    ``MAX_SCORE_DIGITS`` digits.
    """
    return ScoringRule(tuple(Fraction(v) for v in _canonical_ints(rule.scores)))


def cox_threshold(rule: ScoringRule) -> Fraction:
    """The first-to-average drop relative to the first-to-last drop.

    ``c = (s_1 - mean(s)) / (s_1 - s_m)``, always in (0, 1) and invariant
    under positive affine transformations of the scores.  A single cluster
    of all candidates at ``x`` is a Nash equilibrium iff ``c <= x <= 1-c``.
    """
    return (rule.scores[0] - rule.mean) / (rule.scores[0] - rule.scores[-1])


def classify(rule: ScoringRule) -> RuleClass:
    """Classify by exact comparison of the Cox threshold with 1/2."""
    c = cox_threshold(rule)
    if c > HALF:
        category = RuleCategory.BEST_REWARDING
    elif c < HALF:
        category = RuleCategory.WORST_PUNISHING
    else:
        category = RuleCategory.INTERMEDIATE
    return RuleClass(category, c)


def shape_profile(rule: ScoringRule) -> ShapeProfile:
    """Compute all score-shape flags by exact comparisons."""
    s = rule.scores
    m = rule.m
    diffs = [s[i] - s[i + 1] for i in range(m - 1)]
    convex = all(diffs[i] >= diffs[i + 1] for i in range(m - 2))
    concave = all(diffs[i] <= diffs[i + 1] for i in range(m - 2))
    # Difference at the top end no larger than the mirrored one at the
    # bottom end, for every i up to floor(m/2); symmetric when always equal.
    weakly_concave = all(diffs[i] <= diffs[m - 2 - i] for i in range(m // 2))
    symmetric = all(diffs[i] == diffs[m - 2 - i] for i in range(m // 2))
    if m <= 4:
        tail_balance = True
    else:
        block = sum(s[: m - 3]) + sum(s[3:])
        tail_balance = s[3] + s[m - 4] >= Fraction(block, m - 3)
    return ShapeProfile(convex, concave, weakly_concave, symmetric, tail_balance)


def plateaus(rule: ScoringRule) -> tuple[int, int]:
    """Lengths of the constant runs at both ends of the score vector.

    Returns ``(leading_k, trailing_n)`` where ``s_1 = ... = s_k > s_{k+1}``
    and ``s_n > s_{n+1} = ... = s_m``; both lie in [1, m-1] because the
    rule is nonconstant.
    """
    s = rule.scores
    k = 1
    while s[k] == s[0]:
        k += 1
    n = rule.m - 1
    while s[n - 1] == s[-1]:
        n -= 1
    return k, n


def subrule(rule: ScoringRule, i: int, j: int) -> ScoringRule | ConstantSubrule:
    """The score window ``(s_i, ..., s_{i+j})``, 1-based, as its own rule.

    A constant window defines no rule and is flagged with a marker instead
    of an error so callers can detect long constant stretches cheaply.
    """
    if i < 1 or j < 1 or i + j > rule.m:
        raise SubruleIndexError(f"window [{i}, {i + j}] outside 1..{rule.m}")
    window = rule.scores[i - 1 : i + j]
    if window[0] == window[-1]:
        return ConstantSubrule(window[0], len(window))
    return ScoringRule(window)


def is_borda_equivalent(rule: ScoringRule) -> bool:
    """True iff consecutive score differences are all equal and positive."""
    s = rule.scores
    d = s[0] - s[1]
    return d > 0 and all(s[i] - s[i + 1] == d for i in range(rule.m - 1))

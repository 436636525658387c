"""Exception hierarchy shared across the library."""

from __future__ import annotations


class ScorelineError(Exception):
    """Base class for all errors raised by this library."""


class RuleParseError(ScorelineError):
    """Rule text contains a malformed token."""


class RuleTooLargeError(ScorelineError):
    """Canonical integer scores of the rule are longer than the library handles."""


class NotNonincreasingError(ScorelineError):
    """Score vector is not nonincreasing."""


class ConstantRuleError(ScorelineError):
    """All scores equal; the vector does not define a rule."""


class SubruleIndexError(ScorelineError):
    """Subrule indices fall outside the score vector."""


class CountMismatchError(ScorelineError):
    """Candidate counts do not sum to the rule's candidate number."""


class PositionOutOfRangeError(ScorelineError):
    """A position lies outside the unit interval."""


class InvalidTargetError(ScorelineError):
    """Deviation target does not exist in the post-departure configuration."""


class DimensionMismatchError(ScorelineError):
    """Linear program rows and variable list disagree on width."""


class CompositionMismatchError(ScorelineError):
    """Cluster type is not a composition of the rule's candidate number."""


class OddCandidateCountError(ScorelineError):
    """Operation requires an even number of candidates."""


class RuleFormError(ScorelineError):
    """Rule does not have the score pattern the operation requires."""


class UnsupportedCandidateCountError(ScorelineError):
    """Closed-form characterisation only covers 4, 5 or 6 candidates."""


class TooManyCandidatesError(ScorelineError):
    """Rule has more candidates than the search or the oracle accepts."""


class InternalVerificationError(ScorelineError):
    """A computed witness or LP certificate failed its independent check;
    indicates a bug."""

"""Exact rational linear programming via two-phase simplex.

Maximises a linear objective subject to <=, = and >= constraints with all
data exact rationals.  Pivoting uses Bland's smallest-index rule, which
rules out cycling and guarantees termination.  When gmpy2 is installed its
``mpq`` type is used for the tableau arithmetic; inputs and outputs are
plain Fractions and results are identical either way.

The tableau has one row per constraint, and pivoting cost grows with its
height.  A tall LP (nonnegative variables, no '=' rows, more rows than
variables), such as the search's deviation LPs with q+1 variables and up to
hundreds of rows, is therefore solved through its dual, whose tableau has
one row per variable; the primal point is read off the dual's final
objective row.  Every other LP is solved as given, as is a tall one whose
dual is infeasible (the primal is then infeasible or unbounded, and only
the primal tells which).

Optimal points are re-substituted into every constraint before they are
returned; an inexact answer is a bug, not a tolerance issue.  An LP solved
through its dual also returns the dual optimum, checked to have the same
objective value as the point (which proves both optimal), or at
infeasibility a Farkas ray; ``certifies`` checks either from the LP alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatchError, InternalVerificationError

try:  # pragma: no cover - exercised implicitly when gmpy2 is present
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    _Q = Fraction

__all__ = [
    "Relation",
    "Constraint",
    "LinearProgram",
    "LpStatus",
    "LpOutcome",
    "solve",
    "satisfies",
    "certifies",
    "dump_text",
]

LEQ = "<="
EQ = "="
GEQ = ">="
Relation = str


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: Relation
    bound: Fraction


@dataclass
class LinearProgram:
    """maximise objective . x subject to the constraints.

    Variables are free by default; set ``nonnegative`` when every variable
    is known to be >= 0 at any feasible point (this halves the simplex
    width by skipping the free-variable split).
    """

    variables: tuple[str, ...]
    objective: tuple[Fraction, ...]
    constraints: list[Constraint] = field(default_factory=list)
    nonnegative: bool = False

    def add(self, coeffs, relation: Relation, bound) -> None:
        self.constraints.append(
            Constraint(tuple(Fraction(c) for c in coeffs), relation, Fraction(bound))
        )

    def validate(self) -> None:
        n = len(self.variables)
        if n < 1:
            raise DimensionMismatchError("need at least one variable")
        if len(self.objective) != n:
            raise DimensionMismatchError("objective width != variable count")
        for row in self.constraints:
            if len(row.coeffs) != n:
                raise DimensionMismatchError("constraint width != variable count")
            if row.relation not in (LEQ, EQ, GEQ):
                raise DimensionMismatchError(f"bad relation {row.relation!r}")


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    """Status, optimum and optimal point, and for an LP solved through its
    dual a certificate: one multiplier per constraint, taken with the row
    in its '<=' form (a '>=' row negated).  At OPTIMAL it is a dual optimum
    y, at INFEASIBLE a Farkas ray; ``certifies`` checks either exactly."""

    status: LpStatus
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


def satisfies(lp: LinearProgram, point) -> bool:
    """Exact check that a point meets every constraint."""
    for row in lp.constraints:
        lhs = sum(c * x for c, x in zip(row.coeffs, point))
        if row.relation == LEQ and lhs > row.bound:
            return False
        if row.relation == GEQ and lhs < row.bound:
            return False
        if row.relation == EQ and lhs != row.bound:
            return False
    return True


def certifies(lp: LinearProgram, outcome: LpOutcome) -> bool:
    """Exact check that ``outcome.certificate`` proves the outcome of a
    nonnegative inequality LP, by weak duality.

    With rows a_i.x <= b_i and multipliers y >= 0, every feasible x >= 0
    has c.x <= (A^T y).x <= b.y whenever A^T y >= c: at OPTIMAL, b.y equal
    to the optimum proves no point does better.  At INFEASIBLE, A^T y >= 0
    and b.y < 0 would give 0 <= y.Ax <= b.y < 0, so no point exists.
    """
    y = outcome.certificate
    if y is None or not lp.nonnegative or len(y) != len(lp.constraints):
        return False
    if any(v < 0 for v in y) or any(row.relation == EQ for row in lp.constraints):
        return False
    signed = [(-v if row.relation == GEQ else v, row) for v, row in zip(y, lp.constraints)]
    aty = [sum(v * row.coeffs[j] for v, row in signed) for j in range(len(lp.variables))]
    by = sum(v * row.bound for v, row in signed)
    if outcome.status is LpStatus.OPTIMAL:
        return all(a >= c for a, c in zip(aty, lp.objective)) and by == outcome.value
    if outcome.status is LpStatus.INFEASIBLE:
        return all(a >= 0 for a in aty) and by < 0
    return False


def dump_text(lp: LinearProgram) -> str:
    """Plain-text debug rendering, one constraint per line."""

    def term(c, name):
        return f"{'+' if c >= 0 else '-'} {abs(c)}*{name}"

    lines = [
        "max " + " ".join(term(c, v) for c, v in zip(lp.objective, lp.variables))
    ]
    for row in lp.constraints:
        lhs = " ".join(term(c, v) for c, v in zip(row.coeffs, lp.variables) if c != 0)
        lines.append(f"{lhs or '0'} {row.relation} {row.bound}")
    return "\n".join(lines)


def _pivot(tableau: list[list], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    pivot_row = tableau[row]
    for r, tab_row in enumerate(tableau):
        if r == row:
            continue
        factor = tab_row[col]
        if factor:
            tableau[r] = [v - factor * p for v, p in zip(tab_row, pivot_row)]
    basis[row] = col


def _bland_run(tableau: list[list], basis: list[int], ncols: int) -> int | None:
    """Run simplex iterations on a tableau whose last row is the (maximise)
    objective in reduced form: entry j is (z_j - c_j), entry -1 the value.

    Entering column: smallest index with negative reduced cost; leaving
    row: lexicographic Bland tie-break on the basic variable index.
    Returns None at an optimum, or the entering column that has no
    positive entry, along which the objective grows without bound.
    """
    zero = _Q(0)
    while True:
        cost = tableau[-1]
        col = -1
        for j in range(ncols):
            if cost[j] < zero:
                col = j
                break
        if col < 0:
            return None
        row = -1
        best = None
        for i in range(len(basis)):
            a = tableau[i][col]
            if a > zero:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best = ratio
                    row = i
        if row < 0:
            return col
        _pivot(tableau, basis, row, col)


_FLIP = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}


def _two_phase(rows: list[tuple[list, Relation, object]], objective: list):
    """Maximise objective . v over v >= 0 subject to ``rows``, each a
    (coeffs, relation, bound) triple of exact numbers.

    Returns (status, tableau, basis, slack_of, ray_col): the final tableau
    with the objective row last and the basic column of each of its rows;
    the slack or surplus column of each input row (None for '=' rows); and
    at UNBOUNDED the column along which the objective is unbounded.
    """
    width = len(objective)
    zero, one = _Q(0), _Q(1)
    normal = []
    for coeffs, rel, b in rows:
        # A '>= 0' row is flipped too: as '<= 0' it takes a slack in the
        # starting basis instead of an artificial.
        if b < 0 or (b == 0 and rel == GEQ):
            coeffs = [-c for c in coeffs]
            b = -b
            rel = _FLIP[rel]
        normal.append((coeffs, rel, b))

    nslack = sum(1 for _, rel, _ in normal if rel != EQ)
    nart = sum(1 for _, rel, _ in normal if rel != LEQ)
    ncols = width + nslack + nart
    tableau: list[list] = []
    basis: list[int] = []
    slack_of: list[int | None] = []
    art_cols: list[int] = []
    slack_at = width
    art_at = width + nslack
    for coeffs, rel, b in normal:
        row = coeffs + [zero] * (nslack + nart) + [b]
        if rel == EQ:
            slack_of.append(None)
        else:
            row[slack_at] = one if rel == LEQ else -one
            slack_of.append(slack_at)
            slack_at += 1
        if rel == LEQ:
            basis.append(slack_of[-1])
        else:
            row[art_at] = one
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        tableau.append(row)

    if art_cols:
        # Phase 1: maximise -(sum of artificials); feasible iff optimum 0.
        cost = [zero] * (ncols + 1)
        for j in art_cols:
            cost[j] = one
        tableau.append(cost)
        for i, bcol in enumerate(basis):
            if bcol in art_cols:
                tableau[-1] = [v - r for v, r in zip(tableau[-1], tableau[i])]
        if _bland_run(tableau, basis, ncols) is not None:
            raise InternalVerificationError("feasibility phase cannot be unbounded")
        if tableau[-1][-1] != zero:
            # Some artificial variable is stuck positive.
            return LpStatus.INFEASIBLE, tableau, basis, slack_of, None
        tableau.pop()
        # Pivot remaining (zero-valued) artificials out of the basis; rows
        # with no eligible column are redundant and are dropped.
        for i in range(len(basis) - 1, -1, -1):
            if basis[i] not in art_cols:
                continue
            col = next(
                (j for j in range(width + nslack) if tableau[i][j] != zero), -1
            )
            if col >= 0:
                _pivot(tableau, basis, i, col)
            else:
                tableau.pop(i)
                basis.pop(i)

    # Phase 2 objective, priced out for the current basis.
    cost = [-c for c in objective] + [zero] * (nslack + nart + 1)
    tableau.append(cost)
    for i, bcol in enumerate(basis):
        if cost[bcol] != zero:
            factor = cost[bcol]
            tableau[-1] = [v - factor * r for v, r in zip(tableau[-1], tableau[i])]
            cost = tableau[-1]

    # Artificial columns sit beyond width + nslack, so they can never
    # re-enter the basis here.
    ray_col = _bland_run(tableau, basis, width + nslack)
    status = LpStatus.OPTIMAL if ray_col is None else LpStatus.UNBOUNDED
    return status, tableau, basis, slack_of, ray_col


def _basic_values(tableau: list[list], basis: list[int], count: int) -> list:
    """Values of the first ``count`` columns at the tableau's basic solution."""
    values = [_Q(0)] * count
    for i, bcol in enumerate(basis):
        if bcol < count:
            values[bcol] = tableau[i][-1]
    return values


def _solve_primal(lp: LinearProgram) -> LpOutcome:
    """Two-phase simplex on the LP as given: one tableau row per constraint."""
    n = len(lp.variables)
    # Free variables are split as x = x+ - x-.
    if lp.nonnegative:

        def expand(coeffs):
            return [_Q(c) for c in coeffs]

    else:

        def expand(coeffs):
            out = []
            for c in coeffs:
                q = _Q(c)
                out.append(q)
                out.append(-q)
            return out

    rows = [(expand(con.coeffs), con.relation, _Q(con.bound)) for con in lp.constraints]
    objective = expand(lp.objective)
    status, tableau, basis, _, _ = _two_phase(rows, objective)
    if status is not LpStatus.OPTIMAL:
        return LpOutcome(status)

    values = _basic_values(tableau, basis, len(objective))
    if lp.nonnegative:
        point = tuple(_to_fraction(v) for v in values)
    else:
        point = tuple(
            _to_fraction(values[2 * j] - values[2 * j + 1]) for j in range(n)
        )
    value = sum(c * x for c, x in zip(lp.objective, point))
    if not satisfies(lp, point):
        raise InternalVerificationError("simplex returned an infeasible point")
    return LpOutcome(LpStatus.OPTIMAL, Fraction(value), point)


def _solve_dual(lp: LinearProgram) -> LpOutcome | None:
    """Solve max c.x, Ax <= b, x >= 0 (each '>=' row negated into this
    form) through its dual min b.y, A^T y >= c, y >= 0: one tableau row per
    variable instead of one per constraint.

    Returns None when the dual is infeasible: the primal is then infeasible
    or unbounded, and only the primal routine tells which.
    """
    sign = [-1 if con.relation == GEQ else 1 for con in lp.constraints]
    a = [[_Q(s * c) for c in con.coeffs] for s, con in zip(sign, lp.constraints)]
    b = [_Q(s * con.bound) for s, con in zip(sign, lp.constraints)]
    rows = [([row[j] for row in a], GEQ, _Q(c)) for j, c in enumerate(lp.objective)]
    status, tableau, basis, slack_of, ray_col = _two_phase(rows, [-v for v in b])
    if status is LpStatus.INFEASIBLE:
        return None
    nrows = len(b)
    if status is LpStatus.UNBOUNDED:
        # The dual objective falls without bound along this column; the
        # multiplier part of the direction is a Farkas ray for the primal.
        ray = [_Q(0)] * nrows
        if ray_col < nrows:
            ray[ray_col] = _Q(1)
        for i, bcol in enumerate(basis):
            if bcol < nrows:
                ray[bcol] = -tableau[i][ray_col]
        return LpOutcome(
            LpStatus.INFEASIBLE, certificate=tuple(_to_fraction(v) for v in ray)
        )

    y = tuple(_to_fraction(v) for v in _basic_values(tableau, basis, nrows))
    # x_j is the dual's shadow price of row j: the reduced cost of that
    # row's slack or surplus column in the final objective row.
    point = tuple(_to_fraction(tableau[-1][col]) for col in slack_of)
    value = Fraction(sum(c * x for c, x in zip(lp.objective, point)))
    if not satisfies(lp, point):
        raise InternalVerificationError("simplex returned an infeasible point")
    # c.x == b.y with x and y both feasible proves both optimal.
    if value != sum(s * con.bound * v for s, con, v in zip(sign, lp.constraints, y)):
        raise InternalVerificationError("primal and dual optima differ")
    return LpOutcome(LpStatus.OPTIMAL, value, point, y)


def solve(lp: LinearProgram) -> LpOutcome:
    """Exact two-phase simplex.  Deterministic for identical inputs.

    A tall LP (nonnegative, no '=' rows, more rows than variables) is
    solved through its dual, on the smaller tableau; every other LP, and a
    tall one whose dual is infeasible, is solved as given.
    """
    lp.validate()
    if (
        lp.nonnegative
        and len(lp.constraints) > len(lp.variables)
        and all(con.relation != EQ for con in lp.constraints)
    ):
        outcome = _solve_dual(lp)
        if outcome is not None:
            return outcome
    return _solve_primal(lp)


def _to_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    return Fraction(int(v.numerator), int(v.denominator))

"""Exact solver of the search's deviation LPs: an integer revised dual simplex.

``search.build_deviation_lp`` writes one LP per cluster type: maximise delta
over nonnegative x1..xq, delta subject first to the q+1 structural rows
(``structural_rows``: x1, each gap x_{l+1} - x_l and 1 - xq are >= delta),
then to one inequality row per deviation.  ``solve`` refuses any other LP.

It solves the dual, min b.y subject to A^T y >= c, y >= 0, with each row in
its '<=' form (a '>=' row negated) scaled to integers.  The structural rows
are a dual-feasible basis B in closed form (every multiplier 1/(q+1), and
the primal point is the evenly spaced profile), so there is no phase 1.
The solver keeps only the integer matrix M = d B^-1 and the last pivot d,
from d = q+1, and updates them fraction-free (Bareiss): the pivot row r
stays and every other row becomes (alpha_r M_i - alpha_i M_r) / d, an exact
division; alpha_r is the next d.  Bland's rule prices the multiplier
columns in row order, then the surplus columns, and enters the first with a
negative reduced cost: a violated row, or a negative coordinate of the point
P/d, P = M^T b_B.  The ratio test cross-multiplies and breaks ties on the
smallest basic index.

An optimal point is re-substituted into every row and its value must equal
b.y for the dual optimum y returned with it, which proves both optimal; an
infeasible LP returns a Farkas ray.  ``certifies`` checks either from the
LP's rows alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatchError, InternalVerificationError

__all__ = [
    "Relation",
    "Constraint",
    "LinearProgram",
    "LpStatus",
    "LpOutcome",
    "structural_rows",
    "solve",
    "satisfies",
    "certifies",
    "dump_text",
]

LEQ = "<="
GEQ = ">="
Relation = str

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: Relation
    bound: Fraction

    def __post_init__(self) -> None:
        if self.relation not in (LEQ, GEQ):
            raise DimensionMismatchError(f"bad relation {self.relation!r}")


@dataclass
class LinearProgram:
    """maximise objective . x over x >= 0 subject to the constraints."""

    variables: tuple[str, ...]
    objective: tuple[Fraction, ...]
    constraints: list[Constraint] = field(default_factory=list)

    def add(self, coeffs, relation: Relation, bound) -> None:
        self.constraints.append(
            Constraint(tuple(Fraction(c) for c in coeffs), relation, Fraction(bound))
        )


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpOutcome:
    """Status, optimum, optimal point and a certificate: one multiplier per
    constraint, taken with the row in its '<=' form (a '>=' row negated).
    At OPTIMAL it is a dual optimum y, at INFEASIBLE a Farkas ray;
    ``certifies`` checks either exactly."""

    status: LpStatus
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


def structural_rows(q: int) -> list[Constraint]:
    """The first q+1 rows of a deviation LP over x1..xq, delta: x1 >= delta,
    x_{l+1} - x_l >= delta for each neighbouring pair, and 1 - xq >= delta."""
    rows = []
    for l in range(q + 1):
        coeffs = [ZERO] * q + [-ONE]
        if l < q:
            coeffs[l] = ONE
        if l > 0:
            coeffs[l - 1] = -ONE
        rows.append(Constraint(tuple(coeffs), GEQ, -ONE if l == q else ZERO))
    return rows


def satisfies(lp: LinearProgram, point) -> bool:
    """Exact check that a point meets every constraint."""
    for row in lp.constraints:
        lhs = sum(c * x for c, x in zip(row.coeffs, point))
        if lhs > row.bound if row.relation == LEQ else lhs < row.bound:
            return False
    return True


def certifies(lp: LinearProgram, outcome: LpOutcome) -> bool:
    """Exact check that ``outcome.certificate`` proves the outcome, by weak
    duality.

    With rows a_i.x <= b_i and multipliers y >= 0, every feasible x >= 0
    has c.x <= (A^T y).x <= b.y whenever A^T y >= c: at OPTIMAL, b.y equal
    to the optimum proves no point does better.  At INFEASIBLE, A^T y >= 0
    and b.y < 0 would give 0 <= y.Ax <= b.y < 0, so no point exists.
    """
    y = outcome.certificate
    if y is None or len(y) != len(lp.constraints) or any(v < 0 for v in y):
        return False
    # A certificate from ``solve`` has at most q+2 nonzero multipliers.
    signed = [(-v if row.relation == GEQ else v, row) for v, row in zip(y, lp.constraints) if v]
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


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve a deviation LP exactly (see the module docstring); raise
    DimensionMismatchError for an LP of any other form.  Deterministic."""
    n = len(lp.variables)
    q = n - 1
    if (
        q < 1
        or lp.objective != (ZERO,) * q + (ONE,)
        or lp.constraints[:n] != structural_rows(q)
        or any(len(c.coeffs) != n for c in lp.constraints)
    ):
        raise DimensionMismatchError(
            "not a deviation LP: need objective delta, the structural rows "
            "first and rows of width len(variables)"
        )
    # Row i in its '<=' form times scale[i] is the integer row (a[i], b[i]).
    a, b, scale = [], [], []
    for con in lp.constraints:
        data = con.coeffs + (con.bound,)
        k = lcm(*[v.denominator for v in data])
        sign = -k if con.relation == GEQ else k
        ints = [v.numerator * sign // v.denominator for v in data]
        a.append(ints[:-1])
        b.append(ints[-1])
        scale.append(k)
    nrows = len(a)
    # M = (q+1) B^-1 for the structural basis: B y = v has the solution
    # (q+1) y_0 = v_delta - sum_j (q+1-j) v_j and y_j = y_{j-1} + v_j.
    inv = [[(n if i > k else 0) - (q - k) for k in range(q)] + [1] for i in range(n)]
    d = n
    basis = list(range(n))  # column j < nrows is multiplier j, else a surplus
    while True:
        cost = [b[j] if j < nrows else 0 for j in basis]
        p = [sum(c * row[k] for c, row in zip(cost, inv)) for k in range(n)]
        enter = next(
            (i for i in range(nrows) if d * b[i] < sum(map(int.__mul__, a[i], p))), None
        )
        if enter is not None:
            alpha = [sum(map(int.__mul__, row, a[enter])) for row in inv]
        else:
            k = next((k for k in range(n) if p[k] < 0), None)
            if k is None:
                break
            enter = nrows + k
            alpha = [-row[k] for row in inv]
        r = -1
        for i, ai in enumerate(alpha):
            if ai > 0:
                # The ratio rhs_i / alpha_i, rhs being M c = column delta of M.
                diff = inv[i][q] * alpha[r] - inv[r][q] * ai if r >= 0 else -1
                if diff < 0 or (diff == 0 and basis[i] < basis[r]):
                    r = i
        if r < 0:
            # The dual falls without bound along the entering column; its
            # multiplier part is a Farkas ray for the LP.
            ray = [0] * nrows
            if enter < nrows:
                ray[enter] = d
            for j, ai in zip(basis, alpha):
                if j < nrows:
                    ray[j] = -ai
            certificate = tuple(Fraction(v * k) if v else ZERO for v, k in zip(ray, scale))
            return LpOutcome(LpStatus.INFEASIBLE, certificate=certificate)
        pivot_row, ar = inv[r], alpha[r]
        inv = [
            row if i == r else [(ar * v - ai * w) // d for v, w in zip(row, pivot_row)]
            for i, (row, ai) in enumerate(zip(inv, alpha))
        ]
        d = ar
        basis[r] = enter

    point = tuple(Fraction(v, d) for v in p)
    y = [ZERO] * nrows
    for j, row in zip(basis, inv):
        if j < nrows:
            y[j] = Fraction(scale[j] * row[q], d)
    if not satisfies(lp, point):
        raise InternalVerificationError("simplex returned an infeasible point")
    # c.x == b.y with x and y both feasible proves both optimal.
    by = sum((-v if c.relation == GEQ else v) * c.bound for v, c in zip(y, lp.constraints) if v)
    if point[q] != by:
        raise InternalVerificationError("primal and dual optima differ")
    return LpOutcome(LpStatus.OPTIMAL, point[q], point, tuple(y))

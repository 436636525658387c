"""Exact solver of the search's deviation LPs: an integer revised dual simplex.

``search.build_deviation_lp`` writes one LP per cluster type: maximise delta
over nonnegative x1..xq, delta subject to integer rows (a_1, ..., a_q,
a_delta, b), each meaning a.(x, delta) <= b.  The first q+1 rows are the
structural ones (``structural_rows``: x1, each gap x_{l+1} - x_l and
1 - xq are >= delta); one row per deviation follows.  ``solve`` refuses an
LP without them.

It solves the dual, min b.y subject to A^T y >= e_delta, y >= 0.  The
structural rows are a dual-feasible basis B in closed form (every
multiplier 1/(q+1), and the primal point is the evenly spaced profile), so
there is no phase 1.  The solver keeps only the integer matrix M = d B^-1
and the last pivot d, from d = q+1, and updates them fraction-free
(Bareiss): the pivot row r stays and every other row becomes
(alpha_r M_i - alpha_i M_r) / d, an exact division; alpha_r is the next d.
Bland's rule prices the multiplier columns in row order, then the surplus
columns, and enters the first with a negative reduced cost: a violated row,
or a negative coordinate of the point P/d, P = M^T b_B.  The ratio test
cross-multiplies and breaks ties on the smallest basic index.

An optimal point is re-substituted into every row and its value must equal
b.y for the dual optimum y returned with it, which proves both optimal; an
infeasible LP returns a Farkas ray.  ``certifies`` checks either from the
LP's rows alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatchError, InternalVerificationError

__all__ = [
    "LinearProgram",
    "LpStatus",
    "LpOutcome",
    "structural_rows",
    "solve",
    "satisfies",
    "certifies",
    "dump_text",
]

ZERO = Fraction(0)


@dataclass
class LinearProgram:
    """maximise delta, the last of the variables, over nonnegative variables
    subject to the integer rows (a_1, ..., a_q, a_delta, b): a.(x, delta) <= b."""

    variables: tuple[str, ...]
    constraints: list[tuple[int, ...]] = field(default_factory=list)


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpOutcome:
    """Status, optimum, optimal point and a certificate: one multiplier per
    row.  At OPTIMAL it is a dual optimum y, at INFEASIBLE a Farkas ray;
    ``certifies`` checks either exactly."""

    status: LpStatus
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


def structural_rows(q: int) -> list[tuple[int, ...]]:
    """The first q+1 rows of a deviation LP over x1..xq, delta: x1 >= delta,
    x_{l+1} - x_l >= delta for each neighbouring pair, and 1 - xq >= delta."""
    rows = []
    for l in range(q + 1):
        row = [0] * q + [1, 1 if l == q else 0]
        if l < q:
            row[l] = -1
        if l > 0:
            row[l - 1] = 1
        rows.append(tuple(row))
    return rows


def satisfies(lp: LinearProgram, point) -> bool:
    """Exact check that a point (x, delta) meets every row."""
    return all(sum(a * x for a, x in zip(row, point)) <= row[-1] for row in lp.constraints)


def certifies(lp: LinearProgram, outcome: LpOutcome) -> bool:
    """Exact check that ``outcome.certificate`` proves the outcome, by weak
    duality.

    With rows a_i.x <= b_i and multipliers y >= 0, every feasible x >= 0
    has delta <= (A^T y).x <= b.y whenever A^T y >= e_delta: at OPTIMAL, b.y
    equal to the optimum proves no point does better.  At INFEASIBLE,
    A^T y >= 0 and b.y < 0 would give 0 <= y.Ax <= b.y < 0, so no point
    exists.
    """
    y = outcome.certificate
    if y is None or len(y) != len(lp.constraints) or any(v < 0 for v in y):
        return False
    # A certificate from ``solve`` has at most q+2 nonzero multipliers.
    used = [(v, row) for v, row in zip(y, lp.constraints) if v]
    aty = [sum(v * row[j] for v, row in used) for j in range(len(lp.variables))]
    by = sum(v * row[-1] for v, row in used)
    if outcome.status is LpStatus.OPTIMAL:
        return all(a >= 0 for a in aty) and aty[-1] >= 1 and by == outcome.value
    if outcome.status is LpStatus.INFEASIBLE:
        return all(a >= 0 for a in aty) and by < 0
    return False


def dump_text(lp: LinearProgram) -> str:
    """Plain-text debug rendering, one row per line."""

    def term(c, name):
        return f"{'+' if c >= 0 else '-'} {abs(c)}*{name}"

    lines = [f"max {lp.variables[-1]}"]
    for row in lp.constraints:
        lhs = " ".join(term(c, v) for c, v in zip(row, lp.variables) if c)
        lines.append(f"{lhs or '0'} <= {row[-1]}")
    return "\n".join(lines)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve a deviation LP exactly (see the module docstring); raise
    DimensionMismatchError for an LP of any other form.  Deterministic."""
    n = len(lp.variables)
    q = n - 1
    rows = lp.constraints
    if q < 1 or rows[:n] != structural_rows(q) or any(len(row) != n + 1 for row in rows):
        raise DimensionMismatchError(
            "not a deviation LP: need the structural rows first and rows of "
            "len(variables) coefficients and a bound"
        )
    nrows = len(rows)
    # M = (q+1) B^-1 for the structural basis: B y = v has the solution
    # (q+1) y_0 = v_delta - sum_j (q+1-j) v_j and y_j = y_{j-1} + v_j.
    inv = [[(n if i > k else 0) - (q - k) for k in range(q)] + [1] for i in range(n)]
    d = n
    basis = list(range(n))  # column j < nrows is multiplier j, else a surplus
    # Products of a row with a length-n vector stop before its bound.
    while True:
        cost = [rows[j][-1] if j < nrows else 0 for j in basis]
        p = [sum(c * row[k] for c, row in zip(cost, inv)) for k in range(n)]
        enter = next(
            (i for i, row in enumerate(rows) if d * row[-1] < sum(map(int.__mul__, row, p))),
            None,
        )
        if enter is not None:
            alpha = [sum(map(int.__mul__, row, rows[enter])) for row in inv]
        else:
            k = next((k for k in range(n) if p[k] < 0), None)
            if k is None:
                break
            enter = nrows + k
            alpha = [-row[k] for row in inv]
        r = -1
        for i, ai in enumerate(alpha):
            if ai > 0:
                # The ratio rhs_i / alpha_i, rhs being M e_delta = column delta of M.
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
            certificate = tuple([Fraction(v) if v else ZERO for v in ray])
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
            y[j] = Fraction(row[q], d)
    if not satisfies(lp, point):
        raise InternalVerificationError("simplex returned an infeasible point")
    # delta == b.y with x and y both feasible proves both optimal.
    if point[q] != sum(v * row[-1] for v, row in zip(y, rows) if v):
        raise InternalVerificationError("primal and dual optima differ")
    return LpOutcome(LpStatus.OPTIMAL, point[q], point, tuple(y))

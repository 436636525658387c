"""Exact simplex: basics, statuses, and agreement with vertex enumeration."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from scoreline import LinearProgram, LpStatus, solve
from scoreline.errors import DimensionMismatchError
from scoreline.lpcore import certifies, dump_text, satisfies

from util import brute_force_lp


def test_maximize_simple_bound():
    lp = LinearProgram(("x",), (F(1),))
    lp.add([1], "<=", 3)
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 3 and out.point == (F(3),)


def test_infeasible():
    lp = LinearProgram(("x",), (F(1),))
    lp.add([1], ">=", 1)
    lp.add([1], "<=", 0)
    assert solve(lp).status is LpStatus.INFEASIBLE


def test_unbounded():
    lp = LinearProgram(("x",), (F(1),))
    lp.add([1], ">=", 1)
    assert solve(lp).status is LpStatus.UNBOUNDED


def test_free_variables_go_negative():
    lp = LinearProgram(("x",), (F(-1),))
    lp.add([1], ">=", -5)
    out = solve(lp)
    assert out.value == 5 and out.point == (F(-5),)


def test_equality_constraints():
    lp = LinearProgram(("x", "y"), (F(1), F(1)), nonnegative=True)
    lp.add([1, 1], "=", 2)
    lp.add([1, 0], "<=", 1)
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL and out.value == 2


def test_fractional_data_stays_exact():
    lp = LinearProgram(("x", "y"), (F(1, 3), F(1, 7)), nonnegative=True)
    lp.add([F(2, 5), F(1)], "<=", F(9, 11))
    lp.add([F(1), F(-1, 2)], "<=", F(4, 13))
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert satisfies(lp, out.point)
    assert all(isinstance(v, F) for v in out.point)


def test_dimension_mismatch():
    lp = LinearProgram(("x", "y"), (F(1), F(0)))
    lp.add([1], "<=", 3)
    with pytest.raises(DimensionMismatchError):
        solve(lp)


def test_dump_text_roundtrips_content():
    lp = LinearProgram(("x", "y"), (F(1), F(2)))
    lp.add([1, -1], "<=", F(1, 2))
    text = dump_text(lp)
    assert "<= 1/2" in text and text.startswith("max")


def test_determinism():
    lp = LinearProgram(("x", "y", "z"), (F(1), F(1), F(1)), nonnegative=True)
    lp.add([1, 1, 1], "<=", 6)
    lp.add([1, -1, 0], ">=", -2)
    lp.add([0, 1, 2], "<=", 5)
    first = solve(lp)
    for _ in range(5):
        again = solve(lp)
        assert again == first


@pytest.mark.parametrize(
    "seed, tall", [(11, False), (12, False), (13, False), (14, True)],
    ids=["11", "12", "13", "tall-14"],
)
def test_agrees_with_vertex_enumeration(seed, tall):
    """On random bounded LPs (<= 4 vars, <= 12 constraints) the simplex
    optimum equals the brute-force vertex-enumeration optimum.  The tall
    instances (nonnegative, inequality rows only, more rows than variables)
    are solved through the dual and must also carry a valid certificate."""
    rng = random.Random(seed)
    for _ in range(120):
        n = rng.randint(1, 4)
        lp = LinearProgram(
            tuple(f"x{i}" for i in range(n)),
            tuple(F(rng.randint(-4, 4)) for _ in range(n)),
            nonnegative=tall,
        )
        for _ in range(rng.randint(1, 12 - 2 * n)):
            lp.add(
                [F(rng.randint(-3, 3)) for _ in range(n)],
                rng.choice(["<=", ">="] if tall else ["<=", ">=", "="]),
                F(rng.randint(-6, 6)),
            )
        for i in range(n):  # box keeps every instance bounded
            unit = [F(0)] * n
            unit[i] = F(1)
            lp.add(unit, "<=", 8)
            # In the tall case this row is x_i >= 0 made explicit, so that
            # vertex enumeration sees the nonnegativity faces.
            lp.add(unit, ">=", 0 if tall else -8)
        out = solve(lp)
        feasible, best = brute_force_lp(lp)
        if not feasible:
            assert out.status is LpStatus.INFEASIBLE
        else:
            assert out.status is LpStatus.OPTIMAL
            assert out.value == best
            assert satisfies(lp, out.point)
        assert certifies(lp, out) is tall


def _tall(objective, *rows):
    lp = LinearProgram(tuple(f"x{i}" for i in range(len(objective))),
                       tuple(map(F, objective)), nonnegative=True)
    for coeffs, relation, bound in rows:
        lp.add(coeffs, relation, bound)
    return lp


def test_tall_unbounded_is_handed_to_the_primal():
    # The dual is infeasible, so only the primal tells unbounded from
    # infeasible.
    lp = _tall((1, 1), ([1, -1], "<=", 1), ([-1, 1], "<=", 1), ([1, 0], ">=", 0))
    out = solve(lp)
    assert out.status is LpStatus.UNBOUNDED and out.certificate is None


def test_tall_infeasible_with_infeasible_dual_is_handed_to_the_primal():
    lp = _tall((1, 1), ([1, -1], "<=", -1), ([-1, 1], "<=", -1), ([-1, 0], "<=", 0))
    out = solve(lp)
    assert out.status is LpStatus.INFEASIBLE and out.certificate is None


def test_tall_infeasible_carries_a_farkas_ray():
    lp = _tall((1, 0), ([1, 1], ">=", 3), ([1, 0], "<=", 1), ([0, 1], "<=", 1))
    out = solve(lp)
    assert out.status is LpStatus.INFEASIBLE
    assert certifies(lp, out)


def test_tampered_certificate_is_rejected():
    lp = _tall((1, 2), ([1, 1], "<=", 4), ([1, 0], "<=", 3), ([0, 1], ">=", 1))
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL and out.value == 8
    assert certifies(lp, out)
    y = out.certificate
    for bad in (
        replace(out, certificate=(y[0] - F(1, 2),) + y[1:]),  # A^T y < c
        replace(out, certificate=(y[0] + 1,) + y[1:]),  # b.y above the optimum
        replace(out, certificate=y[:-1]),  # wrong length
        replace(out, certificate=(-y[0],) + y[1:]),  # negative multiplier
        replace(out, value=out.value - 1),  # claimed optimum not certified
    ):
        assert not certifies(lp, bad)

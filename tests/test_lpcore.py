"""Exact deviation-LP solver: statuses, certificates, refusal of other LPs,
and agreement with vertex enumeration."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from scoreline import ClusterType, LinearProgram, LpStatus, build_deviation_lp, parse_rule, solve
from scoreline.errors import DimensionMismatchError
from scoreline.lpcore import certifies, dump_text, satisfies, structural_rows

from util import brute_force_lp, random_rule


def _deviation_lp(q, *rows):
    """The structural rows, then the integer rows (a_1, ..., a_q, a_delta, b)."""
    return LinearProgram(
        tuple(f"x{i + 1}" for i in range(q)) + ("delta",), structural_rows(q) + list(rows)
    )


def test_maximize_simple_bound():
    lp = _deviation_lp(1, (3, 0, 1))  # 3 x1 <= 1
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == F(1, 3) and out.point == (F(1, 3), F(1, 3))
    assert certifies(lp, out)


def test_infeasible():
    lp = _deviation_lp(1, (0, -2, -1), (4, 0, 1))  # delta >= 1/2, x1 <= 1/4
    out = solve(lp)
    assert out.status is LpStatus.INFEASIBLE
    assert certifies(lp, out)


def test_nonnegativity_holds_without_a_row_for_it():
    """Without the row delta >= 0 the rows alone allow x1 = delta = -1, but
    LP variables are nonnegative, so this LP is infeasible: the solver's
    surplus columns, not the rows, exclude the negative point."""
    lp = _deviation_lp(1, (1, 0, -1))
    out = solve(lp)
    assert out.status is LpStatus.INFEASIBLE
    assert certifies(lp, out)


def test_fractional_data_stays_exact():
    """A rule with rational scores gets integer rows over a common
    denominator that clears its score denominators; they equal the rows of
    its canonical integer form (gcd 1), and are solved exactly."""
    raw = parse_rule("7/2,1,1/3,0")
    canon = parse_rule("21,6,2,0")
    for parts in [(4,), (1, 3), (2, 2), (3, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]:
        lp = build_deviation_lp(raw, ClusterType(parts))
        assert lp.constraints == build_deviation_lp(canon, ClusterType(parts)).constraints
        out = solve(lp)
        assert certifies(lp, out)
        if out.status is LpStatus.OPTIMAL:
            assert satisfies(lp, out.point)
            assert all(isinstance(v, F) for v in out.point)
        ref = solve(build_deviation_lp(canon, ClusterType(parts)))
        assert (out.status, out.value) == (ref.status, ref.value)


def test_dimension_mismatch():
    lp = _deviation_lp(1, (1, 3))
    with pytest.raises(DimensionMismatchError):
        solve(lp)


@pytest.mark.parametrize(
    "lp",
    [
        LinearProgram(("x",), [(1, 3)]),
        LinearProgram(("x", "delta"), structural_rows(1)[:1]),
        LinearProgram(("x", "delta"), structural_rows(1)[::-1]),
        LinearProgram(("x", "y", "delta"), structural_rows(1)),
    ],
    ids=["one-variable", "missing-row", "row-order", "wrong-q"],
)
def test_solve_refuses_non_deviation_lp(lp):
    with pytest.raises(DimensionMismatchError):
        solve(lp)


def test_dump_text_roundtrips_content():
    lp = _deviation_lp(1, (2, -1, 1))
    text = dump_text(lp)
    assert text.startswith("max delta")
    assert "+ 2*x1 - 1*delta <= 1" in text and text.count("\n") == len(lp.constraints)


def test_determinism():
    rule = parse_rule("3,1,1,1,1,1,1,0")
    for parts in [(2, 2, 2, 2), (2, 1, 1, 1, 1, 2), (1, 1, 2, 2, 2), (3, 5)]:
        first = solve(build_deviation_lp(rule, ClusterType(parts)))
        for _ in range(3):
            assert solve(build_deviation_lp(rule, ClusterType(parts))) == first


@pytest.mark.parametrize("seed", [14], ids=["tall-14"])
def test_agrees_with_vertex_enumeration(seed):
    """On the deviation LPs of every q <= 2 type of seeded rules with
    m = 3..6 (q = 1 included), status and optimum equal the brute-force
    vertex-enumeration answer, an optimal point satisfies every row, and
    every negative answer (infeasible or gap <= 0) carries a certificate
    that checks.  The structural rows bound every position to [0, 1], so
    every feasible region is a polytope."""
    rng = random.Random(seed)
    kinds = set()
    for _ in range(24):
        rule = random_rule(rng, rng.randint(3, 6), top=rng.choice([3, 12]))
        m = rule.m
        for parts in [(m,)] + [(k, m - k) for k in range(1, m)]:
            lp = build_deviation_lp(rule, ClusterType(parts))
            out = solve(lp)
            feasible, best = brute_force_lp(lp)
            if not feasible:
                assert out.status is LpStatus.INFEASIBLE
                kinds.add("infeasible")
            else:
                assert out.status is LpStatus.OPTIMAL
                assert out.value == best
                assert satisfies(lp, out.point)
                kinds.add("positive" if best > 0 else "zero")
            if out.status is LpStatus.INFEASIBLE or out.value <= 0:
                assert certifies(lp, out)
    assert kinds == {"infeasible", "positive", "zero"}


def test_tall_infeasible_carries_a_farkas_ray():
    lp = build_deviation_lp(parse_rule("1,0,0,0"), ClusterType((1, 3)))
    out = solve(lp)
    assert out.status is LpStatus.INFEASIBLE and out.point is None
    assert certifies(lp, out)
    assert not certifies(lp, replace(out, certificate=tuple(F(0) for _ in out.certificate)))
    assert not certifies(lp, replace(out, status=LpStatus.OPTIMAL))


def test_tampered_certificate_is_rejected():
    lp = build_deviation_lp(parse_rule("1,0,0,0"), ClusterType((2, 2)))
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL and out.value == F(1, 4)
    assert certifies(lp, out)
    y = out.certificate
    zero = y.index(0)
    for bad in (
        replace(out, certificate=tuple(v / 2 for v in y)),  # A^T y < c
        replace(out, certificate=tuple(v * 2 for v in y)),  # b.y above the optimum
        replace(out, certificate=y[:-1]),  # wrong length
        replace(out, certificate=y[:zero] + (F(-1),) + y[zero + 1 :]),  # negative multiplier
        replace(out, value=out.value - 1),  # claimed optimum not certified
    ):
        assert not certifies(lp, bad)

"""The benchmark workloads: seeded inputs, one operation, output checks.

Every workload is a list of items, each one call into the program made in
this process with ``jobs=1``.  An item completes ``ops`` operations: one
cluster type decided for ``find-ncne``, one rule scanned for ``scan`` and
one profile certified for the oracle.  The checks run after the timed
passes and return how many of an item's operations failed.  They pin
conclusions, never witness coordinates or JSON bytes, since a different
LP method may legitimately return a different optimal vertex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs


@dataclass
class Item:
    argv: list[str]
    ops: int = 1
    rule: object = None  # parsed rule and profile for the oracle's score_pieces
    profile: object = None
    must_be_equilibrium: bool = False
    key: str = ""  # what the item computes, for the input digest
    file_text: str | None = None  # contents of the rules file the argv names

    def __post_init__(self) -> None:
        self.key = self.key or " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, Path], list[Item]]
    check: Callable[[Item, dict], int]
    layers: tuple[str, ...]  # spans that must fire in a traced run


def run_item(item: Item) -> int:
    """One call into the program.  Layers are looked up at call time so
    that a traced run sees its wrappers."""
    from scoreline import cli, profiles

    code = cli.main(item.argv)
    if item.profile is not None:
        for k in range(item.profile.q):
            profiles.score_pieces(item.profile, item.rule, k)
    return code


def _find_ncne_item(rule: str, *flags: str) -> Item:
    m = len(rule.split(","))
    return Item(["find-ncne", *flags, "--rule", rule], ops=2 ** (m - 1) - 1)


# Flat-middle rule of criterion 2, two candidates shorter.  m = 6 keeps the
# unpruned search (31 LPs, about 4.5 s) short enough for several passes per
# run, which the timings need on a machine whose speed drifts; m = 7 takes
# about 20 s and m = 8 50-66 s.  The mix of optimal and infeasible LPs is
# about the same.  Its equilibrium types were recorded on the original code.
UNPRUNED_RULE = "3,1,1,1,1,0"
UNPRUNED_TYPES = {(2, 2, 2), (2, 1, 1, 2)}

# m = 16 with a leading plateau of 8: the plateau theorem prunes all 32,767
# types with q >= 2, so no LP is solved and enumeration, pruning and output
# rendering are all the work there is.
WIDE_RULE = "5,5,5,5,5,5,5,5,4,3,2,1,1,0,0,0"

SCAN_RULES_PER_CELL = 4  # per impossibility class and m in 4..8
SCAN_REFERENCE = 200  # rules per cell in the sample that fixes the quotas
ORACLE_ROUNDS = 3  # each round is one pair per (m, q), m in 4..12, q <= 5

# Criterion 1 and criterion 7 equilibria; the oracle must certify both.
KNOWN_EQUILIBRIA = (
    ("4,4,4,3,3,3,2,1,1,0,0,0", "13/28*8;41/84*4"),
    ("10,10,4,3,3,1,0", "1/3*4;2/3*3"),
)


def _make_ncne_unpruned(seed: int, workdir: Path) -> list[Item]:
    return [_find_ncne_item(UNPRUNED_RULE, "--no-prune")]


def _make_ncne_wide(seed: int, workdir: Path) -> list[Item]:
    return [_find_ncne_item(WIDE_RULE)]


def _scan_quotas(generate, m: int) -> dict[tuple, int]:
    """How many of a cell's rules have each prune signature: the shares in a
    fixed reference sample, rounded by largest remainder.  Signatures too
    rare for one slot drop out."""
    rng = random.Random(f"reference {m}")
    shares: dict[tuple, int] = {}
    for _ in range(SCAN_REFERENCE):
        sig = inputs.prune_signature(generate(rng, m))
        shares[sig] = shares.get(sig, 0) + 1
    exact = {sig: n * SCAN_RULES_PER_CELL / SCAN_REFERENCE for sig, n in shares.items()}
    quotas = {sig: int(x) for sig, x in exact.items()}
    by_remainder = sorted(exact, key=lambda sig: (quotas[sig] - exact[sig], sig))
    for sig in by_remainder[: SCAN_RULES_PER_CELL - sum(quotas.values())]:
        quotas[sig] += 1
    return quotas


def _make_scan(seed: int, workdir: Path) -> list[Item]:
    """The same number of rules in every impossibility class and every m.
    A rule's search cost follows how many cluster types survive the
    per-type prune tests, which a few score features decide, so each cell
    also holds a fixed number of rules per such prune signature.  Seeds
    then differ in rules but hardly in LP load."""
    rng = random.Random(seed)
    items = []
    for name, generate in inputs.IMPOSSIBILITY_CLASSES:
        for m in range(4, 9):
            quotas = _scan_quotas(generate, m)
            while any(quotas.values()):
                scores = generate(rng, m)
                sig = inputs.prune_signature(scores)
                if not quotas.get(sig):
                    continue
                quotas[sig] -= 1
                text = inputs.rule_text(scores)
                path = workdir / f"rule-{len(items):04d}.txt"
                items.append(Item(["scan", "--rules-file", str(path)], key=f"scan {text}",
                                  file_text=f"# {name}\n{text}\n"))
    return items


def write_files(items: list[Item]) -> None:
    for item in items:
        if item.file_text is not None:
            path = Path(item.argv[-1])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(item.file_text)


def _make_oracle(seed: int, workdir: Path) -> list[Item]:
    """Random (rule, profile) pairs stratified over m and q, plus the two
    known equilibria."""
    from scoreline import make_profile, parse_rule

    rng = random.Random(seed)
    pairs = [(rule, prof, True) for rule, prof in KNOWN_EQUILIBRIA]
    for r in range(ORACLE_ROUNDS):
        for m in range(4, 13):
            for q in range(1, min(5, m) + 1):
                rule = inputs.rule_text(inputs.random_rule(rng, m))
                prof = inputs.profile_text(inputs.random_profile(rng, m, q))
                pairs.append((rule, prof, False))
    items = []
    for rule_text, profile_text, known in pairs:
        rule = parse_rule(rule_text)
        entries = [(Fraction(p), int(c)) for p, c in
                   (chunk.split("*") for chunk in profile_text.split(";"))]
        items.append(Item(["verify", "--rule", rule_text, "--profile", profile_text],
                          rule=rule, profile=make_profile(entries, rule),
                          must_be_equilibrium=known))
    return items


def _witness(entries):
    from scoreline import Cluster, Profile

    return Profile(tuple(Cluster(Fraction(e["position"]), e["count"]) for e in entries))


def _check_ncne_unpruned(item: Item, doc: dict) -> int:
    """Equilibrium types equal the recorded set and every witness passes
    the independent oracle again."""
    from scoreline import ScoringRule, Status, verify_profile

    result = doc["result"]
    types = result["types"]
    if len(types) != item.ops or {tuple(t) for t in result["ncne_types"]} != UNPRUNED_TYPES:
        return item.ops
    rule = ScoringRule(tuple(Fraction(s) for s in doc["rule"]["canonical"]))
    failed = 0
    for t in types:
        ok = t["lp_status"] is not None and t["is_equilibrium"] == (
            tuple(t["type"]) in UNPRUNED_TYPES
        )
        if ok and t["is_equilibrium"]:
            report = verify_profile(rule, _witness(t["witness"]))
            ok = report.status is Status.EQUILIBRIUM
        failed += not ok
    return failed


def _check_ncne_wide(item: Item, doc: dict) -> int:
    """By the leading-plateau theorem: no equilibrium type, every type
    pruned, no LP solved."""
    result = doc["result"]
    types = result["types"]
    if len(types) != item.ops or result["ncne_types"]:
        return item.ops
    return sum(
        not (t["pruned"] and t["lp_status"] is None and not t["is_equilibrium"])
        for t in types
    )


def _check_scan(item: Item, doc: dict) -> int:
    rows = doc["rules"]
    return int(len(rows) != 1 or rows[0]["ncne_types"] != [])


def _check_oracle(item: Item, doc: dict) -> int:
    """Scores handed out add up to the rule's total, and the known
    equilibria are certified."""
    result = doc["result"]
    counts = [c["count"] for c in result["profile"]]
    handed_out = sum(Fraction(s) * n for s, n in zip(result["cluster_scores"], counts))
    ok = len(counts) == len(result["cluster_scores"]) and handed_out == sum(
        item.rule.scores
    )
    if item.must_be_equilibrium:
        ok = ok and result["status"] == "equilibrium"
    return int(not ok)


_SEARCH = ("cli", "rulekit", "search.find_ncne", "search.enumerate")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ncne-unpruned", _make_ncne_unpruned, _check_ncne_unpruned,
            _SEARCH + ("search.build", "lpcore.solve", "verify.verify_profile"),
        ),
        Workload(
            "ncne-wide", _make_ncne_wide, _check_ncne_wide,
            _SEARCH + ("analytic.prune",),
        ),
        Workload(
            "scan-impossible", _make_scan, _check_scan,
            _SEARCH + ("analytic.prune", "search.build", "lpcore.solve",
                       "analytic.verdicts"),
        ),
        Workload(
            "oracle", _make_oracle, _check_oracle,
            ("cli", "rulekit", "verify.verify_profile", "profiles.score_pieces"),
        ),
    )
}

"""Command-line interface.

Every command prints a single JSON document to stdout (CSV is available
for the tabular commands).  All numbers are serialised as exact fraction
strings like ``"13/28"``; nothing is ever rounded.  Exit codes: 0 on
success, 2 on invalid input or when stdout is closed before the output is
written (say by ``| head``; no traceback is printed), 3 when a computed
witness fails the independent oracle (which indicates a bug, not bad
input).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from . import analytic, search, verify
from .errors import InternalVerificationError, ScorelineError, TooManyCandidatesError
from .profiles import (
    AtCluster,
    FreePoint,
    LeftLimit,
    Profile,
    RightLimit,
    make_profile,
)
from .rulekit import (
    ScoringRule,
    canonicalize,
    classify,
    cox_threshold,
    parse_number,
    parse_rule,
    plateaus,
    shape_profile,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# verify --grid N probes N + 1 free points per mover, each an exact oracle
# evaluation and a ledger entry.  N = 10^4 takes about 1.6 s on a
# two-cluster profile at m = 4, but the worst profile verify admits, 20
# singletons, has 20 movers and costs far more per probe: N = 1000 on
# 1,0,...,0 at i/21 takes about 17 s, so N = 10^4 takes minutes (Python
# 3.11, 2-CPU VM).
MAX_GRID = 10_000


def _interval_doc(iv: analytic.Interval | None):
    if iv is None:
        return None
    return {
        "lower": str(iv.lower),
        "upper": str(iv.upper),
        "lower_closed": iv.lower_closed,
        "upper_closed": iv.upper_closed,
        "empty": iv.is_empty,
    }


def _profile_doc(profile: Profile):
    return [
        {"position": str(c.position), "count": c.count} for c in profile.clusters
    ]


def _target_doc(target) -> dict:
    if isinstance(target, FreePoint):
        return {"kind": "free-point", "point": str(target.point)}
    kind = {
        AtCluster: "join-cluster",
        LeftLimit: "left-limit",
        RightLimit: "right-limit",
    }[type(target)]
    return {"kind": kind, "cluster": target.cluster}


def _verdict_doc(v: analytic.Verdict):
    doc = {"conclusion": v.conclusion.value, "reason": v.reason}
    if v.witness is not None:
        doc["witness"] = _profile_doc(v.witness)
    if v.interval is not None:
        doc["interval"] = _interval_doc(v.interval)
    if v.details:
        doc["details"] = {
            k: str(val) if isinstance(val, Fraction) else val
            for k, val in v.details.items()
        }
    return doc


def _report_doc(report: verify.EquilibriumReport):
    return {
        "status": report.status.value,
        "cluster_scores": [str(s) for s in report.cluster_scores],
        "violations": len(report.violations),
        "ledger": [
            {
                "mover_cluster": e.mover,
                "target": _target_doc(e.target),
                "score": str(e.score),
                "slack": str(e.slack),
            }
            for e in report.ledger
        ],
    }


def _rule_doc(raw: str, rule: ScoringRule):
    return {
        "input": raw,
        "canonical": [str(s) for s in canonicalize(rule).scores],
        "m": rule.m,
    }


def _envelope(command: str, rule_doc, result) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "rule": rule_doc,
        "result": result,
    }


def _profile_svg(profile: Profile) -> str:
    """Number-line diagram: one dot per cluster, radius scaled by count."""
    width, height, margin = 800, 160, 60
    axis_y = height - 50

    def sx(frac: Fraction) -> float:
        return margin + float(frac) * (width - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line x1="{margin}" y1="{axis_y}" x2="{width - margin}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for label, frac in (("0", Fraction(0)), ("1/2", Fraction(1, 2)), ("1", Fraction(1))):
        x = sx(frac)
        parts.append(
            f'<line x1="{x:.1f}" y1="{axis_y - 4}" x2="{x:.1f}" y2="{axis_y + 4}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y + 20}" font-size="11" '
            f'text-anchor="middle">{label}</text>'
        )
    for c in profile.clusters:
        x = sx(c.position)
        r = 4 + 3 * c.count
        parts.append(
            f'<circle cx="{x:.1f}" cy="{axis_y}" r="{r}" fill="steelblue" '
            'fill-opacity="0.6" stroke="navy"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y - r - 16}" font-size="11" '
            f'text-anchor="middle">{c.position}</text>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y - r - 4}" font-size="11" '
            f'text-anchor="middle">n={c.count}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_svg(path: str | None, profile: Profile | None) -> None:
    if path and profile is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_profile_svg(profile))


class _TypeEntries:
    """The ``types`` array of a search result, written one entry at a time
    by :func:`_write_json`.  A search reports all 2^(m-1) types, so at large
    m nearly every entry is a pruned type with one of a few tails."""

    def __init__(self, outcomes: tuple[search.TypeOutcome, ...]) -> None:
        self.outcomes = outcomes

    def rendered(self):
        """Each entry as ``json.dump(document, indent=2)`` prints it, at
        depth 3.  Everything after ``"type"`` is rendered by the json module
        once per distinct value and re-indented, so it does all escaping."""
        tails: dict[tuple, str] = {}
        for o in self.outcomes:
            status = o.lp_outcome.status.value if o.lp_outcome else None
            key = (o.pruned, o.prune_reasons, status, o.gap, o.witness)
            tail = tails.get(key)
            if tail is None:
                text = json.dumps(
                    {
                        "pruned": o.pruned,
                        "prune_reasons": list(o.prune_reasons),
                        "lp_status": status,
                        "gap": str(o.gap) if o.gap is not None else None,
                        "witness": _profile_doc(o.witness) if o.witness else None,
                        "is_equilibrium": o.is_equilibrium,
                    },
                    indent=2,
                )
                # Drop the braces and move the keys from depth 1 to depth 4.
                tail = tails[key] = text[1:-2].replace("\n", "\n      ")
            yield (
                '{\n        "type": [\n          '
                + ",\n          ".join(map(str, o.ctype.parts))
                + "\n        ]," + tail + "\n      }"
            )


def _search_result_doc(result: search.SearchResult):
    return {
        "ncne_types": [list(t.parts) for t in result.ncne_types],
        "cne_interval": _interval_doc(result.cne),
        "types": _TypeEntries(result.outcomes),
    }


def _search_csv(result: search.SearchResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["type", "pruned", "prune_reasons", "lp_status", "gap", "witness", "is_equilibrium"]
    )
    for o in result.outcomes:
        writer.writerow(
            [
                "|".join(str(p) for p in o.ctype.parts),
                o.pruned,
                ";".join(o.prune_reasons),
                o.lp_outcome.status.value if o.lp_outcome else "",
                str(o.gap) if o.gap is not None else "",
                str(o.witness) if o.witness else "",
                o.is_equilibrium,
            ]
        )
    return buf.getvalue()


def _cmd_classify(args) -> tuple[int, dict]:
    rule = parse_rule(args.rule)
    rc = classify(rule)
    shape = shape_profile(rule)
    k, n = plateaus(rule)
    return EXIT_OK, _envelope(
        "classify",
        _rule_doc(args.rule, rule),
        {
            "class": rc.category.value,
            "threshold": str(rc.threshold),
            "shape": {
                "convex": shape.convex,
                "concave": shape.concave,
                "weakly_concave": shape.weakly_concave,
                "symmetric": shape.symmetric,
                "tail_balance": shape.tail_balance,
            },
            "leading_plateau": k,
            "trailing_plateau_start": n,
        },
    )


def _cmd_cne(args) -> tuple[int, dict]:
    rule = parse_rule(args.rule)
    return EXIT_OK, _envelope(
        "cne",
        _rule_doc(args.rule, rule),
        {"interval": _interval_doc(analytic.cne_interval(rule))},
    )


def _cmd_bounds(args) -> tuple[int, dict]:
    rule = parse_rule(args.rule)
    b = analytic.structural_bounds(rule)
    return EXIT_OK, _envelope(
        "bounds",
        _rule_doc(args.rule, rule),
        {
            "max_gap": str(b.max_gap),
            "min_positions": b.min_positions,
            "forbidden_center": _interval_doc(b.forbidden_center),
            "verdicts": [_verdict_doc(v) for v in analytic.impossibility_verdicts(rule)],
        },
    )


def _cmd_find_ncne(args) -> tuple[int, dict]:
    rule = parse_rule(args.rule)
    options = search.SearchOptions(
        prune=not args.no_prune,
        include_single_cluster=args.include_cne,
    )
    result = search.find_ncne(rule, options)
    witnesses = result.witnesses()
    _write_svg(args.svg, witnesses[0] if witnesses else None)
    if args.csv:
        return EXIT_OK, {"csv": _search_csv(result)}
    return EXIT_OK, _envelope(
        "find-ncne", _rule_doc(args.rule, rule), _search_result_doc(result)
    )


def _cmd_verify(args) -> tuple[int, dict]:
    rule = parse_rule(args.rule)
    profile = _parse_profile(args.profile, rule)
    if rule.m > search.MAX_M:
        raise TooManyCandidatesError(
            f"{rule.m} candidates is above the verify limit of {search.MAX_M} "
            "(the oracle sorts every candidate in each of the O(m^2) cells of "
            "every deviation, so its time grows steeply with m)"
        )
    if args.grid is not None:
        report = verify.grid_cross_check(rule, profile, args.grid)
    else:
        report = verify.verify_profile(rule, profile)
    _write_svg(args.svg, profile)
    return EXIT_OK, _envelope(
        "verify",
        _rule_doc(args.rule, rule),
        {"profile": _profile_doc(profile), **_report_doc(report)},
    )


def _cmd_characterize(args) -> tuple[int, dict]:
    rule = parse_rule(args.rule)
    verdict = analytic.characterize_small_election(rule)
    _write_svg(args.svg, verdict.witness)
    return EXIT_OK, _envelope(
        "characterize", _rule_doc(args.rule, rule), _verdict_doc(verdict)
    )


def _cmd_bipositional(args) -> tuple[int, dict]:
    rule = parse_rule(args.rule)
    solved = analytic.bipositional_solve(rule)
    if solved is None:
        result = {"exists": False}
        witness = None
    else:
        rng, witness = solved
        result = {
            "exists": True,
            "x1_range": _interval_doc(rng),
            "witness": _profile_doc(witness),
        }
    _write_svg(args.svg, witness)
    return EXIT_OK, _envelope("bipositional", _rule_doc(args.rule, rule), result)


def _cmd_multipositional(args) -> tuple[int, dict]:
    rule = parse_rule(args.rule)
    profile = analytic.multipositional_construct(rule, args.q, args.r)
    if profile is None:
        result = {"exists": False}
    else:
        result = {
            "exists": True,
            "witness": _profile_doc(profile),
            "conditions_hold": analytic.multipositional_check(rule, profile),
        }
    _write_svg(args.svg, profile)
    return EXIT_OK, _envelope("multipositional", _rule_doc(args.rule, rule), result)


def _cmd_scan(args) -> tuple[int, dict]:
    # Every line is checked before the first search, so that a bad rule
    # late in a long file is reported at once.
    rules = []
    with open(args.rules_file, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                rule = parse_rule(text)
                search.require_searchable(rule.m)
            except ScorelineError as exc:
                raise ScorelineError(f"{args.rules_file}:{lineno}: {exc}") from exc
            rules.append((text, rule))
    rows = []
    for text, rule in rules:
        rc = classify(rule)
        result = search.find_ncne(rule)
        rows.append(
            {
                "rule": text,
                "canonical": [str(s) for s in canonicalize(rule).scores],
                "class": rc.category.value,
                "threshold": str(rc.threshold),
                "cne_interval": _interval_doc(result.cne),
                "ncne_types": [list(t.parts) for t in result.ncne_types],
                "verdicts": [
                    _verdict_doc(v) for v in analytic.impossibility_verdicts(rule)
                ],
            }
        )
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["rule", "class", "threshold", "cne", "ncne_types"])
        for r in rows:
            writer.writerow(
                [
                    r["rule"],
                    r["class"],
                    r["threshold"],
                    "" if r["cne_interval"] is None else "yes",
                    " ".join("|".join(map(str, t)) for t in r["ncne_types"]),
                ]
            )
        return EXIT_OK, {"csv": buf.getvalue()}
    return EXIT_OK, {
        "schema_version": SCHEMA_VERSION,
        "command": "scan",
        "rules": rows,
    }


def _parse_profile(text: str, rule: ScoringRule) -> Profile:
    entries = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            pos_text, count_text = chunk.split("*")
            entries.append((parse_number(pos_text.strip()), int(count_text)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ScorelineError(f"bad profile entry {chunk!r}") from exc
    return make_profile(entries, rule)


def _resolution(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"grid resolution {value} is below 2")
    if value > MAX_GRID:
        raise argparse.ArgumentTypeError(f"grid resolution {value} is above {MAX_GRID}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoreline",
        description="Exact equilibrium analysis for positional scoring rules "
        "in the unit-interval positioning game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, rule=True, svg=False):
        if rule:
            p.add_argument("--rule", required=True, help="comma-separated scores, e.g. '1,0,0,0' or '1,2/5,0,0'")
        if svg:
            p.add_argument("--svg", metavar="PATH", help="write a number-line diagram of the profile/witness")
        p.add_argument("--timing", action="store_true", help="add wall-clock timing (breaks byte-stability)")

    p = sub.add_parser("classify", help="rule class, threshold and score shape")
    add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("cne", help="single-cluster equilibrium interval")
    add_common(p)
    p.set_defaults(func=_cmd_cne)

    p = sub.add_parser("bounds", help="structural bounds and impossibility verdicts")
    add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "find-ncne", help=f"LP search over all cluster types, at most {search.MAX_M} candidates"
    )
    add_common(p, svg=True)
    p.add_argument("--csv", action="store_true", help="CSV output, one row per type")
    p.add_argument("--no-prune", action="store_true", help="solve every type, skipping the prune tests")
    p.add_argument("--include-cne", action="store_true", help="also solve the single-cluster type")
    p.set_defaults(func=_cmd_find_ncne)

    p = sub.add_parser("verify", help="certify or refute a profile")
    add_common(p, svg=True)
    p.add_argument("--profile", required=True, help="semicolon-separated position*count, e.g. '13/28*8;41/84*4'")
    p.add_argument("--grid", type=_resolution, metavar="N", help=f"additionally probe free points k/N, 2 <= N <= {MAX_GRID}")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("characterize", help="closed-form answer for 4-6 candidates")
    add_common(p, svg=True)
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("bipositional", help="symmetric two-cluster equilibria (even m)")
    add_common(p, svg=True)
    p.set_defaults(func=_cmd_bipositional)

    p = sub.add_parser("multipositional", help="evenly clustered equilibria for zero-tailed rules")
    add_common(p, svg=True)
    p.add_argument("--q", type=int, required=True, help="number of positions")
    p.add_argument("--r", type=int, required=True, help="candidates per position")
    p.set_defaults(func=_cmd_multipositional)

    p = sub.add_parser("scan", help="batch-analyse a file of rules")
    add_common(p, rule=False)
    p.add_argument("--csv", action="store_true", help="CSV output, one row per rule")
    p.add_argument("--rules-file", required=True, help="one rule per line, '#' comments allowed")
    p.set_defaults(func=_cmd_scan)

    return parser


def _write_json(document: dict, out) -> None:
    """``json.dump(document, out, indent=2)`` and a newline, except that a
    search result's ``types`` array is written entry by entry."""
    result = document.get("result")
    types = result.get("types") if isinstance(result, dict) else None
    if not isinstance(types, _TypeEntries):
        json.dump(document, out, indent=2)
        out.write("\n")
        return
    text = json.dumps({**document, "result": {**result, "types": []}}, indent=2)
    if not types.outcomes:
        out.write(text + "\n")
        return
    # "types" is the last key of "result", and only "timing_ms" (a number)
    # can follow "result", so the last occurrence of the key is this one.
    head, _, end = text.rpartition('"types": []')
    out.write(head + '"types": [')
    sep = "\n      "
    for entry in types.rendered():
        out.write(sep + entry)
        sep = ",\n      "
    out.write("\n    ]" + end + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code, document = args.func(args)
    except ScorelineError as exc:
        if isinstance(exc, InternalVerificationError):
            print(f"internal verification failure: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if "csv" in document and len(document) == 1:
            sys.stdout.write(document["csv"])
        else:
            if args.timing:
                document["timing_ms"] = round((time.monotonic() - started) * 1000, 3)
            _write_json(document, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``).  Point stdout at devnull so that
        # the interpreter's final flush of what is left cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())

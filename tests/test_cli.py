"""Command-line surface: JSON documents, exit codes, CSV, SVG, round-trips."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scoreline
from scoreline import cli, parse_rule, search, verify
from scoreline.cli import EXIT_USAGE, MAX_GRID, main

# Every token is short, but the canonical integers have over 5,000 digits.
_LONG_CANONICAL = ",".join(f"1/{10**89 + i}" for i in range(60)) + ",0"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects malformed options this way
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_classify(capsys):
    doc = run_json(capsys, "classify", "--rule", "1,0,0,0")
    assert doc["schema_version"] == "1"
    assert doc["result"]["class"] == "best-rewarding"
    assert doc["result"]["threshold"] == "3/4"


def test_classify_canonicalizes(capsys):
    doc = run_json(capsys, "classify", "--rule", "7,5,3,1")
    assert doc["rule"]["canonical"] == ["3", "2", "1", "0"]


def test_cne(capsys):
    doc = run_json(capsys, "cne", "--rule", "1,1,1,0")
    assert doc["result"]["interval"]["lower"] == "1/4"
    doc = run_json(capsys, "cne", "--rule", "1,0,0,0")
    assert doc["result"]["interval"] is None


def test_bounds(capsys):
    doc = run_json(capsys, "bounds", "--rule", "1,0,0,0")
    assert doc["result"]["min_positions"] == 2


@pytest.mark.parametrize("command", ["bounds", "scan"])
def test_two_candidates(tmp_path, capsys, command):
    rules = tmp_path / "rules.txt"
    rules.write_text("1,0\n")
    argv = ("--rules-file", str(rules)) if command == "scan" else ("--rule", "1,0")
    code, _, err = run(capsys, command, *argv)
    assert code == 0
    assert "Traceback" not in err


def test_find_ncne_lists_types(capsys):
    doc = run_json(capsys, "find-ncne", "--rule", "3,1,1,1,1,1,1,0")
    assert doc["result"]["ncne_types"] == [
        [2, 2, 2, 2],
        [2, 1, 1, 2, 2],
        [2, 1, 2, 1, 2],
        [2, 2, 1, 1, 2],
        [2, 1, 1, 1, 1, 2],
    ]


def test_verify_equilibrium(capsys):
    doc = run_json(
        capsys,
        "verify",
        "--rule",
        "4,4,4,3,3,3,2,1,1,0,0,0",
        "--profile",
        "13/28*8;41/84*4",
    )
    assert doc["result"]["status"] == "equilibrium"
    assert doc["result"]["cluster_scores"] == ["25/12", "25/12"]
    scores = {e["score"] for e in doc["result"]["ledger"]}
    assert {"157/84", "218/105", "131/63", "25/12"} <= scores


def test_verify_with_grid(capsys):
    doc = run_json(
        capsys, "verify", "--rule", "1,0,0,0", "--profile", "3/10*2;7/10*2",
        "--grid", "10",
    )
    assert doc["result"]["status"] == "not-equilibrium"
    assert doc["result"]["violations"] > 0


def test_round_trip_witnesses_verify(capsys):
    doc = run_json(capsys, "find-ncne", "--rule", "10,10,4,3,3,1,0")
    found = [t for t in doc["result"]["types"] if t["is_equilibrium"]]
    assert found
    for outcome in found:
        profile_text = ";".join(
            f"{c['position']}*{c['count']}" for c in outcome["witness"]
        )
        canon = ",".join(doc["rule"]["canonical"])
        verdict = run_json(
            capsys, "verify", "--rule", canon, "--profile", profile_text
        )
        assert verdict["result"]["status"] == "equilibrium"


def test_characterize(capsys):
    doc = run_json(capsys, "characterize", "--rule", "1,0,0,0,0")
    assert doc["result"]["conclusion"] == "ncne-constructed"
    positions = [c["position"] for c in doc["result"]["witness"]]
    assert positions == ["1/6", "1/2", "5/6"]


def test_bipositional(capsys):
    doc = run_json(capsys, "bipositional", "--rule", "2,2,1,1,1,0")
    assert doc["result"]["x1_range"]["lower"] == "1/3"
    assert doc["result"]["x1_range"]["upper"] == "1/2"
    assert doc["result"]["x1_range"]["upper_closed"] is False


def test_multipositional(capsys):
    doc = run_json(
        capsys, "multipositional", "--rule", ",".join(["1"] * 3 + ["0"] * 17),
        "--q", "5", "--r", "4",
    )
    assert doc["result"]["exists"] is True
    assert doc["result"]["conditions_hold"] is True


def test_scan(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("# corpus\n1,0,0,0\n3,2,1,0  # borda\n\n")
    doc = run_json(capsys, "scan", "--rules-file", str(rules))
    assert [r["rule"] for r in doc["rules"]] == ["1,0,0,0", "3,2,1,0"]
    assert doc["rules"][0]["ncne_types"] == [[2, 2]]
    assert doc["rules"][1]["ncne_types"] == []


def test_scan_csv(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("1,0,0,0\n")
    code, out, _ = run(capsys, "scan", "--rules-file", str(rules), "--csv")
    assert code == 0
    assert out.splitlines()[0] == "rule,class,threshold,cne,ncne_types"
    assert "2|2" in out


def test_find_ncne_csv(capsys):
    code, out, _ = run(capsys, "find-ncne", "--rule", "1,0,0,0", "--csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header.startswith("type,pruned")
    assert any("2|2" in r and "True" in r for r in rows)


def test_svg_written(tmp_path, capsys):
    path = tmp_path / "diagram.svg"
    run_json(
        capsys, "verify", "--rule", "1,0,0,0", "--profile", "1/4*2;3/4*2",
        "--svg", str(path),
    )
    content = path.read_text()
    assert content.startswith("<svg") and "circle" in content


def test_byte_stability(capsys):
    first = run(capsys, "find-ncne", "--rule", "1,0,0,0,0")
    second = run(capsys, "find-ncne", "--rule", "1,0,0,0,0")
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--rule", "0,1"),
        ("classify", "--rule", "1,0,0,0", "--csv"),
        ("cne", "--rule", "1,0,0,0", "--json"),
        ("bounds", "--rule", "1,0,0,0", "--seed", "1"),
        ("multipositional", "--rule", "1,0,0,0", "--q", "-2", "--r", "-2"),
        ("multipositional", "--rule", "1,0,0,0", "--q", "1", "--r", "4"),
        ("classify", "--rule", _LONG_CANONICAL),
        ("bounds", "--rule", _LONG_CANONICAL),
        ("find-ncne", "--rule", _LONG_CANONICAL),
    ],
    ids=[
        "increasing-rule", "classify-csv", "removed-json", "removed-seed",
        "multipositional-negative-split", "multipositional-one-position",
        "long-canonical-classify", "long-canonical-bounds", "long-canonical-find-ncne",
    ],
)
def test_invalid_rule_exits_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra",
    [
        ("--profile", "nope"),
        ("--profile", "1/0*4"),
        ("--profile", "1/4*2;3/4*2", "--grid", "1"),
        ("--profile", "1/4*2;3/4*2", "--grid", "0"),
        ("--profile", "1/4*2;3/4*2", "--grid", "-5"),
        ("--profile", "1/4*2;3/4*2", "--grid", "99999999999"),
    ],
    ids=[
        "malformed", "zero-denominator", "grid-one", "grid-zero", "grid-negative",
        "grid-above-cap",
    ],
)
def test_invalid_profile_exits_two(capsys, monkeypatch, extra):
    def no_probing(*args):
        raise AssertionError("grid probing started")

    monkeypatch.setattr(verify, "grid_cross_check", no_probing)
    code, _, err = run(capsys, "verify", "--rule", "1,0,0,0", *extra)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content, message",
    [(b"1,0,0,0\n# comment\n0,1\n", "rules.txt:3:"), (b"\xff\xfe1,0\n", "utf-8")],
    ids=["bad-rule-line", "not-utf8"],
)
def test_scan_bad_file_exits_two(tmp_path, capsys, content, message):
    rules = tmp_path / "rules.txt"
    rules.write_bytes(content)
    code, _, err = run(capsys, "scan", "--rules-file", str(rules))
    assert code == 2
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flag",
    [("find-ncne", "--jobs"), ("scan", "--jobs")]
    + [(command, "--svg") for command in ("classify", "cne", "bounds", "scan")],
)
def test_removed_flag_is_a_usage_error(tmp_path, capsys, command, flag):
    """The search runs in one process, so there is no ``--jobs``; ``--svg``
    belongs only to the commands that have a profile to draw."""
    rules = tmp_path / "rules.txt"
    rules.write_text("1,0,0,0\n")
    where = ["--rules-file", str(rules)] if command == "scan" else ["--rule", "1,0,0,0"]
    path = tmp_path / "diagram.svg"
    value = str(path) if flag == "--svg" else "2"
    code, out, err = run(capsys, command, *where, flag, value)
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and f"unrecognized arguments: {flag} {value}" in err
    assert "Traceback" not in err
    assert not path.exists()


def _spawn(argv, stdout):
    env = {**os.environ, "PYTHONPATH": str(Path(scoreline.__file__).parents[1])}
    return subprocess.Popen(
        [sys.executable, "-m", "scoreline.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
    )


def test_stdout_closed_before_writing_exits_quietly():
    """A reader that is gone before anything is written: the small
    document fails at the final flush."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _spawn(["verify", "--rule", "1,0,0", "--profile", "1/4*1;1/2*1;3/4*1"], write_end)
    os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert b"Traceback" not in err
    assert proc.returncode == EXIT_USAGE


def test_stdout_closed_while_writing_exits_quietly():
    """``find-ncne ... | head -3``: 15 MB of JSON, the reader leaves after
    three lines, so a write in the middle of the document fails."""
    proc = _spawn(["find-ncne", "--rule", "5,5,5,5,5,5,5,5,4,3,2,1,1,0,0,0"], subprocess.PIPE)
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=60)
    assert head[0] == b"{\n"
    assert b"Traceback" not in err
    assert proc.returncode == EXIT_USAGE


def test_search_calls_builder_and_solver_by_module_name(monkeypatch, capsys):
    """The search looks up ``build_deviation_lp`` and ``solve`` as attributes
    of ``search`` at call time, once per unpruned type each, so wrappers
    put there (as the benchmark's spans are) see every call."""
    calls = {"build": 0, "solve": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(search, "build_deviation_lp", counting("build", search.build_deviation_lp))
    monkeypatch.setattr(search, "solve", counting("solve", search.solve))
    run_json(capsys, "find-ncne", "--no-prune", "--rule", "3,1,1,1,1,0")
    assert calls == {"build": 31, "solve": 31}


@pytest.mark.parametrize("m", [search.MAX_M + 1, 40, 2000])
@pytest.mark.parametrize("command", ["find-ncne", "scan", "verify"])
def test_search_refuses_m_above_limit(tmp_path, capsys, monkeypatch, command, m):
    def not_started(*args):
        raise AssertionError("enumeration or scoring started")

    monkeypatch.setattr(search, "enumerate_cluster_types", not_started)
    monkeypatch.setattr(verify, "verify_profile", not_started)
    rule = ",".join(["1"] + ["0"] * (m - 1))
    limit = "search"
    if command == "scan":  # every line is checked before the first search
        rules = tmp_path / "rules.txt"
        rules.write_text(f"1,0,0,0\n{rule}\n")
        argv = ("--rules-file", str(rules))
    elif command == "verify":  # the oracle's cost, not enumeration, bounds m
        argv = ("--rule", rule, "--profile", ";".join(f"{i + 1}/{m + 1}*1" for i in range(m)))
        limit = "verify"
    else:
        argv = ("--rule", rule)
    code, out, err = run(capsys, command, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"above the {limit} limit of {search.MAX_M}" in err
    assert command != "scan" or "rules.txt:2:" in err
    assert "Traceback" not in err


def _reference_find_ncne_output(text, options, timing=False):
    """find-ncne's JSON as one dict of per-type dicts rendered by
    json.dumps(indent=2): the renderer before types were streamed."""
    rule = parse_rule(text)
    result = search.find_ncne(rule, options)
    doc = {
        "schema_version": "1",
        "command": "find-ncne",
        "rule": {
            "input": text,
            "canonical": [str(s) for s in result.rule.scores],
            "m": rule.m,
        },
        "result": {
            "ncne_types": [list(t.parts) for t in result.ncne_types],
            "cne_interval": cli._interval_doc(result.cne),
            "types": [
                {
                    "type": list(o.ctype.parts),
                    "pruned": o.pruned,
                    "prune_reasons": list(o.prune_reasons),
                    "lp_status": o.lp_outcome.status.value if o.lp_outcome else None,
                    "gap": str(o.gap) if o.gap is not None else None,
                    "witness": cli._profile_doc(o.witness) if o.witness else None,
                    "is_equilibrium": o.is_equilibrium,
                }
                for o in result.outcomes
            ],
        },
    }
    if timing:
        doc["timing_ms"] = 0
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "flags, text, options",
    [
        ((), "5,5,5,5,5,4,3,1,0,0", search.SearchOptions()),
        (("--no-prune",), "3,1,1,1,1,0", search.SearchOptions(prune=False)),
        (("--include-cne",), "1,1,1,0", search.SearchOptions(include_single_cluster=True)),
        ((), "7/2,1,1/3,0", search.SearchOptions()),
        (("--timing",), "3,1,1,1,1,1,1,0", search.SearchOptions()),
    ],
    ids=["plateau-m10", "no-prune", "include-cne", "fractions", "timing"],
)
def test_find_ncne_output_matches_reference_renderer(capsys, flags, text, options):
    code, out, _ = run(capsys, "find-ncne", *flags, "--rule", text)
    assert code == 0
    timing = "--timing" in flags
    if timing:
        out, n = re.subn(r'"timing_ms": [0-9.]+\n}\n$', '"timing_ms": 0\n}\n', out)
        assert n == 1
    assert out == _reference_find_ncne_output(text, options, timing)


def test_include_cne_flag(capsys):
    doc = run_json(capsys, "find-ncne", "--rule", "1,1,1,0", "--include-cne")
    singles = [t for t in doc["result"]["types"] if t["type"] == [4]]
    assert singles and singles[0]["lp_status"] == "optimal"


# Malformed and edge-value command lines.  Rules that parse are kept short
# (m <= 6) so that a search stays fast; longer ones are built past
# search.MAX_M, where the command must refuse them before enumerating.
_SCORE_TOKENS = st.sampled_from(
    ["0", "1", "2", "5", "12", "1/2", "7/2", "-1", "-0", "+2", "1/0", "0/0", "3/-4",
     "1.5", "1e3", "1e5000", "9" * 101, "nan", "inf", "x", "", " 4 ", "١", "1_0", "0x1",
     _LONG_CANONICAL]
)
_RULES = st.one_of(
    st.lists(st.integers(0, 6), min_size=2, max_size=6).map(
        lambda v: ",".join(map(str, sorted(v, reverse=True)))
    ),
    st.lists(_SCORE_TOKENS, max_size=6).map(",".join),
    st.integers(search.MAX_M + 1, 60).map(lambda m: ",".join(["1"] + ["0"] * (m - 1))),
    st.text(max_size=10),
)
_POSITIONS = st.sampled_from(
    ["0", "1", "1/2", "1/3", "2/3", "1/4", "3/4", "13/28", "-1/2", "3/2", "1/0", "0.5", "1e-5000", "x", ""]
)
_PROFILES = st.one_of(
    st.lists(
        st.tuples(_POSITIONS, st.sampled_from(["1", "2", "3", "0", "-1", "x", ""])),
        max_size=4,
    ).map(lambda entries: ";".join(f"{p}*{c}" for p, c in entries)),
    st.text(max_size=10),
)


@st.composite
def _rule_and_profile(draw):
    """A rule of m <= 6 and a profile of m candidates, both well formed."""
    m = draw(st.integers(2, 6))
    scores = sorted(draw(st.lists(st.integers(0, 6), min_size=m, max_size=m)), reverse=True)
    q = draw(st.integers(1, m))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), min_size=q - 1, max_size=q - 1)))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [m])]
    positions = sorted(draw(st.sets(st.fractions(0, 1, max_denominator=30),
                                    min_size=q, max_size=q)))
    profile = ";".join(f"{p}*{c}" for p, c in zip(positions, counts))
    return ",".join(map(str, scores)), profile


_INTS = st.one_of(st.integers(-3, 8).map(str), st.sampled_from(["", "x", "1.5", "99999999999"]))
_GRIDS = st.sampled_from(["-5", "0", "1", "2", "3", "37", str(MAX_GRID + 1), "99999999999", "x", ""])


_RULES_FILE = "<rules file>"  # replaced by the path of a file holding drawn rules


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["classify", "cne", "bounds", "find-ncne", "verify", "characterize",
         "bipositional", "multipositional", "scan"]
    ))
    argv = [command]
    if command == "scan":
        argv += ["--rules-file", _RULES_FILE]
    else:
        argv += ["--rule", draw(_RULES)]
    if command in ("find-ncne", "scan"):
        argv += draw(st.sets(st.sampled_from(["--csv", "--no-prune", "--include-cne"]))
                     if command == "find-ncne" else st.sets(st.just("--csv")))
    if command == "verify":
        if draw(st.booleans()):
            argv[-1], profile = draw(_rule_and_profile())
        else:
            profile = draw(_PROFILES)
        argv += ["--profile", profile]
        if draw(st.booleans()):
            argv += ["--grid", draw(_GRIDS)]
    if command == "multipositional":
        if draw(st.booleans()):
            q, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            zeros = draw(st.integers(0, q * r - 1))
            argv[-1] = ",".join(["2"] * (q * r - zeros) + ["0"] * zeros)
            argv += ["--q", str(q), "--r", str(r)]
        else:
            argv += ["--q", draw(_INTS), "--r", draw(_INTS)]
    if draw(st.booleans()):
        argv.append("--timing")
    if draw(st.integers(0, 9)) == 0:  # drop one argument
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv, "\n".join(draw(st.lists(_RULES, max_size=3)))


@given(_argv())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_malformed_argv_exits_zero_or_two(example):
    """Any command line exits 0 or 2 and never prints a traceback."""
    argv, rules = example
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rules.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(rules)
        argv = [path if a == _RULES_FILE else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()

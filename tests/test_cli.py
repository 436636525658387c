"""Command-line surface: JSON documents, exit codes, CSV, SVG, round-trips."""

import json

import pytest

from scoreline import verify
from scoreline.cli import main


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
    ],
    ids=[
        "increasing-rule", "classify-csv", "removed-json", "removed-seed",
        "multipositional-negative-split", "multipositional-one-position",
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


def test_jobs_flag(capsys):
    doc = run_json(capsys, "find-ncne", "--rule", "1,0,0,0", "--jobs", "2")
    assert doc["result"]["ncne_types"] == [[2, 2]]


def test_include_cne_flag(capsys):
    doc = run_json(capsys, "find-ncne", "--rule", "1,1,1,0", "--include-cne")
    singles = [t for t in doc["result"]["types"] if t["type"] == [4]]
    assert singles and singles[0]["lp_status"] == "optimal"

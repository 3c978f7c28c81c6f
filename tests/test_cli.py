"""CLI contract: subcommands, report shapes, exit codes, file input."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from collatzlab import cli, preset_map
from collatzlab.cli import INCONCLUSIVE, INPUT_ERROR, PASS, VIOLATION, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_orbit_json(capsys):
    code, out = run(capsys, "orbit", "collatz", "6")
    rep = json.loads(out)
    assert code == PASS
    assert rep["schemaVersion"] == 1
    assert rep["prefix"] == [6, 3, 10, 5, 16, 8, 4, 2, 1]
    assert rep["outcome"] == {"entryIndex": 6, "cycle": [4, 2, 1]}


def test_orbit_fuel_exhaustion_exits_2(capsys):
    code, out = run(capsys, "orbit", "collatz", "27", "--fuel", "5")
    assert code == INCONCLUSIVE
    assert json.loads(out)["outcome"] == "fuelExhausted"


def test_orbit_past_the_int_digit_limit_prints_its_exact_prefix(capsys):
    # under n -> (10^60 + 1) n + 1 the orbit of 1 passes 4,300 digits at step 165
    ref, fuel = f"qx1:{10**60 + 1}", 200
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = [str(v) for v in preset_map(ref).orbit(1, fuel).prefix]
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(map(len, digits)) > limit
    code, out = run(capsys, "orbit", ref, "1", "--fuel", str(fuel))
    assert code == INCONCLUSIVE and sys.get_int_max_str_digits() == limit
    rep = json.loads(out, parse_int=str)  # digit strings, read past the limit
    assert rep["outcome"] == "fuelExhausted" and rep["prefix"] == digits
    code, out = run(capsys, "orbit", ref, "1", "--fuel", str(fuel), "--format", "csv")
    assert code == INCONCLUSIVE and sys.get_int_max_str_digits() == limit
    assert out.splitlines() == ["index,value"] + [f"{i},{d}" for i, d in enumerate(digits)]


def test_orbit_csv(capsys):
    code, out = run(capsys, "orbit", "collatz", "5", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "index,value" and lines[1] == "0,5"


def test_classes_json_and_csv(capsys):
    code, out = run(capsys, "classes", "qx1:5", "--window", "30")
    rep = json.loads(out)
    # some orbits (21, 25, 29) leave the window without returning: inconclusive
    assert code == INCONCLUSIVE
    assert rep["flagged"] == [21, 25, 29]
    cls = rep["classes"]
    of_13 = next(v for v in cls.values() if 13 in v)
    assert 1 in cls["1"] and 1 not in of_13
    code, out = run(capsys, "classes", "collatz", "--window", "30", "--format", "csv")
    assert code == PASS
    lines = out.splitlines()
    assert lines[0] == "n,representative"
    assert all(line.endswith(",1") for line in lines[1:])


def test_verify_bounded(capsys):
    code, out = run(capsys, "verify", "collatz", "--suite", "bounded")
    assert code == PASS and json.loads(out)["ok"]


def test_verify_separating(capsys):
    code, out = run(capsys, "verify", "collatz", "--suite", "separating:1")
    rep = json.loads(out)
    assert code == PASS and rep["word"] == [1, 2, 2] and rep["aperiodic"]
    # a non-periodic start is inconclusive, not a violation
    code, _ = run(capsys, "verify", "collatz", "--suite", "separating:3")
    assert code == INCONCLUSIVE


def test_verify_ck_section_and_partition(capsys):
    code, out = run(capsys, "verify", "collatz", "--suite", "ck", "--window", "1000", "--fuel", "100000")
    rep = json.loads(out)
    assert code == PASS and rep["matrix"] == [[0, 1], [1, 1]] and rep["level"] == "section"
    code, out = run(capsys, "verify", "identity", "--suite", "ck")
    rep = json.loads(out)
    assert code == PASS and rep["level"] == "partition" and rep["matrix"] == [[1]]


@pytest.mark.parametrize("ref, window", [("mersenne:8", "300"), ("mersenne:9", "1000")])
def test_verify_ck_section_beyond_exponent_512(capsys, ref, window):
    # the minimal doubling exponent of the mersenne:8 section is 1024
    code, out = run(capsys, "verify", ref, "--suite", "ck", "--window", window, "--fuel", "100000")
    rep = json.loads(out)
    assert code == PASS and rep["level"] == "section" and rep["passed"]
    assert rep["verdict_kind"] == "witnessed"


def test_verify_ck_partition_violation_on_map_file_exits_1(tmp_path, capsys):
    # odd n -> (n+3)/2 hits every n >= 2 but never 1, so f(X_1) is not a union of classes
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps({"modulus": 2, "branches": [
        {"residues": [1], "a": 1, "b": 3, "c": 2},
        {"residues": [0], "a": 1, "b": 0, "c": 2},
    ]}))
    code, out = run(capsys, "verify", str(path), "--suite", "ck")
    rep = json.loads(out)
    assert code == VIOLATION
    assert rep["level"] == "partition" and rep["branch"] == 1 and rep["witness"] == 1


def test_verify_relations(capsys):
    code, out = run(capsys, "verify", "collatz", "--suite", "relations", "--window", "600", "--fuel", "100000")
    rep = json.loads(out)
    assert code == PASS and rep["branch"]["ok"] and rep["section"]["ok"]


def test_verify_relations_with_no_certified_column_exits_2(capsys):
    # sigma of 3xd:9 starts at 9: every section identity checks 0 columns at window 8
    code, out = run(capsys, "verify", "3xd:9", "--suite", "relations", "--window", "8", "--fuel", "10")
    rep = json.loads(out)
    assert code == INCONCLUSIVE == rep["exitCode"] and rep["branch"]["ok"] and not rep["section"]["ok"]
    assert {c["columns_checked"] for c in rep["section"]["checks"]} == {0}


def test_verify_ck_with_no_section_label_exits_2(capsys):
    # sigma of 3xd:9 starts at 9: part (c) of the ck suite checks no label at window 8
    code, out = run(capsys, "verify", "3xd:9", "--suite", "ck", "--window", "8", "--fuel", "10")
    rep = json.loads(out)
    assert code == INCONCLUSIVE == rep["exitCode"] and rep["verdict_kind"] == "inconclusive"


def test_verify_span(capsys):
    code, out = run(capsys, "verify", "collatz", "--suite", "span", "--window", "500")
    assert code == PASS and json.loads(out)["ok"]


def test_verify_descent(capsys):
    code, out = run(capsys, "verify", "collatz", "--suite", "descent", "--window", "1000")
    assert code == PASS
    code, _ = run(capsys, "verify", "qx1:5", "--suite", "descent", "--window", "1000")
    assert code == INPUT_ERROR


def test_verify_modular(capsys):
    code, out = run(capsys, "verify", "mersenne:4", "--suite", "modular")
    assert code == PASS and json.loads(out)["ok"]
    code, _ = run(capsys, "verify", "collatz", "--suite", "modular")
    assert code == INPUT_ERROR


@pytest.mark.parametrize(
    "modulus, c, why",
    [
        (10**8, 2, "modulus 100000000 is past the bound 2^20"),
        (2, 2 * 10**8, "branch 2: lcm(modulus, c) = 200000000 is past the bound 2^20"),
    ],
    ids=["modulus", "lcm"],
)
def test_map_file_past_the_residue_bound_is_refused_before_any_table(tmp_path, capsys, monkeypatch, modulus, c, why):
    # before the bound, GCMap and validate() built lists of modulus or lcm(modulus, c)
    # entries: a MemoryError traceback and exit 1 under a memory limit
    def no_table(self):
        raise AssertionError("a GCMap was built")

    monkeypatch.setattr(cli.GCMap, "__post_init__", no_table)
    path = tmp_path / "big.json"
    branches = [{"residues": [1], "a": 3, "b": 1, "c": 1}, {"residues": [0], "a": 1, "b": 0, "c": c}]
    path.write_text(json.dumps({"modulus": modulus, "branches": branches}))
    for argv in (["orbit", str(path), "7"], ["verify", str(path), "--suite", "bounded"], ["classes", str(path)]):
        code, out = run(capsys, *argv)
        assert code == INPUT_ERROR and why in json.loads(out)["error"]


def test_modular_suite_past_the_residue_bound_is_refused_before_any_power(capsys, monkeypatch):
    # each +2 on k cost about 4.5x more: k = 20 took 17.6 s, k = 21 and up were refused by nothing
    def no_power(*args):
        raise AssertionError("a power was taken")

    monkeypatch.setattr(cli.families, "pow", no_power, raising=False)
    for k in (21, 40):
        code, out = run(capsys, "verify", f"mersenne:{k}", "--suite", "modular")
        assert code == INPUT_ERROR
        assert json.loads(out)["error"] == f"q = 2^{k} - 1 is past the bound 2^20 on residue tables"


def test_verify_section_suite(capsys):
    code, out = run(capsys, "verify", "qx1:5", "--suite", "section", "--window", "300")
    assert code == PASS


def test_input_errors(capsys):
    assert run(capsys, "orbit", "nosuch", "5")[0] == INPUT_ERROR
    assert run(capsys, "verify", "collatz", "--suite", "bogus")[0] == INPUT_ERROR
    assert run(capsys, "orbit", "collatz", "5", "--fuel", "0")[0] == INPUT_ERROR
    assert run(capsys, "verify", "qx1:4", "--suite", "bounded")[0] == INPUT_ERROR


def test_bad_usage_exits_3(capsys):
    assert main(["orbit"]) == INPUT_ERROR  # missing argument; argparse would exit 2
    assert main(["orbit", "collatz", "5", "--threads", "2"]) == INPUT_ERROR  # no such option


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "collatz", "6", "--depth", "-1"],
        ["orbit", "collatz", "6", "--seed", "1"],
        ["classes", "collatz", "--window", "50", "--depth", "3"],
        ["classes", "collatz", "--window", "50", "--seed", "1"],
    ],
)
def test_orbit_and_classes_reject_depth_and_seed(capsys, argv):
    assert main(argv) == INPUT_ERROR


@pytest.mark.parametrize("suite", ["descent", "bounded", "relations", "modular"])
def test_depth_outside_span_suite_exits_3(capsys, suite):
    code, out = run(capsys, "verify", "collatz", "--suite", suite, "--window", "100", "--depth", "-5")
    assert code == INPUT_ERROR
    assert "--depth applies only to --suite span" in json.loads(out)["error"]


@pytest.mark.parametrize("suite", ["descent", "bounded", "span", "modular"])
def test_seed_outside_relations_suite_exits_3(capsys, suite):
    assert main(["verify", "collatz", "--suite", suite, "--window", "100", "--seed", "5"]) == INPUT_ERROR


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "collatz", "--suite", "relations", "--window", "100", "--seed", "5"],
        ["orbit", "collatz", "6", "--window", "0"],
        ["verify", "collatz", "--suite", "bounded", "--format", "csv"],
    ],
)
def test_deleted_options_exit_3(capsys, argv):
    # --seed, orbit --window and verify --format were read by nothing
    assert main(argv) == INPUT_ERROR


@pytest.mark.parametrize(
    "argv, option",
    [
        (["collatz", "--suite", "bounded", "--window", "5", "--fuel", "3"], "--fuel"),
        (["collatz", "--suite", "bounded", "--window", "5"], "--window"),
        (["mersenne:4", "--suite", "modular", "--window", "5", "--fuel", "3"], "--fuel"),
        (["mersenne:4", "--suite", "modular", "--window", "5"], "--window"),
        (["collatz", "--suite", "separating:1", "--window", "5"], "--window"),
        (["collatz", "--suite", "descent", "--window", "5", "--fuel", "3"], "--fuel"),
    ],
)
def test_option_the_suite_does_not_read_exits_3(capsys, argv, option):
    code, out = run(capsys, "verify", *argv)
    assert code == INPUT_ERROR
    assert json.loads(out)["error"].startswith(f"{option} applies only to --suite ")


@pytest.mark.parametrize(
    "argv",
    [
        ["collatz", "--suite", "separating:1", "--fuel", "10000"],
        ["collatz", "--suite", "descent", "--window", "10000"],
        ["collatz", "--suite", "ck", "--window", "10000", "--fuel", "10000"],
    ],
)
def test_options_a_suite_reads_default_to_10000(capsys, argv):
    given = run(capsys, "verify", *argv)
    assert given[0] != INPUT_ERROR
    assert run(capsys, "verify", *argv[:3]) == given


def test_each_subcommand_declares_only_the_options_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {flag for action in sp._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sp in sub.choices.items()
    }
    assert declared == {
        "orbit": {"--fuel", "--format"},
        "verify": {"--suite", "--depth", "--fuel", "--window"},
        "classes": {"--fuel", "--window", "--format"},
    }


def test_map_file_input(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps(
            {
                "modulus": 2,
                "branches": [
                    {"residues": [1], "a": 3, "b": 1, "c": 1},
                    {"residues": [0], "a": 1, "b": 0, "c": 2},
                ],
            }
        )
    )
    code, out = run(capsys, "orbit", str(path), "6")
    assert code == PASS and json.loads(out)["prefix"][0] == 6

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"modulus": 2, "branches": [], "shenanigans": True}))
    assert run(capsys, "verify", str(bad), "--suite", "bounded")[0] == INPUT_ERROR


def test_violation_exit_code(capsys, tmp_path):
    # a map whose branches overlap: bounded suite reports a violation (exit 1)
    path = tmp_path / "overlap.json"
    path.write_text(
        json.dumps(
            {
                "modulus": 2,
                "branches": [
                    {"residues": [0, 1], "a": 3, "b": 1, "c": 1},
                    {"residues": [0], "a": 1, "b": 0, "c": 2},
                ],
            }
        )
    )
    code, out = run(capsys, "verify", str(path), "--suite", "bounded")
    assert code == VIOLATION and not json.loads(out)["ok"]


def _failed_checks(node):
    """Every part of a report that claims a violation."""
    if isinstance(node, dict):
        failed = node.get("holds") is False or node.get("verdict_kind") == "failed"
        if failed or node.get("failures") or node.get("violations"):
            yield node
        for v in node.values():
            yield from _failed_checks(v)
    elif isinstance(node, list):
        for v in node:
            yield from _failed_checks(v)


@pytest.mark.parametrize(
    "argv",
    [
        "verify collatz --suite relations --window 600",
        "verify qx1:5 --suite section --window 300",
        "verify collatz --suite ck --window 1000",
    ],
)
def test_fuel_exhaustion_is_inconclusive_not_a_violation(capsys, argv):
    code, out = run(capsys, *argv.split(), "--fuel", "3")
    rep = json.loads(out)
    assert code == INCONCLUSIVE == rep["exitCode"]
    assert not list(_failed_checks(rep))
    if "section" in rep:
        assert rep["section"]["ok"]


@pytest.mark.parametrize(
    "branch",
    [
        {"residues": [1], "a": 3, "b": 0, "c": 2},  # 3n/2 is not an integer on the odds
        {"residues": [1], "a": "3", "b": 1, "c": 1},
    ],
)
@pytest.mark.parametrize(
    "argv", [("orbit", "{}", "7"), ("verify", "{}", "--suite", "span", "--window", "50")]
)
def test_malformed_map_file_exits_3(tmp_path, capsys, branch, argv):
    halving = {"residues": [0], "a": 1, "b": 0, "c": 2}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"modulus": 2, "branches": [branch, halving]}))
    code, out = run(capsys, *(arg.format(path) for arg in argv))
    assert code == INPUT_ERROR and "error" in json.loads(out)


@pytest.mark.parametrize("argv", [("orbit", "{}", "1"), ("verify", "{}", "--suite", "bounded")])
def test_directory_as_map_exits_3(tmp_path, capsys, argv):
    # opening a directory raises IsADirectoryError, an OSError but not FileNotFoundError
    code, out = run(capsys, *(arg.format(tmp_path) for arg in argv))
    assert code == INPUT_ERROR
    assert "Is a directory" in json.loads(out)["error"]


# --- one parser per process ------------------------------------------------------

# usage errors, help, an unknown suite and input errors, each followed by a valid request
INTERLEAVED = [
    ["verify", "collatz", "--suite", "bounded"],
    ["orbit", "collatz", "5", "--threads", "2"],
    ["orbit", "collatz", "27", "--fuel", "5"],
    ["--help"],
    ["classes", "qx1:5", "--window", "30"],
    ["verify", "--help"],
    ["verify", "collatz", "--suite", "span", "--window", "40", "--depth", "2"],
    ["verify", "collatz", "--suite", "bogus"],
    ["verify", "qx1:5", "--suite", "relations", "--window", "50", "--fuel", "100"],
    ["orbit"],
    ["classes", "collatz", "--window", "30", "--format", "csv"],
    ["orbit", "collatz", "six"],
    ["orbit", "collatz", "6", "--format", "csv"],
    [],
    ["verify", "collatz", "--suite", "separating:1", "--fuel", "50"],
    ["classes", "collatz", "--window", "0"],
    ["orbit", "collatz", "6"],
]


def test_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    def replay():
        return [(main(list(argv)), *capsys.readouterr()) for argv in INTERLEAVED]

    cli._parser.cache_clear()
    reused = replay()
    monkeypatch.setattr(cli, "_parser", build_parser)  # a fresh tree for every request
    assert replay() == reused
    assert [code for code, _, _ in reused] == [
        PASS, INPUT_ERROR, INCONCLUSIVE, PASS, INCONCLUSIVE, PASS, INCONCLUSIVE, INPUT_ERROR,
        PASS, INPUT_ERROR, PASS, INPUT_ERROR, PASS, INPUT_ERROR, PASS, INPUT_ERROR, PASS,
    ]


def test_main_builds_one_parser_tree(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser()
    one_tree = len(built)  # the root parser and one per subcommand
    assert one_tree == 4
    built.clear()
    cli._parser.cache_clear()
    for _ in range(10):
        for argv in INTERLEAVED:
            main(list(argv))
    capsys.readouterr()
    assert len(built) == one_tree


def _single_shot(*argv, timeout=120):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "collatzlab.cli", *argv], capture_output=True, env=env, timeout=timeout
    )


@pytest.mark.parametrize("argv", [
    ("mersenne:64", "--suite", "ck", "--window", "10"),
    ("mersenne:64", "--suite", "ck"),
    ("mersenne:30", "--suite", "ck", "--window", "10"),
    ("mersenne:21", "--suite", "ck"),
])
def test_a_residue_set_past_2_20_exits_3_at_once(argv):
    # mersenne:64 once hung in ResidueSet.reduce and mersenne:30 filled a set
    # of 2^30 residues; a subprocess with a timeout fails a regression, not hangs
    done = _single_shot("verify", *argv, timeout=30)
    assert done.returncode == INPUT_ERROR
    assert "past the bound 2^20 on residue tables" in json.loads(done.stdout)["error"]


def test_single_shot_process_parses_as_before():
    helped = _single_shot("--help")
    assert helped.returncode == PASS and helped.stdout.startswith(b"usage: collatzlab")
    assert _single_shot("orbit", "collatz", "5", "--threads", "2").returncode == INPUT_ERROR
    golden = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())
    key = "verify collatz --suite relations --window 600 --fuel 100000"
    done = _single_shot(*key.split())
    out = done.stdout
    assert [done.returncode, hashlib.sha256(out).hexdigest(), len(out)] == golden["preset-sweep"]["requests"][key]

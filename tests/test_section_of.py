"""One section rule read off the map: ``section_of`` against the 3x+d recipe it
replaced, over an a/b sweep and on map files, and the CLI suites that take a
section from the resolved map."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import time
from pathlib import Path

import pytest

from collatzlab import (
    AffineBranch,
    GCMap,
    ResidueSet,
    ck_for_section,
    collatz,
    derive_witnesses,
    identity_map,
    map_to_dict,
    preset_map,
    qx1,
    residue_image_exceptions,
    section_of,
    three_x_d,
)
from collatzlab.cli import INPUT_ERROR, PASS, VIOLATION, main
from collatzlab.families import Section

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


def odd_even(modulus: int, a: int, b: int, c: int = 1) -> GCMap:
    """n -> (a*n + b) / c on the odd residues mod ``modulus``, n -> n/2 on the even ones."""
    return GCMap(
        modulus,
        (
            AffineBranch(1, ResidueSet.of(modulus, range(1, modulus, 2)), a, b, c),
            AffineBranch(2, ResidueSet.of(modulus, range(0, modulus, 2)), 1, 0, 2),
        ),
    )


def write_map(tmp_path, gcmap: GCMap, name: str = "map.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(map_to_dict(gcmap)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


# --- the 3x+d recipe it replaced, as oracle ----------------------------------------


def section_3xd_oracle(d: int) -> Section:
    """For d odd with 3-adic valuation k: N1 = {3^k, 5*3^k} (mod 6*3^k)."""
    gcmap = three_x_d(d)
    p = 1
    while d % (3 * p) == 0:
        p *= 3
    n1 = ResidueSet.of(6 * p, [p, 5 * p])
    n2, removed = residue_image_exceptions(gcmap, n1)
    return Section(gcmap, n1, n2, derive_witnesses(n1, n2), frozenset(removed))


def test_section_of_matches_the_3xd_recipe():
    for d in range(1, 100, 2):
        assert section_of(three_x_d(d)) == section_3xd_oracle(d), d


# --- the a/b sweep --------------------------------------------------------------------


@pytest.mark.parametrize("b", [1, 3, 7, 9, 25, 99])
def test_sweep_fails_exactly_where_the_order_of_2_does_not_lift(b):
    failed = []
    for a in range(3, 40, 2):
        gcmap = odd_even(2, a, b)
        try:
            sec = section_of(gcmap)
        except KeyError as exc:
            assert "the order of 2 does not lift" in exc.args[0], (a, exc)
            failed.append(a)
            continue
        rep = ck_for_section(
            sec.map, sec.n1, sec.n2, sec.witnesses, 500, 10**4, removed=sec.n2_removed
        )
        assert rep.status == PASS and rep.verdict_kind == "witnessed", (a, rep.detail)
    assert failed == [21, 39]


# --- shape controls -----------------------------------------------------------------


def test_collatz_at_modulus_4_gives_the_collatz_section():
    sec = section_of(odd_even(4, 3, 1))
    assert sec.map != collatz()
    assert dataclasses.replace(sec, map=collatz()) == section_of(collatz())


def test_a_equal_1_is_a_key_error():
    # n -> n + 1 on odds: 2 has no order mod 1, so the power loop must never start
    with pytest.raises(KeyError, match="a >= 3"):
        section_of(odd_even(2, 1, 1))


NO_SECTION = {
    "3n-1": (odd_even(2, 3, -1), "b >= 1"),
    "(n+3)/2": (odd_even(2, 1, 3, 2), "a >= 3"),
    "identity": (identity_map(), "odd and even n share residues mod 1"),
    "odd branches split": (
        GCMap(
            4,
            (
                AffineBranch(1, ResidueSet.of(4, [1]), 3, 1, 1),
                AffineBranch(2, ResidueSet.of(4, [3]), 3, 1, 1),
                AffineBranch(3, ResidueSet.of(4, [0, 2]), 1, 0, 2),
            ),
        ),
        "the odd residues mod 4 are not on one branch",
    ),
    "no halving": (
        GCMap(
            2,
            (
                AffineBranch(1, ResidueSet.of(2, [1]), 3, 1, 1),
                AffineBranch(2, ResidueSet.of(2, [0]), 1, 0, 4),
            ),
        ),
        "not on one n -> n/2 branch",
    ),
}


@pytest.mark.parametrize("name", list(NO_SECTION))
def test_other_shapes_raise_and_ck_stays_at_partition_level(tmp_path, capsys, name):
    gcmap, why = NO_SECTION[name]
    with pytest.raises(KeyError, match=why):
        section_of(gcmap)
    if not gcmap.validate().ok:  # the CLI takes only valid map files
        return
    path = write_map(tmp_path, gcmap)
    code, rep = run(capsys, "verify", path, "--suite", "ck")
    assert rep["level"] == "partition" and code in (PASS, VIOLATION)
    code, rep = run(capsys, "verify", path, "--suite", "section")
    assert code == INPUT_ERROR and why in rep["error"]


# --- the size bound ---------------------------------------------------------------------


@pytest.mark.parametrize("ref", ["collatz", "qx1:5", "qx1:7", "3xd:9", "mersenne:3", "mersenne:8"])
def test_witnesses_span_ord_times_a_plus_1_residues(ref):
    # the closed form the bound is checked against is the real residue count
    sec = section_of(preset_map(ref))
    a = sec.map.branches[0].a
    order = next(o for o in range(1, a) if pow(2, o, a) == 1)
    assert len(sec.witnesses.exponents) == order * (a + 1)


def test_qx1_1021_builds_under_the_bound():
    # ord(2 mod 1021) = 340: 340 * 1022 = 347,480 residues, the largest section the tests build
    assert len(section_of(qx1(1021)).witnesses.exponents) == 347_480


def test_qx1_10007_is_refused_before_any_residue_set(capsys):
    # ord(2 mod 10007) = 5003, about 5 * 10^7 residues; the count stops the power loop
    t0 = time.perf_counter()
    with pytest.raises(KeyError, match=r"past the bound 2\^20"):
        section_of(qx1(10007))
    assert time.perf_counter() - t0 < 1
    code, rep = run(capsys, "verify", "qx1:10007", "--suite", "section", "--window", "100", "--fuel", "100")
    assert code == INPUT_ERROR and "past the bound 2^20" in rep["error"]
    code, rep = run(capsys, "verify", "qx1:10007", "--suite", "ck", "--window", "100", "--fuel", "100")
    assert rep["level"] == "partition" and code == VIOLATION


def test_a21_map_file_has_no_section(tmp_path, capsys):
    path = write_map(tmp_path, odd_even(2, 21, 5))
    opts = ("--window", "3000", "--fuel", "100000")
    code, rep = run(capsys, "verify", path, "--suite", "ck", *opts)
    assert code == VIOLATION and rep["level"] == "partition" and not rep["passed"]
    code, rep = run(capsys, "verify", path, "--suite", "section", "--window", "300")
    assert code == INPUT_ERROR
    assert rep["error"] == (
        f"no first-return section for {path!r}: the order of 2 does not lift: "
        "ord(2 mod 441) = 42, not 21 * ord(2 mod 21) = 126"
    )


def test_5n3_map_file_is_witnessed(tmp_path, capsys):
    path = write_map(tmp_path, odd_even(2, 5, 3))
    code, rep = run(capsys, "verify", path, "--suite", "ck", "--window", "3000", "--fuel", "100000")
    assert code == PASS and rep["level"] == "section" and rep["verdict_kind"] == "witnessed"
    code, rep = run(capsys, "verify", path, "--suite", "relations", "--window", "600", "--fuel", "100000")
    assert code == PASS and rep["section"]["ok"]


# --- the CLI on the resolved map -----------------------------------------------------


def test_descent_suite_runs_on_every_collatz_map(tmp_path, capsys):
    argv = ("--suite", "descent", "--window", "1000")
    _, want = run(capsys, "verify", "collatz", *argv)
    for ref in ("qx1:3", "mersenne:2", "3xd:1", write_map(tmp_path, collatz())):
        code, rep = run(capsys, "verify", ref, *argv)
        assert code == PASS and rep == {**want, "map": ref}
    for ref in ("qx1:5", "3xd:3", write_map(tmp_path, odd_even(4, 3, 1), "mod4.json")):
        code, rep = run(capsys, "verify", ref, *argv)
        assert code == INPUT_ERROR
        assert rep["error"] == "descent suite is specific to the collatz preset"


def section_requests() -> list[tuple[str, list]]:
    """The golden verify requests of the section suites on the section presets."""
    requests = json.loads(GOLDEN.read_text())["preset-sweep"]["requests"]
    out = []
    for key, want in sorted(requests.items()):
        argv = key.split(" ")
        if argv[0] == "verify" and argv[3] in ("ck", "section", "relations"):
            try:
                section_of(preset_map(argv[1]))
            except KeyError:
                continue
            out.append((key, want))
    return out


def test_map_files_replay_the_golden_section_requests(tmp_path):
    # each request on the preset's map file prints the preset's golden bytes
    # once its "map" value is swapped back to the preset name
    requests = section_requests()
    assert len(requests) == 27
    assert len({key.split(" ")[1] for key, _ in requests}) == 9
    mismatches = []
    for key, want in requests:
        argv = key.split(" ")
        ref = argv[1]
        path = write_map(tmp_path, preset_map(ref), ref.replace(":", "-") + ".json")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([argv[0], path] + argv[2:])
        field = f'"map": {json.dumps(path)}'
        assert buf.getvalue().count(field) == 1, key
        out = buf.getvalue().replace(field, f'"map": {json.dumps(ref)}').encode()
        got = [code, hashlib.sha256(out).hexdigest(), len(out)]
        if got != want:
            mismatches.append((key, got, want))
    assert not mismatches, mismatches[:5]

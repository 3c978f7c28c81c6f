"""The four benchmark workloads, each driven through the public API of collatzlab.

A workload's ``setup`` imports collatzlab and builds everything the program
needs before the first timed call (presets, sections, basis windows), and
returns a ``Plan``: the requests of one pass, run one after another by a single
client, and a ``check`` that grades their results against the verdicts
recorded in ``golden.json``.  Every pass of a run repeats the same requests, so
per-pass counts repeat exactly.

Requests look functions up through module attributes at call time (for example
``cl.operators.build_section_ops``), so that the tracer and the fault-injection
test can substitute them from outside.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

PROFILES = ("full", "tiny")

# 2e6 instead of the acceptance size 1e7 (7.4 s a call), so that a run holds
# enough calls for a median; two 2^20-start batches still exercise the batch loop.
RANGE_LIMIT = {"full": 2_000_000, "tiny": 20_000}

# Every start in [1, 700] lies in the certified class of 1 at window 1e5 (the
# smallest other certified representative is 703), so each start costs the
# same and seeds cost alike.  200 starts instead of 1000 keep a pass near 3 s.
SPAN = {
    "full": {"window": 100_000, "fuel": 10_000, "starts": 200, "start_range": 700},
    "tiny": {"window": 2_000, "fuel": 10_000, "starts": 10, "start_range": 100},
}

SECTION_REFS = ("collatz", "qx1:5")
SECTION = {"full": {"window": 100_000, "fuel": 10_000}, "tiny": {"window": 2_000, "fuel": 10_000}}
CK_MATRIX = [[0, 1], [1, 1]]

MAPS = (
    "collatz", "identity", "qx1:5", "mersenne:3", "mersenne:4", "mersenne:5",
    "3xd:1", "3xd:3", "3xd:5", "3xd:9",
)
SECTION_PRESETS = tuple(m for m in MAPS if m != "identity")
# orbits under these maps diverge, so their orbits use the README's --fuel 500,
# and `classes` and `span` (2 s to 30 s a request on them) stay off the menu
DIVERGENT = ("qx1:5", "mersenne:3", "mersenne:4", "mersenne:5")
TINY_MAPS = ("collatz", "identity")
ORBIT_POOL_SIZE = 16


@dataclass
class Tally:
    """Verdicts graded in one or more passes.

    ``units`` counts what ``inconclusive`` and the certified share are taken
    over: starts, window labels or requests.  ``layer`` holds per-layer counts
    that only the outputs show, such as the bytes the CLI wrote.
    """

    attempted: int = 0
    failed: int = 0
    units: int = 0
    inconclusive: int = 0
    certified: int = 0
    coverage: int = 0
    layer: Counter = field(default_factory=Counter)
    notes: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(msg)

    def add(self, other: "Tally") -> None:
        for name in ("attempted", "failed", "units", "inconclusive", "certified", "coverage"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.layer.update(other.layer)
        self.notes.extend(other.notes[: 5 - len(self.notes)])


@dataclass
class Plan:
    """One pass: ``requests`` run in order, then ``check`` grades their results."""

    requests: list[tuple[str, Callable[[], Any]]]
    items: int
    check: Callable[[list[Any]], Tally]


def _collatzlab():
    import collatzlab
    import collatzlab.cli  # the package __init__ does not import the CLI

    return collatzlab


# --- range-scan ---------------------------------------------------------------


def range_verdict(rep) -> dict:
    return {
        "limit": rep.limit,
        "verified": rep.verified,
        "inconclusive": list(rep.inconclusive),
        "max_steps_to_drop": rep.max_steps_to_drop,
    }


def range_scan(profile: str, seed: int, golden: dict) -> Plan:
    """``verify_range_collatz`` from 1 to a fixed limit; the seed is unused."""
    cl = _collatzlab()
    limit = RANGE_LIMIT[profile]
    want = golden["range-scan"][profile]

    def check(results: list) -> Tally:
        t = Tally()
        for rep in results:
            t.attempted += 1
            t.units += limit
            t.inconclusive += len(rep.inconclusive)
            t.certified += limit - len(rep.inconclusive)
            t.coverage += limit
            got = range_verdict(rep)
            if got != want:
                t.fail(f"range-scan: got {got}, expected {want}")
        return t

    return Plan([("scan", lambda: cl.rangecheck.verify_range_collatz(limit))], limit, check)


# --- span-class ------------------------------------------------------------------


def span_class(profile: str, seed: int, golden: dict) -> Plan:
    """``span_vs_class`` for the 3x+1 map on [1, window], over seeded starts."""
    cl = _collatzlab()
    p = SPAN[profile]
    gcmap = cl.families.collatz()
    window = cl.operators.BasisWindow.range(1, p["window"])
    starts = random.Random(seed).sample(range(1, p["start_range"] + 1), p["starts"])
    want = golden["span-class"][profile]["entries"]

    def request():
        return cl.operators.span_vs_class(gcmap, window, p["fuel"], starts=starts)

    def check(results: list) -> Tally:
        t = Tally()
        for rep in results:
            if [e.start for e in rep.entries] != starts:
                t.attempted += 1
                t.fail("span-class: entries do not match the requested starts")
                continue
            for e in rep.entries:
                t.attempted += 1
                t.units += 1
                t.certified += e.class_size - e.boundary_members
                t.coverage += e.class_size
                got = [e.span_size, e.class_size, e.boundary_members]
                if not (e.span_subset_of_class and e.span_equals_certified) or got != want[str(e.start)]:
                    t.fail(f"span-class: start {e.start} gave {got}, expected {want[str(e.start)]}")
        return t

    return Plan([("span_vs_class", request)], len(starts), check)


# --- section-battery --------------------------------------------------------------


def section_verdict(cl, section, window, hi: int, fuel: int) -> dict:
    """Cuntz-Krieger check, section operators and relation battery for one section."""
    ck = cl.conditions.ck_for_section(
        section.map, section.n1, section.n2, section.witnesses, hi, fuel, removed=section.n2_removed
    )
    ops = cl.operators.build_section_ops(
        section.map, section.n1, section.n2, window, fuel, n2_removed=section.n2_removed
    )
    rep = cl.operators.verify_section_relations(ops)
    return {
        "labels": len(window),
        "ck_passed": ck.passed,
        "matrix": ck.matrix.as_lists() if ck.matrix else None,
        "relations_ok": rep.ok,
        "inconclusive_columns": len(ops.inconclusive_columns),
        "columns_checked": [c.columns_checked for c in rep.checks],
    }


def section_battery(profile: str, seed: int, golden: dict) -> Plan:
    """The collatz and qx1:5 sections at one window; the seed is unused."""
    cl = _collatzlab()
    p = SECTION[profile]
    sections = {ref: cl.families.preset_section(ref) for ref in SECTION_REFS}
    windows = {
        ref: cl.operators.BasisWindow.section(sections[ref].sigma, p["window"]) for ref in SECTION_REFS
    }
    want = golden["section-battery"][profile]

    def request(ref):
        return lambda: (ref, section_verdict(cl, sections[ref], windows[ref], p["window"], p["fuel"]))

    def check(results: list) -> Tally:
        t = Tally()
        for ref, got in results:
            exp = want[ref]
            t.attempted += 1
            t.units += got["labels"]
            t.inconclusive += got["inconclusive_columns"]
            t.certified += sum(got["columns_checked"])
            t.coverage += len(got["columns_checked"]) * got["labels"]
            same = all(got[k] == exp[k] for k in ("labels", "ck_passed", "matrix", "relations_ok", "inconclusive_columns"))
            # certified coverage may grow but never shrink, and no identity may be vacuous
            covered = len(got["columns_checked"]) == len(exp["columns_checked"]) and all(
                0 < exp_c <= got_c for got_c, exp_c in zip(got["columns_checked"], exp["columns_checked"])
            )
            if not (same and covered):
                t.fail(f"section-battery {ref}: got {got}, expected {exp}")
        return t

    items = sum(len(w) for w in windows.values())
    return Plan([(ref, request(ref)) for ref in SECTION_REFS], items, check)


# --- preset-sweep -------------------------------------------------------------------


def request_key(argv) -> str:
    return " ".join(argv)


def orbit_request(m: str, start: int, csv: bool) -> tuple[str, ...]:
    argv = ("orbit", m, str(start))
    if m in DIVERGENT:
        argv += ("--fuel", "500")
    return argv + (("--format", "csv") if csv else ())


def suite_menu() -> list[tuple[str, ...]]:
    """Every verify/classes request of the menu, at the README sizes."""
    menu = []
    for m in MAPS:
        menu += [
            ("verify", m, "--suite", "bounded"),
            ("verify", m, "--suite", "separating:1"),
            ("verify", m, "--suite", "ck", "--window", "1000", "--fuel", "100000"),
            ("verify", m, "--suite", "relations", "--window", "600", "--fuel", "100000"),
        ]
        if m in SECTION_PRESETS:
            menu.append(("verify", m, "--suite", "section", "--window", "300"))
        if m not in DIVERGENT:
            menu.append(("classes", m, "--window", "1000"))
        if m not in DIVERGENT or m == "qx1:5":
            menu.append(("verify", m, "--suite", "span", "--window", "500"))
    menu.append(("verify", "collatz", "--suite", "descent", "--window", "100000"))
    menu += [("verify", m, "--suite", "modular") for m in DIVERGENT]
    return menu


def sweep_requests(pool: dict, profile: str, seed: int) -> list[tuple[str, ...]]:
    """The whole menu once, with seeded orbit starts, in seeded order.

    Each map gets one JSON and one CSV orbit request, with starts drawn from its
    recorded pool of starts in [1, 10^9].  The tiny profile keeps the requests
    on the collatz and identity maps.
    """
    rng = random.Random(seed)
    reqs = suite_menu()
    for m in MAPS:
        a, b = rng.sample(pool[m], 2)
        reqs += [orbit_request(m, a, False), orbit_request(m, b, True)]
    if profile == "tiny":
        reqs = [r for r in reqs if r[1] in TINY_MAPS]
    rng.shuffle(reqs)
    return reqs


def cli_request(cl, argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cl.cli.main(list(argv))
    return code, buf.getvalue().encode()


def output_digest(code: int, out: bytes) -> list:
    return [code, hashlib.sha256(out).hexdigest(), len(out)]


def preset_sweep(profile: str, seed: int, golden: dict) -> Plan:
    """In-process ``cli.main`` requests over every preset and suite."""
    cl = _collatzlab()
    # what any caller pays before its first request: every preset and section
    for m in MAPS:
        cl.families.preset_map(m)
    for m in SECTION_PRESETS:
        cl.families.preset_section(m)
    g = golden["preset-sweep"]
    argvs = sweep_requests(g["orbit_pool"], profile, seed)

    def check(results: list) -> Tally:
        t = Tally()
        for argv, (code, out) in zip(argvs, results):
            t.attempted += 1
            t.units += 1
            t.inconclusive += code == 2
            t.certified += code in (0, 1)
            t.coverage += 1
            t.layer["cli.stdout_bytes"] += len(out)
            want = g["requests"][request_key(argv)]
            if output_digest(code, out) != want:
                t.fail(f"preset-sweep {request_key(argv)!r}: exit {code}, {len(out)} bytes, expected {want}")
        return t

    def request(argv):
        return lambda: cli_request(cl, argv)

    return Plan([(request_key(a), request(a)) for a in argvs], len(argvs), check)


WORKLOADS: dict[str, Callable[[str, int, dict], Plan]] = {
    "range-scan": range_scan,
    "span-class": span_class,
    "section-battery": section_battery,
    "preset-sweep": preset_sweep,
}

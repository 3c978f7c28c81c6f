"""span_vs_class against a per-start oracle read off the map alone, on the presets
at windows 1 to 3000 and depths None to 3, and the verdict of a depth-capped span."""

from __future__ import annotations

import dataclasses
import json
import random

import numpy as np
import pytest

from collatzlab import (
    BasisWindow,
    DomainError,
    build_T,
    collatz,
    preset_map,
    reachable_span,
    span_vs_class,
)
from collatzlab.cli import INCONCLUSIVE, INPUT_ERROR, PASS, VIOLATION, main
from collatzlab.gcmap import combine
from collatzlab import cli, dynamics, operators
from collatzlab.dynamics import ClassesReport
from collatzlab.gcmap import GCMap
from collatzlab.operators import SpanClassEntry, SpanClassReport
from test_return_kernel import scalar_classes


def walk(gcmap, hi, start, depth):
    """Labels within ``depth`` steps of ``start`` along n -> f(n) and n -> a preimage,
    inside [1, hi]: the index graph of the truncated T, read off the map itself."""
    seen, frontier, d = {start}, [start], 0
    while frontier and (depth is None or d < depth):
        nxt = []
        for n in frontier:
            for m in (gcmap.apply(n), *gcmap.preimage(n)):
                if m <= hi and m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier, d = nxt, d + 1
    return frozenset(seen)


def per_start_oracle(gcmap, hi, fuel, depths):
    """For each depth, the entry of every start in [1, hi] rebuilt from the map
    alone: both partitions by the scalar union-find, and the span walked with
    ``apply`` and ``preimage`` (shared by the starts of a class only without a
    depth, where it is the start's whole certified class)."""
    full, _ = scalar_classes(gcmap, hi, fuel)
    certified, _ = scalar_classes(gcmap, hi, 1)  # fuel 1: n joins f(n) only inside the window
    full_classes, cert_classes = {}, {}
    for n in range(1, hi + 1):
        full_classes.setdefault(full[n], set()).add(n)
        cert_classes.setdefault(certified[n], set()).add(n)
    boundary = {}  # per pair of classes, which the starts of a class share
    for depth in depths:
        done = {}
        entries = []
        for s in range(1, hi + 1):
            cert_set, full_set = cert_classes[certified[s]], full_classes[full[s]]
            pair = (certified[s], full[s])
            if pair not in boundary:
                boundary[pair] = len(full_set - cert_set)
            key = pair if depth is None else (*pair, s)
            if key not in done:
                span = walk(gcmap, hi, s, depth)
                done[key] = (
                    len(span), len(full_set), span <= full_set, span == cert_set,
                    boundary[pair], depth is not None and span < cert_set,
                )
            entries.append(SpanClassEntry(s, *done[key]))
        yield depth, tuple(entries)


def report_of(entries) -> SpanClassReport:
    """The report whose columns are the fields of these entries, in order."""
    names = [f.name for f in dataclasses.fields(SpanClassEntry)]
    return SpanClassReport(*(np.array([getattr(e, name) for e in entries]) for name in names))


# the divergent maps at small fuel only: the scalar reruns of their lanes grow big ints
ORACLE_FUEL = {"collatz": 10**4, "identity": 10**4, "3xd:1": 10**4, "3xd:5": 10**4, "3xd:9": 10**4,
               "qx1:5": 40, "mersenne:3": 40}


@pytest.mark.parametrize("depth", [None, 3])
def test_span_vs_class_matches_per_start_oracle(depth):
    gcmap, window, fuel = collatz(), BasisWindow.range(1, 3000), 10**4
    [(_, want)] = per_start_oracle(gcmap, 3000, fuel, (depth,))
    assert span_vs_class(gcmap, window, fuel, depth=depth).entries == want


@pytest.mark.parametrize("window", [1, 2, 500, 3000])
@pytest.mark.parametrize("ref", list(ORACLE_FUEL))
def test_span_vs_class_matches_oracle_on_presets(ref, window):
    gcmap, fuel, w = preset_map(ref), ORACLE_FUEL[ref], BasisWindow.range(1, window)
    for depth, want in per_start_oracle(gcmap, window, fuel, (None, 0, 1, 3)):
        assert span_vs_class(gcmap, w, fuel, depth).entries == want, depth


@pytest.mark.parametrize("depth", [None, 0, 3])
@pytest.mark.parametrize("hi", [500, 3000])
def test_entries_keep_the_order_of_unsorted_and_repeated_starts(hi, depth):
    gcmap, fuel = collatz(), 10**4
    [(_, entries)] = per_start_oracle(gcmap, hi, fuel, (depth,))
    rng = random.Random(hi)
    starts = [rng.randrange(1, hi + 1) for _ in range(200)] + [hi, 1, 1, hi, 27, 9]
    want = tuple(entries[s - 1] for s in starts)
    got = span_vs_class(gcmap, BasisWindow.range(1, hi), fuel, depth, starts=starts).entries
    assert [e.start for e in got] == starts
    assert got == want


@pytest.mark.parametrize("depth", [None, 3])
def test_no_starts_is_inconclusive_not_a_pass(depth):
    rep = span_vs_class(collatz(), BasisWindow.range(1, 100), 100, depth, starts=[])
    assert rep.entries == ()
    assert rep.status == INCONCLUSIVE and not rep.ok


def test_depth_bounded_span_is_per_start():
    window = BasisWindow.range(1, 500)
    rep = span_vs_class(collatz(), window, 10**4, depth=3, starts=[1, 9])
    t = build_T(collatz(), window)
    assert [e.span_size for e in rep.entries] == [
        len(reachable_span([t], 1, 3)),
        len(reachable_span([t], 9, 3)),
    ] == [5, 9]


def test_depth_capped_span_is_inconclusive_not_a_violation():
    rep = span_vs_class(collatz(), BasisWindow.range(1, 500), 10**4, depth=3, starts=[1, 9])
    assert all(e.depth_capped and e.span_subset_of_class for e in rep.entries)
    assert rep.status == INCONCLUSIVE


def test_span_status_precedence():
    def entry(subset, equals, capped):
        return SpanClassEntry(1, 1, 2, subset, equals, 0, capped)

    assert entry(True, True, False).status == PASS
    assert entry(True, False, True).status == INCONCLUSIVE
    assert entry(True, False, False).status == VIOLATION
    assert entry(False, False, False).status == VIOLATION  # left its class
    report = report_of((entry(True, False, True), entry(False, False, False)))
    assert report.status == VIOLATION


def _replace_classes(monkeypatch, rep_of, full_too: bool):
    """Give span_vs_class the certified partition n -> rep_of(n) (and, with
    ``full_too``, the same full partition), so that spans leave their classes."""
    def fake(rep):
        minima = np.array([rep_of(n) for n in range(1, rep.window + 1)], dtype=np.int64)
        return ClassesReport(rep.window, minima, rep.flagged_mask)

    # span_vs_class takes both partitions from _window_classes
    window_classes = operators._window_classes

    def replaced(*args):
        full, certified, edges = window_classes(*args)
        return fake(full) if full_too else full, fake(certified), edges

    monkeypatch.setattr(operators, "_window_classes", replaced)


@pytest.mark.parametrize("depth", [None, 3])
def test_span_leaving_its_class_is_a_violation(monkeypatch, depth):
    _replace_classes(monkeypatch, lambda n: n, full_too=True)
    rep = span_vs_class(collatz(), BasisWindow.range(1, 200), 10**4, depth=depth, starts=[1, 9])
    assert [e.span_subset_of_class for e in rep.entries] == [False, False]
    assert rep.status == VIOLATION


def test_capped_span_leaving_its_certified_class_is_a_violation(monkeypatch):
    # certified classes by parity: each is larger than a depth-3 span, but the span mixes parities
    _replace_classes(monkeypatch, lambda n: 2 - n % 2, full_too=False)
    rep = span_vs_class(collatz(), BasisWindow.range(1, 200), 10**4, depth=3, starts=[1, 9])
    assert all(e.span_subset_of_class and not e.depth_capped for e in rep.entries)
    assert rep.status == VIOLATION


def test_negative_depth_is_an_input_error():
    with pytest.raises(ValueError, match="depth must be >= 0"):
        span_vs_class(collatz(), BasisWindow.range(1, 50), 100, depth=-1)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        reachable_span([build_T(collatz(), BasisWindow.range(1, 50))], 1, -1)


def test_reachable_span_needs_one_window():
    ops = [build_T(collatz(), BasisWindow.range(1, hi)) for hi in (50, 60)]
    with pytest.raises(ValueError, match="operators must share a window"):
        reachable_span(ops, 1, None)


@pytest.mark.parametrize("start", [51, 0])
def test_start_outside_the_window_is_a_domain_error(start):
    window = BasisWindow.range(1, 50)
    with pytest.raises(DomainError, match=f"start {start} not in window"):
        span_vs_class(collatz(), window, 100, starts=[start])
    with pytest.raises(DomainError, match=f"start {start} not in window"):
        reachable_span([build_T(collatz(), window)], start, None)


CONVERGENT = ("collatz", "identity", "3xd:1", "3xd:3", "3xd:5", "3xd:9")
DIVERGENT = ("qx1:5", "mersenne:3", "mersenne:4", "mersenne:5")  # orbits grow: small fuel only


@pytest.mark.parametrize("hi", [1, 2, 500, 3000])
@pytest.mark.parametrize("ref", CONVERGENT + DIVERGENT)
def test_full_classes_contracted_from_the_certified_ones(ref, hi):
    """``_window_classes`` contracts its full partition from its certified one:
    both equal the direct partitions of ``classes`` at fuel and at fuel 1."""
    gcmap = preset_map(ref)
    certified = dynamics.classes(gcmap, hi, 1)
    for fuel in (1, 40 if ref in DIVERGENT else 10**4):
        full, cert, _ = operators._window_classes(gcmap, hi, fuel)
        for got, want in ((full, dynamics.classes(gcmap, hi, fuel)), (cert, certified)):
            assert got.window == want.window == hi
            assert got.minima.tolist() == want.minima.tolist()
            assert got.flagged_mask.tolist() == want.flagged_mask.tolist()


def _verify_span(capsys, *extra):
    code = main(["verify", "collatz", "--suite", "span", "--window", "500", *extra])
    return code, json.loads(capsys.readouterr().out)


def test_cli_span_depth_cap_exits_2(capsys):
    code, body = _verify_span(capsys, "--depth", "3")
    assert code == body["exitCode"] == INCONCLUSIVE
    assert body["failures"] == []
    assert body["depthCapped"] > 0


def test_cli_span_negative_depth_exits_3(capsys):
    code, body = _verify_span(capsys, "--depth", "-1")
    assert code == INPUT_ERROR
    assert "depth must be >= 0" in body["error"]


def test_cli_span_large_depth_passes(capsys):
    code, body = _verify_span(capsys, "--depth", "1000")
    assert code == body["exitCode"] == PASS
    assert body["depthCapped"] == 0


@pytest.mark.parametrize("depth", [None, 2])
@pytest.mark.parametrize("ref", ["collatz", "3xd:5", "qx1:5"])
def test_one_window_image_gives_both_certified_classes_and_graph(monkeypatch, ref, depth):
    """The entries equal those of the full classes at fuel, the certified
    classes from ``classes`` at fuel 1 and T's graph from ``build_T``, at the
    sizes of ``verify --suite span``, from one first-return call at fuel."""
    gcmap, hi, fuel = preset_map(ref), 1000, 10**4
    window = BasisWindow.range(1, hi)
    calls = []

    def counted(real):
        return lambda *args: calls.append(args[3]) or real(*args)

    for module in (operators, dynamics):
        monkeypatch.setattr(module, "return_times", counted(module.return_times))
    got = span_vs_class(gcmap, window, fuel, depth).entries
    assert calls == [fuel]  # the fuel of each return_times call
    t = build_T(gcmap, window)
    full, certified = dynamics.classes(gcmap, hi, fuel), dynamics.classes(gcmap, hi, 1)
    old = (full, certified, (t._col, t._row))  # T's graph: an edge per entry
    monkeypatch.setattr(operators, "_window_classes", lambda *_: old)
    assert span_vs_class(gcmap, window, fuel, depth).entries == got


# --- the span suite reads its counts off the report's arrays ------------------------------


def suite_of(entries, depth) -> dict:
    """The span suite's payload, read off the entries one by one."""
    statuses = [e.status for e in entries]
    status = combine(statuses) if entries else INCONCLUSIVE
    body = {
        "exitCode": status,
        "starts": len(entries),
        "ok": status == PASS,
        "failures": [e.start for e, s in zip(entries, statuses) if s == VIOLATION][:20],
        "boundaryAffected": sum(1 for e in entries if e.boundary_members),
    }
    if depth is not None:
        body["depthCapped"] = sum(1 for e in entries if e.depth_capped)
    return body


def span_suite(capsys, ref, hi, fuel, depth) -> dict:
    argv = ["verify", ref, "--suite", "span", "--window", str(hi), "--fuel", str(fuel)]
    code = main(argv + ([] if depth is None else ["--depth", str(depth)]))
    body = json.loads(capsys.readouterr().out)
    assert code == body["exitCode"]
    return {key: body[key] for key in ("exitCode", "starts", "ok", "failures", "boundaryAffected", "depthCapped")
            if key in body}


@pytest.mark.parametrize("hi", [1, 2, 7, 64, 300])
@pytest.mark.parametrize("ref", list(ORACLE_FUEL))
def test_span_suite_and_statuses_match_the_per_entry_forms(capsys, ref, hi):
    gcmap, fuel = preset_map(ref), ORACLE_FUEL[ref]
    for depth, want in per_start_oracle(gcmap, hi, fuel, (None, 0, 1, 3)):
        rep = span_vs_class(gcmap, BasisWindow.range(1, hi), fuel, depth)
        assert rep.entries == want
        assert rep.statuses.tolist() == [e.status for e in want]
        assert rep.status == suite_of(want, depth)["exitCode"]
        assert span_suite(capsys, ref, hi, fuel, depth) == suite_of(want, depth)


@pytest.mark.parametrize("depth", [None, 3])
@pytest.mark.parametrize("rep_of, full_too", [(lambda n: n, True), (lambda n: 2 - n % 2, False)])
def test_span_suite_lists_the_first_20_failures(monkeypatch, capsys, rep_of, full_too, depth):
    # classes that the spans leave: most of the 200 starts fail, some capped spans stay inconclusive
    _replace_classes(monkeypatch, rep_of, full_too)
    rep = span_vs_class(collatz(), BasisWindow.range(1, 200), 10**4, depth)
    want = suite_of(rep.entries, depth)
    assert len([e for e in rep.entries if e.status == VIOLATION]) > 20 and want["exitCode"] == VIOLATION
    assert rep.statuses.tolist() == [e.status for e in rep.entries]
    assert span_suite(capsys, "collatz", 200, 10**4, depth) == want


def test_a_report_of_no_starts_builds_no_entries():
    rep = span_vs_class(collatz(), BasisWindow.range(1, 100), 100, starts=[])
    assert rep.entries == () and rep.statuses.tolist() == [] and rep.status == INCONCLUSIVE


# --- sizes that do not fit are input errors, not violations --------------------------------


@pytest.mark.parametrize("argv", [["verify", "collatz", "--suite", s] for s in ("span", "relations", "section")])
def test_a_window_past_int64_exits_3(monkeypatch, capsys, argv):
    # 10^20 fails before any allocation or map step: no length of a window goes past int64
    monkeypatch.setattr(GCMap, "apply", lambda *_: pytest.fail("a map step was taken"))
    code = main(argv + ["--window", str(10**20)])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == INPUT_ERROR
    assert error.startswith(f"a request of --window {10**20} --fuel 10000 does not fit in int64: ")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["classes", "collatz", "--window", "100"], "classes"),
        (["verify", "collatz", "--suite", "span", "--window", "100"], "span_vs_class"),
        (["verify", "collatz", "--suite", "relations", "--window", "100"], "verify_branch_relations"),
    ],
)
def test_a_request_past_memory_exits_3(monkeypatch, capsys, argv, name):
    # the request's own call raises it at once, so nothing large is ever allocated
    def no_room(*args, **kwargs):
        raise MemoryError(no_room.message)

    no_room.message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type int64"

    monkeypatch.setattr(cli, name, no_room)
    code = main(argv)
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == INPUT_ERROR
    assert error == f"a request of --window 100 --fuel 10000 does not fit in memory: {no_room.message}"

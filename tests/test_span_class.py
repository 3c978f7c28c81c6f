"""span_vs_class against a per-start oracle, and the verdict of a depth-capped span."""

from __future__ import annotations

import json

import pytest

from collatzlab import (
    BasisWindow,
    DomainError,
    build_T,
    classes,
    collatz,
    reachable_span,
    span_vs_class,
)
from collatzlab.cli import INCONCLUSIVE, INPUT_ERROR, PASS, VIOLATION, main
from collatzlab import operators
from collatzlab.dynamics import ClassesReport
from collatzlab.operators import SpanClassEntry, SpanClassReport


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


def per_start_oracle(gcmap, window, fuel, depth, starts):
    """Both class sets rebuilt and the span walked for each start on its own (the
    span is shared only without a depth, where it is the start's whole certified
    class)."""
    hi = window.elements[-1]
    full = classes(gcmap, hi, fuel)
    certified = classes(gcmap, hi, fuel, interior_only=True)
    span_cache = {}
    cert_classes = certified.classes()
    full_classes = full.classes()
    entries = []
    for s in starts:
        rep = certified.class_of(s)
        key = rep if depth is None else (rep, s)
        if key not in span_cache:
            span_cache[key] = walk(gcmap, hi, s, depth)
        span = span_cache[key]
        cert_set = set(cert_classes[rep])
        full_set = set(full_classes[full.class_of(s)])
        entries.append(
            (s, len(span), len(full_set), span <= full_set, span == cert_set, len(full_set - cert_set))
        )
    return entries


@pytest.mark.parametrize("depth", [None, 3])
def test_span_vs_class_matches_per_start_oracle(depth):
    gcmap, window, fuel = collatz(), BasisWindow.range(1, 3000), 10**4
    rep = span_vs_class(gcmap, window, fuel, depth=depth)
    got = [
        (e.start, e.span_size, e.class_size, e.span_subset_of_class, e.span_equals_certified, e.boundary_members)
        for e in rep.entries
    ]
    assert got == per_start_oracle(gcmap, window, fuel, depth, window.elements)


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
    report = SpanClassReport((entry(True, False, True), entry(False, False, False)))
    assert report.status == VIOLATION


def _replace_classes(monkeypatch, rep_of, full_too: bool):
    """Give span_vs_class the certified partition n -> rep_of(n) (and, with
    ``full_too``, the same full partition), so that spans leave their classes."""
    real = operators.classes

    def fake(gcmap, window, fuel, interior_only=False):
        rep = real(gcmap, window, fuel, interior_only)
        if not (interior_only or full_too):
            return rep
        return ClassesReport(window, {n: rep_of(n) for n in rep.representative}, rep.flagged)

    monkeypatch.setattr(operators, "classes", fake)


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


@pytest.mark.parametrize("start", [51, 0])
def test_start_outside_the_window_is_a_domain_error(start):
    window = BasisWindow.range(1, 50)
    with pytest.raises(DomainError, match=f"start {start} not in window"):
        span_vs_class(collatz(), window, 100, starts=[start])
    with pytest.raises(DomainError, match=f"start {start} not in window"):
        reachable_span([build_T(collatz(), window)], start, None)


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

"""The exact finish of a narrow frontier, and the jump table built on first use.

Once a window's or per-lane frontier is down to ``dynamics._NARROW`` live
lanes, each leaves with its current value and step count and finishes in
``_exact_return``.  Lane by lane, ``return_times`` must agree with the scalar
path at every width: 0 (no lane leaves but past the guard), 1, and one above
any call, where every lane that did not return at its first step leaves right
after it.  The jump table of a plan is built only when an exact lane first
reaches its floor.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab import classes, dynamics
from collatzlab.cli import PASS, main
from collatzlab.families import _odd_even, collatz, preset_map, preset_section
from test_return_kernel import (
    ODD_EVEN,
    PRESETS,
    assert_per_lane,
    below_tops,
    cached_lanes,
    expanding_map_and_fuel,
    lanes_of,
)

WIDTHS = (0, 1, 10**9)  # no handoff, the last lane, every lane after its first step
EVERY = WIDTHS[-1]
WINDOW = range(1, 301)


@pytest.fixture(params=WIDTHS)
def width(request, monkeypatch):
    monkeypatch.setattr(dynamics, "_NARROW", request.param)
    return request.param


@pytest.fixture
def handed(monkeypatch) -> list[int]:
    """The step count of each lane ``_exact_return`` takes over, in call order."""
    steps, exact = [], dynamics._exact_return

    def finish(gcmap, sigma, plan, v, step, fuel):
        steps.append(step)
        return exact(gcmap, sigma, plan, v, step, fuel)

    monkeypatch.setattr(dynamics, "_exact_return", finish)
    return steps


def lanes(out) -> list[tuple[int, int, bool]]:
    return list(zip(*(col.tolist() for col in out)))


@pytest.mark.parametrize("fuel", [1, 2, 13, 200])
@pytest.mark.parametrize("ref", PRESETS)
def test_windows_on_presets(width, handed, ref, fuel):
    gcmap, xs = preset_map(ref), list(WINDOW)
    got = lanes(dynamics.return_times(gcmap, WINDOW, xs, fuel))
    assert got == cached_lanes(gcmap, WINDOW, tuple(xs), fuel)
    if width == EVERY and fuel > 1:  # every lane left at its first step, and only those
        assert handed == [1] * sum(gcmap.apply(x) not in WINDOW for x in xs)


@pytest.mark.parametrize("ref", PRESETS)
def test_per_lane_tops_on_presets(width, handed, ref):
    gcmap = preset_map(ref)
    tops, xs = lanes_of(gcmap, 100)
    for fuel in (1, 2, 13, 60):
        handed.clear()
        assert_per_lane(gcmap, tops, xs, fuel)
        if width == EVERY and fuel > 2:  # a fused first step counts 2
            assert handed and set(handed) <= {1, 2}


@pytest.mark.parametrize("a, b", ODD_EVEN)
def test_fused_per_lane_tops_on_the_odd_even_maps(width, a, b):
    # every start at its top: the first step is fused, and so is every exact odd step
    gcmap = _odd_even(a, b)
    starts = list(range(1, 401))
    for fuel in (1, 2, 3, 60):
        assert_per_lane(gcmap, starts, starts, fuel)


@given(expanding_map_and_fuel(), st.sampled_from([1, 2, 100, 200]))
@settings(max_examples=30, deadline=None)
def test_random_maps_at_every_width(mf, window):
    gcmap, fuel = mf
    sigma, xs = range(1, window + 1), list(range(1, window + 1))
    tops = [max(1, x // 2) for x in xs]
    want = [cached_lanes(gcmap, sigma, tuple(xs), fuel), below_tops(gcmap, tops, xs, fuel)]
    for width in WIDTHS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_NARROW", width)
            got = [
                lanes(dynamics.return_times(gcmap, sigma, xs, fuel)),
                lanes(dynamics.return_times(gcmap, np.array(tops, dtype=np.int64), xs, fuel)),
            ]
        assert got == want, width


def test_residue_sections_stay_in_numpy(handed, monkeypatch):
    # a section's exact step is apply and a residue test: only the guard sends lanes there
    monkeypatch.setattr(dynamics, "_NARROW", EVERY)
    sec = preset_section("collatz")
    xs = list(sec.sigma.members(1, 3000))
    dynamics.return_times(sec.map, sec.sigma, xs, 10**4)
    assert handed == []


# --- the jump table, built on first use ---------------------------------------------------


@pytest.fixture
def tables(monkeypatch) -> list[tuple[int, int]]:
    """(m, k) of each jump table built, from fresh plans."""
    built, table = [], dynamics._jump_table

    def spy(rows, m, k):
        built.append((m, k))
        return table(rows, m, k)

    monkeypatch.setattr(dynamics, "_jump_table", spy)
    dynamics._plan_for.cache_clear()
    yield built
    dynamics._plan_for.cache_clear()


def test_classes_below_the_floor_build_no_table(tables):
    # collatz tails from [1, 1000] peak below the floor 1000 * 2^12: they finish step by step
    rep = classes(collatz(), 1000, 10**4)
    assert rep.num_classes == 1 and not rep.flagged_mask.any()
    assert tables == []


def test_the_qx1_5_span_request_builds_one_table(tables, capsys):
    # its divergent lanes pass the floor 500 * 2^12 and jump to the fuel, all through one table
    assert main(["verify", "qx1:5", "--suite", "span", "--window", "500"]) == PASS
    assert json.loads(capsys.readouterr().out)["ok"]
    assert tables == [(2, 12)]

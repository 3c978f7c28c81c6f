"""One kernel plan per map, shared by every later call.

The plan (``dynamics._plan``) holds what the first-return kernel reads off a
map: the step tables and guard, the shape, the int64 step and the jump.  It is
built once per map and int64 bound, equal maps share it, and the cache holds
at most ``dynamics._PLANS`` of them.  The exact finish jumps k steps at a time
only from the plan's floor max(top, low) * scale on, where no iterate of the
jump can return; lane by lane it must agree with the scalar path.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from collatzlab import collatz, dynamics, preset_map, qx1, section_of, verify_range
from collatzlab.cli import main
from collatzlab.dynamics import return_times
from test_return_kernel import JUMP_MAPS, K, _map, assert_same_returns, below_tops, maps

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


def cli(*argv: str) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue().encode()


def test_one_step_table_build_per_map(monkeypatch):
    """Every suite that reaches the kernel, and the range scan, read the map's one plan."""
    built, tables = Counter(), dynamics._step_tables

    def spy(gcmap):
        built[gcmap] += 1
        return tables(gcmap)

    monkeypatch.setattr(dynamics, "_step_tables", spy)
    dynamics._plan_for.cache_clear()
    for ref in ("collatz", "qx1:5", "3xd:5"):
        for argv in (
            ("classes", ref, "--window", "300", "--fuel", "200"),
            ("verify", ref, "--suite", "span", "--window", "200", "--fuel", "200"),
            ("verify", ref, "--suite", "relations", "--window", "200", "--fuel", "1000"),
            ("verify", ref, "--suite", "ck", "--window", "300", "--fuel", "1000"),
        ):
            cli(*argv)
        verify_range(preset_map(ref), 2000, 200)
    assert built == {preset_map(ref): 1 for ref in ("collatz", "qx1:5", "3xd:5")}


def test_equal_maps_share_a_plan_and_maps_of_one_modulus_do_not():
    # collatz and qx1:5 both have modulus 2: a plan keyed by the modulus alone
    # would step 5n + 1 with the 3n + 1 tables
    dynamics._plan_for.cache_clear()
    three, five = collatz(), qx1(5)
    assert dynamics._plan(three) is dynamics._plan(qx1(3)) is not dynamics._plan(five)
    for gcmap in (three, five, three):
        assert_same_returns(gcmap, range(1, 301), list(range(1, 301)), 40)
        tops = np.arange(1, 301, dtype=np.int64)
        value, tau, undecided = return_times(gcmap, tops, list(range(1, 301)), 40)
        assert list(zip(value.tolist(), tau.tolist(), undecided.tolist())) == below_tops(
            gcmap, tops.tolist(), list(range(1, 301)), 40
        )


def test_a_lowered_guard_reaches_a_plan_of_its_own(monkeypatch):
    # the plan is keyed by the int64 bound too, so a patched bound is never
    # hidden by a plan built before it, nor leaks into one after it
    plan = dynamics._plan(collatz())
    monkeypatch.setattr(dynamics, "_INT64_MAX", 10**4)
    low = dynamics._plan(collatz())
    assert low is not plan and low.guard == (10**4 - 1) // 3 == dynamics._step_tables(collatz())[4]
    monkeypatch.undo()
    assert dynamics._plan(collatz()) is plan and plan.guard == (2**63 - 2) // 3


def test_a_section_is_built_once_per_map():
    section_of.cache_clear()
    first = section_of(preset_map("qx1:5"))
    assert section_of(qx1(5)) is first and first.sigma is first.sigma
    assert preset_map("mersenne:3") is preset_map("mersenne:3") == qx1(7)


@given(maps(contracting=False))
@settings(max_examples=40, deadline=None)
def test_random_maps_hold_no_more_plans_than_the_bound(gcmap):
    return_times(gcmap, range(1, 31), list(range(1, 31)), 3)
    gc.collect()
    assert sum(isinstance(o, dynamics._Plan) for o in gc.get_objects()) <= dynamics._PLANS


# --- the threshold finish -------------------------------------------------------------

LANE_MAPS = ("qx1:5", "qx1:7", "mersenne:3", "3xd:5", "3n-1", "mod3")


@pytest.mark.parametrize("ref", LANE_MAPS)
def test_threshold_finish_on_per_lane_tops_and_fuel(ref, monkeypatch):
    """Under a guard of 10^4 every start leaves the int64 frontier at step 0; the
    starts at or past their lane's floor jump at once, the others step to it.
    Per-lane fuel k - 1, k and k + 1 puts the last jump on each side of the fuel."""
    gcmap = JUMP_MAPS[ref]
    monkeypatch.setattr(dynamics, "_INT64_MAX", 10**4)
    k, _, scale, low = dynamics._plan(gcmap).jump
    exact, entered = dynamics._exact_return, []

    def finish(gcmap, sigma, jump, v, step, fuel):
        entered.append((v >= max(sigma.stop, low) * scale, step))
        return exact(gcmap, sigma, jump, v, step, fuel)

    monkeypatch.setattr(dynamics, "_exact_return", finish)
    rng = random.Random(ref)
    tops = [rng.randrange(1, 60) for _ in range(150)]
    xs = [max(t, low) * scale + rng.randrange(-3, 5 * k) if i % 3 else 10**4 + i for i, t in enumerate(tops)]
    for fuels in ([k - 1, k, k + 1], [2 * k + 1, k, 3]):
        fuel = np.array([fuels[i % 3] for i in range(len(xs))], dtype=np.int64)
        entered.clear()
        value, tau, undecided = return_times(gcmap, np.array(tops, dtype=np.int64), xs, fuel)
        got = list(zip(value.tolist(), tau.tolist(), undecided.tolist()))
        want = [below_tops(gcmap, [t], [x], f)[0] for t, x, f in zip(tops, xs, fuel.tolist())]
        assert got == want
        assert len(entered) == len(xs) and {s for _, s in entered} == {0}
        assert any(past for past, _ in entered) and not all(past for past, _ in entered)


def test_the_floor_keeps_a_negative_offset_in_its_range(monkeypatch):
    # n -> n - 60 on 61 mod 64, 2n elsewhere: f(n) >= n/2 holds only from n >= 120
    # on, so a lane at 61 must not jump to its top * 2^2, since 61 -> 1 returns at once
    drop = _map(64, ([61], 1, -60, 1), ([r for r in range(64) if r != 61], 2, 0, 1))
    monkeypatch.setattr(dynamics, "_INT64_MAX", 100)  # guard 50: every start leaves at step 0
    k, _, scale, low = dynamics._plan(drop).jump
    assert (k, scale, low) == (2, 4, 120)
    tops = [t for t in range(2, 21) for _ in range(4)]
    xs = [61 + 64 * (i % 4) for i in range(len(tops))]
    for fuel in (k - 1, k, k + 1, 9):
        value, tau, undecided = return_times(drop, np.array(tops, dtype=np.int64), xs, fuel)
        assert list(zip(value.tolist(), tau.tolist(), undecided.tolist())) == below_tops(drop, tops, xs, fuel)


def test_no_threshold_for_a_map_it_does_not_cover(monkeypatch):
    # a = 0 on odd n leaves no lower bound on f(n): its exact lanes take single steps
    assert dynamics._plan(collatz()).jump[0] == K
    constant = _map(2, ([1], 0, 5, 1), ([0], 1, 0, 2))
    monkeypatch.setattr(dynamics, "_INT64_MAX", 100)
    assert dynamics._plan(constant).jump is None
    tops, xs = list(range(1, 60)), [101 + 7 * i for i in range(59)]  # past the guard 95 at step 0
    value, tau, undecided = return_times(constant, np.array(tops, dtype=np.int64), xs, 20)
    assert list(zip(value.tolist(), tau.tolist(), undecided.tolist())) == below_tops(constant, tops, xs, 20)


# --- the golden requests in one warm process ----------------------------------------------


def test_golden_requests_in_shuffled_order_keep_their_bytes():
    requests = sorted(json.loads(GOLDEN.read_text())["preset-sweep"]["requests"].items())
    dynamics._plan_for.cache_clear()
    section_of.cache_clear()
    for seed in (1, 2):
        random.Random(seed).shuffle(requests)
        for key, want in requests:
            code, out = cli(*key.split(" "))
            assert [code, hashlib.sha256(out).hexdigest(), len(out)] == want, key

"""Range convergence scans: fast vectorized path vs generic orbit path."""

from __future__ import annotations

import numpy as np
import pytest

from collatzlab import collatz, rangecheck, verify_range, verify_range_collatz
from collatzlab.rangecheck import _INT64_GUARD, _drops_below_start_exact


def drop_scan(limit, step_cap):
    """Pure-Python drops-below-start scan of [2, limit]: (inconclusive, max steps to drop)."""
    inconclusive, max_steps = [], 0
    for n in range(2, limit + 1):
        v = n
        for step in range(1, step_cap + 1):
            v = 3 * v + 1 if v % 2 else v // 2
            if v < n:
                max_steps = max(max_steps, step)
                break
        else:
            inconclusive.append(n)
    return tuple(inconclusive), max_steps


def test_small_range_verified():
    rep = verify_range_collatz(10_000)
    assert rep.verified and not rep.inconclusive
    assert rep.max_steps_to_drop >= 1


def test_agrees_with_generic_scan():
    fast = verify_range_collatz(2_000)
    slow = verify_range(collatz(), 2_000, 10_000)
    assert fast.verified == slow.verified == True  # noqa: E712


def test_exact_fallback_matches_vectorized():
    # 27 has the famously long excursion; both paths must agree on the drop step
    steps = _drops_below_start_exact(27, 10_000)
    v, s = 27, 0
    while v >= 27:
        v = 3 * v + 1 if v & 1 else v >> 1
        s += 1
    assert steps == s == 96


def test_step_cap_reports_inconclusive():
    rep = verify_range_collatz(30, step_cap=3)
    assert not rep.verified
    assert 27 in rep.inconclusive


def test_int64_guard_is_the_exact_overflow_bound():
    # every v below the guard has 3v+1 <= 2^63 - 1; the guard itself (odd) overflows
    assert 3 * (_INT64_GUARD - 1) + 1 == 2**63 - 1
    assert _INT64_GUARD % 2 == 1 and 3 * _INT64_GUARD + 1 > 2**63 - 1
    wrapped = 3 * np.array([_INT64_GUARD - 2, _INT64_GUARD], dtype=np.int64) + 1
    assert wrapped[0] == 3 * (_INT64_GUARD - 2) + 1 and wrapped[1] < 0


@pytest.mark.parametrize("guard", [_INT64_GUARD, 1000])
@pytest.mark.parametrize("step_cap", [3, 10, 10_000])
def test_compacting_kernel_matches_python_scan(monkeypatch, guard, step_cap):
    # batches of 7 make the maximum run across many batches; a guard of 1000
    # sends every frontier that climbs past it to the exact pass
    monkeypatch.setattr(rangecheck, "_BATCH", 7)
    monkeypatch.setattr(rangecheck, "_INT64_GUARD", guard)
    exact_calls = []

    def exact(n, cap):
        exact_calls.append(n)
        return _drops_below_start_exact(n, cap)

    monkeypatch.setattr(rangecheck, "_drops_below_start_exact", exact)
    rep = verify_range_collatz(3000, step_cap=step_cap)
    inconclusive, max_steps = drop_scan(3000, step_cap)
    assert rep.verified == (not inconclusive)
    assert rep.inconclusive == inconclusive
    assert rep.max_steps_to_drop == max_steps
    if guard == 1000:
        assert set(exact_calls) - set(inconclusive)  # the guard sent live starts to the exact pass
    else:
        assert not exact_calls  # a frontier that outlives the step cap is not replayed

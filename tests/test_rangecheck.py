"""Range convergence scans: fast vectorized path vs generic orbit path."""

from __future__ import annotations

import numpy as np
import pytest

from collatzlab import collatz, rangecheck, verify_range, verify_range_collatz
from collatzlab.rangecheck import _INT64_GUARD, _drops_below_start_exact, _sieve


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
    assert fast.max_steps_to_drop == slow.max_steps_to_drop == 132


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


@pytest.mark.parametrize("sieve_bits", [1, 2, 3, 8])
@pytest.mark.parametrize("guard", [_INT64_GUARD, 1000])
@pytest.mark.parametrize("step_cap", [3, 10, 10_000])
def test_sieved_scan_matches_python_scan(monkeypatch, sieve_bits, guard, step_cap):
    # small moduli leave a short first block, so sieved classes and advanced
    # survivors decide most of [2, 3000]; at 2 bits and cap 3 the maximum
    # comes from a sieved class alone
    monkeypatch.setattr(rangecheck, "_SIEVE_BITS", sieve_bits)
    monkeypatch.setattr(rangecheck, "_BATCH", 7)
    monkeypatch.setattr(rangecheck, "_INT64_GUARD", guard)
    rep = verify_range_collatz(3000, step_cap=step_cap)
    inconclusive, max_steps = drop_scan(3000, step_cap)
    assert rep.inconclusive == inconclusive
    assert rep.verified == (not inconclusive)
    assert rep.max_steps_to_drop == max_steps


@pytest.mark.parametrize("sieve_bits", [3, 8, 12])
@pytest.mark.parametrize("step_cap", [5, 10_000])
def test_sieve_table_matches_exact_drop_steps(monkeypatch, sieve_bits, step_cap):
    monkeypatch.setattr(rangecheck, "_SIEVE_BITS", sieve_bits)
    m = 1 << sieve_bits
    drop, q, base, slope = _sieve(10**6, step_cap)
    survivors = np.flatnonzero(drop == 0)
    for r in np.flatnonzero(drop).tolist():
        for t in range(1, 6):
            assert _drops_below_start_exact(r + t * m, step_cap) == drop[r]
    for r, b, s in zip(survivors.tolist(), base.tolist(), slope.tolist()):
        for t in range(1, 6):
            n = v = r + t * m
            for _ in range(q):
                v = 3 * v + 1 if v & 1 else v >> 1
            assert _drops_below_start_exact(n, q) is None
            assert b + s * (t - 1) == v
    if sieve_bits == 12 and step_cap == 10_000:
        assert (len(survivors), q, drop.max()) == (226, 20, 19)


def test_sieve_does_not_advance_where_int64_would_wrap():
    drop, q, base, slope = _sieve(2**62, 10_000)
    survivors = np.flatnonzero(drop == 0)
    m = len(drop)
    assert q == 0
    assert base.tolist() == (survivors + m).tolist() and set(slope.tolist()) == {m}


@pytest.mark.parametrize("limit", [1, 2, 30, 1000])
@pytest.mark.parametrize("step_cap", [3, 5, 7, 10_000])
def test_small_limits_match_python_scan(limit, step_cap):
    rep = verify_range_collatz(limit, step_cap=step_cap)
    inconclusive, max_steps = drop_scan(limit, step_cap)
    assert rep.inconclusive == inconclusive
    assert rep.max_steps_to_drop == max_steps


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_range_collatz(10, step_cap=0),
        lambda: verify_range_collatz(10, step_cap=-3),
        lambda: verify_range_collatz(0),
        lambda: verify_range_collatz(True),
        lambda: verify_range_collatz(10.0),
        lambda: verify_range_collatz("10"),
        lambda: verify_range(collatz(), 10, 0),
        lambda: verify_range(collatz(), 0, 100),
        lambda: verify_range(collatz(), True, 100),
        lambda: verify_range(collatz(), 10.0, 100),
    ],
)
def test_bad_limit_or_cap_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()

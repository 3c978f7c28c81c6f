"""Range convergence scans: the sieve and the first-return kernel's int64 frontier,
with per-lane windows [1, n), against a pure-Python scan."""

from __future__ import annotations

import numpy as np
import pytest

from collatzlab import (
    AffineBranch,
    GCMap,
    ResidueSet,
    collatz,
    dynamics,
    identity_map,
    map_from_dict,
    preset_map,
    qx1,
    rangecheck,
    three_x_d,
    verify_range,
    verify_range_collatz,
)
from collatzlab.dynamics import _step_tables
from collatzlab.families import _odd_even
from collatzlab.rangecheck import _sieve

# the guard of 3v + 1 under the real int64 bound: the largest v it steps
COLLATZ_GUARD = (2**63 - 2) // 3

# the maps of the differential, as (a, b) of n -> a*n + b (odd), n/2 (even)
MAPS = [(3, 1), (3, 5), (3, 7), (5, 1), (7, 1), (31, 1), (127, 1)]


def _drop_step(gcmap, n, v, step, step_cap):
    """The step from ``step`` on (v is n's value before it) that first takes n's
    orbit below n, or None: the scalar oracle of the sieve tables."""
    for s in range(step, step_cap + 1):
        v = gcmap.apply(v)
        if v < n:
            return s
    return None


def log_exact_finish(monkeypatch) -> list[int]:
    """The starts n the scan finishes on exact ints, through the kernel's
    ``_exact_return`` on the window [1, n), each logged as it is handed over."""
    calls, exact = [], dynamics._exact_return

    def finish(gcmap, sigma, jump, v, step, fuel):
        calls.append(sigma.stop)
        return exact(gcmap, sigma, jump, v, step, fuel)

    monkeypatch.setattr(dynamics, "_exact_return", finish)
    return calls


def lower_guard(monkeypatch, past):
    """Lower the kernel's int64 bound so that 3v + 1 steps every v below ``past``
    and no v from it on (COLLATZ_GUARD + 1 keeps the real bound)."""
    monkeypatch.setattr(dynamics, "_INT64_MAX", 3 * past - 2)
    assert _step_tables(collatz())[4] == past - 1


def drop_scan(limit, step_cap, a=3, b=1):
    """Pure-Python drops-below-start scan of [2, limit] under n -> a*n + b (odd),
    n/2 (even): (inconclusive, max steps to drop)."""
    inconclusive, max_steps = [], 0
    for n in range(2, limit + 1):
        v = n
        for step in range(1, step_cap + 1):
            v = a * v + b if v % 2 else v // 2
            if v < n:
                max_steps = max(max_steps, step)
                break
        else:
            inconclusive.append(n)
    return tuple(inconclusive), max_steps


def base_inconclusive(step_cap, a=3, b=1):
    """(1,) unless the orbit of 1 comes back to 1 within step_cap steps."""
    v = 1
    for _ in range(step_cap):
        v = a * v + b if v % 2 else v // 2
        if v == 1:
            return ()
    return (1,)


def test_small_range_verified():
    rep = verify_range_collatz(10_000)
    assert rep.verified and not rep.inconclusive
    assert rep.max_steps_to_drop >= 1


def test_agrees_with_generic_scan():
    fast = verify_range_collatz(2_000)
    slow = verify_range(collatz(), 2_000, 10_000)
    assert fast.verified == slow.verified == True  # noqa: E712
    assert fast.max_steps_to_drop == slow.max_steps_to_drop == 132


@pytest.mark.parametrize("limit", [1, 2, 3, 30, 1000, 5000])
@pytest.mark.parametrize("step_cap", [1, 2, 3, 10, 10_000])
def test_collatz_scan_is_the_map_scan_on_collatz(limit, step_cap):
    fast, generic = verify_range_collatz(limit, step_cap), verify_range(collatz(), limit, step_cap)
    assert fast.limit == generic.limit == limit
    assert fast.verified == generic.verified
    assert fast.inconclusive == generic.inconclusive
    assert fast.max_steps_to_drop == generic.max_steps_to_drop


def test_exact_fallback_matches_vectorized():
    # 27 has the famously long excursion; both paths must agree on the drop step
    steps = _drop_step(collatz(), 27, 27, 1, 10_000)
    finish = dynamics._exact_return(collatz(), range(1, 27), None, 27, 0, 10_000)
    v, s = 27, 0
    while v >= 27:
        v = 3 * v + 1 if v & 1 else v >> 1
        s += 1
    assert steps == s == 96 and finish == (v, s)


@pytest.mark.parametrize("ref, guard", [("qx1:5", None), ("mersenne:3", None), ("3xd:5", 10**6)])
def test_jump_finish_matches_single_steps(monkeypatch, ref, guard):
    # exact lanes jump k steps at a time through a table at the highest start;
    # one gcmap.apply step at a time must give the same report.  3xd:5 stays
    # far below int64, so a bound of 10^6 sends its lanes to the exact finish.
    if guard is not None:
        monkeypatch.setattr(dynamics, "_INT64_MAX", guard)
    exact, jumps = dynamics._exact_return, {True: [], False: []}

    def finish(gcmap, sigma, jump, v, step, fuel):
        jumps[use_jump].append(jump)
        return exact(gcmap, sigma, jump if use_jump else None, v, step, fuel)

    monkeypatch.setattr(dynamics, "_exact_return", finish)
    reports = []
    for use_jump in (True, False):
        rep = verify_range(preset_map(ref), 3000, 2000)
        reports.append((rep.verified, rep.inconclusive, rep.max_steps_to_drop))
    assert reports[0] == reports[1]
    # one table of k > 1 steps serves every start the call finishes exactly
    # (3000 is below 2^12: the scan is one batch, one kernel call)
    tables = jumps[True]
    assert tables and tables[0][0] > 1 and all(table is tables[0] for table in tables)


def test_no_jump_table_without_an_exact_finish(monkeypatch):
    # collatz stays far below int64 here: every frontier empties in the int64 loop
    built = []
    monkeypatch.setattr(dynamics, "_jump_table", lambda *args: built.append(args))
    assert verify_range_collatz(10**5).verified and not built


def test_a_modulus_too_wide_to_jump_finishes_one_step_at_a_time(monkeypatch):
    # 3x+1 at modulus 2^13: no jump of k >= 2 steps fits a table of 2^12 entries
    wide = map_from_dict({"modulus": 2**13, "branches": [
        {"residues": list(range(1, 2**13, 2)), "a": 3, "b": 1, "c": 1},
        {"residues": list(range(0, 2**13, 2)), "a": 1, "b": 0, "c": 2},
    ]})
    lower_guard(monkeypatch, 1000)
    exact, jumps = dynamics._exact_return, []

    def finish(gcmap, sigma, jump, *rest):
        jumps.append(jump)
        return exact(gcmap, sigma, jump, *rest)

    monkeypatch.setattr(dynamics, "_exact_return", finish)
    rep = verify_range(wide, 3000, 60)
    assert jumps and all(jump is None for jump in jumps)
    want = verify_range(collatz(), 3000, 60)
    assert (rep.inconclusive, rep.max_steps_to_drop) == (want.inconclusive, want.max_steps_to_drop)


def test_step_cap_reports_inconclusive():
    rep = verify_range_collatz(30, step_cap=3)
    assert not rep.verified
    assert 27 in rep.inconclusive


@pytest.mark.parametrize("step_cap, inconclusive", [(1, (1,)), (2, (1,)), (3, ()), (10_000, ())])
def test_induction_base_gets_step_cap_steps(step_cap, inconclusive):
    # the orbit 1 -> 4 -> 2 -> 1 takes 3 steps, no more than any other start gets
    for rep in (verify_range_collatz(1, step_cap), verify_range(collatz(), 1, step_cap)):
        assert rep.inconclusive == inconclusive
        assert rep.verified == (not inconclusive)


@pytest.mark.parametrize("step_cap", [3, 20, 10_000])
def test_one_off_the_cycle_is_never_a_pass(step_cap):
    # under 3x+7, 1 -> 10 enters the cycle (5, 22, 11, 40, 20, 10) and never returns
    rep = verify_range(three_x_d(7), 50, step_cap)
    assert rep.inconclusive[0] == 1 and not rep.verified


def test_other_cycles_are_inconclusive():
    # under 3x+5, 1 comes back (1, 8, 4, 2) but the starts on other cycles never drop
    rep = verify_range(three_x_d(5), 3_000, 2_000)
    assert rep.inconclusive == drop_scan(3_000, 2_000, 3, 5)[0]
    assert len(rep.inconclusive) == 11 and rep.inconclusive[:4] == (3, 5, 7, 11)


def test_int64_guard_is_the_exact_overflow_bound():
    # every v up to the guard has 3v+1 <= 2^63 - 1; the next one (odd) overflows
    guard = _step_tables(collatz())[4]
    assert guard == COLLATZ_GUARD
    assert 3 * guard + 1 == 2**63 - 1
    assert (guard + 1) % 2 == 1 and 3 * (guard + 1) + 1 > 2**63 - 1
    wrapped = 3 * np.array([guard - 1, guard + 1], dtype=np.int64) + 1
    assert wrapped[0] == 3 * (guard - 1) + 1 and wrapped[1] < 0


@pytest.mark.parametrize("a, b", MAPS + [(3, 2**40 + 1), (2**61 + 1, 2**61 - 1)])
def test_guard_is_the_overflow_bound_of_every_map(a, b):
    # the kernel's one guard, which the range scan's sieve reads too
    guard = _step_tables(_odd_even(a, b))[4]
    assert a * guard + b <= 2**63 - 1 < a * (guard + 1) + b


@pytest.mark.parametrize("past", [COLLATZ_GUARD + 1, 1000])
@pytest.mark.parametrize("step_cap", [3, 10, 10_000])
def test_compacting_kernel_matches_python_scan(monkeypatch, past, step_cap):
    # batches of 7 make the maximum run across many batches; a guard of 1000
    # sends every lane that climbs past it to the exact finish
    monkeypatch.setattr(rangecheck, "_BATCH", 7)
    lower_guard(monkeypatch, past)
    exact_calls = log_exact_finish(monkeypatch)
    rep = verify_range_collatz(3000, step_cap=step_cap)
    inconclusive, max_steps = drop_scan(3000, step_cap)
    assert rep.verified == (not inconclusive)
    assert rep.inconclusive == inconclusive
    assert rep.max_steps_to_drop == max_steps
    if past == 1000:
        assert set(exact_calls) - set(inconclusive)  # the guard sent live starts to the exact finish
    else:
        assert not exact_calls  # a frontier that outlives the step cap is not replayed


@pytest.mark.parametrize("sieve_bits", [1, 2, 3, 8, 12])
@pytest.mark.parametrize("past", [COLLATZ_GUARD + 1, 1000])
@pytest.mark.parametrize("step_cap", [3, 10, 10_000])
def test_sieved_scan_matches_python_scan(monkeypatch, sieve_bits, past, step_cap):
    # small moduli leave a short first block, so sieved classes and advanced
    # survivors decide most of [2, 3000]; at 2 bits and cap 3 the maximum
    # comes from a sieved class alone
    monkeypatch.setattr(rangecheck, "_SIEVE_BITS", sieve_bits)
    monkeypatch.setattr(rangecheck, "_BATCH", 7)
    lower_guard(monkeypatch, past)
    exact_calls = log_exact_finish(monkeypatch)
    rep = verify_range_collatz(3000, step_cap=step_cap)
    inconclusive, max_steps = drop_scan(3000, step_cap)
    assert rep.inconclusive == inconclusive
    assert rep.verified == (not inconclusive)
    assert rep.max_steps_to_drop == max_steps
    assert bool(exact_calls) == (past == 1000)  # the starts past 1000 finish exactly


@pytest.mark.parametrize("sieve_bits", [3, 8, 12])
@pytest.mark.parametrize("step_cap", [5, 10_000])
def test_sieve_table_matches_exact_drop_steps(monkeypatch, sieve_bits, step_cap):
    monkeypatch.setattr(rangecheck, "_SIEVE_BITS", sieve_bits)
    m = 1 << sieve_bits
    drop, q, base, slope = _sieve(3, 1, COLLATZ_GUARD, 10**6, step_cap)
    survivors = np.flatnonzero(drop == 0)
    for r in np.flatnonzero(drop).tolist():
        for t in range(1, 6):
            assert _drop_step(collatz(), r + t * m, r + t * m, 1, step_cap) == drop[r]
    for r, b, s in zip(survivors.tolist(), base.tolist(), slope.tolist()):
        for t in range(1, 6):
            n = v = r + t * m
            for _ in range(q):
                v = 3 * v + 1 if v & 1 else v >> 1
            assert _drop_step(collatz(), n, n, 1, q) is None
            assert b + s * (t - 1) == v
    if sieve_bits == 12 and step_cap == 10_000:
        assert (len(survivors), q, drop.max()) == (226, 20, 19)


@pytest.mark.parametrize("a, b", MAPS)
def test_sieve_table_of_every_map_is_exact(a, b):
    # at 12 bits the sieve of 127x+1 reaches int64's edge: those classes stop as survivors
    gcmap, m = _odd_even(a, b), 1 << rangecheck._SIEVE_BITS
    drop, q, base, slope = _sieve(a, b, _step_tables(gcmap)[4], 10**6, 60)
    survivors = np.flatnonzero(drop == 0)
    for r in np.flatnonzero(drop).tolist()[::7]:
        for t in (1, 2, 5):
            assert _drop_step(gcmap, r + t * m, r + t * m, 1, 60) == drop[r]
    for r, b0, s in zip(survivors.tolist()[::7], base.tolist()[::7], slope.tolist()[::7]):
        for t in (1, 2, 5):
            n = v = r + t * m
            for _ in range(q):
                v = gcmap.apply(v)
            assert _drop_step(gcmap, n, n, 1, q) is None
            assert b0 + s * (t - 1) == v


def test_sieve_does_not_advance_where_int64_would_wrap():
    drop, q, base, slope = _sieve(3, 1, COLLATZ_GUARD, 2**62, 10_000)
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


@pytest.mark.parametrize("a, b", MAPS)
@pytest.mark.parametrize("step_cap", [20, 60])
def test_scan_matches_python_scan_on_every_map(a, b, step_cap):
    rep = verify_range(_odd_even(a, b), 40_000, step_cap)
    inconclusive, max_steps = drop_scan(40_000, step_cap, a, b)
    assert rep.inconclusive == base_inconclusive(step_cap, a, b) + inconclusive
    assert rep.verified == (not rep.inconclusive)
    assert rep.max_steps_to_drop == max_steps


@pytest.mark.parametrize("a, b", MAPS)
@pytest.mark.parametrize("sieve_bits", [2, 8])
def test_lowered_guard_on_every_map(monkeypatch, a, b, sieve_bits):
    # a bound of 10^5 stops sieve classes and sends lanes to the exact finish
    monkeypatch.setattr(rangecheck, "_SIEVE_BITS", sieve_bits)
    monkeypatch.setattr(rangecheck, "_BATCH", 7)
    monkeypatch.setattr(dynamics, "_INT64_MAX", 10**5)
    exact_calls = log_exact_finish(monkeypatch)
    rep = verify_range(_odd_even(a, b), 3000, 60)
    inconclusive, max_steps = drop_scan(3000, 60, a, b)
    assert rep.inconclusive == base_inconclusive(60, a, b) + inconclusive
    assert rep.max_steps_to_drop == max_steps
    assert exact_calls


def test_127x_plus_1_lists_every_start_that_does_not_drop(monkeypatch):
    # a 12-bit sieve that steps past int64 wraps here and passes 70 of these, the first at 4395
    exact_calls = log_exact_finish(monkeypatch)
    rep = verify_range(qx1(127), 40_000, 60)
    assert len(rep.inconclusive) == 19_667 and 4395 in rep.inconclusive
    assert exact_calls  # the frontier of 127x+1 reaches int64's edge within 60 steps


@pytest.mark.parametrize(
    "gcmap, why",
    [
        (identity_map(), "odd and even n share residues mod 1"),
        (
            GCMap(3, (AffineBranch(1, ResidueSet.of(3, [0]), 1, 0, 3), AffineBranch(2, ResidueSet.of(3, [1, 2]), 1, 2, 1))),
            "odd and even n share residues mod 3",
        ),
        (_odd_even(3, -1), r"needs c = 1, a >= 3 and b >= 1 odd"),
        (qx1(2**63 - 1), r"leaves int64 at n = 1"),
        (qx1(2**63 + 1), r"leaves int64 at n = 1"),  # a past int64: the odd row is not exact
        (three_x_d(2**63 + 1), r"leaves int64 at n = 1"),  # b past int64
    ],
)
def test_other_shapes_are_a_value_error(gcmap, why):
    with pytest.raises(ValueError, match=why):
        verify_range(gcmap, 100)


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

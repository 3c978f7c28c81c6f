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
from collatzlab.dynamics import _step_tables, return_times
from collatzlab.families import _odd_even
from collatzlab.rangecheck import _lanes, _sieve

# the guard of 3v + 1 under the real int64 bound: the largest v it steps
COLLATZ_GUARD = (2**63 - 2) // 3

# the maps of the differential, as (a, b) of n -> a*n + b (odd), n/2 (even); under
# 3x+9, 3 has 2n = b (mod a) but no odd predecessor, (2*3 - 9)/3 = -1, and never drops
MAPS = [(3, 1), (3, 5), (3, 7), (5, 1), (7, 1), (31, 1), (127, 1), (3, 9)]


def _drop_step(gcmap, n, v, step, step_cap):
    """The step from ``step`` on (v is n's value before it) that first takes n's
    orbit below n, or None."""
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
    # exact lanes jump k steps at a time through the map's table from their floor on;
    # one gcmap.apply step at a time must give the same report.  3xd:5 stays
    # far below int64, so a bound of 10^6 sends its lanes to the exact finish.
    if guard is not None:
        monkeypatch.setattr(dynamics, "_INT64_MAX", guard)
    exact, plans = dynamics._exact_return, {True: [], False: []}

    def finish(gcmap, sigma, plan, v, step, fuel):
        plans[use_jump].append(plan)
        return exact(gcmap, sigma, plan if use_jump else None, v, step, fuel)

    monkeypatch.setattr(dynamics, "_exact_return", finish)
    reports = []
    for use_jump in (True, False):
        rep = verify_range(preset_map(ref), 3000, 2000)
        reports.append((rep.verified, rep.inconclusive, rep.max_steps_to_drop))
    assert reports[0] == reports[1]
    # the map's one table of k > 1 steps serves every start the call finishes exactly
    # (3000 starts fit one batch: the scan is one kernel call)
    tables = [plan.jump for plan in plans[True]]
    assert tables and tables[0][0] > 1 and all(table is tables[0] for table in tables)


def test_no_jump_table_without_an_exact_finish(monkeypatch):
    # collatz stays far below int64 here: every frontier empties in the int64 loop
    built = []
    monkeypatch.setattr(dynamics, "_jump_table", lambda *args: built.append(args))
    assert verify_range_collatz(10**5).verified and not built


def test_one_jump_table_per_scan(monkeypatch):
    # the lanes that finish exactly share the map's one table, built by the
    # first scan that needs it and read by every later one
    built, table = [], dynamics._jump_table

    def spy(rows, m, k):
        built.append(k)
        return table(rows, m, k)

    monkeypatch.setattr(dynamics, "_jump_table", spy)
    dynamics._plan_for.cache_clear()
    for _ in range(2):
        rep = verify_range(preset_map("mersenne:3"), 2 * 10**4, 2000)
        assert len(rep.inconclusive) == 6013 and built == [12]


def spy_kernel(monkeypatch) -> list:
    """Log each ``return_times`` call of the range scan as (tops, starts, fuel, tau, undecided)."""
    calls, kernel = [], rangecheck.return_times

    def spy(gcmap, tops, xs, fuel):
        out = kernel(gcmap, tops, xs, fuel)
        calls.append((tops.copy(), xs.copy(), fuel, *(col.copy() for col in out[1:])))
        return out

    monkeypatch.setattr(rangecheck, "return_times", spy)
    return calls


def test_kernel_gets_the_cap_less_each_offset(monkeypatch):
    # the kernel steps every lane at the full cap, and a lane its class took s
    # steps to is undecided where its drop comes after step_cap - s; the
    # sieve's starts n = 2 (mod 3) are no lanes (n = 2 itself is sieved), and
    # one more call steps some of them from n at the full cap
    calls = spy_kernel(monkeypatch)
    rep = verify_range_collatz(10**5, 200)
    r, m, v, p, s, count = (col.tolist() for col in _sieve(3, 1, COLLATZ_GUARD, 10**5, 200)[1])
    offset = {n: s for r, m, s, c in zip(r, m, s, count) for n in range(r, r + m * c, m)}
    (tops, xs, fuel, tau, undecided), (after, after_xs, after_fuel, _, _) = calls
    assert fuel == after_fuel == 200
    assert sorted(tops.tolist()) == [n for n in sorted(offset) if n % 3 != 2]
    steps = np.array([offset[n] for n in tops.tolist()])
    assert len(set(steps.tolist())) > 1  # the offsets differ
    past = tops[~undecided & (tau > 200 - steps)]  # drops within the kernel's fuel, after the cap
    assert len(past) == 5 and set(past.tolist()) <= set(rep.inconclusive)
    assert (rep.inconclusive, rep.max_steps_to_drop) == drop_scan(10**5, 200)
    assert after.tolist() == after_xs.tolist() and len(after)
    for q in after.tolist():  # each on a run of odd iterates T(q'), T(T(q')), ... of an inconclusive q'
        assert q % 3 == 2
        while (q := (2 * q - 1) // 3) not in rep.inconclusive:
            assert q % 3 == 2 and q > 2  # q = T(q') for the odd q' = (2q - 1)/3
    # every start of the sieve that is no lane drops, or is stepped after its q
    for n in set(offset) - set(tops.tolist()) - set(after.tolist()):
        assert (2 * n - 1) // 3 not in rep.inconclusive and n not in rep.inconclusive


def test_the_kernel_steps_no_start_with_an_odd_predecessor(monkeypatch):
    # collatz at 2*10^6: of the 57,171 starts the 18-bit sieve leaves open, the
    # kernel steps only the 38,125 with n != 2 (mod 3), and nothing after them
    calls = spy_kernel(monkeypatch)
    rep = verify_range_collatz(2 * 10**6)
    [(tops, xs, fuel, tau, undecided)] = calls
    assert len(tops) == 38_125 and not (tops % 3 == 2).any()
    assert rep.verified and rep.max_steps_to_drop == 365  # as when every start was stepped


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
    monkeypatch.setattr(dynamics, "_NARROW", 0)  # so that only the guard sends lanes to the exact finish
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
    # shallow depth caps leave most of [2, 3000] to the kernel, from the
    # values the sieve advanced them to, in batches of 7 lanes
    monkeypatch.setattr(rangecheck, "_SIEVE_BITS", sieve_bits)
    monkeypatch.setattr(rangecheck, "_BATCH", 7)
    lower_guard(monkeypatch, past)
    monkeypatch.setattr(dynamics, "_NARROW", 0)  # so that only the guard sends lanes to the exact finish
    exact_calls = log_exact_finish(monkeypatch)
    rep = verify_range_collatz(3000, step_cap=step_cap)
    inconclusive, max_steps = drop_scan(3000, step_cap)
    assert rep.inconclusive == inconclusive
    assert rep.verified == (not inconclusive)
    assert rep.max_steps_to_drop == max_steps
    assert bool(exact_calls) == (past == 1000)  # the starts past 1000 finish exactly


def _orbit(a, b, n, steps):
    """The first steps + 1 values of n's orbit under n -> a*n + b (odd), n/2 (even)."""
    orbit = [n]
    for _ in range(steps):
        n = a * n + b if n & 1 else n >> 1
        orbit.append(n)
    return orbit


def check_sieve(a, b, guard, limit, step_cap, every=False):
    """``_sieve`` against exact iterates: every start in [2, limit] lies in one
    class once; each sieved member drops below itself first at its class's
    step; each kernel member is at its class's value after its offset, with
    no iterate below it up to then; and no odd value the sieve stepped is
    past ``guard``.  Checks every member, or the first two and the last of
    each class.  Returns (sieved, kernel)."""
    sieved, kernel = _sieve(a, b, guard, limit, step_cap)
    cover = np.zeros(limit + 1, dtype=np.int64)

    def members(first, last):
        return range(first, last + 1) if every else sorted({first, min(first + 1, last), last})

    for r, m, first, s in zip(*(col.tolist() for col in sieved)):
        last = (limit - r) // m
        assert 1 <= s <= step_cap and first <= last  # a member in range drops
        cover[r + m * first :: m] += 1
        for t in members(first, last):
            n = r + m * t
            orbit = _orbit(a, b, n, s)
            assert orbit[s] < n <= min(orbit[:s]), (r, m, t)
            assert all(x <= guard for x in orbit[:s] if x & 1)
    for r, m, v, p, s, count in zip(*(col.tolist() for col in kernel)):
        assert 0 <= s <= step_cap and r >= 2 and r + m * (count - 1) <= limit
        cover[r : r + m * count : m] += 1
        for t in members(0, count - 1) if count else ():
            n = r + m * t
            orbit = _orbit(a, b, n, s)
            assert orbit[s] == v + p * t and min(orbit) == n, (r, m, t)
            assert all(x <= guard for x in orbit[:s] if x & 1)
    assert not cover[:2].any() and (cover[2:] == 1).all()
    return sieved, kernel


@pytest.mark.parametrize("sieve_bits", [3, 8, 12])
@pytest.mark.parametrize("step_cap", [5, 10_000])
def test_sieve_table_matches_exact_drop_steps(monkeypatch, sieve_bits, step_cap):
    # the depth is min(limit.bit_length() - 3, _SIEVE_BITS): 17 bits at 10^6
    monkeypatch.setattr(rangecheck, "_SIEVE_BITS", sieve_bits)
    sieved, (r, m, v, p, s, count) = check_sieve(3, 1, COLLATZ_GUARD, 10**6, step_cap)
    # a cap of 5 steps stops every class by depth 2, before a level could pass it
    assert m.max() == 1 << (sieve_bits if step_cap > 5 else 2)
    if sieve_bits == 12 and step_cap == 10_000:
        # the classes mod 2^12 no halving decides (a^j >= 2^12), and the latest sieved drop
        assert (np.count_nonzero((m == 1 << 12) & (p >= m)), sieved[3].max()) == (226, 19)


@pytest.mark.parametrize("a, b", MAPS)
def test_sieve_table_of_every_map_is_exact(a, b):
    # at 10^6 the sieve is 17 bits deep; 31x+1 and 127x+1 reach int64's edge
    # first, and those classes stop undecided (a^j >= 2^d) above that depth
    sieved, (r, m, v, p, s, count) = check_sieve(a, b, _step_tables(_odd_even(a, b))[4], 10**6, 60)
    stopped = (p >= m) & (m < 1 << 17)
    assert stopped.any() == (a >= 31)


def check_lanes(monkeypatch, a, b, guard, limit, step_cap):
    """``_lanes`` on ``_sieve``'s kernel classes, in batches of 1000, against exact
    ints.  Each kernel start comes out once, at its exact value after its
    class's s steps, but for the n > (a + b)/2 with 2n = b (mod a) in cut
    classes: those whose first such member t* < a is in range and past
    (a + b)/2.  Returns the classes and the starts left out."""
    monkeypatch.setattr(rangecheck, "_BATCH", 1000)
    h = (a + b) // 2
    kernel = _sieve(a, b, guard, limit, step_cap)[1]
    want, out = [], set()
    for r, m, v, p, s, count in zip(*(col.tolist() for col in kernel)):
        first = next(t for t in range(a) if (2 * (r + m * t) - b) % a == 0)
        cut = first < count and r + m * first > h
        for n in range(r, r + m * count, m):
            if cut and (2 * n - b) % a == 0:
                out.add(n)
            else:
                want.append((n, _orbit(a, b, n, s)[s], s))
    got = []
    for starts, vals, steps in _lanes(a, b, *kernel):
        assert len(starts) <= 1000
        got += zip(starts.tolist(), vals.tolist(), steps.tolist())
    assert sorted(got) == sorted(want) and len({n for n, _, _ in got}) == len(got)
    assert all(n > h and (2 * n - b) % a == 0 for n in out)
    return kernel, out


@pytest.mark.parametrize("a, b", MAPS)
@pytest.mark.parametrize("step_cap", [7, 10_000])
def test_split_drops_each_start_with_an_odd_predecessor(monkeypatch, a, b, step_cap):
    # the kernel's classes split into the lanes and the starts left out
    kernel, out = check_lanes(monkeypatch, a, b, _step_tables(_odd_even(a, b))[4], 10**5, step_cap)
    assert out  # some lanes are gone


@pytest.mark.parametrize("a, b", MAPS)
def test_lanes_at_three_thousand_under_every_guard(monkeypatch, a, b):
    # under the map's own guard, and under lowered ones that stop classes early;
    # 3x+9 and 3x+7 keep the classes of 3 and 5 whole: each such member is at
    # most (a + b)/2, and never drops
    for guard in (_step_tables(_odd_even(a, b))[4], 100, 10**4):
        check_lanes(monkeypatch, a, b, guard, 3000, 60)


def test_lanes_cut_the_classes_where_int64_would_have_wrapped(monkeypatch):
    # 31x+1 at 4*10^4: ten kernel classes have 31*p past int64, once a bound on
    # the split; the three of them with a member 2n = 1 (mod 31) in range lose it
    guard = _step_tables(qx1(31))[4]
    (r, m, v, p, s, count), out = check_lanes(monkeypatch, 31, 1, guard, 40_000, 60)
    wide = np.flatnonzero(p > (2**63 - 1) // 31)
    assert len(wide) == 10
    lost = [n for n in out if any((n - r[i]) % m[i] == 0 and n < r[i] + m[i] * count[i] for i in wide)]
    assert len(lost) == 3
    rep = verify_range(qx1(31), 40_000, 60)
    assert rep.inconclusive == base_inconclusive(60, 31) + drop_scan(40_000, 60, 31, 1)[0]
    assert (len(rep.inconclusive), sum(rep.inconclusive), rep.max_steps_to_drop) == (18_545, 370_897_889, 42)


def test_sieve_does_not_advance_where_int64_would_wrap():
    # at 2^62 the last start already passes the guard of 3v + 1: the root class
    # 0 mod 1 stops before its first step, and the kernel takes every start from n
    sieved, kernel = _sieve(3, 1, COLLATZ_GUARD, 2**62, 10_000)
    assert not len(sieved[0])
    assert [col.tolist() for col in kernel] == [[2], [1], [2], [1], [0], [2**62 - 1]]
    # under lowered guards, checking every member: classes stop above the
    # depth of 8 bits, and no odd value past the guard is stepped
    for a, guard in [(3, 100), (3, 1000), (3, 10**4), (127, 10**4), (127, 10**6)]:
        sieved, (r, m, v, p, s, count) = check_sieve(a, 1, guard, 3000, 60, every=True)
        assert ((p >= m) & (m < 1 << 8)).any()


def test_ten_million_is_verified():
    rep = verify_range_collatz(10**7)
    assert rep.verified and not rep.inconclusive and rep.max_steps_to_drop == 401


def test_a_hundred_million_is_verified():
    # about 1 s and 180 MB: two kernel calls of 2^20 lanes
    rep = verify_range_collatz(10**8)
    assert rep.verified and not rep.inconclusive and rep.max_steps_to_drop == 613


@pytest.mark.parametrize(
    "ref, count, total, head, most",
    [
        ("qx1:5", 3514, 35_099_042, (5, 7, 9, 13), 442),
        ("mersenne:3", 6013, 60_286_157, (3, 7, 11, 13), 107),
        ("3xd:5", 11, 1155, (3, 5, 7, 11), 179),
    ],
    ids=["qx1:5", "mersenne:3", "3xd:5"],
)
def test_other_maps_at_twenty_thousand(ref, count, total, head, most):
    # the reports of the 12-bit sieve: the inconclusive starts by count, sum and
    # first four, and the most steps to a drop
    rep = verify_range(preset_map(ref), 2 * 10**4, 2000)
    assert (len(rep.inconclusive), sum(rep.inconclusive), rep.inconclusive[:4]) == (count, total, head)
    assert rep.max_steps_to_drop == most and not rep.verified


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


# --- the fused odd step, lane by lane -----------------------------------------------


def first_returns(a, b, tops, xs, fuel):
    """(value, tau, undecided) of each lane under n -> a*n + b (odd), n/2 (even):
    the first of its fuel steps that takes xs[i] into [1, tops[i])."""
    want = []
    for top, v in zip(tops, xs):
        for step in range(1, fuel + 1):
            v = a * v + b if v & 1 else v >> 1
            if 1 <= v < top:
                want.append((v, step, False))
                break
        else:
            want.append((0, 0, True))
    return want


def assert_lanes(a, b, sigma, xs, fuel):
    value, tau, undecided = return_times(_odd_even(a, b), sigma, xs, fuel)
    tops = sigma.tolist() if isinstance(sigma, np.ndarray) else [sigma.stop] * len(xs)
    assert list(zip(value.tolist(), tau.tolist(), undecided.tolist())) == first_returns(a, b, tops, xs, fuel)


@pytest.mark.parametrize("a, b", MAPS)
def test_fused_steps_lane_by_lane(a, b):
    """Per-lane tops take fused odd steps, from the first step when every start
    is at or above its top (as in the range scan) and from the second when
    one is below; windows take single steps."""
    cap = 200 if a == 3 else 60
    starts = list(range(2, 400))
    below = starts[::-1]  # half of these start below their top
    cases = [(np.array(starts), starts), (np.array(starts), below), (range(1, 400), list(range(1, 400)))]
    for sigma, xs in cases:
        for fuel in [1, 2, cap]:
            assert_lanes(a, b, sigma, xs, fuel)


def test_the_first_step_is_fused_only_where_no_start_is_below_its_top():
    # 3 -> 10 returns to [1, 11) at step 1: fused, it would go to 5 at step 2
    xs, tops = list(range(1, 11)), np.full(10, 11)
    for sigma in (range(1, 11), tops):
        value, tau, undecided = return_times(collatz(), sigma, xs, 10)
        assert (value[2], tau[2]) == (10, 1) and not undecided.any()
    assert_lanes(3, 1, tops, xs, 10)


def test_a_fused_step_past_the_fuel_is_no_return():
    # 7 -> 22 -> 11 -> 34 -> 17 -> 52 -> 26 -> 13 -> 40 -> 20 -> 10 -> 5 drops
    # below 7 at step 11; fuel 8 ends inside the fused step 13 -> 40 -> 20 of
    # steps 8 and 9, and a fused step that counted 1 would reach 5 by step 7
    for fuel, want in ((11, (5, 11, False)), (10, (0, 0, True)), (9, (0, 0, True)), (8, (0, 0, True))):
        value, tau, undecided = return_times(collatz(), np.array([7]), [7], fuel)
        assert (value[0], tau[0], undecided[0]) == want


def test_retired_lanes_stay_returned():
    # lanes that return early are retired in place while the rest run on to
    # the fuel: none may turn undecided, where 8 -> 4 is retired at step 1 and
    # twenty halvings of 2^50, with an empty window [1, 1), run to the end
    starts = list(range(2, 4000))
    assert_lanes(3, 1, np.array(starts), starts, 300)
    xs, tops = [2**50] * 20 + [8], np.array([1] * 20 + [8])
    assert_lanes(3, 1, tops, xs, 20)


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

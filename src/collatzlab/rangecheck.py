"""Exhaustive convergence scans over an initial range.

For maps that strictly decrease somewhere (like 3x+1), "every n <= limit
reaches 1" follows by induction once every n in [2, limit] is shown to drop
strictly below its own starting value.  That reformulation is what makes a
vectorized scan possible: each n needs only a few steps, not a full descent
to 1.  The induction base n = 1 is checked by a direct orbit.

The 3x+1 scan first sieves the starts by their residue r mod 2^k (Terras
1976).  The first parity steps of n are fixed by r; in most classes they
bring every member n >= 2^k below n at one step, the class's drop step,
which counts toward the maximum without scanning a member.  The scan then
covers every start below 2^k and the members of the surviving classes,
which begin at the value they reach after the steps their residue fixes.

The scan runs batches through numpy int64 arithmetic and carries only the
frontier, the starts that have not dropped yet.  Trajectory values for
n <= 10^7 peak well under 2^63; a frontier that threatens to overflow is
finished with exact Python integers, and one that outlives the step cap is
inconclusive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .gcmap import GCMap, _check_positive

# 3v+1 <= 2^63 - 1 exactly when v < _INT64_GUARD; at or above it the int64 step wraps
_INT64_GUARD = (2**63 - 2) // 3 + 1

# starts per vectorized batch; bounds the scan's memory, not its result
_BATCH = 1 << 20

# the sieve's classes are the residues mod 2^_SIEVE_BITS (at most 23, so its values fit int64)
_SIEVE_BITS = 12


@dataclass(frozen=True)
class RangeReport:
    limit: int
    verified: bool
    inconclusive: tuple[int, ...]
    seconds: float
    max_steps_to_drop: int

    def to_dict(self) -> dict:
        return {
            "limit": self.limit,
            "verified": self.verified,
            "inconclusive": list(self.inconclusive),
            "seconds": round(self.seconds, 3),
            "maxStepsToDrop": self.max_steps_to_drop,
        }


def _drops_below_start_exact(n: int, step_cap: int) -> int | None:
    """Steps until the 3x+1 trajectory of n goes below n, or None if capped."""
    v = n
    for step in range(1, step_cap + 1):
        v = 3 * v + 1 if v & 1 else v >> 1
        if v < n:
            return step
    return None


def _sieve(limit: int, step_cap: int):
    """Classify the residues r mod 2^k by the parity steps that r fixes.

    While the first i parity steps are fixed by r (i < k), i halvings and j
    odd steps take n = r + 2^k t to (3^j n + c) / 2^i, which is below n
    exactly when n > c / (2^i - 3^j).  Before the first halving with
    3^j < 2^i it is at least n; at that step, numbered i + j, every member
    n >= r + 2^k drops if r + 2^k does.

    Returns ``(drop, q, base, slope)``.  ``drop[r]`` is that step for a
    sieved class and 0 for a survivor.  No member n >= 2^k of a survivor
    drops within q steps, after which n = r + 2^k t is at
    ``base + slope * (t - 1)``, one entry per survivor in residue order.
    """
    m = 1 << _SIEVE_BITS
    least = np.arange(m, 2 * m, dtype=np.int64)  # r + 2^k
    v, pow2, pow3 = least, np.ones(m, dtype=np.int64), np.ones(m, dtype=np.int64)
    history = [(v, pow2, pow3)]  # after each step: the value of r + 2^k, 2^i and 3^j
    drop = np.zeros(m, dtype=np.int64)
    safe = np.zeros(m, dtype=np.int64)  # steps fixed by r in which no member drops
    open_ = np.ones(m, dtype=bool)  # r fixes the next parity, and no member dropped yet
    for step in range(1, step_cap + 1):
        odd = (v & 1).astype(bool)
        v = np.where(odd, 3 * v + 1, v >> 1)
        pow3 = np.where(odd, 3 * pow3, pow3)
        pow2 = np.where(odd, pow2, 2 * pow2)
        history.append((v, pow2, pow3))
        decided = open_ & (pow3 < pow2)
        drop[decided & (v < least)] = step
        safe[open_] = step - decided[open_]
        open_ &= ~decided & (pow2 < m)
        if not open_.any():
            break
    survivors = drop == 0  # never empty: 2^k - 1 keeps 3^j >= 2^i for all k steps
    q = int(safe[survivors].min())
    v, pow2, pow3 = (a[survivors] for a in history[q])
    base, slope = v, pow3 * (m // pow2)
    if int(base.max()) + int(slope.max()) * (limit // m) > 2**63 - 1:
        # an advanced value could wrap in int64: the members start from n itself
        q, base, slope = 0, least[survivors], np.full_like(base, m)
    return drop, q, base, slope


def _batches(limit: int, survivors: np.ndarray, q: int, base: np.ndarray, slope: np.ndarray):
    """(first step, starts, their values): all of [2, 2^k), then the survivors' members up to limit."""
    m = 1 << _SIEVE_BITS
    for lo in range(2, min(limit + 1, m), _BATCH):
        starts = np.arange(lo, min(lo + _BATCH, limit + 1, m), dtype=np.int64)
        yield 1, starts, starts.copy()
    rows = max(1, _BATCH // len(survivors))
    for t in range(1, limit // m + 1, rows):
        ts = np.arange(t, min(t + rows, limit // m + 1), dtype=np.int64)[:, None]
        starts, vals = (ts * m + survivors).ravel(), (base + slope * (ts - 1)).ravel()
        keep = starts <= limit
        if keep.any():
            yield q + 1, starts[keep], vals[keep]


def verify_range_collatz(limit: int, step_cap: int = 10_000) -> RangeReport:
    """Check that every 1 <= n <= limit reaches 1 under the 3x+1 map.

    Equivalent inductive form: 1 lies on the cycle (1, 4, 2) and every
    n in [2, limit] drops below its start within step_cap steps.
    """
    _check_positive(limit, "limit")
    _check_positive(step_cap, "step_cap")
    t0 = time.perf_counter()
    inconclusive: list[int] = []
    max_steps = 0

    # induction base: the orbit of 1 returns to 1
    v, steps = 1, 0
    while True:
        v = 3 * v + 1 if v & 1 else v >> 1
        steps += 1
        if v == 1:
            break
        if steps > step_cap:
            inconclusive.append(1)
            break

    drop, q, base, slope = _sieve(limit, step_cap)
    m = len(drop)
    if limit >= m:  # each sieved class with a member in [2^k, limit] drops at its step
        max_steps = int(drop[: limit - m + 1].max())
    # the frontier: starts that have not yet dropped, and their current values
    for first, starts, vals in _batches(limit, np.flatnonzero(drop == 0), q, base, slope):
        for step in range(first, step_cap + 1):
            odd = (vals & 1).astype(bool)
            # the max is a cheap superset test; only then pick the odd values out
            if vals.max() >= _INT64_GUARD and np.any(vals[odd] >= _INT64_GUARD):
                break  # rare: the exact pass below finishes the frontier
            vals = np.where(odd, 3 * vals + 1, vals >> 1)
            live = vals >= starts
            if not live.all():
                max_steps = max(max_steps, step)
                vals, starts = vals[live], starts[live]
                if not len(starts):
                    break
        else:
            # outlived the step cap: an exact replay could only say the same
            inconclusive += starts.tolist()
            continue
        for n in starts.tolist():  # only a guard hit gets here with a frontier
            s = _drops_below_start_exact(n, step_cap)
            if s is None:
                inconclusive.append(n)
            else:
                max_steps = max(max_steps, s)

    return RangeReport(
        limit,
        not inconclusive,
        tuple(sorted(set(inconclusive))),
        time.perf_counter() - t0,
        max_steps,
    )


def verify_range(gcmap: GCMap, limit: int, fuel: int) -> RangeReport:
    """Generic (slow) form: every n <= limit reaches 1 within fuel steps.

    ``max_steps_to_drop`` is the most steps any n >= 2 that reaches 1 takes
    to first go below n.
    """
    _check_positive(limit, "limit")
    _check_positive(fuel, "fuel")
    t0 = time.perf_counter()
    inconclusive = []
    max_steps = 0
    for n in range(1, limit + 1):
        orbit = gcmap.orbit(n, fuel)
        if not orbit.reaches(1):
            inconclusive.append(n)
        elif n > 1:
            max_steps = max(max_steps, next(i for i, v in enumerate(orbit.prefix) if v < n))
    return RangeReport(
        limit,
        not inconclusive,
        tuple(inconclusive),
        time.perf_counter() - t0,
        max_steps,
    )

"""Exhaustive convergence scans over an initial range.

For maps that strictly decrease somewhere (like 3x+1), "every n <= limit
reaches 1" follows by induction once every n in [2, limit] is shown to drop
strictly below its own starting value.  That reformulation is what makes a
vectorized scan possible: each n needs only a few steps, not a full descent
to 1.  The induction base n = 1 is checked by a direct orbit.

The fast path runs batches through numpy int64 arithmetic and carries only
the frontier, the starts that have not dropped yet.  Trajectory values for
n <= 10^7 peak well under 2^63; a frontier that threatens to overflow is
finished with exact Python integers, and one that outlives the step cap is
inconclusive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .gcmap import GCMap

# 3v+1 <= 2^63 - 1 exactly when v < _INT64_GUARD; at or above it the int64 step wraps
_INT64_GUARD = (2**63 - 2) // 3 + 1

# starts per vectorized batch; bounds the scan's memory, not its result
_BATCH = 1 << 20


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


def verify_range_collatz(limit: int, step_cap: int = 10_000) -> RangeReport:
    """Check that every 1 <= n <= limit reaches 1 under the 3x+1 map.

    Equivalent inductive form: 1 lies on the cycle (1, 4, 2) and every
    n in [2, limit] drops below its start within step_cap steps.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
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

    for lo in range(2, limit + 1, _BATCH):
        # the frontier: starts that have not yet dropped, and their current values
        starts = np.arange(lo, min(lo + _BATCH, limit + 1), dtype=np.int64)
        vals = starts.copy()
        for step in range(1, step_cap + 1):
            odd = (vals & 1).astype(bool)
            if np.any(vals[odd] >= _INT64_GUARD):
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
    """Generic (slow) form: every n <= limit reaches 1 within fuel steps."""
    t0 = time.perf_counter()
    inconclusive = []
    for n in range(1, limit + 1):
        if not gcmap.orbit(n, fuel).reaches(1):
            inconclusive.append(n)
    return RangeReport(
        limit,
        not inconclusive,
        tuple(inconclusive),
        time.perf_counter() - t0,
        0,
    )

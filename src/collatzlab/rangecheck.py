"""Exhaustive convergence scans over an initial range.

The scan takes any map n -> a*n + b on odd n, n/2 on even n, with a and b
read off by ``section_of``'s shape rule.  "Every n <= limit reaches 1"
follows by induction once the orbit of 1 comes back to 1 and every n in
[2, limit] drops strictly below its own starting value, so each n needs only
a few steps, not a full descent to 1.  A start that never drops is
inconclusive.

The scan first sieves the starts by their residue r mod 2^k (Terras 1976).
The first parity steps of n are fixed by r; in most classes they bring every
member n >= 2^k below n at one step, the class's drop step, which counts
toward the maximum without scanning a member.  The scan then covers every
start below 2^k and the members of the surviving classes, which begin at the
value they reach after the steps their residue fixes.

Batches run through numpy int64 arithmetic and carry only the frontier, the
starts that have not dropped yet.  No value is stepped where a*v + b could
pass 2^63 - 1: a sieve class stops there as a survivor, and a frontier is
finished there with exact Python integers by the first-return kernel's
``_exact_return``, k steps at a time through one jump table above the
limit.  A start that outlives the step cap is inconclusive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dynamics import _exact_return, _jump_depth, _jump_table, _step_tables
from .families import _odd_even_shape, collatz
from .gcmap import GCMap, _check_positive

_INT64_MAX = 2**63 - 1


def _guard(a: int, b: int) -> int:
    return (_INT64_MAX - b) // a + 1  # a*v + b <= _INT64_MAX exactly when v is below it


# starts per vectorized batch; bounds the scan's memory, not its result
_BATCH = 1 << 20

# the sieve's classes are the residues mod 2^_SIEVE_BITS
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


def _sieve(a: int, b: int, guard: int, limit: int, step_cap: int):
    """Classify the residues r mod 2^k by the parity steps that r fixes.

    While the first i parity steps are fixed by r (i < k), i halvings and j
    odd steps take n = r + 2^k t to (a^j n + c) / 2^i with c >= 0, which is
    below n exactly when n > c / (2^i - a^j).  Before the first halving with
    a^j < 2^i it is at least n; at that step, numbered i + j, every member
    n >= r + 2^k drops if r + 2^k does.  An odd value at or above ``guard``
    is not stepped (a*v + b would leave int64): its class stops undecided.

    Returns ``(drop, q, base, slope)``.  ``drop[r]`` is that step for a
    sieved class and 0 for a survivor.  No member n >= 2^k of a survivor
    drops within q steps, after which n = r + 2^k t is at
    ``base + slope * (t - 1)``, one entry per survivor in residue order.
    """
    m = 1 << _SIEVE_BITS
    least = np.arange(m, 2 * m, dtype=np.int64)  # r + 2^k
    v, pow2, powa = least, np.ones(m, dtype=np.int64), np.ones(m, dtype=np.int64)
    history = [(v, pow2, powa)]  # after each step: the value of r + 2^k, 2^i and a^j
    drop = np.zeros(m, dtype=np.int64)
    safe = np.zeros(m, dtype=np.int64)  # steps fixed by r in which no member drops
    open_ = np.ones(m, dtype=bool)  # r fixes the next parity, and no member dropped yet
    for step in range(1, step_cap + 1):
        odd = (v & 1).astype(bool)
        open_ &= ~odd | (v < guard)
        if not open_.any():
            break
        # only open classes step, so no kept value leaves int64 (a^j <= v while 2^i <= 2^k)
        up, down = open_ & odd, open_ & ~odd
        v = np.where(up, a * v + b, np.where(down, v >> 1, v))
        powa, pow2 = np.where(up, a * powa, powa), np.where(down, 2 * pow2, pow2)
        history.append((v, pow2, powa))
        decided = open_ & (powa < pow2)
        drop[decided & (v < least)] = step
        safe[open_] = step - decided[open_]
        open_ &= ~decided & (pow2 < m)
    survivors = drop == 0  # never empty: one residue fixes an odd step before each halving
    q = int(safe[survivors].min())
    v, pow2, powa = (h[survivors] for h in history[q])
    base, slope = v, powa * (m // pow2)
    if int(base.max()) + int(slope.max()) * (limit // m) > _INT64_MAX:
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


def verify_range(gcmap: GCMap, limit: int, step_cap: int = 10_000) -> RangeReport:
    """Check that every 1 <= n <= limit reaches 1 under n -> a*n + b (odd), n/2 (even).

    Equivalent inductive form: the orbit of 1 comes back to 1, and every n in
    [2, limit] drops below its start, each within step_cap steps.  A map of
    another shape, or with a + b > 2^63 - 1, raises ValueError naming why.
    """
    _check_positive(limit, "limit")
    _check_positive(step_cap, "step_cap")
    try:
        a, b = _odd_even_shape(gcmap)
    except KeyError as exc:
        raise ValueError(f"the range scan needs n -> a*n + b (odd), n/2 (even): {exc.args[0]}") from None
    guard = _guard(a, b)
    if guard < 2:
        raise ValueError(f"{a}*n + {b} leaves int64 at n = 1: the range scan needs a + b <= 2^63 - 1")
    t0 = time.perf_counter()
    max_steps = 0
    base_orbit = gcmap.orbit(1, step_cap)  # induction base: 1 comes back to 1
    inconclusive = [] if base_orbit.entered_cycle and base_orbit.outcome.entry_index == 0 else [1]

    drop, q, base, slope = _sieve(a, b, guard, limit, step_cap)
    k = _jump_depth(gcmap.modulus)
    jump = None  # (k, table) of k-step jumps, built when a frontier first reaches the exact pass
    m = len(drop)
    if limit >= m:  # each sieved class with a member in [2^k, limit] drops at its step
        max_steps = int(drop[: limit - m + 1].max())
    # the frontier: starts that have not yet dropped, and their current values
    for first, starts, vals in _batches(limit, np.flatnonzero(drop == 0), q, base, slope):
        for step in range(first, step_cap + 1):
            odd = (vals & 1).astype(bool)
            # the max is a cheap superset test; only then pick the odd values out
            if vals.max() >= guard and np.any(vals[odd] >= guard):
                break  # rare: the exact pass below finishes the frontier
            vals = np.where(odd, a * vals + b, vals >> 1)
            live = vals >= starts
            if not live.all():
                max_steps = max(max_steps, step)
                vals, starts = vals[live], starts[live]
                if not len(starts):
                    break
        else:
            # outlived the step cap: an exact pass could only say the same
            inconclusive += starts.tolist()
            continue
        if not len(starts):
            continue
        # only a guard hit gets here with a frontier
        if jump is None and k > 1:
            # every iterate inside a jump stays at or above limit + 1 > n, so it
            # misses [1, n) for each start n, and the drop step stays exact
            jump = (k, _jump_table(_step_tables(gcmap)[0], gcmap.modulus, limit + 1, k))
        for n, v in zip(starts.tolist(), vals.tolist()):
            # n drops at the step that first takes its orbit into [1, n)
            ret = _exact_return(gcmap, range(1, n), jump, v, step - 1, step_cap)
            if ret is None:
                inconclusive.append(n)
            else:
                max_steps = max(max_steps, ret[1])

    return RangeReport(
        limit,
        not inconclusive,
        tuple(sorted(set(inconclusive))),
        time.perf_counter() - t0,
        max_steps,
    )


def verify_range_collatz(limit: int, step_cap: int = 10_000) -> RangeReport:
    """:func:`verify_range` on the 3x+1 map."""
    return verify_range(collatz(), limit, step_cap)

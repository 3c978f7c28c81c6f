"""Exhaustive convergence scans over an initial range.

The scan takes any map n -> a*n + b on odd n, n/2 on even n, with a and b
read off by ``section_of``'s shape rule.  "Every n <= limit reaches 1"
follows by induction once the orbit of 1 comes back to 1 and every n in
[2, limit] drops strictly below its own starting value, so each n needs only
a few steps, not a full descent to 1.  A start that never drops within the
step cap is inconclusive.

The scan first sieves the starts by their residue r mod 2^k (Terras 1976).
The first parity steps of n are fixed by r; in most classes they bring every
member n >= 2^k below n at one step, the class's drop step, which counts
toward the maximum without scanning a member.  The drop of every other
start n is its first return to the window [1, n), which the first-return
kernel ``dynamics.return_times`` finds with per-lane windows: every start
below 2^k from n itself, and the members of the surviving classes from the
value they reach after the steps their residue fixes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dynamics import _odd_even_shape, _step_tables, return_times
from .families import collatz
from .gcmap import GCMap, Report, _check_positive, verdict

# starts per vectorized batch; bounds the scan's memory, not its result
_BATCH = 1 << 20

# the sieve's classes are the residues mod 2^_SIEVE_BITS
_SIEVE_BITS = 12


@dataclass(frozen=True)
class RangeReport(Report):
    limit: int
    verified: bool
    inconclusive: tuple[int, ...]
    seconds: float
    max_steps_to_drop: int

    @property
    def status(self) -> int:
        return verdict(inconclusive=bool(self.inconclusive))

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
    n >= r + 2^k drops if r + 2^k does.  An odd value past ``guard``, the
    kernel's int64 bound, is not stepped: its class stops undecided.

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
        open_ &= ~odd | (v <= guard)
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
    if int(base.max()) + int(slope.max()) * (limit // m) > guard:
        # an advanced value could pass the guard: the members start from n itself
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
        n = np.searchsorted(starts, limit, side="right")  # starts ascend: keep a prefix, no copy
        if n:
            yield q + 1, starts[:n], vals[:n]


def verify_range(gcmap: GCMap, limit: int, step_cap: int = 10_000) -> RangeReport:
    """Check that every 1 <= n <= limit reaches 1 under n -> a*n + b (odd), n/2 (even).

    Equivalent inductive form: the orbit of 1 comes back to 1, and every n in
    [2, limit] drops below its start, each within step_cap steps.  Each batch
    of starts is one ``return_times`` call with the starts as window tops.  A
    map of another shape, or with a + b > 2^63 - 1, raises ValueError naming why.
    """
    _check_positive(limit, "limit")
    _check_positive(step_cap, "step_cap")
    try:
        a, b = _odd_even_shape(gcmap)
    except KeyError as exc:
        raise ValueError(f"the range scan needs n -> a*n + b (odd), n/2 (even): {exc.args[0]}") from None
    rows, *_, guard = _step_tables(gcmap)
    if rows[1] is None or guard < 1:
        raise ValueError(f"{a}*n + {b} leaves int64 at n = 1: the range scan needs a + b <= 2^63 - 1")
    t0 = time.perf_counter()
    base_orbit = gcmap.orbit(1, step_cap)  # induction base: 1 comes back to 1
    inconclusive = [] if base_orbit.entered_cycle and base_orbit.outcome.entry_index == 0 else [1]

    drop, q, base, slope = _sieve(a, b, guard, limit, step_cap)
    m = len(drop)
    # each sieved class with a member in [2^k, limit] drops at its step
    max_steps = int(drop[: limit - m + 1].max()) if limit >= m else 0
    for first, starts, vals in _batches(limit, np.flatnonzero(drop == 0), q, base, slope):
        # the sieve took the survivors first - 1 steps: off the fuel, back onto tau
        _, tau, undecided = return_times(gcmap, starts, vals, step_cap - first + 1)
        inconclusive += starts[undecided].tolist()
        if (most := int(tau.max())) > 0:  # undecided lanes have tau 0
            max_steps = max(max_steps, most + first - 1)

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

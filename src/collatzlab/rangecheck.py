"""Exhaustive convergence scans over an initial range.

The scan takes any map n -> a*n + b on odd n, n/2 on even n, with a and b
read off by ``section_of``'s shape rule.  "Every n <= limit reaches 1"
follows by induction once the orbit of 1 comes back to 1 and every n in
[2, limit] drops strictly below its own starting value within the step cap;
a start that does not is inconclusive.

Every start goes through a sieve by residue (Terras 1976), refined a bit at
a time to limit.bit_length() - 3 bits, at most ``_SIEVE_BITS``: about 8
starts per class.  The class r mod 2^d holds n = r + 2^d t at v + a^j t
after its d halvings; at the first halving with a^j < 2^d every member from
some t* on drops at once.  The members below t*, and those of the classes
still open at that depth, are the kernel's, less each n > (a + b)/2 with
2n = b (mod a): that n is T(q) = (a*q + b)/2 for an odd start q < n, and
drops whenever q does (Oliveira e Silva 2010).  The rest go on in one
``dynamics.return_times`` call per ``_BATCH``, with the starts as per-lane
window tops [1, n) and the steps the sieve left each, step_cap - s, as its
per-lane fuel.  Every value the kernel starts from is at or above its top,
so it takes the shortcut step (a*v + b)/2 on odd values throughout,
counting each as 2 steps.  The skipped starts on a run of odd iterates
T(q), T(T(q)), ... of an inconclusive q are then stepped themselves, from
the start at the full cap, so the report lists every start that does not drop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dynamics import _INT64_MAX, _plan, _residues, return_times
from .families import collatz
from .gcmap import GCMap, Report, _check_positive, verdict

# lanes per kernel call; bounds the scan's memory, not its result
_BATCH = 1 << 20

# the deepest sieve: its classes are the residues mod 2^_SIEVE_BITS at most
_SIEVE_BITS = 24


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


def _split(mask, *cols):
    """The columns where mask holds, and where it does not."""
    i, rest = np.flatnonzero(mask), np.flatnonzero(~mask)
    return [col[i] for col in cols], [col[rest] for col in cols]


def _sieve(a: int, b: int, guard: int, limit: int, step_cap: int):
    """Sort [2, limit] into classes r mod 2^d, d halvings and j odd steps in, a level at a time.

    A level splits a class on bit d into the child whose member t = 0 is odd,
    which takes an odd step and a halving, and the even one, which halves:
    no select by parity.  Values stay at least their starts until the first
    halving with a^j < 2^d, which only an even child reaches.  A class stops
    before a level that could pass the step cap or step a value past
    ``guard``, the kernel's int64 bound.  Returns ``(sieved, kernel)``,
    column tuples over classes, m = 2^d and s = d + j.  In ``(r, m, first,
    s)`` the member r + m*t drops first at step s for each t >= first, one
    of them in range.  In ``(r, m, v, a^j, s, count)`` each member t < count
    is a start r + m*t in [2, limit] at v + a^j t after s steps, none of
    them below it.  Together they hold each start in [2, limit] once.
    """
    depth = max(0, min(limit.bit_length() - 3, _SIEVE_BITS))  # about 8 members per class
    # a^j, the int64 bound standing in for a power past it: the guard stops such a class
    power = np.array([min(a**j, _INT64_MAX) for j in range(depth + 1)], dtype=np.int64)
    r, v, j = (np.zeros(1, dtype=np.int64) for _ in range(3))  # 0 mod 1: n = t at v + t
    sieved, kernel = [(r[:0],) * 4], []  # the columns of each level, from each class's depth
    for d in range(depth):
        # a member's value is below a^j (n / 2^d + b), so within this bound no class stops
        if 2 * d + 2 > step_cap or a**d * ((limit >> d) + 1 + b) > guard:
            top = (limit - r) >> d  # >= 1; the last member in range is at v + a^j top
            stop = (power[j] > (guard - v) // top) | (j > step_cap - d - 2)
            (*out, top), (r, v, j, _) = _split(stop, r, v, j, top)
            kernel.append((np.full(len(top), d), *out, top + 1))
        p = power[j]
        lift, bump = (v & 1) << d, (v & 1) * p  # t = 0 odd: the even child is t = 1
        odd = r + (1 << d) - lift, (a * (v + p - bump) + b) >> 1, j + 1
        (dr, dv, dj), (r, v, j) = _split(p < 2 << d, r + lift, (v + bump) >> 1, j)
        first = np.maximum((dv - dr) // ((2 << d) - power[dj]) + 1, 0)  # t*
        top = (limit - dr) >> (d + 1)
        hit = np.flatnonzero(first <= top)
        sieved.append((np.full(len(hit), d + 1), dr[hit], first[hit], dj[hit]))
        kernel.append((np.full(len(dr), d + 1), dr, dv, dj, np.minimum(first, top + 1)))
        r, v, j = (np.concatenate(pair) for pair in zip((r, v, j), odd))
    kernel.append((np.full(len(r), depth), r, v, j, ((limit - r) >> depth) + 1))
    d, r, first, j = (np.concatenate(col) for col in zip(*sieved))
    sieved = r, np.left_shift(1, d), first, d + j
    d, r, v, j, count = (np.concatenate(col) for col in zip(*kernel))
    m, p = np.left_shift(1, d), power[j]
    i = np.flatnonzero(r < 2)  # n = 0 and n = 1 are no starts: those classes begin at 2
    low = -((r[i] - 2) // m[i])
    r[i], v[i], count[i] = r[i] + m[i] * low, v[i] + p[i] * low, np.maximum(count[i] - low, 0)
    return sieved, (r, m, v, p, d + j, count)


def _skip_successors(a, b, r, m, v, p, s, count):
    """The kernel's classes less their members n > (a + b)/2 with 2n = b (mod a).

    Such an n is T(q) = (a*q + b)/2 for the odd start q = (2n - b)/a, 3 <= q < n.
    It is q's value two steps in, and q can drop below q only below n, so n
    drops whenever q does, 2 steps sooner.  Member t of the class r mod m = 2^d
    has that residue exactly where t = t* (mod a).  A class whose member t* is
    in range and past (a + b)/2 is split into its subclasses r + m*i mod a*m,
    one for each i < min(a, count) but t*.  Every other class with a member
    stays whole, and so does a class where a*m or a*p would pass int64, and
    every class where a^2 would (t* takes a product below it).  The work is
    O(classes).
    """
    lim = _INT64_MAX // a
    if a > lim:
        return r, m, v, p, s, count
    h = (a + b) >> 1  # T(1): 2n = b (mod a) exactly where n = h (mod a)
    d = np.frexp(m)[1] - 1  # the sieve's depth: m = 2^d exactly
    inv = np.array([pow(2, -e, a) for e in range(int(d.max(initial=0)) + 1)], dtype=np.int64)
    first = _residues(_residues(h - r, a) * inv[d], a)  # t*
    cut = (first < count) & (first > (h - r) // m) & (m <= lim) & (p <= lim)
    k = np.where(cut, np.minimum(count, a) - 1, 0)  # the subclasses with a member, less t*'s
    c = np.repeat(np.arange(len(k)), k)  # the class of each subclass
    whole = np.flatnonzero(~cut & (count > 0))
    rows = np.concatenate((whole, c))
    out = [col.take(rows) for col in (r, m, v, p, s, count)]
    r, m, v, p, s, count = (col[len(whole) :] for col in out)  # views of the subclasses
    i = np.arange(len(c))
    i -= (np.cumsum(k) - k)[c]
    i += i >= first[c]  # subclass i < min(a, count), but t*
    r += m * i
    v += p * i
    m *= a
    p *= a
    count -= i
    count += a - 1
    count //= a
    return tuple(out)


def _lanes(r, m, v, p, fuel, count):
    """(starts, values, fuel) of the kernel's members, _BATCH at a time:
    member t < count[i] of class i is start r + m*t at v + p*t with fuel[i]
    steps left.  Each column is built in place, its repeats freed as it goes."""
    ends = np.cumsum(count)
    begin, total = ends - count, int(count.sum())  # the lane of each class's member t = 0
    for lo in range(0, total, _BATCH):
        hi = min(lo + _BATCH, total)
        c = slice(*np.searchsorted(ends, [lo, hi - 1], side="right") + [0, 1])  # the classes in [lo, hi)
        k = np.minimum(ends[c], hi) - np.maximum(begin[c], lo)  # their lanes in [lo, hi)
        t = np.arange(lo, hi)
        t -= np.repeat(begin[c], k)
        starts, vals = np.repeat(m[c], k), np.repeat(p[c], k)
        starts *= t
        starts += np.repeat(r[c], k)
        vals *= t
        del t
        vals += np.repeat(v[c], k)
        yield starts, vals, np.repeat(fuel[c], k)


def verify_range(gcmap: GCMap, limit: int, step_cap: int = 10_000) -> RangeReport:
    """Check that every 1 <= n <= limit reaches 1 under n -> a*n + b (odd), n/2 (even).

    Equivalent inductive form: the orbit of 1 comes back to 1, and every n in
    [2, limit] drops below its start, each within step_cap steps.  The sieve
    leaves some starts to ``return_times``, one call per ``_BATCH`` of them, but
    not those ``_skip_successors`` drops.  Those on a run of odd iterates
    T(q), T(T(q)), ... of an inconclusive lane q are then stepped themselves.
    A map of another shape, or with a + b > 2^63 - 1, raises ValueError naming why.
    """
    _check_positive(limit, "limit")
    _check_positive(step_cap, "step_cap")
    plan = _plan(gcmap)
    if plan.shape is None:
        raise ValueError(f"the range scan needs n -> a*n + b (odd), n/2 (even): {plan.why}")
    (a, b), guard = plan.shape, plan.guard
    if plan.rows[1] is None or guard < 1:
        raise ValueError(f"{a}*n + {b} leaves int64 at n = 1: the range scan needs a + b <= 2^63 - 1")
    t0 = time.perf_counter()
    base_orbit = gcmap.orbit(1, step_cap)  # induction base: 1 comes back to 1
    inconclusive = [] if base_orbit.entered_cycle and base_orbit.outcome.entry_index == 0 else [1]

    (_, _, _, drop), kernel = _sieve(a, b, guard, limit, step_cap)
    max_steps = int(drop.max(initial=0))
    r, m, v, p, s, count = _skip_successors(a, b, *kernel)
    del drop, kernel  # the sieve's columns, freed before the lanes are built
    for starts, vals, fuel in _lanes(r, m, v, p, step_cap - s, count):
        # each lane gets the steps the sieve left it
        _, tau, undecided = return_times(gcmap, starts, vals, fuel)
        inconclusive += starts[undecided].tolist()
        tau += step_cap - fuel  # the sieve's steps and the kernel's
        max_steps = max(max_steps, int(tau[~undecided].max(initial=0)))
    # a skipped n = T(q) drops where q does, so one that does not lies on the run
    # of odd iterates T(q), T(T(q)), ... of an inconclusive lane q: each such
    # start in range is stepped itself at the full cap, in one more call
    top, chained = (2 * limit - b) // a, set()  # T(q) <= limit for q <= top
    for q in inconclusive:
        while q & 1 and 1 < q <= top:
            q = (a * q + b) >> 1
            chained.add(q)
    skipped = sorted(chained.difference(inconclusive))
    for lo in range(0, len(skipped), _BATCH):
        starts = np.array(skipped[lo : lo + _BATCH], dtype=np.int64)
        _, tau, undecided = return_times(gcmap, starts, starts, step_cap)
        inconclusive += starts[undecided].tolist()
        max_steps = max(max_steps, int(tau[~undecided].max(initial=0)))
    seconds = time.perf_counter() - t0
    return RangeReport(limit, not inconclusive, tuple(sorted(inconclusive)), seconds, max_steps)


def verify_range_collatz(limit: int, step_cap: int = 10_000) -> RangeReport:
    """:func:`verify_range` on the 3x+1 map."""
    return verify_range(collatz(), limit, step_cap)

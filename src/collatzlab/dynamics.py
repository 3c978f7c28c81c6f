"""Orbit equivalence, window partitioning, and first returns to a section.

Everything here is three-valued by design: fuel exhaustion is a normal
outcome (:class:`~collatzlab.gcmap.Inconclusive`), never an error, because
termination of these orbits is exactly the open conjecture.

Every first return on arrays (the classes of a window, P on a section, and
the range scan's drop of each start below itself) goes through one kernel,
:func:`return_times`, which steps int64 frontiers and agrees lane by lane
with the scalar :func:`return_time`, its oracle.  A lane int64 cannot step
leaves the frontier alone, and the last few lanes of a window leave together;
each finishes on exact ints.  There is no scalar fork: sigma is a window, a
(punctured) residue set or per-lane tops, and a sigma of any other kind
raises TypeError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Container

import numpy as np

from .gcmap import (
    DomainError,
    GCMap,
    Inconclusive,
    PuncturedResidueSet,
    Report,
    ResidueSet,
    _check_positive,
    verdict,
)

_INT64_MAX = 2**63 - 1
#: a window's frontier down to this many live lanes finishes them in ``_exact_return``:
#: an int64 step costs a few numpy calls however narrow the frontier is
_NARROW = 64

# --- orbit equivalence ------------------------------------------------------


@dataclass(frozen=True)
class Related:
    """Orbits meet: f^k(x) = f^l(y) = meet, with (k+l, k) lexicographically minimal."""

    k: int
    l: int
    meet: int


@dataclass(frozen=True)
class Unrelated:
    """Both orbits entered cycles and the cycles (hence the orbits) are disjoint."""

    cycle_x: tuple[int, ...]
    cycle_y: tuple[int, ...]


EquivalenceVerdict = Related | Unrelated | Inconclusive


def equivalent(gcmap: GCMap, x: int, y: int, fuel: int) -> EquivalenceVerdict:
    """Decide x ~ y (orbit intersection) on fuel-bounded evidence."""
    ox = gcmap.orbit(x, fuel)
    oy = gcmap.orbit(y, fuel)
    ix = {v: i for i, v in reversed(list(enumerate(ox.prefix)))}
    best: tuple[int, int, int] | None = None
    for l, v in enumerate(oy.prefix):
        if v in ix:
            k = ix[v]
            cand = (k + l, k, v)
            if best is None or cand[:2] < best[:2]:
                best = cand
    if best is not None:
        return Related(best[1], best[0] - best[1], best[2])
    if ox.entered_cycle and oy.entered_cycle:
        # cyclic orbits are fully enumerated, so empty prefix intersection is conclusive
        return Unrelated(ox.cycle(), oy.cycle())
    return Inconclusive(fuel)


# --- window partitioning ----------------------------------------------------


@dataclass(eq=False)
class ClassesReport:
    """Partition of {1..window} by fuel-bounded orbit evidence.

    Held as two arrays over the labels: ``minima[n - 1]`` is the least label
    of n's class and ``flagged_mask[n - 1]`` marks an n whose orbit left the
    window and did not return within fuel.  The label forms are built from
    them when read.
    """

    window: int
    minima: np.ndarray
    flagged_mask: np.ndarray

    @property
    def flagged(self) -> frozenset[int]:
        return frozenset((np.flatnonzero(self.flagged_mask) + 1).tolist())

    @property
    def num_classes(self) -> int:
        return int(np.count_nonzero(np.bincount(self.minima)))

    def class_of(self, n: int) -> int:
        if not 1 <= n <= self.window:
            raise KeyError(n)
        return int(self.minima[n - 1])

    def classes(self) -> dict[int, list[int]]:
        """Each class by its least label, in increasing order, with its members in order."""
        order = np.argsort(self.minima, kind="stable")
        least = self.minima[order]
        head = np.flatnonzero(np.r_[True, least[1:] != least[:-1]])
        members = (order + 1).tolist()
        bounds = head.tolist() + [self.window]
        return {k: members[i:j] for k, i, j in zip(least[head].tolist(), bounds, bounds[1:])}


def classes(gcmap: GCMap, window: int, fuel: int) -> ClassesReport:
    """Partition of {1..window} by the first return of each n to the window.

    Each n is joined with its first orbit iterate that re-enters the window
    (at least one step, at most ``fuel``); n whose orbit leaves and never
    returns within fuel is flagged, not guessed.  At fuel 1, n joins f(n)
    only when f(n) <= window (no out-of-window excursions), which is the
    certified regime for span/class comparisons.  Each class is represented
    by its minimum.
    """
    _check_positive(window, "window")
    _check_positive(fuel, "fuel")
    labels = np.arange(1, window + 1, dtype=np.int64)
    value, _, flagged = return_times(gcmap, range(1, window + 1), labels, fuel)
    return _partition(value, flagged)


def _partition(value: np.ndarray, flagged: np.ndarray) -> ClassesReport:
    """The classes of the labels 1..len(value) when each n is joined with
    ``value[n - 1]``, or with nothing where ``flagged[n - 1]``."""
    labels = np.arange(1, len(value) + 1, dtype=np.int64)
    minima = _component_minima(np.where(flagged, labels, value) - 1) + 1
    return ClassesReport(len(value), minima, flagged)


def _component_minima(parent: np.ndarray) -> np.ndarray:
    """The least node of each node's component in the graph i -- parent[i] on 0..n-1.

    Each component holds one cycle, and ``_onto_cycles`` maps every node
    onto its own.  A cycle's head is its least node (``_ring_minima``'s on a
    ring, itself on a self-loop), so ``head[jump[i]]`` is a label per
    component that lies in it, and the least node carrying a label is its
    component's minimum: one scatter.
    """
    nodes = np.arange(len(parent), dtype=np.int64)
    jump, cyclic = _onto_cycles(parent)
    ring = np.flatnonzero(cyclic & (parent != nodes))
    head = nodes.copy()
    head[ring] = _ring_minima(parent, ring)
    label = head[jump]
    least = np.full(len(parent), len(parent), dtype=np.int64)
    np.minimum.at(least, label, nodes)
    return least[label]


def _onto_cycles(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(jump, cyclic): jump = parent^(2^k) maps every node onto a cycle, and
    cyclic marks the nodes on cycles.  Pointer jumping (Wyllie 1979) stopped
    by its image: each round counts the image of jump, which only shrinks.
    Once a round leaves it unchanged, the jump before maps it onto itself, a
    permutation of a finite set, so it holds exactly the nodes on cycles."""
    jump, size = parent, len(parent)
    while True:
        cyclic = np.zeros(len(parent), dtype=bool)
        cyclic[jump] = True
        if (count := np.count_nonzero(cyclic)) == size:
            return jump, cyclic
        jump, size = jump[jump], count


def _ring_minima(parent: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """The least node of each one's cycle, for the sorted nodes on cycles of length >= 2:
    pointer jumping with a running minimum on positions in ring, ceil(log2 len(ring)) rounds."""
    low, step = ring, np.searchsorted(ring, parent[ring])
    for _ in range(max(len(ring) - 1, 0).bit_length()):
        low, step = np.minimum(low, low[step]), step[step]
    return low


# --- first-return maps --------------------------------------------------------


@dataclass(frozen=True)
class SectionReturn:
    tau: int
    value: int


def return_time(
    gcmap: GCMap, sigma: Container[int], x: int, fuel: int
) -> SectionReturn | Inconclusive:
    """tau(x) = min{n >= 1 : f^n(x) in sigma} and the return value, fuel-bounded."""
    if x not in sigma:
        raise DomainError(f"{x} is not in the section")
    v = x
    for tau in range(1, fuel + 1):
        v = gcmap.apply(v)
        if v in sigma:
            return SectionReturn(tau, v)
    return Inconclusive(fuel)


def _odd_even_shape(gcmap: GCMap) -> tuple[int, int]:
    """(a, b) of n -> a*n + b (a, b odd, a >= 3, b >= 1) on odd n, n/2 on even n; KeyError naming why not."""
    m = gcmap.modulus
    if m % 2:
        raise KeyError(f"odd and even n share residues mod {m}")
    odd, even = (set(gcmap._branch_at[i::2]) for i in (1, 0))  # the branches owning them
    if len(odd) != 1 or (br := odd.pop()) is None:
        raise KeyError(f"the odd residues mod {m} are not on one branch")
    if len(even) != 1 or (half := even.pop()) is None or (half.a, half.b, half.c) != (1, 0, 2):
        raise KeyError(f"the even residues mod {m} are not on one n -> n/2 branch")
    a, b, c = br.a, br.b, br.c
    if c != 1 or a < 3 or a % 2 == 0 or b < 1 or b % 2 == 0:
        raise KeyError(f"odd branch n -> ({a}*n + {b}) / {c} needs c = 1, a >= 3 and b >= 1 odd")
    return a, b


def _step_tables(gcmap: GCMap):
    """(rows, A, B, C, guard): the branch n -> (A[r]*n + B[r]) // C[r] at each residue r.

    ``rows[r]`` is that branch's (a, b, c) in Python ints, or None for a
    residue whose class the tables cannot step exactly (no branch or more
    than one, a coefficient past int64, or a branch that leaves a remainder
    or an image below 1 somewhere on the class).  In the int64 arrays such a
    residue gets (0, int64 max, 1), whose image lies past ``guard``, so a
    lane that reaches it leaves the frontier.  From values up to ``guard``
    no int64 numerator can wrap.
    """
    m, rows = gcmap.modulus, []
    for r, br in enumerate(gcmap._branch_at):
        if br is None or max(br.a, abs(br.b), br.c) > _INT64_MAX:
            rows.append(None)
            continue
        # a >= 0, so a*n + b grows along the class: its least member (r, or m
        # for r = 0) and the step a*m settle divisibility and positivity
        low = br.a * (r or m) + br.b
        exact = low % br.c == 0 and br.a * m % br.c == 0 and low >= br.c
        rows.append((br.a, br.b, br.c) if exact else None)
    steppable = [row for row in rows if row is not None]
    max_a = max((a for a, _, _ in steppable), default=1)
    max_b = max((b for _, b, _ in steppable), default=0)
    guard = min((_INT64_MAX - max(max_b, 0)) // max(max_a, 1), _INT64_MAX - 1)
    A, B, C = np.array([row or (0, _INT64_MAX, 1) for row in rows], dtype=np.int64).T
    return rows, A, B, C, guard


#: a jump takes k steps through a table of m^k <= 2^_JUMP_DEPTH entries
_JUMP_DEPTH = 12


def _jump_depth(m: int) -> int:
    """The most steps k with m^k <= 2^_JUMP_DEPTH; _JUMP_DEPTH when m = 1."""
    k = _JUMP_DEPTH
    while m**k > 2**_JUMP_DEPTH:
        k -= 1
    return k


def _jump_table(rows: list, m: int, k: int) -> list:
    """k steps at once for each residue r mod m^k, where every row is exact:
    for n = m^k*q + r >= 1 and ``table[r] = (L, c)``, f^k(n) = L*q + c.

    Each step is exact: where the branch is n -> (a*n + b)/d,
    f(m*q + r) = (a*m/d)*q + (a*r + b)/d with both quotients whole
    (``_step_tables`` proves it), so the table is built a level at a time: f^j on the
    residues mod m^j gives f^(j+1) on those mod m^(j+1).  Python ints
    throughout, so nothing wraps.  k < 2 raises ValueError: a table of k = 0
    never advances a lane.
    """
    if k < 2:
        raise ValueError(f"a jump table takes k >= 2 steps, got {k}")
    level = [(1, 0)]  # f^0(n) = n on the one residue mod m^0
    for j in range(k):
        nxt = []
        for t in range(m):
            for L, c in level:
                # residue r + m^j*t: n = m^j*(m*q + t) + r, so f^j(n) = L*m*q + s
                s = L * t + c
                a, b, d = rows[s % m]
                nxt.append((a * L * m // d, (a * s + b) // d))
        level = nxt
    return level


class _Plan:
    """What the kernel reads off one map, built once (``_plan``): ``_step_tables``'
    rows and guard; ``_odd_even_shape``'s (a, b), or None and ``why``; the int64
    ``step`` on the tables; whether odd steps are ``fused``; the ``reach`` and ``jump`` on windows."""

    def __init__(self, gcmap: GCMap) -> None:
        self.modulus = gcmap.modulus
        self.rows, A, B, C, self.guard = _step_tables(gcmap)
        try:
            self.shape, self.why = _odd_even_shape(gcmap), None
        except KeyError as exc:
            self.shape, self.why = None, exc.args[0]
        self.step = _int64_step(gcmap, self.rows, A, B, C, self.guard, self.shape)
        self.fused = self.shape is not None and self.rows[1] is not None

    @functools.cached_property
    def reach(self):
        """``(k, scale, low)`` of ``_exact_return``'s k-step jump on windows.

        With every row (a, b, c) exact and a >= 1, f(n) >= n/rho, rho the largest of c
        (b >= 0) and 2c (b < 0, for n >= low, the largest 2|b|, or 1).  From v >=
        max(top, low)*rho^k = max(top, low)*scale, every iterate of a k-step jump
        is then at or above top.  None where a row is not exact or has a = 0, and
        where k < 2 (m > 64)."""
        k, rows = _jump_depth(self.modulus), self.rows
        if k < 2 or None in rows or min(a for a, _, _ in rows) < 1:
            return None
        rho = max(2 * c if b < 0 else c for _, b, c in rows)
        low = max((-2 * b for _, b, _ in rows if b < 0), default=1)
        return k, rho**k, low

    @functools.cached_property
    def jump(self):  # (k, table, scale, low), built on an exact lane's first jump; None without a reach
        k, scale, low = self.reach or (0, 0, 0)
        return self.reach and (k, _jump_table(self.rows, self.modulus, k), scale, low)


#: the most plans, and residue tests, held at once
_PLANS = 32


@functools.lru_cache(maxsize=_PLANS)
def _plan_for(gcmap: GCMap, bound: int) -> _Plan:
    return _Plan(gcmap)


def _plan(gcmap: GCMap) -> _Plan:
    """The map's plan, shared by equal maps, at the int64 bound its guard comes from."""
    return _plan_for(gcmap, _INT64_MAX)


def _exact_return(gcmap: GCMap, sigma: Container[int], plan, v: int, step: int, fuel: int):
    """Finish one lane on exact ints from the value v reached after ``step`` steps:
    ``(value, tau)`` of its return to sigma, or None when fuel runs out.  Without a
    plan each step is a ``gcmap.apply``, raising what ``return_time`` raises.  A plan
    with a ``reach`` comes with a window ``range(1, top)``: a step takes v's row, a
    ``fused`` odd v >= top takes (a*v + b)/2 as 2 steps (a*v + b > v cannot return),
    and from max(top, low)*scale on it jumps k steps by the table while they fit in fuel."""
    rows, m, last, floor, odd, apply = (None,), 1, -1, 0, 0, gcmap.apply  # (None,): every step applies
    if plan is not None:
        (k, scale, low), rows, m, top, table = plan.reach, plan.rows, plan.modulus, sigma.stop, None
        last, floor, size, odd, (a, b) = fuel - k, max(top, low) * scale, m**k, plan.fused, plan.shape or (0, 0)
        # a shift and a mask split a long v several times faster than divmod
        shift = size.bit_length() - 1 if size & (size - 1) == 0 else None
    while step < fuel:
        if step <= last and v >= floor:
            table = table or plan.jump[1]
            q, r = divmod(v, size) if shift is None else (v >> shift, v & (size - 1))
            L, c = table[r]
            v, step = L * q + c, step + k
            continue
        if v & odd and v >= top and step < fuel - 1:
            v, step = (a * v + b) >> 1, step + 2
        else:
            row = rows[v % m]
            v, step = apply(v) if row is None else (row[0] * v + row[1]) // row[2], step + 1
        if v in sigma:
            return v, step
    return None


def _member_test(sigma: Container[int]):
    """A vectorised ``v in sigma`` for a window ``range(1, hi)`` or a (punctured)
    residue set; TypeError for any other sigma.  The residue tests also take
    exact ints in an object array."""
    if isinstance(sigma, range) and sigma.step == 1 and sigma.start <= 1:  # range(1, hi), or from 0
        return lambda v: v < sigma.stop  # every value the kernel tests is at least 1
    if not isinstance(sigma, (ResidueSet, PuncturedResidueSet)):
        raise TypeError(f"sigma must be range(1, hi), a (punctured) residue set or per-lane tops, not {sigma!r}")
    return _residue_test(sigma)


@functools.lru_cache(maxsize=_PLANS)
def _residue_test(sigma: ResidueSet | PuncturedResidueSet):
    """``_member_test`` of a (punctured) residue set, built once per set."""
    m, table = sigma.modulus, np.zeros(sigma.modulus, dtype=bool)
    table[list(sigma.classes.residues)] = True
    if sigma.removed:
        removed = np.array(sorted(sigma.removed), dtype=np.int64)
        return lambda v: table[_residues(v, m)] & ~np.isin(v, removed)
    return lambda v: table[_residues(v, m)]


def _residues(v: np.ndarray, m: int) -> np.ndarray:
    """v mod m (m >= 1) as int64, for int64 v or exact ints in an object array.
    int64 v takes v - (v // m) * m: numpy vectorises ``//`` by a scalar but not
    ``%``, and where the product wraps, the difference wraps back to the exact
    residue.  Exact ints take ``%``, one object-level pass where that takes three."""
    if v.dtype == object:
        return (v % m).astype(np.int64)
    q = v // m
    q *= m
    return np.subtract(v, q, out=q).astype(np.int64, copy=False)


def _int64_step(gcmap: GCMap, rows: list, A: np.ndarray, B: np.ndarray, C: np.ndarray, guard: int, shape):
    """One int64 step of values up to ``guard``: by the branch tables, or by
    parity on n -> a*n + b (odd), n/2 (even) with an exact odd row, 2a <= guard
    and over 128 lanes (on fewer, the tables' fewer numpy calls cost less).
    ``shape`` is the map's (a, b), or None."""
    m = np.int64(gcmap.modulus)

    def table(v):
        r = v % m
        return (A[r] * v + B[r]) // C[r]

    a, b = shape or (None, None)
    if a is None or rows[1] is None or 2 * a > guard:
        return table

    def parity(v):
        if len(v) <= 128:
            return table(v)
        # h + (v & 1)*((2a - 1)*h + a + b), h = v >> 1: no select by parity to
        # mispredict, and no partial sum past a*v + b + a - h, which fits int64
        h = v >> 1
        out = h * (2 * a - 1)
        out += a + b
        out *= v & 1
        out += h
        return out

    return parity


def return_times(gcmap: GCMap, sigma, xs, fuel):
    """First returns to sigma of every x in xs (each fits int64), as arrays
    ``(value, tau, undecided)``: lane i agrees with ``return_time`` on its
    sigma at its fuel, with value and tau 0 where ``undecided[i]``, when its
    fuel ran out.

    sigma is a window ``range(1, hi)``, a (punctured) residue set, or an array
    of per-lane tops: lane i returns to ``range(1, tops[i])``, and xs[i] need
    not lie in it.  fuel is an int or, like the tops, an int64 array of
    per-lane fuel, and every lane counts its own steps.  The int64 frontier
    carries the lanes that have not returned, stepped as the map's ``_plan``
    says.  On per-lane tops of a ``fused`` plan an odd lane takes (a*v + b)/2
    and counts 2 steps: a lane left after a step is at or above its top, so
    a*v + b cannot return (the first step is fused too where every start
    is).  It is stepped in place, a lane that returns or runs out of fuel is
    retired in place (value 0 and top 0: the step keeps 0 and 0 < 0 never
    holds), and the frontier is compacted once a quarter of it is retired.
    Other calls take the plan's single step and are compacted at every
    return.  A lane the tables cannot step (past the guard at step 0, or with
    a step past it or into a class without an exact row) leaves with its
    value and step count from before that step; on a window or per-lane tops,
    once at most ``_NARROW`` lanes are live after an iteration, each leaves
    with its value and step count as they stand.  Each finishes, in lane
    order, in ``_exact_return``, which raises where ``return_time`` raises and
    on windows steps by the plan's rows and jump.  ``value`` is an object
    array if a return does not fit int64.  Before any step, a start below 1
    raises DomainError, and so does a start outside a window or residue
    sigma, as ``return_time`` raises it; a sigma of another kind raises
    TypeError, and per-lane fuel of another length ValueError.
    """
    xs = np.asarray(xs, dtype=np.int64)
    per_lane = isinstance(sigma, np.ndarray)
    member = None if per_lane else _member_test(sigma)
    if per_lane and len(xs) and xs.min() < 1:
        raise DomainError(f"{xs.min()} is below 1")
    if not per_lane and len(xs) and (xs.min() < 1 or not member(xs).all()):
        # return_time raises at the first such start: it is outside sigma, or apply refuses it
        return_time(gcmap, sigma, next(x for x in xs.tolist() if x < 1 or x not in sigma), 1)
    fuel_per_lane = isinstance(fuel, np.ndarray)
    if fuel_per_lane:
        fuel = fuel.astype(np.int64, copy=False)
        if fuel.shape != xs.shape:
            raise ValueError(f"{len(fuel)} fuels for {len(xs)} lanes")
        max_fuel, least = int(fuel.max(initial=0)), int(fuel.min(initial=0))
        undecided = fuel < 1
    else:
        fuel = max_fuel = least = min(fuel, 2**63 - 1)  # no scan lasts that many steps
        undecided = np.full(len(xs), fuel < 1)
    plan = _plan(gcmap)
    guard, shape, step_of = plan.guard, plan.shape, plan.step
    narrow = per_lane or isinstance(sigma, range)  # windows: their frontiers may narrow to the exact finish
    lazy = per_lane and plan.fused  # fused steps, lazy compaction
    returned = []  # (lanes, values, k + c) of each iteration's returns
    left = []  # (lanes, values, k + c) of the lanes that left the frontier, from before that step
    # the frontier: each lane, its value, its top and c = max_fuel - fuel + (its
    # fused odd steps) or None for 0, so that after k iterations a lane has
    # taken k + c - (max_fuel - fuel) steps
    lanes, vals = np.arange(len(xs)), xs
    c = max_fuel - fuel if fuel_per_lane else np.zeros(len(xs), dtype=np.int64) if lazy else None
    at = np.array(sigma, dtype=np.int64) if per_lane else None
    k = dead = 0  # iterations, and lanes retired in place since the last compaction
    if lazy:  # the buffers of the in-place step and test, cut to the frontier's length
        a, b = shape
        a1, half = np.int64(a - 1), np.int64((a + b) >> 1)
        odd, tmp, below = np.empty_like(xs), np.empty_like(xs), np.empty(len(xs), dtype=bool)

    def keep(i):  # the frontier at positions i; column by column, so each old one is freed first
        nonlocal lanes, vals, c, at, dead
        lanes, vals, dead = lanes.take(i), vals.take(i), 0
        if c is not None:
            c = c.take(i)
        if at is not None:
            at = at.take(i)

    def retire(gone, i):  # the lanes where gone holds, at positions i, leave the frontier
        nonlocal dead
        dead += len(i)
        if lazy and 4 * dead < len(vals):
            vals[i] = at[i] = 0
            c[i] = -1  # never at its fuel
            return
        if dead > len(i):  # and those retired in place before
            gone |= c < 0
        keep((~gone).nonzero()[0])

    bound = int(xs.max(initial=0))  # a bound on the frontier's values
    if bound > guard:
        i = np.flatnonzero(xs > guard)
        left.append((i, xs[i], 0 if c is None else c[i]))
    if bound > guard or least < 1:
        keep(np.flatnonzero((xs <= guard) & ~undecided))
    c_bound = max_fuel - least  # a bound on the frontier's c
    fused = lazy and bool((xs >= sigma).all())
    if fused:
        vals = vals.copy()  # stepped in place from here on
    while len(vals) > dead and k < max_fuel:
        k += 1
        if fused:
            # v -> h + (v & 1)*((a - 1)*h + (a + b)/2), h = v >> 1
            o, t = odd[: len(vals)], tmp[: len(vals)]
            np.bitwise_and(vals, 1, out=o)
            vals >>= 1
            np.multiply(vals, a1, out=t)
            t += half
            t *= o
            vals += t
            c += o
            # a*v + b passes the guard exactly when (a*v + b)/2 passes guard // 2
            bound, cut, c_bound = (a * bound + b) >> 1, guard >> 1, c_bound + 1
        else:
            before, vals = vals, step_of(vals)
            bound, cut = guard + 1, guard
        if bound > cut and (bound := int(vals[vals.argmax()])) > cut:
            over = vals > cut
            i = over.nonzero()[0]
            back = (2 * vals[i] - b) // a if fused else before[i]
            left.append((lanes[i], back, k - 1 if c is None else c[i] + k - 1 - fused))
            retire(over, i)
        before = None  # frees the old frontier before the compactions below
        hit = np.less(vals, at, out=below[: len(vals)]) if lazy else vals < at if per_lane else member(vals)
        done = hit.nonzero()[0]
        if len(done):
            returned.append((lanes.take(done), vals.take(done), k if c is None else c.take(done) + k))
        if k == max_fuel:  # every lane left is at its fuel or, by a fused odd step, past it
            undecided[lanes[~hit & (c >= 0) if dead else ~hit]] = True
            break
        # the lanes at their fuel, once one can be (a lane past it took a fused odd step, which cannot return)
        if c_bound >= max_fuel - k and (c_bound := int(c.max(initial=-1))) >= max_fuel - k:
            spent = c >= max_fuel - k
            undecided[lanes[spent & ~hit]] = True
            hit = spent | hit
            done = hit.nonzero()[0]
        if len(done):
            retire(hit, done)
        if narrow and 0 < len(vals) - dead <= _NARROW:  # the live lanes leave as they stand
            i = (c >= 0).nonzero()[0] if dead else np.arange(len(vals))
            left.append((lanes[i], vals[i], k if c is None else c[i] + k))
            break
        fused = lazy
    value, tau = np.zeros(len(xs), dtype=np.int64), np.zeros(len(xs), dtype=np.int64)
    for done, v, steps in returned:
        if fuel_per_lane:
            steps += fuel[done] - max_fuel
        value[done], tau[done] = v, steps
    if left:
        exits = []  # (lane, value, steps, fuel)
        for done, v, steps in left:
            f = fuel[done] if fuel_per_lane else np.full(len(done), fuel)
            exits += zip(done.tolist(), v.tolist(), (steps - max_fuel + f).tolist(), f.tolist())
        exact = plan if narrow and plan.reach else None  # windows step by the plan's rows and jump
        exits.sort()  # in lane order, so the first lane to raise is the one return_time raises at
        window = (lambda lane: range(1, int(sigma[lane]))) if per_lane else (lambda lane: sigma)
        finished = [(lane, _exact_return(gcmap, window(lane), exact, v, s, f)) for lane, v, s, f in exits]
        undecided[[lane for lane, ret in finished if ret is None]] = True
        back = [(lane, *ret) for lane, ret in finished if ret is not None]
        if back:
            done, v, t = (list(col) for col in zip(*back))
            v = np.array(v, dtype=np.int64 if max(v) < 2**63 else object)  # returns are at least 1
            value = value.astype(v.dtype, copy=False)
            value[done], tau[done] = v, t
    return value, tau, undecided


# --- transformation propositions (section reductions) -------------------------


@dataclass(frozen=True)
class ReductionReport(Report):
    checked: int
    failures: tuple[int, ...]
    inconclusive: tuple[int, ...]
    detail: str = ""

    @property
    def status(self) -> int:
        return verdict(bool(self.failures), bool(self.inconclusive))

    passed = Report.ok

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checked": self.checked,
            "failures": list(self.failures),
            "inconclusive": list(self.inconclusive),
            "detail": self.detail,
        }


def check_reduction_sufficient(
    gcmap: GCMap, sigma: Container[int], window: int, fuel: int
) -> ReductionReport:
    """Hypothesis of the sufficiency direction: every orbit meets the section.

    Checks orb(x; f) intersects sigma within fuel for every x <= window; a
    window or fuel below 1 raises DomainError, and one past int64 OverflowError.
    """
    _check_positive(window, "window")
    _check_positive(fuel, "fuel")
    if window > _INT64_MAX:
        raise OverflowError(f"window {window} would leave int64")
    if isinstance(sigma, ResidueSet) and sigma.is_empty():
        return ReductionReport(window, tuple(range(1, window + 1)), (), "empty section")
    inconclusive: list[int] = []
    for x in range(1, window + 1):
        v = x
        hit = v in sigma
        spent = 0
        while not hit and spent < fuel:
            v = gcmap.apply(v)
            spent += 1
            hit = v in sigma
        if not hit:
            inconclusive.append(x)
    return ReductionReport(window, (), tuple(inconclusive))


def check_reduction_necessary(
    gcmap: GCMap, sigma: Container[int], x0: int, fuel: int
) -> ReductionReport:
    """Hypothesis of the necessity direction at a periodic point x0.

    Verifies x0 is periodic under f and orb(x0; P) = orb(x0; f) ∩ sigma,
    both sides computed exactly from the detected cycles.
    """
    if x0 not in sigma:
        raise DomainError(f"{x0} is not in the section")
    orb_f = gcmap.orbit(x0, fuel)
    if not orb_f.entered_cycle:
        return ReductionReport(1, (), (x0,), f"orbit of {x0} does not close within fuel")
    if orb_f.outcome.entry_index != 0:
        return ReductionReport(1, (x0,), (), f"{x0} is not periodic under f")
    # the P-orbit of x0 until it repeats: it spends exactly the f-period,
    # which the f-orbit above found within fuel, so no first return runs out
    lhs, v, budget = {x0}, x0, fuel
    while True:
        ret = return_time(gcmap, sigma, v, budget)
        budget -= ret.tau
        v = ret.value
        if v in lhs:
            break
        lhs.add(v)
    rhs = {v for v in orb_f.prefix if v in sigma}
    if lhs == rhs:
        return ReductionReport(1, (), ())
    return ReductionReport(
        1, (x0,), (), f"orb(x0;P)={sorted(lhs)} != orb(x0;f) ∩ sigma={sorted(rhs)}"
    )

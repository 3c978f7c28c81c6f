"""Orbit equivalence, window partitioning, and first returns to a section.

Everything here is three-valued by design: fuel exhaustion is a normal
outcome (:class:`~collatzlab.gcmap.Inconclusive`), never an error, because
termination of these orbits is exactly the open conjecture.

Windowed first returns (the classes of a window, and P on a section window)
all go through one array kernel, :func:`return_times`, which steps int64
frontiers and agrees lane by lane with the scalar :func:`return_time`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def representative(self) -> dict[int, int]:
        # a representative is one of the key int objects, so the dict makes no new ints
        names = list(range(1, self.window + 1))
        return dict(zip(names, map(names.__getitem__, (self.minima - 1).tolist())))


def classes(gcmap: GCMap, window: int, fuel: int, interior_only: bool = False) -> ClassesReport:
    """Partition of {1..window} by the first return of each n to the window.

    Each n is joined with its first orbit iterate that re-enters the window
    (at least one step, at most ``fuel``); n whose orbit leaves and never
    returns within fuel is flagged, not guessed.  With ``interior_only`` the
    fuel is one step, so n joins f(n) only when f(n) <= window (no
    out-of-window excursions), which is the certified regime for span/class
    comparisons.  Each class is represented by its minimum.
    """
    _check_positive(window, "window")
    labels = np.arange(1, window + 1, dtype=np.int64)
    _check_positive(fuel, "fuel")
    steps = 1 if interior_only else fuel
    value, _, flagged = return_times(gcmap, range(1, window + 1), labels, steps)
    minima = _component_minima(np.where(flagged, labels, value) - 1) + 1
    return ClassesReport(window, minima, flagged)


def _component_minima(parent: np.ndarray) -> np.ndarray:
    """The least node of each node's component in the graph i -- parent[i] on 0..n-1.

    Pointer jumping with a running minimum: after k rounds ``low[i]`` is the
    least of the first 2^k nodes on the path from i and ``jump[i]`` is the
    2^k-th.  Once 2^k >= n the path covers everything i reaches and
    ``jump[i]`` lies on the cycle that ends it, so ``low[jump[i]]``, the least
    node of that cycle, names the component; its minimum is then one scatter.
    """
    n = len(parent)
    nodes = np.arange(n, dtype=np.int64)
    low, jump = nodes, parent
    for _ in range(max(n - 1, 0).bit_length()):
        low, jump = np.minimum(low, low[jump]), jump[jump]
    cycle = low[jump]
    least = np.full(n, n, dtype=np.int64)
    np.minimum.at(least, cycle, nodes)
    return least[cycle]


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


def _step_tables(gcmap: GCMap):
    """(A, B, C, guard): the branch n -> (A[r]*n + B[r]) // C[r] at each residue r.

    A residue whose class the tables cannot step exactly (no branch or more
    than one, or a branch that leaves a remainder or an image below 1
    somewhere on the class) gets (0, int64 max, 1), whose image lies past
    ``guard``, so a lane that reaches it sends the call to the scalar path.
    From values up to ``guard`` no int64 numerator can wrap.  None when a
    coefficient does not fit int64.
    """
    m, coef = gcmap.modulus, []
    for r, br in enumerate(gcmap._branch_at):
        if br is None:
            coef.append(None)
            continue
        if max(br.a, abs(br.b), br.c) > _INT64_MAX:
            return None
        # a >= 0, so a*n + b grows along the class: its least member (r, or m
        # for r = 0) and the step a*m settle divisibility and positivity
        low = br.a * (r or m) + br.b
        exact = low % br.c == 0 and br.a * m % br.c == 0 and low >= br.c
        coef.append((br.a, br.b, br.c) if exact else None)
    steppable = [row for row in coef if row is not None]
    max_a = max((a for a, _, _ in steppable), default=1)
    max_b = max((b for _, b, _ in steppable), default=0)
    guard = min((_INT64_MAX - max(max_b, 0)) // max(max_a, 1), _INT64_MAX - 1)
    A, B, C = np.array([row or (0, _INT64_MAX, 1) for row in coef], dtype=np.int64).T
    return A, B, C, guard


def _member_test(sigma: Container[int]):
    """A vectorised ``v in sigma`` for a window ``range(1, hi)`` or a (punctured)
    residue set, else None.  The residue tests also take exact ints in an
    object array."""
    if isinstance(sigma, range) and sigma.step == 1 and sigma.start <= 1:
        hi = sigma.stop
        return lambda v: v < hi  # every value the kernel tests is at least 1
    if not isinstance(sigma, (ResidueSet, PuncturedResidueSet)):
        return None
    m, table = sigma.modulus, np.zeros(sigma.modulus, dtype=bool)
    table[list(sigma.classes.residues)] = True
    if sigma.removed:
        removed = np.array(sorted(sigma.removed), dtype=np.int64)
        return lambda v: table[(v % m).astype(np.int64, copy=False)] & ~np.isin(v, removed)
    return lambda v: table[(v % m).astype(np.int64, copy=False)]


def _int_array(values: list[int]) -> np.ndarray:
    """int64 when every value fits, else exact Python ints in an object array."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _scalar_returns(gcmap: GCMap, sigma: Container[int], xs: np.ndarray, fuel: int):
    rets = [return_time(gcmap, sigma, x, fuel) for x in xs.tolist()]
    undecided = np.array([isinstance(r, Inconclusive) for r in rets], dtype=bool)
    return (
        _int_array([getattr(r, "value", 0) for r in rets]),
        np.array([getattr(r, "tau", 0) for r in rets], dtype=np.int64),
        undecided,
    )


def return_times(gcmap: GCMap, sigma: Container[int], xs, fuel: int):
    """First returns to sigma of every x in xs (each fits int64), as arrays:
    ``(value, tau, undecided)``.

    Lane i agrees with ``return_time(gcmap, sigma, xs[i], fuel)``: value and
    tau of the return, or ``undecided[i]`` (value and tau 0) when fuel ran
    out.  sigma is a window ``range(1, hi)``, a residue set or a punctured
    one.  Each step reads the map's per-residue tables on int64 arrays and
    carries only the frontier, the lanes that have not returned.  Anything
    the tables cannot step reruns the whole call through ``return_time``,
    which raises as it does: a value past the overflow guard, a residue
    class that is not stepped exactly (see ``_step_tables``), a start outside
    sigma or below 1, a coefficient beyond int64, another kind of sigma.
    On that path ``value`` is an object array if a return does not fit int64.
    """
    xs = np.asarray(xs, dtype=np.int64)
    tables, member = _step_tables(gcmap), _member_test(sigma)
    if tables is None or member is None:
        return _scalar_returns(gcmap, sigma, xs, fuel)
    A, B, C, guard = tables
    if len(xs) and (xs.min() < 1 or xs.max() > guard or not member(xs).all()):
        return _scalar_returns(gcmap, sigma, xs, fuel)
    m = np.int64(gcmap.modulus)
    lanes, vals = np.arange(len(xs)), xs
    returned = []  # (lanes, values, step) of each step's returns
    # argmax and count_nonzero: the cheapest reductions on a short frontier
    for step in range(1, fuel + 1):
        if not len(vals):
            break
        r = vals % m
        vals = (A[r] * vals + B[r]) // C[r]
        if vals[vals.argmax()] > guard:
            return _scalar_returns(gcmap, sigma, xs, fuel)
        hit = member(vals)
        if np.count_nonzero(hit):
            returned.append((lanes[hit], vals[hit], step))
            miss = ~hit
            lanes, vals = lanes[miss], vals[miss]
    value, tau = np.zeros(len(xs), dtype=np.int64), np.zeros(len(xs), dtype=np.int64)
    for done, v, step in returned:
        value[done], tau[done] = v, step
    undecided = np.zeros(len(xs), dtype=bool)
    undecided[lanes] = True
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

    Checks orb(x; f) intersects sigma within fuel for every x <= window.
    """
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
    # the P-orbit of x0 until it repeats; fuel bounds its raw f-steps in total
    lhs, v, budget = {x0}, x0, fuel
    while True:
        ret = return_time(gcmap, sigma, v, budget)
        if isinstance(ret, Inconclusive):
            return ReductionReport(1, (), (x0,), "P-orbit inconclusive within fuel")
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

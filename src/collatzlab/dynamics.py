"""Orbit equivalence, window partitioning, and first-return (Poincare) maps.

Everything here is three-valued by design: fuel exhaustion is a normal
outcome (:class:`~collatzlab.gcmap.Inconclusive`), never an error, because
termination of these orbits is exactly the open conjecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container

from .gcmap import (
    DomainError,
    EnteredCycle,
    GCMap,
    Inconclusive,
    OrbitRecord,
    Report,
    ResidueSet,
    _check_positive,
    verdict,
)

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


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n + 1))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            if ri > rj:
                ri, rj = rj, ri
            self.parent[rj] = ri  # keep the minimum as representative


@dataclass
class ClassesReport:
    """Partition of {1..window} by fuel-bounded orbit evidence."""

    window: int
    representative: dict[int, int]
    flagged: frozenset[int]

    @property
    def num_classes(self) -> int:
        return len(set(self.representative.values()))

    def class_of(self, n: int) -> int:
        return self.representative[n]

    def classes(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for n in range(1, self.window + 1):
            out.setdefault(self.representative[n], []).append(n)
        return out


def classes(gcmap: GCMap, window: int, fuel: int, interior_only: bool = False) -> ClassesReport:
    """Union-find partition of {1..window}.

    Each n is merged with its first orbit iterate that re-enters the window;
    n whose orbit leaves and never returns within fuel is flagged, not
    guessed.  With ``interior_only`` the merge n -- f(n) happens only when
    f(n) <= window (no out-of-window excursions), which is the certified
    regime for span/class comparisons.
    """
    _check_positive(window, "window")
    uf = _UnionFind(window)
    flagged: set[int] = set()
    for n in range(1, window + 1):
        v = gcmap.apply(n)
        if v <= window:
            uf.union(n, v)
            continue
        if interior_only:
            flagged.add(n)
            continue
        spent = 1
        while v > window and spent < fuel:
            v = gcmap.apply(v)
            spent += 1
        if v <= window:
            uf.union(n, v)
        else:
            flagged.add(n)
    rep = {n: uf.find(n) for n in range(1, window + 1)}
    return ClassesReport(window, rep, frozenset(flagged))


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


class FirstReturnMap:
    """The first-return map P for ``gcmap`` on ``sigma``, as a fuel-threaded evaluator.

    P is generally not itself a GCMap; this object mirrors the orbit API with
    fuel passed through each evaluation.  The fuel here bounds raw f-steps per
    P-step.
    """

    def __init__(self, gcmap: GCMap, sigma: Container[int]) -> None:
        self.map = gcmap
        self.sigma = sigma

    def apply(self, x: int, fuel: int) -> int | Inconclusive:
        r = return_time(self.map, self.sigma, x, fuel)
        return r if isinstance(r, Inconclusive) else r.value

    def orbit(self, x: int, fuel: int) -> OrbitRecord:
        """Orbit under P; fuel bounds the total number of raw f-steps."""
        if x not in self.sigma:
            raise DomainError(f"{x} is not in the section")
        seen: dict[int, int] = {}
        prefix: list[int] = []
        v = x
        budget = fuel
        while True:
            if v in seen:
                i = seen[v]
                return OrbitRecord(x, tuple(prefix), EnteredCycle(i, tuple(prefix[i:])))
            seen[v] = len(prefix)
            prefix.append(v)
            r = return_time(self.map, self.sigma, v, budget)
            if isinstance(r, Inconclusive):
                return OrbitRecord(x, tuple(prefix), Inconclusive(fuel))
            budget -= r.tau
            v = r.value


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
    P = FirstReturnMap(gcmap, sigma)
    orb_p = P.orbit(x0, fuel)
    if not orb_p.entered_cycle:
        return ReductionReport(1, (), (x0,), "P-orbit inconclusive within fuel")
    lhs = set(orb_p.prefix)
    rhs = {v for v in orb_f.prefix if v in sigma}
    if lhs == rhs:
        return ReductionReport(1, (), ())
    return ReductionReport(
        1, (x0,), (), f"orb(x0;P)={sorted(lhs)} != orb(x0;f) ∩ sigma={sorted(rhs)}"
    )

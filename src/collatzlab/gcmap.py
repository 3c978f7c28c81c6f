"""Generalized Collatz-type maps: residue-guarded affine branches on positive integers.

A map is a finite list of branches ``n -> (a*n + b) // c``, each guarded by a
union of residue classes modulo the map's modulus.  All arithmetic here is
exact Python integers, because orbits of 5x+1-style maps grow without known
bound.  The checked int64 paths live elsewhere and fall back to this one:
first returns and window classes step the map's per-residue tables in
:func:`collatzlab.dynamics.return_times`, and range scans of the maps
n -> a*n + b (odd), n/2 (even) run in :mod:`collatzlab.rangecheck`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator

#: Every check ends in one of these; the CLI exits with the same number.
PASS, VIOLATION, INCONCLUSIVE = 0, 1, 2


def verdict(violation: bool = False, inconclusive: bool = False) -> int:
    """The one precedence rule: a witnessed violation beats inconclusive, and
    inconclusive beats pass."""
    if violation:
        return VIOLATION
    return INCONCLUSIVE if inconclusive else PASS


def combine(statuses: Iterable[int]) -> int:
    """The status of a group of checks, by the precedence of :func:`verdict`."""
    statuses = set(statuses)
    return verdict(VIOLATION in statuses, INCONCLUSIVE in statuses)


class Report:
    """Base of the verdict reports: each defines one ``status``, and ``ok``
    (``passed``, ``holds``) is nothing but ``status == PASS``."""

    @property
    def ok(self) -> bool:
        return self.status == PASS


@dataclass(frozen=True)
class Inconclusive:
    """Fuel ran out before a verdict: never a pass and never a violation."""

    fuel: int
    status: ClassVar[int] = INCONCLUSIVE


class DomainError(ValueError):
    """Input outside the positive-integer domain or outside a required section."""


def _check_positive(n: int, what: str = "n") -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"{what} must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class ResidueSet:
    """A union of residue classes mod ``modulus``, as a subset of the positive integers."""

    modulus: int
    residues: frozenset[int]
    #: no punctures: with ``classes`` a residue set reads as a PuncturedResidueSet does
    removed: ClassVar[frozenset[int]] = frozenset()

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(self, "residues", frozenset(self.residues))
        bad = [r for r in self.residues if not (0 <= r < self.modulus)]
        if bad:
            raise ValueError(f"residues {bad} not in [0, {self.modulus})")

    @classmethod
    def of(cls, modulus: int, residues: Iterable[int]) -> "ResidueSet":
        return cls(modulus, frozenset(r % modulus for r in residues))

    @classmethod
    def full(cls) -> "ResidueSet":
        return cls(1, frozenset({0}))

    @classmethod
    def empty(cls, modulus: int = 1) -> "ResidueSet":
        return cls(modulus, frozenset())

    def __contains__(self, n: int) -> bool:
        return n % self.modulus in self.residues

    @property
    def classes(self) -> "ResidueSet":
        return self

    def is_empty(self) -> bool:
        return not self.residues

    def at_modulus(self, m: int) -> "ResidueSet":
        """The same set expressed at a modulus ``m`` that is a multiple of this one."""
        if m % self.modulus != 0:
            raise ValueError(f"{m} is not a multiple of modulus {self.modulus}")
        lift = m // self.modulus
        return ResidueSet(
            m, frozenset(r + j * self.modulus for r in self.residues for j in range(lift))
        )

    def union(self, other: "ResidueSet") -> "ResidueSet":
        m = math.lcm(self.modulus, other.modulus)
        return ResidueSet(m, self.at_modulus(m).residues | other.at_modulus(m).residues)

    def intersection(self, other: "ResidueSet") -> "ResidueSet":
        m = math.lcm(self.modulus, other.modulus)
        return ResidueSet(m, self.at_modulus(m).residues & other.at_modulus(m).residues)

    def same_set(self, other: "ResidueSet") -> bool:
        m = math.lcm(self.modulus, other.modulus)
        return self.at_modulus(m).residues == other.at_modulus(m).residues

    def reduce(self) -> "ResidueSet":
        """The equivalent set at the smallest modulus dividing this one."""
        for d in sorted(_divisors(self.modulus)):
            folded = {r % d for r in self.residues}
            if len(folded) * (self.modulus // d) == len(self.residues):
                # every class mod d is fully lifted, so the set is d-periodic
                if all(r % d in folded for r in self.residues):
                    return ResidueSet(d, frozenset(folded))
        return self

    def members(self, lo: int, hi: int) -> Iterator[int]:
        """Members n with lo <= n <= hi, ascending."""
        for n in range(max(lo, 1), hi + 1):
            if n % self.modulus in self.residues:
                yield n

    def min_member(self) -> int:
        """Smallest positive member."""
        if self.is_empty():
            raise ValueError("empty residue set has no members")
        return min(r if r >= 1 else self.modulus for r in self.residues)


@dataclass(frozen=True)
class PuncturedResidueSet:
    """A union of residue classes with finitely many small members removed.

    Shifted sets like {m + d : m ≡ r (mod D)} are residue classes missing
    their members below r + d; the missing values are the punctures.
    """

    classes: ResidueSet
    removed: frozenset[int]

    def __post_init__(self) -> None:
        bad = [e for e in self.removed if e not in self.classes]
        if bad:
            raise ValueError(f"punctures {bad} are not members of the underlying classes")

    def __contains__(self, n: int) -> bool:
        return n in self.classes and n not in self.removed

    @property
    def modulus(self) -> int:
        return self.classes.modulus

    def members(self, lo: int, hi: int) -> Iterator[int]:
        for n in self.classes.members(lo, hi):
            if n not in self.removed:
                yield n

    def min_member(self) -> int:
        # punctures are finite, so a bounded scan past them suffices
        hi = self.classes.min_member() + self.classes.modulus * (len(self.removed) + 1)
        for n in self.members(1, hi):
            return n
        raise ValueError("empty punctured set has no members")


def section_sets(
    n1: ResidueSet, n2: ResidueSet, removed: Iterable[int] = ()
) -> tuple["ResidueSet | PuncturedResidueSet", "ResidueSet | PuncturedResidueSet"]:
    """The point sets N2 and sigma = N1 ∪ N2 of a first-return section.

    ``removed`` lists the punctures of N2.  A puncture that N1 contains is
    still a point of sigma, so sigma's punctures are the N2 punctures not in N1.
    """

    def punctured(classes: ResidueSet, gone: frozenset[int]) -> "ResidueSet | PuncturedResidueSet":
        return PuncturedResidueSet(classes, gone) if gone else classes

    removed = frozenset(removed)
    sigma_removed = frozenset(e for e in removed if e not in n1)
    return punctured(n2, removed), punctured(n1.union(n2), sigma_removed)


def _divisors(n: int) -> list[int]:
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return out


@dataclass(frozen=True)
class AffineBranch:
    """One branch ``n -> (a*n + b) // c`` on the residue classes in ``guard``."""

    index: int
    guard: ResidueSet
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError("a must be non-negative")
        if self.c < 1:
            raise ValueError("c must be a positive integer")

    def image(self, n: int) -> int:
        v = self.a * n + self.b
        if v % self.c != 0:
            raise ArithmeticError(
                f"branch {self.index}: {self.a}*{n}+{self.b} not divisible by {self.c}"
            )
        return v // self.c

    def preimage_of(self, n: int) -> int | None:
        """The unique m >= 1 in the guard with image(m) == n, if any (requires a >= 1)."""
        if self.a == 0:
            return None
        v = self.c * n - self.b
        if v % self.a != 0:
            return None
        m = v // self.a
        if m >= 1 and m in self.guard:
            return m
        return None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class CheckReport(Report):
    """A list of pass/fail checks, e.g. the outcome of :meth:`GCMap.validate`."""

    checks: tuple[CheckResult, ...]

    @property
    def status(self) -> int:
        return verdict(violation=not all(self.checks))

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


@dataclass(frozen=True)
class EnteredCycle:
    entry_index: int
    cycle: tuple[int, ...]


@dataclass(frozen=True)
class OrbitRecord:
    """A computed orbit prefix with its outcome.

    ``prefix`` lists x, f(x), f^2(x), ... up to (and excluding) the first
    repeated value; on cycle detection, ``outcome.entry_index`` points at the
    first occurrence of the repeating segment inside ``prefix``.
    """

    start: int
    prefix: tuple[int, ...]
    outcome: EnteredCycle | Inconclusive

    @property
    def entered_cycle(self) -> bool:
        return isinstance(self.outcome, EnteredCycle)

    def values(self) -> frozenset[int]:
        """All distinct orbit values seen (the whole orbit if a cycle was found)."""
        return frozenset(self.prefix)

    def cycle(self) -> tuple[int, ...]:
        if not isinstance(self.outcome, EnteredCycle):
            raise ValueError("orbit did not enter a cycle within fuel")
        return self.outcome.cycle

    def reaches(self, target: int) -> bool:
        return target in self.prefix


@dataclass(frozen=True)
class GCMap:
    """A piecewise-affine map given by residue-guarded branches at one modulus.

    Construction is lenient: semantic problems (overlapping guards, bad
    divisibility, ...) are reported by :meth:`validate`, not raised here, so
    the CLI can display every violation of a bad map file.
    """

    modulus: int
    branches: tuple[AffineBranch, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        if not self.branches:
            raise ValueError("a map needs at least one branch")
        norm = tuple(
            AffineBranch(br.index, br.guard.at_modulus(self.modulus), br.a, br.b, br.c)
            for br in self.branches
        )
        object.__setattr__(self, "branches", norm)
        # the branch owning each residue r mod modulus, or None where zero or
        # several guards hold r (the map is then not a partition there)
        owners: list[list[AffineBranch]] = [[] for _ in range(self.modulus)]
        for br in norm:
            for r in br.guard.residues:
                owners[r].append(br)
        object.__setattr__(
            self, "_branch_at", tuple(o[0] if len(o) == 1 else None for o in owners)
        )

    @property
    def k(self) -> int:
        return len(self.branches)

    def _not_a_partition(self, n: int) -> ValueError:
        hits = sum(1 for br in self.branches if n in br.guard)
        return ValueError(f"guards are not a partition at n={n}: {hits} branches match")

    def branch_of(self, n: int) -> AffineBranch:
        if not (type(n) is int and n >= 1):
            _check_positive(n)
        br = self._branch_at[n % self.modulus]
        if br is None:
            raise self._not_a_partition(n)
        return br

    def apply(self, n: int) -> int:
        # branch_of inlined: this is the hot scalar path, called millions of times
        if not (type(n) is int and n >= 1):
            _check_positive(n)
        br = self._branch_at[n % self.modulus]
        if br is None:
            raise self._not_a_partition(n)
        v, rem = divmod(br.a * n + br.b, br.c)
        if rem:
            br.image(n)  # raises the divisibility error
        if v < 1:
            raise DomainError(f"image of {n} is {v}, outside the positive integers")
        return v

    def preimage(self, n: int) -> set[int]:
        """Exactly {m >= 1 : apply(m) == n}; at most k elements under the bounded condition."""
        _check_positive(n)
        out = set()
        for br in self.branches:
            if br.a >= 1:
                m = br.preimage_of(n)
                if m is not None:
                    out.add(m)
            else:
                # constant branch: every guard member, if it has one, maps to b // c
                if not br.guard.is_empty() and br.b % br.c == 0 and br.b // br.c == n:
                    raise ValueError("constant branch has infinite preimage sets")
        return out

    def orbit(self, n: int, fuel: int) -> OrbitRecord:
        """Iterate at most ``fuel`` times; detect the first repeated value exactly."""
        _check_positive(n)
        _check_positive(fuel, "fuel")
        seen: dict[int, int] = {}
        prefix: list[int] = []
        v = n
        for _ in range(fuel + 1):
            if v in seen:
                i = seen[v]
                return OrbitRecord(n, tuple(prefix), EnteredCycle(i, tuple(prefix[i:])))
            seen[v] = len(prefix)
            prefix.append(v)
            if len(prefix) > fuel:
                break
            v = self.apply(v)
        return OrbitRecord(n, tuple(prefix), Inconclusive(fuel))

    def validate(self) -> CheckReport:
        """Check the partition, divisibility, positivity, and per-branch injectivity."""
        checks: list[CheckResult] = []

        cover: dict[int, list[int]] = {r: [] for r in range(self.modulus)}
        for br in self.branches:
            for r in br.guard.residues:
                cover[r].append(br.index)
        overlaps = {r: ix for r, ix in cover.items() if len(ix) > 1}
        missing = [r for r, ix in cover.items() if not ix]
        why = f"residue {min(overlaps)} in branches {overlaps[min(overlaps)]}" if overlaps else ""
        checks.append(CheckResult("partition-disjoint", not overlaps, why))
        why = f"residue {min(missing)} mod {self.modulus} uncovered" if missing else ""
        checks.append(CheckResult("partition-covers", not missing, why))

        for br in self.branches:
            L = math.lcm(self.modulus, br.c)
            residues = br.guard.at_modulus(L).residues
            bad = [r for r in residues if (br.a * r + br.b) % br.c != 0]
            why = f"residue {min(bad)} mod {L}: {br.a}*n+{br.b} not divisible by {br.c}" if bad else ""
            checks.append(CheckResult(f"divisibility-branch-{br.index}", not bad, why))
            if bad:
                continue
            # the image of each class's smallest positive member, r or L (a constant branch's is b // c)
            bad_pos = [r or L for r in residues if (br.a * (r or L) + br.b) // br.c < 1]
            why = f"image of {min(bad_pos)} is below 1" if bad_pos else ""
            checks.append(CheckResult(f"positivity-branch-{br.index}", not bad_pos, why))
            injective = br.a >= 1 or br.guard.is_empty()
            why = "" if injective else "constant branch is not injective on an infinite guard"
            checks.append(CheckResult(f"injectivity-branch-{br.index}", injective, why))

        return CheckReport(tuple(checks))


# --- map definition files -------------------------------------------------
#
# One JSON document per map:
#   {"modulus": 2,
#    "branches": [{"residues": [1], "a": 3, "b": 1, "c": 1},
#                 {"residues": [0], "a": 1, "b": 0, "c": 2}]}
# Unknown fields are rejected.

_MAP_FIELDS = {"modulus", "branches"}
_BRANCH_FIELDS = {"residues", "a", "b", "c"}

#: the most residues one table may hold: a map file's modulus and each
#: lcm(modulus, c), which ``validate`` walks, and a section's witnesses
_MAX_RESIDUES = 1 << 20


def _typed(value, kind: type, what: str):
    # bool is an int subclass, but true/false is never a valid number here
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


def map_from_dict(doc: dict) -> GCMap:
    unknown = set(_typed(doc, dict, "map")) - _MAP_FIELDS
    if unknown:
        raise ValueError(f"unknown map fields: {sorted(unknown)}")
    modulus = _typed(doc["modulus"], int, "modulus")
    if modulus < 1:
        raise ValueError("modulus must be a positive integer")
    if modulus > _MAX_RESIDUES:
        raise ValueError(f"modulus {modulus} is past the bound 2^20 on residue tables")
    branches = []
    for i, bdoc in enumerate(_typed(doc["branches"], list, "branches"), start=1):
        unknown = set(_typed(bdoc, dict, f"branch {i}")) - _BRANCH_FIELDS
        if unknown:
            raise ValueError(f"unknown branch fields: {sorted(unknown)}")
        residues = _typed(bdoc["residues"], list, f"branch {i} residues")
        guard = ResidueSet.of(modulus, [_typed(r, int, f"branch {i} residue") for r in residues])
        a, b, c = (_typed(bdoc[k], int, f"branch {i} field {k}") for k in "abc")
        branches.append(AffineBranch(i, guard, a, b, c))
        if (size := math.lcm(modulus, c)) > _MAX_RESIDUES:
            raise ValueError(
                f"branch {i}: lcm(modulus, c) = {size} is past the bound 2^20 on residue tables"
            )
    return GCMap(modulus, tuple(branches))


def map_to_dict(gcmap: GCMap) -> dict:
    return {
        "modulus": gcmap.modulus,
        "branches": [
            {"residues": sorted(br.guard.residues), "a": br.a, "b": br.b, "c": br.c}
            for br in gcmap.branches
        ],
    }


def load_map(path: str) -> GCMap:
    with open(path) as fh:
        return map_from_dict(json.load(fh))

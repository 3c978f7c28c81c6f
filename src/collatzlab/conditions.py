"""Decision procedures for the structural conditions on a branch partition.

Covers itinerary coding of orbits, aperiodicity of finite words, the
separating condition at a periodic point, exact residue-level images of
branch pieces, and the Cuntz-Krieger condition (both for the raw branch
partition and, witness-based, for first-return sections).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _member_test, _residues, return_times
from .gcmap import INCONCLUSIVE, PASS, VIOLATION, Inconclusive, Report, verdict
from .gcmap import GCMap, ResidueSet, _check_positive, section_sets


def itinerary(gcmap: GCMap, x: int, length: int) -> tuple[int, ...]:
    """The branch word of x over {1..k}: word[j] = index of the branch applied at
    f^(j-1)(x), for j = 1..length."""
    _check_positive(x)
    _check_positive(length, "length")
    word = []
    v = x
    for _ in range(length):
        br = gcmap.branch_of(v)
        word.append(br.index)
        v = br.image(v)
    return tuple(word)


def is_aperiodic(word: tuple[int, ...]) -> bool:
    """True iff the word differs from all of its nontrivial cyclic rotations."""
    w = tuple(word)
    n = len(w)
    return all(w[j:] + w[:j] != w for j in range(1, n))


@dataclass(frozen=True)
class SeparatingResult(Report):
    period: int
    word: tuple[int, ...]
    aperiodic: bool

    @property
    def status(self) -> int:
        return verdict(violation=not self.aperiodic)

    holds = Report.ok


def separating_condition(gcmap: GCMap, x: int, fuel: int) -> SeparatingResult | Inconclusive:
    """Find the minimal period n <= fuel of x and test its itinerary for aperiodicity.

    The orbit is saved at power-of-two steps (Brent, *BIT* 20, 1980).  Meeting
    the saved value again before x means the orbit entered a cycle that
    misses x, so no period exists and the fuel would run out: the result is
    ``Inconclusive(fuel)`` at once.
    """
    _check_positive(x)
    v = saved = x
    for n in range(1, fuel + 1):
        v = gcmap.apply(v)
        if v == x:
            word = itinerary(gcmap, x, n)
            return SeparatingResult(n, word, is_aperiodic(word))
        if v == saved:
            break
        if n & (n - 1) == 0:
            saved = v
    return Inconclusive(fuel)


# --- exact residue-level images ----------------------------------------------


class NotResidueRepresentable(ValueError):
    """The exact image is a residue set minus unabsorbable exceptional elements."""

    def __init__(self, message: str, exceptions: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.exceptions = exceptions


def _in_image(gcmap: GCMap, s: ResidueSet, target: int) -> bool:
    """Exact membership test: does some n >= 1 in s map to target?"""
    for br in gcmap.branches:
        if br.a >= 1:
            m = br.preimage_of(target)
            if m is not None and m in s:
                return True
    return False


def residue_image(gcmap: GCMap, s: ResidueSet) -> ResidueSet:
    """The exact image f({n >= 1 : n in s}) as a ResidueSet, when representable.

    Exceptions not covered by another branch make the image non-representable
    and the operation fails closed; use :func:`residue_image_exceptions` when
    a shifted set (classes minus finitely many values) is acceptable.
    """
    classes, missing = residue_image_exceptions(gcmap, s)
    if missing:
        raise NotResidueRepresentable(
            f"image misses elements {missing[:10]} of its residue classes", missing
        )
    return classes


def residue_image_exceptions(gcmap: GCMap, s: ResidueSet) -> tuple[ResidueSet, tuple[int, ...]]:
    """The exact image f({n >= 1 : n in s}) as residue classes plus punctures.

    Each guard residue r (at the refined modulus lcm(M, s.modulus, c))
    contributes the arithmetic progression {(a*r0+b)/c + t*(a*L/c) : t >= 0}
    starting at the smallest positive class member r0.  When the progression
    starts above its own period, the positive class members below the start
    are exceptions; those not produced by another branch are returned as the
    punctures of the image.
    """
    if s.is_empty():
        raise ValueError("residue_image of an empty set")
    pieces: list[tuple[int, int]] = []  # (start value v0, period D): class v0 mod D from v0 up
    for br in gcmap.branches:
        L = math.lcm(gcmap.modulus, s.modulus, br.c)
        # filtered, not lifted: the guard lifted to L can pass the 2^20 bound where s does not
        guard = {r for r in s.at_modulus(L).residues if r in br.guard}
        for r in guard:
            r0 = r if r >= 1 else L
            if (br.a * r0 + br.b) % br.c != 0:
                raise ArithmeticError(f"branch {br.index} not divisible on residue {r0} mod {L}")
            if br.a == 0:
                raise NotResidueRepresentable(
                    f"constant branch {br.index} has a finite image", (br.b // br.c,)
                )
            v0 = (br.a * r0 + br.b) // br.c
            D = br.a * L // br.c
            pieces.append((v0, D))

    G = math.lcm(*(D for _, D in pieces))
    residues: set[int] = set()
    exceptions: set[int] = set()
    for v0, D in pieces:
        for j in range(G // D):
            residues.add((v0 + j * D) % G)
        e = v0 - D
        while e >= 1:
            exceptions.add(e)
            e -= D
    # an exceptional element is harmless if some other piece really produces it
    uncovered = tuple(sorted(e for e in exceptions if not _in_image(gcmap, s, e)))
    return ResidueSet(G, frozenset(residues)).reduce(), uncovered


# --- Cuntz-Krieger condition ---------------------------------------------------


@dataclass(frozen=True)
class CKMatrix:
    """k x k 0/1 matrix; rows are source classes j, columns target classes i."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.rows)
        for row in self.rows:
            if len(row) != k:
                raise ValueError("matrix must be square")
            if any(e not in (0, 1) for e in row):
                raise ValueError("entries must be 0 or 1")
            if not any(row):
                raise ValueError("no row may be zero")

    @property
    def k(self) -> int:
        return len(self.rows)

    def as_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


@dataclass(frozen=True)
class CKViolation:
    branch: int
    witness: int
    reason: str


def cuntz_krieger_condition(gcmap: GCMap) -> tuple[bool, CKMatrix | CKViolation]:
    """Check surjectivity and that each f(X_j) is exactly a union of guard classes.

    On success returns A with A(j,i) = 1 iff X_i is contained in f(X_j).
    """
    images: list[ResidueSet] = []
    for br in gcmap.branches:
        try:
            images.append(residue_image(gcmap, br.guard))
        except NotResidueRepresentable as err:
            return False, CKViolation(
                br.index, err.exceptions[0], f"f(X_{br.index}) is not a union of classes: {err}"
            )

    rows: list[tuple[int, ...]] = []
    for j, (br, img) in enumerate(zip(gcmap.branches, images)):
        row = []
        for other in gcmap.branches:
            inter = other.guard.intersection(img)
            if inter.is_empty():
                row.append(0)
            elif other.guard.same_set(inter):
                row.append(1)
            else:
                # partial overlap: f(X_j) is not a union of classes
                inside = inter.min_member()
                outside = other.guard.at_modulus(inter.modulus)
                missing = ResidueSet(
                    inter.modulus, outside.residues - inter.at_modulus(inter.modulus).residues
                )
                return False, CKViolation(
                    br.index,
                    missing.min_member(),
                    f"f(X_{br.index}) contains {inside} but not {missing.min_member()} "
                    f"from the same class X_{other.index}",
                )
        rows.append(tuple(row))

    union = images[0]
    for img in images[1:]:
        union = union.union(img)
    if not union.same_set(ResidueSet.full()):
        full = ResidueSet.full().at_modulus(union.modulus)
        missing = ResidueSet(union.modulus, full.residues - union.at_modulus(union.modulus).residues)
        return False, CKViolation(0, missing.min_member(), "f is not surjective")

    return True, CKMatrix(tuple(rows))


# --- witness-based Cuntz-Krieger condition for first-return sections -----------


@dataclass(frozen=True)
class WitnessTable:
    """Surjectivity witnesses: residue class of the section -> power-of-two exponent.

    Entry r -> kappa asserts that 2^kappa * n lies in N2 for every section
    member n ≡ r (mod modulus), with all intermediate doublings outside the
    section (so that P(2^kappa * n) = n).
    """

    modulus: int
    exponents: dict[int, int]

    def tiles(self, values: np.ndarray, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Which int64 section values s have s * 2^kappa(s) <= hi, and those products.
        Tested as s <= hi >> kappa, so no shift leaves int64; ValueError off the table."""
        kappa = np.full(self.modulus, -1, dtype=np.int64)  # -1: a class with no exponent
        kappa[list(self.exponents)] = list(self.exponents.values())
        kappa = kappa[_residues(values, self.modulus)]
        if (kappa < 0).any():
            raise ValueError(f"{values[np.argmax(kappa < 0)]} is in no witness class mod {self.modulus}")
        inside = values <= (hi >> np.minimum(kappa, 63))
        return inside, values[inside] << kappa[inside]

    def bases(self, e: int) -> list[int]:
        """The section-class values n with n * 2^kappa(n) = e, in ascending exponent."""
        return [
            e >> j for j in range(1, e.bit_length())
            if e % (1 << j) == 0 and self.exponents.get((e >> j) % self.modulus) == j
        ]

    def climb(self, e: int, sigma) -> int:
        """The first value 2^j * e, j >= 0, in sigma, by jumps v <<= kappa(v) from e itself.
        Under a proved table each jump lands in N2 or on a larger puncture."""
        v = e
        while v not in sigma:
            v <<= self.exponents[v % self.modulus]
        return v


@dataclass(frozen=True)
class SectionCKReport(Report):
    status: int
    matrix: CKMatrix | None
    verdict_kind: str  # "witnessed" on success: symbolic + witness + empirical evidence
    detail: str = ""

    passed = Report.ok

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "matrix": self.matrix.as_lists() if self.matrix else None,
            "verdict_kind": self.verdict_kind,
            "detail": self.detail,
        }


def ck_for_section(
    gcmap: GCMap,
    n1: ResidueSet,
    n2: ResidueSet,
    witnesses: WitnessTable,
    window: int,
    fuel: int,
    removed: frozenset[int] = frozenset(),
) -> SectionCKReport:
    """Establish the Cuntz-Krieger condition for the first-return system on N1 ∪ N2.

    Three ingredients, mirroring the case analysis of the source dynamics:
    (a) P(N1) = N2 symbolically, as a single affine step at the residue level;
    (b) P(N2) = N1 ∪ N2 via the power-of-two multiplier witnesses: the
        supplied table must equal the one :func:`halving_witnesses` proves on
        residues (minimal exponents into N2, every even n halved by f);
    (c) empirical injectivity of P|N2 and membership of P values on the window.
    The verdict is labeled "witnessed", not symbolically proved: P has no
    uniform return time, so (b)+(c) stand in for a closed-form argument.
    ``fuel`` bounds the first returns of (c) only; one that runs out of fuel
    makes the verdict inconclusive, unless a violation is found elsewhere.
    So does a window with no section label, where (c) checks nothing.  A
    window or fuel below 1 checks nothing either, so it raises DomainError.

    ``removed`` lists the punctures of N2 when it is a shifted set (classes
    minus finitely many small values).  A witness endpoint that is a puncture
    climbs by further witness jumps (:meth:`WitnessTable.climb`), and the
    value it reaches must lie in N2.

    Two inputs that a walk over every doubling of every witness residue would
    accept fail (b): a table at a multiple of the derived modulus, and a map
    whose n/2 branch owns only the even classes that the doubling chains visit.
    """
    _check_positive(window, "window")
    _check_positive(fuel, "fuel")
    fail = lambda msg: SectionCKReport(VIOLATION, None, "failed", msg)

    # (a) symbolic: one application of f sends N1 exactly onto N2 (with punctures)
    try:
        img, exc = residue_image_exceptions(gcmap, n1)
    except NotResidueRepresentable as err:
        return fail(f"f(N1) not residue-representable: {err}")
    if not img.same_set(n2):
        return fail("f(N1) != N2 at the residue level")
    if frozenset(exc) != frozenset(removed):
        return fail(f"image punctures {sorted(exc)} do not match declared {sorted(removed)}")
    n2_set, sigma_set = section_sets(n1, n2, removed)

    # (b) witnesses: the supplied table is the proved one
    try:
        proved = halving_witnesses(gcmap, n1, n2)
    except ValueError as err:
        return fail(str(err))
    if witnesses.modulus != proved.modulus:
        return fail(f"witness modulus {witnesses.modulus}, derived is {proved.modulus}")
    have, want = witnesses.exponents, proved.exponents
    wrong = sorted(r for r in have.keys() | want.keys() if have.get(r) != want.get(r))
    if wrong:
        r = wrong[0]
        minimal = f"minimal is {want[r]}" if r in want else "not a section residue"
        return fail(f"residue {r}: exponent {have.get(r, 'missing')}, {minimal}")
    # punctured witness endpoints: 2^kappa * n is a removed value for finitely
    # many n; each of those climbs on to its own preimage, which must be in N2
    for e in sorted(removed):
        n = next((n for n in proved.bases(e) if n in sigma_set), None)
        if n is not None and (v := proved.climb(e, sigma_set)) not in n2_set:
            return fail(f"punctured witness {n}: doubling re-enters via {v} outside N2")

    # (c) empirical: P on the window; the first failing label is reported
    members = np.arange(1, window + 1, dtype=np.int64)
    members = members[_member_test(sigma_set)(members)]
    if not len(members):
        return SectionCKReport(INCONCLUSIVE, None, "inconclusive", f"no section label in [1, {window}]: (c) checks nothing")
    value, _, unknown = return_times(gcmap, sigma_set, members, fuel)
    in_n1 = _member_test(n1)(members)
    # N1 must return into N2 and N2 into sigma, each N2 label to a value no earlier one took
    stray = ~unknown & np.where(in_n1, ~_member_test(n2_set)(value), ~_member_test(sigma_set)(value))
    to_n2 = np.flatnonzero(~unknown & ~in_n1 & ~stray)
    again = np.zeros(len(members), dtype=bool)
    again[to_n2] = True
    again[to_n2[np.unique(value[to_n2], return_index=True)[1]]] = False
    bad = np.flatnonzero(stray | again)
    if len(bad):
        i = bad[0]
        n, v = int(members[i]), int(value[i])
        if again[i]:
            return fail(f"P|N2 collision: P({members[to_n2[value[to_n2] == v][0]]}) = P({n}) = {v}")
        if in_n1[i]:
            return fail(f"P({n}) = {v} with {n} in N1 but value outside N2")
        return fail(f"P({n}) = {v} outside the section")
    undecided = members[unknown].tolist()
    # empirical surjectivity through the witnesses, within the window
    inside, m = witnesses.tiles(members, window)
    s, keep = members[inside], _member_test(sigma_set)(m)
    s, m = s[keep], m[keep]
    j = np.searchsorted(members, m)  # each such m is a member
    wrong = np.flatnonzero(~unknown[j] & (value[j] != s))
    if len(wrong):
        i = wrong[0]
        return fail(f"witness failure: P({int(m[i])}) = {int(value[j[i]])}, expected {int(s[i])}")
    undecided += m[unknown[j]].tolist()

    if undecided:
        detail = f"{len(undecided)} first returns undecided within fuel {fuel}, from {undecided[0]}"
        return SectionCKReport(INCONCLUSIVE, None, "inconclusive", detail)
    return SectionCKReport(PASS, CKMatrix(((0, 1), (1, 1))), "witnessed")


def halving_witnesses(gcmap: GCMap, n1: ResidueSet, n2: ResidueSet) -> WitnessTable:
    """The doubling witnesses of a section, proved: P(2^kappa(s) * s) = s unless that tile is a puncture.

    :func:`derive_witnesses` gives each section class its minimal exponent
    into N2 with every doubling before it outside the section, and the map's
    n/2 branch, owning every even residue, halves each tile straight back to
    s.  Raises ValueError naming the reason when there is no n/2 branch,
    another branch owns an even residue, or some class never doubles into N2.
    """
    m = gcmap.modulus
    halving = next((br for br in gcmap.branches if (br.a, br.b, br.c) == (1, 0, 2)), None)
    if halving is None:
        raise ValueError("map has no n/2 branch; witness descent undefined")
    unhalved = [r % m for r in range(0, 2 * m, 2) if gcmap._branch_at[r % m] is not halving]
    if unhalved:
        raise ValueError(f"even residue {min(unhalved)} mod {m} is not on the n/2 branch")
    return derive_witnesses(n1, n2)


def derive_witnesses(n1: ResidueSet, n2: ResidueSet) -> WitnessTable:
    """Enumerate minimal power-of-two exponents per section residue class.

    The doubling chain of a residue mod ``mw`` runs through residues outside
    the section until it meets the section, or repeats without meeting it.
    Chains merge, so each residue's outcome is kept (the doublings it needs
    to reach N2, or a code for a chain that re-enters the section outside N2
    or never meets it) and every residue mod ``mw`` is walked at most once.
    """
    sigma = n1.union(n2)
    mw = math.lcm(sigma.modulus, n2.modulus)
    sig = sigma.at_modulus(mw).residues
    n2r = n2.at_modulus(mw).residues
    reenters, never = -1, -2
    doublings: dict[int, int] = {}  # residue -> doublings until N2, or a code
    table: dict[int, int] = {}
    for r in sig:
        path, seen, v = [r], {r}, (2 * r) % mw
        while not (v in sig or v in doublings or v in seen):
            path.append(v)
            seen.add(v)
            v = (2 * v) % mw
        if v in n2r:
            k = 1
        elif v in sig:
            k = reenters
        elif v in doublings:
            k = doublings[v] + (doublings[v] > 0)
        else:
            k = never  # the chain cycles outside the section
        for u in reversed(path):
            doublings[u] = k
            k += k > 0
        if doublings[r] == reenters:
            raise ValueError(f"residue {r} mod {mw}: doubling re-enters the section before N2")
        if doublings[r] == never:
            raise ValueError(f"residue {r} mod {mw}: no power of two lands in N2")
        table[r] = doublings[r]
    return WitnessTable(mw, table)

"""Preset map families, their first-return sections, and modular identities.

Every section is built one way: N1 is a set of residue classes, N2 the exact
residue image f(N1), and the witnesses give, per residue class of the
section, the minimal doubling exponent landing back in N2.  All qx+1 maps,
collatz and mersenne:<k> among them, share one N1 recipe (``section_qx1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conditions import WitnessTable, derive_witnesses, residue_image_exceptions
from .gcmap import (
    AffineBranch,
    CheckReport,
    CheckResult,
    GCMap,
    PuncturedResidueSet,
    ResidueSet,
    section_sets,
)


# --- map families -----------------------------------------------------------


def collatz() -> GCMap:
    """n -> 3n+1 on odds (branch 1), n -> n/2 on evens (branch 2)."""
    return qx1(3)


def qx1(q: int) -> GCMap:
    """n -> qn+1 on odds, n -> n/2 on evens; q odd >= 3."""
    if q < 3 or q % 2 == 0:
        raise ValueError("q must be an odd integer >= 3")
    return GCMap(
        2,
        (
            AffineBranch(1, ResidueSet.of(2, [1]), q, 1, 1),
            AffineBranch(2, ResidueSet.of(2, [0]), 1, 0, 2),
        ),
    )


def three_x_d(d: int) -> GCMap:
    """n -> 3n+d on odds, n -> n/2 on evens; d odd >= 1."""
    if d < 1 or d % 2 == 0:
        raise ValueError("d must be an odd integer >= 1")
    return GCMap(
        2,
        (
            AffineBranch(1, ResidueSet.of(2, [1]), 3, d, 1),
            AffineBranch(2, ResidueSet.of(2, [0]), 1, 0, 2),
        ),
    )


def mersenne(k: int) -> GCMap:
    """The qx+1 map at q = 2^k - 1."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return qx1(2**k - 1)


def identity_map() -> GCMap:
    return GCMap(1, (AffineBranch(1, ResidueSet.full(), 1, 0, 1),))


# --- sections ----------------------------------------------------------------


@dataclass(frozen=True)
class Section:
    """A first-return section N1 ∪ N2 with its doubling witnesses.

    ``n2`` gives the residue classes of N2 = f(N1); ``n2_removed`` lists the
    finitely many class members that f(N1) misses when N2 is a shifted set
    (e.g. the value 2 for the 3x+5 map).
    """

    map: GCMap
    n1: ResidueSet
    n2: ResidueSet
    witnesses: WitnessTable
    n2_removed: frozenset[int] = frozenset()

    @property
    def n2_set(self) -> ResidueSet | PuncturedResidueSet:
        return section_sets(self.n1, self.n2, self.n2_removed)[0]

    @property
    def sigma(self) -> ResidueSet | PuncturedResidueSet:
        return section_sets(self.n1, self.n2, self.n2_removed)[1]


def _make_section(gcmap: GCMap, n1: ResidueSet) -> Section:
    """N2 = f(N1) and derived witnesses; KeyError when some class never doubles into N2."""
    n2, removed = residue_image_exceptions(gcmap, n1)
    try:
        witnesses = derive_witnesses(n1, n2)
    except ValueError as exc:
        raise KeyError(str(exc)) from None
    return Section(gcmap, n1, n2, witnesses, frozenset(removed))


def section_qx1(q: int) -> Section:
    """N1 = the odd n whose residue mod q^2 is a power of 2, at its smallest modulus.

    For q = 3 and 5 these are the odds coprime to q; for q = 2^k - 1, the odds
    congruent to a power of 2 mod q.  The recipe yields a section exactly
    when ord_{q^2}(2) = q * ord_q(2), as checked for every odd q <= 201: it
    fails at 21, 39, 55, 57, 105, 111, 147, 155, 165, 171, 183, 195 and 201,
    and at the Wieferich primes 1093 and 3511.  There some class never
    doubles into N2, and this raises KeyError.
    """
    gcmap = qx1(q)  # rejects a bad q: the loop below needs 2 invertible mod q^2
    m = q * q
    powers, v = [1], 2
    while v != 1:
        powers.append(v)
        v = 2 * v % m
    # the odd lift mod 2m of each power (m is odd)
    n1 = ResidueSet.of(2 * m, [p if p % 2 else p + m for p in powers]).reduce()
    return _make_section(gcmap, n1)


def section_3xd(d: int) -> Section:
    """For d odd with 3-adic valuation k: N1 = {3^k, 5*3^k} (mod 6*3^k)."""
    gcmap = three_x_d(d)  # rejects a bad d before the loop below can spin on it
    p = 1
    while d % (3 * p) == 0:
        p *= 3
    return _make_section(gcmap, ResidueSet.of(6 * p, [p, 5 * p]))


# --- preset references ---------------------------------------------------------


def preset_map(ref: str) -> GCMap:
    """Resolve a preset name (collatz, identity, qx1:<q>, 3xd:<d>, mersenne:<k>)."""
    if ref == "collatz":
        return collatz()
    if ref == "identity":
        return identity_map()
    kind, _, arg = ref.partition(":")
    if arg:
        n = int(arg)
        if kind == "qx1":
            return qx1(n)
        if kind == "3xd":
            return three_x_d(n)
        if kind == "mersenne":
            return mersenne(n)
    raise KeyError(f"unknown map preset {ref!r}")


def preset_section(ref: str) -> Section:
    """The section of a preset: collatz, qx1:<q> and mersenne:<k> by ``section_qx1``,
    3xd:<d> by ``section_3xd``.  Every map without one raises KeyError naming why."""
    no_section = f"no first-return section preset for {ref!r}"
    kind = ref.partition(":")[0]
    if kind not in ("collatz", "qx1", "mersenne", "3xd"):
        raise KeyError(no_section)
    odd = preset_map(ref).branches[0]  # n -> a*n + b on odd n
    try:
        return section_3xd(odd.b) if kind == "3xd" else section_qx1(odd.a)
    except KeyError as exc:
        raise KeyError(f"{no_section}: {exc.args[0]}") from None


# --- modular identities behind the Mersenne sections ------------------------------


def verify_mersenne_identities(k: int) -> CheckReport:
    """The arithmetic mod 2q^2 (q = 2^k - 1) that organizes the Mersenne section:

    - (1+q)^(1+q) ≡ 1+q,
    - (1+q)^l pairwise distinct for 1 <= l <= q,
    - {(1+q)^l : 1 <= l <= q} = {1 + (2j-1)q : 1 <= j <= q},
    - 2(1+q)^(2m) ≡ 2 + 4mq for all m (checked over two full periods).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    q = 2**k - 1
    m = 2 * q * q
    u = (1 + q) % m
    checks = []

    lhs = pow(u, 1 + q, m)
    checks.append(
        CheckResult("(1+q)^(1+q) = 1+q mod 2q^2", lhs == u, f"got {lhs}, expected {u}")
    )

    powers = [pow(u, l, m) for l in range(1, q + 1)]
    checks.append(
        CheckResult(
            "(1+q)^l distinct for 1<=l<=q",
            len(set(powers)) == q,
            f"{len(set(powers))} distinct of {q}",
        )
    )

    odd_multiples = {(1 + (2 * j - 1) * q) % m for j in range(1, q + 1)}
    checks.append(
        CheckResult(
            "{(1+q)^l} = {1+(2j-1)q} mod 2q^2",
            set(powers) == odd_multiples,
            "",
        )
    )

    bad = [
        t for t in range(0, 2 * q + 1) if (2 * pow(u, 2 * t, m)) % m != (2 + 4 * t * q) % m
    ]
    checks.append(
        CheckResult(
            "2(1+q)^(2m) = 2+4mq mod 2q^2",
            not bad,
            f"failing m: {bad[:5]}" if bad else "",
        )
    )
    return CheckReport(tuple(checks))


def verify_q5_group() -> CheckReport:
    """The group facts behind the q = 5 section: 2 has order 20 mod 25, and its
    powers mod 50 sweep exactly the classes n with gcd(n, 10) = 2."""
    target = {n for n in range(50) if math.gcd(n, 10) == 2}
    powers = {pow(2, kappa, 50) for kappa in range(1, 21)}
    order = next(t for t in range(1, 21) if pow(2, t, 25) == 1)
    return CheckReport(
        (
            CheckResult(
                "{2^kappa mod 50 : 1<=kappa<=20} = {n : gcd(n,10)=2}",
                powers == target,
                f"powers {sorted(powers)}" if powers != target else "",
            ),
            CheckResult("ord(2 mod 25) = 20", order == 20, f"got {order}"),
        )
    )

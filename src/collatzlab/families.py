"""Preset map families, their first-return sections, and modular identities.

Every section is built one way, by ``section_of``, from the shape of the map
alone (n -> a*n + b on odds, n -> n/2 on evens, at any modulus), so presets
and map files get the same section: N1 is a set of residue classes, N2 the
exact residue image f(N1), and the witnesses give, per residue class of the
section, the minimal doubling exponent landing back in N2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .conditions import WitnessTable, derive_witnesses, residue_image_exceptions
from .dynamics import _odd_even_shape
from .gcmap import (
    AffineBranch,
    CheckReport,
    CheckResult,
    GCMap,
    PuncturedResidueSet,
    ResidueSet,
    _MAX_RESIDUES,
    section_sets,
)


# --- map families -----------------------------------------------------------


def collatz() -> GCMap:
    """n -> 3n+1 on odds (branch 1), n -> n/2 on evens (branch 2)."""
    return qx1(3)


def _odd_even(a: int, b: int) -> GCMap:
    """n -> a*n + b on odds (branch 1), n -> n/2 on evens (branch 2)."""
    return GCMap(
        2,
        (
            AffineBranch(1, ResidueSet.of(2, [1]), a, b, 1),
            AffineBranch(2, ResidueSet.of(2, [0]), 1, 0, 2),
        ),
    )


def qx1(q: int) -> GCMap:
    """n -> qn+1 on odds, n -> n/2 on evens; q odd >= 3."""
    if q < 3 or q % 2 == 0:
        raise ValueError("q must be an odd integer >= 3")
    return _odd_even(q, 1)


def three_x_d(d: int) -> GCMap:
    """n -> 3n+d on odds, n -> n/2 on evens; d odd >= 1."""
    if d < 1 or d % 2 == 0:
        raise ValueError("d must be an odd integer >= 1")
    return _odd_even(3, d)


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

    @functools.cached_property
    def sigma(self) -> ResidueSet | PuncturedResidueSet:
        return section_sets(self.n1, self.n2, self.n2_removed)[1]


@functools.lru_cache(maxsize=64)
def section_of(gcmap: GCMap) -> Section:
    """The first-return section of a map n -> a*n + b on odd n, n -> n/2 on even n.

    The map may be given at any even modulus (``_odd_even_shape``).  N1 is b
    times the odd n whose residue mod a is a power of 2, taken mod g*M1: M1 is
    the smallest modulus of those odd n, and g the part of b made of primes
    dividing a.  This is a section exactly when ord_{a^2}(2) equals
    a * ord_a(2), that is, with 2^o = 1 + a*t for o = ord_a(2), when
    gcd(t, a) = 1.  That holds for a = 3, 5 and every Mersenne a, and fails at
    a = 21, 39, 55, 57, ... and at the Wieferich primes 1093 and 3511.  The
    witnesses span o * (a + 1) residues; past 2^20 (qx1:10007) none is built.
    Every other map raises KeyError naming why.  Built once per map (the
    last 64 are kept): equal maps share one.
    """
    a, b = _odd_even_shape(gcmap)
    powers = [1]
    while (v := 2 * powers[-1] % a) != 1:
        powers.append(v)
        if (size := len(powers) * (a + 1)) > _MAX_RESIDUES:  # at the witness modulus
            raise KeyError(f"ord(2 mod {a}) * {a + 1} >= {size:,} residues, past the bound 2^20")
    o = len(powers)
    lift = math.gcd((pow(2, o, a * a) - 1) // a, a)  # gcd(t, a)
    if lift != 1:
        raise KeyError(
            f"the order of 2 does not lift: ord(2 mod {a * a}) = {a * o // lift}, "
            f"not {a} * ord(2 mod {a}) = {a * o}"
        )
    # the odd lift mod 2a of each power (a is odd), at its smallest modulus, times b
    base = ResidueSet.of(2 * a, [p if p % 2 else p + a for p in powers]).reduce()
    g = math.gcd(b, a ** b.bit_length())  # no prime's exponent in b reaches b's bit length
    n1 = ResidueSet.of(g * base.modulus, [b * r for r in base.residues])
    n2, removed = residue_image_exceptions(gcmap, n1)
    try:
        witnesses = derive_witnesses(n1, n2)
    except ValueError as exc:  # some class never doubles into N2
        raise KeyError(str(exc)) from None
    return Section(gcmap, n1, n2, witnesses, frozenset(removed))


# --- preset references ---------------------------------------------------------


@functools.lru_cache(maxsize=64)
def preset_map(ref: str) -> GCMap:
    """Resolve a preset name (collatz, identity, qx1:<q>, 3xd:<d>, mersenne:<k>), one map per name."""
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
    """The section of a preset's map by :func:`section_of`; KeyError naming why there is none."""
    try:
        return section_of(preset_map(ref))
    except KeyError as exc:
        raise KeyError(f"no first-return section preset for {ref!r}: {exc.args[0]}") from None


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
    if q > _MAX_RESIDUES:  # the checks list q powers
        raise ValueError(f"q = 2^{k} - 1 is past the bound 2^20 on residue tables")
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

"""Preset families, section data, and the modular identities behind them."""

from __future__ import annotations

import pytest

from collatzlab import (
    BasisWindow,
    DomainError,
    ResidueSet,
    build_section_ops,
    collatz,
    identity_map,
    mersenne,
    preset_map,
    preset_section,
    qx1,
    section_of,
    three_x_d,
    verify_mersenne_identities,
    verify_q5_group,
)
from collatzlab.gcmap import section_sets
from preimage_oracle import PreimageSearch, first_return


def n2_set(sec):
    """N2 as a point set: its classes less the punctures f(N1) misses."""
    return section_sets(sec.n1, sec.n2, sec.n2_removed)[0]


# --- maps -------------------------------------------------------------------


@pytest.mark.parametrize(
    "ref", ["collatz", "identity", "qx1:5", "qx1:7", "3xd:1", "3xd:9", "mersenne:3", "mersenne:6"]
)
def test_every_preset_validates(ref):
    assert preset_map(ref).validate().ok


def test_collatz_is_3x1():
    m = collatz()
    assert m.apply(1) == 4 and m.apply(4) == 2
    assert m == qx1(3) == three_x_d(1)


def test_preset_rejections():
    with pytest.raises(ValueError):
        qx1(4)
    with pytest.raises(ValueError):
        three_x_d(2)
    with pytest.raises(ValueError):
        mersenne(1)
    with pytest.raises(KeyError):
        preset_map("nonsense")
    with pytest.raises(KeyError):
        section_of(qx1(21))
    with pytest.raises(KeyError):
        preset_section("identity")


def test_mersenne_is_qx1():
    assert mersenne(3) == qx1(7)
    assert mersenne(4) == qx1(15)  # q need not be prime


# --- sections -----------------------------------------------------------------


def test_section_collatz_sets():
    sec = preset_section("collatz")
    assert sec.n1.same_set(ResidueSet.of(6, [1, 5]))
    assert sec.n2.same_set(ResidueSet.of(18, [4, 16]))
    assert not sec.n2_removed


def test_section_q5_sets():
    sec = section_of(qx1(5))
    assert sec.n1.same_set(ResidueSet.of(10, [1, 3, 7, 9]))
    assert sec.n2.same_set(ResidueSet.of(50, [6, 16, 36, 46]))
    assert 13 in sec.n1
    assert sec.map.apply(1) == 6 and 6 in sec.n2
    # image containment on a window
    for n in sec.n1.members(1, 10**4):
        assert sec.map.apply(n) in sec.n2


def test_section_mersenne_k3():
    sec = preset_section("mersenne:3")
    assert 1 in sec.n1  # 2*1 = 2^1 (mod 98)
    # {n ≡ 1 (mod 2q)} is contained in N1
    assert all(n in sec.n1 for n in range(1, 1000, 14))
    # membership is exactly the power-of-two condition
    q = 7
    powers = {pow(2, l, 2 * q * q) for l in range(1, 200)}
    for n in range(1, 2 * q * q, 2):
        assert (n in sec.n1) == ((2 * n) % (2 * q * q) in powers)


def test_section_3xd_sets():
    assert section_of(three_x_d(9)).n1.same_set(ResidueSet.of(54, [9, 45]))
    assert 5 in section_of(three_x_d(5)).n1
    a, b = section_of(three_x_d(1)), preset_section("collatz")
    assert a.n1.same_set(b.n1) and a.n2.same_set(b.n2)


def test_section_3x5_puncture():
    sec = section_of(three_x_d(5))
    assert sec.n2_removed == frozenset({2})
    assert 2 not in n2_set(sec) and 20 in n2_set(sec)
    assert 2 not in sec.sigma
    # 8 = f(1) is the smallest N2 member
    assert n2_set(sec).min_member() == 8


def test_3x5_puncture_reaches_every_consumer():
    # 2 is in the class 2 mod 18 of N2, but no n in N1 maps to it; without the
    # puncture 2 would be a section point with P(2) = 1
    sec = section_of(three_x_d(5))
    assert first_return(sec.map, sec.sigma.classes, 2, 100) == 1
    with pytest.raises(DomainError):
        first_return(sec.map, sec.sigma, 2, 100)
    win = BasisWindow(tuple(sec.sigma.members(1, 50)) + (2,))
    with pytest.raises(DomainError, match="window element 2 "):
        build_section_ops(sec.map, sec.n1, sec.n2, win, 10**4, n2_removed=sec.n2_removed)
    assert 2 in PreimageSearch(sec.map, sec.sigma.classes).preimages(1)
    search = PreimageSearch(sec.map, sec.sigma)
    rows = [search.preimages(r) for r in sec.sigma.members(1, 2000)]
    assert all(pre is not None and 2 not in pre for pre in rows)
    # the closed-form rows: 1's tile 2 is the puncture, and 8 halves through it to 1
    ops = build_section_ops(
        sec.map, sec.n1, sec.n2, BasisWindow.section(sec.sigma, 50), 10**4, n2_removed=sec.n2_removed
    )
    assert ops.t2.adjoint().cols[1] == {8: 1} and 1 in ops.t2.exact_rows


def test_sigma_members_are_consistent():
    for ref in ("collatz", "qx1:5", "mersenne:4", "3xd:5"):
        sec = preset_section(ref)
        n2 = n2_set(sec)
        for n in sec.sigma.members(1, 500):
            assert (n in sec.n1) or (n in n2)


# --- modular identities ------------------------------------------------------------


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_mersenne_identities(k):
    rep = verify_mersenne_identities(k)
    assert rep.ok, [c.name for c in rep.checks if not c.passed]


def test_mersenne_identity_k3_values():
    assert pow(8, 8, 98) == 8
    assert len({pow(8, l, 98) for l in range(1, 8)}) == 7


def test_q5_group():
    rep = verify_q5_group()
    assert rep.ok
    left = {n for n in range(50) if __import__("math").gcd(n, 10) == 2}
    assert len(left) == 20


def test_witness_tables_cover_section():
    for ref in ("collatz", "qx1:5", "mersenne:3", "3xd:9"):
        sec = preset_section(ref)
        mw = sec.witnesses.modulus
        sigma = sec.n1.union(sec.n2)
        assert set(sec.witnesses.exponents) == set(sigma.at_modulus(mw).residues)

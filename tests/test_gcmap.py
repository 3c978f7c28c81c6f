"""Core map machinery: residue sets, branches, orbits, validation, map files."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab import (
    AffineBranch,
    DomainError,
    EnteredCycle,
    GCMap,
    Inconclusive,
    PuncturedResidueSet,
    ResidueSet,
    collatz,
    load_map,
    map_from_dict,
    map_to_dict,
    qx1,
)


# --- residue sets ------------------------------------------------------------


def test_residue_set_membership():
    odds = ResidueSet.of(2, [1])
    assert 7 in odds and 8 not in odds
    assert list(odds.members(1, 10)) == [1, 3, 5, 7, 9]
    assert odds.min_member() == 1


def test_residue_set_reduce():
    # {1,5,7,11,13,17 mod 18} is 6-periodic
    s = ResidueSet.of(18, [1, 5, 7, 11, 13, 17])
    r = s.reduce()
    assert r.modulus == 6 and r.residues == frozenset({1, 5})
    assert s.same_set(r)


def test_residue_set_at_modulus_and_union():
    n1 = ResidueSet.of(6, [1, 5])
    n2 = ResidueSet.of(18, [4, 16])
    sigma = n1.union(n2)
    assert sigma.modulus == 18
    assert sigma.residues == frozenset({1, 5, 7, 11, 13, 17, 4, 16})
    with pytest.raises(ValueError):
        n2.at_modulus(20)


def test_punctured_residue_set():
    classes = ResidueSet.of(18, [2, 8])
    p = PuncturedResidueSet(classes, frozenset({2}))
    assert 2 not in p and 20 in p and 8 in p
    assert p.min_member() == 8
    assert list(p.members(1, 40)) == [8, 20, 26, 38]
    with pytest.raises(ValueError):
        PuncturedResidueSet(classes, frozenset({3}))  # 3 is not in the classes


@given(st.integers(1, 60), st.integers(1, 1000))
def test_residue_reduce_preserves_membership(modulus, n):
    s = ResidueSet.of(modulus, range(0, modulus, 2))
    assert (n in s) == (n in s.reduce())


# --- branches -----------------------------------------------------------------


def test_branch_image_and_preimage():
    br = AffineBranch(1, ResidueSet.of(2, [1]), 3, 1, 1)
    assert br.image(5) == 16
    assert br.preimage_of(16) == 5
    assert br.preimage_of(10) == 3
    assert br.preimage_of(4) == 1
    assert br.preimage_of(7) is None  # (7-1)/3 = 2 is even, outside the guard


def test_constant_branch_preimage():
    # a constant branch with an empty guard (a valid map) has no preimage at
    # all; with a member in its guard its value has infinitely many
    halve = AffineBranch(2, ResidueSet.of(2, [0]), 1, 0, 2)
    triple = AffineBranch(1, ResidueSet.of(2, [1]), 3, 1, 1)
    empty = GCMap(2, (triple, halve, AffineBranch(3, ResidueSet.of(2, []), 0, 6, 2)))
    assert empty.validate().ok
    assert empty.preimage(3) == {6}
    assert [empty.preimage(n) for n in (1, 2, 4)] == [{2}, {4}, {8, 1}]
    const = GCMap(2, (AffineBranch(1, ResidueSet.of(2, [1]), 0, 6, 2), halve))
    assert const.preimage(4) == {8}
    with pytest.raises(ValueError, match="constant branch has infinite preimage sets"):
        const.preimage(3)


@given(st.integers(1, 10**6))
def test_preimage_apply_round_trip(n):
    m = collatz()
    for p in m.preimage(n):
        assert m.apply(p) == n
    v = m.apply(n)
    assert n in m.preimage(v)


# --- map application and orbits ---------------------------------------------------


def test_apply_collatz():
    m = collatz()
    assert m.apply(1) == 4
    assert m.apply(6) == 3
    assert m.apply(7) == 22
    with pytest.raises(DomainError):
        m.apply(0)


def test_orbit_enters_cycle():
    m = collatz()
    rec = m.orbit(6, 100)
    assert rec.prefix == (6, 3, 10, 5, 16, 8, 4, 2, 1)
    assert isinstance(rec.outcome, EnteredCycle)
    assert rec.outcome.entry_index == 6
    assert rec.outcome.cycle == (4, 2, 1)
    assert rec.reaches(1) and not rec.reaches(7)


def test_orbit_fuel_exhaustion_is_an_outcome():
    m = collatz()
    rec = m.orbit(27, 5)
    assert isinstance(rec.outcome, Inconclusive)
    assert len(rec.prefix) == 6  # start plus five applications


def test_orbit_periodic_point():
    m = qx1(5)
    rec = m.orbit(1, 100)
    assert isinstance(rec.outcome, EnteredCycle)
    assert rec.outcome.entry_index == 0
    assert set(rec.outcome.cycle) == {1, 6, 3, 16, 8, 4, 2}


@given(st.integers(1, 10**4), st.integers(1, 200))
@settings(max_examples=50)
def test_orbit_deterministic_and_prefix_consistent(n, fuel):
    m = collatz()
    rec = m.orbit(n, fuel)
    for a, b in zip(rec.prefix, rec.prefix[1:]):
        assert m.apply(a) == b
    assert m.orbit(n, fuel) == rec


# --- validation ------------------------------------------------------------------


def test_validate_collatz_ok():
    rep = collatz().validate()
    assert rep.ok and not rep.failures()


def test_validate_detects_overlap_and_gap():
    overlap = GCMap(
        2,
        (
            AffineBranch(1, ResidueSet.of(2, [0, 1]), 3, 1, 1),
            AffineBranch(2, ResidueSet.of(2, [0]), 1, 0, 2),
        ),
    )
    rep = overlap.validate()
    assert not rep.ok
    assert any("disjoint" in c.name for c in rep.failures())

    gap = GCMap(2, (AffineBranch(1, ResidueSet.of(2, [1]), 3, 1, 1),))
    rep = gap.validate()
    assert any("covers" in c.name for c in rep.failures())


def test_validate_detects_bad_divisibility():
    bad = GCMap(
        2,
        (
            AffineBranch(1, ResidueSet.of(2, [1]), 1, 0, 2),  # odd/2 is not integral
            AffineBranch(2, ResidueSet.of(2, [0]), 1, 0, 2),
        ),
    )
    rep = bad.validate()
    assert any("divisibility" in c.name for c in rep.failures())


def test_validate_detects_positivity():
    bad = GCMap(
        2,
        (
            AffineBranch(1, ResidueSet.of(2, [1]), 1, -1, 2),  # sends 1 to 0
            AffineBranch(2, ResidueSet.of(2, [0]), 1, 0, 2),
        ),
    )
    rep = bad.validate()
    assert any("positivity" in c.name for c in rep.failures())


# --- map definition files -----------------------------------------------------------


def test_map_file_round_trip(tmp_path):
    m = collatz()
    d = map_to_dict(m)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(d))
    m2 = load_map(str(path))
    assert m2 == m


def test_map_file_rejects_unknown_fields():
    with pytest.raises(ValueError):
        map_from_dict({"modulus": 2, "branches": [], "extra": 1})
    with pytest.raises(ValueError):
        map_from_dict(
            {
                "modulus": 2,
                "branches": [{"residues": [1], "a": 3, "b": 1, "c": 1, "junk": 0}],
            }
        )


@pytest.mark.parametrize(
    "path, value",
    [
        (("modulus",), "2"),
        (("modulus",), True),
        (("modulus",), 0),
        (("branches", 0, "a"), "3"),
        (("branches", 0, "b"), 1.0),
        (("branches", 0, "c"), True),
        (("branches", 0, "residues"), ["1"]),
        (("branches", 0, "residues"), [False]),
    ],
    ids=[
        "modulus-str", "modulus-bool", "modulus-zero", "a-str", "b-float", "c-bool",
        "residue-str", "residue-bool",
    ],
)
def test_map_file_rejects_bad_numbers(path, value):
    doc = map_to_dict(collatz())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError):
        map_from_dict(doc)

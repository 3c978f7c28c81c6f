"""Itineraries, the separating condition, residue images, Cuntz-Krieger checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab import (
    INCONCLUSIVE,
    CKMatrix,
    CKViolation,
    DomainError,
    Inconclusive,
    NotResidueRepresentable,
    ResidueSet,
    SeparatingResult,
    WitnessTable,
    ck_for_section,
    collatz,
    cuntz_krieger_condition,
    derive_witnesses,
    identity_map,
    is_aperiodic,
    itinerary,
    mersenne,
    preset_map,
    preset_section,
    qx1,
    residue_image,
    residue_image_exceptions,
    separating_condition,
    three_x_d,
)


# --- itineraries and aperiodicity ------------------------------------------------


def test_itinerary_collatz():
    w = itinerary(collatz(), 1, 6)
    assert tuple(w) == (1, 2, 2, 1, 2, 2)


def test_is_aperiodic():
    assert is_aperiodic((1, 2, 2))
    assert not is_aperiodic((1, 2, 1, 2))
    assert is_aperiodic((1,))
    assert not is_aperiodic((2, 2))


@given(st.lists(st.integers(1, 2), min_size=1, max_size=10))
def test_is_aperiodic_matches_rotation_bruteforce(word):
    w = tuple(word)
    brute = all(w != w[r:] + w[:r] for r in range(1, len(w)))
    assert is_aperiodic(w) == brute


# --- separating condition ----------------------------------------------------------


def test_separating_tuples_match_expected():
    cases = [
        (collatz(), 1, (1, 2, 2)),
        (qx1(5), 1, (1, 2, 1, 2, 2, 2, 2)),
        (mersenne(3), 1, (1, 2, 2, 2)),
        (mersenne(4), 1, (1, 2, 2, 2, 2)),
        (mersenne(5), 1, (1, 2, 2, 2, 2, 2)),
        (three_x_d(1), 1, (1, 2, 2)),
        (three_x_d(3), 3, (1, 2, 2)),
        (three_x_d(5), 5, (1, 2, 2)),
        (three_x_d(9), 9, (1, 2, 2)),
    ]
    for gcmap, x, expected in cases:
        res = separating_condition(gcmap, x, 1000)
        assert isinstance(res, SeparatingResult)
        assert res.period == len(expected)
        assert tuple(res.word) == expected
        assert res.aperiodic and res.holds


def test_separating_not_periodic():
    res = separating_condition(collatz(), 3, 1000)  # 3 is not periodic
    assert isinstance(res, Inconclusive) and res.status == INCONCLUSIVE


def test_separating_identity_word_is_trivially_periodic():
    res = separating_condition(identity_map(), 7, 10)
    assert isinstance(res, SeparatingResult)
    assert res.period == 1 and res.aperiodic


PRESETS = (
    "collatz", "identity", "qx1:5", "qx1:7", "mersenne:3", "mersenne:4", "mersenne:5",
    "3xd:1", "3xd:3", "3xd:5", "3xd:9",
)


def plain_separating_condition(gcmap, x, fuel):
    """Step x's orbit until it comes back to x or the fuel runs out: the oracle."""
    v = x
    for n in range(1, fuel + 1):
        v = gcmap.apply(v)
        if v == x:
            word = itinerary(gcmap, x, n)
            return SeparatingResult(n, word, is_aperiodic(word))
    return Inconclusive(fuel)


@pytest.mark.parametrize("ref", PRESETS)
def test_separating_condition_matches_the_plain_loop(ref):
    gcmap = preset_map(ref)
    for x in range(1, 201):
        assert separating_condition(gcmap, x, 300) == plain_separating_condition(gcmap, x, 300), x


def test_separating_condition_stops_on_a_cycle_that_misses_x(monkeypatch):
    # under 3x+9, 1 -> 12 -> 6 -> 3 -> 18 enters the cycle (18, 9, 36): 1 never comes back
    gcmap, calls = three_x_d(9), []
    apply = type(gcmap).apply
    monkeypatch.setattr(type(gcmap), "apply", lambda self, n: calls.append(n) or apply(self, n))
    assert separating_condition(gcmap, 1, 10**4) == Inconclusive(10**4)
    assert 0 < len(calls) < 100


# --- residue images ---------------------------------------------------------------


def test_residue_image_collatz_odds():
    img = residue_image(collatz(), ResidueSet.of(2, [1]))
    assert img.modulus == 6 and img.residues == frozenset({4})


def test_residue_image_collatz_evens_is_everything():
    img = residue_image(collatz(), ResidueSet.of(2, [0]))
    assert img.modulus == 1


def test_residue_image_n1_gives_n2():
    img = residue_image(collatz(), ResidueSet.of(6, [1, 5]))
    assert img.same_set(ResidueSet.of(18, [4, 16]))


def test_residue_image_exceptions_3x5():
    # f(N1) for 3x+5 misses the value 2 of its residue classes
    classes, removed = residue_image_exceptions(three_x_d(5), ResidueSet.of(6, [1, 5]))
    assert classes.same_set(ResidueSet.of(18, [2, 8]))
    assert removed == (2,)
    with pytest.raises(NotResidueRepresentable):
        residue_image(three_x_d(5), ResidueSet.of(6, [1, 5]))


@given(st.integers(1, 3000))
@settings(max_examples=80)
def test_residue_image_soundness_and_completeness(n):
    m = qx1(5)
    odds = ResidueSet.of(2, [1])
    img = residue_image(m, odds)
    # soundness: every image value is in img; completeness on a window:
    # membership in img implies an odd preimage exists
    if n % 2 == 1:
        assert m.apply(n) in img
    if n in img:
        assert any(m.apply(p) == n for p in m.preimage(n))


# --- Cuntz-Krieger, partition level ---------------------------------------------------


def test_ck_matrix_validation():
    with pytest.raises(ValueError):
        CKMatrix(((0, 0), (1, 1)))  # zero row
    with pytest.raises(ValueError):
        CKMatrix(((2,),))  # not 0/1
    a = CKMatrix(((0, 1), (1, 1)))
    assert a.k == 2


def test_ck_partition_collatz_fails_with_witness():
    ok, detail = cuntz_krieger_condition(collatz())
    assert not ok
    assert isinstance(detail, CKViolation)
    assert detail.branch == 1 and detail.witness == 2


def test_ck_partition_identity():
    ok, matrix = cuntz_krieger_condition(identity_map())
    assert ok and matrix.as_lists() == [[1]]


# --- Cuntz-Krieger for sections ---------------------------------------------------------


@pytest.mark.parametrize(
    "ref",
    ["collatz", "qx1:5", "mersenne:3", "mersenne:4", "mersenne:5", "3xd:1", "3xd:3", "3xd:5", "3xd:9"],
)
def test_ck_for_section_presets(ref):
    sec = preset_section(ref)
    rep = ck_for_section(
        sec.map, sec.n1, sec.n2, sec.witnesses, 2000, 10**5, removed=sec.n2_removed
    )
    assert rep.passed, rep.detail
    assert rep.matrix.as_lists() == [[0, 1], [1, 1]]
    assert rep.verdict_kind == "witnessed"


@pytest.mark.parametrize("ref", ["collatz", "qx1:5", "3xd:5"])
def test_ck_for_section_out_of_fuel_is_inconclusive(ref):
    sec = preset_section(ref)
    rep = ck_for_section(sec.map, sec.n1, sec.n2, sec.witnesses, 1000, 3, removed=sec.n2_removed)
    assert rep.status == INCONCLUSIVE and rep.verdict_kind == "inconclusive"
    assert not rep.passed and rep.matrix is None


def test_ck_for_section_with_no_label_in_the_window_is_inconclusive():
    # sigma of 3xd:9 starts at 9: at window 8, part (c) has no label to check
    sec = preset_section("3xd:9")
    rep = ck_for_section(sec.map, sec.n1, sec.n2, sec.witnesses, 8, 10, removed=sec.n2_removed)
    assert rep.status == INCONCLUSIVE and rep.verdict_kind == "inconclusive"
    assert not rep.passed and rep.matrix is None and "no section label in [1, 8]" in rep.detail
    assert ck_for_section(sec.map, sec.n1, sec.n2, sec.witnesses, 9, 10, removed=sec.n2_removed).passed


@pytest.mark.parametrize("window, fuel", [(0, 10), (-5, 10), (100, 0)])
def test_ck_for_section_refuses_a_window_or_fuel_below_1(window, fuel):
    # a window of no label or no fuel checks nothing, so it cannot be "witnessed"
    sec = preset_section("collatz")
    with pytest.raises(DomainError):
        ck_for_section(sec.map, sec.n1, sec.n2, sec.witnesses, window, fuel, removed=sec.n2_removed)


def test_collatz_witnesses_match_derived():
    sec = preset_section("collatz")
    derived = derive_witnesses(sec.n1, sec.n2)
    assert derived.modulus == sec.witnesses.modulus
    assert derived.exponents == sec.witnesses.exponents


def test_ck_for_section_rejects_nonminimal_witness():
    sec = preset_section("collatz")
    bad = dict(sec.witnesses.exponents)
    bad[11] = 2  # 2n already lands in N2 for n ≡ 11 (mod 18); 4n is not minimal
    rep = ck_for_section(
        sec.map, sec.n1, sec.n2, WitnessTable(18, bad), 2000, 10**5
    )
    assert not rep.passed and rep.detail == "residue 11: exponent 2, minimal is 1"


def test_ck_for_section_rejects_wrong_n2():
    sec = preset_section("collatz")
    wrong = ResidueSet.of(18, [4, 10])
    rep = ck_for_section(sec.map, sec.n1, wrong, sec.witnesses, 2000, 10**5)
    assert not rep.passed


def test_derive_witnesses_minimality():
    sec = preset_section("qx1:5")
    table = derive_witnesses(sec.n1, sec.n2)
    mw = table.modulus
    n2r = sec.n2.at_modulus(mw).residues
    for r, kappa in table.exponents.items():
        assert (r * pow(2, kappa)) % mw in n2r
        for j in range(1, kappa):
            assert (r * pow(2, j)) % mw not in n2r

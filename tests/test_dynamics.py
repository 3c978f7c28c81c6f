"""Orbit equivalence, window classes, first returns, reduction checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab import (
    DomainError,
    Inconclusive,
    Related,
    Unrelated,
    check_reduction_necessary,
    check_reduction_sufficient,
    classes,
    collatz,
    equivalent,
    identity_map,
    preset_section,
    qx1,
    return_time,
    three_x_d,
)
import collatzlab.dynamics as dynamics
from collatzlab.dynamics import SectionReturn
from collatzlab.gcmap import INCONCLUSIVE, GCMap, ResidueSet


# --- equivalence -------------------------------------------------------------


def test_equivalent_minimizes_meet():
    # 5 appears at index 0 of orb(5) and index 4 of orb(13): (k+l, k) = (4, 0)
    v = equivalent(collatz(), 5, 13, 1000)
    assert v == Related(k=0, l=4, meet=5)


def test_equivalent_reflexive_and_symmetric():
    m = collatz()
    assert equivalent(m, 27, 27, 1000) == Related(0, 0, 27)
    a = equivalent(m, 6, 40, 1000)
    b = equivalent(m, 40, 6, 1000)
    assert isinstance(a, Related) and isinstance(b, Related)
    assert (a.k, a.l, a.meet) == (b.l, b.k, b.meet)


def test_equivalent_unrelated_needs_both_cycles():
    f5 = qx1(5)
    v = equivalent(f5, 1, 13, 10**4)
    assert isinstance(v, Unrelated)
    assert set(v.cycle_x) == {1, 6, 3, 16, 8, 4, 2}
    assert set(v.cycle_y) == {13, 66, 33, 166, 83, 416, 208, 104, 52, 26}


def test_equivalent_inconclusive_on_fuel():
    v = equivalent(collatz(), 27, 31, 3)
    assert isinstance(v, Inconclusive)


@given(st.integers(1, 500), st.integers(1, 500))
@settings(max_examples=60)
def test_equivalent_symmetry_property(x, y):
    m = collatz()
    a, b = equivalent(m, x, y, 500), equivalent(m, y, x, 500)
    if isinstance(a, Related):
        assert isinstance(b, Related)
        assert (a.k + a.l, a.meet) == (b.k + b.l, b.meet)
    else:
        assert type(a) is type(b)


# --- window classes ---------------------------------------------------------------


def test_classes_collatz_single_class():
    rep = classes(collatz(), 100, 10**4)
    assert rep.num_classes == 1
    assert not rep.flagged
    assert rep.class_of(27) == rep.class_of(1) == 1


def test_classes_qx1_5_splits():
    rep = classes(qx1(5), 50, 10**4)
    assert rep.class_of(1) != rep.class_of(13)
    assert rep.class_of(1) == rep.class_of(2) and rep.class_of(13) == rep.class_of(26)


def test_classes_identity_all_singletons():
    rep = classes(identity_map(), 64, 10)
    assert rep.num_classes == 64
    assert sorted((len(v) for v in rep.classes().values()), reverse=True) == [1] * 64


@pytest.mark.parametrize("fuel", [0, -5])
def test_classes_rejects_fuel_below_one(fuel):
    with pytest.raises(DomainError, match=f"fuel must be a positive integer, got {fuel}"):
        classes(collatz(), 10, fuel)
    with pytest.raises(DomainError, match="fuel must be a positive integer"):
        equivalent(collatz(), 5, 7, fuel)


def test_classes_interior_only_flags_excursions():
    rep = classes(collatz(), 10, 1)  # fuel 1: n joins f(n) only inside the window
    # 7 -> 22 leaves the window, so 7 cannot merge with its successor
    assert 7 in rep.flagged


# --- first-return maps ----------------------------------------------------------


def test_return_time_collatz():
    sigma = ResidueSet.of(6, [1, 5]).union(ResidueSet.of(18, [4, 16]))
    m = collatz()
    r = return_time(m, sigma, 1, 100)
    assert (r.tau, r.value) == (1, 4)
    r = return_time(m, sigma, 16, 100)
    assert (r.tau, r.value) == (2, 4)
    with pytest.raises(DomainError):
        return_time(m, sigma, 2, 100)


def p_orbit(gcmap, sigma, x, fuel) -> list[int]:
    """The orbit of x under the first-return map P, up to its first repeat."""
    orbit = [x]
    while (v := return_time(gcmap, sigma, orbit[-1], fuel).value) not in orbit:
        orbit.append(v)
    return orbit


def test_first_return_orbit_and_equivalence():
    sec = preset_section("collatz")
    assert p_orbit(sec.map, sec.sigma, 1, 1000) == [1, 4]
    # 5 and 7 are f-equivalent, and their P-orbits meet
    assert isinstance(equivalent(sec.map, 5, 7, 10**4), Related)
    assert set(p_orbit(sec.map, sec.sigma, 5, 10**4)) & set(p_orbit(sec.map, sec.sigma, 7, 10**4))


def test_first_return_apply_matches_stepping():
    sec = preset_section("collatz")
    for n in sec.sigma.members(1, 500):
        v = return_time(sec.map, sec.sigma, n, 10**4).value
        # recompute by raw stepping
        w = sec.map.apply(n)
        while w not in sec.sigma:
            w = sec.map.apply(w)
        assert v == w


# --- reduction checks ----------------------------------------------------------------


def test_reduction_sufficient_q5():
    sec = preset_section("qx1:5")
    rep = check_reduction_sufficient(sec.map, sec.sigma, 10**3, 10**4)
    assert rep.passed and not rep.inconclusive


def test_reduction_necessary_3xd5():
    sec = preset_section("3xd:5")
    # d = 5 is periodic: 5 -> 20 -> 10 -> 5
    rec = sec.map.orbit(5, 100)
    assert rec.outcome.entry_index == 0 and set(rec.outcome.cycle) == {5, 20, 10}
    rep = check_reduction_necessary(sec.map, sec.sigma, 5, 10**4)
    assert rep.passed, rep.detail


def test_reduction_necessary_reports_a_wrong_first_return(monkeypatch):
    # negative control: a first return that goes back to x0 at once hides 20
    sec = preset_section("3xd:5")
    monkeypatch.setattr(dynamics, "return_time", lambda g, s, x, fuel: SectionReturn(1, 5))
    rep = check_reduction_necessary(sec.map, sec.sigma, 5, 10**4)
    assert rep.failures == (5,) and rep.detail == "orb(x0;P)=[5] != orb(x0;f) ∩ sigma=[5, 20]"


def test_reduction_necessary_needs_fuel_for_one_period():
    # the P-orbit of a periodic x0 spends exactly the f-period, 3 at x0 = 5:
    # fuel for one period passes, one step less leaves the f-orbit open
    sec = preset_section("3xd:5")
    assert check_reduction_necessary(sec.map, sec.sigma, 5, 3).passed
    rep = check_reduction_necessary(sec.map, sec.sigma, 5, 2)
    assert rep.inconclusive == (5,) and rep.detail == "orbit of 5 does not close within fuel"
    assert rep.status == INCONCLUSIVE


def test_reduction_necessary_mersenne():
    sec = preset_section("mersenne:3")
    rep = check_reduction_necessary(sec.map, sec.sigma, 1, 10**4)
    assert rep.passed, rep.detail


def test_reduction_sufficient_empty_section_fails():
    rep = check_reduction_sufficient(collatz(), ResidueSet.empty(6), 10, 100)
    assert not rep.passed


@pytest.mark.parametrize("window", [2**63, 10**20])
@pytest.mark.parametrize("sigma", [preset_section("collatz").sigma, ResidueSet.empty(6)], ids=["odd", "empty"])
def test_reduction_sufficient_refuses_a_window_past_int64(monkeypatch, sigma, window):
    # before its first start: the scalar loop would not end, and the empty
    # section would list every start
    monkeypatch.setattr(GCMap, "apply", lambda *_: pytest.fail("a map step was taken"))
    with pytest.raises(OverflowError, match=f"window {window} would leave int64"):
        check_reduction_sufficient(collatz(), sigma, window, 100)


@pytest.mark.parametrize("window, fuel", [(0, 100), (-5, 100), (10, 0)])
def test_reduction_sufficient_refuses_a_window_or_fuel_below_1(window, fuel):
    # no start or no step checks nothing, so it cannot pass
    sec = preset_section("collatz")
    with pytest.raises(DomainError):
        check_reduction_sufficient(sec.map, sec.sigma, window, fuel)

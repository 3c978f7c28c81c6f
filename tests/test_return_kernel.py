"""The array first-return kernel against the exact scalar path.

``return_times`` must agree lane by lane with ``return_time``, and every read
of a ``classes`` report (representatives, ``class_of``, the grouped classes,
their number, the flagged labels) with the union-find partition it replaced,
copied below as the oracle.  Maps come from the presets and from hypothesis; an
overflow guard lowered far below int64 makes the call rerun on the scalar
path, and on maps that ``validate()`` rejects both paths must raise the same
exception.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab import DomainError, Inconclusive, classes, return_time
from collatzlab import dynamics
from collatzlab.dynamics import return_times
from collatzlab.families import preset_map, preset_section
from collatzlab.gcmap import AffineBranch, GCMap, PuncturedResidueSet, ResidueSet

SECTIONS = ("collatz", "qx1:5", "mersenne:3", "mersenne:4", "mersenne:5", "3xd:1", "3xd:3", "3xd:5", "3xd:9")
FUELS = (1, 2, 3, 10**4)
WINDOWS = (1, 2, 500, 3000)


# --- the scalar oracles -------------------------------------------------------------


class UnionFind:
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


def scalar_classes(
    gcmap: GCMap, window: int, fuel: int, interior_only: bool = False
) -> tuple[dict[int, int], frozenset[int]]:
    """The scalar union-find ``classes`` that the array kernel replaced: the
    least member of each label's class, and the flagged labels."""
    uf = UnionFind(window)
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
    return {n: uf.find(n) for n in range(1, window + 1)}, frozenset(flagged)


def assert_same_returns(gcmap, sigma, xs, fuel) -> None:
    value, tau, undecided = return_times(gcmap, sigma, xs, fuel)
    got = list(zip(value.tolist(), tau.tolist(), undecided.tolist()))
    want = []
    for x in xs:
        r = return_time(gcmap, sigma, x, fuel)
        want.append((0, 0, True) if isinstance(r, Inconclusive) else (r.value, r.tau, False))
    assert got == want


def assert_same_classes(gcmap, window, fuel, interior_only) -> None:
    got = classes(gcmap, window, fuel, interior_only)
    rep, flagged = scalar_classes(gcmap, window, fuel, interior_only)
    grouped: dict[int, list[int]] = {}
    for n, r in rep.items():
        grouped.setdefault(r, []).append(n)
    assert got.window == window
    assert got.representative == rep
    assert [got.class_of(n) for n in rep] == list(rep.values())
    assert list(got.classes().items()) == sorted(grouped.items())
    assert got.num_classes == len(grouped)
    assert got.flagged == flagged


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


# --- presets ----------------------------------------------------------------------------


@pytest.mark.parametrize("fuel", FUELS)
@pytest.mark.parametrize("ref", SECTIONS)
def test_kernel_matches_scalar_on_preset_sections(ref, fuel):
    sec = preset_section(ref)
    assert_same_returns(sec.map, sec.sigma, list(sec.sigma.members(1, 3000)), fuel)


def test_the_puncture_of_3xd_5_is_not_a_return():
    sec = preset_section("3xd:5")
    assert isinstance(sec.sigma, PuncturedResidueSet) and 2 in sec.sigma.classes
    xs = list(sec.sigma.members(1, 3000))
    value, tau, _ = return_times(sec.map, sec.sigma, xs, 10**4)
    value_classes, tau_classes, _ = return_times(sec.map, sec.sigma.classes, xs, 10**4)
    assert 2 not in value.tolist()
    # 8 -> 4 -> 2 -> 1: past the puncture the return takes one more step
    i = xs.index(8)
    assert (value_classes[i], tau_classes[i], value[i], tau[i]) == (2, 2, 1, 3)
    assert_same_returns(sec.map, sec.sigma, xs, 10**4)
    assert_same_returns(sec.map, sec.sigma.classes, xs, 10**4)
    assert raised(lambda: return_times(sec.map, sec.sigma, [1, 2], 5)) == raised(
        lambda: return_time(sec.map, sec.sigma, 2, 5)
    )


@pytest.mark.parametrize("interior_only", [False, True])
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("ref", ["collatz", "identity", "3xd:1", "3xd:3", "3xd:5", "3xd:9"])
def test_classes_match_union_find_on_presets(ref, window, interior_only):
    for fuel in FUELS:
        assert_same_classes(preset_map(ref), window, fuel, interior_only)


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("ref", ["qx1:5", "mersenne:3", "mersenne:5"])
def test_classes_match_union_find_on_divergent_presets(ref, window):
    # orbits of these maps grow without bound, so the oracle stays at small fuel
    for fuel in (1, 2, 3, 40):
        assert_same_classes(preset_map(ref), window, fuel, False)


# --- hypothesis maps -----------------------------------------------------------------------


@st.composite
def maps(draw, contracting: bool) -> GCMap:
    """A valid map with one branch per residue r mod m: n -> (a*n + b) / c with c | m,
    so c divides a*n + b on the whole class.  Contracting maps have a < c (or are the
    identity on a class), so their orbits stay bounded."""
    m = draw(st.integers(1, 6))
    branches = []
    for r in range(m):
        c = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        if contracting and c == 1:
            a, b = 1, 0
        else:
            a = draw(st.integers(1, c - 1 if contracting else 3 * c))
            b = (-a * r) % c + c * draw(st.integers(0, 2))
        branches.append(AffineBranch(r + 1, ResidueSet.of(m, [r]), a, b, c))
    return GCMap(m, tuple(branches))


@st.composite
def map_and_fuel(draw):
    """Any map at fuel 1-3, or a contracting one at any fuel (10^4 steps of a growing
    orbit would cost the scalar oracle seconds)."""
    fuel = draw(st.sampled_from(FUELS))
    return draw(maps(contracting=fuel > 3)), fuel


@st.composite
def sections(draw):
    modulus = draw(st.integers(1, 12))
    classes_ = ResidueSet.of(modulus, draw(st.sets(st.integers(0, modulus - 1), min_size=1)))
    small = list(classes_.members(1, 30))
    removed = draw(st.sets(st.sampled_from(small), max_size=2)) if small else set()
    return PuncturedResidueSet(classes_, frozenset(removed)) if removed else classes_


@given(map_and_fuel(), st.sampled_from(WINDOWS), st.booleans())
@settings(max_examples=60, deadline=None)
def test_classes_match_union_find_on_random_maps(mf, window, interior_only):
    gcmap, fuel = mf
    assert_same_classes(gcmap, window, fuel, interior_only)


@given(map_and_fuel(), sections(), st.sampled_from(WINDOWS))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_scalar_on_random_maps(mf, sigma, window):
    gcmap, fuel = mf
    assert_same_returns(gcmap, sigma, list(sigma.members(1, window)), fuel)
    assert_same_returns(gcmap, range(1, window + 1), list(range(1, window + 1)), fuel)


# --- the overflow guard ---------------------------------------------------------------------


@pytest.fixture
def low_guard(monkeypatch):
    """int64 lowered to 10^4, and a log of the calls that reran on the scalar path."""
    monkeypatch.setattr(dynamics, "_INT64_MAX", 10**4)
    reran = []
    scalar = dynamics._scalar_returns

    def logged(*args):
        reran.append(args)
        return scalar(*args)

    monkeypatch.setattr(dynamics, "_scalar_returns", logged)
    return reran


@pytest.mark.parametrize("fuel", FUELS)
def test_guard_reruns_the_call_exactly(low_guard, fuel):
    for ref in ("collatz", "qx1:5", "3xd:5"):
        sec = preset_section(ref)
        xs = list(sec.sigma.members(1, 3000))
        low_guard.clear()
        return_times(sec.map, sec.sigma, xs, fuel)
        if ref == "qx1:5":
            # the window starts past the guard (10^4 - 1) // 5
            assert low_guard
        assert_same_returns(sec.map, sec.sigma, xs, fuel)


@pytest.mark.parametrize("interior_only", [False, True])
@pytest.mark.parametrize("fuel", FUELS)
def test_guard_in_classes(low_guard, fuel, interior_only):
    assert_same_classes(preset_map("collatz"), 3000, fuel, interior_only)
    # 3x+1 takes the window past the guard (10^4 - 1) // 3 at the first step
    assert low_guard


def test_returns_beyond_int64_stay_exact():
    gcmap = GCMap(1, (AffineBranch(1, ResidueSet.full(), 2**40, 1, 1),))
    odd = ResidueSet.of(2, [1])
    xs = [1, 3, 2**23 + 1, 2**30 + 1]
    value, tau, undecided = return_times(gcmap, odd, xs, 5)
    assert value.tolist() == [2**40 * x + 1 for x in xs] and tau.tolist() == [1] * 4
    assert value.dtype == object and not undecided.any()
    assert_same_returns(gcmap, odd, xs, 5)


# --- the scalar path: what the tables cannot step -----------------------------------------------


def _map(modulus, *branches):
    return GCMap(modulus, tuple(AffineBranch(i, ResidueSet.of(modulus, res), a, b, c)
                                for i, (res, a, b, c) in enumerate(branches, start=1)))


INVALID = {
    "overlap": _map(2, ([1], 3, 1, 1), ([0, 1], 1, 0, 2)),
    "gap": _map(4, ([0, 2], 1, 0, 2), ([1], 3, 1, 1)),
    "divisibility": _map(2, ([1], 3, 1, 4), ([0], 1, 0, 2)),
    "positivity": _map(2, ([1], 3, 1, 1), ([0], 1, -4, 2)),
}


@pytest.mark.parametrize("low", [False, True])
@pytest.mark.parametrize("kind", sorted(INVALID))
def test_invalid_maps_raise_as_the_scalar_path(kind, low, monkeypatch):
    gcmap = INVALID[kind]
    assert not gcmap.validate().ok
    if low:
        monkeypatch.setattr(dynamics, "_INT64_MAX", 10**3)
    for sigma in (range(1, 301), ResidueSet.of(6, [1, 5])):
        xs = list(sigma) if isinstance(sigma, range) else list(sigma.members(1, 300))
        want = raised(lambda: [return_time(gcmap, sigma, x, 50) for x in xs])
        assert raised(lambda: return_times(gcmap, sigma, xs, 50)) == want
    for interior_only in (False, True):
        want = raised(lambda: scalar_classes(gcmap, 300, 50, interior_only))
        assert raised(lambda: classes(gcmap, 300, 50, interior_only)) == want


def test_scalar_path_inputs():
    big = GCMap(2, (AffineBranch(1, ResidueSet.of(2, [1]), 2**64 + 1, 1, 2),
                    AffineBranch(2, ResidueSet.of(2, [0]), 1, 0, 2)))
    sigma = ResidueSet.of(6, [1, 5])
    xs = list(sigma.members(1, 100))
    assert_same_returns(big, sigma, xs, 5)  # a coefficient beyond int64
    collatz = preset_map("collatz")
    assert_same_returns(collatz, {1, 2, 4, 8, 16}, [1, 2, 4, 8, 16], 100)  # a plain set
    assert_same_returns(collatz, range(5, 40), list(range(5, 40)), 100)  # a window not from 1
    for xs in ([1, 3, 2], [0, 1]):  # a start outside the section, and one below 1
        want = raised(lambda: [return_time(collatz, sigma, x, 10) for x in xs])
        assert raised(lambda: return_times(collatz, sigma, xs, 10)) == want
    assert [a.tolist() for a in return_times(collatz, sigma, [], 10)] == [[], [], []]
    assert raised(lambda: return_times(collatz, sigma, [2], 10))[0] is DomainError


def test_member_test_takes_exact_ints_beyond_int64():
    # a scalar rerun can return values past int64 in an object array, and
    # the section checks then test them against sigma
    for sigma in (ResidueSet.of(18, [4, 16]), PuncturedResidueSet(ResidueSet.of(18, [2, 8]), frozenset({2}))):
        values = [2, 4, 8, 20, 2**70 + 4, 2**70 + 6, 2**90 + 8]
        got = dynamics._member_test(sigma)(np.array(values, dtype=object))
        assert got.tolist() == [v in sigma for v in values]

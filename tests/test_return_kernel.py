"""The array first-return kernel against the exact scalar path.

``return_times`` must agree lane by lane with ``return_time``, and every read
of a ``classes`` report (the least member of each class, ``class_of``, the
grouped classes, their number, the flagged labels) with the union-find
partition it replaced, copied below as the oracle; at fuel 1 that is the
oracle's interior-only partition.  Maps come from the presets and from
hypothesis.  An overflow guard lowered far below int64 sends lanes off the int64 frontier
to finish on exact ints, k steps at a time through the jump tables on a
window, and each jump table entry is checked against k scalar steps.  On maps
that ``validate()`` rejects, and on a coefficient past int64, the lanes finish
on exact ints and raise what the scalar path raises.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab import DomainError, Inconclusive, classes, return_time
from collatzlab import dynamics
from collatzlab.dynamics import return_times
from collatzlab.families import _odd_even, preset_map, preset_section
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


def scalar_lanes(gcmap, sigma, xs, fuel) -> list[tuple[int, int, bool]]:
    """(value, tau, undecided) of each start through the scalar ``return_time``."""
    want = []
    for x in xs:
        r = return_time(gcmap, sigma, x, fuel)
        want.append((0, 0, True) if isinstance(r, Inconclusive) else (r.value, r.tau, False))
    return want


def assert_same_returns(gcmap, sigma, xs, fuel, oracle=scalar_lanes) -> None:
    value, tau, undecided = return_times(gcmap, sigma, xs, fuel)
    got = list(zip(value.tolist(), tau.tolist(), undecided.tolist()))
    assert got == oracle(gcmap, sigma, tuple(xs), fuel)


def assert_same_classes(gcmap, window, fuel, interior_only) -> None:
    """``classes`` at ``fuel``, or at fuel 1 for the oracle's ``interior_only``."""
    got = classes(gcmap, window, 1 if interior_only else fuel)
    rep, flagged = scalar_classes(gcmap, window, fuel, interior_only)
    grouped: dict[int, list[int]] = {}
    for n, r in rep.items():
        grouped.setdefault(r, []).append(n)
    assert got.window == window
    assert got.minima.tolist() == list(rep.values())
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


# n -> n + 1 makes every window one path of its labels, and n -> n + 2 two,
# which pointer jumping must follow to their ends
SUCCESSOR = GCMap(1, (AffineBranch(1, ResidueSet.full(), 1, 1, 1),))
SKIP_ONE = GCMap(1, (AffineBranch(1, ResidueSet.full(), 1, 2, 1),))


@pytest.mark.parametrize("gcmap", [SUCCESSOR, SKIP_ONE], ids=["n+1", "n+2"])
@pytest.mark.parametrize("window", [1, 2, 3, 129, 1000, 5000])
def test_classes_of_a_long_path(gcmap, window):
    # a path of 1000 labels takes 10 doublings before every jump lands on the
    # self-loop at its end: the rounds stop only once the image of the jump
    # stops shrinking, never after a set number of rounds
    for fuel in (1, 3):
        assert_same_classes(gcmap, window, fuel, False)


def relabelled(parent: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The graph i -- parent[i] with each node i renamed perm[i]."""
    out = np.empty_like(parent)
    out[perm] = perm[parent]
    return out


def rings(lengths) -> np.ndarray:
    """A permutation of consecutive rings of the given lengths."""
    ends = np.cumsum(lengths)
    succ = np.arange(1, ends[-1] + 1)
    succ[ends - 1] = ends - lengths
    return succ


def component_graphs() -> list[np.ndarray]:
    """Paths, shuffled paths, stars, random graphs, permutations, self-loops,
    a long path into a ring, and no node at all, as parent arrays."""
    rng = np.random.default_rng(0)
    graphs = [np.minimum(np.arange(n) + 1, n - 1) for n in (1, 2, 3, 1000)]
    graphs.append(relabelled(graphs[-1], rng.permutation(1000)))  # a path through shuffled labels
    graphs.append(np.zeros(1000, dtype=np.int64))  # a star
    graphs += [rng.integers(0, n, n) for n in (10, 1000, 5000)]
    for perm in (rings(np.arange(1, 51)), rings(np.array([1000]))):  # every node on a cycle
        graphs += [perm, relabelled(perm, rng.permutation(len(perm)))]
    graphs.append(np.arange(1000))  # all self-loops
    path_into_ring = np.r_[np.arange(1, 1000), 993]  # 993 path nodes, then the ring 993..999
    graphs += [path_into_ring, relabelled(path_into_ring, rng.permutation(1000))]
    graphs.append(np.zeros(0, dtype=np.int64))
    return graphs


def union_find_minima(parent: np.ndarray) -> list[int]:
    uf = UnionFind(len(parent) - 1)
    for i, p in enumerate(parent.tolist()):
        uf.union(i, p)
    return [uf.find(i) for i in range(len(parent))]


def test_component_minima_against_union_find():
    for parent in component_graphs():
        assert dynamics._component_minima(parent).tolist() == union_find_minima(parent)
        # parent^(2^13) >= parent^n maps every node onto its cycle, and onto every cycle node
        far = functools.reduce(lambda j, _: j[j], range(13), parent)
        jump, cyclic = dynamics._onto_cycles(parent)
        assert np.flatnonzero(cyclic).tolist() == np.unique(far).tolist()
        assert cyclic[jump].all()


def stopped_early(rounds: int):
    """``_onto_cycles``'s rounds, copied, but stopped ``rounds`` rounds early: with
    the jump from ``rounds`` doublings before the one it stops on (parent at most)."""

    def early(parent):
        jumps, size = [parent], len(parent)
        while True:
            cyclic = np.zeros(len(parent), dtype=bool)
            cyclic[jumps[-1]] = True
            if (count := np.count_nonzero(cyclic)) == size:
                return jumps[max(len(jumps) - 1 - rounds, 0)], cyclic
            jumps.append(jumps[-1][jumps[-1]])
            size = count

    return early


def test_the_copied_rounds_are_the_real_ones():
    for parent in component_graphs():
        for got, want in zip(stopped_early(0)(parent), dynamics._onto_cycles(parent)):
            assert np.array_equal(got, want)


def test_the_stop_rule_spends_one_round_confirming(monkeypatch):
    # the rule fires on the first round whose image is no smaller than the one
    # before, so the jump from before the last doubling lands on the cycles too
    monkeypatch.setattr(dynamics, "_onto_cycles", stopped_early(1))
    for parent in component_graphs():
        assert dynamics._component_minima(parent).tolist() == union_find_minima(parent)


@pytest.mark.parametrize("mutant", ["stops a round before the image is the cycles", "ring nodes head themselves"])
def test_component_minima_mutants_fail(monkeypatch, mutant):
    if mutant.startswith("stops"):
        monkeypatch.setattr(dynamics, "_onto_cycles", stopped_early(2))
    else:
        monkeypatch.setattr(dynamics, "_ring_minima", lambda parent, ring: ring)
    graphs = component_graphs()
    assert any(dynamics._component_minima(p).tolist() != union_find_minima(p) for p in graphs)


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
    """int64 lowered to 10^4, and a log of the lanes that finished on exact ints
    (``exact``: the value and step each left the int64 frontier with)."""
    monkeypatch.setattr(dynamics, "_INT64_MAX", 10**4)
    log = SimpleNamespace(exact=[])
    exact = dynamics._exact_return

    def finish(gcmap, sigma, jump, v, step, fuel):
        log.exact.append((v, step))
        return exact(gcmap, sigma, jump, v, step, fuel)

    monkeypatch.setattr(dynamics, "_exact_return", finish)
    return log


def frontier_exits(gcmap, sigma, guard, fuel) -> list[tuple[int, int]]:
    """(value, step) with which each start in sigma leaves the int64 frontier: the
    iterate before its first step past ``guard``, when that step comes before its
    return and within fuel."""
    exits = []
    for x in sigma:
        v = x
        for step in range(fuel):
            w = gcmap.apply(v)
            if w > guard:
                exits.append((v, step))
                break
            if w in sigma:
                break
            v = w
    return sorted(exits)


@pytest.mark.parametrize("fuel", FUELS)
def test_guard_reruns_the_call_exactly(low_guard, fuel):
    for ref in ("collatz", "qx1:5", "3xd:5"):
        sec = preset_section(ref)
        xs = list(sec.sigma.members(1, 3000))
        low_guard.exact.clear()
        return_times(sec.map, sec.sigma, xs, fuel)
        if ref == "qx1:5":
            # the starts past the guard (10^4 - 1) // 5 leave the frontier at
            # step 0 and finish as exact lanes
            past = [(x, 0) for x in xs if x > (10**4 - 1) // 5]
            assert past and set(past) <= set(low_guard.exact)
        assert_same_returns(sec.map, sec.sigma, xs, fuel)


@pytest.mark.parametrize("interior_only", [False, True])
@pytest.mark.parametrize("fuel", FUELS)
def test_guard_in_classes(low_guard, fuel, interior_only, monkeypatch):
    monkeypatch.setattr(dynamics, "_NARROW", 0)  # so that only the guard sends lanes to the exact finish
    gcmap = preset_map("collatz")
    assert_same_classes(gcmap, 3000, fuel, interior_only)
    # 3x+1 takes the window past the guard (10^4 - 1) // 3 at the first step:
    # only those lanes leave the frontier, and each finishes on exact ints
    exits = frontier_exits(gcmap, range(1, 3001), (10**4 - 1) // 3, 1 if interior_only else fuel)
    assert exits and sorted(low_guard.exact) == exits


def test_returns_beyond_int64_stay_exact():
    gcmap = GCMap(1, (AffineBranch(1, ResidueSet.full(), 2**40, 1, 1),))
    odd = ResidueSet.of(2, [1])
    xs = [1, 3, 2**23 + 1, 2**30 + 1]
    value, tau, undecided = return_times(gcmap, odd, xs, 5)
    assert value.tolist() == [2**40 * x + 1 for x in xs] and tau.tolist() == [1] * 4
    assert value.dtype == object and not undecided.any()
    assert_same_returns(gcmap, odd, xs, 5)


# --- what the tables cannot step ------------------------------------------------------------------


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
        assert raised(lambda: classes(gcmap, 300, 1 if interior_only else 50)) == want


def test_untabled_lanes_finish_on_exact_ints(monkeypatch):
    """The lanes of a coefficient past int64 and of the maps ``validate()``
    rejects finish on exact ints, and the invalid maps raise there what
    ``return_time`` raises."""
    calls, exact = [], dynamics._exact_return
    monkeypatch.setattr(dynamics, "_exact_return", lambda *args: calls.append(args) or exact(*args))
    big = GCMap(2, (AffineBranch(1, ResidueSet.of(2, [1]), 2**64 + 1, 1, 2),
                    AffineBranch(2, ResidueSet.of(2, [0]), 1, 0, 2)))
    odd = ResidueSet.of(6, [1, 5])
    xs = list(odd.members(1, 100))
    assert_same_returns(big, odd, xs, 5)  # a coefficient beyond int64
    assert len(calls) == len(xs)  # every lane leaves the int64 frontier at step 0
    for gcmap in INVALID.values():
        for sigma in (range(1, 301), odd):
            xs = list(sigma) if isinstance(sigma, range) else list(sigma.members(1, 300))
            want = raised(lambda: [return_time(gcmap, sigma, x, 50) for x in xs])
            assert raised(lambda: return_times(gcmap, sigma, xs, 50)) == want
    # 37 reaches the gap at 7 on step 4, after 29 reaches it at 11 on step 3:
    # lanes finish in lane order, so the error is 37's, as on the scalar path
    want = raised(lambda: return_time(INVALID["gap"], ResidueSet.of(8, [5]), 37, 50))
    assert "n=7" in want[1]
    assert raised(lambda: return_times(INVALID["gap"], ResidueSet.of(8, [5]), [37, 29], 50)) == want


def test_scalar_path_inputs():
    """Inputs with no int64 path: a start outside sigma or below 1 raises what
    ``return_time`` raises, and a sigma the kernel cannot test raises TypeError."""
    sigma = ResidueSet.of(6, [1, 5])
    collatz = preset_map("collatz")
    for other in ({1, 2, 4, 8, 16}, range(5, 40)):  # a plain set, and a window not from 1
        assert raised(lambda: return_times(collatz, other, [5, 8, 16], 100))[0] is TypeError
    for xs in ([1, 3, 2], [0, 1]):  # a start outside the section, and one below 1
        want = raised(lambda: [return_time(collatz, sigma, x, 10) for x in xs])
        assert raised(lambda: return_times(collatz, sigma, xs, 10)) == want
    assert [a.tolist() for a in return_times(collatz, sigma, [], 10)] == [[], [], []]
    assert raised(lambda: return_times(collatz, sigma, [2], 10))[0] is DomainError


def test_member_test_takes_exact_ints_beyond_int64():
    # an exact lane can return values past int64 in an object array, and
    # the section checks then test them against sigma
    for sigma in (ResidueSet.of(18, [4, 16]), PuncturedResidueSet(ResidueSet.of(18, [2, 8]), frozenset({2}))):
        values = [2, 4, 8, 20, 2**70 + 4, 2**70 + 6, 2**90 + 8]
        got = dynamics._member_test(sigma)(np.array(values, dtype=object))
        assert got.tolist() == [v in sigma for v in values]


# --- exact lanes and jump tables ------------------------------------------------------------

K = 12  # the jump depth at modulus 2: a table of 2^12 entries
# the divergent lanes of these cost the scalar oracle up to a second a call at
# fuel 10^4, so each (map, sigma, starts, fuel) runs it once (mersenne:3 is qx1:7)
cached_lanes = functools.lru_cache(maxsize=None)(scalar_lanes)
# 3n - 1 on odd n: a negative b
THREE_N_MINUS_1 = _map(2, ([1], 3, -1, 1), ([0], 1, 0, 2))
# a bijection mod 3 whose orbits grow: n = 3t -> 2t - 1, 3t + 1 -> 4t + 2,
# 3t + 2 -> 4t + 4; its branch on 0 mod 3 has a negative offset
MOD3 = _map(3, ([0], 2, -3, 3), ([1], 4, 2, 3), ([2], 4, 4, 3))
# qx1:1023 steps past int64 in a jump: 1023^6 * 2^6 > 2^63
JUMP_MAPS = {ref: preset_map(ref) for ref in ("qx1:5", "qx1:7", "mersenne:3", "3xd:5", "mersenne:10")}
JUMP_MAPS.update({"3n-1": THREE_N_MINUS_1, "mod3": MOD3})


def test_jump_depth_keeps_the_table_at_4096_entries():
    depths = {1: 12, 2: 12, 3: 7, 4: 6, 6: 4, 16: 3, 64: 2, 65: 1, 4096: 1, 4097: 0}
    assert {m: dynamics._jump_depth(m) for m in depths} == depths


def test_jump_table_refuses_fewer_than_two_steps():
    # a table of k = 0 would leave every lane where it is, so _exact_return would spin
    rows = dynamics._step_tables(preset_map("collatz"))[0]
    for k in (0, 1):
        with pytest.raises(ValueError):
            dynamics._jump_table(rows, 2, k)
    assert len(dynamics._jump_table(rows, 2, 2)) == 4


@pytest.mark.parametrize("ref", ["qx1:5", "qx1:7", "mersenne:3", "3xd:5"])
@pytest.mark.parametrize("fuel", [K - 1, K, K + 1, 777, 10**4])
@pytest.mark.parametrize("low", [False, True])
def test_exact_lanes_match_scalar_on_divergent_presets(ref, fuel, low, monkeypatch):
    if low:
        monkeypatch.setattr(dynamics, "_INT64_MAX", 10**4)
    # at fuel 10^4 the 7n+1 oracle takes every third start: all 500 cost it 1.2 s
    xs = range(1, 501, 3 if fuel == 10**4 and ref in ("qx1:7", "mersenne:3") else 1)
    assert_same_returns(JUMP_MAPS[ref], range(1, 501), list(xs), fuel, cached_lanes)


@pytest.mark.parametrize("ref", ["3n-1", "mod3", "mersenne:10"])
@pytest.mark.parametrize("low", [False, True])
def test_exact_lanes_match_scalar_on_other_maps(ref, low, monkeypatch):
    gcmap = JUMP_MAPS[ref]
    if low:
        monkeypatch.setattr(dynamics, "_INT64_MAX", 10**4)
    k = dynamics._jump_depth(gcmap.modulus)
    for fuel in (k - 1, k, k + 1, 2 * k + 1, 60):
        assert_same_returns(gcmap, range(1, 501), list(range(1, 501)), fuel, cached_lanes)


@pytest.mark.parametrize(
    "ref, hi", [("qx1:5", 501), ("mersenne:10", 501), ("3n-1", 2), ("3n-1", 501), ("mod3", 2), ("mod3", 501)]
)
def test_jump_table_against_k_scalar_steps(ref, hi):
    """Every entry: f^k(m^k q + r) = L q + c, and from the plan's floor
    max(hi, low)*scale on, every iterate of the jump at or above hi."""
    gcmap = JUMP_MAPS[ref]
    m = gcmap.modulus
    k, table, scale, low = dynamics._plan(gcmap).jump
    assert k == dynamics._jump_depth(m) and len(table) == m**k
    assert table == dynamics._jump_table(dynamics._step_tables(gcmap)[0], m, k)
    floor = max(hi, low) * scale

    def iterates(n):
        out = [n]
        for _ in range(k):
            out.append(gcmap.apply(out[-1]))
        return out

    for r, (L, c) in enumerate(table):
        for q in {r == 0, 7, floor // m**k + 1, 10**30}:
            orbit = iterates(m**k * q + r)
            assert orbit[k] == L * q + c
            if orbit[0] >= floor:
                assert min(orbit[1:]) >= hi


def test_a_lane_entering_the_window_right_after_a_jump(low_guard):
    """Under the guard 3333, 1119 leaves the frontier at once (3*1119 + 1 = 3358) and
    goes through 12 steps at or above 1125 to 2126; step 13 enters the window at 1063.
    It is below the plan's jump floor 1125 * 2^12, so it takes them one at a time."""
    collatz = preset_map("collatz")
    window = range(1, 1125)
    k, table, scale, low = dynamics._plan(collatz).jump
    L, c = table[1119]
    assert (k, c, 1119 // 2**K) == (K, 2126, 0) and 1119 < max(1125, low) * scale
    for fuel, want in ((K - 1, (0, 0, True)), (K, (0, 0, True)), (K + 1, (1063, K + 1, False))):
        low_guard.exact.clear()
        value, tau, undecided = return_times(collatz, window, [1119], fuel)
        assert (value[0], tau[0], undecided[0]) == want
        assert low_guard.exact == [(1119, 0)]
        assert_same_returns(collatz, window, list(window), fuel)


@pytest.mark.parametrize("ref", ["qx1:5", "mersenne:3"])
def test_exact_lanes_on_a_section_take_single_steps(low_guard, ref, monkeypatch):
    monkeypatch.setattr(dynamics, "_jump_table", None)  # a section builds no jump table
    sec = preset_section(ref)
    xs = list(sec.sigma.members(1, 1000))  # below both guards (10^4 - 1) // 5 and // 7
    for fuel in (K - 1, K, K + 1, 200):
        low_guard.exact.clear()
        assert_same_returns(sec.map, sec.sigma, xs, fuel)
        assert low_guard.exact


@st.composite
def expanding_map_and_fuel(draw):
    """Any map with fuel around its jump depth k or up to 200 steps."""
    gcmap = draw(maps(contracting=False))
    k = dynamics._jump_depth(gcmap.modulus)
    return gcmap, draw(st.sampled_from([k - 1, k, k + 1, 2 * k + 1, 200]))


@given(expanding_map_and_fuel(), sections(), st.sampled_from([1, 2, 100, 200]))
@settings(max_examples=30, deadline=None)
def test_exact_lanes_match_scalar_on_random_maps(mf, sigma, window):
    gcmap, fuel = mf
    with pytest.MonkeyPatch.context() as mp:
        # every start stays below the lowered guard: a <= 18 and b <= 17
        mp.setattr(dynamics, "_INT64_MAX", 10**4)
        assert_same_returns(gcmap, sigma, list(sigma.members(1, window)), fuel)
        assert_same_returns(gcmap, range(1, window + 1), list(range(1, window + 1)), fuel)


# --- per-lane windows ---------------------------------------------------------------------------

# the range scan's maps, as (a, b) of n -> a*n + b (odd), n/2 (even)
ODD_EVEN = [(3, 1), (3, 5), (3, 7), (5, 1), (7, 1), (31, 1), (127, 1)]
PRESETS = ("collatz", "identity", *SECTIONS[1:])
# the modulus-3 map the range scan refuses: n/3 on 0 mod 3, n + 2 elsewhere
NOT_ODD_EVEN = _map(3, ([0], 1, 0, 3), ([1, 2], 1, 2, 1))


def below_tops(gcmap, tops, xs, fuel) -> list[tuple[int, int, bool]]:
    """(value, tau, undecided) of each lane: the first step that takes xs[i] into [1, tops[i])."""
    want = []
    for top, x in zip(tops, xs):
        v = x
        for step in range(1, fuel + 1):
            v = gcmap.apply(v)
            if 1 <= v < top:
                want.append((v, step, False))
                break
        else:
            want.append((0, 0, True))
    return want


def assert_per_lane(gcmap, tops, xs, fuel) -> None:
    value, tau, undecided = return_times(gcmap, np.array(tops, dtype=np.int64), xs, fuel)
    got = list(zip(value.tolist(), tau.tolist(), undecided.tolist()))
    assert got == below_tops(gcmap, tops, xs, fuel)


def lanes_of(gcmap, n: int) -> tuple[list[int], list[int]]:
    """(tops, xs): each start 1..n at its own top, then advanced 3 steps from it
    (xs != tops, as the range scan's survivors), then in reverse order."""
    starts = list(range(1, n + 1))
    advanced = []
    for x in starts:
        for _ in range(3):
            x = gcmap.apply(x)
        advanced.append(x)
    shuffled = starts[::-1]
    return starts * 3, starts + advanced + shuffled


@pytest.mark.parametrize("fuel", [1, 2, 60])
@pytest.mark.parametrize("a, b", ODD_EVEN)
def test_per_lane_windows_on_the_odd_even_maps(a, b, fuel):
    gcmap = _map(2, ([1], a, b, 1), ([0], 1, 0, 2))
    tops, xs = lanes_of(gcmap, 400)
    assert_per_lane(gcmap, tops, xs, fuel)


@pytest.mark.parametrize("fuel", [1, 3, 200])
@pytest.mark.parametrize("ref", PRESETS)
def test_per_lane_windows_on_presets(ref, fuel):
    gcmap = preset_map(ref)
    tops, xs = lanes_of(gcmap, 300)
    assert_per_lane(gcmap, tops, xs, fuel)


@pytest.mark.parametrize("fuel", [1, 2, 60])
def test_per_lane_windows_take_the_table_step_on_other_maps(fuel):
    with pytest.raises(KeyError):
        dynamics._odd_even_shape(NOT_ODD_EVEN)
    tops, xs = lanes_of(NOT_ODD_EVEN, 400)
    assert_per_lane(NOT_ODD_EVEN, tops, xs, fuel)


@pytest.mark.parametrize("fuel", [1, 2, 12, 13, 60])
@pytest.mark.parametrize("ref", ["collatz", "qx1:5", "3xd:5"])
def test_per_lane_windows_past_the_guard(low_guard, ref, fuel):
    # under the guard (10^4 - 1) // a, the starts past it leave the frontier
    # at step 0 and finish on exact ints, jumping from each lane's own floor
    gcmap = preset_map(ref)
    tops, xs = lanes_of(gcmap, 300)
    xs = [x + 5000 if i % 7 == 0 else x for i, x in enumerate(xs)]
    guard = dynamics._step_tables(gcmap)[4]
    assert_per_lane(gcmap, tops, xs, fuel)
    assert set((x, 0) for x in xs if x > guard) <= set(low_guard.exact)


def test_per_lane_windows_need_starts_from_1():
    collatz = preset_map("collatz")
    with pytest.raises(DomainError):
        return_times(collatz, np.array([5, 5]), [3, 0], 10)
    assert [a.tolist() for a in return_times(collatz, np.array([], dtype=np.int64), [], 10)] == [[], [], []]


# --- the fast odd/even step ----------------------------------------------------------------------


def test_fast_step_is_exact_up_to_the_guard():
    # near the guard a*v + b is close to 2^63 - 1: the step never wraps
    for a, b in ODD_EVEN + [(3, 2**40 + 1), (2**61 + 1, 2**61 - 1)]:
        gcmap = _map(2, ([1], a, b, 1), ([0], 1, 0, 2))
        rows, A, B, C, guard = dynamics._step_tables(gcmap)
        vs = [v for v in (1, 2, 3, 4, guard - 3, guard - 2, guard - 1, guard) if 1 <= v <= guard] * 40
        got = dynamics._int64_step(gcmap, rows, A, B, C, guard, (a, b))(np.array(vs, dtype=np.int64))
        assert got.tolist() == [a * v + b if v % 2 else v // 2 for v in vs]


def test_fast_step_only_where_no_partial_sum_wraps():
    # a step of v <= guard sums up to (2a - 1)*(v >> 1) + a + b; past 2a > guard
    # that can pass 2^63 - 1, so the kernel takes the table step there.  With
    # the tables zeroed, the table step gives 0 and the fast step a + b at 1;
    # a frontier of 128 lanes or fewer takes the table step on every map
    for a, b in ODD_EVEN + [(3, 2**40 + 1), (2**61 + 1, 2**61 - 1)]:
        gcmap = _map(2, ([1], a, b, 1), ([0], 1, 0, 2))
        rows, A, B, C, guard = dynamics._step_tables(gcmap)
        fast = 2 * a <= guard
        assert fast == ((2 * a - 1) * (guard // 2) + a + b <= 2**63 - 1)
        step = dynamics._int64_step(gcmap, rows, 0 * A, 0 * B, C, guard, (a, b))
        assert step(np.ones(129, dtype=np.int64)).tolist() == [a + b if fast else 0] * 129
        assert step(np.ones(128, dtype=np.int64)).tolist() == [0] * 128
        assert fast == (a < 2**61)


@pytest.fixture
def table_step(monkeypatch):
    """Run a call with the shape rule refusing every map, so the kernel takes
    its table step; log what the real rule said of each call's map."""
    shape, said = dynamics._odd_even_shape, []

    def refuse(gcmap):
        try:
            said.append(shape(gcmap))
        except KeyError as exc:
            said.append(exc)
        raise KeyError("forced")

    def run(*args):
        with monkeypatch.context() as mp:
            mp.setattr(dynamics, "_odd_even_shape", refuse)
            dynamics._plan_for.cache_clear()  # so that the call builds its plan under the patch
            try:
                return return_times(*args)
            finally:
                dynamics._plan_for.cache_clear()

    run.said = said
    return run


def assert_same_step(table_step, gcmap, sigma, xs, fuel) -> None:
    fast = return_times(gcmap, sigma, xs, fuel)
    slow = table_step(gcmap, sigma, xs, fuel)
    assert [a.tolist() for a in fast] == [a.tolist() for a in slow]


@pytest.mark.parametrize("ref", PRESETS)
def test_table_step_matches_the_fast_step_on_presets(table_step, ref):
    gcmap = preset_map(ref)
    for fuel in (1, 3, 200):
        assert_same_step(table_step, gcmap, range(1, 3001), list(range(1, 3001)), fuel)
        if ref in SECTIONS:
            sigma = preset_section(ref).sigma
            assert_same_step(table_step, gcmap, sigma, list(sigma.members(1, 3000)), fuel)
    # every preset but identity has the shape, so its fast runs took the fast step
    assert all(isinstance(s, KeyError) == (ref == "identity") for s in table_step.said)


@pytest.mark.parametrize("a, b", ODD_EVEN)
def test_table_step_matches_the_fast_step_on_the_odd_even_maps(table_step, a, b):
    gcmap = _odd_even(a, b)
    tops = np.arange(1, 3001, dtype=np.int64)
    for fuel in (1, 3, 60):
        assert_same_step(table_step, gcmap, range(1, 3001), list(range(1, 3001)), fuel)
        assert_same_step(table_step, gcmap, tops, list(range(1, 3001)), fuel)
    assert table_step.said and all(s == (a, b) for s in table_step.said)

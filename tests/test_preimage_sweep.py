"""The preimage search and the closed-form section rows against two oracles.

``PreimageSearch`` (in ``preimage_oracle``, the oracle of the closed-form
rows of ``build_section_ops``) prunes its walk with ``reaches``, built by one
backward sweep from the sigma classes.  The first oracle is the forward walk
it replaced: from a class c (mod state_mod) it follows c -> 2c and c -> m
for every guarded m with a*m + b = c, and answers whether a sigma class is
reachable.  Both must agree on every class.

The second oracle is the first-return map P itself, inverted on a window:
every row the search calls complete must hold every forward preimage found
there, and nothing else; and every row ``build_section_ops`` certifies
exact must hold exactly the forward preimages its operator owns.
"""

from __future__ import annotations

import math
import random

import pytest

from collatzlab import BasisWindow, build_section_ops, preset_map, preset_section
from collatzlab.conditions import residue_image_exceptions
from collatzlab.gcmap import AffineBranch, GCMap, PuncturedResidueSet, ResidueSet, section_sets
from preimage_oracle import PreimageSearch, first_return


def class_reaches_sigma(search: PreimageSearch, c0: int, cache: dict[int, bool]) -> bool:
    """Forward residue-graph walk from c0; ``cache`` keeps the proven "no" answers."""
    cached = cache.get(c0)
    if cached is not None:
        return cached
    z = search.state_mod
    seen: set[int] = set()
    stack = [c0]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        if c in search.classes:
            cache[c0] = True
            return True
        stack.append((2 * c) % z)
        for br in search.affine:
            g = math.gcd(br.a, z)
            if (c - br.b) % g:
                continue
            zg = z // g
            m0 = ((c - br.b) // g * pow(br.a // g, -1, zg)) % zg
            for t in range(g):
                m = m0 + t * zg
                if m % search.map.modulus in br.guard.residues:
                    stack.append(m)
    for c in seen:
        # the closure from any member of a section-free closure is section-free
        cache[c] = False
    return False


def assert_sweep_matches_walk(search: PreimageSearch) -> None:
    assert len(search.reaches) == search.state_mod
    cache: dict[int, bool] = {}
    walked = [int(class_reaches_sigma(search, c, cache)) for c in range(search.state_mod)]
    assert list(search.reaches) == walked


@pytest.mark.parametrize(
    "ref", ["collatz", "qx1:5", "3xd:1", "3xd:3", "3xd:5", "3xd:9", "mersenne:3", "mersenne:4"]
)
def test_sweep_matches_walk_on_preset_sections(ref):
    sec = preset_section(ref)
    _, sigma = section_sets(sec.n1, sec.n2, sec.n2_removed)
    assert_sweep_matches_walk(PreimageSearch(sec.map, sigma))


def random_sections(seed: int, count: int):
    """``count`` seeded (map, sigma) pairs: a few classes of a small modulus."""
    rng = random.Random(seed)
    maps = [preset_map(ref) for ref in ("collatz", "qx1:5", "3xd:7", "mersenne:3")]
    for _ in range(count):
        modulus = rng.choice([3, 5, 6, 9, 10, 12, 18, 27])
        residues = rng.sample(range(modulus), rng.randint(1, max(1, modulus // 3)))
        yield rng.choice(maps), ResidueSet.of(modulus, residues)


def test_sweep_matches_walk_on_random_sections():
    # the preset sections alone do not tell the affine predecessors apart: a
    # sweep without them marks the same classes there
    pruned = 0
    for gcmap, sigma in random_sections(2024, 64):
        search = PreimageSearch(gcmap, sigma)
        assert_sweep_matches_walk(search)
        pruned += not all(search.reaches)
    assert pruned  # some sections leave classes that provably never reach them


def forward_preimages(gcmap: GCMap, sigma, window: int = 4000, fuel: int = 1000) -> dict[int, set[int]]:
    """{r: {m in sigma ∩ [1, window] : P(m) = r}} over the decided first returns."""
    forward: dict[int, set[int]] = {}
    for m in sigma.members(1, window):
        v = first_return(gcmap, sigma, m, fuel)
        if v is not None:
            forward.setdefault(v, set()).add(m)
    return forward


def preimage_mismatches(gcmap: GCMap, sigma, rows: int = 300, window: int = 4000, fuel: int = 1000):
    """Rows r <= ``rows`` whose complete preimage set disagrees with P on sigma ∩ [1, window]."""
    forward = forward_preimages(gcmap, sigma, window, fuel)
    search = PreimageSearch(gcmap, sigma)
    bad = []
    for r in sigma.members(1, rows):
        pre = search.preimages(r)
        if pre is None:
            continue
        missed = forward.get(r, set()) - pre
        wrong = [m for m in pre if first_return(gcmap, sigma, m, fuel) != r]
        if missed or wrong:
            bad.append((r, sorted(missed), sorted(wrong)))
    return bad


@pytest.mark.parametrize(
    "ref", ["collatz", "qx1:5", "3xd:1", "3xd:3", "3xd:5", "3xd:9", "mersenne:3", "mersenne:4"]
)
def test_preimages_match_first_return_on_preset_sections(ref):
    sec = preset_section(ref)
    assert preimage_mismatches(sec.map, sec.sigma) == []


@pytest.mark.parametrize(
    "ref, modulus, residues, removed, r, m",
    [
        # P(m) = r, but the doubling chain from r repeats a residue state whose
        # affine preimage is pruned on one pass and reaches sigma on a later one
        ("qx1:5", 3, [0], [], 66, 33),
        ("3xd:7", 10, [5, 7], [], 35, 77),
        ("mersenne:3", 12, [9], [], 9, 1965),
        # 80 -> 40 -> 20 -> 10 -> 5 -> 26: the cycle 10, 20, 40 (mod 30) passes
        # the puncture 20, and the next pass meets sigma at 80
        ("qx1:5", 6, [2], [20, 32], 26, 80),
    ],
)
def test_residue_cycle_ends_a_chain_only_when_nothing_can_follow(ref, modulus, residues, removed, r, m):
    gcmap = preset_map(ref)
    sigma = PuncturedResidueSet(ResidueSet.of(modulus, residues), frozenset(removed))
    assert first_return(gcmap, sigma, m, 1000) == r
    pre = PreimageSearch(gcmap, sigma).preimages(r)
    assert pre is None or m in pre
    assert preimage_mismatches(gcmap, sigma) == []


def test_preimages_match_first_return_on_random_sections():
    for gcmap, sigma in random_sections(7, 24):
        assert preimage_mismatches(gcmap, sigma) == [], sigma


def test_preimages_match_first_return_on_punctured_random_sections():
    rng = random.Random(1)
    for gcmap, classes in random_sections(1, 24):
        members = list(classes.members(1, 40))
        sigma = PuncturedResidueSet(classes, frozenset(rng.sample(members, min(len(members), 3))))
        assert preimage_mismatches(gcmap, sigma) == [], sigma


def test_odd_state_modulus_is_rejected():
    # an n/2 branch with an empty guard validates, but no class is ever halved
    gcmap = GCMap(1, (
        AffineBranch(1, ResidueSet.full(), 1, 1, 1),
        AffineBranch(2, ResidueSet.empty(), 1, 0, 2),
    ))
    assert gcmap.validate().ok
    with pytest.raises(ValueError, match="even state modulus"):
        PreimageSearch(gcmap, ResidueSet.of(3, [1]))


def closed_form_mismatches(gcmap: GCMap, n1, n2, removed, rows: int = 300) -> tuple[list, int]:
    """Exact rows of the section operators on sigma ∩ [1, rows] whose entries are
    not the forward preimages that their operator owns, and the number of exact rows."""
    _, sigma = section_sets(n1, n2, removed)
    forward = forward_preimages(gcmap, sigma)
    ops = build_section_ops(gcmap, n1, n2, BasisWindow.section(sigma, rows), 1000, n2_removed=removed)
    bad = []
    for name, t, owns in (("T1", ops.t1, lambda m: m in n1), ("T2", ops.t2, lambda m: m not in n1)):
        entries = t.adjoint().cols  # row r of T: {m: 1 for each column m with P(m) = r}
        for r in sorted(t.exact_rows):
            want = {m for m in forward.get(r, ()) if owns(m)}
            if set(entries.get(r, {})) != want:
                bad.append((name, r, sorted(entries.get(r, {})), sorted(want)))
    return bad, len(ops.t1.exact_rows) + len(ops.t2.exact_rows)


@pytest.mark.parametrize(
    "ref",
    ["collatz", "qx1:5", "3xd:1", "3xd:3", "3xd:5", "3xd:9", "3xd:17", "3xd:53", "mersenne:3", "mersenne:4"],
)
def test_closed_form_rows_match_first_return_on_preset_sections(ref):
    sec = preset_section(ref)
    bad, certified = closed_form_mismatches(sec.map, sec.n1, sec.n2, sec.n2_removed)
    assert bad == [] and certified


def test_closed_form_rows_match_first_return_on_random_sections():
    # N1 a few odd classes, N2 = f(N1) with its punctures: (F1) holds and N1,
    # N2 are disjoint, so T1 rows are certified; most fail (F2), and then no
    # T2 row is
    rng = random.Random(3)
    maps = [preset_map(ref) for ref in ("collatz", "qx1:5", "3xd:7", "mersenne:3", "3xd:5")]
    certified = 0
    for _ in range(40):
        gcmap, modulus = rng.choice(maps), rng.choice([6, 10, 14, 18, 30, 42, 54, 98])
        odd = range(1, modulus, 2)
        n1 = ResidueSet.of(modulus, rng.sample(odd, rng.randint(1, len(odd))))
        n2, removed = residue_image_exceptions(gcmap, n1)
        bad, count = closed_form_mismatches(gcmap, n1, n2, frozenset(removed), rows=150)
        assert bad == [], n1
        certified += count
    assert certified

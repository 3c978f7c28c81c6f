"""The section preimage search's pruning table against a per-class residue walk.

``_PreimageSearch.reaches`` is built by one backward sweep from the sigma
classes.  The oracle below is the forward walk it replaced: from a class c
(mod state_mod) it follows c -> 2c and c -> m for every guarded m with
a*m + b = c, and answers whether a sigma class is reachable.  Both must agree
on every class.
"""

from __future__ import annotations

import math
import random

import pytest

from collatzlab import preset_map, preset_section
from collatzlab.gcmap import AffineBranch, GCMap, ResidueSet, section_sets
from collatzlab.operators import _PreimageSearch


def class_reaches_sigma(search: _PreimageSearch, c0: int, cache: dict[int, bool]) -> bool:
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


def assert_sweep_matches_walk(search: _PreimageSearch) -> None:
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
    assert_sweep_matches_walk(_PreimageSearch(sec.map, sigma))


def test_sweep_matches_walk_on_random_sections():
    # the preset sections alone do not tell the affine predecessors apart: a
    # sweep without them marks the same classes there
    rng = random.Random(2024)
    maps = [preset_map(ref) for ref in ("collatz", "qx1:5", "3xd:7", "mersenne:3")]
    pruned = 0
    for _ in range(64):
        modulus = rng.choice([3, 5, 6, 9, 10, 12, 18, 27])
        residues = rng.sample(range(modulus), rng.randint(1, max(1, modulus // 3)))
        search = _PreimageSearch(rng.choice(maps), ResidueSet.of(modulus, residues))
        assert_sweep_matches_walk(search)
        pruned += not all(search.reaches)
    assert pruned  # some sections leave classes that provably never reach them


def test_odd_state_modulus_is_rejected():
    # an n/2 branch with an empty guard validates, but no class is ever halved
    gcmap = GCMap(1, (
        AffineBranch(1, ResidueSet.full(), 1, 1, 1),
        AffineBranch(2, ResidueSet.empty(), 1, 0, 2),
    ))
    assert gcmap.validate().ok
    with pytest.raises(ValueError, match="even state modulus"):
        _PreimageSearch(gcmap, ResidueSet.of(3, [1]))

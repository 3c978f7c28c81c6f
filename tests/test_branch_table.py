"""The residue-indexed branch table of GCMap against a branch-list scan.

``GCMap.apply``, ``branch_of`` and ``conditions.itinerary`` look the owning
branch up in a table built once per map.  The oracle below scans every branch
guard instead, as the maps did before the table; both must give the same value
or raise the same exception type with the same message, on valid and on
invalid maps alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab import AffineBranch, DomainError, GCMap, ResidueSet, itinerary, preset_map
from collatzlab.gcmap import _check_positive

PRESETS = (
    "collatz", "identity", "qx1:3", "qx1:5", "qx1:7", "mersenne:3", "mersenne:4", "mersenne:5",
    "3xd:1", "3xd:3", "3xd:5", "3xd:9",
)


def scan_branch_of(gcmap: GCMap, n: int) -> AffineBranch:
    _check_positive(n)
    hits = [br for br in gcmap.branches if n in br.guard]
    if len(hits) != 1:
        raise ValueError(f"guards are not a partition at n={n}: {len(hits)} branches match")
    return hits[0]


def scan_apply(gcmap: GCMap, n: int) -> int:
    v = scan_branch_of(gcmap, n).image(n)
    if v < 1:
        raise DomainError(f"image of {n} is {v}, outside the positive integers")
    return v


def scan_itinerary(gcmap: GCMap, x: int, length: int) -> tuple[int, ...]:
    _check_positive(x)
    _check_positive(length, "length")
    word = []
    v = x
    for _ in range(length):
        br = scan_branch_of(gcmap, v)
        word.append(br.index)
        v = br.image(v)
    return tuple(word)


def outcome(f, *args):
    try:
        return ("value", f(*args))
    except Exception as exc:  # the exception itself is what is compared
        return ("raised", type(exc), str(exc))


class Positive(int):
    """An int subclass: not the fast path's exact ``int``, but a valid input."""


def assert_agrees(gcmap: GCMap, n, length: int = 12) -> None:
    assert outcome(gcmap.branch_of, n) == outcome(scan_branch_of, gcmap, n)
    assert outcome(gcmap.apply, n) == outcome(scan_apply, gcmap, n)
    assert outcome(itinerary, gcmap, n, length) == outcome(scan_itinerary, gcmap, n, length)


BAD_INPUTS = (0, -3, True, False, np.int64(5), 5.0, "5", None)


@pytest.mark.parametrize("ref", PRESETS)
def test_presets_agree_with_branch_scan(ref):
    gcmap = preset_map(ref)
    for n in [*range(1, 400), 2**61 - 1, 3**40 + 2, 10**30 + 7, Positive(7), *BAD_INPUTS]:
        assert_agrees(gcmap, n)


@pytest.mark.parametrize("n", [0, True, np.int64(5)])
def test_non_positive_and_non_int_inputs_are_domain_errors(n):
    gcmap = preset_map("collatz")
    for call in (gcmap.branch_of, gcmap.apply, lambda v: itinerary(gcmap, v, 3)):
        with pytest.raises(DomainError):
            call(n)


def _branch(index, modulus, residues, a, b, c):
    return AffineBranch(index, ResidueSet.of(modulus, residues), a, b, c)


# one invalid map of each kind, with the input that hits the fault
INVALID = {
    "overlapping guards": (GCMap(2, (_branch(1, 2, [0, 1], 3, 1, 1), _branch(2, 2, [0], 1, 0, 2))), 4),
    "uncovered residue": (GCMap(3, (_branch(1, 3, [0], 1, 0, 3), _branch(2, 3, [1], 1, 2, 3))), 5),
    "non-divisible branch": (GCMap(2, (_branch(1, 2, [1], 3, 0, 2), _branch(2, 2, [0], 1, 0, 2))), 7),
    "non-positive image": (GCMap(2, (_branch(1, 2, [1], 1, -5, 1), _branch(2, 2, [0], 1, 0, 2))), 3),
}


@pytest.mark.parametrize("kind", sorted(INVALID))
def test_invalid_maps_fail_the_same_way(kind):
    gcmap, bad = INVALID[kind]
    assert outcome(gcmap.apply, bad)[0] == "raised"
    for n in [*range(1, 60), bad, *BAD_INPUTS]:
        assert_agrees(gcmap, n, length=5)


@st.composite
def maps(draw):
    """Random maps, valid or not: guards may overlap or leave residues uncovered."""
    modulus = draw(st.integers(1, 12))
    divisors = [d for d in range(1, modulus + 1) if modulus % d == 0]
    branches = []
    for i in range(1, draw(st.integers(1, 4)) + 1):
        d = draw(st.sampled_from(divisors))
        residues = draw(st.sets(st.integers(0, d - 1), max_size=d))
        a, b, c = draw(st.integers(0, 6)), draw(st.integers(-6, 6)), draw(st.integers(1, 5))
        branches.append(_branch(i, d, residues, a, b, c))
    return GCMap(modulus, tuple(branches))


@settings(max_examples=300, deadline=None)
@given(maps(), st.lists(st.integers(-2, 10**9), min_size=1, max_size=20))
def test_random_maps_agree_with_branch_scan(gcmap, ns):
    for n in ns:
        assert_agrees(gcmap, n, length=6)

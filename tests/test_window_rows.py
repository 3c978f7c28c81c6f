"""The array rows of T and T_i against their per-label construction.

``build_T``, ``build_branch_ops`` and ``verify_branch_relations`` must equal
the oracle in ``branch_ops_oracle`` (entries and both exactness masks) on
every map whose labels all step and whose branches are all non-constant: the
presets on [1, 600], scattered windows, a window near 2^62 where c * top
leaves int64, and random maps.  On a map that cannot step some label, every
builder raises what ``GCMap.apply`` raises at the first such label.  The
oracle's row rule for constant branches is pinned separately, where it and
the arrays part.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branch_ops_oracle import oracle_branch_ops, oracle_branch_relations, oracle_T
from collatzlab import AffineBranch, BasisWindow, GCMap, ResidueSet, preset_map
from collatzlab.operators import build_branch_ops, build_T, verify_branch_relations
from test_branch_table import PRESETS, maps

BUILDERS = (build_T, build_branch_ops, verify_branch_relations)
ORACLES = (oracle_T, oracle_branch_ops, oracle_branch_relations)


def outcome(f, *args):
    try:
        return ("value", f(*args))
    except Exception as exc:  # the exception itself is what is compared
        return ("raised", type(exc), str(exc))


def first_step_failure(gcmap: GCMap, window: BasisWindow):
    """What ``gcmap.apply`` raises at the first label it cannot step, or None."""
    for n in window.elements:
        if (out := outcome(gcmap.apply, n))[0] == "raised":
            return out
    return None


def assert_matches_oracle(gcmap: GCMap, window: BasisWindow) -> None:
    failure = first_step_failure(gcmap, window)
    for build, oracle in zip(BUILDERS, ORACLES):
        got = outcome(build, gcmap, window)
        assert got == (failure or outcome(oracle, gcmap, window)), build.__name__


def scattered(rng: random.Random, hi: int, size: int) -> BasisWindow:
    return BasisWindow(tuple(rng.sample(range(1, hi + 1), size)))


@pytest.mark.parametrize("ref", PRESETS)
def test_presets_match_the_per_label_rows(ref):
    gcmap = preset_map(ref)
    assert_matches_oracle(gcmap, BasisWindow.range(1, 600))
    rng = random.Random(ref)
    for hi, size in ((60, 20), (2000, 300)):
        assert_matches_oracle(gcmap, scattered(rng, hi, size))


@pytest.mark.parametrize("ref", PRESETS)
def test_window_near_2_62_matches_the_per_label_rows(ref):
    # c * top leaves int64, so the preimages are exact ints; the halving
    # preimage 2n of a label near 2^61 is a label near 2^62, so rows there can be exact
    labels = [*range(1, 30), *(2**61 + i for i in range(40)), *(2**62 + 2 * i for i in range(20))]
    window = BasisWindow(tuple(labels))
    assert_matches_oracle(preset_map(ref), window)
    assert max(build_T(preset_map(ref), window).exact_rows) > 2**61


@settings(max_examples=100, deadline=None)
@given(maps(), st.sets(st.integers(1, 200), min_size=1, max_size=40), st.booleans())
def test_random_maps_match_the_per_label_rows(gcmap, labels, contiguous):
    assume(all(br.a for br in gcmap.branches))  # constant branches: see below
    window = BasisWindow.range(1, max(labels)) if contiguous else BasisWindow(tuple(labels))
    assert_matches_oracle(gcmap, window)


def _branch(index, modulus, residues, a, b, c):
    return AffineBranch(index, ResidueSet.of(modulus, residues), a, b, c)


def test_every_builder_raises_the_first_step_failure():
    # 1 = 3*1/2 is not an integer and residue 2 has no branch; the labels
    # failed in two ways at first: build_T at 1, build_branch_ops (through
    # branch_of) at 2
    gcmap = GCMap(4, (_branch(1, 4, [1, 3], 3, 0, 2), _branch(2, 4, [0], 1, 0, 2)))
    window = BasisWindow.range(1, 8)
    failure = ("raised", ArithmeticError, "branch 1: 3*1+0 not divisible by 2")
    assert first_step_failure(gcmap, window) == failure
    for build in BUILDERS:
        assert outcome(build, gcmap, window) == failure
    assert outcome(oracle_T, gcmap, window) == failure
    assert outcome(oracle_branch_ops, gcmap, window) == (
        "raised", ValueError, "guards are not a partition at n=2: 0 branches match"
    )


def test_constant_branches_certify_the_rows_they_miss():
    # a constant branch with an empty guard (valid) has no preimage; with a
    # nonempty one (invalid, but every label steps) its value has infinitely
    # many, so only that row is inexact.  The oracle's T_i leave every row of
    # a constant branch inexact.
    halve = _branch(2, 2, [0], 1, 0, 2)
    window = BasisWindow.range(1, 20)
    empty = GCMap(2, (_branch(1, 2, [1], 3, 1, 1), halve, _branch(3, 2, [], 0, 6, 2)))
    assert empty.validate().ok
    assert build_T(empty, window).exact_rows == oracle_T(preset_map("collatz"), window).exact_rows
    assert oracle_T(empty, window).exact_rows == build_T(empty, window).exact_rows
    assert build_branch_ops(empty, window)[2].exact_rows == frozenset(window.elements)
    assert not oracle_branch_ops(empty, window)[2].exact_rows

    const = GCMap(2, (_branch(1, 2, [1], 0, 6, 2), halve))  # every odd n goes to 3
    assert not const.validate().ok
    t1, t2 = build_branch_ops(const, window)
    assert t1.exact_rows == frozenset(window.elements) - {3}
    assert build_T(const, window).exact_rows == t1.exact_rows & t2.exact_rows
    assert 3 not in build_T(const, window).exact_rows


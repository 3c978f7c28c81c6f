"""Window label arrays, section windows from the vectorised residue test, and
the witness tiles read from a per-residue table.

``_residues`` takes v mod m as v - (v // m) * m; it must agree with Python
``%`` on every int64 and on exact ints past int64.  ``BasisWindow.section``
filters [1, hi] with the member test and must list exactly what
``sigma.members(1, hi)`` yields.
"""

from __future__ import annotations

import numpy as np
import pytest

from collatzlab import BasisWindow, preset_section
from collatzlab.dynamics import _member_test, _residues
from collatzlab.gcmap import PuncturedResidueSet, ResidueSet

SECTION_PRESETS = (
    "collatz", "qx1:3", "qx1:5", "qx1:7", "mersenne:3", "mersenne:4", "mersenne:5",
    "3xd:1", "3xd:3", "3xd:5", "3xd:9",
)
PUNCTURED = PuncturedResidueSet(ResidueSet.of(18, [2, 5, 8]), frozenset({2, 5, 20, 23}))


def sets_of(ref: str):
    sec = preset_section(ref)
    return sec.sigma, sec.n1, sec.n2


# --- residues by floor division ----------------------------------------------------


@pytest.mark.parametrize("ref", SECTION_PRESETS)
def test_floor_division_residues_agree_with_python_mod(ref):
    for sigma in (*sets_of(ref), PUNCTURED):
        m = sigma.modulus
        values = [1, m - 1, m, m + 1, 2 * m - 1, 2**62, 2**62 + 1, 2**63 - 1]
        assert _residues(np.array(values, dtype=np.int64), m).tolist() == [v % m for v in values]
        assert _member_test(sigma)(np.array(values, dtype=np.int64)).tolist() == [v in sigma for v in values]
        # exact ints past int64, in an object array
        wide = [*values, 2**63, 2**64 + m - 1, 2**90 + 1, 3**60 * m]
        got = _residues(np.array(wide, dtype=object), m)
        assert got.dtype == np.int64 and got.tolist() == [v % m for v in wide]
        assert _member_test(sigma)(np.array(wide, dtype=object)).tolist() == [v in sigma for v in wide]


def test_floor_division_residues_of_negative_and_extreme_int64():
    # the product (v // m) * m wraps below -2^63; the difference wraps back
    values = [-(2**63), -(2**63) + 1, -(2**62), -19, -18, -1, 0, 2**63 - 1]
    for m in (1, 2, 3, 18, 50, 1922, 2**31 - 1, 2**62 + 3):
        assert _residues(np.array(values, dtype=np.int64), m).tolist() == [v % m for v in values]


def test_residues_of_exact_ints_are_python_mod():
    # an object array takes % itself: one pass over the exact ints
    values = [-(2**90) - 7, -(2**64), -1, 0, 5, 2**63, 2**64 + 17, 3**80 + 2]
    for m in (1, 2, 7, 50, 2**40 + 1, 2**62 + 3):
        got = _residues(np.array(values, dtype=object), m)
        assert got.dtype == np.int64 and got.tolist() == [v % m for v in values]


# --- section windows ------------------------------------------------------------------


@pytest.mark.parametrize("ref", SECTION_PRESETS)
def test_section_window_lists_the_members(ref):
    for sigma in sets_of(ref):
        for hi in (-3, 0, 1, 2, 7, 18, 101, 2000):
            assert BasisWindow.section(sigma, hi).elements == tuple(sigma.members(1, hi))


def test_section_window_of_a_punctured_set_and_below_its_first_member():
    assert PUNCTURED.min_member() == 8
    for hi in (-1, 0, 1, 7):
        assert BasisWindow.section(PUNCTURED, hi).elements == ()
    for hi in (8, 20, 23, 24, 500):
        got = BasisWindow.section(PUNCTURED, hi).elements
        assert got == tuple(PUNCTURED.members(1, hi)) and not {2, 5, 20, 23} & set(got)
    assert BasisWindow.section(PUNCTURED, 38).elements == (8, 26, 38)


# --- the label array ----------------------------------------------------------------------


def test_labels_are_one_read_only_int64_array_of_the_elements():
    for window in (BasisWindow((9, 3, 3, 40)), BasisWindow.range(1, 300), BasisWindow.section(PUNCTURED, 300)):
        labels = window.labels
        assert labels.dtype == np.int64 and labels.tolist() == list(window.elements)
        assert window.labels is labels  # made once
        with pytest.raises(ValueError):
            labels[0] = 7
        with pytest.raises(ValueError):
            labels += 1
        assert labels.tolist() == list(window.elements)
    empty = BasisWindow(())
    assert empty.labels.dtype == np.int64 and empty.labels.shape == (0,)
    # the cached array is no field: equality and hashing still read the elements
    filled = BasisWindow((1, 5))
    filled.labels
    assert filled == BasisWindow((5, 1)) and hash(filled) == hash(BasisWindow((1, 5)))


# --- witness tiles ---------------------------------------------------------------------


@pytest.mark.parametrize("ref", SECTION_PRESETS)
def test_tiles_of_section_members(ref):
    sec = preset_section(ref)
    w = sec.witnesses
    members = BasisWindow.section(sec.sigma, 3000).labels
    for hi in (1, 100, 3000, 2**62):
        inside, tile = w.tiles(members, hi)
        want = [s << w.exponents[s % w.modulus] for s in members.tolist()]
        assert inside.tolist() == [t <= hi for t in want]
        assert tile.tolist() == [t for t in want if t <= hi]
    inside, tile = w.tiles(members[:0], 10)
    assert inside.tolist() == [] and tile.tolist() == []

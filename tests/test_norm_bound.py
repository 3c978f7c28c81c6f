"""The integer norm-bound loop against its Fraction oracle."""

from __future__ import annotations

import random
import re

import numpy as np
import pytest
from norm_bound_oracle import norm_bound_oracle

from collatzlab import BasisWindow, collatz, norm_bound_check, preset_map
from collatzlab.operators import _DRAWS, _seeded_draws

PRESETS = (
    "collatz", "identity", "qx1:5", "qx1:7", "mersenne:3", "mersenne:4", "mersenne:5",
    "3xd:1", "3xd:3", "3xd:5", "3xd:9",
)


@pytest.mark.parametrize("ref", PRESETS)
def test_report_equals_the_oracle(ref):
    gcmap = preset_map(ref)
    for hi in (3, 10, 50, 600, 2000):
        window = BasisWindow.range(1, hi)
        for trials in (1, 7, 200, 500):
            got = norm_bound_check(gcmap, window, trials)
            want = norm_bound_oracle(gcmap, window, trials)
            # the CLI prints str(max_ratio), so equal fractions print the same bytes
            assert (got, str(got.max_ratio)) == (want, str(want.max_ratio)), (ref, hi, trials)


def test_draws_are_made_once_per_pool_size(monkeypatch):
    window = BasisWindow.range(1, 600)
    collatz_, three = preset_map("collatz"), preset_map("3xd:3")  # another map with the same pool of 400 columns
    want = [norm_bound_oracle(gcmap, window, 200) for gcmap in (collatz_, three)]
    assert norm_bound_check(collatz_, window, 200) == want[0]

    def refuse(*args, **kwargs):
        raise AssertionError("a draw of random.Random on a cached pool size")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    monkeypatch.setattr(random.Random, "sample", refuse)
    assert [norm_bound_check(gcmap, window, 200) for gcmap in (collatz_, three)] == want


def test_cached_draws_are_read_only():
    draws = _seeded_draws(400, 200)
    kept = [a.copy() for a in draws]
    norm_bound_check(preset_map("collatz"), BasisWindow.range(1, 600), 200)
    for a, b in zip(draws, kept):
        assert a.dtype == np.int64 and np.array_equal(a, b)
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def test_draw_cache_is_bounded():
    for n in range(1, _DRAWS + 10):
        _seeded_draws(n, 3)
    assert _seeded_draws.cache_info().currsize <= _DRAWS


def test_randrange_makes_the_draws_of_randint():
    one, two = random.Random(0), random.Random(0)
    for _ in range(10**4):
        assert one.randint(1, 12) == 1 + two.randrange(12)
        assert one.randint(-9, 9) == two.randrange(19) - 9
        assert one.randint(1, 9) == 1 + two.randrange(9)


@pytest.mark.parametrize(
    "window, trials, message",
    [
        # f(1) = 4 and f(3) = 10 leave these windows, so no column of T survives truncation
        (BasisWindow.range(1, 1), 5, "no column of T stays in the window"),
        (BasisWindow((3, 5)), 5, "no column of T stays in the window"),
        (BasisWindow.range(1, 50), 0, "trials must be >= 1"),
    ],
)
def test_errors_match_the_oracle(window, trials, message):
    for check in (norm_bound_check, norm_bound_oracle):
        with pytest.raises(ValueError, match=re.escape(message)):
            check(collatz(), window, trials)

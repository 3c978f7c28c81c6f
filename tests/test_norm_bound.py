"""The integer norm-bound loop against its Fraction oracle."""

from __future__ import annotations

import random
import re

import pytest
from norm_bound_oracle import norm_bound_oracle

from collatzlab import BasisWindow, collatz, norm_bound_check, preset_map
from collatzlab.operators import _seeded_draws

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


def reference_draws(n, trials):
    """The draws as ``randrange`` and ``sample`` make them on Random(0), one call per draw."""
    rng = random.Random(0)
    sizes, cols, p, q = [], [], [], []
    for _ in range(trials):
        size = 1 + rng.randrange(min(12, n))
        sizes.append(size)
        cols += rng.sample(range(n), size)
        for _ in range(size):
            p.append(rng.randrange(19) - 9 or 1)
            q.append(1 + rng.randrange(9))
    return sizes, cols, p, q


@pytest.mark.parametrize("first", range(1, 301, 50))
def test_parsed_draws_equal_randrange_and_sample(first):
    # sample keeps a pool for n <= 21, for n in 22..85 only at sizes 6 and up,
    # and a set above; blocks of 97 words (about three trials) make each call
    # fetch many times, mostly in the middle of a trial
    for n in range(first, first + 50):
        for trials in (1, 37, 500) if n % 10 == 0 else (37,):
            sizes, cols, p, q = _seeded_draws(n, trials, 97)
            assert (sizes, cols, p.tolist(), q.tolist()) == reference_draws(n, trials), (n, trials)


def test_norm_bound_makes_no_per_draw_call(monkeypatch):
    gcmap, window = preset_map("collatz"), BasisWindow.range(1, 600)
    want = norm_bound_oracle(gcmap, window, 200)

    def refuse(*args, **kwargs):
        raise AssertionError("a per-draw call of random.Random")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    monkeypatch.setattr(random.Random, "sample", refuse)
    assert norm_bound_check(gcmap, window, 200) == want


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

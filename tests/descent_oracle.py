"""The loops of the projection-descent check, kept as the oracles of
``operators.descent_check``, which counts by the closed form.

``descent_oracle`` visits each odd n ≡ 1 (mod 4) in [5, limit] in Python
ints, so nothing can wrap.  ``descent_chunked`` is the int64 loop that
``descent_check`` ran before the closed form, in chunks of ``chunk`` starts.
Both must give the same ``checked`` and ``counterexamples`` as the closed form.
"""

from __future__ import annotations

import numpy as np


def descent_oracle(limit: int) -> tuple[int, tuple[int, ...]]:
    if limit < 5:
        raise ValueError("limit must be >= 5")
    bad = []
    checked = 0
    for n in range(5, limit + 1, 4):  # odd n ≡ 1 (mod 4), n > 1
        checked += 1
        if (3 * n + 1) % 4 != 0 or (3 * n + 1) // 4 >= n:
            bad.append(n)
    return checked, tuple(bad)


def descent_chunked(limit: int, chunk: int) -> tuple[int, tuple[int, ...]]:
    if 3 * limit + 1 > 2**63 - 1:
        raise ValueError("3n + 1 leaves int64")
    bad: list[int] = []
    checked = 0
    for lo in range(5, limit + 1, 4 * chunk):  # odd n ≡ 1 (mod 4), n > 1
        n = np.arange(lo, min(lo + 4 * chunk, limit + 1), 4, dtype=np.int64)
        up = 3 * n + 1
        bad += n[(up % 4 != 0) | (up // 4 >= n)].tolist()
        checked += len(n)
    return checked, tuple(bad)

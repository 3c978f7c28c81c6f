"""The scalar loop of the projection-descent check, kept as the oracle of
``operators.descent_check``.

``descent_oracle`` visits each odd n ≡ 1 (mod 4) in [5, limit] in Python
ints, so nothing can wrap; the int64 chunks of ``descent_check`` must give
the same ``checked`` and ``counterexamples``.
"""

from __future__ import annotations


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

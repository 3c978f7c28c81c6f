"""The per-trial Fraction loop of the seeded norm bound, kept as the oracle of
``operators.norm_bound_check``.

``norm_bound_oracle`` steps each label with ``gcmap.apply``, draws with
``randint`` and makes one Fraction over a Counter of image sums per trial;
the integer loop of ``norm_bound_check`` must give the same report.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

from collatzlab.gcmap import GCMap
from collatzlab.operators import BasisWindow, NormBoundReport


def norm_bound_oracle(gcmap: GCMap, window: BasisWindow, trials: int) -> NormBoundReport:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    image = {n: v for n in window.elements if (v := gcmap.apply(n)) in window}
    pool = list(image)  # in label order
    if not pool:
        raise ValueError("norm bound: no column of T stays in the window, so no vector can be drawn")
    rng = random.Random(0)
    max_ratio, violations = Fraction(0), 0
    for _ in range(trials):
        size = rng.randint(1, min(12, len(pool)))
        support = rng.sample(pool, size)
        coeffs = [(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in support]
        scale = math.lcm(*[q for _, q in coeffs])
        out: Counter = Counter()
        norm = 0
        for n, (p, q) in zip(support, coeffs):
            x = p * (scale // q)  # the entry p/q of v, times scale
            out[image[n]] += x
            norm += x * x
        ratio = Fraction(sum(v * v for v in out.values()), norm)
        if ratio > max_ratio:
            max_ratio = ratio
        if ratio > gcmap.k:
            violations += 1
    return NormBoundReport(trials, gcmap.k, max_ratio, violations)

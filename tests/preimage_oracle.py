"""The per-label first-return preimage search, kept as the oracle of the closed form.

``PreimageSearch(gcmap, sigma).preimages(r)`` walks the f-preimage tree of r
and stops each branch at a section member, so it needs no proof about the
section.  ``search_rows`` certifies the rows of a window from its answers,
as ``build_section_ops`` once did, and the closed-form rows are tested
against it.
"""

from __future__ import annotations

import math

import numpy as np

from collatzlab.dynamics import return_time, return_times
from collatzlab.gcmap import GCMap, Inconclusive, PuncturedResidueSet, ResidueSet


#: recursion depth of the first-return preimage search; deeper rows stay non-exact
_DEPTH_CAP = 8


class PreimageSearch:
    """Exact enumeration of first-return preimages {m in sigma : P(m) = r}.

    Walks the f-preimage tree of r, stopping branches at section members.
    Doubling chains through non-section values are pruned once their residue
    state cycles without a possible section hit or affine spawn; anything not
    resolvable within the caps returns None (the row is then conservatively
    marked non-exact).
    """

    def __init__(self, gcmap: GCMap, sigma: ResidueSet | PuncturedResidueSet) -> None:
        self.map = gcmap
        self.sigma = sigma
        punctured = isinstance(sigma, PuncturedResidueSet)
        self.classes = sigma.classes if punctured else sigma
        self.max_puncture = max(sigma.removed if punctured else (), default=0)
        self.halving = next((br for br in gcmap.branches if (br.a, br.b, br.c) == (1, 0, 2)), None)
        self.affine = [br for br in gcmap.branches if br is not self.halving]
        z = math.lcm(gcmap.modulus, sigma.modulus)
        for br in self.affine:
            if br.c != 1 or br.a < 1:
                raise ValueError("section preimage search needs branches n -> a*n+b and n -> n/2")
        if self.halving is None:
            raise ValueError("section preimage search needs an n/2 branch")
        z = math.lcm(z, *(br.a * math.lcm(gcmap.modulus, sigma.modulus) for br in self.affine))
        if z % 2:
            raise ValueError("section preimage search needs an even state modulus")
        self.state_mod = z
        self.reaches = self._sweep()

    def _sweep(self) -> bytearray:
        """reaches[c] is 1 iff some value in class c (mod state_mod) may have a
        section member in its f-preimage tree.  The residue graph has the edges
        c -> 2c and c -> m for each guarded m with a*m + b = c; a class reaches
        sigma iff it lies on a path into a sigma class, so one backward sweep
        from the sigma classes marks them all.  A 0 is a proof, a 1 just means
        "not pruned"."""
        z, half, mod = self.state_mod, self.state_mod // 2, self.map.modulus
        affine = [(br.a, br.b, br.guard.residues) for br in self.affine]
        stack = list(self.classes.at_modulus(z).residues)
        reaches = bytearray(z)
        for d in stack:
            reaches[d] = 1
        while stack:
            d = stack.pop()
            preds = [d >> 1, (d >> 1) + half] if d % 2 == 0 else []
            for a, b, guard in affine:
                if d % mod in guard:
                    preds.append((a * d + b) % z)
            for c in preds:
                if not reaches[c]:
                    reaches[c] = 1
                    stack.append(c)
        return reaches

    def preimages(self, r: int) -> set[int] | None:
        result: set[int] = set()
        ok = self._explore(r, _DEPTH_CAP, result)
        return result if ok else None

    def _explore(self, u: int, depth: int, result: set[int]) -> bool:
        """Collect section members whose forward path reaches u outside the section.

        Walks the doubling chain u, 2u, 4u, ... and searches each link's affine
        preimages (spawns) one level deeper unless they are in sigma or pruned.
        The chain ends at a section hit, at a link with no even preimage, or when
        a residue state repeats above every puncture with no spawn in the cycle.
        Pruning is not fixed by the state, so pruned spawns count too.
        """
        if depth < 0:
            return False
        sigma, z, reaches, top = self.sigma, self.state_mod, self.reaches, self.max_puncture
        first_seen: dict[int, int] = {}
        spawn_steps: list[int] = []
        v, step = u, 0
        while True:
            if v > top:
                first = first_seen.setdefault(v % z, step)
                if first < step:
                    return all(s < first for s in spawn_steps)
            for br in self.affine:
                m = br.preimage_of(v)
                if m is None:
                    continue
                spawn_steps.append(step)
                if m in sigma:
                    result.add(m)
                elif reaches[m % z] and not self._explore(m, depth - 1, result):
                    return False
            v = self.halving.preimage_of(v)
            if v is None:
                return True  # no even preimage: the chain ends here
            step += 1
            if v in sigma:
                result.add(v)
                return True


def search_rows(n1: ResidueSet, n2: ResidueSet, window, preimages: dict, fuel_undecided) -> tuple:
    """Exact rows of T1 and T2, as label sets, the way the search certified them.

    ``preimages[r]`` is ``PreimageSearch.preimages(r)`` for each label r, and
    ``fuel_undecided`` holds the labels whose first return ran out of fuel.
    A row is exact unless the search gave up on it, or a preimage that its
    operator owns is outside the window or undecided.
    """
    labels = frozenset(window.elements)
    rows1, rows2 = set(), set()
    for r in window.elements:
        pre = preimages[r]
        ok1 = ok2 = pre is not None
        for m in pre or ():
            if m not in labels or m in fuel_undecided:
                ok1, ok2 = ok1 and m not in n1, ok2 and m not in n2
        if ok1:
            rows1.add(r)
        if ok2:
            rows2.add(r)
    return frozenset(rows1), frozenset(rows2)


def undecided_labels(gcmap: GCMap, sigma, window, fuel: int) -> frozenset[int]:
    """The window labels whose first return to sigma runs out of fuel."""
    _, _, undecided = return_times(gcmap, sigma, np.array(window.elements, dtype=np.int64), fuel)
    return frozenset(n for n, u in zip(window.elements, undecided.tolist()) if u)


def first_return(gcmap: GCMap, sigma, m: int, fuel: int) -> int | None:
    """P(m), the first return of m to sigma, or None when fuel runs out first."""
    ret = return_time(gcmap, sigma, m, fuel)
    return None if isinstance(ret, Inconclusive) else ret.value

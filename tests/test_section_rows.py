"""Closed-form section rows against the preimage search, and the proof behind them.

``build_section_ops`` certifies the rows of T1 and T2 from two residue-level
facts: (F1) f(N1) ⊆ sigma, so P = f on N1, and (F2) the doubling witnesses
tile N2, so P halves every n in N2 down to its s.  The search in
``preimage_oracle`` needs neither fact; where both hold, the two must certify
the same rows, and where one fails, the closed form may certify only fewer.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

import collatzlab.conditions as conditions
from collatzlab import BasisWindow, build_section_ops, collatz, preset_section
from collatzlab.conditions import WitnessTable, ck_for_section, derive_witnesses, halving_witnesses
from collatzlab.conditions import residue_image
from collatzlab.gcmap import AffineBranch, GCMap, ResidueSet, section_sets
from collatzlab.operators import _f_returns_on_n1, _halving_tiles
from preimage_oracle import PreimageSearch, first_return, search_rows, undecided_labels

BENCH_PRESETS = (
    "collatz", "qx1:5", "mersenne:3", "mersenne:4", "mersenne:5", "3xd:1", "3xd:3", "3xd:5", "3xd:9",
)
WIDE = {"collatz": 10**5, "qx1:5": 10**5}  # the window of section-battery


def assert_rows_match_search(gcmap, n1, n2, removed, hi, fuels=(1, 3, 10**4), equal=True, keep=None):
    """Rows and inconclusive columns of sigma ∩ [1, hi], or of the labels ``keep`` picks, against the search."""
    _, sigma = section_sets(n1, n2, removed)
    window = BasisWindow(tuple(filter(keep, sigma.members(1, hi))))
    search = PreimageSearch(gcmap, sigma)
    preimages = {r: search.preimages(r) for r in window.elements}
    for fuel in fuels:
        ops = build_section_ops(gcmap, n1, n2, window, fuel, n2_removed=removed)
        undecided = undecided_labels(gcmap, sigma, window, fuel)
        rows1, rows2 = search_rows(n1, n2, window, preimages, undecided)
        assert ops.inconclusive_columns == undecided
        if equal:
            assert (ops.t1.exact_rows, ops.t2.exact_rows) == (rows1, rows2), fuel
        else:
            assert ops.t1.exact_rows <= rows1 and ops.t2.exact_rows <= rows2, fuel
    return ops


@pytest.mark.parametrize(
    "ref",
    BENCH_PRESETS + ("qx1:7", "qx1:9", "qx1:11", "qx1:13", "mersenne:6", "mersenne:7", "mersenne:8"),
)
def test_closed_form_rows_equal_the_search(ref):
    sec = preset_section(ref)
    assert_rows_match_search(sec.map, sec.n1, sec.n2, sec.n2_removed, WIDE.get(ref, 10**4))


@pytest.mark.parametrize("d", range(5, 60, 2))
def test_closed_form_rows_equal_the_search_on_punctured_sections(d):
    # 3x+d sections with d >= 5 lose up to seven values of N2; on 3xd:23, 35,
    # 41, 53 and 59 the puncture 2 doubles into another (8 or 32) on its way to 128
    sec = preset_section(f"3xd:{d}")
    n2_set, sigma = section_sets(sec.n1, sec.n2, sec.n2_removed)
    for e in sec.n2_removed:  # the witness jumps reach the first doubling of e in sigma
        v = 2 * e
        while v not in sigma:
            v *= 2
        assert e not in sigma and sec.witnesses.climb(e, sigma) == v and v in n2_set
    rep = ck_for_section(sec.map, sec.n1, sec.n2, sec.witnesses, 3000, 10**4, removed=sec.n2_removed)
    assert rep.verdict_kind == "witnessed"
    assert_rows_match_search(sec.map, sec.n1, sec.n2, sec.n2_removed, 3000)


@pytest.mark.parametrize("ref", ["collatz", "qx1:5", "3xd:5", "mersenne:3"])
def test_closed_form_rows_equal_the_search_on_scattered_windows(ref):
    # on a window sigma ∩ [1, hi] every branch preimage in N1 is a smaller
    # label, so only a window with gaps tests that part of the rows
    sec, rng = preset_section(ref), random.Random(ref)
    for _ in range(3):
        assert_rows_match_search(
            sec.map, sec.n1, sec.n2, sec.n2_removed, 2000, keep=lambda n: rng.random() < 0.7
        )


def test_shifts_past_int64_are_decided_without_shifting():
    # mersenne:8 doubles some labels 1,024 times before they reach N2; the
    # rows against the search are in test_closed_form_rows_equal_the_search
    sec = preset_section("mersenne:8")
    window = BasisWindow.section(sec.sigma, 10**4)
    mw, exponents = sec.witnesses.modulus, sec.witnesses.exponents
    kappa = {n: exponents[n % mw] for n in window.elements}
    assert max(kappa.values()) > 62
    ops = build_section_ops(sec.map, sec.n1, sec.n2, window, 10**4)
    # a tile past the window leaves its row inexact, and one inside certifies it
    assert all(n not in ops.t2.exact_rows for n, k in kappa.items() if n << k > 10**4)
    assert ops.t2.exact_rows == {n for n, k in kappa.items() if n << k <= 10**4} - {
        n for n in window.elements if any(m not in window for m in sec.map.preimage(n) if m in sec.n1)
    }


def density(witnesses) -> Fraction:
    return sum(Fraction(1, 2**k * witnesses.modulus) for k in witnesses.exponents.values())


def test_section_that_does_not_tile_certifies_no_t2_row():
    gcmap, n1, n2 = collatz(), ResidueSet.of(6, [1]), ResidueSet.of(18, [4])
    assert residue_image(gcmap, n1).same_set(n2)
    # the witnesses exist, but their tiles fill 22/64 of N2
    assert density(derive_witnesses(n1, n2)) == Fraction(22, 1152) < Fraction(64, 1152)
    # 40 -> 20 -> 10 -> 5 -> 16 -> 8 -> 4: an odd step on the way back to sigma
    _, sigma = section_sets(n1, n2)
    assert first_return(gcmap, sigma, 40, 100) == 4
    assert _f_returns_on_n1(gcmap, n1, sigma) and _halving_tiles(gcmap, n1, n2) is None
    ops = assert_rows_match_search(gcmap, n1, n2, frozenset(), 2000, equal=False)
    assert not ops.t2.exact_rows
    assert ops.t1.exact_rows  # N1 and N2 are disjoint, so (F1) alone certifies T1


def test_map_that_does_not_halve_every_even_n_fails_f2():
    # the collatz section, under a map that sends n ≡ 2 (mod 4) to n + 2
    gcmap = GCMap(4, (
        AffineBranch(1, ResidueSet.of(4, [1, 3]), 3, 1, 1),
        AffineBranch(2, ResidueSet.of(4, [0]), 1, 0, 2),
        AffineBranch(3, ResidueSet.of(4, [2]), 1, 2, 1),
    ))
    sec = preset_section("collatz")
    assert gcmap.validate().ok and _halving_tiles(collatz(), sec.n1, sec.n2) is not None
    assert _halving_tiles(gcmap, sec.n1, sec.n2) is None
    ops = build_section_ops(gcmap, sec.n1, sec.n2, BasisWindow.section(sec.sigma, 300), 10**4)
    assert not ops.t2.exact_rows
    # (F1) still holds, f being 3n + 1 on N1, so T1 rows stay certified, and
    # each holds its forward preimages (here a search gives up on some rows)
    entries = ops.t1.adjoint().cols
    assert ops.t1.exact_rows
    for r in ops.t1.exact_rows:
        forward = {m for m in sec.n1.members(1, 4000) if first_return(gcmap, sec.sigma, m, 100) == r}
        assert set(entries.get(r, {})) == forward


def test_map_splitting_the_even_classes_over_two_halving_branches_fails_f2_and_ck():
    # n ≡ 0 and n ≡ 2 (mod 4) both go to n/2, but through two branches
    gcmap = GCMap(4, (
        AffineBranch(1, ResidueSet.of(4, [1, 3]), 3, 1, 1),
        AffineBranch(2, ResidueSet.of(4, [0]), 1, 0, 2),
        AffineBranch(3, ResidueSet.of(4, [2]), 1, 0, 2),
    ))
    sec = preset_section("collatz")
    assert gcmap.validate().ok
    with pytest.raises(ValueError, match="even residue 2 mod 4 is not on the n/2 branch"):
        halving_witnesses(gcmap, sec.n1, sec.n2)
    rep = ck_for_section(gcmap, sec.n1, sec.n2, sec.witnesses, 300, 10**4)
    assert (rep.verdict_kind, rep.detail) == ("failed", "even residue 2 mod 4 is not on the n/2 branch")
    assert _halving_tiles(gcmap, sec.n1, sec.n2) is None
    ops = build_section_ops(gcmap, sec.n1, sec.n2, BasisWindow.section(sec.sigma, 300), 10**4)
    assert not ops.t2.exact_rows and ops.t1.exact_rows


def test_section_missing_part_of_f_n1_certifies_no_row():
    gcmap, n1, n2 = collatz(), ResidueSet.of(6, [1, 5]), ResidueSet.of(18, [4])
    _, sigma = section_sets(n1, n2)
    assert 16 in residue_image(gcmap, n1) and 16 not in sigma  # f(5) = 16
    assert not _f_returns_on_n1(gcmap, n1, sigma)
    assert _halving_tiles(gcmap, n1, n2) is not None  # (F1) alone fails here
    ops = assert_rows_match_search(gcmap, n1, n2, frozenset(), 2000, equal=False)
    assert not ops.t1.exact_rows and not ops.t2.exact_rows


def test_sigma_puncture_produced_by_f_fails_f1():
    # declaring f(1) = 8 a puncture of the 3x+5 section leaves f(N1) outside sigma
    sec = preset_section("3xd:5")
    _, sigma = section_sets(sec.n1, sec.n2, sec.n2_removed | {8})
    assert not _f_returns_on_n1(sec.map, sec.n1, sigma)
    _, sigma = section_sets(sec.n1, sec.n2, sec.n2_removed)
    assert _f_returns_on_n1(sec.map, sec.n1, sigma)


def section_presets():
    for q in range(3, 102, 2):
        if q not in (21, 39, 55, 57):  # ord_{q^2}(2) != q * ord_q(2): no section
            yield f"qx1:{q}"
    yield from (f"mersenne:{k}" for k in range(3, 11))
    yield from (f"3xd:{d}" for d in range(1, 10, 2))


@pytest.mark.parametrize("ref", list(section_presets()))
def test_proof_holds_on_every_section_preset(ref):
    sec = preset_section(ref)
    witnesses = _halving_tiles(sec.map, sec.n1, sec.n2)
    assert _f_returns_on_n1(sec.map, sec.n1, sec.sigma) and witnesses is not None
    assert witnesses == sec.witnesses
    if len(witnesses.exponents) < 5000:  # the tiling identity, summed the slow way
        assert density(witnesses) == Fraction(len(sec.n2.residues), sec.n2.modulus)


# --- ck_for_section part (c) against its per-label loop ----------------------------


def loop_part_c(n1, sigma_set, n2_set, witnesses, window, value, unknown):
    """Part (c) of ``ck_for_section`` as a loop over labels: the failure message or the undecided labels."""
    members = list(sigma_set.members(1, window))
    returns = dict(zip(members, np.where(unknown, None, value).tolist()))
    undecided, seen_n2 = [], {}
    for n, v in returns.items():
        if v is None:
            undecided.append(n)
        elif n in n1:
            if v not in n2_set:
                return f"P({n}) = {v} with {n} in N1 but value outside N2"
        else:
            if v not in sigma_set:
                return f"P({n}) = {v} outside the section"
            if v in seen_n2:
                return f"P|N2 collision: P({seen_n2[v]}) = P({n}) = {v}"
            seen_n2[v] = n
    for s in sigma_set.members(1, window):
        m = s * 2 ** witnesses.exponents[s % witnesses.modulus]
        if m <= window and m in sigma_set:
            if returns[m] is None:
                undecided.append(m)
            elif returns[m] != s:
                return f"witness failure: P({m}) = {returns[m]}, expected {s}"
    return undecided


def corrupt(rng, members, value, unknown, n1):
    """Seeded faults in a window's first returns: out-of-section values, collisions, swaps, undecided lanes."""
    value, unknown = value.copy(), unknown.copy()
    odd = [i for i, n in enumerate(members.tolist()) if n in n1]
    even = [i for i, n in enumerate(members.tolist()) if n not in n1]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind == 0:
            i = rng.choice(odd)
            value[i] = members[i]  # an N1 value, outside N2
        elif kind == 1:
            value[rng.choice(even)] = 2  # outside every preset section
        elif kind == 2:
            i, j = sorted(rng.sample(even, 2))
            value[j] = value[i]
        elif kind == 3:
            i, j = rng.sample(even, 2)
            value[i], value[j] = value[j], value[i]
        else:
            lanes = rng.sample(range(len(members)), rng.randint(1, 4))
            value[lanes], unknown[lanes] = 0, True
    return value, unknown


@pytest.mark.parametrize("ref", ["collatz", "qx1:5", "3xd:5"])
def test_ck_part_c_reports_what_the_label_loop_reports(ref, monkeypatch):
    sec = preset_section(ref)
    n2_set, sigma_set = section_sets(sec.n1, sec.n2, sec.n2_removed)
    window, fuel = 600, 10**4
    real = conditions.return_times
    rng = random.Random(17)
    kinds = set()
    for _ in range(150):
        faulty = {}

        def faulty_returns(gcmap, sigma, xs, fuel):
            value, tau, unknown = real(gcmap, sigma, xs, fuel)
            faulty["value"], faulty["unknown"] = corrupt(rng, np.asarray(xs), value, unknown, sec.n1)
            return faulty["value"], tau, faulty["unknown"]

        monkeypatch.setattr(conditions, "return_times", faulty_returns)
        rep = ck_for_section(sec.map, sec.n1, sec.n2, sec.witnesses, window, fuel, removed=sec.n2_removed)
        want = loop_part_c(sec.n1, sigma_set, n2_set, sec.witnesses, window, faulty["value"], faulty["unknown"])
        if isinstance(want, str):
            assert (rep.verdict_kind, rep.detail) == ("failed", want)
            kinds.add(next(k for k in ("outside N2", "outside the section", "collision", "witness") if k in want))
        else:
            assert want and rep.verdict_kind == "inconclusive"
            assert rep.detail == f"{len(want)} first returns undecided within fuel {fuel}, from {want[0]}"
            kinds.add("undecided")
    assert kinds == {"outside N2", "outside the section", "collision", "witness", "undecided"}


# --- ck_for_section part (b) against the walk over every doubling -------------------


def walk_part_b(gcmap, n1, n2, removed, witnesses, fuel):
    """Part (b) of ``ck_for_section`` as it walked every doubling of every witness
    residue: the failure message, "undecided" when a puncture ran out of fuel, or None."""
    n2_set, sigma_set = section_sets(n1, n2, removed)
    sigma, mw = sigma_set.classes, witnesses.modulus
    if mw % sigma.modulus or mw % n2.modulus:
        return f"witness modulus {mw} must be a multiple of the section moduli"
    section_residues = sigma.at_modulus(mw).residues
    if set(witnesses.exponents) != set(section_residues):
        return "witness table mismatch"
    halving = next((br for br in gcmap.branches if (br.a, br.b, br.c) == (1, 0, 2)), None)
    if halving is None:
        return "map has no n/2 branch"
    if mw % gcmap.modulus:
        return f"witness modulus {mw} must be a multiple of the map modulus"
    halved = {r for r in range(mw) if gcmap.branch_of(r or mw) is halving}
    n2_residues = n2.at_modulus(mw).residues
    for r, kappa in sorted(witnesses.exponents.items()):
        if kappa < 1:
            return f"residue {r}: exponent must be >= 1"
        v = r
        for j in range(1, kappa):
            v = 2 * v % mw
            if v in section_residues:
                return f"residue {r}: intermediate 2^{j}*n is inside the section"
            if v not in halved:
                return f"residue {r}: intermediate 2^{j}*n is not halved by f"
        v = 2 * v % mw
        if v not in n2_residues:
            return f"residue {r}: 2^{kappa}*n does not land in N2"
        if v not in halved:
            return f"residue {r}: 2^{kappa}*n is not halved by f"
    undecided = None
    for e in sorted(removed):
        for n in witnesses.bases(e):
            if n in sigma_set:
                v = e
                for _ in range(fuel):
                    v *= 2
                    if v in sigma_set:
                        if v not in n2_set:
                            return f"punctured witness {n}: doubling re-enters via {v} outside N2"
                        break
                else:
                    undecided = "undecided"
    return undecided


def part_b_presets():
    yield from (ref for ref in section_presets() if ref.startswith("qx1"))
    yield from (f"mersenne:{k}" for k in range(3, 9))
    yield from (f"3xd:{d}" for d in range(1, 60, 2))


@pytest.mark.parametrize("ref", list(part_b_presets()))
def test_ck_part_b_passes_where_the_doubling_walk_passes(ref):
    sec = preset_section(ref)
    assert walk_part_b(sec.map, sec.n1, sec.n2, sec.n2_removed, sec.witnesses, 10**4) is None
    # the window ends at the least section label: one with none is inconclusive
    window = next(n for n in range(1, 10**4) if n in sec.sigma)
    rep = ck_for_section(sec.map, sec.n1, sec.n2, sec.witnesses, window, 10**4, removed=sec.n2_removed)
    assert rep.verdict_kind == "witnessed"


def corrupt_table(rng, witnesses, kind):
    """A copy of the table with one exponent moved by one, one residue dropped or
    one added, and the failure that names it."""
    exponents = dict(witnesses.exponents)
    r = rng.choice(sorted(exponents))
    if kind == "add":
        r = rng.choice([v for v in range(witnesses.modulus) if v not in exponents])
        exponents[r] = rng.randint(1, 3)
        detail = f"residue {r}: exponent {exponents[r]}, not a section residue"
        return WitnessTable(witnesses.modulus, exponents), detail
    if kind == "drop":
        del exponents[r]
    else:
        exponents[r] += 1 if kind == "+1" else -1
    detail = f"residue {r}: exponent {exponents.get(r, 'missing')}, minimal is {witnesses.exponents[r]}"
    return WitnessTable(witnesses.modulus, exponents), detail


@pytest.mark.parametrize(
    "ref", ["collatz", "qx1:5", "qx1:7", "mersenne:4", "3xd:3", "3xd:5", "3xd:17", "3xd:53"]
)
def test_ck_part_b_fails_where_the_doubling_walk_fails(ref):
    sec = preset_section(ref)
    rng = random.Random(ref)
    for kind in ("+1", "-1", "drop", "add") * 10:
        table, detail = corrupt_table(rng, sec.witnesses, kind)
        assert walk_part_b(sec.map, sec.n1, sec.n2, sec.n2_removed, table, 10**4) is not None
        rep = ck_for_section(sec.map, sec.n1, sec.n2, table, 1, 10**4, removed=sec.n2_removed)
        assert (rep.verdict_kind, rep.detail) == ("failed", detail)


def test_ck_part_b_rejects_a_table_at_a_multiple_of_the_derived_modulus():
    # the walk accepts this lift of the table; the proof compares tables as derived
    sec = preset_section("qx1:5")
    mw = sec.witnesses.modulus
    exponents = sec.witnesses.exponents
    lifted = WitnessTable(2 * mw, {r: exponents[r % mw] for r in range(2 * mw) if r % mw in exponents})
    assert walk_part_b(sec.map, sec.n1, sec.n2, sec.n2_removed, lifted, 10**4) is None
    rep = ck_for_section(sec.map, sec.n1, sec.n2, lifted, 1000, 10**4)
    assert (rep.verdict_kind, rep.detail) == ("failed", f"witness modulus {2 * mw}, derived is {mw}")


def test_tiles_refuse_values_outside_the_section():
    witnesses = preset_section("collatz").witnesses  # 8 classes mod 18
    with pytest.raises(ValueError, match="2 is in no witness class mod 18"):
        witnesses.tiles(np.array([2, 3, 6]), 1000)
    with pytest.raises(ValueError, match="6 is in no witness class"):
        witnesses.tiles(np.array([1, 4, 6, 5]), 1000)
    # a residue past the last class raises ValueError too, not IndexError
    with pytest.raises(ValueError, match="5 is in no witness class mod 18"):
        WitnessTable(18, {1: 2, 4: 2}).tiles(np.array([1, 5]), 1000)

"""Truncated operators: algebra, exactness masks, relation batteries, spans."""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from norm_bound_oracle import norm_bound_oracle

from collatzlab import (
    INCONCLUSIVE,
    PASS,
    VIOLATION,
    AffineBranch,
    BasisWindow,
    DomainError,
    GCMap,
    ResidueSet,
    SeparatingResult,
    TruncatedOperator,
    build_T,
    build_branch_ops,
    build_section_ops,
    collatz,
    descent_check,
    identity_map,
    identity_operator,
    norm_bound_check,
    preset_map,
    preset_section,
    qx1,
    reachable_span,
    separating_condition,
    span_vs_class,
    verify_branch_relations,
    verify_section_relations,
)
from collatzlab.gcmap import Report, verdict
from collatzlab.operators import IdentityCheck, RelationReport, _word_step, compare_certified, zero_operator
from preimage_oracle import first_return


def _random_op(window: BasisWindow, rng: random.Random) -> TruncatedOperator:
    cols = {}
    for n in window.elements:
        if rng.random() < 0.7:
            cols[n] = {rng.choice(window.elements): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
    labels = frozenset(window.elements)
    return TruncatedOperator(window, cols, labels, labels)


def _dense(op: TruncatedOperator):
    w, cols = op.window, op.cols
    return [[cols.get(c, {}).get(r, 0) for c in w.elements] for r in w.elements]


def _proj(w: BasisWindow, onto) -> TruncatedOperator:
    every = frozenset(w.elements)
    return TruncatedOperator(w, {n: {n: 1} for n in onto}, every, every)


# --- algebra against dense arithmetic ------------------------------------------


def test_product_matches_dense():
    rng = random.Random(0)
    w = BasisWindow.range(1, 12)
    for _ in range(20):
        a, b = _random_op(w, rng), _random_op(w, rng)
        da, db = _dense(a), _dense(b)
        dc = [
            [sum(da[i][k] * db[k][j] for k in range(len(w))) for j in range(len(w))]
            for i in range(len(w))
        ]
        assert _dense(a @ b) == dc


def test_adjoint_is_involution_and_transpose():
    rng = random.Random(1)
    w = BasisWindow.range(1, 10)
    for _ in range(20):
        a = _random_op(w, rng)
        assert a.adjoint().adjoint() == a
        da, dt = _dense(a), _dense(a.adjoint())
        assert all(da[i][j] == dt[j][i] for i in range(len(w)) for j in range(len(w)))


def test_addition_and_identity():
    w = BasisWindow.range(1, 6)
    eye = identity_operator(w)
    p1 = _proj(w, [1, 3, 5])
    p2 = _proj(w, [2, 4, 6])
    assert p1 + p2 == eye
    assert compare_certified("p+p=I", p1 + p2, eye).holds


def test_exactness_propagates_through_products():
    w = BasisWindow.range(1, 8)
    t = build_T(collatz(), w)
    # column 7 of T is empty (f(7)=22 leaves the window) and marked non-exact
    assert 7 not in t.exact_cols and 7 not in t.cols
    prod = t.adjoint() @ t
    assert 7 not in prod.exact_cols
    # T itself is not an isometry: 1 and 8 both map to 4, and the certified
    # comparison sees exactly that, with a witness
    chk = compare_certified("T*T=I", prod, identity_operator(w))
    assert not chk.holds and chk.witness == (8, 1, 1, 0)
    # the branch operator T1 is a partial isometry, certified columns included
    t1, _ = build_branch_ops(collatz(), w)
    chk = compare_certified(
        "T1*T1=proj(odd)", t1.adjoint() @ t1, _proj(w, [1, 3, 5, 7])
    )
    assert chk.holds and chk.columns_checked > 0


def test_product_exactness_masks_follow_their_definition():
    # column n of AB is exact iff B's column n is exact and every row of it is
    # an exact column of A; row r iff A's row r is exact and every column of it
    # is an exact row of B
    rng = random.Random(3)
    w = BasisWindow.range(1, 12)
    for _ in range(50):
        a, b = (
            TruncatedOperator(
                w,
                _random_op(w, rng).cols,
                exact_cols=frozenset(n for n in w.elements if rng.random() < 0.6),
                exact_rows=frozenset(n for n in w.elements if rng.random() < 0.6),
            )
            for _ in range(2)
        )
        prod = a @ b
        b_cols, a_rows = b.cols, a.adjoint().cols
        assert prod.exact_cols == {
            n for n in w.elements
            if n in b.exact_cols and all(r in a.exact_cols for r in b_cols.get(n, {}))
        }
        assert prod.exact_rows == {
            r for r in w.elements
            if r in a.exact_rows and all(n in b.exact_rows for n in a_rows.get(r, {}))
        }


def test_build_T_adjoint_column_is_preimage():
    rows = build_T(collatz(), BasisWindow.range(1, 8)).adjoint().cols
    assert rows[1] == {2: 1}
    assert rows[2] == {4: 1}  # 0.5 not integral; only 4 halves to 2
    assert rows[4] == {1: 1, 8: 1}


# --- batteries -----------------------------------------------------------------------


def test_branch_relations_collatz():
    rep = verify_branch_relations(collatz(), BasisWindow.range(1, 500))
    assert rep.ok
    assert {c.name for c in rep.checks} >= {"sum_i Ti*Ti = I", "sum_i Ti = T"}


def test_branch_ops_sum_to_T():
    w = BasisWindow.range(1, 300)
    m = qx1(5)
    t = build_T(m, w)
    t1, t2 = build_branch_ops(m, w)
    assert (t1 + t2).cols == t.cols


@pytest.mark.parametrize("ref", ["collatz", "qx1:5", "mersenne:3", "3xd:5", "3xd:9"])
def test_section_relations(ref):
    sec = preset_section(ref)
    win = BasisWindow.section(sec.sigma, 3000)
    ops = build_section_ops(sec.map, sec.n1, sec.n2, win, 10**5, n2_removed=sec.n2_removed)
    assert not ops.inconclusive_columns
    rep = verify_section_relations(ops)
    assert rep.ok, rep.failures()
    assert all(c.columns_checked > 0 for c in rep.checks)


def test_a_check_that_certifies_no_column_is_inconclusive():
    # sigma of 3xd:9 starts at 9, so the section window below 8 has no label
    sec = preset_section("3xd:9")
    ops = build_section_ops(sec.map, sec.n1, sec.n2, BasisWindow.section(sec.sigma, 8), 10)
    rep = verify_section_relations(ops)
    assert all(c.holds and c.columns_checked == 0 for c in rep.checks)
    assert rep.status == INCONCLUSIVE and not rep.ok
    some, none = IdentityCheck("a", True, 3), IdentityCheck("b", True, 0)
    assert RelationReport((some,)).status == PASS and RelationReport((some, none)).status == INCONCLUSIVE
    assert RelationReport((none, IdentityCheck("c", False, 1, (1, 1, 0, 1)))).status == VIOLATION


def test_corrupted_entry_is_reported_with_witness():
    sec = preset_section("collatz")
    win = BasisWindow.section(sec.sigma, 500)
    ops = build_section_ops(sec.map, sec.n1, sec.n2, win, 10**5)
    bad = ops.t1.with_entry(4, 1, 0)  # erase T1 e_1 = e_4
    chk = compare_certified("T2*T2T1 = T1", ops.t2.adjoint() @ ops.t2 @ bad, bad)
    # both sides see the corruption consistently, so compare against the original
    chk = compare_certified("corrupted T1 vs T1", bad, ops.t1)
    assert not chk.holds
    assert chk.witness == (4, 1, 0, 1)


def test_section_window_must_lie_in_sigma():
    sec = preset_section("collatz")
    with pytest.raises(DomainError):
        build_section_ops(sec.map, sec.n1, sec.n2, BasisWindow.range(1, 10), 100)


def test_section_preimage_rows_are_exact():
    # T2 row n is exact iff the doubling witness 2^kappa * n fits in the window
    sec = preset_section("collatz")
    win = BasisWindow.section(sec.sigma, 2000)
    ops = build_section_ops(sec.map, sec.n1, sec.n2, win, 10**5)
    for r in win.elements:
        kappa = sec.witnesses.exponents[r % 18]
        assert (r in ops.t2.exact_rows) == (r * 2**kappa <= 2000)


def test_section_rows_reached_by_inconclusive_columns_are_not_exact():
    # at fuel 3 some first returns are unknown; a row one of them lands on is
    # missing that entry, so certifying it would fake an S1*S1 = I failure
    sec = preset_section("collatz")
    win = BasisWindow.section(sec.sigma, 600)
    ops = build_section_ops(sec.map, sec.n1, sec.n2, win, 3, n2_removed=sec.n2_removed)
    assert ops.inconclusive_columns
    for m in ops.inconclusive_columns:
        r = first_return(sec.map, sec.sigma, m, 10**4)
        assert r in win
        assert r not in (ops.t1 if m in sec.n1 else ops.t2).exact_rows
    assert verify_section_relations(ops).ok


# --- spans -------------------------------------------------------------------------


def test_reachable_span_small():
    t = build_T(collatz(), BasisWindow.range(1, 8))
    assert reachable_span([t], 1, 1) == {1, 2, 4}
    # 3, 5, 6, 7 connect to the cycle only through values above the window
    assert reachable_span([t], 1, None) == {1, 2, 4, 8}
    assert reachable_span([t], 6, None) == {3, 6}


def test_span_vs_class_identity_map():
    rep = span_vs_class(identity_map(), BasisWindow.range(1, 50), 10)
    assert rep.ok
    assert all(e.span_size == 1 for e in rep.entries)


def test_span_vs_class_collatz_window():
    rep = span_vs_class(collatz(), BasisWindow.range(1, 2000), 10**4, starts=range(1, 101))
    assert rep.ok


# --- commutant lemma cores ----------------------------------------------------------


def test_descent_small():
    rep = descent_check(10**4)
    assert rep.ok and rep.checked == 2499 and not rep.counterexamples


def test_descent_rejects_tiny_limit():
    with pytest.raises(ValueError):
        descent_check(4)


@dataclass(frozen=True)
class WordCheckReport(Report):
    period: int
    word: tuple[int, ...]
    fixed_vector_ok: bool
    annihilations_ok: bool
    contraction_failures: tuple[int, ...]
    contraction_inconclusive: tuple[int, ...]
    sampled: int

    @property
    def status(self) -> int:
        violation = self.contraction_failures or not (self.fixed_vector_ok and self.annihilations_ok)
        return verdict(bool(violation), bool(self.contraction_inconclusive))


def separating_word_check(gcmap, x: int, window: BasisWindow, fuel: int, samples: int = 20) -> WordCheckReport:
    """The contraction mechanism of the separating-condition word T_I at x.

    Each column of T_I = T_{i_n} ... T_{i_1} is one label or 0, so
    ``_word_step`` reads it exactly, with no window: T_I e_x = e_x and
    T_I e_{f^j(x)} = 0 for 1 <= j < n.  Then, for sampled y ~ x (the other
    points of the cycle, then the window's labels), T_I^m e_y must die, or
    force y = x, within fuel applications of the word.
    """
    sep = separating_condition(gcmap, x, fuel)
    if not isinstance(sep, SeparatingResult) or not sep.aperiodic:
        raise ValueError(f"map does not satisfy the separating condition for {x}: {sep}")
    word = tuple(sep.word)
    cycle = gcmap.orbit(x, fuel).prefix  # x, f(x), ..., f^(n-1)(x): x has period n
    fixed_ok = _word_step(gcmap, word, x) == x
    annihilations_ok = all(_word_step(gcmap, word, v) is None for v in cycle[1:])
    failures, inconclusive = [], []
    picked = (list(cycle[1:]) + [y for y in window.elements if y not in cycle])[:samples]
    for y in picked:  # T_I^m e_y must reach 0, never e_x
        cur = y
        for _ in range(fuel):
            if cur is None or cur == x:
                break
            cur = _word_step(gcmap, word, cur)
        if cur == x and y != x:
            failures.append(y)
        elif cur is not None:
            inconclusive.append(y)
    return WordCheckReport(
        sep.period, word, fixed_ok, annihilations_ok, tuple(failures), tuple(inconclusive), len(picked)
    )


def test_separating_word_check_collatz():
    rep = separating_word_check(collatz(), 1, BasisWindow.range(1, 500), 10**4)
    assert rep.ok
    assert rep.word == (1, 2, 2) and rep.fixed_vector_ok and rep.annihilations_ok
    assert not rep.contraction_failures


def test_separating_word_check_out_of_fuel_is_inconclusive():
    # 65 = 1 + 4^3 survives three applications of the word (1, 2, 2), so fuel 3 cannot decide it
    rep = separating_word_check(collatz(), 1, BasisWindow.range(1, 100), 3, samples=100)
    assert rep.contraction_inconclusive == (65,) and not rep.contraction_failures
    assert rep.status == INCONCLUSIVE and not rep.ok
    assert separating_word_check(collatz(), 1, BasisWindow.range(1, 100), 4, samples=100).ok


@pytest.mark.parametrize("hi", [2, 3, 4, 500])
def test_separating_word_check_needs_no_window(hi):
    # the window [1, hi] cuts the column of 1 in T_I = T2 T2 T1 off below hi = 4
    # (1 -> 4 leaves it), but T_I is read on labels, so every window decides it
    rep = separating_word_check(collatz(), 1, BasisWindow.range(1, hi), 10**4)
    assert rep.status == PASS
    assert rep.fixed_vector_ok and rep.annihilations_ok and not rep.contraction_failures


# --- words on labels against their windowed products ------------------------------------

# acceptance criterion 6: (map, x) of each preset's separating-condition word.
# collatz's word at 1 is (1, 2, 2), so its case at [1, 4], where the column of
# 1 is certified, also checks descent_check's fixed vector T2^2 T1 e_1 = e_1
WORD_CASES = [
    ("collatz", 1), ("qx1:5", 1), ("mersenne:3", 1), ("mersenne:4", 1), ("mersenne:5", 1),
    ("3xd:1", 1), ("3xd:3", 3), ("3xd:5", 5), ("3xd:9", 9),
]


def windowed_word(gcmap, word, window: BasisWindow) -> TruncatedOperator:
    """T_I = T_{i_n} ... T_{i_1} as a product of the truncated branch operators."""
    ops = dict(zip((br.index for br in gcmap.branches), build_branch_ops(gcmap, window)))
    t_word = None
    for letter in word:  # rightmost factor T_{i_1} acts first
        op = ops[letter]
        t_word = op if t_word is None else op @ t_word
    return t_word


def certified_mismatches(gcmap, word, window: BasisWindow, labels, word_step=_word_step) -> tuple[int, list]:
    """(columns read, mismatches): each of ``labels`` whose column the windowed
    T_I certifies exact must be e_{word_step(y)}, or 0 where that is None."""
    t_word = windowed_word(gcmap, word, window)
    cols, exact = t_word.cols, t_word.exact_cols
    read = [y for y in labels if y in exact]
    bad = []
    for y in read:
        w = word_step(gcmap, word, y)
        if cols.get(y) != (None if w is None else {w: 1}):
            bad.append((y, cols.get(y), w))
    return len(read), bad


@pytest.mark.parametrize("hi", [2, 4, 50, 500])
@pytest.mark.parametrize("ref, x", WORD_CASES)
def test_word_step_matches_every_certified_column(ref, x, hi):
    gcmap = preset_map(ref)
    word = tuple(separating_condition(gcmap, x, 1000).word)
    cycle = gcmap.orbit(x, 1000).prefix  # x, f(x), ..., f^(n-1)(x)
    window = BasisWindow.range(1, hi)
    # the columns x and f^j(x) that the separating word check reads, all
    # certified once the window holds the cycle; then every column
    read, bad = certified_mismatches(gcmap, word, window, [v for v in cycle if v <= hi])
    assert bad == [] and (read == len(cycle) or hi < max(cycle))
    read, bad = certified_mismatches(gcmap, word, window, window.elements)
    assert read and bad == []


def test_word_step_mutant_that_ignores_the_itinerary_is_caught():
    def skip_index(gcmap, word, y):  # applies f len(word) times, whatever the branches
        v = y
        for _ in word:
            v = gcmap.apply(v)
        return v

    found = [
        certified_mismatches(preset_map(ref), tuple(separating_condition(preset_map(ref), x, 1000).word),
                             BasisWindow.range(1, 50), range(1, 51), skip_index)[1]
        for ref, x in WORD_CASES
    ]
    assert all(found)


def test_separating_word_check_rejects_nonperiodic():
    with pytest.raises(ValueError):
        separating_word_check(collatz(), 3, BasisWindow.range(1, 100), 1000)


# --- norm bound -----------------------------------------------------------------------


def test_norm_bound_seeded_and_exact():
    a = norm_bound_check(collatz(), BasisWindow.range(1, 300), trials=100)
    b = norm_bound_check(collatz(), BasisWindow.range(1, 300), trials=100)
    assert a == b
    assert a.ok and a.max_ratio <= 2


def test_norm_extremal_pair():
    t = build_T(collatz(), BasisWindow.range(1, 40))
    v = {5: Fraction(1), 32: Fraction(1)}  # both map to 16
    out = Counter()  # T v, read off the columns of v's support
    cols = t.cols
    for n, x in v.items():
        for r, e in cols[n].items():
            out[r] += e * x
    assert out == {16: Fraction(2)}
    ratio = Fraction(sum(x * x for x in out.values()), sum(x * x for x in v.values()))
    assert ratio == 2


def test_zero_operator_certified():
    w = BasisWindow.range(1, 5)
    z = zero_operator(w)
    assert compare_certified("0=0", z, z).columns_checked == 5


# --- one window-image step for build_T, build_branch_ops and norm_bound_check ---


@pytest.mark.parametrize("ref", ["collatz", "qx1:5", "3xd:5", "mersenne:3", "identity"])
def test_window_image_agrees_with_scalar_apply(ref):
    gcmap, rng = preset_map(ref), random.Random(4)
    windows = [BasisWindow.range(1, 300)] + [
        BasisWindow(tuple(rng.sample(range(1, 400), rng.randint(1, 60)))) for _ in range(30)
    ]
    for window in windows:
        cols = {n: {v: 1} for n in window.elements if (v := gcmap.apply(n)) in window}
        t = build_T(gcmap, window)
        assert t.cols == cols and t.exact_cols == frozenset(cols)
        for br, op in zip(gcmap.branches, build_branch_ops(gcmap, window)):
            assert op.cols == {n: c for n, c in cols.items() if gcmap.branch_of(n) is br}
        if cols:
            assert norm_bound_check(gcmap, window, trials=40) == norm_bound_oracle(gcmap, window, 40)


def test_window_image_raises_as_apply_does():
    halves_odds = GCMap(2, (
        AffineBranch(1, ResidueSet.of(2, [1]), 1, 0, 2),
        AffineBranch(2, ResidueSet.of(2, [0]), 1, 0, 2),
    ))
    gap = GCMap(3, (AffineBranch(1, ResidueSet.of(3, [0, 1]), 1, 0, 1),))
    window = BasisWindow.range(1, 9)
    # the first label apply rejects: 1 is not halved exactly, no guard holds 2
    for gcmap, first in ((halves_odds, 1), (gap, 2)):
        with pytest.raises((ArithmeticError, ValueError)) as want:
            gcmap.apply(first)
        for build in (build_T, build_branch_ops, lambda g, w: norm_bound_check(g, w, 5)):
            with pytest.raises(type(want.value), match=re.escape(str(want.value))):
                build(gcmap, window)


def test_window_label_below_one_is_rejected_when_the_window_is_built():
    for labels in ((0, 1, 2), (3, -1), (0,)):
        with pytest.raises(DomainError, match="window label must be a positive integer"):
            BasisWindow(labels)
    assert BasisWindow(()).elements == ()
    assert 2 in BasisWindow((5, 2, 2)) and 3 not in BasisWindow((5, 2)) and 9 not in BasisWindow(())


def test_span_vs_class_rejects_an_empty_or_gapped_window():
    for window in (BasisWindow(()), BasisWindow((1, 3)), BasisWindow((2, 3))):
        with pytest.raises(ValueError, match=re.escape("contiguous window [1, hi]")):
            span_vs_class(collatz(), window, 100)

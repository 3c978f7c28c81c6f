"""The array-backed operator algebra against a dict-of-dict oracle.

``_DictOp`` keeps the label-indexed dict algebra the arrays replaced: sparse
columns as dicts, exactness masks as label sets, and the same rules for
products, adjoints, sums and certified comparison.  Every result of the
array algebra must equal it, label for label.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from collatzlab import (
    BasisWindow,
    TruncatedOperator,
    build_section_ops,
    collatz,
    norm_bound_check,
    preset_section,
    verify_section_relations,
)
import collatzlab.operators as operators
from collatzlab.cli import main
from collatzlab.operators import IdentityCheck, compare_certified


@dataclasses.dataclass(frozen=True)
class _DictOp:
    cols: dict
    exact_cols: frozenset
    exact_rows: frozenset

    def __post_init__(self) -> None:
        clean = {
            n: nonzero for n, col in self.cols.items() if (nonzero := {r: v for r, v in col.items() if v != 0})
        }
        object.__setattr__(self, "cols", clean)

    def rows(self) -> dict:
        out: dict = {}
        for n, col in self.cols.items():
            for r, v in col.items():
                out.setdefault(r, {})[n] = v
        return out

    def adjoint(self) -> "_DictOp":
        return _DictOp(self.rows(), self.exact_rows, self.exact_cols)

    def __matmul__(self, other: "_DictOp") -> "_DictOp":
        cols: dict = {}
        for n, bcol in other.cols.items():
            acc: dict = {}
            for m, bv in bcol.items():
                for r, av in self.cols.get(m, {}).items():
                    acc[r] = acc.get(r, 0) + av * bv
            cols[n] = acc
        exact_cols = {n for n in other.exact_cols if self.exact_cols.issuperset(other.cols.get(n, ()))}
        my_rows = self.rows()
        exact_rows = {r for r in self.exact_rows if other.exact_rows.issuperset(my_rows.get(r, ()))}
        return _DictOp(cols, frozenset(exact_cols), frozenset(exact_rows))

    def __add__(self, other: "_DictOp") -> "_DictOp":
        cols: dict = {}
        for n in set(self.cols) | set(other.cols):
            acc = dict(self.cols.get(n, {}))
            for r, v in other.cols.get(n, {}).items():
                acc[r] = acc.get(r, 0) + v
            cols[n] = acc
        return _DictOp(cols, self.exact_cols & other.exact_cols, self.exact_rows & other.exact_rows)


def _dict_compare(name: str, lhs: _DictOp, rhs: _DictOp) -> IdentityCheck:
    certified = lhs.exact_cols & rhs.exact_cols
    for n in sorted(certified):
        a, b = lhs.cols.get(n, {}), rhs.cols.get(n, {})
        if a != b:
            r = min(r for r in set(a) | set(b) if a.get(r, 0) != b.get(r, 0))
            return IdentityCheck(name, False, len(certified), (r, n, a.get(r, 0), b.get(r, 0)))
    return IdentityCheck(name, True, len(certified))


def _window(rng: random.Random) -> BasisWindow:
    # scattered labels, so that labels and positions differ
    return BasisWindow(tuple(rng.sample(range(1, 80), rng.randint(1, 14))))


def _pair(window: BasisWindow, rng: random.Random) -> tuple[TruncatedOperator, _DictOp]:
    """A random operator with negative and zero entries, empty columns and random masks."""
    labels = window.elements
    cols = {}
    for n in labels:
        if rng.random() < 0.6:
            cols[n] = {rng.choice(labels): rng.randint(-2, 2) for _ in range(rng.randint(1, 3))}
    exact_cols = frozenset(n for n in labels if rng.random() < 0.7)
    exact_rows = frozenset(n for n in labels if rng.random() < 0.7)
    return TruncatedOperator(window, cols, exact_cols, exact_rows), _DictOp(cols, exact_cols, exact_rows)


def _same(op: TruncatedOperator, ref: _DictOp) -> bool:
    return (op.cols, op.exact_cols, op.exact_rows) == (ref.cols, ref.exact_cols, ref.exact_rows)


def test_algebra_matches_dict_oracle():
    rng = random.Random(11)
    cancelled = 0
    for _ in range(400):
        w = _window(rng)
        (a, da), (b, db), (c, dc) = (_pair(w, rng) for _ in range(3))
        assert _same(a, da) and _same(a.adjoint(), da.adjoint())
        prod, dprod = a @ b, da @ db
        assert _same(prod, dprod)
        assert _same(a + b, da + db)
        assert _same(a.adjoint() @ b @ c, da.adjoint() @ db @ dc)
        # a product entry whose terms sum to zero is dropped, not stored
        terms = {
            (r, n) for n, bcol in db.cols.items() for m in bcol for r in da.cols.get(m, {})
        }
        prod_cols = prod.cols
        cancelled += sum(1 for r, n in terms if r not in prod_cols.get(n, {}))
        for lhs, rhs, dl, dr in ((prod, c, dprod, dc), (a, a, da, da), (a + b, b + a, da + db, db + da)):
            assert compare_certified("x", lhs, rhs) == _dict_compare("x", dl, dr)
    assert cancelled > 0


def test_witness_is_smallest_certified_column_then_row():
    rng = random.Random(5)
    failures = 0
    for _ in range(300):
        w = _window(rng)
        (a, da), (b, db) = _pair(w, rng), _pair(w, rng)
        got = compare_certified("a=b", a, b)
        assert got == _dict_compare("a=b", da, db)
        failures += not got.holds
    assert failures > 50


def test_cancellation_to_zero_leaves_no_entry():
    w = BasisWindow((2, 5, 9))
    every = frozenset(w.elements)
    a = TruncatedOperator(w, {2: {9: 1}, 5: {9: 1}}, every, every)
    b = TruncatedOperator(w, {9: {2: 1, 5: -1}}, every, every)
    prod = a @ b
    assert prod.cols == {} and prod == TruncatedOperator(w, {}, every, every)
    assert (a + TruncatedOperator(w, {2: {9: -1}}, every, every)).cols == {5: {9: 1}}


def test_int64_overflow_raises_instead_of_wrapping():
    w = BasisWindow((1, 2))
    every = frozenset(w.elements)
    big = TruncatedOperator(w, {1: {1: 2**40}}, every, every)
    with pytest.raises(OverflowError):
        big @ big  # 2^80
    # two terms of 2^62 sum past int64 although each fits
    a = TruncatedOperator(w, {1: {1: 2**31}, 2: {1: 2**31}}, every, every)
    b = TruncatedOperator(w, {1: {1: 2**31, 2: 2**31}}, every, every)
    with pytest.raises(OverflowError):
        a @ b
    half = TruncatedOperator(w, {1: {1: 2**62}}, every, every)
    with pytest.raises(OverflowError):
        half + half
    with pytest.raises(OverflowError):
        TruncatedOperator(w, {1: {1: 2**63}}, every, every)
    # up to the bound the arithmetic is exact
    root = TruncatedOperator(w, {1: {1: -(2**31)}}, every, every)
    assert (root @ root).cols == {1: {1: 2**62}}
    top = TruncatedOperator(w, {1: {1: 2**62 - 1}, 2: {1: 2**62 - 1}}, every, every)
    assert (top + top).cols == {1: {1: 2**63 - 2}, 2: {1: 2**63 - 2}}
    assert (top + top.with_entry(1, 1, 1 - 2**62)).cols == {2: {1: 2**63 - 2}}


def test_corrupted_s1_is_caught_by_the_battery():
    sec = preset_section("collatz")
    win = BasisWindow.section(sec.sigma, 3000)
    ops = build_section_ops(sec.map, sec.n1, sec.n2, win, 10**5)
    assert verify_section_relations(ops).ok
    s1 = ops.s1
    # an exact column whose rows are exact, so S1*S1 = I is checked there
    col = min(n for n, c in s1.cols.items() if n in s1.exact_cols and set(c) <= s1.exact_rows)
    (row,) = s1.cols[col]
    rep = verify_section_relations(dataclasses.replace(ops, s1=s1.with_entry(row, col, 2)))
    failed = {c.name: c.witness for c in rep.failures()}
    assert not rep.ok and failed["S1*S1 = I"] == (col, col, 4, 1)


def test_norm_bound_on_window_without_columns_is_an_input_error(capsys):
    # f(1) = 4 leaves the window [1, 1], so no column of T survives truncation
    with pytest.raises(ValueError, match="no column of T stays in the window"):
        norm_bound_check(collatz(), BasisWindow.range(1, 1), trials=5)
    assert main(["verify", "collatz", "--suite", "relations", "--window", "1"]) == 3
    assert "no column of T stays in the window" in capsys.readouterr().out


# --- column pointers, made on first use ---------------------------------------------


def _fresh(op: TruncatedOperator) -> TruncatedOperator:
    """The same operator with no column pointers made yet."""
    return TruncatedOperator._of(op.window, op._col, op._row, op._val, op._exact_col, op._exact_row)


def _built(op: TruncatedOperator) -> TruncatedOperator:
    """The same operator with its column pointers made."""
    op = _fresh(op)
    op._pointers()
    return op


def test_results_do_not_depend_on_built_pointers():
    rng = random.Random(23)
    for _ in range(300):
        w = _window(rng)
        (a, da), (b, db), (c, dc) = (_pair(w, rng) for _ in range(3))
        for pa, pb, pc in itertools.product((_fresh, _built), repeat=3):
            x, y, z = pa(a), pb(b), pc(c)
            assert _same(x @ y, da @ db) and _same(x + y, da + db) and _same(x.adjoint(), da.adjoint())
            assert _same(x.adjoint() @ y @ z, da.adjoint() @ db @ dc)
            assert (x @ y == a @ b) and (x + y == b + a) and (x == a) and (x == pb(a))
            assert (x == y) == (_same(a, db) and _same(b, da))


def test_an_operator_with_built_pointers_equals_itself_without():
    rng = random.Random(29)
    for _ in range(200):
        w = _window(rng)
        a, _ = _pair(w, rng)
        built, fresh = _built(a), _fresh(a)
        assert built._ptr is not None and fresh._ptr is None
        assert built == fresh and fresh == built and not (built != fresh)
        assert fresh._ptr is None  # comparing reads no pointers
        # column j holds the entries ptr[j]:ptr[j + 1]
        ptr = built._pointers().tolist()
        assert len(ptr) == len(w) + 1 and ptr[0] == 0 and ptr[-1] == len(a._col)
        for j in range(len(w)):
            assert a._col[ptr[j] : ptr[j + 1]].tolist() == [j] * (ptr[j + 1] - ptr[j])


def test_the_battery_makes_pointers_only_for_left_factors(monkeypatch):
    sec = preset_section("collatz")
    ops = build_section_ops(sec.map, sec.n1, sec.n2, BasisWindow.section(sec.sigma, 3000), 10**5)
    made = []
    real = operators._indptr
    monkeypatch.setattr(operators, "_indptr", lambda n, idx: made.append(n) or real(n, idx))
    rep = verify_section_relations(ops)
    # S1*, S2*, S1, S2, T2* and T2*T2: one each, however many products they lead
    assert rep.ok and len(made) == 6

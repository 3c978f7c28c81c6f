"""Exact finite truncations of the map-induced Hilbert-space operators.

Operators are sparse integer matrices over a finite basis window.  Internally
an operator is int64 numpy arrays over window positions, in column-major
order: the column, row and value of each nonzero entry, sorted by (column,
row), each pair at most once and no value zero.  Positions are sorted by
label, so position order is label order.  The label forms (the dict
constructor, ``cols``, ``exact_cols``, ``exact_rows`` and ``with_entry``) are
views built on demand.

Every relation check is an integer equality with zero tolerance, and
fixed-width arithmetic never wraps: before a product or sum, a Python-int
bound on its entries is checked, and a result that could leave int64 raises
``OverflowError``.  Truncating a genuine isometry is not isometric at the
window boundary, so each operator carries exactness masks, boolean arrays
over positions: a column (row) is exact when it coincides with the
corresponding column (row) of the untruncated operator.  Exactness propagates
through products and adjoints, and identities are asserted only on columns
certified exact on both sides.  A word of branch operators (the
separating-condition word T_I, and T2^2 T1) has one label or 0 in each
column, so it is evaluated on labels by ``_word_step``, with no window.

The rows of the section operators T1 and T2 are the first-return preimages
{m in sigma : P(m) = r}.  ``build_section_ops`` reads them in closed form
from two facts proved on residues once per call: (F1) f(N1) ⊆ sigma, so
P = f on N1; (F2) the map halves every even n and the doubling witnesses
tile N2, so each n in N2 is 2^kappa(s) * s and halves down to P(n) = s, or
past s when s is a puncture.  A fact that fails leaves the rows that rest on
it uncertified, never certified wrongly.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .conditions import SeparatingResult, WitnessTable, halving_witnesses
from .conditions import residue_image_exceptions, separating_condition
from .dynamics import ClassesReport, _component_minima, _member_test, _partition, return_time, return_times
from .gcmap import INCONCLUSIVE, DomainError, GCMap, Inconclusive, PuncturedResidueSet, Report
from .gcmap import PASS, VIOLATION, ResidueSet, _check_positive, combine, section_sets, verdict


@dataclass(frozen=True)
class BasisWindow:
    """An ordered finite set of basis labels e_n: positive integers, sorted, each once.

    A label's position is its index in ``elements``.  ``labels`` holds them as
    one read-only int64 array, made once and read by every builder on the window.
    """

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = tuple(sorted(set(self.elements)))
        if elems:
            _check_positive(elems[0], "window label")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def range(cls, lo: int, hi: int) -> "BasisWindow":
        return cls(tuple(range(lo, hi + 1)))

    @classmethod
    def section(cls, sigma: ResidueSet | PuncturedResidueSet, hi: int) -> "BasisWindow":
        n = np.arange(1, max(hi, 0) + 1, dtype=np.int64)
        return cls(tuple(n[_member_test(sigma)(n)].tolist()))

    @cached_property
    def labels(self) -> np.ndarray:
        labels = np.array(self.elements, dtype=np.int64)
        labels.flags.writeable = False
        return labels

    def __contains__(self, n: int) -> bool:
        i = bisect_left(self.elements, n)
        return self.elements[i : i + 1] == (n,)

    def __len__(self) -> int:
        return len(self.elements)


Column = dict[int, int]

_INT64_MAX = 2**63 - 1


def _max_abs(val: np.ndarray) -> int:
    return max(int(val.max()), -int(val.min())) if len(val) else 0


def _check_bound(bound: int, what: str) -> None:
    if bound > _INT64_MAX:
        raise OverflowError(f"{what}: entries up to {bound} would leave int64")


def _position(window: BasisWindow, n: int) -> int:
    if n not in window:
        raise ValueError(f"label {n} is not in the window")
    return bisect_left(window.elements, n)


def _indptr(n: int, idx: np.ndarray) -> np.ndarray:
    """Pointers over positions 0..n-1: p owns the entries ptr[p]:ptr[p + 1] of idx, sorted."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=n), out=ptr[1:])
    return ptr


def _combine(n: int, col: np.ndarray, row: np.ndarray, val: np.ndarray):
    """Entries in canonical order: sorted by (col, row), duplicates summed, zeros dropped."""
    key = col * max(n, 1) + row
    if len(key) > 1 and (key[1:] <= key[:-1]).any():
        order = np.argsort(key, kind="stable")  # merges the two sorted runs of a sum
        key = key[order]
        head = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        col, row, val = col[order][head], row[order][head], np.add.reduceat(val[order], head)
    keep = val != 0
    if not keep.all():
        col, row, val = col[keep], row[keep], val[keep]
    return col, row, val


class TruncatedOperator:
    """Sparse integer matrix over a window, with exactness masks.

    ``TruncatedOperator(window, cols, exact_cols, exact_rows)`` takes labels:
    ``cols[n]`` maps row labels to integer entries of the column at basis
    label n, and ``exact_cols`` / ``exact_rows`` list labels where the
    truncated column / row equals that of the infinite operator.  The same
    forms come back from ``cols``, ``exact_cols`` and ``exact_rows``.
    """

    _ARRAYS = ("_col", "_row", "_val", "_exact_col", "_exact_row")  # these alone decide ==
    __slots__ = ("window", "_ptr", *_ARRAYS)

    def __init__(
        self,
        window: BasisWindow,
        cols: dict[int, Column],
        exact_cols: Iterable[int],
        exact_rows: Iterable[int],
    ) -> None:
        col, row, val = [], [], []
        for n, column in cols.items():
            p = _position(window, n)
            for r, v in column.items():
                col.append(p)
                row.append(_position(window, r))
                val.append(v)
        entries = (np.array(a, dtype=np.int64) for a in (col, row, val))  # OverflowError past int64
        masks = []
        for labels in (exact_cols, exact_rows):
            mask = np.zeros(len(window), dtype=bool)
            mask[[_position(window, n) for n in labels]] = True
            masks.append(mask)
        self._set(window, *_combine(len(window), *entries), *masks)

    def _set(self, window, col, row, val, exact_col, exact_row) -> None:
        self.window = window
        self._col, self._row, self._val = col, row, val
        self._exact_col, self._exact_row = exact_col, exact_row
        self._ptr = None  # the column pointers, made on first use by _pointers

    def _pointers(self) -> np.ndarray:
        """Column j holds the entries ptr[j]:ptr[j + 1]; only a product's left factor reads them."""
        if self._ptr is None:
            self._ptr = _indptr(len(self.window), self._col)
        return self._ptr

    @classmethod
    def _of(cls, window, col, row, val, exact_col, exact_row) -> "TruncatedOperator":
        """From position arrays already in canonical order."""
        op = cls.__new__(cls)
        op._set(window, col, row, val, exact_col, exact_row)
        return op

    def _same_window(self, other: "TruncatedOperator") -> None:
        if self.window is not other.window and self.window != other.window:
            raise ValueError("operators must share a window")

    # --- label views ---------------------------------------------------------

    def _triplets(self) -> list[tuple[int, int, int]]:
        """(row, col, value) labels of every entry, in column-major order."""
        e = self.window.elements
        return [
            (e[r], e[c], v)
            for c, r, v in zip(self._col.tolist(), self._row.tolist(), self._val.tolist())
        ]

    @property
    def cols(self) -> dict[int, Column]:
        out: dict[int, Column] = {}
        for r, n, v in self._triplets():
            out.setdefault(n, {})[r] = v
        return out

    def _labels(self, mask: np.ndarray) -> frozenset[int]:
        return frozenset(self.window.elements[i] for i in np.flatnonzero(mask).tolist())

    @property
    def exact_cols(self) -> frozenset[int]:
        return self._labels(self._exact_col)

    @property
    def exact_rows(self) -> frozenset[int]:
        return self._labels(self._exact_row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedOperator):
            return NotImplemented
        return self.window == other.window and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in self._ARRAYS
        )

    # --- algebra -------------------------------------------------------------

    def adjoint(self) -> "TruncatedOperator":
        """Exact transpose; an involution.  Exact columns and rows swap roles."""
        order = np.argsort(self._row, kind="stable")  # (row, col) order: the transpose's columns
        return TruncatedOperator._of(
            self.window, self._row[order], self._col[order], self._val[order],
            self._exact_row, self._exact_col,
        )

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._same_window(other)
        n = len(self.window)
        # an entry of AB sums at most one term per entry of B's column
        per_col = int(np.bincount(other._col).max()) if len(other._col) else 0
        _check_bound(_max_abs(self._val) * _max_abs(other._val) * per_col, "product")
        # each entry (m, n) of B scales A's column m into column n of AB
        lo, hi = self._pointers()[[other._row, other._row + 1]]
        cnt = hi - lo
        at = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(int(cnt.sum()))
        col, row, val = _combine(
            n, np.repeat(other._col, cnt), self._row[at], self._val[at] * np.repeat(other._val, cnt)
        )
        # column n of AB is exact when B's is and every row it reaches is an
        # exact column of A; dually for rows
        col_bad = np.zeros(n, dtype=bool)
        col_bad[other._col[~self._exact_col[other._row]]] = True
        row_bad = np.zeros(n, dtype=bool)
        row_bad[self._row[~other._exact_row[self._col]]] = True
        return TruncatedOperator._of(
            self.window, col, row, val, other._exact_col & ~col_bad, self._exact_row & ~row_bad
        )

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._same_window(other)
        _check_bound(_max_abs(self._val) + _max_abs(other._val), "sum")
        col, row, val = _combine(
            len(self.window),
            *(np.concatenate((getattr(self, a), getattr(other, a))) for a in ("_col", "_row", "_val")),
        )
        return TruncatedOperator._of(
            self.window, col, row, val,
            self._exact_col & other._exact_col, self._exact_row & other._exact_row,
        )

    def with_entry(self, row: int, col: int, value: int) -> "TruncatedOperator":
        """Copy with one entry overwritten (fault injection for tests)."""
        cols = self.cols
        cols.setdefault(col, {})[row] = value
        return TruncatedOperator(self.window, cols, self.exact_cols, self.exact_rows)


def _diagonal(window: BasisWindow, mask: np.ndarray) -> TruncatedOperator:
    """The 0/1 diagonal operator with ones at the masked positions; exact everywhere."""
    idx = np.flatnonzero(mask).astype(np.int64)
    exact = np.ones(len(window), dtype=bool)
    return TruncatedOperator._of(window, idx, idx, np.ones(len(idx), dtype=np.int64), exact, exact)


def identity_operator(window: BasisWindow) -> TruncatedOperator:
    return _diagonal(window, np.ones(len(window), dtype=bool))


def zero_operator(window: BasisWindow) -> TruncatedOperator:
    return _diagonal(window, np.zeros(len(window), dtype=bool))


def _functional(window: BasisWindow, image, exact_col, exact_row) -> TruncatedOperator:
    """The 0/1 operator e_n -> e_{image[n]} on positions; no entry where image is -1."""
    image = np.asarray(image, dtype=np.int64)
    col = np.flatnonzero(image >= 0).astype(np.int64)
    return TruncatedOperator._of(
        window, col, image[col], np.ones(len(col), dtype=np.int64),
        np.asarray(exact_col, dtype=bool), np.asarray(exact_row, dtype=bool),
    )


def _positions(labels: np.ndarray, value: np.ndarray) -> np.ndarray:
    """The position of each value among the sorted labels, or -1 where it is no label.

    The first-return kernel gives 0 where it decided nothing, and 0 is no label.
    """
    if not len(labels):
        return np.full(len(value), -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(labels, value), len(labels) - 1)
    return np.where(labels[at] == value, at, -1)


def _window_image(gcmap: GCMap, labels: np.ndarray) -> np.ndarray:
    """f(n) for each int64 label n of a window, or 0 where f(n) is past the window's top.

    One fuel-1 step of the first-return kernel, which raises as ``gcmap.apply``
    does at the first label the map cannot step.
    """
    top = int(labels[-1]) if len(labels) else 0
    return return_times(gcmap, range(1, top + 1), labels, 1)[0]


def _branch_preimages(gcmap: GCMap, labels: np.ndarray) -> list[np.ndarray]:
    """Per branch, the preimage m >= 1 in its guard of every int64 label, or 0 where none.

    -1 stands for preimages that are no label: one past int64, or the
    infinitely many of a constant branch at its value.  Where c * top + |b|
    could leave int64 the preimages are computed on exact ints.
    """
    top, out = int(labels[-1]) if len(labels) else 0, []
    for br in gcmap.branches:
        if not br.a:
            hit = br.b % br.c == 0 and not br.guard.is_empty()
            out.append(np.where(hit & (labels == br.b // br.c), -1, 0))
            continue
        exact = max(br.a, br.c * top + abs(br.b)) <= _INT64_MAX
        v = (labels if exact else labels.astype(object)) * br.c - br.b
        m, ok = v // br.a, v % br.a == 0
        ok &= m >= 1
        ok[ok] = _member_test(br.guard)(m[ok])
        out.append(np.where(ok, np.where(m > _INT64_MAX, -1, m), 0).astype(np.int64))
    return out


def _rows_in_window(gcmap: GCMap, labels: np.ndarray) -> list[np.ndarray]:
    """Per branch, whether each label's preimage under it is none or a label."""
    return [(m == 0) | (_positions(labels, m) >= 0) for m in _branch_preimages(gcmap, labels)]


# --- map-induced operators ------------------------------------------------------


def build_T(gcmap: GCMap, window: BasisWindow) -> TruncatedOperator:
    """T e_n = e_{f(n)}, truncated to the window."""
    labels = window.labels
    image = _positions(labels, _window_image(gcmap, labels))
    exact_row = np.logical_and.reduce(_rows_in_window(gcmap, labels))
    return _functional(window, image, image >= 0, exact_row)


def build_branch_ops(gcmap: GCMap, window: BasisWindow) -> list[TruncatedOperator]:
    """T_i e_n = e_{f(n)} for n in X_i, 0 elsewhere; sum over i recovers T entrywise."""
    labels = window.labels
    image = _positions(labels, _window_image(gcmap, labels))
    ops = []
    for br, exact_row in zip(gcmap.branches, _rows_in_window(gcmap, labels)):
        mine = _member_test(br.guard)(labels)
        # leaves (images outside the window) are the only inexact columns; every zero column is exact
        ops.append(_functional(window, np.where(mine, image, -1), ~(mine & (image < 0)), exact_row))
    return ops


# --- section operators -----------------------------------------------------------


@dataclass(frozen=True)
class SectionOperators:
    """T1, T2 (first-return branch operators on N1, N2) and S1 = T1*T2*, S2 = T2*."""

    window: BasisWindow
    n1: ResidueSet
    n2: ResidueSet
    t1: TruncatedOperator
    t2: TruncatedOperator
    s1: TruncatedOperator
    s2: TruncatedOperator
    inconclusive_columns: frozenset[int]


def _f_returns_on_n1(gcmap: GCMap, n1: ResidueSet, sigma) -> bool:
    """(F1) f(N1) ⊆ sigma, read off the residue image: then P = f on N1."""
    try:
        img, missed = residue_image_exceptions(gcmap, n1)
    except (ArithmeticError, ValueError):  # not divisible, a constant branch, or N1 empty
        return False
    classes = sigma.classes
    lifted = img.at_modulus(math.lcm(img.modulus, classes.modulus)).residues
    # f(N1) is img minus the values it misses: no sigma puncture may be in it
    return all(r in classes for r in lifted) and all(e not in img or e in missed for e in sigma.removed)


def _halving_tiles(gcmap: GCMap, n1: ResidueSet, n2: ResidueSet) -> WitnessTable | None:
    """(F2) The doubling witnesses, when they prove that P halves every n in N2 down to
    its s, with n = 2^kappa(s) * s; else None.

    :func:`halving_witnesses` proves P(2^kappa(s) * s) = s, and the tiles
    2^kappa(r) * (class r mod mw) must fill N2.  They lie in N2 and are
    disjoint, because kappa is minimal, so equal density leaves no class of N2
    uncovered.
    """
    try:
        witnesses = halving_witnesses(gcmap, n1, n2)
    except ValueError:
        return None
    # density: sum_r 2^-kappa(r) / mw = |N2| / n2.modulus.  Summed exactly by
    # the count of each kappa, halving from the largest: an odd carry is a
    # fractional bit, which the integer |N2| * mw / n2.modulus cannot have
    count = np.bincount(np.fromiter(witnesses.exponents.values(), np.int64)).tolist()
    carry = 0
    for k in range(len(count) - 1, 0, -1):
        if carry & 1:
            return None
        carry = (carry >> 1) + count[k]
    # carry is now twice the sum
    return witnesses if carry * n2.modulus == 2 * len(n2.residues) * witnesses.modulus else None


#: f-steps allowed, past the halvings, for the first return of a value that
#: halves down to a sigma puncture; beyond them its row is unknown
_PUNCTURE_FUEL = 10_000


def _section_rows(gcmap, n1, n2, sigma, labels, undecided):
    """Exact rows of T1 and T2, boolean over positions, from the closed-form preimages of P.

    Given (F1) and (F2) the preimages {m in sigma : P(m) = r} of a label r are
    its branch preimages in N1, its tile r * 2^kappa(r) unless that value is
    a puncture, and each value that halves down to a sigma puncture through
    punctures only and first returns to r.  A row is exact when every
    preimage its operator owns (in N1 for T1, in N2 for T2) is a label with
    a decided column.  Without (F1) no row is exact; without (F2) no row of
    T2 is, nor of T1 unless N1 and N2 are disjoint.
    """
    n, top = len(labels), int(labels[-1]) if len(labels) else 0
    f1, witnesses = _f_returns_on_n1(gcmap, n1, sigma), _halving_tiles(gcmap, n1, n2)
    rows1 = np.full(n, f1 and (witnesses is not None or n1.intersection(n2).is_empty()))
    rows2 = np.full(n, f1 and witnesses is not None)
    if not rows1.any():
        return rows1, rows2

    def missing(m):  # int64 values that are no label, or a label with an undecided column
        at = _positions(labels, m)
        return (at < 0) | undecided[at]

    # the branch preimages in N1, where P = f by (F1); (F1) also rules out constant branches
    for m in _branch_preimages(gcmap, labels):
        if (m < 0).any():  # a preimage past int64, whose class is not known here
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        at = np.flatnonzero(m)
        at = at[_member_test(n1)(m[at])]
        at = at[missing(m[at])]
        rows1[at] = False
        rows2[at[_member_test(n2)(m[at])]] = False
    if witnesses is None:
        return rows1, rows2
    # the tiles, in N2; a tile in N1 is also a branch preimage, handled above
    inside, tile = witnesses.tiles(labels, top)
    lost = ~inside
    lost[inside] = missing(tile)
    # a label whose tile is a puncture has no tile preimage
    lost &= ~np.isin(labels, [n for e in sigma.removed for n in witnesses.bases(e)])
    rows2 &= ~lost
    for e in sigma.removed:
        v = witnesses.climb(e, sigma)  # the value that halves down to e through punctures only
        if v <= top and not missing(np.array([v]))[0]:
            continue  # a label with a decided column, so in its row
        ret = return_time(gcmap, sigma, v, v.bit_length() + _PUNCTURE_FUEL)
        # the row of P(v) misses v; when P(v) is unknown, any row may
        row = slice(None) if isinstance(ret, Inconclusive) else labels == ret.value
        rows1[row] &= v not in n1
        rows2[row] &= v not in n2
    return rows1, rows2


def build_section_ops(
    gcmap: GCMap,
    n1: ResidueSet,
    n2: ResidueSet,
    window: BasisWindow,
    fuel: int,
    n2_removed: frozenset[int] = frozenset(),
) -> SectionOperators:
    """Build the section operators on a window contained in N1 ∪ N2.

    Columns come from one first-return kernel call over the window: a column
    is exact unless P runs out of fuel there or returns outside the window.
    Rows are certified by :func:`_section_rows` from a residue-level proof
    made once per call, with no search over preimages.
    """
    _, sigma = section_sets(n1, n2, n2_removed)
    labels = window.labels
    outside = np.flatnonzero(~_member_test(sigma)(labels))
    if len(outside):
        raise DomainError(f"window element {int(labels[outside[0]])} is not in N1 ∪ N2")
    in_n1 = _member_test(n1)(labels)
    value, _, undecided = return_times(gcmap, sigma, labels, fuel)
    image = _positions(labels, value)
    # an unknown column is not exact for the branch that owns n; the other
    # branch's column at n is genuinely zero, hence exact
    exact_col1, exact_col2 = ~in_n1 | (image >= 0), in_n1 | (image >= 0)
    exact_rows1, exact_rows2 = _section_rows(gcmap, n1, n2, sigma, labels, undecided)
    t1 = _functional(window, np.where(in_n1, image, -1), exact_col1, exact_rows1)
    t2 = _functional(window, np.where(in_n1, -1, image), exact_col2, exact_rows2)
    s2 = t2.adjoint()
    s1 = t1.adjoint() @ s2
    return SectionOperators(window, n1, n2, t1, t2, s1, s2, frozenset(labels[undecided].tolist()))


# --- relation batteries ------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    holds: bool
    columns_checked: int
    witness: tuple[int, int, int, int] | None = None  # (row, col, lhs, rhs)


@dataclass(frozen=True)
class RelationReport(Report):
    checks: tuple[IdentityCheck, ...]

    @property
    def status(self) -> int:  # a check that certifies no column is no evidence: inconclusive
        return verdict(not all(c.holds for c in self.checks), any(c.columns_checked == 0 for c in self.checks))

    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.holds]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "holds": c.holds,
                    "columns_checked": c.columns_checked,
                    "witness": list(c.witness) if c.witness else None,
                }
                for c in self.checks
            ],
        }


def compare_certified(name: str, lhs: TruncatedOperator, rhs: TruncatedOperator) -> IdentityCheck:
    """Entrywise integer equality on columns certified exact on both sides.

    A failure's witness is the smallest certified column that differs, at
    its smallest differing row.
    """
    lhs._same_window(rhs)
    certified = lhs._exact_col & rhs._exact_col
    checked = int(certified.sum())
    n = max(len(lhs.window), 1)
    sides = []
    for op in (lhs, rhs):
        keep = certified[op._col]
        sides.append((op._col[keep] * n + op._row[keep], op._val[keep]))
    (ka, va), (kb, vb) = sides
    if np.array_equal(ka, kb) and np.array_equal(va, vb):
        return IdentityCheck(name, True, checked)
    keys = np.union1d(ka, kb)  # sorted: column-major, so label order
    a, b = np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=np.int64)
    a[np.searchsorted(keys, ka)] = va
    b[np.searchsorted(keys, kb)] = vb
    i = int(np.flatnonzero(a != b)[0])
    c, r = divmod(int(keys[i]), n)
    e = lhs.window.elements
    return IdentityCheck(name, False, checked, (e[r], e[c], int(a[i]), int(b[i])))


def verify_branch_relations(gcmap: GCMap, window: BasisWindow) -> RelationReport:
    """Partial-isometry structure of the branch operators: T_i*T_i = proj(X_i), sums to I."""
    ops = build_branch_ops(gcmap, window)
    t = build_T(gcmap, window)
    eye = identity_operator(window)
    labels = window.labels
    checks = []
    total = None
    sum_t = None
    for br, op in zip(gcmap.branches, ops):
        proj = _diagonal(window, _member_test(br.guard)(labels))
        tt = op.adjoint() @ op
        checks.append(compare_certified(f"T{br.index}*T{br.index} = proj(X{br.index})", tt, proj))
        total = tt if total is None else total + tt
        sum_t = op if sum_t is None else sum_t + op
    checks.append(compare_certified("sum_i Ti*Ti = I", total, eye))
    checks.append(compare_certified("sum_i Ti = T", sum_t, t))
    return RelationReport(tuple(checks))


def verify_section_relations(ops: SectionOperators) -> RelationReport:
    """The Cuntz relation battery for S1, S2 and the descent identity T2*T2T1 = T1."""
    w = ops.window
    labels = w.labels
    eye = identity_operator(w)
    zero = zero_operator(w)
    s1, s2, t1, t2 = ops.s1, ops.s2, ops.t1, ops.t2
    s1_adj, s2_adj = s1.adjoint(), s2.adjoint()
    range1, range2 = s1 @ s1_adj, s2 @ s2_adj
    checks = (
        compare_certified("S1*S1 = I", s1_adj @ s1, eye),
        compare_certified("S2*S2 = I", s2_adj @ s2, eye),
        compare_certified("S1S1* = proj(N1)", range1, _diagonal(w, _member_test(ops.n1)(labels))),
        compare_certified("S2S2* = proj(N2)", range2, _diagonal(w, _member_test(ops.n2)(labels))),
        compare_certified("S1S1* + S2S2* = I", range1 + range2, eye),
        compare_certified("S1*S2 = 0", s1_adj @ s2, zero),
        compare_certified("S2*S1 = 0", s2_adj @ s1, zero),
        compare_certified("T2*T2T1 = T1", t2.adjoint() @ t2 @ t1, t1),
    )
    return RelationReport(checks)


# --- reachable spans vs equivalence classes ------------------------------------------


def _csr(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The undirected graph on positions 0..n-1 with the edges a[i] -- b[i], as
    CSR arrays ``(indptr, indices)``: the neighbours of p are
    ``indices[indptr[p]:indptr[p + 1]]``."""
    src, dst = np.concatenate((a, b)), np.concatenate((b, a))
    return _indptr(n, src), dst[np.argsort(src, kind="stable")]


def _window_classes(gcmap: GCMap, hi: int, fuel: int):
    """(full, certified, edges): the classes of the window [1, hi] at ``fuel``,
    the certified ones (those of fuel 1) and the edges of T's index graph
    there, from one first-return call.  n returns at step 1 exactly when
    f(n) <= hi, and then n joins f(n) in the certified classes and
    n - 1 -- f(n) - 1 is an edge.  Only these outlive the kernel's arrays.
    A certified class holds one n with tau(n) != 1 at most, its self-loop,
    so the edges n -- value(n) that the full classes add (tau(n) > 1) form a
    functional graph on the certified classes, indexed by their minima in
    order: the least label of a full class is its component's least one."""
    _check_positive(fuel, "fuel")
    labels = np.arange(1, hi + 1, dtype=np.int64)
    value, tau, flagged = return_times(gcmap, range(1, hi + 1), labels, fuel)
    inside = np.flatnonzero(tau == 1)
    certified = _partition(value, tau != 1)
    rep = certified.minima
    least = labels[rep == labels]
    at = np.empty(hi + 1, dtype=np.int64)
    at[least] = joined = np.arange(len(least))
    out = tau > 1  # a flagged n has tau 0
    joined[at[rep[out]]] = at[rep[value[out] - 1]]
    full = ClassesReport(hi, least[_component_minima(joined)][at[rep]], flagged)
    return full, certified, (inside, value[inside] - 1)


def _check_depth(depth: int | None) -> None:
    if depth is not None and depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")


def _walk(graph: tuple[np.ndarray, np.ndarray], starts: np.ndarray, depth: int | None):
    """The span of each start: every position within ``depth`` edges of it (all
    it reaches when depth is None), each once, as arrays ``(owner, position)``
    with owner the start's index in ``starts``.  Every start advances at once,
    a level a round, on the keys owner * n + position.  A neighbour of level L
    lies on level L - 1, L or L + 1, so level L + 1 is the neighbours of level
    L, deduplicated, less the keys of levels L and L - 1: no seen-set, and no
    state shared between starts, so overlapping balls stay apart."""
    indptr, indices = graph
    n = len(indptr) - 1
    _check_bound(len(starts) * n, "span keys")  # so the sentinel exceeds every key
    sentinel = np.array([_INT64_MAX])
    degree = indptr[1:] - indptr[:-1]
    level = np.arange(len(starts)) * n + starts  # sorted: positions are below n
    levels, last, d = [level], level[:0], 0
    while len(level) and (depth is None or d < depth):
        pos = level % n
        count = degree[pos]
        end = count.cumsum()
        edge = (indptr[pos] + count - end).repeat(count) + np.arange(end[-1])
        step = (level - pos).repeat(count) + indices[edge]
        step.sort()
        known = np.concatenate((last, level, sentinel))
        known.sort()
        new = known[known.searchsorted(step)] != step
        new[1:] &= step[1:] != step[:-1]
        last, level, d = level, step[new], d + 1
        levels.append(level)
    return np.divmod(np.concatenate(levels), n)


def reachable_span(
    ops: Sequence[TruncatedOperator], start: int, depth: int | None
) -> frozenset[int]:
    """Closure of {start} under the operators and their adjoints, up to word length depth.

    On 0/1 functional operators this is the walk of the index graph
    (n -> f(n), n -> each preimage) from the one start, which agrees with
    materializing matrix products but is exponentially cheaper.
    """
    window = ops[0].window
    if start not in window:
        raise DomainError(f"start {start} not in window")
    _check_depth(depth)
    for op in ops:
        op._same_window(ops[0])
    # positions joined by a nonzero entry of an operator (hence also of its adjoint)
    graph = _csr(
        len(window),
        np.concatenate([op._row for op in ops]),
        np.concatenate([op._col for op in ops]),
    )
    _, span = _walk(graph, np.array([_position(window, start)]), depth)
    return frozenset(map(window.elements.__getitem__, span.tolist()))


@dataclass(frozen=True)
class SpanClassEntry:
    start: int
    span_size: int
    class_size: int
    span_subset_of_class: bool
    span_equals_certified: bool
    boundary_members: int  # class members connected only through out-of-window excursions
    depth_capped: bool  # a finite depth stopped the walk short of the certified class

    @property
    def status(self) -> int:
        if self.depth_capped:
            return INCONCLUSIVE
        return verdict(not (self.span_subset_of_class and self.span_equals_certified))


@dataclass(frozen=True, eq=False)
class SpanClassReport(Report):
    """``span_vs_class``'s entries as an array per field of ``SpanClassEntry``, over
    the starts in order; the statuses are read from them, and ``entries`` built when read."""

    start: np.ndarray
    span_size: np.ndarray
    class_size: np.ndarray
    span_subset_of_class: np.ndarray
    span_equals_certified: np.ndarray
    boundary_members: np.ndarray
    depth_capped: np.ndarray

    @cached_property
    def entries(self) -> tuple[SpanClassEntry, ...]:
        return tuple(map(SpanClassEntry, *(getattr(self, f.name).tolist() for f in fields(SpanClassEntry))))

    @cached_property
    def statuses(self) -> np.ndarray:  # each start's SpanClassEntry.status, in order
        held = self.span_subset_of_class & self.span_equals_certified
        return np.where(self.depth_capped, INCONCLUSIVE, np.where(held, PASS, VIOLATION))

    @property
    def status(self) -> int:  # a report that checks no span is no evidence: inconclusive
        return combine(self.statuses.tolist()) if len(self.start) else INCONCLUSIVE


def span_vs_class(
    gcmap: GCMap,
    window: BasisWindow,
    fuel: int,
    depth: int | None = None,
    starts: Iterable[int] | None = None,
) -> SpanClassReport:
    """Compare operator-reachable spans with orbit-equivalence classes.

    span(start) must always be contained in the class of start; it must equal
    the class restricted to members whose connecting orbits stay inside the
    window (the certified sub-window).  Members connected only through
    out-of-window excursions are reported as boundary effects, not failures.
    With a finite ``depth``, a span that stops short of its certified class
    is inconclusive, not a failure; a span that leaves its class still fails.
    A report with no starts checks nothing and is inconclusive.  One
    ``_walk`` gives every span at once; entries follow ``starts`` in order.
    """
    _check_depth(depth)
    hi = len(window)
    if not hi or (window.elements[0], window.elements[-1]) != (1, hi):
        raise ValueError("span_vs_class expects a contiguous window [1, hi]")
    full, certified, edges = _window_classes(gcmap, hi, fuel)
    graph = _csr(hi, *edges)
    starts = list(window.elements if starts is None else starts)
    for s in starts:
        if not 1 <= s <= hi:
            raise DomainError(f"start {s} not in window")
    at = np.array(starts, dtype=np.int64) - 1
    # The certified partition refines the full one, so each certified class
    # lies in one full class and boundary members are the size difference.
    # Without a depth the span is the start's connected component, its
    # certified class, so the starts of a pair of classes share one walk.
    cert_rep, full_rep = certified.minima[at], full.minima[at]
    _check_bound(hi * (hi + 2), "class pair keys")
    key = at if depth is not None else cert_rep * (hi + 1) + full_rep
    _, first, of = np.unique(key, return_index=True, return_inverse=True)
    owner, members = _walk(graph, at[first], depth)
    cert_rep, full_rep = cert_rep[first], full_rep[first]
    size = np.bincount(owner, minlength=len(first))

    def within(report: ClassesReport, rep: np.ndarray) -> np.ndarray:
        left = owner[report.minima[members] != rep[owner]]
        return np.bincount(left, minlength=len(first)) == 0

    in_full, in_cert = within(full, full_rep), within(certified, cert_rep)
    cert = np.bincount(certified.minima)[cert_rep]
    whole = np.bincount(full.minima)[full_rep]
    capped = in_cert & (size < cert) & (depth is not None)
    rows = (size, whole, in_full, in_cert & (size == cert), whole - cert, capped)
    return SpanClassReport(at + 1, *(row[of] for row in rows))


# --- finitistic cores of the commutant lemmas -----------------------------------------


def _word_step(gcmap: GCMap, word: Sequence[int], y: int) -> int | None:
    """Index-level T_I application: e_y -> e_{f^n(y)} if the itinerary matches, else 0."""
    v = y
    for letter in word:
        br = gcmap.branch_of(v)
        if br.index != letter:
            return None
        v = br.image(v)
    return v


@dataclass(frozen=True)
class DescentReport(Report):
    """Finitistic core of the projection-descent argument, exhaustively checked.

    The infinite-dimensional commutant statement is out of reach; what is
    verified is its proof mechanism: the fixed vector T2^2 T1 e_1 = e_1,
    read on labels by ``_word_step``, and the strict descent (3n+1)/4 < n on
    every odd n ≡ 1 (mod 4) above 1.
    """

    limit: int
    checked: int
    counterexamples: tuple[int, ...]
    fixed_vector_ok: bool

    @property
    def status(self) -> int:
        return verdict(bool(self.counterexamples) or not self.fixed_vector_ok)


# starts per numpy chunk of the descent check; bounds its memory, not its result
_DESCENT_CHUNK = 1 << 20


def descent_check(limit: int) -> DescentReport:
    """The descent on every odd n ≡ 1 (mod 4) in [5, limit], in int64 chunks:
    a limit whose 3n + 1 would leave int64 raises ValueError."""
    if limit < 5:
        raise ValueError("limit must be >= 5")
    if 3 * limit + 1 > _INT64_MAX:
        raise ValueError(f"limit must be at most {(_INT64_MAX - 1) // 3}, or 3n + 1 leaves int64")
    bad: list[int] = []
    checked = 0
    for lo in range(5, limit + 1, 4 * _DESCENT_CHUNK):  # odd n ≡ 1 (mod 4), n > 1
        n = np.arange(lo, min(lo + 4 * _DESCENT_CHUNK, limit + 1), 4, dtype=np.int64)
        up = 3 * n + 1
        bad += n[(up % 4 != 0) | (up // 4 >= n)].tolist()
        checked += len(n)

    from .families import collatz
    return DescentReport(limit, checked, tuple(bad), _word_step(collatz(), (1, 2, 2), 1) == 1)


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


def separating_word_check(
    gcmap: GCMap, x: int, window: BasisWindow, fuel: int, samples: int = 20
) -> WordCheckReport:
    """Verify the contraction mechanism of the separating-condition word T_I.

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

    # contraction on sampled equivalent y: T_I^m e_y must reach 0, never e_x
    failures: list[int] = []
    inconclusive: list[int] = []
    picked = (list(cycle[1:]) + [y for y in window.elements if y not in cycle])[:samples]
    for y in picked:
        cur: int | None = y
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


# --- norm bound -------------------------------------------------------------------


@dataclass(frozen=True)
class NormBoundReport(Report):
    trials: int
    k: int
    max_ratio: Fraction
    violations: int

    @property
    def status(self) -> int:
        return verdict(self.violations > 0 or self.max_ratio > self.k)


#: the most (pool size, trials) draws held at once
_DRAWS = 16


@lru_cache(maxsize=_DRAWS)
def _seeded_draws(n: int, trials: int):
    """The draws of ``random.Random(0)`` for ``trials`` vectors over a pool of n columns.

    Each trial draws ``size = 1 + randrange(min(12, n))``, then
    ``sample(range(n), size)``, then ``randrange(19) - 9 or 1`` and
    ``1 + randrange(9)`` for each column.  They depend only on (n, trials), so
    they are drawn once and held as read-only int64 arrays: the trial sizes
    and, flat in trial order, each column's index, p and q.
    """
    rng = random.Random(0)
    randrange, cap = rng.randrange, min(12, n)
    sizes, cols, p, q = [], [], [], []
    for _ in range(trials):
        size = 1 + randrange(cap)
        sizes.append(size)
        cols += rng.sample(range(n), size)
        for _ in range(size):
            p.append(randrange(19) - 9 or 1)
            q.append(1 + randrange(9))
    draws = tuple(np.array(a, dtype=np.int64) for a in (sizes, cols, p, q))
    for a in draws:
        a.flags.writeable = False
    return draws


def norm_bound_check(gcmap: GCMap, window: BasisWindow, trials: int) -> NormBoundReport:
    """Check ||T v||^2 <= k ||v||^2 on pseudo-random rational vectors of seed 0.

    Vectors are supported on columns whose image stays inside the window, so
    the truncated action agrees with the infinite operator.  The draws are
    those of ``randrange`` and ``sample`` on ``random.Random(0)``, made once
    per pool size and trial count by ``_seeded_draws``.  Each vector is scaled
    by the lcm of its denominators, which leaves the ratio unchanged, and
    every trial is scored in one numpy pass:
    |x| <= 9 * 2520, so ||v||^2 <= 6.2e9 and ||T v||^2 <= 7.5e10 are exact in
    int64.  The largest ratio is kept as a pair (num, den) of Python ints,
    compared by cross-multiplication, and one Fraction is made at the end.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    labels = window.labels
    at = _positions(labels, _window_image(gcmap, labels))
    image = at[at >= 0]  # the position of f(n) for each column n that can carry a vector, in label order
    if not len(image):
        raise ValueError("norm bound: no column of T stays in the window, so no vector can be drawn")
    sizes, cols, p, q = _seeded_draws(len(image), trials)
    trial = np.repeat(np.arange(trials), sizes)
    starts = np.cumsum(sizes) - sizes
    x = p * (np.lcm.reduceat(q, starts)[trial] // q)  # the entries p/q of v, times their lcm
    norm = np.add.reduceat(x * x, starts)
    # (T v)_y sums x over the trial's columns that f takes to y: group by (trial, y)
    _check_bound(trials * len(labels), "norm bound")
    key = trial * len(labels) + image[cols]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    out = np.add.reduceat(x[order], first)
    s = np.add.reduceat(out * out, np.searchsorted(key[first], np.arange(trials) * len(labels)))
    k = gcmap.k
    _check_bound(k * int(norm.max()), "norm bound")
    violations = int(np.count_nonzero(s > k * norm))
    num, den = 0, 1  # the largest ratio so far
    for a, b in zip(s.tolist(), norm.tolist()):
        if a * den > num * b:
            num, den = a, b
    return NormBoundReport(trials, k, Fraction(num, den), violations)

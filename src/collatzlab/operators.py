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
certified exact on both sides.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .conditions import _halving_branch, separating_condition, SeparatingResult
from .dynamics import classes, return_times
from .gcmap import INCONCLUSIVE, DomainError, GCMap, PuncturedResidueSet, Report
from .gcmap import ResidueSet, combine, section_sets, verdict


@dataclass(frozen=True)
class BasisWindow:
    """An ordered finite set of basis labels e_n."""

    elements: tuple[int, ...]
    position: dict[int, int] = field(compare=False, repr=False, default=None)

    def __post_init__(self) -> None:
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "position", {n: i for i, n in enumerate(elems)})

    @classmethod
    def range(cls, lo: int, hi: int) -> "BasisWindow":
        return cls(tuple(range(lo, hi + 1)))

    @classmethod
    def section(cls, sigma: ResidueSet | PuncturedResidueSet, hi: int) -> "BasisWindow":
        return cls(tuple(sigma.members(1, hi)))

    def __contains__(self, n: int) -> bool:
        return n in self.position

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
    p = window.position.get(n)
    if p is None:
        raise ValueError(f"label {n} is not in the window")
    return p


def _combine(n: int, col: np.ndarray, row: np.ndarray, val: np.ndarray):
    """Entries in canonical order: sorted by (col, row), duplicates summed, zeros dropped."""
    key = col * max(n, 1) + row
    if len(key) > 1 and (key[1:] <= key[:-1]).any():
        order = np.argsort(key)
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

    __slots__ = ("window", "_ptr", "_col", "_row", "_val", "_exact_col", "_exact_row")

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
        # column j holds the entries _ptr[j]:_ptr[j + 1]
        self._ptr = np.zeros(len(window) + 1, dtype=np.int64)
        np.cumsum(np.bincount(col, minlength=len(window)), out=self._ptr[1:])

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
            np.array_equal(getattr(self, a), getattr(other, a)) for a in self.__slots__[1:]
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
        per_col = int(np.diff(other._ptr).max()) if n else 0
        _check_bound(_max_abs(self._val) * _max_abs(other._val) * per_col, "product")
        # each entry (m, n) of B scales A's column m into column n of AB
        lo = self._ptr[other._row]
        cnt = self._ptr[other._row + 1] - lo
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


def _residue_mask(window: BasisWindow, rs: ResidueSet) -> np.ndarray:
    """Which window labels lie in the residue set."""
    member = np.zeros(rs.modulus, dtype=bool)
    member[list(rs.residues)] = True
    return member[np.array(window.elements, dtype=np.int64) % rs.modulus]


# --- map-induced operators ------------------------------------------------------


def build_T(gcmap: GCMap, window: BasisWindow) -> TruncatedOperator:
    """T e_n = e_{f(n)}, truncated to the window."""
    pos = window.position
    image = [pos.get(gcmap.apply(n), -1) for n in window.elements]
    exact_row = [all(m in pos for m in gcmap.preimage(n)) for n in window.elements]
    return _functional(window, image, np.asarray(image) >= 0, exact_row)


def build_branch_ops(gcmap: GCMap, window: BasisWindow) -> list[TruncatedOperator]:
    """T_i e_n = e_{f(n)} for n in X_i, 0 elsewhere; sum over i recovers T entrywise."""
    pos = window.position
    branch = np.array([gcmap.branch_of(n).index for n in window.elements], dtype=np.int64)
    image = np.array([pos.get(gcmap.apply(n), -1) for n in window.elements], dtype=np.int64)
    ops = []
    for br in gcmap.branches:
        mine = branch == br.index
        exact_row = [
            br.a >= 1 and ((m := br.preimage_of(n)) is None or m in pos) for n in window.elements
        ]
        # leaves (images outside the window) are the only inexact columns; every zero column is exact
        ops.append(_functional(window, np.where(mine, image, -1), ~(mine & (image < 0)), exact_row))
    return ops


# --- section operators -----------------------------------------------------------


#: recursion depth of the first-return preimage search; deeper rows stay non-exact
_DEPTH_CAP = 8


class _PreimageSearch:
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
        self.halving = _halving_branch(gcmap)
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


def build_section_ops(
    gcmap: GCMap,
    n1: ResidueSet,
    n2: ResidueSet,
    window: BasisWindow,
    fuel: int,
    n2_removed: frozenset[int] = frozenset(),
) -> SectionOperators:
    """Build the section operators on a window contained in N1 ∪ N2."""
    _, sigma = section_sets(n1, n2, n2_removed)
    for n in window.elements:
        if n not in sigma:
            raise DomainError(f"window element {n} is not in N1 ∪ N2")
    search = _PreimageSearch(gcmap, sigma)

    pos = window.position
    in_n1 = _residue_mask(window, n1)
    labels = np.array(window.elements, dtype=np.int64)
    value, _, undecided = return_times(gcmap, sigma, labels, fuel)
    # position of P(n), or -1 when it is unknown or outside the window
    at = np.minimum(np.searchsorted(labels, value), len(labels) - 1)
    image = np.where(~undecided & (labels[at] == value), at, -1)
    # unknown columns: not exact for the branch that owns n
    inconclusive = set(labels[undecided].tolist())
    # the other branch's column at n is genuinely zero, hence exact
    exact_col1, exact_col2 = ~in_n1 | (image >= 0), in_n1 | (image >= 0)

    exact_rows1, exact_rows2 = [], []
    for r in window.elements:
        pre = search.preimages(r)
        ok1 = ok2 = pre is not None
        for m in pre or ():
            # a preimage outside the window, or whose column is inconclusive, is missing from the row
            if m not in pos or m in inconclusive:
                ok1, ok2 = ok1 and m not in n1, ok2 and m not in n2
        exact_rows1.append(ok1)
        exact_rows2.append(ok2)

    t1 = _functional(window, np.where(in_n1, image, -1), exact_col1, exact_rows1)
    t2 = _functional(window, np.where(in_n1, -1, image), exact_col2, exact_rows2)
    s2 = t2.adjoint()
    s1 = t1.adjoint() @ s2
    return SectionOperators(window, n1, n2, t1, t2, s1, s2, frozenset(inconclusive))


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
    def status(self) -> int:
        return verdict(violation=not all(c.holds for c in self.checks))

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
    branch = np.array([gcmap.branch_of(n).index for n in window.elements], dtype=np.int64)
    checks = []
    total = None
    sum_t = None
    for br, op in zip(gcmap.branches, ops):
        proj = _diagonal(window, branch == br.index)
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
    eye = identity_operator(w)
    zero = zero_operator(w)
    s1, s2, t1, t2 = ops.s1, ops.s2, ops.t1, ops.t2
    s1_adj, s2_adj = s1.adjoint(), s2.adjoint()
    range1, range2 = s1 @ s1_adj, s2 @ s2_adj
    checks = (
        compare_certified("S1*S1 = I", s1_adj @ s1, eye),
        compare_certified("S2*S2 = I", s2_adj @ s2, eye),
        compare_certified("S1S1* = proj(N1)", range1, _diagonal(w, _residue_mask(w, ops.n1))),
        compare_certified("S2S2* = proj(N2)", range2, _diagonal(w, _residue_mask(w, ops.n2))),
        compare_certified("S1S1* + S2S2* = I", range1 + range2, eye),
        compare_certified("S1*S2 = 0", s1_adj @ s2, zero),
        compare_certified("S2*S1 = 0", s2_adj @ s1, zero),
        compare_certified("T2*T2T1 = T1", t2.adjoint() @ t2 @ t1, t1),
    )
    return RelationReport(checks)


# --- reachable spans vs equivalence classes ------------------------------------------


def _index_graph(edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """Adjacency sets of the undirected graph on labels with the given edges."""
    adj: dict[int, set[int]] = {}
    for n, r in edges:
        adj.setdefault(n, set()).add(r)
        adj.setdefault(r, set()).add(n)
    return adj


def _t_graph(gcmap: GCMap, labels: tuple[int, ...]) -> dict[int, set[int]]:
    """The index graph of T on the window [1, hi]: n -- f(n) where both lie in it.

    A function of its own so that the label lists it builds are freed before
    the span walks, which run at the peak of span_vs_class's memory.
    """
    image, _, leaves = return_times(gcmap, range(1, len(labels) + 1), labels, 1)
    edges = zip(labels, image.tolist(), leaves.tolist())
    return _index_graph((n, v) for n, v, leaf in edges if not leaf)


def _check_depth(depth: int | None) -> None:
    if depth is not None and depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")


def _walk(adj: dict[int, set[int]], start: int, depth: int | None) -> frozenset[int]:
    seen = {start}
    frontier = [start]
    d = 0
    while frontier and (depth is None or d < depth):
        nxt = []
        for n in frontier:
            for m in adj.get(n, ()):
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier = nxt
        d += 1
    return frozenset(seen)


def reachable_span(
    ops: Sequence[TruncatedOperator], start: int, depth: int | None
) -> frozenset[int]:
    """Closure of {start} under the operators and their adjoints, up to word length depth.

    On 0/1 functional operators this is a breadth-first walk of the index
    graph (n -> f(n), n -> each preimage), which agrees with materializing
    matrix products but is exponentially cheaper.
    """
    if start not in ops[0].window:
        raise DomainError(f"start {start} not in window")
    _check_depth(depth)
    # labels joined by a nonzero entry of an operator (hence also of its adjoint)
    edges = ((n, r) for op in ops for r, n, _ in op._triplets())
    return _walk(_index_graph(edges), start, depth)


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


@dataclass(frozen=True)
class SpanClassReport(Report):
    entries: tuple[SpanClassEntry, ...]

    @property
    def status(self) -> int:
        return combine(e.status for e in self.entries)


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
    """
    _check_depth(depth)
    hi = window.elements[-1]
    if window.elements != tuple(range(1, hi + 1)):
        raise ValueError("span_vs_class expects a contiguous window [1, hi]")
    full = classes(gcmap, hi, fuel)
    certified = classes(gcmap, hi, fuel, interior_only=True)
    adj = _t_graph(gcmap, window.elements)
    if starts is None:
        starts = window.elements
    cert_size = Counter(certified.representative.values())
    full_size = Counter(full.representative.values())
    # The certified partition refines the full one, so each certified class
    # lies in one full class and boundary members are the size difference.
    # Without a depth the span is the whole connected component of the start,
    # which is its certified class, so one walk serves every start in it.
    # Membership is read off the representatives: no class is built as a set.
    done: dict = {}
    entries = []
    for s in starts:
        if not 1 <= s <= hi:
            raise DomainError(f"start {s} not in window")
        rep, full_rep = certified.class_of(s), full.class_of(s)
        key = (rep, full_rep) if depth is None else (rep, full_rep, s)
        if key not in done:
            span = _walk(adj, s, depth)
            in_cert = all(certified.class_of(n) == rep for n in span)
            done[key] = (
                len(span),
                full_size[full_rep],
                all(full.class_of(n) == full_rep for n in span),
                in_cert and len(span) == cert_size[rep],
                full_size[full_rep] - cert_size[rep],
                depth is not None and in_cert and len(span) < cert_size[rep],
            )
        entries.append(SpanClassEntry(s, *done[key]))
    return SpanClassReport(tuple(entries))


# --- finitistic cores of the commutant lemmas -----------------------------------------


@dataclass(frozen=True)
class DescentReport(Report):
    """Finitistic core of the projection-descent argument, exhaustively checked.

    The infinite-dimensional commutant statement is out of reach; what is
    verified is its proof mechanism: the fixed vector T2^2 T1 e_1 = e_1 and
    the strict descent (3n+1)/4 < n on every odd n ≡ 1 (mod 4) above 1.
    """

    limit: int
    checked: int
    counterexamples: tuple[int, ...]
    fixed_vector_ok: bool

    @property
    def status(self) -> int:
        return verdict(bool(self.counterexamples) or not self.fixed_vector_ok)


def descent_check(limit: int) -> DescentReport:
    if limit < 5:
        raise ValueError("limit must be >= 5")
    bad = []
    checked = 0
    for n in range(5, limit + 1, 4):  # odd n ≡ 1 (mod 4), n > 1
        checked += 1
        if (3 * n + 1) % 4 != 0 or (3 * n + 1) // 4 >= n:
            bad.append(n)

    from .families import collatz

    window = BasisWindow.range(1, 4)
    t1, t2 = build_branch_ops(collatz(), window)
    word = t2 @ t2 @ t1
    fixed_ok = word.cols.get(1) == {1: 1}
    return DescentReport(limit, checked, tuple(bad), fixed_ok)


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


def _word_step(gcmap: GCMap, word: Sequence[int], y: int) -> int | None:
    """Index-level T_I application: e_y -> e_{f^n(y)} if the itinerary matches, else 0."""
    v = y
    for letter in word:
        br = gcmap.branch_of(v)
        if br.index != letter:
            return None
        v = br.image(v)
    return v


def separating_word_check(
    gcmap: GCMap, x: int, window: BasisWindow, fuel: int, samples: int = 20
) -> WordCheckReport:
    """Verify the contraction mechanism of the separating-condition word T_I.

    Builds T_I = T_{i_n} ... T_{i_1} on the window and checks T_I e_x = e_x
    and T_I e_{f^j(x)} = 0 for 1 <= j < n by exact matrix products; then, for
    sampled y ~ x, checks T_I^m e_y dies (or forces y = x) by index-level
    iteration, which needs no truncation: annihilation happens through guard
    mismatch, independent of any window.
    """
    sep = separating_condition(gcmap, x, fuel)
    if not isinstance(sep, SeparatingResult) or not sep.aperiodic:
        raise ValueError(f"map does not satisfy the separating condition for {x}: {sep}")
    word = tuple(sep.word)
    n = sep.period

    ops = dict(zip((br.index for br in gcmap.branches), build_branch_ops(gcmap, window)))
    t_word = None
    for letter in word:  # rightmost factor T_{i_1} acts first
        op = ops[letter]
        t_word = op if t_word is None else op @ t_word
    cols = t_word.cols
    fixed_ok = cols.get(x) == {x: 1}
    annihilations_ok = True
    v = x
    for _ in range(1, n):
        v = gcmap.apply(v)
        if v in cols:
            annihilations_ok = False

    # contraction on sampled equivalent y: T_I^m e_y must reach 0, never e_x
    failures: list[int] = []
    inconclusive: list[int] = []
    orb = gcmap.orbit(x, fuel)
    candidates = [y for y in orb.prefix if y != x]
    extra = [y for y in window.elements if y != x and y not in orb.values()]
    for y in (candidates + extra)[:samples]:
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
        n, word, fixed_ok, annihilations_ok, tuple(failures), tuple(inconclusive),
        len((candidates + extra)[:samples]),
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


def norm_bound_check(gcmap: GCMap, window: BasisWindow, trials: int) -> NormBoundReport:
    """Check ||T v||^2 <= k ||v||^2 on pseudo-random rational vectors of seed 0.

    Vectors are supported on columns whose image stays inside the window, so
    the truncated action agrees with the infinite operator.  Each vector is
    scaled by the lcm of its denominators, which leaves the ratio unchanged,
    so the arithmetic is exact in integers and one Fraction per trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    image = {n: v for n in window.elements if (v := gcmap.apply(n)) in window}
    support_pool = list(image)  # in label order
    if not support_pool:
        raise ValueError("norm bound: no column of T stays in the window, so no vector can be drawn")
    rng = random.Random(0)
    k = gcmap.k
    max_ratio = Fraction(0)
    violations = 0
    for _ in range(trials):
        size = rng.randint(1, min(12, len(support_pool)))
        support = rng.sample(support_pool, size)
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
        if ratio > k:
            violations += 1
    return NormBoundReport(trials, k, max_ratio, violations)

"""The per-label construction of T and the branch operators T_i, kept as the oracle of the array rows.

``build_T``, ``build_branch_ops`` and ``verify_branch_relations`` read their
exact rows from one array preimage helper and take branch ownership from the
guards.  The functions below build the same operators label by label, as the
library once did: ``gcmap.branch_of`` for ownership, ``gcmap.apply`` for the
columns, ``gcmap.preimage`` and ``AffineBranch.preimage_of`` for the rows,
and the label constructor of ``TruncatedOperator``.  They keep its order of
evaluation too, so on an invalid map they raise what it raised.
"""

from __future__ import annotations

from collatzlab.gcmap import GCMap
from collatzlab.operators import BasisWindow, RelationReport, TruncatedOperator, compare_certified


def _image(gcmap: GCMap, window: BasisWindow) -> dict[int, int]:
    return {n: gcmap.apply(n) for n in window.elements}


def _diagonal(window: BasisWindow, labels) -> TruncatedOperator:
    every = window.elements
    return TruncatedOperator(window, {n: {n: 1} for n in labels}, every, every)


def oracle_T(gcmap: GCMap, window: BasisWindow) -> TruncatedOperator:
    labels = set(window.elements)
    cols = {n: {v: 1} for n, v in _image(gcmap, window).items() if v in labels}
    exact_rows = [n for n in window.elements if all(m in labels for m in gcmap.preimage(n))]
    return TruncatedOperator(window, cols, list(cols), exact_rows)


def oracle_branch_ops(gcmap: GCMap, window: BasisWindow) -> list[TruncatedOperator]:
    labels = set(window.elements)
    branch = {n: gcmap.branch_of(n).index for n in window.elements}
    image = _image(gcmap, window)
    ops = []
    for br in gcmap.branches:
        mine = [n for n in window.elements if branch[n] == br.index]
        cols = {n: {image[n]: 1} for n in mine if image[n] in labels}
        leaves = {n for n in mine if image[n] not in labels}
        exact_rows = [
            n for n in window.elements
            if br.a >= 1 and ((m := br.preimage_of(n)) is None or m in labels)
        ]
        ops.append(TruncatedOperator(window, cols, labels - leaves, exact_rows))
    return ops


def oracle_branch_relations(gcmap: GCMap, window: BasisWindow) -> RelationReport:
    ops = oracle_branch_ops(gcmap, window)
    t = oracle_T(gcmap, window)
    eye = _diagonal(window, window.elements)
    checks = []
    total = None
    sum_t = None
    for br, op in zip(gcmap.branches, ops):
        proj = _diagonal(window, [n for n in window.elements if gcmap.branch_of(n).index == br.index])
        tt = op.adjoint() @ op
        checks.append(compare_certified(f"T{br.index}*T{br.index} = proj(X{br.index})", tt, proj))
        total = tt if total is None else total + tt
        sum_t = op if sum_t is None else sum_t + op
    checks.append(compare_certified("sum_i Ti*Ti = I", total, eye))
    checks.append(compare_certified("sum_i Ti = T", sum_t, t))
    return RelationReport(tuple(checks))

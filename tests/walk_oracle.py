"""The breadth-first walk of one start on list CSR arrays, kept as the oracle
of ``operators._walk``.

``walk_oracle`` visits one position at a time with a seen-mask of its own, so
nothing is shared between starts; ``_walk`` advances every start at once on
arrays and must give each start the same positions.
"""

from __future__ import annotations


def walk_oracle(indptr: list[int], indices: list[int], start: int, depth: int | None) -> list[int]:
    """Every position within ``depth`` edges of ``start`` (all it reaches when
    depth is None), each once, in breadth-first order."""
    seen, span = bytearray(len(indptr) - 1), [start]
    seen[start] = 1
    begin, d = 0, 0
    while begin < len(span) and (depth is None or d < depth):
        end = len(span)
        for p in span[begin:end]:
            for q in indices[indptr[p] : indptr[p + 1]]:
                if not seen[q]:
                    seen[q] = 1
                    span.append(q)
        begin, d = end, d + 1
    return span

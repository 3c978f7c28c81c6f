"""The span walk of ``operators._walk`` against the one-start list walk of
``walk_oracle``, start by start, on small undirected graphs: paths, stars, odd
cycles, self-loops, disconnected pieces and random edges, with many starts in
one component, overlapping balls and depths 0, 1, 3 and None.

Every walk without a depth is first run with depth n, which no component of n
nodes outlasts, so a walk that never stops fails there instead of hanging."""

from __future__ import annotations

import random

import numpy as np
import pytest

from collatzlab.operators import _csr, _walk
from walk_oracle import walk_oracle


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


def star(n):
    return [(0, i) for i in range(1, n)]


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def shift(edges, by):
    return [(a + by, b + by) for a, b in edges]


def random_edges(rng, n, m):
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]


def pieces(rng):
    """Several components side by side: a path, a star, an odd cycle with a
    self-loop, a lone node and a random clump."""
    edges, n = [], 0
    for piece, size in ((path, 7), (star, 6), (cycle, 5)):
        edges += shift(piece(size), n)
        n += size
    edges.append((n - 1, n - 1))
    n += 1  # a lone node: no edge at all
    edges += shift(random_edges(rng, 8, 10), n)
    return n + 8, edges


GRAPHS = {
    "path": (12, path(12)),
    "star": (9, star(9)),
    "odd cycle": (7, cycle(7)),
    "triangle": (3, cycle(3)),  # 1 -> 4 -> 2 -> 1 on positions
    "self-loops": (6, path(6) + [(i, i) for i in (0, 2, 5)]),
    "only self-loops": (4, [(i, i) for i in range(4)]),
    "no edges": (5, []),
    "multi-edges": (5, path(5) + path(5) + [(3, 1)]),
    "pieces": pieces(random.Random(0)),
}
GRAPHS.update(
    {f"random {seed}": (n, random_edges(random.Random(seed), n, n + seed % 7))
     for seed, n in enumerate((1, 2, 10, 17, 25, 40), start=1)}
)


def graph_of(n, edges):
    a = np.array([e[0] for e in edges], dtype=np.int64)
    b = np.array([e[1] for e in edges], dtype=np.int64)
    return _csr(n, a, b)


def check_walk(n, edges, starts, depth):
    """Each start's positions, duplicates included, equal the oracle's."""
    graph = graph_of(n, edges)
    indptr, indices = (x.tolist() for x in graph)
    cap = n if depth is None else depth  # no walk lasts n levels
    owner, pos = _walk(graph, np.array(starts, dtype=np.int64), cap)
    assert len(owner) == len(pos)
    got = [sorted(pos[owner == i].tolist()) for i in range(len(starts))]
    assert got == [sorted(walk_oracle(indptr, indices, s, depth)) for s in starts]
    if depth is None:
        uncapped = _walk(graph, np.array(starts, dtype=np.int64), None)
        assert all(np.array_equal(x, y) for x, y in zip(uncapped, (owner, pos)))


@pytest.mark.parametrize("depth", [0, 1, 3, None])
@pytest.mark.parametrize("name", list(GRAPHS))
def test_every_start_of_every_graph(name, depth):
    n, edges = GRAPHS[name]
    check_walk(n, edges, list(range(n)), depth)


@pytest.mark.parametrize("depth", [0, 1, 3, None])
@pytest.mark.parametrize("name", list(GRAPHS))
def test_unsorted_and_repeated_starts(name, depth):
    n, edges = GRAPHS[name]
    rng = random.Random(n)
    check_walk(n, edges, [rng.randrange(n) for _ in range(2 * n)], depth)


@pytest.mark.parametrize("depth", [1, 2, 3, 5])
def test_overlapping_balls(depth):
    # neighbours on a long path and an odd cycle: each ball holds the next start
    for n, edges in ((30, path(30)), (31, cycle(31))):
        check_walk(n, edges, [10, 11, 12, 14, 10], depth)


def test_one_start():
    n, edges = GRAPHS["pieces"]
    for s in range(n):
        for depth in (0, 1, 3, None):
            check_walk(n, edges, [s], depth)


def test_no_starts():
    owner, pos = _walk(graph_of(*GRAPHS["path"]), np.array([], dtype=np.int64), None)
    assert len(owner) == len(pos) == 0


def test_keys_that_would_leave_int64_are_refused():
    class Huge:  # an indptr of 2^62 + 1 entries: the check reads only its length
        def __len__(self):
            return 2**62 + 1

    with pytest.raises(OverflowError, match="span keys"):
        _walk((Huge(), np.array([], dtype=np.int64)), np.array([0, 1], dtype=np.int64), None)

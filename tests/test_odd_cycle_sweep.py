"""_odd_cycle_sweep against a brute force: 2-colourings of every edge prefix.

The edges of a prefix admit a 0/1 vertex labelling with
label_i xor label_j = flip_ij on every edge ij iff no cycle among them has
an odd number of flips.  The closing position is the first prefix without
one; the forest is the edges before it that join two components of the
edges before them, found by a plain union-find.  The sweep gets the edges
listed in a random order, with their values, a random first block size and
their flips through sign; with values np.arange(E), a closing value is the
brute force's closing position.
"""

from collections import deque

import numpy as np
import pytest

from swbundle.bundle import _odd_cycle_sweep


def two_colourable(n, edges, flips):
    adj = [[] for _ in range(n)]
    for (i, j), f in zip(edges, flips):
        adj[i].append((j, f))
        adj[j].append((i, f))
    label = [None] * n
    for s in range(n):
        if label[s] is not None:
            continue
        label[s] = 0
        queue = deque([s])
        while queue:
            a = queue.popleft()
            for b, f in adj[a]:
                if label[b] is None:
                    label[b] = label[a] ^ f
                    queue.append(b)
                elif label[b] != label[a] ^ f:
                    return False
    return True


def brute_force(n, edges, flips):
    closing = None
    if not two_colourable(n, edges, flips):
        closing = next(k for k in range(len(edges))
                       if not two_colourable(n, edges[:k + 1], flips[:k + 1]))
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    forest = []
    for e, (i, j) in enumerate(edges[:closing]):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            forest.append(e)
    return closing, forest


def random_graph(rng, n, flip_rate, parts=1):
    """Edges of a random graph on n vertices in random order, never joining
    the parts (blocks of consecutive vertex ids), with random flips."""
    part = np.arange(n) * parts // n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if part[i] == part[j]]
    take = rng.permutation(len(pairs))[:rng.integers(0, len(pairs) + 1)]
    edges = [pairs[k] if rng.random() < 0.5 else pairs[k][::-1] for k in take.tolist()]
    return edges, (rng.random(len(edges)) < flip_rate).tolist()


def sweep(rng, n, edges, flips, values=None):
    """_odd_cycle_sweep on the edges listed in a random order, with values
    (default: each edge's position), a random first block size and the
    flips through sign, which must get the number of edges read before each
    block.  Returns the sweep's answer and the edges and flips in its
    filtration order (by value, ties in listed order) for the brute force."""
    E = len(edges)
    values = np.arange(E, dtype=float) if values is None else np.asarray(values, dtype=float)
    listed = rng.permutation(E)
    i = np.array([edges[k][0] for k in listed.tolist()], dtype=np.int64)
    j = np.array([edges[k][1] for k in listed.tolist()], dtype=np.int64)
    flip_of = {edge: flip for edge, flip in zip(edges, flips)}
    read = []

    def sign(bi, bj, before):
        assert before == sum(read)
        read.append(len(bi))
        return np.array([flip_of[e] for e in zip(bi.tolist(), bj.tolist())], dtype=bool)

    first = int(rng.integers(1, E + 2))
    got = _odd_cycle_sweep(n, i, j, values[listed], first, sign)
    order = listed[np.argsort(values[listed], kind="stable")].tolist()
    return got, [edges[k] for k in order], [flips[k] for k in order], values[order]


@pytest.mark.parametrize("seed", range(60))
def test_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 31))
    flip_rate = (0.0, 0.05, 0.5)[seed % 3]
    edges, flips = random_graph(rng, n, flip_rate, parts=1 + seed % 4)
    got, edges, flips, _ = sweep(rng, n, edges, flips)
    assert got == brute_force(n, edges, flips)


@pytest.mark.parametrize("seed", range(30))
def test_matches_brute_force_past_a_spanning_tree(seed):
    # flips from a vertex labelling close no odd cycle; edges toggled in the
    # later half mostly close one after the graph is connected, where the
    # sweep reads its blocks unordered.  Tied values, three to a value, put
    # ties and several odd edges in one unordered block: the closing value
    # is still the value at the brute force's closing position
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 31))
    edges, _ = random_graph(rng, n, 0.0)
    label = rng.integers(0, 2, n)
    planted = [bool(label[i] ^ label[j]) for i, j in edges]
    for tied in (False, True):
        flips = list(planted)
        if edges:
            for k in rng.integers(len(edges) // 2, len(edges), 1 + 2 * tied).tolist():
                flips[k] = not flips[k]
        values = np.floor(np.arange(len(edges)) / 3) if tied else None
        (value, forest), ordered, flips, values = sweep(rng, n, edges, flips, values)
        closing, brute_forest = brute_force(n, ordered, flips)
        assert value == (None if closing is None else values[closing])
        assert forest == brute_forest


@pytest.mark.parametrize("seed", range(20))
def test_no_flips_span_every_component(seed):
    rng = np.random.default_rng(100 + seed)
    n, parts = int(rng.integers(1, 31)), 1 + seed % 5
    edges, flips = random_graph(rng, n, 0.0, parts)
    (closing, forest), edges, flips, _ = sweep(rng, n, edges, flips)
    assert closing is None
    assert forest == brute_force(n, edges, flips)[1]
    assert len(forest) == n - components(n, edges)  # one tree per component


def components(n, edges):
    """The number of components, by depth-first search."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, count = [False] * n, 0
    for s in range(n):
        if not seen[s]:
            count += 1
            seen[s], stack = True, [s]
            while stack:
                for b in adj[stack.pop()]:
                    if not seen[b]:
                        seen[b] = True
                        stack.append(b)
    return count


def test_single_vertex():
    empty = np.array([], dtype=np.int64)
    assert _odd_cycle_sweep(1, empty, empty, np.array([]), 1) == (None, [])
    sign = lambda i, j, before: np.array([], dtype=bool)  # noqa: E731
    assert _odd_cycle_sweep(1, empty, empty, np.array([]), 1, sign) == (None, [])


# edges (i, j, flip) in filtration order, the first block size, and the sweep's answer
ORDERED = (  # blocks of 1, 2, 4 and 8: the triangle 012 has one flip and
    # closes at value 3, in the third block, before the forest spans
    [(0, 1, False), (1, 2, False), (3, 4, True), (0, 2, True), (3, 5, False), (4, 5, False),
     (2, 5, False), (0, 3, False), (0, 4, False)], 1, (3.0, [0, 1, 2]))
PAST_THE_FOREST = (  # blocks of 2, 4, 8 and 1: the forest spans at value 4,
    # in the second block; 0-4 and 1-5 contradict its labels in the third,
    # read unordered, and the smaller value closes
    [(0, 1, False), (1, 2, True), (2, 3, False), (3, 4, False), (4, 5, True), (0, 2, True),
     (0, 3, True), (1, 3, True), (0, 4, False), (2, 4, False), (1, 5, True), (0, 5, False),
     (2, 5, True), (3, 5, True), (1, 4, False)], 2, (8.0, [0, 1, 2, 3, 4]))


def test_reads_no_block_past_the_closing_one():
    # the edges listed in reverse: sign is called for the first three
    # blocks only, each with the number of edges read before it
    for edges, first, answer in (ORDERED, PAST_THE_FOREST):
        flip_of = {(a, b): f for a, b, f in edges}
        i, j = (np.array(column[::-1]) for column in list(zip(*edges))[:2])
        read = []

        def sign(bi, bj, before):
            read.append(before)
            return np.array([flip_of[e] for e in zip(bi.tolist(), bj.tolist())])

        values = np.arange(len(edges), dtype=float)[::-1]
        assert _odd_cycle_sweep(6, i, j, values, first, sign) == answer
        assert read == [0, first, 3 * first]

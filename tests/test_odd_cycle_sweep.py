"""_odd_cycle_sweep against a brute force: 2-colourings of every edge prefix.

The edges of a prefix admit a 0/1 vertex labelling with
label_i xor label_j = flip_ij on every edge ij iff no cycle among them has
an odd number of flips.  The closing position is the first prefix without
one; the forest is the edges before it that join two components of the
edges before them, found by a plain union-find.
"""

from collections import deque

import numpy as np
import pytest

from swbundle.simplicial import _odd_cycle_sweep


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


def random_blocks(rng, edges, flips):
    """The edges as (i, j, flips) arrays, cut into blocks of random sizes >= 1."""
    E = len(edges)
    inner = rng.permutation(np.arange(1, E))[:rng.integers(0, max(E, 1))]
    bounds = [0, *sorted(inner.tolist()), E]
    i = np.array([a for a, _ in edges], dtype=np.int64)
    j = np.array([b for _, b in edges], dtype=np.int64)
    f = np.array(flips, dtype=bool)
    return [(i[lo:hi], j[lo:hi], f[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


@pytest.mark.parametrize("seed", range(60))
def test_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 31))
    flip_rate = (0.0, 0.05, 0.5)[seed % 3]
    edges, flips = random_graph(rng, n, flip_rate, parts=1 + seed % 4)
    assert _odd_cycle_sweep(n, random_blocks(rng, edges, flips)) == brute_force(n, edges, flips)


@pytest.mark.parametrize("seed", range(30))
def test_matches_brute_force_past_a_spanning_tree(seed):
    # flips from a vertex labelling close no odd cycle; one edge toggled in
    # the later half mostly closes one after the graph is connected
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 31))
    edges, _ = random_graph(rng, n, 0.0)
    label = rng.integers(0, 2, n)
    flips = [bool(label[i] ^ label[j]) for i, j in edges]
    if edges:
        k = int(rng.integers(len(edges) // 2, len(edges)))
        flips[k] = not flips[k]
    assert _odd_cycle_sweep(n, random_blocks(rng, edges, flips)) == brute_force(n, edges, flips)


@pytest.mark.parametrize("seed", range(20))
def test_no_flips_span_every_component(seed):
    rng = np.random.default_rng(100 + seed)
    n, parts = int(rng.integers(1, 31)), 1 + seed % 5
    edges, flips = random_graph(rng, n, 0.0, parts)
    closing, forest = _odd_cycle_sweep(n, random_blocks(rng, edges, flips))
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
    assert _odd_cycle_sweep(1, []) == (None, [])
    empty = np.array([], dtype=np.int64)
    assert _odd_cycle_sweep(1, [(empty, empty, np.array([], dtype=bool))]) == (None, [])


def test_reads_no_block_past_the_closing_one():
    # the triangle 012 has one flip: it closes at position 3, in the third block
    blocks = [
        (np.array([0]), np.array([1]), np.array([False])),
        (np.array([1, 3]), np.array([2, 4]), np.array([False, True])),
        (np.array([0]), np.array([2]), np.array([True])),
        (np.array([3]), np.array([5]), np.array([False])),
    ]
    read = []

    def lazy():
        for block in blocks:
            read.append(block)
            yield block

    assert _odd_cycle_sweep(6, lazy()) == (3, [0, 1, 2])
    assert len(read) == 3

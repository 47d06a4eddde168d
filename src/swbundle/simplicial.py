"""Simplicial complexes, Rips filtrations, subdivision, and pullbacks.

Vertices are integers.  Complexes carrying vertex payloads (coordinates in
the ambient product space) must use contiguous vertex ids 0..V-1 so the
payloads can live in one array; the subdivision re-indexes accordingly and
records the provenance of each new vertex in ``vertex_names``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

from .z2 import INF, Barcode, CochainZ2, _check_monotone


def _canonical(simplex: Iterable[int]) -> tuple:
    s = tuple(sorted(simplex))
    if not s:
        raise ValueError("empty simplex")
    if len(set(s)) != len(s):
        raise ValueError(f"repeated vertex in simplex {s}")
    return s


class SimplicialComplex:
    """A finite simplicial complex, closed under taking faces.

    Attributes:
        simplices: dict dimension -> lexicographically sorted tuple of simplices.
        payloads: optional (V, k) array of vertex coordinates, indexed by vertex id.
        vertex_names: optional provenance labels (used by the subdivision).
    """

    def __init__(
        self,
        simplices: Iterable[Iterable[int]],
        payloads: Optional[np.ndarray] = None,
        vertex_names: Optional[list] = None,
        _trusted: bool = False,
    ) -> None:
        by_dim: dict[int, set] = {}
        if _trusted:
            for s in simplices:
                by_dim.setdefault(len(s) - 1, set()).add(s)
        else:
            for s in simplices:
                s = _canonical(s)
                by_dim.setdefault(len(s) - 1, set()).add(s)
            # close under faces, top dimension downwards
            for d in range(max(by_dim, default=0), 0, -1):
                lower = by_dim.setdefault(d - 1, set())
                for s in by_dim.get(d, ()):
                    for drop in range(len(s)):
                        lower.add(s[:drop] + s[drop + 1:])
        self.simplices: dict[int, tuple] = {
            d: tuple(sorted(by_dim[d])) for d in sorted(by_dim)
        }
        self._sets: dict[int, frozenset] = {d: frozenset(v) for d, v in self.simplices.items()}
        self.payloads = None
        if payloads is not None:
            payloads = np.asarray(payloads, dtype=float)
            verts = self.vertices
            if verts and (verts[0] != 0 or verts[-1] != len(verts) - 1):
                raise ValueError("payloads require contiguous vertex ids 0..V-1")
            if payloads.shape[0] != len(verts):
                raise ValueError("one payload row per vertex required")
            self.payloads = payloads
        self.vertex_names = vertex_names

    @property
    def vertices(self) -> tuple:
        return tuple(s[0] for s in self.simplices.get(0, ()))

    @property
    def dim(self) -> int:
        return max(self.simplices, default=-1)

    def sorted_simplices(self, dim: int) -> tuple:
        return self.simplices.get(dim, ())

    def simplex_set(self, dim: int) -> frozenset:
        return self._sets.get(dim, frozenset())

    def __contains__(self, simplex: Iterable[int]) -> bool:
        s = tuple(sorted(simplex))
        return s in self._sets.get(len(s) - 1, frozenset())

    def n_simplices(self) -> int:
        return sum(len(v) for v in self.simplices.values())

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(v) for d, v in self.simplices.items())


@dataclass
class FilteredComplex:
    """A simplicial complex with one filtration value per simplex.

    Invariant: values are nonnegative and monotone (face <= coface), checked
    on construction.
    """

    complex: SimplicialComplex
    values: Mapping[tuple, float]
    _skip_checks: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self._skip_checks:
            return
        for simplices in self.complex.simplices.values():
            for s in simplices:
                if self.values[s] < 0:
                    raise ValueError(f"negative filtration value at {s}")
        _check_monotone(self)


# ---------------------------------------------------------------------------
# Rips / clique machinery
# ---------------------------------------------------------------------------

def _flag_fill(n_vertices: int, edges: list[tuple], edge_values: dict, max_dim: int):
    """Extend a weighted graph to its clique complex up to max_dim.

    Returns (simplices list, values dict).  Higher simplices get the max of
    their edge values.
    """
    simplices: list[tuple] = [(v,) for v in range(n_vertices)]
    values: dict[tuple, float] = {(v,): 0.0 for v in range(n_vertices)}
    for e in edges:
        simplices.append(e)
        values[e] = edge_values[e]
    if max_dim < 2 or not edges:
        return simplices, values
    above: list[int] = [0] * n_vertices  # bitmask of neighbors with larger id
    for (a, b) in edges:
        above[a] |= 1 << b
    frontier = list(edges)
    for dim in range(2, max_dim + 1):
        new_frontier = []
        for s in frontier:
            common = above[s[0]]
            for v in s[1:]:
                common &= above[v]
            val_s = values[s]
            while common:
                w = common & -common
                k = w.bit_length() - 1
                common ^= w
                ext = s + (k,)
                val = val_s
                for v in s:
                    ev = edge_values[(v, k)]
                    if ev > val:
                        val = ev
                simplices.append(ext)
                values[ext] = val
                new_frontier.append(ext)
        frontier = new_frontier
        if not frontier:
            break
    return simplices, values


def _check_max_value(max_value: float) -> None:
    if not max_value >= 0:
        raise ValueError(f"max value must be non-negative, got {max_value}")


def _flag_edges(D: np.ndarray, max_value: float):
    """Validate a distance matrix and list the edges of its flag filtration.

    Returns (n, i, j, values): the pairs i < j whose value D[i, j] / 2 is at
    most max_value, in filtration order (by value, ties by (i, j)), as two
    index arrays and a list of values.
    """
    _check_max_value(max_value)
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    if D.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if not np.all(np.isfinite(D)):
        raise ValueError("distance matrix has non-finite entries")
    if np.any(D < 0):
        raise ValueError("negative distances")
    if np.max(np.abs(D - D.T)) > 1e-9:
        raise ValueError("distance matrix must be symmetric")
    if np.max(np.abs(np.diag(D))) > 1e-12:
        raise ValueError("distance matrix must have zero diagonal")

    iu, ju = np.triu_indices(n, k=1)
    vals = D[iu, ju] / 2.0
    keep = np.nonzero(vals <= max_value)[0]
    order = keep[np.argsort(vals[keep], kind="stable")]
    return n, iu[order], ju[order], vals[order].tolist()


def rips_filtration(
    D: np.ndarray,
    max_value: float,
    max_dim: int,
    payloads: Optional[np.ndarray] = None,
) -> FilteredComplex:
    """Vietoris-Rips filtration of a finite metric space.

    Vertices enter at 0 and the edge {i, j} at D[i, j] / 2, so that the
    complex at index t is the flag complex of the nerve of closed balls of
    radius t.  Higher simplices (up to max_dim) enter at the max of their
    edges; simplices with value > max_value are omitted.
    """
    n, iu, ju, values = _flag_edges(D, max_value)
    edges = list(zip(iu.tolist(), ju.tolist()))
    edge_values = dict(zip(edges, values))
    simplices, values = _flag_fill(n, edges, edge_values, max_dim)
    K = SimplicialComplex(simplices, payloads=payloads, _trusted=True)
    return FilteredComplex(K, values, _skip_checks=True)


def rips_barcode(D: np.ndarray, max_value: float, max_dim: int = 1) -> Barcode:
    """Barcode in degrees 0..max_dim (at most 1) of the flag filtration of D.

    The intervals equal those of ``barcode(rips_filtration(D, max_value, 2),
    max_dim)``, but no triangle is ever built.  max_value is first capped at
    the enclosing radius min_i max_j D[i, j] / 2, read off the edge list:
    the least largest edge value of a vertex of full degree (any other
    vertex has an edge past max_value).  From there on every flag
    complex is a cone on the centre i, so every H1 class has died, one H0
    bar is left, and later edges only add zero-length pairs.  H0 comes from
    the spanning forest of ``_odd_cycle_sweep``, with no edge flipped.  H1
    comes from persistent cohomology (de Silva, Morozov & Vejdemo-Johansson,
    arXiv 1107.5665) in the manner of Ripser (Bauer, arXiv 1908.02518); see
    ``_h1_bars``.
    """
    if max_dim not in (0, 1):
        raise ValueError(f"rips_barcode reports degrees 0 and 1 only, got max_dim = {max_dim}")
    return _flag_barcode(*_flag_edges(D, max_value), max_dim)


def _flag_barcode(n: int, iu: np.ndarray, ju: np.ndarray, values: list, max_dim: int) -> Barcode:
    """rips_barcode of the flag filtration on n vertices whose edges are
    (iu[r], ju[r]) with values[r], in filtration order as _flag_edges lists
    them; max_dim is 0 or 1."""
    ranks = np.arange(len(values))
    full = np.bincount(iu, minlength=n) + np.bincount(ju, minlength=n) == n - 1
    if values and full.any():
        last = np.zeros(n, dtype=ranks.dtype)  # a vertex's largest edge is its last one
        np.maximum.at(last, iu, ranks)
        np.maximum.at(last, ju, ranks)
        E = bisect.bisect_right(values, values[last[full].min()])
        iu, ju, values = iu[:E], ju[:E], values[:E]

    forest = _odd_cycle_sweep(n, [(iu, ju, np.zeros(len(values), dtype=bool))])[1]
    tree = np.zeros(len(values), dtype=bool)
    tree[forest] = True
    bars = [(0, 0.0, values[e]) for e in forest if values[e] > 0.0]
    bars += [(0, 0.0, INF)] * (n - len(forest))
    if max_dim == 1 and values:
        bars += _h1_bars(n, iu, ju, values, tree)
    bars.sort()
    return Barcode(tuple(bars))


def _odd_cycle_sweep(n: int, blocks) -> tuple[Optional[int], list]:
    """Kruskal's union-find on n vertices with a Z/2 flip on each edge.

    blocks yields (i, j, flips) arrays, the edges ij in filtration order and
    whether each flips.  Returns (closing, forest): the position of the
    first edge that closes a cycle with an odd number of flips (None if
    none does), and the positions of the spanning-forest edges, the ones
    before it that join two components.  Once n - 1 merges connect the
    graph, every vertex has a fixed parity to the one root, and each later
    edge closes an odd cycle iff its flip differs from its ends' parities.
    """
    parent, parity = list(range(n)), [0] * n  # parity: flips from a vertex to its parent
    size = [1] * n  # a root's component size: the smaller root goes under the larger

    def find(a: int):
        odd = 0
        while parent[a] != a:  # path halving
            p = parent[a]
            parity[a] ^= parity[p]
            parent[a] = parent[p]
            odd ^= parity[a]
            a = parent[a]
        return a, odd

    forest, labels, lo = [], None, 0  # labels: each vertex's parity to the root, once connected
    for bi, bj, flips in blocks:
        start = 0
        if labels is None:
            for e, (i, j, flip) in enumerate(zip(bi.tolist(), bj.tolist(), flips.tolist())):
                # a root's parity is 0, so a root or a root's child needs no find
                ri, pi = (parent[i], parity[i]) if parent[parent[i]] == parent[i] else find(i)
                rj, pj = (parent[j], parity[j]) if parent[parent[j]] == parent[j] else find(j)
                if ri != rj:
                    if size[ri] > size[rj]:
                        ri, rj = rj, ri
                    parent[ri], parity[ri] = rj, pi ^ pj ^ flip
                    size[rj] += size[ri]
                    forest.append(lo + e)
                    if len(forest) == n - 1:
                        labels = np.array([find(v)[1] for v in range(n)], dtype=bool)
                        start = e + 1
                        break
                elif pi ^ pj ^ flip:
                    return lo + e, forest
        if labels is not None:
            odd = np.flatnonzero(labels[bi[start:]] ^ labels[bj[start:]] ^ flips[start:])
            if odd.size:
                return lo + start + int(odd[0]), forest
        lo += len(flips)
    return None, forest


def _h1_bars(n: int, iu: np.ndarray, ju: np.ndarray, values: list, tree: np.ndarray) -> list:
    """Degree-1 intervals of the flag filtration whose edges, in filtration
    order, are (iu[r], ju[r]) with values[r]; tree marks the H0 deaths.

    A triangle is keyed by its edge ranks in descending order, packed into
    one int64, so that key order is a filtration order.  Edge e's column is
    its coboundary, a sorted key array, and its pivot is its smallest key
    (its earliest coface).  Columns are reduced from the latest edge to the
    earliest; tree edges are cleared.  Edge e is apparent when some vertex k
    has max(R[a, k], R[b, k]) < e: its earliest coface then has e as its
    latest edge, a zero-length pair that needs no reduction.  A scan records
    mid[e] = min_k max(R[a, k], R[b, k]) for every other edge, and only
    that.  A key with ranks (t, m, l) is the first key of coboundary(t),
    and so an apparent pair's pivot, iff mid[t] == m: rank m fixes the
    triangle's third vertex.  Only then is coboundary(t) built, to be
    added; a lookup that finds no column builds nothing.

    The scan also gives every other column's first key: edge mid[e] shares
    one end with e, and its other end is the third vertex k of the earliest
    coface, whose ranks are mid[e], e and min(R[a, k], R[b, k]); mid[e] == E
    leaves the column empty, an infinite bar.  A first key that is neither
    apparent nor a stored pivot pairs at once (an emergent pair, in Ripser's
    terms): the column is stored as its edge and built only when a later
    lookup reads it.  The columns whose first key is apparent are built
    BLOCK_KEYS // n at a time, as stacked rows of R like a block of the scan.

    A long column adds the coboundaries of many apparent keys of its window
    at once (see ``_reduce_column``), built from at most BLOCK_KEYS // n
    stacked rows of R in the same way.  Every such key (t, m, l) of edge
    e's column has t > e, as e itself is not apparent, so coboundary(t) is a
    column that comes before e's in the reduction order.  Adding such
    columns never changes the pivot a reduction ends at, so every interval
    stays the same.  An apparent key is never a stored pivot (pivots are
    unique in a reduced matrix, and coboundary(t) already holds it), so the
    batch skips that lookup.
    """
    E = len(values)
    if (E + 1) ** 3 > 2 ** 63:  # (E + 1) ** 3 bounds every key _coface_keys computes
        raise ValueError(f"{E} edges: triangle keys would overflow int64")
    E2, E3 = E * E, E ** 3
    ranks = np.arange(E)
    # R[a, b]: the rank of edge ab, E where there is none; int16 holds them
    # all when E < 2 ** 15, and halves the scan's memory traffic
    R = np.full((n, n), E, dtype=np.int16 if E < 2 ** 15 else np.int32)
    R[iu, ju] = ranks
    R[ju, iu] = ranks
    mid = np.full(E, E)
    todo = np.flatnonzero(~tree)
    rows = max(1, BLOCK_KEYS // n)  # rows of R per block
    for start in range(0, todo.size, rows):
        block = todo[start: start + rows]
        mid[block] = np.maximum(R[iu[block]], R[ju[block]]).min(axis=1)
    R = R.astype(np.int64)  # keys reach (E + 1) ** 3
    # iu, ju and mid stay arrays: as Python lists they would take tens of bytes per edge

    bars = [(1, values[e], INF) for e in np.flatnonzero(~tree & (mid == E)).tolist()]
    cols = np.flatnonzero(~tree & (ranks < mid) & (mid < E))[::-1]  # latest first
    m = mid[cols]
    a, b, x, y = iu[cols], ju[cols], iu[m], ju[m]
    k = np.where((x == a) | (x == b), y, x)  # edge m is ak or bk: the earliest coface is abk
    lo = np.minimum(R[a, k], R[b, k])
    second = np.maximum(lo, cols)
    first = m * E2 + second * E + np.minimum(lo, cols)
    apparent_first = mid[m] == second

    def coboundary(e: int) -> np.ndarray:
        keys = _coface_keys(R[iu[e]], R[ju[e]], e, E)
        keys.sort()
        return keys[:keys.searchsorted(E3)]

    def initial_columns():
        """The sorted coboundaries of the columns with an apparent first key, in order."""
        ahead = cols[apparent_first]
        for start in range(0, ahead.size, rows):
            t = ahead[start: start + rows]
            keys = _coface_keys(R[iu[t]], R[ju[t]], t[:, None], E)
            keys.sort(axis=1)
            sizes = np.count_nonzero(keys < E3, axis=1).tolist()
            yield from (row[:size] for row, size in zip(keys, sizes))

    # pivot -> reduced column, or its (window, runs, inbox) or its unbuilt edge until first read
    pivots: dict = {}

    def lookup(pivot: int):
        col = pivots.get(pivot)
        if col is None:
            top = pivot // E2
            return coboundary(top) if mid[top] == pivot // E % E else None
        if isinstance(col, int):
            col = pivots[pivot] = coboundary(col)
        elif isinstance(col, tuple):
            col = pivots[pivot] = _materialise(*col)
        return col

    def batch(win: np.ndarray, count: int):
        pivot = int(win[0])
        if mid[pivot // E2] != pivot // E % E:
            return None
        top = win // E2
        t = top[mid[top] == win // E % E][:min(count, rows)]
        keys = _coface_keys(R[iu[t]], R[ju[t]], t[:, None], E)
        return keys[keys < E3]

    initial = initial_columns()
    for e, pivot, apparent in zip(cols.tolist(), first.tolist(), apparent_first.tolist()):
        if apparent or pivot in pivots:
            pivot, col = _reduce_column(next(initial) if apparent else coboundary(e), lookup, batch)
            if pivot is None:
                bars.append((1, values[e], INF))
                continue
            pivots[pivot] = col
        else:  # coboundary(e) is reduced as it stands
            pivots[pivot] = e
        death = values[pivot // E2]
        if death > values[e]:
            bars.append((1, values[e], death))
    return bars


def _coface_keys(ra: np.ndarray, rb: np.ndarray, e, E: int) -> np.ndarray:
    """Keys of the triangles abk of edge e = ab, unsorted, from the rank rows
    ra = R[a] and rb = R[b], one per k.  Where abk is not a triangle, its
    top rank reads E and its key is at least E ** 3, past every triangle's.
    Stacked rows take a column e of edge ranks."""
    hi, lo = np.maximum(ra, rb), np.minimum(ra, rb)
    return np.maximum(hi, e) * (E * E) + np.maximum(lo, np.minimum(hi, e)) * E + np.minimum(lo, e)


# a window of more than 2 * WINDOW keys keeps its first WINDOW and sends the rest to the inbox
WINDOW = 512
# a column makes this many single additions before it adds apparent columns in batches
SINGLE_ADDS = 32
# keys per block of stacked rows of R: one past the allocator's mmap threshold
# would be mapped and faulted in anew
BLOCK_KEYS = 1 << 16


def _reduce_column(col: np.ndarray, lookup, batch):
    """Add the columns that lookup returns to col until its pivot has none.

    Returns (pivot, (window, runs, inbox)), the column still in pieces (see
    ``_materialise``), or (None, None) when the column vanishes.  Only the
    keys below a limit, the window, are merged into one sorted array, and
    the pivot is its first key.  The parts of added columns at or past the
    limit go unmerged into the inbox.  Once every window key has cancelled,
    the inbox is sorted into one run, and a run is merged into the run
    before it once it is at least half as long, so a key is copied O(log)
    times.  The next window then takes the keys below a new limit, at most
    WINDOW from each run.  A long column's tail is thus not re-merged at
    each addition, and a column that no later lookup reads is never merged
    in full.

    After SINGLE_ADDS single additions, a pivot that is an apparent key
    (batch returns keys) is added together with the next apparent keys of
    the window: batch(win, count) gives the unsorted keys of the first
    count apparent columns, 2, 4, 8, ... at a time, merged in one step.
    Each of those columns starts at its own key, so the pivot still cancels
    and the next pivot comes later.
    """
    win, runs, inbox, limit = col, [], [], None
    adds, count = 0, 2
    while True:
        if win.size > 2 * WINDOW:
            inbox.append(win[WINDOW:])
            limit = int(win[WINDOW])
            win = win[:WINDOW]
        elif not win.size:
            if inbox:
                runs.append(_odd_keys(inbox))
                inbox = []
                while len(runs) > 1 and 2 * runs[-1].size >= runs[-2].size:
                    last = runs.pop()
                    runs[-1] = _xor_sorted(runs[-1], last)
            runs = [r for r in runs if r.size]
            if not runs:
                return None, None
            limit = min((int(r[WINDOW]) for r in runs if r.size > WINDOW), default=None)
            cuts = [r.size if limit is None else int(r.searchsorted(limit)) for r in runs]
            win = _odd_keys([r[:c] for r, c in zip(runs, cuts)])
            runs = [r[c:] for r, c in zip(runs, cuts) if c < r.size]
            continue
        keys = batch(win, count) if adds >= SINGLE_ADDS else None
        if keys is not None:
            if limit is not None:
                far = keys >= limit
                inbox.append(keys[far])
                keys = keys[~far]
            win = _odd_keys([win, keys])
            count *= 2
            continue
        pivot = int(win[0])
        other = lookup(pivot)
        if other is None:
            return pivot, (win, runs, inbox)
        adds += 1
        if limit is not None:
            cut = int(other.searchsorted(limit))
            if cut < other.size:
                inbox.append(other[cut:])
                other = other[:cut]
        win = _xor_sorted(win, other)


def _materialise(win: np.ndarray, runs: list, inbox: list) -> np.ndarray:
    """The sorted column held as a window and the unmerged keys past it."""
    if not runs and not inbox:
        return win
    return np.concatenate((win, _odd_keys(runs + inbox)))


def _odd_keys(parts: list) -> np.ndarray:
    """The keys that occur an odd number of times in all the arrays of parts, sorted."""
    z = np.sort(np.concatenate(parts))
    start = np.flatnonzero(np.concatenate(([True], z[1:] != z[:-1])))
    odd = np.diff(np.append(start, z.size)) % 2 == 1
    return z[start[odd]]


def _xor_sorted(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Symmetric difference of two sorted arrays of distinct keys, sorted."""
    z = np.concatenate((x, y))
    z.sort(kind="stable")  # a merge of two sorted runs
    new = np.concatenate(([True], z[1:] != z[:-1], [True]))
    return z[new[1:] & new[:-1]]


def clique_complex(edges: Iterable[tuple], n_vertices: int, max_dim: int) -> SimplicialComplex:
    """Flag complex of a simple undirected graph, truncated at max_dim."""
    canon = sorted({_canonical(e) for e in edges})
    for e in canon:
        if len(e) != 2:
            raise ValueError(f"not an edge: {e}")
        if e[1] >= n_vertices:
            raise ValueError(f"edge {e} exceeds vertex count {n_vertices}")
    edge_values = {e: 0.0 for e in canon}
    simplices, _ = _flag_fill(n_vertices, canon, edge_values, max_dim)
    return SimplicialComplex(simplices, _trusted=True)


# ---------------------------------------------------------------------------
# Barycentric subdivision
# ---------------------------------------------------------------------------

def barycentric_subdivision(K: SimplicialComplex) -> SimplicialComplex:
    """One barycentric subdivision of a complex of dimension <= 2.

    New vertices are the simplices of K; new simplices are the chains of
    strict inclusions.  A new vertex's id is its simplex's position in
    (dimension, lexicographic) order, recorded in ``vertex_names``, so every
    chain is already ascending; its payload is the mean of its simplex's
    vertex payloads.
    """
    if K.dim > 2:
        raise ValueError("subdivision implemented for complexes of dimension <= 2")
    names = [s for d in sorted(K.simplices) for s in K.simplices[d]]
    index = {s: i for i, s in enumerate(names)}

    simplices: list[tuple] = [(i,) for i in range(len(names))]
    for (a, b) in K.simplices.get(1, ()):
        e = index[(a, b)]
        simplices.append((index[(a,)], e))
        simplices.append((index[(b,)], e))
    for tri in K.simplices.get(2, ()):
        t = index[tri]
        tri_edges = [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])]
        for v in tri:
            simplices.append((index[(v,)], t))
        for e in tri_edges:
            simplices.append((index[e], t))
            for v in e:
                simplices.append((index[(v,)], index[e], t))

    payloads = None
    if K.payloads is not None:
        # the leading empty block keeps the (0, k) shape of an empty complex
        payloads = np.concatenate([K.payloads[:0]] + [
            K.payloads[np.array(K.simplices[d])].mean(axis=1) for d in sorted(K.simplices)
        ])
    return SimplicialComplex(simplices, payloads=payloads, vertex_names=names, _trusted=True)


# ---------------------------------------------------------------------------
# Simplicial maps and pullbacks
# ---------------------------------------------------------------------------

def is_simplicial_map(f: Mapping[int, int], K: SimplicialComplex, L: SimplicialComplex) -> bool:
    """True iff the image of every simplex of K (duplicates removed) is in L."""
    for v in K.vertices:
        if v not in f:
            raise ValueError(f"vertex map not defined on {v}")
    for simplices in K.simplices.values():
        for s in simplices:
            img = tuple(sorted(set(f[v] for v in s)))
            if img not in L.simplex_set(len(img) - 1):
                return False
    return True


def pullback_cochain(
    f: Mapping[int, int],
    K: SimplicialComplex,
    L: SimplicialComplex,
    w: CochainZ2,
    check: bool = True,
) -> CochainZ2:
    """Pull a degree-1 cochain on L back along a simplicial map K -> L.

    The value on an edge [a, b] of K is w([f(a), f(b)]) when the endpoints
    map to distinct vertices, and 0 otherwise.
    """
    if w.degree != 1:
        raise ValueError("pullback implemented for degree-1 cochains")
    if check and not is_simplicial_map(f, K, L):
        raise ValueError("not a simplicial map")
    support = []
    wsup = w.support
    for (a, b) in K.simplices.get(1, ()):
        fa, fb = f[a], f[b]
        if fa == fb:
            continue
        img = (fa, fb) if fa < fb else (fb, fa)
        if img in wsup:
            support.append((a, b))
    return CochainZ2(1, frozenset(support))

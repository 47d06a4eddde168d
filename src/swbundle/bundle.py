"""Lifted clouds, lifebars and flag-filtration barcodes: the production core.

A lifted cloud lives in R^n x M(R^m) with the gamma-weighted product norm.
Its flag-complex filtration carries projection maps to G_1(R^m) wherever the
matrix parts stay off the medial axis.  lifebar reads the first persistent
class off one parity sweep of certified edge signs; _flag_barcode computes
the degree 0 and 1 barcode of the flag filtration from its edge list, with
no stored triangle.  The paper's reference decider (weak simplicial
approximation, pullback, coboundary test) is projective.sw_class_at; no
module the CLI imports loads it.

Class decisions run on the flag graph (the 1-skeleton of the flag complex):
the relative group H^1(K, K^1; Z/2) vanishes, so restricting to the graph is
injective on H^1 and triangles cannot change a degree-1 answer.

Scale convention: the class reported at index t is computed on the flag
complex at scale sqrt(2) * t.  The index set [0, tmax_gamma / sqrt(2)) is
exactly the range where that rescaled complex stays below the projection's
definability bound, and it makes the reported indices match the offset
filtration's thresholds.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from . import lazy_names
from .grassmann import (
    MedialAxisError,
    eigen_gaps,
    eigh_descending,
    line_projectors,
    GAP_TOLERANCE,
    tmax_from_gaps,
)

SQRT2 = math.sqrt(2.0)

LIFEBAR_CAVEAT = (
    "t_dagger is exact: the largest index with a zero class, from a parity sweep of edge "
    "flips certified by the eigen-gaps; resolution and the subdivision limit steer nothing"
)


# ---------------------------------------------------------------------------
# Lifted clouds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftedCloud:
    """A finite subset of R^n x M(R^m) with its gamma-weighted norm."""

    xs: np.ndarray       # (N, n)
    mats: np.ndarray     # (N, m, m)
    gamma: float

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        mats = np.asarray(self.mats, dtype=float)
        if xs.ndim != 2 or mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("expected xs of shape (N, n) and mats of shape (N, m, m)")
        if xs.shape[0] != mats.shape[0]:
            raise ValueError("xs and mats must have the same number of points")
        for arr, what in ((xs, "base coordinate x"), (mats, "matrix entry A")):
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=tuple(range(1, arr.ndim))))
            if bad.size:
                raise ValueError(f"non-finite {what} at point {bad[0]}")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "mats", mats)
        # 8 max |e_i|^2 bounds distance_matrix's squared distances and _edge_blocks' screen
        with np.errstate(over="ignore"):
            emb = self.embedding()
            if not math.isfinite(8.0 * np.einsum("ij,ij->i", emb, emb).max(initial=0.0)):
                raise ValueError(
                    f"the cloud's squared distances overflow a float (gamma = {self.gamma:g})")

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def n(self) -> int:
        return self.xs.shape[1]

    @property
    def m(self) -> int:
        return self.mats.shape[1]

    def embedding(self) -> np.ndarray:
        """Isometric embedding into R^{n+m^2}: (x, gamma * vec(A))."""
        flat = self.mats.reshape(len(self), -1) * self.gamma
        return np.concatenate([self.xs, flat], axis=1)

    def payloads(self) -> np.ndarray:
        """Vertex payloads (x, vec(A)), unscaled; barycenters average these."""
        return np.concatenate([self.xs, self.mats.reshape(len(self), -1)], axis=1)

    def distance_matrix(self) -> np.ndarray:
        emb = self.embedding()
        sq = np.sum(emb * emb, axis=1)
        D2 = sq[:, None] + sq[None, :] - 2.0 * (emb @ emb.T)
        np.maximum(D2, 0.0, out=D2)
        D = np.sqrt(D2)
        D = (D + D.T) / 2.0  # gemm rounding can break exact symmetry
        np.fill_diagonal(D, 0.0)
        return D

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "gamma": self.gamma,
            "points": [{"x": x, "A": A} for x, A in zip(self.xs.tolist(), self.mats.tolist())],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LiftedCloud":
        if not isinstance(obj, dict):
            raise ValueError(f"cloud must be a JSON object, got {type(obj).__name__}")
        for key in ("n", "m", "gamma", "points"):
            if key not in obj:
                raise ValueError(f"cloud is missing '{key}'")
        for key in ("n", "m"):
            size = obj[key]
            if not (type(size) is int or type(size) is float and size.is_integer()):
                raise ValueError(f"'{key}' must be an integer, got {size!r}")
            if size > 2 ** 31:  # name its digit count: the number may run to hundreds of digits
                digits = len(str(int(size)))
                raise ValueError(f"'{key}' must be at most 2**31, got an integer of {digits} digits")
            if size < 0:
                raise ValueError(f"'{key}' must be non-negative, got {size!r}")
        if type(obj["gamma"]) not in (int, float):
            raise ValueError(f"'gamma' must be a number, got {obj['gamma']!r}")
        n, m = int(obj["n"]), int(obj["m"])
        try:
            gamma = float(obj["gamma"])
        except OverflowError:
            raise ValueError("'gamma' is a number too large for a float") from None
        points = obj["points"]
        if not isinstance(points, list):
            raise ValueError(f"'points' must be a list, got {type(points).__name__}")
        if not points:
            raise ValueError("empty cloud")
        try:  # every point at once: "A" rows as given, "v" rows through one line_projectors
            has_A = ["A" in p for p in points]
            xs = _stacked(points, "x", (n,))
            mats = _stacked([p for p, a in zip(points, has_A) if a], "A", (m, m))
            if not all(has_A):
                V = _stacked([p for p, a in zip(points, has_A) if not a], "v", (m,))
                rows, A = np.array(has_A), mats
                mats = np.empty((len(points), m, m))
                mats[rows], mats[~rows] = A, line_projectors(V)
        except (KeyError, TypeError, ValueError, OverflowError):
            for k, p in enumerate(points):  # word the first bad point's error, by its file index
                if not isinstance(p, dict):
                    raise ValueError(f"point {k} must be an object, got {type(p).__name__}")
                _point_field(p, k, "x", (n,))
                if "A" in p:
                    _point_field(p, k, "A", (m, m))
                elif "v" in p:
                    try:
                        line_projectors(_point_field(p, k, "v", (m,))[None])
                    except ValueError as err:
                        raise ValueError(f"point {k} has a bad 'v': {err}") from None
                else:
                    raise ValueError(f"point {k} needs a matrix 'A' or a line direction 'v'")
            raise
        return cls(xs, mats, gamma)


def _stacked(points: list, key: str, shape: tuple) -> np.ndarray:
    """The points' `key` fields as one float array of shape (len(points),) + shape;
    TypeError, ValueError or OverflowError unless each is nested lists of that
    shape holding JSON numbers (int or float: no string, no boolean)."""
    flat = [p[key] for p in points]
    for size in shape:  # dicts and strings reach the type check as keys and characters
        if set(map(len, flat)) - {size}:
            raise ValueError(f"'{key}' rows not of shape {shape}")
        flat = list(chain.from_iterable(flat))
    if set(map(type, flat)) - {int, float}:
        raise TypeError(f"'{key}' holds a value that is not a number")
    return np.array(flat, dtype=float).reshape((len(points),) + shape)


def _point_field(point: dict, k: int, key: str, shape: tuple) -> np.ndarray:
    """point[key] as a float array of the shape, or ValueError naming point k."""
    if key not in point:
        raise ValueError(f"point {k} is missing '{key}'")
    leaves, stack = [], [point[key]]
    while stack:  # the non-list values at any depth
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        else:
            leaves.append(item)
    if set(map(type, leaves)) - {int, float}:
        raise ValueError(f"point {k} has a non-numeric '{key}'")
    try:
        field = np.array(point[key], dtype=float)
    except OverflowError:
        raise ValueError(f"point {k} has a number too large for a float in '{key}'") from None
    except ValueError:  # lists of unequal lengths
        raise ValueError(f"point {k} has a ragged '{key}', expected shape {shape}") from None
    if field.shape != shape:
        raise ValueError(f"point {k} has '{key}' of shape {field.shape}, expected {shape}")
    return field


def lift_cloud(base: np.ndarray, lines: np.ndarray, gamma: float) -> LiftedCloud:
    """Pair base points with the projectors onto their line directions.

    ``lines`` may be (N, m) direction vectors or (N, m, m) matrices taken
    as-is for the matrix part (LiftedCloud checks their shape).
    """
    base = np.asarray(base, dtype=float)
    lines = np.asarray(lines, dtype=float)
    if base.shape[0] != lines.shape[0]:
        raise ValueError("base points and lines differ in length")
    return LiftedCloud(base, line_projectors(lines) if lines.ndim == 2 else lines, gamma)


def checked_index_bound(cloud: LiftedCloud) -> float:
    """projective.rips_index_bound, or MedialAxisError naming the first point whose
    eigen-gap is at most GAP_TOLERANCE (it has no line; the index set is empty)."""
    return _point_lines(cloud)[2]


def _point_lines(cloud: LiftedCloud) -> tuple[np.ndarray, np.ndarray, float]:
    """The points' top eigenvectors, eigen-gaps and checked_index_bound, from
    one eigensolve."""
    u, gaps = _top_eigenvectors(cloud.mats, "point")
    return u, gaps, tmax_from_gaps(gaps, cloud.gamma) / SQRT2


def _top_eigenvectors(
    mats: np.ndarray, noun: str, ids: Optional[np.ndarray] = None, solve=None
) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvectors and eigen-gaps of a stack of matrices (eigen_gaps, solved by
    solve or eigh_descending), or MedialAxisError naming the first (point, vertex
    or edge) whose gap is at most GAP_TOLERANCE by its entry of ids (default: its
    position)."""
    gaps, vecs = eigen_gaps(mats, 1, solve or eigh_descending)
    bad = np.nonzero(gaps <= GAP_TOLERANCE)[0]
    if bad.size:
        k = int(bad[0] if ids is None else ids[bad[0]])
        raise MedialAxisError(
            f"{noun} {k} has eigen-gap {gaps[bad[0]]:.3e}: matrix part on the medial axis"
        )
    return vecs[:, :, 0], gaps


# ---------------------------------------------------------------------------
# Lifebars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lifebar:
    """The interval of indices where the class is nonzero.

    t_dagger is None for an empty lifebar, else the largest index (a double)
    with a zero class: the class is nonzero from the next double to t_max.
    evaluations (empty) and resolution (unused) stay for the JSON schema.
    """

    t_max: float
    t_dagger: Optional[float]
    resolution: float
    evaluations: tuple = field(default_factory=tuple)

    @property
    def empty(self) -> bool:
        return self.t_dagger is None

    def to_json_obj(self) -> dict:
        return {
            "t_max": self.t_max,
            "t_dagger": self.t_dagger,
            "resolution": self.resolution,
            "evaluations": [
                {"t": t, "nonzero": nz, "subdivisions": k} for (t, nz, k) in self.evaluations
            ],
            "caveat": LIFEBAR_CAVEAT,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def _edge_blocks(cloud: LiftedCloud, max_value: float, first: int):
    """The flag filtration's edges of value at most max_value, block by block.

    Yields (i, j, values) blocks which, joined, are _flag_edges(
    cloud.distance_matrix(), max_value) to the bit: the pairs i < j in
    filtration order (value, i, j), with the values distance_matrix gives.
    Only the pairs that pass a loose screen of the squared distances get
    exact values, and each block is ordered only when it is read: the first
    holds the `first` smallest values, each later one twice as many as the
    one before, and every block also takes the values tied with its last.
    """
    emb = cloud.embedding()
    sq = np.sum(emb * emb, axis=1)
    G = emb @ emb.T
    # a loose screen of D2 = sq_i + sq_j - 2 G_ij <= screen: a value at most
    # max_value has min(D2[i, j], D2[j, i]) <= (2 max_value)^2 up to rounding,
    # D2[i, j] and D2[j, i] differ by the gemm rounding of G, within
    # (4 k + 8) eps max|emb|^2 for rows of length k, and the screen's own
    # rounding is within 4 eps max|emb|^2
    eps = np.finfo(float).eps
    screen = (2.0 * max_value) ** 2 * (1.0 + 1e-9) + 8.0 * (emb.shape[1] + 2) * eps * sq.max()
    half, n = sq / 2.0, len(sq)
    flat = np.flatnonzero(np.add.outer(half, half - screen / 2.0) <= G)  # row-major order
    i, j = np.divmod(flat, n)
    upper = i < j
    flat, i, j = flat[upper], i[upper], j[upper]
    s = sq[i] + sq[j]  # distance_matrix's D2 and (D + D.T) / 2, at the pairs kept
    G = G.ravel()
    a, b = np.maximum(s - 2.0 * G[flat], 0.0), np.maximum(s - 2.0 * G[j * n + i], 0.0)
    values = (np.sqrt(a) + np.sqrt(b)) / 2.0 / 2.0
    keep = values <= max_value
    i, j, values = i[keep], j[keep], values[keep]
    size = first
    while values.size:
        if size < values.size:
            take = values <= np.partition(values, size - 1)[size - 1]
            rest = ~take
            block = i[take], j[take], values[take]
            i, j, values = i[rest], j[rest], values[rest]
        else:
            block, values = (i, j, values), values[:0]
        order = np.argsort(block[2], kind="stable")
        yield block[0][order], block[1][order], block[2][order]
        size *= 2


# relative margin of the chord certificate against the rounding of the
# eigen-gaps and of |A_i - A_j|_F; it keeps |u_i . u_j| above 7e-4
CHORD_MARGIN = 1e-6
# fewest edges lifebar signs in one chunk: a chunk's fixed cost (one eigensolve
# and about a dozen numpy calls, some 60 us on a 2-vCPU VM) outweighs what a
# smaller chunk can skip
MIN_SIGN_CHUNK = 256


def _chord_certified(mats: np.ndarray, gaps: np.ndarray, i: np.ndarray, j: np.ndarray):
    """The edges ij with sqrt(2) |A_i - A_j|_F < max(g_i, g_j), with a
    relative margin: their flip is u_i . u_j < 0 (see lifebar)."""
    dA = mats[i] - mats[j]
    chord2 = np.einsum("kab,kab->k", dA, dA)
    return 2.0 * (1.0 + CHORD_MARGIN) * chord2 < np.maximum(gaps[i], gaps[j]) ** 2


def _edge_flips(mats, u, gaps, i, j, first: int = 0) -> np.ndarray:
    """Whether the fiber line flips along each edge ij below the bound: by
    the chord certificate, or else by the midpoint rule (see lifebar).  The
    midpoints are numbered from first in MedialAxisError."""
    flips = np.einsum("ij,ij->i", u[i], u[j]) < 0.0
    long = np.flatnonzero(~_chord_certified(mats, gaps, i, j))
    if long.size:
        li, lj = i[long], j[long]
        mid, _ = _top_eigenvectors((mats[li] + mats[lj]) / 2.0, "edge midpoint", first + long)
        flips[long] = np.einsum("ij,ij->i", u[li], mid) * np.einsum("ij,ij->i", mid, u[lj]) < 0.0
    return flips


def lifebar(cloud: LiftedCloud, resolution: float = 0.02) -> Lifebar:
    """The exact onset of the first persistent class, from a parity sweep.

    The class at index t is nonzero iff the flag graph at scale sqrt(2) * t
    has a cycle with an odd number of edges along which the fiber line
    flips.  The edges below scale sqrt(2) * t_max enter _odd_cycle_sweep
    in filtration order.  If the edge of value v first closes an odd cycle,
    the class turns nonzero at t*, the smallest double with SQRT2 * t* >= v,
    and t_dagger = nextafter(t*, 0).  resolution is validated, not used.

    Edge ij flips iff (u_i . m_ij)(m_ij . u_j) < 0, with u_i the top
    eigenvector of sym(A_i) and m_ij that of sym((A_i + A_j) / 2).  This
    holds for any matrix payload.  At B = A_i + E, a top eigenvector w of
    sym(B) orthogonal to u_i would need w'Ew - u_i'Eu_i >= g_i, the
    eigen-gap of A_i, but that difference is at most sqrt(2) |E|_F.  Below
    the bound, |A_i - A_j|_F < sqrt(2) g for every point's gap g, so each
    half of the segment stays within g / sqrt(2) of its endpoint: the top
    line of each half is simple and never orthogonal to its endpoint's, and
    the two signs give the fiber's transport.  Nor can a midpoint below the
    bound lie within GAP_TOLERANCE of the medial axis: the MedialAxisError
    check asserts this on the midpoints solved.

    Chord certificate: if sqrt(2) |A_i - A_j|_F < max(g_i, g_j), the same
    argument holds on the whole segment from the endpoint of larger gap, so
    its top line never turns orthogonal to that endpoint's and the edge
    flips iff u_i . u_j < 0, with no midpoint solve.  A relative margin of
    CHORD_MARGIN guards the test against rounding.  Only the other, long
    edges have their midpoints solved and checked.

    The edges are listed and ordered lazily (see _edge_blocks), block by
    block in filtration order, only as far as the sweep reads: the first
    block has max(n, 64) edges and each later one twice as many, plus ties,
    so at most about twice the edges up to the closing one plus one block
    are ordered.  Each block is signed in chunks of max(n, MIN_SIGN_CHUNK)
    edges, a chunk only when the sweep reads it, so fewer than that many
    edges past the closing one are signed.  An empty lifebar solves every
    long edge below the bound.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    u, gaps, bound = _point_lines(cloud)
    n, chunk = len(cloud), max(len(cloud), MIN_SIGN_CHUNK)
    read = []  # the values of the blocks the sweep reads

    def chunks():
        for i, j, values in _edge_blocks(cloud, math.nextafter(SQRT2 * bound, 0.0), max(n, 64)):
            first = sum(map(len, read))  # the filtration position of the block's first edge
            read.append(values)
            for lo in range(0, len(values), chunk):
                ci, cj = i[lo: lo + chunk], j[lo: lo + chunk]
                yield ci, cj, _edge_flips(cloud.mats, u, gaps, ci, cj, first + lo)

    closing = _odd_cycle_sweep(n, chunks())[0]
    if closing is None:
        return Lifebar(bound, None, resolution)
    value = float(np.concatenate(read)[closing])
    t_star = value / SQRT2  # made the smallest double with SQRT2 * t_star >= value
    while SQRT2 * t_star < value:
        t_star = math.nextafter(t_star, math.inf)
    while t_star > 0.0 and SQRT2 * math.nextafter(t_star, 0.0) >= value:
        t_star = math.nextafter(t_star, 0.0)
    # t_star can round up to the bound itself, outside the index set
    return Lifebar(bound, math.nextafter(t_star, 0.0) if t_star < bound else None, resolution)


# ---------------------------------------------------------------------------
# Flag-filtration barcodes
# ---------------------------------------------------------------------------

INF = float("inf")


@dataclass(frozen=True)
class Barcode:
    """Intervals (dimension, birth, death) with death = inf for open bars."""

    intervals: tuple

    def __post_init__(self) -> None:
        ivs = tuple((int(d), float(b), float(e)) for (d, b, e) in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for (d, b, e) in ivs:
            if d < 0 or b > e:
                raise ValueError(f"bad interval {(d, b, e)}")

    def in_dim(self, dim: int) -> list[tuple[float, float]]:
        return sorted((b, e) for (d, b, e) in self.intervals if d == dim)

    def to_json(self) -> str:
        payload = [
            {"dim": d, "birth": b, "death": (None if e == INF else e)}
            for (d, b, e) in sorted(self.intervals)
        ]
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Barcode":
        raw = json.loads(text)
        return cls(
            tuple((r["dim"], r["birth"], INF if r["death"] is None else r["death"]) for r in raw)
        )


def _check_max_value(max_value: float) -> None:
    if not max_value >= 0:
        raise ValueError(f"max value must be non-negative, got {max_value}")


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


# the names this module does not define, such as the oracle helpers that moved to
# projective and those bench/spans.py patches here, resolve through the package's table
__getattr__ = lazy_names(__name__)

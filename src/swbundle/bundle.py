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
the lifebar decides the graph's class, the flag complex's class while every
flag triangle has an even flip count, as below (sqrt(3)/2) * sqrt(2) * t_max.

Scale convention: the class reported at index t is computed on the flag
complex at scale sqrt(2) * t.  The index set [0, tmax_gamma / sqrt(2)) is
exactly the range where that rescaled complex stays below the projection's
definability bound, and it makes the reported indices match the offset
filtration's thresholds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
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
        if not xs.shape[0]:
            raise ValueError("empty cloud")
        for arr, what in ((xs, "base coordinate x"), (mats, "matrix entry A")):
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=tuple(range(1, arr.ndim))))
            if bad.size:
                raise ValueError(f"non-finite {what} at point {bad[0]}")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "mats", mats)
        # 8 max |e_i|^2 bounds twice over each square _flag_graph forms, all <= 4 max |e_i|^2
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
        """|e_i - e_j| for every pair: twice the values of _flag_graph(self, inf)."""
        i, j, values = _flag_graph(self, math.inf)
        D = np.zeros((len(self), len(self)))
        D[i, j] = D[j, i] = 2.0 * values
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
        if not points:  # before the stacking, which refuses (0, m, m) for a large m
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
    """Pair base points with the projectors onto their (N, m) line directions
    (line_projectors refuses any other shape)."""
    base = np.asarray(base, dtype=float)
    lines = np.asarray(lines, dtype=float)
    if base.shape[0] != lines.shape[0]:
        raise ValueError("base points and lines differ in length")
    return LiftedCloud(base, line_projectors(lines), gamma)


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
    resolution (unused) and the JSON's empty "evaluations" stay for its schema.
    """

    t_max: float
    t_dagger: Optional[float]
    resolution: float

    @property
    def empty(self) -> bool:
        return self.t_dagger is None

    def to_json_obj(self) -> dict:
        return {
            "t_max": self.t_max,
            "t_dagger": self.t_dagger,
            "resolution": self.resolution,
            "evaluations": [],
            "caveat": LIFEBAR_CAVEAT,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def _flag_graph(cloud: LiftedCloud, max_value: float):
    """The flag filtration's edges of value at most max_value: pairs i < j in
    row-major order, valued |e_i - e_j| / 2 by the direct difference of the
    embedding's rows, so symmetric and independent of where the cloud sits.
    A loose screen by the centred embedding's Gram product, tile by tile of
    rows, picks the pairs to value, block by block: beside the embedding and
    the edges kept, no step holds more than max(N, k, BLOCK_KEYS // 8) floats."""
    _check_max_value(max_value)
    emb = cloud.embedding()
    centred = emb - emb.mean(axis=0)
    sq = np.sum(centred * centred, axis=1)
    half, n, k = sq / 2.0, len(sq), emb.shape[1]
    # a loose screen of D2 = sq_i + sq_j - 2 G_ij <= screen on the centred rows
    # c_i, whose rounding scales with C^2 = max |c_i|^2, not with the offset.
    # The relative 1e-9 covers a value's own rounding.  Centring moves |c_i -
    # c_j|^2 off |e_i - e_j|^2 by about 4 eps C^2, sq and G move D2 by 2 k eps
    # C^2 for rows of length k, and the screen rounds by eps C^2: 8 (k + 2) eps
    # C^2 covers all three
    eps = np.finfo(float).eps
    with np.errstate(over="ignore"):  # past 1e154 a float64 squares to inf; a float raises
        screen = ((2.0 * np.float64(max_value)) ** 2 * (1.0 + 1e-9)
                  + 8.0 * (k + 2) * eps * sq.max())
    # one budget of floats for a tile and for a block of pair rows: 64 KB,
    # under glibc's 128 KiB mmap threshold, so no block is mapped anew
    budget = BLOCK_KEYS // 8
    rows, step = max(1, budget // n), max(1, budget // k)
    i, j = [], []
    for a in range(0, n, rows):  # pair (a + r, a + 1 + c), above the diagonal if r <= c
        r, c = np.nonzero(half[a:a + rows, None] + (half[a + 1:] - screen / 2.0)
                          <= centred[a:a + rows] @ centred[a + 1:].T)  # row-major order
        i.append(r[c >= r] + a)
        j.append(c[c >= r] + (a + 1))
    i, j = np.concatenate(i), np.concatenate(j)
    values = np.empty(len(i))
    for s in range(0, len(i), step):
        diff = np.take(emb, i[s:s + step], axis=0)
        diff -= np.take(emb, j[s:s + step], axis=0)
        np.einsum("ij,ij->i", diff, diff, out=values[s:s + step])
    values = np.sqrt(values, out=values) / 2.0
    keep = values <= max_value  # nearly always all: the screen is loose by ~1e-9 only
    return (i, j, values) if keep.all() else (i[keep], j[keep], values[keep])


# relative margin of the edge certificate against the rounding of the
# eigen-gaps and of |A_i - A_j|_F
CHORD_MARGIN = 1e-6


def _chord_certified(mats: np.ndarray, gaps: np.ndarray, c: np.ndarray, i: np.ndarray,
                     j: np.ndarray) -> np.ndarray:
    """The edges ij with sqrt(2) |A_i - A_j|_F < g_i + g_j, with a relative
    margin, whose c = u_i . u_j has c^2 > GAP_TOLERANCE: their flip is c < 0
    (see lifebar)."""
    dA = mats[i] - mats[j]
    chord2 = np.einsum("kab,kab->k", dA, dA)
    short = 2.0 * (1.0 + CHORD_MARGIN) * chord2 < (gaps[i] + gaps[j]) ** 2
    return short & (c * c > GAP_TOLERANCE)


def _edge_flips(mats, u, gaps, i, j, first: int = 0) -> np.ndarray:
    """Whether the fiber line flips along each edge ij below the bound: by the
    chord certificate, else by the midpoint rule (see lifebar).  MedialAxisError
    numbers a midpoint from first, the edges _odd_cycle_sweep read before."""
    c = np.einsum("ij,ij->i", u[i], u[j])
    flips = c < 0.0
    long = np.flatnonzero(~_chord_certified(mats, gaps, c, i, j))
    if long.size:
        li, lj = i[long], j[long]
        mid, _ = _top_eigenvectors((mats[li] + mats[lj]) / 2.0, "edge midpoint", first + long)
        flips[long] = np.einsum("ij,ij->i", u[li], mid) * np.einsum("ij,ij->i", mid, u[lj]) < 0.0
    return flips


def lifebar(cloud: LiftedCloud, resolution: float = 0.02) -> Lifebar:
    """The exact onset of the first persistent class, from a parity sweep.

    The class at index t is nonzero iff the flag graph at scale sqrt(2) * t
    has a cycle with an odd number of edges along which the fiber line
    flips.  _odd_cycle_sweep reads the edges below scale sqrt(2) * t_max in
    filtration order.  If the edge of value v first closes an odd cycle,
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

    Chord certificate: if sqrt(2) |A_i - A_j|_F < g_i + g_j, the edge flips
    iff c = u_i . u_j < 0, with no midpoint solve.  Let E = sym(A_j - A_i)
    and s = lambda_max(E) - lambda_min(E); then s <= sqrt(2) |E|_F <=
    sqrt(2) |A_i - A_j|_F < g_i + g_j.  On the segment M = A_i + t E, Weyl
    gives g_M >= g_i - t s and g_M >= g_j - (1 - t) s, so g_M > 0 and the
    top line stays simple.  A top eigenvector w of M orthogonal to u_i
    would have w'A_i w <= lambda_1(A_i) - g_i and u_i'M u_i <= lambda_1(M)
    - g_M (Courant-Fischer at A_i and at M), so t (w'Ew - u_i'Eu_i) >=
    g_i + g_M >= g_i + g_j - (1 - t) s, hence s >= g_i + g_j.  So the line
    never turns orthogonal to u_i and arrives as sign(c) u_j.  Rounding:
    A_i - A_j is formed entrywise to eps relative, so |A_i - A_j|_F^2 is off
    by about (m^2 + 2) eps relative, and the eigensolve's gaps by about
    m eps |A|; the relative margin CHORD_MARGIN covers both while g_i + g_j
    exceeds about 4 m eps |A| / CHORD_MARGIN, near GAP_TOLERANCE at |A| ~ 1.
    In exact arithmetic the test also bounds c: compressed to span(u_i,
    u_j), sym(A_i) and sym(A_j) keep their top lines u_i and u_j with gaps
    h_i >= g_i and h_j >= g_j, and the 2 x 2 case gives 2 |A_i - A_j|_F^2
    >= (h_i + h_j)^2 - 4 h_i h_j c^2 >= (h_i + h_j)^2 (1 - c^2), so c^2 >
    CHORD_MARGIN / (1 + CHORD_MARGIN).  Past the scale the margin covers,
    that bound is lost: c is a dot product of eigenvectors each off by
    about eps |A| / g, and points of gap 1e-8 at eigenvalue 500 pass the
    chord test with |c| at that rounding.  So the test also asks c^2 >
    GAP_TOLERANCE (|c| > 3.2e-5), and such an edge goes to the midpoint.

    Only the edges the certificate refuses (the long edges: a sliver within
    about 5e-7 relative of the bound, or |c| at most 3.2e-5) have their
    midpoints solved and checked.  On projector payloads (gaps 1, |P_i -
    P_j|_F^2 = 2 (1 - c^2)) the test reads c^2 > CHORD_MARGIN / (1 +
    CHORD_MARGIN): every edge with |c| above 1e-3 is certified.

    The sweep takes _flag_graph's edges unordered and signs them block by
    block, only as far as it reads: the first block has the max(n, 64)
    smallest values and each later one twice as many, plus ties, so at most
    about twice the edges up to the closing one plus one block are signed.
    Only the blocks read before the forest spans are sorted.  An empty
    lifebar solves the midpoint of every long edge below the bound.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    u, gaps, bound = _point_lines(cloud)
    n = len(cloud)
    value = _odd_cycle_sweep(n, *_flag_graph(cloud, math.nextafter(SQRT2 * bound, 0.0)),
                             max(n, 64), partial(_edge_flips, cloud.mats, u, gaps))[0]
    if value is None:
        return Lifebar(bound, None, resolution)
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
    """Intervals (dimension, birth, death) with death = inf for open bars,
    stored sorted: the one bar order of every reader and writer."""

    intervals: tuple

    def __post_init__(self) -> None:
        ivs = tuple(sorted((int(d), float(b), float(e)) for (d, b, e) in self.intervals))
        object.__setattr__(self, "intervals", ivs)
        for (d, b, e) in ivs:
            if d < 0 or b > e:
                raise ValueError(f"bad interval {(d, b, e)}")

    def in_dim(self, dim: int) -> list[tuple[float, float]]:
        return [(b, e) for (d, b, e) in self.intervals if d == dim]

    def to_json(self) -> str:
        """json.dumps of the bars as {"dim", "birth", "death"}, death None for
        inf: repr writes a float as json does, but for inf and nan."""
        bars = ", ".join([f'{{"dim": {d}, "birth": {b!r}, "death": '
                          f'{"null" if e == INF else repr(e)}}}' for (d, b, e) in self.intervals])
        return f"[{bars}]".replace("inf", "Infinity").replace("nan", "NaN")

    @classmethod
    def from_json(cls, text: str) -> "Barcode":
        raw = json.loads(text)
        return cls(
            tuple((r["dim"], r["birth"], INF if r["death"] is None else r["death"]) for r in raw)
        )


def _check_max_value(max_value: float) -> None:
    if not max_value >= 0:
        raise ValueError(f"max value must be non-negative, got {max_value}")


def _flag_barcode(n: int, iu: np.ndarray, ju: np.ndarray, values: np.ndarray,
                  max_dim: int) -> Barcode:
    """rips_barcode of the flag filtration on n vertices whose edges are
    (iu[r], ju[r]) with the float64 values[r], listed in any order; max_dim
    is 0 or 1.  Before the H0 sweep: a cut at the enclosing radius, which
    counts the edges kept and copies none; the int64 check of _h1_bars's
    triangle keys, so a refusal comes before any sort; one stable sort by
    value (ties as listed), in place over the front of each array: the sweep sorts no more."""
    E = len(values)
    full = np.bincount(iu, minlength=n) + np.bincount(ju, minlength=n) == n - 1
    if E and full.any():
        top = np.zeros(n)  # each vertex's largest edge value
        np.maximum.at(top, iu, values)
        np.maximum.at(top, ju, values)
        E = int(np.count_nonzero(values <= top[full].min()))
    if max_dim == 1 and (E + 1) ** 3 > 2 ** 63:  # (E + 1) ** 3 bounds every key _coface_keys computes
        raise ValueError(f"{E} edges: triangle keys would overflow int64")
    order = np.argsort(values, kind="stable")[:E]  # the kept edges come first
    iu, ju, values = [np.take(a, order, out=a[:E]) for a in (iu, ju, values)]
    del order  # sorted in place: no second copy of the listing outlives the sort

    forest = _odd_cycle_sweep(n, iu, ju, values, E)[1]
    tree = np.zeros(E, dtype=bool)
    tree[forest] = True
    bars = [(0, 0.0, values[e]) for e in forest if values[e] > 0.0]
    bars += [(0, 0.0, INF)] * (n - len(forest))
    if max_dim == 1 and E:
        bars += _h1_bars(n, iu, ju, values, tree)
    return Barcode(tuple(bars))


def _odd_cycle_sweep(n: int, i: np.ndarray, j: np.ndarray, values: np.ndarray, first: int,
                     sign=None) -> tuple[Optional[float], list]:
    """Kruskal's union-find on n vertices with a Z/2 flip on each edge.

    The edges ij with the given values come in any order; filtration order
    is by value, ties in listed order.  They are read in blocks, the `first`
    smallest values, then twice as many each time, each block also taking
    the values tied with its last; sign(i, j, read) gives a block's flips,
    read the number of edges before it (without sign, none flips).  Returns
    (value, forest): the value of the first edge that closes a cycle with an
    odd number of flips (None if none does), and the filtration positions
    of the edges before it that join two components.  A block is sorted
    only while this forest has not spanned, if out of order: once n - 1
    merges connect the graph, every vertex has a fixed parity to the one
    root, and a later edge closes an odd cycle iff its flip differs from
    its ends' parities, in any order.  The loop turns a block into Python
    ints max(n, 64) edges at a time, then twice as many, as far as it reads.
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

    forest, labels, read = [], None, 0  # labels: each vertex's parity to the root, once connected
    while values.size:
        if first < values.size:
            take = values <= np.partition(values, first - 1)[first - 1]
            rest = ~take
            bi, bj, bv = i[take], j[take], values[take]
            i, j, values = i[rest], j[rest], values[rest]
        else:
            bi, bj, bv, values = i, j, values, values[:0]
        if labels is None and (bv[1:] < bv[:-1]).any():  # a block in filtration order stays
            order = np.argsort(bv, kind="stable")
            bi, bj, bv = bi[order], bj[order], bv[order]
        flips = sign(bi, bj, read) if sign else None
        start, s, t = 0, 0, max(n, 64)  # the edges [s, t) as Python ints, t - s doubling
        while labels is None and s < bv.size:
            for e, a, b, flip in zip(range(s, t), bi[s:t].tolist(), bj[s:t].tolist(),
                                     repeat(0) if flips is None else flips[s:t].tolist()):
                # a root's parity is 0, so a root or a root's child needs no find
                ra, pa = (parent[a], parity[a]) if parent[parent[a]] == parent[a] else find(a)
                rb, pb = (parent[b], parity[b]) if parent[parent[b]] == parent[b] else find(b)
                if ra != rb:
                    if size[ra] > size[rb]:
                        ra, rb = rb, ra
                    parent[ra], parity[ra] = rb, pa ^ pb ^ flip
                    size[rb] += size[ra]
                    forest.append(read + e)
                    if len(forest) == n - 1:
                        labels = np.array([find(v)[1] for v in range(n)], dtype=bool)
                        start = e + 1
                        break
                elif pa ^ pb ^ flip:
                    return float(bv[e]), forest
            s, t = t, 3 * t - 2 * s
        if labels is not None and flips is not None:
            odd = labels[bi[start:]] ^ labels[bj[start:]] ^ flips[start:]
            if odd.any():
                return float(bv[start:][odd].min()), forest
        read += len(bv)
        first *= 2
    return None, forest


def _h1_bars(n: int, iu: np.ndarray, ju: np.ndarray, values: np.ndarray,
             tree: np.ndarray) -> list:
    """Degree-1 intervals of the flag filtration whose edges, in filtration
    order, are (iu[r], ju[r]) with the float64 values[r]; tree marks the H0
    deaths.  _flag_barcode checks that the triangle keys fit an int64.

    A triangle is keyed by its edge ranks in descending order, packed into
    one int64, so that key order is a filtration order.  The rank matrix R
    stays in the int16 or int32 it is built in, and ranks widen to int64
    only where keys are formed, in ``_coface_keys``.  Edge e's column is
    its coboundary, a sorted key array, and its pivot is its smallest key
    (its earliest coface).  Columns are reduced from the latest edge to the
    earliest; tree edges are cleared.  Edge e is apparent when some vertex
    k has max(R[a, k], R[b, k]) < e: its earliest coface then has e as its
    latest edge, a zero-length pair that needs no reduction.  A scan
    records mid[e] = min_k max(R[a, k], R[b, k]) for every other edge, and
    only that; mid[e] == E leaves the column empty, an infinite bar.  A key
    with ranks (t, m, l) is the first key of coboundary(t), and so an
    apparent pair's pivot, iff mid[t] == m: rank m fixes the triangle's
    third vertex.  Only then is coboundary(t) built, to be added; a lookup
    that finds no column builds nothing.

    Every other column is built once, BLOCK_KEYS // n at a time as stacked
    rows of R like a block of the scan, and reduced only if its first key
    is apparent or a stored pivot.  Otherwise it pairs at once (an
    emergent pair, in Ripser's terms) and is stored as built.

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
    # iu, ju, mid and values stay arrays: as Python lists they would take tens of bytes per edge

    bars = [(1, values[e], INF) for e in np.flatnonzero(~tree & (mid == E)).tolist()]
    cols = np.flatnonzero(~tree & (ranks < mid) & (mid < E))[::-1]  # latest first

    def apparent(key):
        """Whether key, an int or an int64 array, is the first key of its top edge's column."""
        return mid[key // E2] == key // E % E

    def coboundary(e: int) -> np.ndarray:
        keys = _coface_keys(R[iu[e]], R[ju[e]], e, E)
        keys.sort()
        return keys[:keys.searchsorted(E3)]

    def initial_columns():
        """The sorted coboundaries of cols, in order."""
        for start in range(0, cols.size, rows):
            t = cols[start: start + rows]
            keys = _coface_keys(R[iu[t]], R[ju[t]], t[:, None], E)
            keys.sort(axis=1)
            sizes = np.count_nonzero(keys < E3, axis=1).tolist()
            yield from (row[:size] for row, size in zip(keys, sizes))

    pivots: dict = {}  # pivot -> reduced column, or its (window, runs, inbox) until first read

    def lookup(pivot: int):
        col = pivots.get(pivot)
        if col is None:
            return coboundary(pivot // E2) if apparent(pivot) else None
        if isinstance(col, tuple):
            col = pivots[pivot] = _materialise(*col)
        return col

    def batch(win: np.ndarray, count: int):
        if not apparent(win[0]):
            return None
        t = win[apparent(win)][:min(count, rows)] // E2
        keys = _coface_keys(R[iu[t]], R[ju[t]], t[:, None], E)
        return keys[keys < E3]

    for e, col in zip(cols.tolist(), initial_columns()):
        pivot = int(col[0])
        if apparent(pivot) or pivot in pivots:
            pivot, col = _reduce_column(col, lookup, batch)
            if pivot is None:
                bars.append((1, values[e], INF))
                continue
            pivots[pivot] = col
        else:  # an emergent pair: the column is reduced as built, and a copy frees its block
            pivots[pivot] = col.copy()
        death = values[pivot // E2]
        if death > values[e]:
            bars.append((1, values[e], death))
    return bars


def _coface_keys(ra: np.ndarray, rb: np.ndarray, e, E: int) -> np.ndarray:
    """Keys of the triangles abk of edge e = ab, unsorted, from the rank rows
    ra = R[a] and rb = R[b], one per k.  Where abk is not a triangle, its
    top rank reads E and its key is at least E ** 3, past every triangle's.
    Stacked rows take a column e of edge ranks.

    The ranks stay in the rows' own dtype (int16 or int32, as R is built);
    the keys, which reach (E + 1) ** 3, are one int64 array from their top
    rank on, built in place."""
    hi, lo = np.maximum(ra, rb), np.minimum(ra, rb)
    if isinstance(e, np.ndarray):
        e = e.astype(hi.dtype)  # edge ranks are below E, which the rows hold
    keys = np.maximum(hi, e, dtype=np.int64)  # int64 from here: keys reach (E + 1) ** 3
    keys *= E
    keys += np.maximum(lo, np.minimum(hi, e, out=hi), out=hi)
    keys *= E
    keys += np.minimum(lo, e, out=lo)
    return keys


# a column's first window width: a window of more than twice its width keeps
# its first width keys and sends the rest to the inbox
WINDOW = 512
# a column makes this many single additions before it adds apparent columns
# in batches: a batch's stacked build and sort cost more than the few single
# additions of a short column
SINGLE_ADDS = 8
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
    width from each run.  A long column's tail is thus not re-merged at
    each addition, and a column that no later lookup reads is never merged
    in full.

    After SINGLE_ADDS single additions, a pivot that is an apparent key
    (batch returns keys) is added together with the next apparent keys of
    the window: batch(win, count) gives the unsorted keys of the first
    count apparent columns, 2, 4, 8, ... at a time, merged in one step.
    Each of those columns starts at its own key, so the pivot still cancels
    and the next pivot comes later.  The width starts at WINDOW and doubles,
    up to BLOCK_KEYS, each time a batch cancels the whole window, so that
    the next window holds more apparent keys for the next batch rather than
    forcing a refill after a few.  The cap keeps every window a batch
    merges with at most 2 BLOCK_KEYS keys long.
    """
    win, runs, inbox, limit = col, [], [], None
    adds, count, width = 0, 2, WINDOW
    while True:
        if win.size > 2 * width:
            inbox.append(win[width:])
            limit = int(win[width])
            win = win[:width]
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
            limit = min((int(r[width]) for r in runs if r.size > width), default=None)
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
            if not win.size:
                width = min(2 * width, BLOCK_KEYS)
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
    new = np.empty(z.size + 1, dtype=bool)  # where each run of equal keys starts, and the end
    new[0] = new[-1] = True
    np.not_equal(z[1:], z[:-1], out=new[1:-1])
    bounds = np.flatnonzero(new)
    return z[bounds[:-1][np.diff(bounds) % 2 == 1]]


def _xor_sorted(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Symmetric difference of two sorted arrays of distinct keys, sorted."""
    z = np.concatenate((x, y))
    z.sort(kind="stable")  # a merge of two sorted runs
    new = np.empty(z.size + 1, dtype=bool)  # where each key differs from the last, and the end
    new[0] = new[-1] = True
    np.not_equal(z[1:], z[:-1], out=new[1:-1])
    return z[new[1:] & new[:-1]]


# the names this module does not define, such as the oracle helpers that moved to
# projective and those bench/spans.py patches here, resolve through the package's table
__getattr__ = lazy_names(__name__)

"""Rips bundle filtrations, weak simplicial approximation, and lifebars.

A lifted cloud lives in R^n x M(R^m) with the gamma-weighted product norm.
Its flag-complex filtration carries projection maps to G_1(R^m) wherever the
matrix parts stay off the medial axis.  sw_class_at, the paper's reference
decider, approximates the projection with a weak simplicial approximation
into the projective triangulation and tests whether the pulled-back
generator is a coboundary; lifebar reads the first persistent class off one
parity sweep of certified edge signs.

Class decisions run on the flag graph (the 1-skeleton of the flag complex):
the relative group H^1(K, K^1; Z/2) vanishes, so restricting to the graph is
injective on H^1 and triangles cannot change a degree-1 answer.
build_bundle_filtration keeps simplices up to dimension 2.

Scale convention: the class reported at index t is computed on the flag
complex at scale sqrt(2) * t.  The index set [0, tmax_gamma / sqrt(2)) is
exactly the range where that rescaled complex stays below the projection's
definability bound, and it makes the reported indices match the offset
filtration's thresholds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .grassmann import (
    MatrixPoint,
    MedialAxisError,
    eigen_gaps,
    eigh_descending,
    line_projectors,
    GAP_TOLERANCE,
    tmax,
    tmax_from_gaps,
)
# jacobi_eigh_batch and line_projector are not called here; they stay importable
# from this module because bench/spans.py times the names the bundle layer imports.
from .grassmann import jacobi_eigh_batch, line_projector  # noqa: F401
from .projective import ProjectiveTriangulation
from .simplicial import (
    SimplicialComplex,
    FilteredComplex,
    barycentric_subdivision,
    is_simplicial_map,
    pullback_cochain,
    rips_filtration,
)
# is_cocycle is not called here; it stays importable from this module
# because bench/spans.py times the names the bundle layer imports.
from .z2 import CochainZ2, is_cocycle, is_coboundary  # noqa: F401

SQRT2 = math.sqrt(2.0)

LIFEBAR_CAVEAT = (
    "t_dagger is exact: the largest index with a zero class, from a parity sweep of edge "
    "flips certified by the eigen-gaps; resolution and the subdivision limit steer nothing"
)


class SubdivisionLimitError(RuntimeError):
    """Raised when the weak star condition keeps failing at the subdivision cap."""

    def __init__(self, subdivisions: int, failing_vertex, t: Optional[float] = None):
        self.subdivisions = subdivisions
        self.failing_vertex = failing_vertex
        self.t = t
        super().__init__()

    def __str__(self) -> str:
        at = f" at t = {self.t:g}" if self.t is not None else ""
        return (
            f"weak star condition still failing after {self.subdivisions} subdivisions{at} "
            f"(first failing vertex: {self.failing_vertex})"
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
        if not np.all(np.isfinite(xs)):
            raise ValueError("non-finite base coordinate x in the cloud")
        if not np.all(np.isfinite(mats)):
            raise ValueError("non-finite matrix entry A in the cloud")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "mats", mats)

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def n(self) -> int:
        return self.xs.shape[1]

    @property
    def m(self) -> int:
        return self.mats.shape[1]

    @property
    def points(self) -> list:
        return [MatrixPoint(self.xs[i], self.mats[i]) for i in range(len(self))]

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
        if type(obj["gamma"]) not in (int, float):
            raise ValueError(f"'gamma' must be a number, got {obj['gamma']!r}")
        n, m, gamma = int(obj["n"]), int(obj["m"]), float(obj["gamma"])
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
                    line_projectors(_point_field(p, k, "v", (m,))[None])
                else:
                    raise ValueError("point needs a matrix 'A' or a line direction 'v'")
            raise
        return cls(xs, mats, gamma)


def _stacked(points: list, key: str, shape: tuple) -> np.ndarray:
    """The points' `key` fields as one float array of shape (len(points),) + shape."""
    rows = np.array([p[key] for p in points] or np.empty((0,) + shape), dtype=float)
    if rows.shape[1:] != shape:
        raise ValueError(f"'{key}' rows of shape {rows.shape[1:]}, expected {shape}")
    return rows


def _point_field(point: dict, k: int, key: str, shape: tuple) -> np.ndarray:
    """point[key] as a float array of the shape, or ValueError naming point k or the shape."""
    if key not in point:
        raise ValueError(f"point {k} is missing '{key}'")
    try:
        field = np.asarray(point[key], dtype=float)
    except TypeError as err:
        raise ValueError(f"point {k} has a non-numeric '{key}': {err}") from None
    if field.shape != shape:
        raise ValueError(f"point with {key} of shape {field.shape}, expected {shape}")
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


def rips_index_bound(cloud: LiftedCloud) -> float:
    """Right end of the index interval: tmax_gamma / sqrt(2)."""
    return tmax(cloud.points, 1, cloud.gamma) / SQRT2


def checked_index_bound(cloud: LiftedCloud) -> float:
    """rips_index_bound, or MedialAxisError naming the first point whose
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


def build_bundle_filtration(cloud: LiftedCloud, max_t: float) -> FilteredComplex:
    """Flag-complex filtration of the cloud with vertex payloads attached.

    max_t must stay within the bundle index bound; use rips_filtration
    directly for plain persistence past that scale.
    """
    bound = rips_index_bound(cloud)
    if max_t > bound + 1e-12:
        raise ValueError(f"max_t = {max_t:g} exceeds the bundle index bound {bound:g}")
    return rips_filtration(cloud.distance_matrix(), max_t, 2, payloads=cloud.payloads())


def hausdorff_distance(A: LiftedCloud, B: LiftedCloud) -> float:
    """Hausdorff distance between two clouds in the same ambient product space."""
    if A.n != B.n or A.m != B.m or A.gamma != B.gamma:
        raise ValueError("clouds live in different spaces (n, m, gamma must agree)")
    ea, eb = A.embedding(), B.embedding()
    # direct differences, chunked: exact for coincident points
    mins_a = np.empty(len(A))
    mins_b = np.full(len(B), np.inf)
    chunk = max(1, int(4_000_000 / max(eb.size, 1)))
    for lo in range(0, len(A), chunk):
        diff = ea[lo: lo + chunk, None, :] - eb[None, :, :]
        D = np.sqrt(np.sum(diff * diff, axis=2))
        mins_a[lo: lo + chunk] = D.min(axis=1)
        np.minimum(mins_b, D.min(axis=0), out=mins_b)
    return float(max(mins_a.max(), mins_b.max()))


# ---------------------------------------------------------------------------
# Weak simplicial approximation
# ---------------------------------------------------------------------------

def vertex_face_values(K: SimplicialComplex, T: ProjectiveTriangulation) -> dict:
    """Face-map image in L of every vertex payload's matrix part.

    Each vertex of K (a data point, or a barycenter after subdivisions)
    carries a payload whose matrix block is projected to G_1 and located in
    the triangulation.  Raises MedialAxisError when a payload's eigen-gap
    vanishes, which the index bound makes impossible for honest inputs but
    is asserted rather than assumed.
    """
    if K.payloads is None:
        raise ValueError("complex carries no vertex payloads")
    m = T.m
    if K.payloads.shape[1] < m * m:
        raise ValueError("payload width too small for the matrix block")
    mats = K.payloads[:, K.payloads.shape[1] - m * m:].reshape(-1, m, m)
    return dict(enumerate(T.face_simplices(_top_eigenvectors(mats, "vertex")[0])))


def weak_star_check(K: SimplicialComplex, values: Mapping[int, tuple], _pick: str = "min"):
    """Try to pick an L-vertex shared by the face values of each closed star.

    Returns (assignment, None) on success, (None, first_failing_vertex) when
    some vertex has no common target.  The assignment takes the smallest
    vertex id of the intersection, which keeps runs reproducible (_pick is a
    testing hook: any choice yields an equivalent approximation).
    """
    masks: dict[int, int] = {}
    for v, simplex in values.items():
        mk = 0
        for i in simplex:
            mk |= 1 << i
        masks[v] = mk
    common = dict(masks)
    for (a, b) in K.simplices.get(1, ()):
        common[a] &= masks[b]
        common[b] &= masks[a]
    assignment: dict[int, int] = {}
    for v in sorted(common):
        mk = common[v]
        if mk == 0:
            return None, v
        if _pick == "min":
            assignment[v] = (mk & -mk).bit_length() - 1
        else:
            assignment[v] = mk.bit_length() - 1
    return assignment, None


def weak_simplicial_approximation(
    K: SimplicialComplex,
    T: ProjectiveTriangulation,
    subdiv_limit: int = 4,
    _pick: str = "min",
):
    """Subdivide until the weak star condition holds; return (f, K', k).

    f maps vertices of the k-times subdivided complex K' to vertices of T.L
    and is guaranteed simplicial on success.  Raises SubdivisionLimitError
    when subdiv_limit subdivisions were not enough.
    """
    if K.dim > 2:
        raise ValueError("pipeline complexes are capped at dimension 2")
    if subdiv_limit < 0:
        raise ValueError(f"subdivision limit must be non-negative, got {subdiv_limit}")
    current = K
    for k in range(subdiv_limit + 1):
        if k:
            current = barycentric_subdivision(current)
        values = vertex_face_values(current, T)
        assignment, failing = weak_star_check(current, values, _pick=_pick)
        if assignment is not None:
            if not is_simplicial_map(assignment, current, T.L):
                raise RuntimeError("weak star assignment is not simplicial; construction broken")
            return assignment, current, k
    raise SubdivisionLimitError(subdiv_limit, failing)


# ---------------------------------------------------------------------------
# Class evaluation and lifebars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SWResult:
    """Verdict of one class evaluation at index t.

    The pulled-back cocycle and the vertex map live on the flag graph at
    scale sqrt(2) * t, subdivided subdivisions_used times.
    """

    t: float
    nonzero: bool
    subdivisions_used: int
    pullback_cocycle: CochainZ2
    approximation: dict


def _complex_at_scale(cloud: LiftedCloud, scale: float) -> SimplicialComplex:
    """The flag graph of the cloud at the scale."""
    return rips_filtration(cloud.distance_matrix(), scale, 1, payloads=cloud.payloads()).complex


def sw_class_at(
    cloud: LiftedCloud,
    t: float,
    T: ProjectiveTriangulation,
    subdiv_limit: int = 4,
    _pick: str = "min",
) -> SWResult:
    """Decide whether the first persistent class is nonzero at index t.

    The paper's reference decider: builds the flag graph at scale
    sqrt(2) * t, finds a weak simplicial approximation of the Grassmannian
    projection into T, pulls the generator back, and tests it for being a
    coboundary.  H^1 of the flag complex injects into H^1 of its graph, so
    the graph decides the class.
    """
    if T.m != cloud.m:
        raise ValueError("triangulation ambient dimension does not match the cloud")
    bound = checked_index_bound(cloud)
    if not 0.0 <= t < bound:
        raise ValueError(f"t = {t:g} outside the index set [0, {bound:g})")
    K = _complex_at_scale(cloud, SQRT2 * t)
    try:
        f, Kp, k = weak_simplicial_approximation(K, T, subdiv_limit, _pick=_pick)
    except SubdivisionLimitError as err:
        err.t = t
        raise
    pb = pullback_cochain(f, Kp, T.L, T.w1, check=False)
    return SWResult(
        t=t,
        nonzero=not is_coboundary(Kp, pb),
        subdivisions_used=k,
        pullback_cocycle=pb,
        approximation=f,
    )


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
    flips.  The edges below scale sqrt(2) * t_max enter a parity union-find
    in filtration order (see _closing_value).  If the edge of value v first closes an odd cycle,
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
    are ordered and signed.  An empty lifebar solves every long edge below
    the bound.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    u, gaps, bound = _point_lines(cloud)
    value = _closing_value(cloud, u, gaps, math.nextafter(SQRT2 * bound, 0.0))
    if value is None:
        return Lifebar(bound, None, resolution)
    t_star = value / SQRT2  # made the smallest double with SQRT2 * t_star >= value
    while SQRT2 * t_star < value:
        t_star = math.nextafter(t_star, math.inf)
    while t_star > 0.0 and SQRT2 * math.nextafter(t_star, 0.0) >= value:
        t_star = math.nextafter(t_star, 0.0)
    # t_star can round up to the bound itself, outside the index set
    return Lifebar(bound, math.nextafter(t_star, 0.0) if t_star < bound else None, resolution)


def _closing_value(cloud: LiftedCloud, u, gaps, max_value: float) -> Optional[float]:
    """The value of the first edge, in filtration order up to max_value, that
    closes a cycle with an odd number of flips; None if no edge does.

    A parity union-find takes the edges until the graph is connected; from
    then on every vertex has a fixed parity to the one root, and each later
    edge closes an odd cycle iff its flip differs from its ends' parities.
    """
    n = len(cloud)
    parent, parity = list(range(n)), [0] * n  # parity: flips from a vertex to its parent

    def find(a: int):
        odd = 0
        while parent[a] != a:  # path halving
            p = parent[a]
            parity[a] ^= parity[p]
            parent[a] = parent[p]
            odd ^= parity[a]
            a = parent[a]
        return a, odd

    labels, merges, lo = None, 0, 0  # labels: each vertex's parity to the root, once connected
    for bi, bj, values in _edge_blocks(cloud, max_value, max(n, 64)):
        flips = _edge_flips(cloud.mats, u, gaps, bi, bj, lo)
        lo += len(values)
        start = 0
        if labels is None:
            for e, (i, j, flip) in enumerate(zip(bi.tolist(), bj.tolist(), flips.tolist())):
                ri, pi = (i, 0) if parent[i] == i else find(i)
                rj, pj = (j, 0) if parent[j] == j else find(j)
                if ri != rj:
                    parent[ri], parity[ri] = rj, pi ^ pj ^ flip
                    merges += 1
                    if merges == n - 1:
                        labels = np.array([find(v)[1] for v in range(n)], dtype=bool)
                        start = e + 1
                        break
                elif pi ^ pj ^ flip:
                    return float(values[e])
            else:
                continue  # not connected yet
        odd = np.flatnonzero(labels[bi[start:]] ^ labels[bj[start:]] ^ flips[start:])
        if odd.size:
            return float(values[start + odd[0]])
    return None

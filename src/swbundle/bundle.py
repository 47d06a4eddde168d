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
    eigh_descending,
    line_projector,
    line_projectors,
    GAP_TOLERANCE,
    tmax,
    tmax_from_gaps,
)
# jacobi_eigh_batch is not called here; it stays importable from this module
# because bench/spans.py times the names the bundle layer imports.
from .grassmann import jacobi_eigh_batch  # noqa: F401
from .projective import ProjectiveTriangulation
from .simplicial import (
    SimplicialComplex,
    FilteredComplex,
    _flag_edges,
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
            "points": [
                {"x": list(self.xs[i]), "A": [list(r) for r in self.mats[i]]}
                for i in range(len(self))
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LiftedCloud":
        if not isinstance(obj, dict):
            raise ValueError(f"cloud must be a JSON object, got {type(obj).__name__}")
        for key in ("n", "m"):
            size = obj[key]
            if not (type(size) is int or type(size) is float and size.is_integer()):
                raise ValueError(f"'{key}' must be an integer, got {size!r}")
        if type(obj["gamma"]) not in (int, float):
            raise ValueError(f"'gamma' must be a number, got {obj['gamma']!r}")
        n, m, gamma = int(obj["n"]), int(obj["m"]), float(obj["gamma"])
        if not isinstance(obj["points"], list):
            raise ValueError(f"'points' must be a list, got {type(obj['points']).__name__}")
        xs, mats = [], []
        for k, p in enumerate(obj["points"]):
            if not isinstance(p, dict):
                raise ValueError(f"point {k} must be an object, got {type(p).__name__}")
            x = _point_field(p, k, "x")
            if x.shape != (n,):
                raise ValueError(f"point with x of shape {x.shape}, expected ({n},)")
            if "A" in p:
                A = _point_field(p, k, "A")
                if A.shape != (m, m):
                    raise ValueError(f"point with A of shape {A.shape}, expected ({m}, {m})")
            elif "v" in p:
                v = _point_field(p, k, "v")
                if v.shape != (m,):
                    raise ValueError(f"point with v of shape {v.shape}, expected ({m},)")
                A = line_projector(v).P
            else:
                raise ValueError("point needs a matrix 'A' or a line direction 'v'")
            xs.append(x)
            mats.append(A)
        if not xs:
            raise ValueError("empty cloud")
        return cls(np.array(xs), np.array(mats), gamma)


def _point_field(point: dict, k: int, key: str) -> np.ndarray:
    """point[key] as a float array, or ValueError naming point k and the field."""
    try:
        return np.asarray(point[key], dtype=float)
    except TypeError as err:
        raise ValueError(f"point {k} has a non-numeric '{key}': {err}") from None


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
    return _point_lines(cloud)[1]


def _point_lines(cloud: LiftedCloud) -> tuple[np.ndarray, float]:
    """The points' top eigenvectors and checked_index_bound, from one eigensolve."""
    u, gaps = _top_eigenvectors(cloud.mats, "point")
    return u, tmax_from_gaps(gaps, cloud.gamma) / SQRT2


def _top_eigenvectors(
    mats: np.ndarray, noun: str, first: int = 0, solve=None
) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvectors and eigen-gaps of the symmetric parts of a stack of
    matrices, or MedialAxisError naming the first (point or vertex) whose
    eigen-gap is at most GAP_TOLERANCE, numbered from first; ValueError for
    1 x 1 matrices.  solve (default eigh_descending) returns eigenvalues in
    descending order with the matching columns."""
    m = mats.shape[1]
    if m < 2:
        raise ValueError(f"d = 1 out of range for m = {m}: a {m} x {m} matrix part has no line")
    vals, vecs = (solve or eigh_descending)((mats + mats.transpose(0, 2, 1)) / 2.0)
    gaps = vals[:, 0] - vals[:, 1]
    bad = np.nonzero(gaps <= GAP_TOLERANCE)[0]
    if bad.size:
        raise MedialAxisError(
            f"{noun} {first + int(bad[0])} has eigen-gap {gaps[bad[0]]:.3e}: "
            "matrix part on the medial axis"
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


def lifebar(cloud: LiftedCloud, resolution: float = 0.02) -> Lifebar:
    """The exact onset of the first persistent class, from a parity sweep.

    The class at index t is nonzero iff the flag graph at scale sqrt(2) * t
    has a cycle with an odd number of edges along which the fiber line
    flips.  The edges below scale sqrt(2) * t_max enter a parity union-find
    in filtration order.  If the edge of value v first closes an odd cycle,
    the class turns nonzero at t*, the smallest double with SQRT2 * t* >= v,
    and t_dagger = nextafter(t*, 0).  resolution is validated, not used.

    Edge ij flips iff (u_i . m_ij)(m_ij . u_j) < 0, with u_i the top
    eigenvector of sym(A_i) and m_ij that of sym((A_i + A_j) / 2).  This
    holds for any matrix payload.  Below the bound, |A_i - A_j|_F < sqrt(2) g
    for every point's eigen-gap g, so each half of the segment stays within
    g / sqrt(2) of its endpoint.  At B = A_i + E there, a top eigenvector w
    of sym(B) orthogonal to u_i would need w'Ew - u_i'Eu_i >= g, but that
    difference is at most sqrt(2) |E|_F < g.  So the top line of each half
    is simple and never orthogonal to its endpoint's, and the two signs give
    the fiber's transport.  Nor can a midpoint below the bound lie within
    GAP_TOLERANCE of the medial axis: the MedialAxisError check asserts this
    on the midpoints solved, and a midpoint past the closing edge is neither
    solved nor checked.

    The midpoints are solved and signed block by block in filtration order,
    only as far as the sweep reads: the first block has max(n, 64) edges
    and each later one twice as many, so at most twice the edges up to the
    closing one plus one block are solved, in O(log E) solver calls.  An
    empty lifebar solves every edge below the bound.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    u, bound = _point_lines(cloud)
    n, iu, ju, values = _flag_edges(cloud.distance_matrix(), math.nextafter(SQRT2 * bound, 0.0))
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

    lo, size = 0, max(n, 64)
    while lo < len(values):
        block = slice(lo, lo + size)
        bi, bj = iu[block], ju[block]
        mid, _ = _top_eigenvectors((cloud.mats[bi] + cloud.mats[bj]) / 2.0, "edge midpoint", lo)
        flips = np.einsum("ij,ij->i", u[bi], mid) * np.einsum("ij,ij->i", mid, u[bj]) < 0.0
        for i, j, flip, value in zip(bi.tolist(), bj.tolist(), flips.tolist(), values[block]):
            (ri, pi), (rj, pj) = find(i), find(j)
            if ri != rj:
                parent[ri], parity[ri] = rj, pi ^ pj ^ flip
            elif pi ^ pj ^ flip:
                t_star = value / SQRT2  # made the smallest double with SQRT2 * t_star >= value
                while SQRT2 * t_star < value:
                    t_star = math.nextafter(t_star, math.inf)
                while t_star > 0.0 and SQRT2 * math.nextafter(t_star, 0.0) >= value:
                    t_star = math.nextafter(t_star, 0.0)
                # t_star can round up to the bound itself, outside the index set
                t_dagger = math.nextafter(t_star, 0.0) if t_star < bound else None
                return Lifebar(bound, t_dagger, resolution)
        lo, size = lo + size, 2 * size
    return Lifebar(bound, None, resolution)

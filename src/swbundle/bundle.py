"""Rips bundle filtrations, weak simplicial approximation, and lifebars.

A lifted cloud lives in R^n x M(R^m) with the gamma-weighted product norm.
Its flag-complex filtration carries projection maps to G_1(R^m) wherever the
matrix parts stay off the medial axis; the first persistent class of that
bundle is decided, scale by scale, by approximating the projection with a
weak simplicial approximation into the projective triangulation and testing
whether the pulled-back generator is a coboundary.

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
    jacobi_eigh_batch,
    line_projector,
    GAP_TOLERANCE,
    tmax,
)
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

WEAK_APPROXIMATION_CAVEAT = (
    "class decisions rely on weak simplicial approximations, which are certified "
    "combinatorially, not homotopically; results at scales where the complex is "
    "very coarse should be read with care"
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
        n, m, gamma = int(obj["n"]), int(obj["m"]), float(obj["gamma"])
        xs, mats = [], []
        for p in obj["points"]:
            x = np.asarray(p["x"], dtype=float)
            if x.shape != (n,):
                raise ValueError(f"point with x of shape {x.shape}, expected ({n},)")
            if "A" in p:
                A = np.asarray(p["A"], dtype=float)
                if A.shape != (m, m):
                    raise ValueError(f"point with A of shape {A.shape}, expected ({m}, {m})")
            elif "v" in p:
                A = line_projector(np.asarray(p["v"], dtype=float)).P
            else:
                raise ValueError("point needs a matrix 'A' or a line direction 'v'")
            xs.append(x)
            mats.append(A)
        if not xs:
            raise ValueError("empty cloud")
        return cls(np.array(xs), np.array(mats), gamma)


def lift_cloud(base: np.ndarray, lines: np.ndarray, gamma: float) -> LiftedCloud:
    """Pair base points with the projectors onto their line directions.

    ``lines`` may be (N, m) direction vectors or (N, m, m) matrices taken
    as-is for the matrix part.
    """
    base = np.asarray(base, dtype=float)
    lines = np.asarray(lines, dtype=float)
    if base.shape[0] != lines.shape[0]:
        raise ValueError("base points and lines differ in length")
    if lines.ndim == 2:
        mats = np.array([line_projector(v).P for v in lines])
    elif lines.ndim == 3:
        mats = lines
    else:
        raise ValueError("lines must be vectors or square matrices")
    return LiftedCloud(base, mats, gamma)


def rips_index_bound(cloud: LiftedCloud) -> float:
    """Right end of the index interval: tmax_gamma / sqrt(2)."""
    return tmax(cloud.points, 1, cloud.gamma) / SQRT2


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
    sym = (mats + mats.transpose(0, 2, 1)) / 2.0
    vals, vecs = jacobi_eigh_batch(sym)
    gaps = vals[:, 0] - vals[:, 1]
    bad = np.nonzero(gaps <= GAP_TOLERANCE)[0]
    if bad.size:
        raise MedialAxisError(
            f"vertex {int(bad[0])} has eigen-gap {gaps[bad[0]]:.3e}: "
            "matrix part on the medial axis"
        )
    directions = vecs[:, :, 0]
    simplices = T.face_simplices(directions)
    return {v: simplices[v] for v in range(len(simplices))}


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
    failing = None
    for k in range(subdiv_limit + 1):
        values = vertex_face_values(current, T)
        assignment, failing = weak_star_check(current, values, _pick=_pick)
        if assignment is not None:
            if not is_simplicial_map(assignment, current, T.L):
                raise RuntimeError("weak star assignment is not simplicial; construction broken")
            return assignment, current, k
        current = barycentric_subdivision(current)
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


def _complex_at_scale(
    cloud: LiftedCloud,
    scale: float,
    D: Optional[np.ndarray] = None,
    payloads: Optional[np.ndarray] = None,
) -> SimplicialComplex:
    """The flag graph of the cloud at the scale.  lifebar passes the cloud's
    distance matrix and payloads, so that it computes them only once."""
    D = cloud.distance_matrix() if D is None else D
    payloads = cloud.payloads() if payloads is None else payloads
    return rips_filtration(D, scale, 1, payloads=payloads).complex


def sw_class_at(
    cloud: LiftedCloud,
    t: float,
    T: ProjectiveTriangulation,
    subdiv_limit: int = 4,
    _pick: str = "min",
) -> SWResult:
    """Decide whether the first persistent class is nonzero at index t.

    Builds the flag graph at scale sqrt(2) * t, finds a weak simplicial
    approximation of the Grassmannian projection into T, pulls the
    generator back, and tests it for being a coboundary.  H^1 of the flag
    complex injects into H^1 of its graph, so the graph decides the class.
    """
    if T.m != cloud.m:
        raise ValueError("triangulation ambient dimension does not match the cloud")
    bound = rips_index_bound(cloud)
    if not 0.0 <= t < bound:
        raise ValueError(f"t = {t:g} outside the index set [0, {bound:g})")
    return _class_on(_complex_at_scale(cloud, SQRT2 * t), t, T, subdiv_limit, _pick)


def _class_on(
    K: SimplicialComplex,
    t: float,
    T: ProjectiveTriangulation,
    subdiv_limit: int,
    _pick: str = "min",
) -> SWResult:
    """The class at index t, decided on K, the flag graph at scale sqrt(2) * t."""
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
    """The interval of indices where the class is nonzero, up to resolution.

    t_dagger is None for an empty lifebar; otherwise it is the largest
    evaluated index with a zero class, so the true infimum lies within
    resolution above it.
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
            "caveat": WEAK_APPROXIMATION_CAVEAT,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def lifebar(
    cloud: LiftedCloud,
    T: ProjectiveTriangulation,
    resolution: float = 0.02,
    subdiv_limit: int = 4,
) -> Lifebar:
    """Bisection estimate of the infimum index where the class turns nonzero.

    Evaluates at 0 and at the right end of the index set; if the class is
    zero there the lifebar is empty, otherwise the zero/nonzero boundary is
    bisected until the bracket is narrower than the resolution.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    if T.m != cloud.m:
        raise ValueError("triangulation ambient dimension does not match the cloud")
    bound = rips_index_bound(cloud)
    if bound <= resolution:
        raise ValueError(f"index bound {bound:g} not larger than the resolution")
    D, payloads = cloud.distance_matrix(), cloud.payloads()
    evals: list[tuple[float, bool, int]] = []

    def ev(t: float) -> bool:
        K = _complex_at_scale(cloud, SQRT2 * t, D, payloads)
        r = _class_on(K, t, T, subdiv_limit)
        evals.append((t, r.nonzero, r.subdivisions_used))
        return r.nonzero

    hi = bound - resolution
    if not ev(hi):
        return Lifebar(bound, None, resolution, tuple(sorted(evals)))
    if ev(0.0):
        return Lifebar(bound, 0.0, resolution, tuple(sorted(evals)))
    lo, nz = 0.0, hi
    while nz - lo > resolution:
        mid = (lo + nz) / 2.0
        if ev(mid):
            nz = mid
        else:
            lo = mid
    return Lifebar(bound, lo, resolution, tuple(sorted(evals)))

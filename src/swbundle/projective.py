"""Triangulation of real projective space as an antipodal quotient.

The boundary of the standard m-simplex triangulates the (m-1)-sphere; its
barycentric subdivision has one vertex per nonempty proper subset of the
m+1 corner labels, and identifying each subset with its complement yields a
triangulation L of RP^{m-1} = G_1(R^m).  In a barycentric subdivision the
cell holding a point is given by the order of its coordinates: the ray
through a sum-zero x lies in the cone of the chain S_1 < ... < S_m exactly
when each S_k holds the labels of the k largest coordinates of x.  Built
here: the quotient 2-skeleton with the generator of H^1 in closed form, unit
embeddings of the vertices, and that coordinate-order face map.

Also here, as reference code off every CLI path: the paper's decider.
sw_class_at approximates a cloud's Grassmannian projection by a weak
simplicial approximation into L, pulls w1 back and tests it for being a
coboundary; the tests cross-check bundle.lifebar's parity sweep against it.
The paper's point types, its product metric gamma_dist, the projection onto
G_d(R^m), tmax, rips_index_bound and hausdorff_distance are here as well:
the oracles of grassmann's eigen-gaps and bundle's index bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Optional

import numpy as np

from .bundle import SQRT2, LiftedCloud, _top_eigenvectors, checked_index_bound
from .grassmann import (
    GAP_TOLERANCE,
    MedialAxisError,
    eigen_gaps,
    line_projectors,
    tmax_from_gaps,
)
from .simplicial import (
    SimplicialComplex,
    FilteredComplex,
    barycentric_subdivision,
    is_simplicial_map,
    pullback_cochain,
    rips_filtration,
)
from .z2 import CochainZ2, is_coboundary

FACE_EPSILON = 1e-9  # coordinate gaps <= FACE_EPSILON count as ties

_MIN_M = 2
_MAX_M = 6


@dataclass
class ProjectiveTriangulation:
    """Triangulation of RP^{m-1} with quotient labels, embeddings, and face maps.

    ``L`` is the 2-skeleton of the quotient complex (enough for degree-1
    cohomology), ``vertex_labels[i]`` is the canonical member (containing 0)
    of the complement pair behind vertex i, ``vertex_embeddings[i]`` the unit
    vector of that subset's centered indicator, and ``w1`` a 1-cocycle
    generating H^1(L, Z/2).
    """

    m: int
    L: SimplicialComplex
    vertex_labels: list
    vertex_embeddings: np.ndarray
    w1: CochainZ2
    _basis: np.ndarray = field(repr=False)
    _mask_to_l: np.ndarray = field(repr=False)  # label bitmask -> L vertex id

    # -- face maps ---------------------------------------------------------

    def _chains(self, X: np.ndarray):
        """Subset chains of a batch of unit vectors in hyperplane coordinates.

        Returns (masks, keep), both (N, m): masks[n, k-1] is the label
        bitmask of the k largest coordinates of query n, a vertex of its
        sphere face where keep[n, k-1], i.e. where the k-th and (k+1)-th
        largest coordinates differ by more than FACE_EPSILON.
        """
        Z = X @ self._basis.T
        order = np.argsort(-Z, axis=1, kind="stable")
        desc = np.take_along_axis(Z, order, axis=1)
        keep = desc[:, :-1] - desc[:, 1:] > FACE_EPSILON
        masks = np.bitwise_or.accumulate(np.left_shift(1, order[:, :-1]), axis=1)
        return masks, keep

    def face_simplices(self, directions: np.ndarray) -> list:
        """L-simplices hit by a batch of line directions in R^m."""
        X = np.atleast_2d(np.asarray(directions, dtype=float))
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite direction vector")
        norms = np.linalg.norm(X, axis=1)
        if np.any(norms <= 1e-12):
            raise ValueError("zero direction vector")
        masks, keep = self._chains(X / norms[:, None])
        # a chain never holds a subset and its complement, so its ids are distinct
        ids = np.sort(np.where(keep, self._mask_to_l[masks], len(self.vertex_labels)), axis=1)
        return [tuple(row[:c]) for row, c in zip(ids.tolist(), keep.sum(axis=1).tolist())]


def _centered_unit(subset, m: int) -> np.ndarray:
    e = np.zeros(m + 1)
    e[list(subset)] = 1.0
    e -= e.mean()
    return e / np.linalg.norm(e)


def _hyperplane_basis(m: int) -> np.ndarray:
    """Deterministic orthonormal basis of the sum-zero hyperplane in R^{m+1}."""
    cols = []
    for i in range(m):
        v = np.zeros(m + 1)
        v[i] = 1.0
        v -= v.mean()
        for c in cols:
            v -= (v @ c) * c
        v /= np.linalg.norm(v)
        cols.append(v)
    return np.column_stack(cols)


def triangulate_rp(m: int) -> ProjectiveTriangulation:
    """Build the quotient triangulation of RP^{m-1} for 2 <= m <= 6.

    Subdivides the boundary of the m-simplex once (vertices = nonempty
    proper subsets of the m+1 labels, simplices = inclusion chains),
    identifies complementary subsets, and keeps the 2-skeleton of the
    quotient.  A sphere edge whose ends disagree on holding label 0 joins a
    canonical subset to a non-canonical one; the images of those edges form
    w1, the class of the antipodal double cover, which generates H^1.
    """
    if not _MIN_M <= m <= _MAX_M:
        raise ValueError(f"m = {m} outside supported range [{_MIN_M}, {_MAX_M}]")
    full = (1 << (m + 1)) - 1
    # quotient vertices: the canonical representative contains label 0;
    # combinations() yields them ordered by (size, sorted labels)
    vertex_labels = [
        frozenset((0,) + c) for size in range(m) for c in combinations(range(1, m + 1), size)
    ]
    mask_to_l = np.full(full + 1, -1, dtype=np.int64)
    for i, lab in enumerate(vertex_labels):
        mk = sum(1 << j for j in lab)
        mask_to_l[mk] = mask_to_l[full ^ mk] = i

    # quotient 2-skeleton: images of chains of length <= 3
    l_id = mask_to_l.tolist()
    sphere = range(1, full)
    supersets = {a: [b for b in sphere if a & b == a != b] for a in sphere}
    simplices: set[tuple] = {(i,) for i in range(len(vertex_labels))}
    w1: set[tuple] = set()
    for a in sphere:
        for b in supersets[a]:
            edge = tuple(sorted((l_id[a], l_id[b])))
            simplices.add(edge)
            if (a ^ b) & 1:
                w1.add(edge)
            for c in supersets[b]:
                simplices.add(tuple(sorted((l_id[a], l_id[b], l_id[c]))))

    return ProjectiveTriangulation(
        m=m,
        L=SimplicialComplex(simplices),
        vertex_labels=vertex_labels,
        vertex_embeddings=np.array([_centered_unit(s, m) for s in vertex_labels]),
        w1=CochainZ2(1, frozenset(w1)),
        _basis=_hyperplane_basis(m),
        _mask_to_l=mask_to_l,
    )


# ---------------------------------------------------------------------------
# Grassmannian points, the product metric and the index bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixPoint:
    """A point of R^n x M(R^m): a base coordinate and a square matrix."""

    x: np.ndarray
    A: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix part must be square")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "A", A)


@dataclass(frozen=True)
class GrassmannPoint:
    """A rank-d orthogonal projection matrix, the embedding of a d-plane."""

    P: np.ndarray
    d: int

    def __post_init__(self) -> None:
        P = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "P", P)
        if not np.allclose(P, P.T, atol=1e-8):
            raise ValueError("projector must be symmetric")
        if not np.allclose(P @ P, P, atol=1e-7):
            raise ValueError("projector must be idempotent")
        if abs(np.trace(P) - self.d) > 1e-7:
            raise ValueError(f"projector trace {np.trace(P)} != d = {self.d}")


def gamma_dist(a: MatrixPoint, b: MatrixPoint, gamma: float) -> float:
    """Distance in the product norm: sqrt(|x_a - x_b|^2 + gamma^2 |A_a - A_b|_F^2)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if a.x.shape != b.x.shape or a.A.shape != b.A.shape:
        raise ValueError("dimension mismatch between points")
    dx = a.x - b.x
    dA = a.A - b.A
    return float(np.sqrt(dx @ dx + gamma * gamma * np.sum(dA * dA)))


def medial_distance(A: np.ndarray, d: int) -> float:
    """Frobenius distance from A to the medial axis of G_d(R^m).

    Equals sqrt(2)/2 times the gap between the d-th and (d+1)-th eigenvalues
    of the symmetric part of A.
    """
    return tmax_from_gaps(eigen_gaps(A, d)[0], 1.0)


def project_grassmannian(A: np.ndarray, d: int) -> GrassmannPoint:
    """Nearest rank-d projector to A in Frobenius norm.

    Symmetrize, eigendecompose, and keep the top-d eigenvector frame.
    Raises MedialAxisError when the eigen-gap at position d is below
    tolerance, i.e. the projection is not unique.
    """
    gap, O = eigen_gaps(A, d)
    if gap <= GAP_TOLERANCE:
        raise MedialAxisError(f"eigen-gap {gap:.3e} at position {d}: matrix on the medial axis")
    top = O[:, :d]
    return GrassmannPoint(top @ top.T, d)


def line_projector(v: np.ndarray) -> GrassmannPoint:
    """Rank-1 projector onto the line spanned by v."""
    return GrassmannPoint(line_projectors([v])[0], 1)


def tmax(points, d: int, gamma: float) -> float:
    """gamma times the smallest medial-axis distance over the cloud's matrices."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    mats = [p.A for p in points]
    if not mats:
        raise ValueError("empty cloud")
    return tmax_from_gaps(eigen_gaps(mats, d)[0], gamma)


def rips_index_bound(cloud: LiftedCloud) -> float:
    """Right end of the index interval: tmax_gamma / sqrt(2)."""
    return tmax([MatrixPoint(x, A) for x, A in zip(cloud.xs, cloud.mats)], 1, cloud.gamma) / SQRT2


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
# The paper's reference decider: refusal and the bundle filtration
# ---------------------------------------------------------------------------

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


def build_bundle_filtration(cloud: LiftedCloud, max_t: float) -> FilteredComplex:
    """Flag-complex filtration of the cloud with vertex payloads attached.

    max_t must stay within the bundle index bound; use rips_filtration
    directly for plain persistence past that scale.
    """
    bound = rips_index_bound(cloud)
    if max_t > bound + 1e-12:
        raise ValueError(f"max_t = {max_t:g} exceeds the bundle index bound {bound:g}")
    return rips_filtration(cloud.distance_matrix(), max_t, 2, payloads=cloud.payloads())


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
# Class evaluation
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
    coboundary.  It decides the class of the graph, which is the flag
    complex's class wherever every flag triangle has an even flip count, as
    below (sqrt(3)/2) * sqrt(2) * t_max (see bundle): H^1 of the flag complex
    injects into H^1 of its graph.
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

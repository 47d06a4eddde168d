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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .simplicial import SimplicialComplex
from .z2 import CochainZ2

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

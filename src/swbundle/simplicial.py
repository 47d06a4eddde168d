"""Simplicial complexes, Rips filtrations, subdivision, and pullbacks.

Reference code, off every CLI path: the paper's decider (projective) and the
tests build on it.  rips_barcode lists a distance matrix's edges and hands
them to bundle's flag-barcode core, which the CLI calls directly.

Vertices are integers.  Complexes carrying vertex payloads (coordinates in
the ambient product space) must use contiguous vertex ids 0..V-1 so the
payloads can live in one array; the subdivision re-indexes accordingly and
records the provenance of each new vertex in ``vertex_names``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

from .bundle import Barcode, _check_max_value, _flag_barcode
from .z2 import CochainZ2, _check_monotone


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

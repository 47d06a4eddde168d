"""GF(2) linear algebra, persistence barcodes, and cocycle/coboundary tests.

Reference code, off every CLI path.  Small matrices are dense uint8 arrays
reduced by XOR row operations; the barcode reduction uses sparse bitmask
columns over stored simplices.  It is the general reference: flag-filtration
barcodes are computed without stored triangles by ``bundle._flag_barcode``
(``simplicial.rips_barcode`` from a distance matrix), and the tests compare
the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bundle import INF, Barcode


# ---------------------------------------------------------------------------
# Bit matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BitMatrix:
    """Dense matrix over GF(2), entries stored as uint8 0/1."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.uint8) & 1
        if arr.ndim != 2:
            raise ValueError("BitMatrix needs a 2-d array")
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        prod = self.data.astype(np.int64) @ other.data.astype(np.int64)
        return BitMatrix(prod % 2)


def _row_echelon(M: np.ndarray, stop_col: Optional[int] = None):
    """Row echelon form over GF(2); returns (echelon copy, pivot column list)."""
    R = (np.asarray(M, dtype=np.uint8) & 1).copy()
    m, n = R.shape
    if stop_col is None:
        stop_col = n
    pivot_cols: list[int] = []
    r = 0
    for c in range(stop_col):
        if r == m:
            break
        hits = np.nonzero(R[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        mask = R[:, c] == 1
        mask[r] = False
        R[mask] ^= R[r]
        pivot_cols.append(c)
        r += 1
    return R, pivot_cols


def gf2_rank(M: BitMatrix) -> int:
    """Rank of M over GF(2)."""
    if M.rows == 0 or M.cols == 0:
        return 0
    _, pivots = _row_echelon(M.data)
    return len(pivots)


def gf2_solve(M: BitMatrix, b: np.ndarray) -> Optional[np.ndarray]:
    """Solve Mx = b over GF(2).

    Returns one solution (free variables set to 0), or None when the system
    is inconsistent.  Raises on dimension mismatch.
    """
    b = np.asarray(b, dtype=np.uint8) & 1
    if b.shape != (M.rows,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({M.rows},)")
    n = M.cols
    aug = np.concatenate([M.data, b[:, None]], axis=1)
    R, pivots = _row_echelon(aug, stop_col=n)
    rank = len(pivots)
    if np.any(R[rank:, n] == 1):
        return None
    x = np.zeros(n, dtype=np.uint8)
    # _row_echelon eliminates above pivots as well, so back substitution is direct
    for r, c in enumerate(pivots):
        x[c] = R[r, n]
    return x


def gf2_in_span(M: BitMatrix, v: np.ndarray) -> bool:
    """True iff v lies in the column space of M over GF(2)."""
    return gf2_solve(M, v) is not None


def gf2_nullspace(M: BitMatrix) -> list[np.ndarray]:
    """Basis of the right null space of M over GF(2)."""
    n = M.cols
    if n == 0:
        return []
    R, pivots = _row_echelon(M.data)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        x = np.zeros(n, dtype=np.uint8)
        x[fc] = 1
        # reduced echelon: pivot rows read off directly
        for r, c in enumerate(pivots):
            x[c] = R[r, fc]
        basis.append(x)
    return basis


# ---------------------------------------------------------------------------
# Cochains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CochainZ2:
    """A degree-k cochain over GF(2), given by the set of simplices where it is 1."""

    degree: int
    support: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        support = frozenset(tuple(s) for s in self.support)
        object.__setattr__(self, "support", support)
        for s in support:
            if len(s) != self.degree + 1:
                raise ValueError(f"simplex {s} has wrong dimension for degree {self.degree}")

    def __add__(self, other: "CochainZ2") -> "CochainZ2":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return CochainZ2(self.degree, self.support ^ other.support)

    @property
    def is_zero(self) -> bool:
        return not self.support


def coboundary_matrix(K, k: int) -> BitMatrix:
    """Matrix of the coboundary map delta^k: C^k -> C^{k+1}.

    Columns are the k-simplices of K in lexicographic order, rows the
    (k+1)-simplices; an entry is 1 iff the column simplex is a face of the
    row simplex.
    """
    cols = K.sorted_simplices(k)
    rows = K.sorted_simplices(k + 1)
    col_index = {s: j for j, s in enumerate(cols)}
    M = np.zeros((len(rows), len(cols)), dtype=np.uint8)
    for i, s in enumerate(rows):
        for drop in range(len(s)):
            M[i, col_index[s[:drop] + s[drop + 1:]]] = 1
    return BitMatrix(M)


def is_cocycle(K, c: CochainZ2) -> bool:
    """True iff delta c vanishes on every (k+1)-simplex of K."""
    hosted = K.simplex_set(c.degree)
    for s in c.support:
        if s not in hosted:
            raise ValueError(f"cochain supported on {s}, which is not a simplex of the complex")
    support = c.support
    for cof in K.simplices.get(c.degree + 1, ()):
        parity = 0
        for drop in range(len(cof)):
            if cof[:drop] + cof[drop + 1:] in support:
                parity ^= 1
        if parity:
            return False
    return True


def is_coboundary(K, c: CochainZ2) -> bool:
    """Decide whether a 1-cocycle equals delta^0 x for some 0-cochain x.

    Propagates vertex potentials over a spanning forest and checks the
    remaining edges; this solves delta x = c exactly but in time linear in
    the 1-skeleton, which the bundle pipeline relies on.
    """
    if c.degree != 1:
        raise ValueError("is_coboundary expects a degree-1 cochain")
    if not is_cocycle(K, c):
        raise ValueError("cochain is not a cocycle")
    adj: dict[int, list[tuple[int, int]]] = {v[0]: [] for v in K.simplices.get(0, ())}
    support = c.support
    for (a, b) in K.simplices.get(1, ()):
        bit = 1 if (a, b) in support else 0
        adj[a].append((b, bit))
        adj[b].append((a, bit))
    potential: dict[int, int] = {}
    for start in adj:
        if start in potential:
            continue
        potential[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            pu = potential[u]
            for v, bit in adj[u]:
                if v not in potential:
                    potential[v] = pu ^ bit
                    stack.append(v)
                elif potential[v] != pu ^ bit:
                    return False
    return True


def h1_generator(K) -> Optional[CochainZ2]:
    """A 1-cocycle whose class generates a nonzero part of H^1(K, Z/2), or None.

    Deterministic choice: among the kernel basis of delta^1 produced by
    elimination, return the element with smallest lexicographic support that
    is not in the image of delta^0.
    """
    edges = K.sorted_simplices(1)
    if not edges:
        return None
    d1 = coboundary_matrix(K, 1)
    d0 = coboundary_matrix(K, 0)
    kernel = gf2_nullspace(d1)
    if not kernel:
        return None

    def support_key(vec: np.ndarray) -> tuple:
        return tuple(int(i) for i in np.nonzero(vec)[0])

    for vec in sorted(kernel, key=support_key):
        if not gf2_in_span(d0, vec):
            return CochainZ2(1, frozenset(edges[i] for i in np.nonzero(vec)[0]))
    return None


def betti_numbers(K, max_dim: int) -> list[int]:
    """Z/2 Betti numbers b_0..b_max_dim from coboundary ranks."""
    out = []
    for k in range(max_dim + 1):
        n_k = len(K.simplices.get(k, ()))
        if n_k == 0:
            out.append(0)
            continue
        rank_dk = gf2_rank(coboundary_matrix(K, k))
        rank_prev = gf2_rank(coboundary_matrix(K, k - 1)) if k > 0 else 0
        out.append(n_k - rank_dk - rank_prev)
    return out


# ---------------------------------------------------------------------------
# Persistence barcodes
# ---------------------------------------------------------------------------

def _check_monotone(F) -> None:
    """ValueError unless each face of a simplex of F enters by its value (up to 1e-12)."""
    values = F.values
    for dim, simplices in F.complex.simplices.items():
        if dim == 0:
            continue
        for s in simplices:
            v = values[s]
            for drop in range(len(s)):
                if values[s[:drop] + s[drop + 1:]] > v + 1e-12:
                    raise ValueError(f"non-monotone filtration at simplex {s}")


def barcode(F, max_dim: int) -> Barcode:
    """Persistence barcode of a filtered complex over Z/2 in dims 0..max_dim.

    Standard column reduction of the boundary matrices in filtration order,
    processing dimensions top-down with the clearing optimization: a simplex
    paired as a pivot row while reducing dimension d+1 is a known cycle
    creator, so its own boundary column is skipped.  Columns are bitmask
    integers over the simplices one dimension down; the pivot is the highest
    set bit.  Zero-length intervals are dropped.
    """
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    _check_monotone(F)
    values = F.values
    dims = sorted(F.complex.simplices)
    by_dim = {
        d: sorted(F.complex.simplices[d], key=lambda s: (values[s], s)) for d in dims
    }
    top = min(max(dims, default=0), max_dim + 1)

    bars: list[tuple[int, float, float]] = []
    cleared: set[tuple] = set()       # known creators in the dimension below
    paired_death: dict[tuple, float] = {}  # creator simplex -> death value

    for d in range(top, 0, -1):
        rows = by_dim.get(d - 1, [])
        row_index = {s: i for i, s in enumerate(rows)}
        pivot_col: dict[int, int] = {}
        next_cleared: set[tuple] = set()
        next_paired: dict[tuple, float] = {}
        creators_d: list[tuple] = []
        for s in by_dim.get(d, []):
            if s in cleared:
                creators_d.append(s)
                continue
            col = 0
            for drop in range(len(s)):
                col |= 1 << row_index[s[:drop] + s[drop + 1:]]
            while col:
                low = col.bit_length() - 1
                other = pivot_col.get(low)
                if other is None:
                    break
                col ^= other
            if col:
                low = col.bit_length() - 1
                pivot_col[low] = col
                creator = rows[low]
                next_cleared.add(creator)
                next_paired[creator] = values[s]
                if values[s] > values[creator]:
                    bars.append((d - 1, values[creator], values[s]))
            else:
                creators_d.append(s)
        if d <= max_dim:
            # finite d-bars were emitted while reducing dimension d+1
            for s in creators_d:
                if s not in paired_death:
                    bars.append((d, values[s], INF))
        cleared = next_cleared
        paired_death = next_paired

    # dimension 0: every vertex is a creator
    for v in by_dim.get(0, []):
        if v not in paired_death:
            bars.append((0, values[v], INF))
    return Barcode(tuple(bars))

"""Symmetric eigensolvers, eigen-gaps and line projectors.

The Grassmannian of d-planes is embedded in matrix space as orthogonal
projection matrices.  Projecting a matrix onto it reduces to symmetrizing,
eigendecomposing, and keeping the top-d eigenspaces; that projection is
undefined on the medial axis, reached exactly when the d-th eigen-gap
closes.  The point types, the product metric and the projection itself are
reference code in projective.
"""

from __future__ import annotations

import numpy as np

GAP_TOLERANCE = 1e-9        # eigen-gap below which the projection is refused
_SYM_TOLERANCE = 1e-8
_JACOBI_TOLERANCE = 1e-12
_JACOBI_MAX_SWEEPS = 100


class MedialAxisError(ValueError):
    """Raised when a matrix is numerically on the medial axis of G_d(R^m)."""


# ---------------------------------------------------------------------------
# Eigensolvers: LAPACK for every caller, cyclic Jacobi as the test oracle
# ---------------------------------------------------------------------------

def eigh_descending(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a symmetric matrix or stack (..., m, m), reordered:
    eigenvalues (..., m) descending, eigenvectors (..., m, m) in matching columns.
    Reads only the lower triangle; callers pass symmetric parts."""
    vals, vecs = np.linalg.eigh(S)
    return vals[..., ::-1], vecs[..., ::-1]


def jacobi_eigh_batch(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi over a stack of symmetric matrices (N, m, m), vectorized.

    Sweeps over all (p, q) pairs, zeroing one off-diagonal entry per
    rotation in every matrix at once; stops when each matrix's off-diagonal
    Frobenius mass is below 1e-12 times its norm, with a hard cap of 100
    sweeps.  Adequate for the small m used here (m <= 8).  Raises ValueError
    when some matrix is not symmetric.
    Returns (eigenvalues (N, m) descending, eigenvectors (N, m, m) columns).
    """
    A = np.array(S, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("expected a stack of square matrices of shape (N, m, m)")
    asym = np.abs(A - A.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    if np.any(asym > _SYM_TOLERANCE * (1.0 + np.abs(A).max(axis=(1, 2), initial=0.0))):
        raise ValueError("matrix is not symmetric")
    N, m = A.shape[0], A.shape[1]
    A = (A + A.transpose(0, 2, 1)) / 2.0
    O = np.broadcast_to(np.eye(m), (N, m, m)).copy()
    norms = np.maximum(np.linalg.norm(A, axis=(1, 2)), 1e-300)
    offdiag = ~np.eye(m, dtype=bool)
    for _ in range(_JACOBI_MAX_SWEEPS):
        # measured directly from the entries: the sum(A^2) - sum(diag^2)
        # form cancels catastrophically near convergence
        off = np.sqrt(np.sum((A * offdiag) ** 2, axis=(1, 2)))
        if np.all(off <= _JACOBI_TOLERANCE * norms):
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = A[:, p, q]
                active = apq != 0.0
                if not np.any(active):
                    continue
                theta = np.zeros(N)
                with np.errstate(over="ignore"):
                    theta[active] = (A[active, q, q] - A[active, p, p]) / (2.0 * apq[active])
                np.clip(theta, -1e150, 1e150, out=theta)
                t = np.where(
                    theta == 0.0,
                    1.0,
                    np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0)),
                )
                t = np.where(active, t, 0.0)
                c = (1.0 / np.sqrt(t * t + 1.0))[:, None]
                s = t[:, None] * c
                for M in (A.transpose(0, 2, 1), A, O):  # A's rows, A's columns, then O's
                    Mp, Mq = M[:, :, p].copy(), M[:, :, q].copy()
                    M[:, :, p] = c * Mp - s * Mq
                    M[:, :, q] = s * Mp + c * Mq
                A[:, p, q] = A[:, q, p] = 0.0
    vals = np.diagonal(A, axis1=1, axis2=2).copy()
    order = np.argsort(-vals, axis=1, kind="stable")
    vals_sorted = np.take_along_axis(vals, order, axis=1)
    vecs_sorted = np.take_along_axis(O, order[:, None, :], axis=2)
    return vals_sorted, vecs_sorted


# ---------------------------------------------------------------------------
# Eigen-gaps and line projectors
# ---------------------------------------------------------------------------

def eigen_gaps(S: np.ndarray, d: int, solve=eigh_descending) -> tuple[np.ndarray, np.ndarray]:
    """The d-th eigen-gaps lambda_d - lambda_{d+1} of the symmetric parts of a
    matrix or stack (..., m, m), and their eigenvectors as solve (descending
    eigenvalues, matching columns) returns them; ValueError unless 1 <= d < m."""
    S = np.asarray(S, dtype=float)
    m = S.shape[-1]
    if not 1 <= d < m:
        why = f": a {m} x {m} matrix part has no line" if m < 2 else ""
        raise ValueError(f"d = {d} out of range for m = {m}{why}")
    vals, vecs = solve((S + np.swapaxes(S, -1, -2)) / 2.0)
    return vals[..., d - 1] - vals[..., d], vecs


def line_projectors(V: np.ndarray) -> np.ndarray:
    """Rank-1 projectors onto the lines spanned by the rows of V, shape (N, m, m)."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise ValueError("expected direction vectors of shape (N, m)")
    if not np.all(np.isfinite(V)):
        raise ValueError("non-finite direction vector")
    # row norms from per-row dot products, rounded as np.linalg.norm(v) rounds
    with np.errstate(over="ignore"):  # an overflowing row is refused below
        nrm = np.sqrt(V[:, None, :] @ V[:, :, None])[:, 0]
    if np.any(nrm <= 1e-12):
        raise ValueError("near-zero direction vector")
    if np.any(np.isinf(nrm)):
        raise ValueError("direction vector too long: its squared norm overflows")
    U = V / nrm
    return U[:, :, None] * U[:, None, :]


def tmax_from_gaps(gaps: np.ndarray, gamma: float) -> float:
    """gamma times the smallest medial-axis distance: sqrt(2)/2 times an eigen-gap."""
    return gamma * float(np.min(np.sqrt(2.0) / 2.0 * np.abs(gaps)))

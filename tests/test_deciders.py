"""Three deciders on payloads the generators never make.

The lifebar's parity sweep, the paper's pipeline (projective.sw_class_at)
and the coboundary test of the flip cocycle on the flag graph
(z2.is_coboundary, every flip by the midpoint rule from numpy's
eigensolver; the clouds have at most 28 points) must give one class at
t_dagger and at the onset after it, or just below t_max for an empty
lifebar.

The payloads keep every eigen-gap fixed, so the index bound stays put: the
lines of a generator cloud, turned into R^m by an isometry, carry either a
projector plus a skew part s S (whose symmetric part is the projector) or
R diag(lam) R' with one spectrum lam for every point.  Twins reach the
midpoint rule: a point at the same base point whose top line meets the
point's at |c| of order 1e-3, with the same spectrum, so that their edge
lies in the sliver next to the bound that the value certificate refuses.
A bridge point at the same base point, its top line 45 degrees from both,
closes a triangle with exactly one twin edge, so a wrong sign on the twins'
edges changes the class.

The paper's pipeline stops at the first subdivision whose vertex map meets
the weak star condition, which reads the projection at the vertices only.
Along a twin edge the top line turns through 90 degrees, so on a coarse
cloud the unsubdivided map can meet the condition with the twin edge routed
the other way round RP^{m-1}: sw_class_at then reads the twin triangle as
even, with 0 subdivisions.  Where it disagrees with the lifebar, the
property asserts that this is the case: 0 subdivisions, and the same
pipeline started from the once-subdivided graph, whose half-edges each turn
through 45 degrees, gives the lifebar's class.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from swbundle.bundle import SQRT2, LiftedCloud, lifebar
from swbundle.datasets import add_noise, circle_normal, circle_tautological, klein_normal, torus_normal
from swbundle.projective import (
    _complex_at_scale,
    pullback_cochain,
    sw_class_at,
    triangulate_rp,
    weak_simplicial_approximation,
)
from swbundle.simplicial import SimplicialComplex, _flag_edges, barycentric_subdivision
from swbundle.z2 import CochainZ2, is_coboundary

# the paper's pipeline's subdivision limit: a SubdivisionLimitError fails
# the property, so no example is skipped.  The 200 examples below use at
# most 13 subdivisions, on twin edges the weak star condition splits
SUBDIV_LIMIT = 16

BASES = {
    "mobius": lambda k: circle_tautological(k),
    "circle-normal": lambda k: circle_normal(k),
    "torus": lambda k: torus_normal(max(3, k // 4), 4),
    "klein": lambda k: klein_normal(max(3, k // 4), 4),
}


@lru_cache(maxsize=None)
def _triangulation(m):
    return triangulate_rp(m)


def _top_lines(mats):
    """Top eigenvectors of the symmetric parts, by numpy's eigensolver."""
    return np.linalg.eigh((mats + mats.transpose(0, 2, 1)) / 2.0)[1][..., -1]


def _graph_class_nonzero(cloud, t):
    """Whether the flip cocycle of the flag graph at scale sqrt(2) t is not a
    coboundary: edge ij flips iff (u_i . m)(m . u_j) < 0, m the top line of
    the midpoint (A_i + A_j) / 2."""
    n, i, j, _ = _flag_edges(cloud.distance_matrix(), SQRT2 * t)
    u, mid = _top_lines(cloud.mats), _top_lines((cloud.mats[i] + cloud.mats[j]) / 2.0)
    flips = np.einsum("ij,ij->i", u[i], mid) * np.einsum("ij,ij->i", mid, u[j]) < 0.0
    edges = list(zip(i.tolist(), j.tolist()))
    K = SimplicialComplex([(v,) for v in range(n)] + edges)
    return not is_coboundary(K, CochainZ2(1, [e for e, f in zip(edges, flips) if f]))


def _subdivided_pipeline_nonzero(cloud, t, T):
    """The paper's pipeline at index t, started from the flag graph
    subdivided once."""
    K = barycentric_subdivision(_complex_at_scale(cloud, SQRT2 * t))
    f, Kp, _ = weak_simplicial_approximation(K, T, SUBDIV_LIMIT)
    return not is_coboundary(Kp, pullback_cochain(f, Kp, T.L, T.w1))


def _turned(u, v, c):
    """The unit vectors c u + sqrt(1 - c^2) v, row by row."""
    return c[:, None] * u + np.sqrt(1.0 - c * c)[:, None] * v


def _general_cloud(rng, base, m, payload, twins, gamma):
    """base's lines turned into R^m, with payloads of fixed gaps, plus a twin
    and a bridge at each of twins points spread over the cloud (see the
    module docstring)."""
    lines = np.linalg.eigh(base.mats)[1][..., -1]
    Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    lines = lines @ Q[:, :lines.shape[1]].T
    # R: each point's orthonormal frame, first column its line
    R = np.linalg.qr(np.concatenate([lines[:, :, None], rng.normal(size=(len(lines), m, m - 1))],
                                    axis=2))[0]
    R *= np.sign(np.einsum("ij,ij->i", R[:, :, 0], lines))[:, None, None]
    twinned = np.arange(twins) * len(lines) // max(twins, 1)
    u, v = R[twinned, :, 0], R[twinned, :, 1]
    c = rng.choice([-1.0, 1.0], size=twins) * rng.uniform(1e-4, 2e-3, size=twins)
    frames = [R]
    for turn in (c, np.full(twins, math.sqrt(0.5))):  # each frame turned in the plane of u, v
        F = R[twinned].copy()
        F[:, :, 0], F[:, :, 1] = _turned(u, v, turn), _turned(v, -u, turn)
        frames.append(F)
    R = np.concatenate(frames)
    rows = np.concatenate([np.arange(len(lines)), twinned, twinned])
    if payload == "spectrum":  # gap lam_1 - lam_2, the rest at or below lam_2 = 0
        lam = np.concatenate([[rng.uniform(0.3, 1.5), 0.0], -rng.uniform(0.0, 1.0, size=m - 2)])
        mats = np.einsum("kab,b,kcb->kac", R, lam, R)
    else:  # a twin and a bridge share their point's skew part
        S = rng.normal(size=(len(lines), m, m))
        S -= S.transpose(0, 2, 1)
        S *= rng.uniform(0.1, 0.6) / np.linalg.norm(S, axis=(1, 2), keepdims=True)
        mats = np.einsum("ka,kb->kab", R[:, :, 0], R[:, :, 0]) + S[rows]
    return LiftedCloud(base.xs[rows], mats, gamma)


def test_property_three_deciders_agree_on_general_payloads():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ran = []

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.sampled_from(sorted(BASES)), st.integers(8, 24), st.integers(2, 6),
        st.sampled_from(["skew", "spectrum"]), st.integers(0, 2), st.floats(0.5, 2.0),
        st.sampled_from([0.0, 0.02, 0.05]), st.integers(0, 2**16),
    )
    def check(kind, k, m, payload, twins, gamma, sigma, seed):
        rng = np.random.default_rng(seed)
        base = BASES[kind](k)
        m = max(m, base.m)
        cloud = _general_cloud(rng, add_noise(base, sigma, seed), m, payload, twins, gamma)
        T = _triangulation(m)
        lb = lifebar(cloud)
        if lb.empty:
            verdicts = [(math.nextafter(lb.t_max, 0.0), False)]
        else:
            verdicts = [(lb.t_dagger, False), (math.nextafter(lb.t_dagger, math.inf), True)]
        for t, nonzero in verdicts:
            assert _graph_class_nonzero(cloud, t) == nonzero, f"is_coboundary at t = {t!r}"
            result = sw_class_at(cloud, t, T, subdiv_limit=SUBDIV_LIMIT)
            if result.nonzero != nonzero:  # an unsplit twin edge routed the other way
                assert twins and result.subdivisions_used == 0, f"sw_class_at at t = {t!r}"
                assert _subdivided_pipeline_nonzero(cloud, t, T) == nonzero
        ran.append(len(cloud))

    check()
    assert len(ran) >= 200

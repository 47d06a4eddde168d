"""Lifebars checked against an independent decider: the sign-transport sweep.

For a rank-1 projector payload P_i = u_i u_i^T, the segment from P_i to P_j
stays in span(u_i, u_j) and its top eigenvector turns through the acute
angle, so the pulled-back generator of H^1(RP^{m-1}; Z/2) on the edge ij is
[u_i . u_j < 0] up to a coboundary.  The class at index t is then nonzero iff
the flag graph at scale sqrt(2) * t has a cycle with an odd number of such
edges.  The sweep adds the edges in filtration order to a parity union-find
and returns the index of the first edge that closes an odd cycle: the exact
onset t*.  It shares no decision code with the library: its eigenvectors
come from numpy, its distances from direct differences.
"""

import math

import numpy as np
import pytest

from swbundle.bundle import SubdivisionLimitError, hausdorff_distance, lifebar
from swbundle.datasets import (
    add_noise,
    circle_normal,
    circle_tautological,
    klein_normal,
    torus_normal,
)

TIE = 1e-9  # indices this close to t* may go either way (rounding of the distances)


def sign_onset(cloud):
    """Exact index where the class turns nonzero, or None if it never does."""
    n = len(cloud)
    sym = (cloud.mats + cloud.mats.transpose(0, 2, 1)) / 2.0
    u = np.linalg.eigh(sym)[1][:, :, -1]
    emb = np.concatenate([cloud.xs, cloud.gamma * cloud.mats.reshape(n, -1)], axis=1)
    D = np.sqrt(np.sum((emb[:, None, :] - emb[None, :, :]) ** 2, axis=2))
    iu, ju = np.triu_indices(n, k=1)
    parent, parity = list(range(n)), [0] * n

    def find(a):
        odd = 0
        while parent[a] != a:
            odd ^= parity[a]
            a = parent[a]
        return a, odd

    for e in np.argsort(D[iu, ju], kind="stable").tolist():
        i, j = int(iu[e]), int(ju[e])
        flip = int(u[i] @ u[j] < 0.0)
        (ri, pi), (rj, pj) = find(i), find(j)
        if ri != rj:
            parent[ri], parity[ri] = rj, pi ^ pj ^ flip
        elif pi ^ pj ^ flip:
            return D[i, j] / 2.0 / math.sqrt(2.0)
    return None


def assert_lifebar_matches_onset(cloud, resolution):
    try:
        lb = lifebar(cloud, resolution=resolution)
    except SubdivisionLimitError:
        return  # a refusal is an allowed answer, never a wrong one
    t_star = sign_onset(cloud)
    for t, nonzero, _ in lb.evaluations:
        if t_star is None or abs(t - t_star) > TIE:
            assert nonzero == (t_star is not None and t > t_star), (t, t_star)
    if lb.empty:
        # also the blind zone: an onset in (t_max - resolution, t_max) reads empty
        assert t_star is None or t_star > lb.t_max - lb.resolution - TIE
    else:
        assert t_star is not None
        assert lb.t_dagger - TIE < t_star <= lb.t_dagger + lb.resolution + TIE


KINDS = {
    "mobius": lambda k, gamma: circle_tautological(5 * k, gamma),
    "circle-normal": lambda k, gamma: circle_normal(5 * k, gamma),
    "torus": lambda k, gamma: torus_normal(k, k, gamma),
    "klein": lambda k, gamma: klein_normal(k, k, gamma),
}


@pytest.mark.parametrize("kind, k, gamma", [
    ("mobius", 8, 1.0), ("circle-normal", 12, 2.0), ("torus", 8, 1.0), ("klein", 8, 1.0),
])
def test_canonical_clouds(kind, k, gamma):
    assert_lifebar_matches_onset(KINDS[kind](k, gamma), 0.02)


def test_property_lifebar_brackets_onset():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    clouds = st.builds(
        lambda kind, k, gamma, noise, seed: add_noise(KINDS[kind](k, gamma), noise, seed),
        st.sampled_from(sorted(KINDS)),
        st.integers(6, 10),
        st.floats(0.5, 2.0),
        st.floats(0.0, 0.08),
        st.integers(0, 2**16),
    )

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(clouds, st.sampled_from([0.02, 0.05]))
    def check(cloud, resolution):
        assert_lifebar_matches_onset(cloud, resolution)

    check()


def test_property_onset_stable_under_noise():
    # stability of the lifebar: the onsets t* = nextafter(t_dagger, inf) of
    # two noisy copies of one cloud differ by at most their Hausdorff distance.
    # The torus and gamma < 1 are left out: their lifebars are (nearly) always
    # empty, and an empty pair checks nothing.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.sampled_from(["circle-normal", "klein", "mobius"]), st.integers(6, 10),
        st.floats(1.0, 2.0),
        st.floats(0.0, 0.06), st.floats(0.0, 0.06), st.integers(0, 2**16),
    )
    def check(kind, k, gamma, noise_a, noise_b, seed):
        base = KINDS[kind](k, gamma)
        a, b = add_noise(base, noise_a, seed), add_noise(base, noise_b, seed + 1)
        lb_a, lb_b = lifebar(a), lifebar(b)
        if lb_a.empty or lb_b.empty:
            return
        t_a = math.nextafter(lb_a.t_dagger, math.inf)
        t_b = math.nextafter(lb_b.t_dagger, math.inf)
        assert abs(t_a - t_b) <= hausdorff_distance(a, b)

    check()

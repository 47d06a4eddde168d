"""The flag graph's edge list, the blocks the parity sweep reads it in and
the edge-sign certificates against their references.

_flag_graph must list the pairs and values of _flag_edges(
cloud.distance_matrix(), v) in row-major order, bit for bit those of a
brute-force listing of every pair, whatever its tiles and blocks, in memory
that follows the edges it keeps.  The blocks that
_odd_cycle_sweep hands its sign must hold the flag filtration's edges:
until the forest spans, exactly as _flag_edges(cloud.distance_matrix(), v)
lists them, the same pairs in the same (value, i, j) order; in all, the
same edges, in blocks that double in size and never split a tie.  The
chord certificate must cover every edge below the bound of the test clouds
and give the flip the midpoint rule gives.
"""

import math
import tracemalloc

import numpy as np
import pytest

from swbundle import bundle
from swbundle.bundle import (
    CHORD_MARGIN,
    SQRT2,
    LiftedCloud,
    _chord_certified,
    _edge_flips,
    _flag_graph,
    _odd_cycle_sweep,
    _point_lines,
    _top_eigenvectors,
    checked_index_bound,
)
from swbundle.datasets import add_noise, circle_normal, circle_tautological, klein_normal
from swbundle.grassmann import MedialAxisError
from swbundle.simplicial import _flag_edges

from test_bundle import CROSS_CHECK_CLOUDS, SHIFT_ONE_CLOUDS, STRONG_NON_PROJECTOR_CLOUDS


def _shifted(cloud, offset=1e3):
    """The cloud moved by offset along every base axis: the Gram form of
    the distances then cancels large terms."""
    return LiftedCloud(cloud.xs + offset, cloud.mats, cloud.gamma)


def _max_value(cloud):
    """The largest edge value below the cloud's bound, as lifebar reads it."""
    return math.nextafter(SQRT2 * _point_lines(cloud)[2], 0.0)


EDGE_CLOUDS = {
    **CROSS_CHECK_CLOUDS,
    **{f"{name}-shifted": (lambda make=make: _shifted(make()))
       for name, make in CROSS_CHECK_CLOUDS.items()},
    # regular polygons: many exactly tied edge values
    **{f"polygon-{k}-gamma-{g}": (lambda k=k, g=g: circle_normal(k, g))
       for k in (12, 16, 30, 60) for g in (1.0, 2.0)},
}


def _assert_blocks_match(cloud, max_value, first):
    # the sweep with no edge flipped reads every block; its sign records them
    n, iu, ju, values = _flag_edges(cloud.distance_matrix(), max_value)
    assert n == len(cloud)
    blocks = []

    def sign(i, j, before):
        assert before == sum(map(len, blocks))  # the filtration position of the block
        blocks.append(i * n + j)
        return np.zeros(len(i), dtype=bool)

    i, j, got = _flag_graph(cloud, max_value)
    value_of = dict(zip((iu * n + ju).tolist(), values.tolist()))
    assert dict(zip((i * n + j).tolist(), got.tolist())) == value_of  # to the bit
    forest = _odd_cycle_sweep(n, i, j, got, first, sign)[1]
    if not values.size:
        assert blocks == []
        return
    # the blocks up to the one where the forest spans (all of them if it never does)
    spanned = forest[-1] + 1 if len(forest) == n - 1 else values.size
    ordered = np.concatenate([b for b, lo in zip(blocks, np.cumsum([0, *map(len, blocks)]))
                              if lo < spanned])
    assert np.array_equal(ordered, (iu * n + ju)[:ordered.size])  # in order, to the pair
    joined = np.concatenate(blocks)
    assert np.array_equal(np.sort(joined), np.sort(iu * n + ju))  # every edge, once
    size = first
    for block, later in zip(blocks, blocks[1:]):
        assert len(block) >= size  # only the last block may be short
        # ties are never split
        assert max(map(value_of.get, block.tolist())) < min(map(value_of.get, later.tolist()))
        size *= 2


@pytest.mark.parametrize("name", sorted(EDGE_CLOUDS))
def test_edge_blocks_match_flag_edges(name):
    cloud = EDGE_CLOUDS[name]()
    for first in (1, 7, max(len(cloud), 64)):
        _assert_blocks_match(cloud, _max_value(cloud), first)


@pytest.mark.parametrize("name", sorted(EDGE_CLOUDS))
def test_flag_graph_matches_flag_edges_in_row_major_order(name):
    # from no edge up to bounds whose square overflows a float
    cloud = EDGE_CLOUDS[name]()
    D, n = cloud.distance_matrix(), len(cloud)
    lifebar_bound = _max_value(cloud)
    for v in (0.0, lifebar_bound / 2, checked_index_bound(cloud), lifebar_bound, 1e200, 1.79e308):
        _, iu, ju, values = _flag_edges(D, v)
        i, j, got = _flag_graph(cloud, v)
        assert np.all(np.diff(i * n + j) > 0) and np.all(i < j)  # row-major, upper triangle
        row_major = np.lexsort((ju, iu))
        assert np.array_equal(i, iu[row_major]) and np.array_equal(j, ju[row_major])
        assert got.tolist() == values[row_major].tolist()  # to the bit


def _brute_force_edges(cloud, max_value):
    """Every pair i < j in row-major order, valued |e_i - e_j| / 2 by the
    direct difference of the embedding's rows, kept up to max_value."""
    emb = cloud.embedding()
    i, j = np.triu_indices(len(cloud), 1)
    diff = emb[i] - emb[j]
    values = np.sqrt(np.einsum("ij,ij->i", diff, diff)) / 2.0
    keep = values <= max_value
    return i[keep], j[keep], values[keep]


# more points than a tile of the default budget has rows
TILED_CLOUDS = {
    "mobius-200-noisy": lambda: add_noise(circle_tautological(200, 1.0), 0.02, 0),
    "klein-16-noisy-shifted": lambda: _shifted(add_noise(klein_normal(16, 16), 0.05, 0), 1e6),
    "polygon-100-gamma-2": lambda: circle_normal(100, 2.0),
}


@pytest.mark.parametrize("budget", [1, 7, 64, bundle.BLOCK_KEYS // 8])
@pytest.mark.parametrize("name", sorted(TILED_CLOUDS))
def test_flag_graph_is_exact_across_tiles_and_blocks(name, budget, monkeypatch):
    # tiles of one row up to many, pair blocks of one pair up to many: the
    # arrays and their dtypes are the brute-force listing's, to the bit
    cloud = TILED_CLOUDS[name]()
    assert len(cloud) > bundle.BLOCK_KEYS // 8 // len(cloud)
    monkeypatch.setattr(bundle, "BLOCK_KEYS", 8 * budget)
    lifebar_bound = _max_value(cloud)
    for v in (0.0, lifebar_bound / 2, lifebar_bound, 1.3, 1e200, 1.79e308):
        got, want = _flag_graph(cloud, v), _brute_force_edges(cloud, v)
        for a, b in zip(got, want):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make, max_value, bound_mb", [
    # 2,751 edges: an N x N screen with its flat index traces 146.2 MB
    (lambda: add_noise(circle_tautological(3000, 1.0), 0.02, 0), 0.01, 8.0),
    # 11,314 edges: one (pairs x k) gather of every screened row traces 2.36 MB
    (lambda: add_noise(klein_normal(16, 16), 0.05, 0), 1.3, 1.6),
    # 499,500 edges, every pair, 11.4 MB: copying them all although the screen
    # kept no pair past max_value traced 23.5 MB; the listing alone traces 15.4 MB
    (lambda: add_noise(circle_tautological(1000, 1.0), 0.02, 0), 1.3, 19.0),
], ids=["mobius-3000-noisy-at-0.01", "klein-16-noisy-at-1.3", "mobius-1000-noisy-at-1.3"])
def test_flag_graph_memory_follows_the_edges(make, max_value, bound_mb):
    cloud = make()
    _flag_graph(cloud, max_value)  # first-call allocations are not the listing's
    tracemalloc.start()
    try:
        _flag_graph(cloud, max_value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2 ** 20


def test_edge_blocks_at_antipodal_near_ties():
    # the 30 antipodal edges of circle_normal(60, 2.0) have values within a
    # few ulps of 1.0, the value of the closing edge; cut the list there
    cloud = circle_normal(60, 2.0)
    _, _, _, values = _flag_edges(cloud.distance_matrix(), _max_value(cloud))
    near = [v for v in values if abs(v - 1.0) <= 4 * math.ulp(1.0)]
    assert len(near) == 30 and len(set(near)) > 1
    for max_value in sorted(set(near)) + [_max_value(cloud)]:
        for first in (1, 7, 64):
            _assert_blocks_match(cloud, max_value, first)


def _midpoint_flips(cloud, u, i, j):
    mid, _ = _top_eigenvectors((cloud.mats[i] + cloud.mats[j]) / 2.0, "edge midpoint")
    return np.einsum("ij,ij->i", u[i], mid) * np.einsum("ij,ij->i", mid, u[j]) < 0.0


COVERAGE_CLOUDS = {**EDGE_CLOUDS, **STRONG_NON_PROJECTOR_CLOUDS, **SHIFT_ONE_CLOUDS}


@pytest.mark.parametrize("name", sorted(COVERAGE_CLOUDS))
def test_certified_flips_equal_midpoint_flips(name):
    # projector payloads, the mildly and strongly perturbed ones and the
    # ones at shift 1, far from their projectors: the certificate signs
    # every edge below the bound, torus-8's coarse grid included
    cloud = COVERAGE_CLOUDS[name]()
    u, gaps, _ = _point_lines(cloud)
    _, i, j, _ = _flag_edges(cloud.distance_matrix(), _max_value(cloud))
    c = np.einsum("ij,ij->i", u[i], u[j])
    certified = _chord_certified(cloud.mats, gaps, c, i, j)
    assert certified.size and certified.all()
    flips = _edge_flips(cloud.mats, u, gaps, i, j)
    assert np.array_equal(flips, _midpoint_flips(cloud, u, i, j))
    assert np.array_equal(flips, c < 0.0)


@pytest.mark.parametrize("name", sorted(CROSS_CHECK_CLOUDS))
def test_projector_certificate_covers_cross_check_clouds(name, monkeypatch):
    # projector payloads and the mildly perturbed ones alike: _edge_flips
    # signs every edge below the bound from the point eigensolve, with no
    # midpoint eigensolve
    cloud = CROSS_CHECK_CLOUDS[name]()
    u, gaps, _ = _point_lines(cloud)
    _, i, j, _ = _flag_edges(cloud.distance_matrix(), _max_value(cloud))
    assert i.size

    def no_midpoint(*args):
        raise AssertionError(f"{name}: a midpoint eigensolve")

    monkeypatch.setattr(bundle, "_top_eigenvectors", no_midpoint)
    flips = _edge_flips(cloud.mats, u, gaps, i, j)
    assert np.array_equal(flips, np.einsum("ij,ij->i", u[i], u[j]) < 0.0)


def _path_flip(A, B, u_a, u_b, steps=256):
    """Whether the top line of sym((1 - s) A + s B), followed in small steps
    from u_a at s = 0, arrives at s = 1 as -u_b."""
    w = u_a
    for s in np.linspace(0.0, 1.0, steps + 1)[1:]:
        M = (1.0 - s) * A + s * B
        v = np.linalg.eigh((M + M.T) / 2.0)[1][:, -1]
        w = v if v @ w > 0.0 else -v
    return bool(w @ u_b < 0.0)


def _spread_pair(rng, m, gap_a, gap_b, ratio):
    """Matrices A, B of eigen-gaps gap_a and gap_b in random bases, B shifted
    by a multiple of I (which keeps its line and gap) so that sqrt(2)
    |A - B|_F = ratio (gap_a + gap_b); None if no shift reaches it."""
    def draw(gap):
        Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
        return Q @ np.diag([gap, 0.0] + list(-rng.uniform(0.0, 1.0, size=m - 2))) @ Q.T

    A, B = draw(gap_a), draw(gap_b)
    D = A - B
    mean = np.trace(D) / m
    rest = ratio ** 2 * (gap_a + gap_b) ** 2 / 2.0 - np.sum((D - mean * np.eye(m)) ** 2)
    if rest < 0.0:
        return None
    return A, B + (mean + rng.choice([-1.0, 1.0]) * math.sqrt(rest / m)) * np.eye(m)


def test_property_chord_certificate_at_its_threshold():
    # pairs with unequal gaps and sqrt(2) |A_i - A_j|_F within 1% of
    # g_i + g_j, on both sides of the threshold: the certificate refuses
    # every pair at or past it, signs every pair clear of its margin, and
    # a signed pair's flip c < 0 is the flip followed along the segment
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sides = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(2, 4), st.floats(0.2, 1.0), st.floats(0.1, 0.9),
        st.one_of(st.just(1.0), st.floats(0.99, 1.01)), st.integers(0, 2**16),
    )
    def check(m, gap, share, ratio, seed):
        pair = _spread_pair(np.random.default_rng(seed), m, gap, share * gap, ratio)
        hypothesis.assume(pair is not None)
        mats = np.stack(pair)
        u, gaps = _top_eigenvectors(mats, "point")
        i, j = np.array([0]), np.array([1])
        c = np.array([u[0] @ u[1]])
        certified = bool(_chord_certified(mats, gaps, c, i, j)[0])
        if ratio >= 1.0:
            assert not certified
        elif ratio < 1.0 - 1e-5:  # clear of the relative margin CHORD_MARGIN
            assert certified
        if certified:
            assert (c[0] < 0.0) == _path_flip(mats[0], mats[1], u[0], u[1])
        sides.add(certified)

    check()
    assert sides == {False, True}


def _reflected(B, a, b):
    """H B H for the Householder reflection H that maps the unit vector a to b."""
    x = a - b
    H = np.eye(len(a)) - 2.0 * np.outer(x, x) / (x @ x)
    return H @ B @ H


def _assert_flip_agrees(mats):
    """_edge_flips on the edge 01, the midpoint flip and the flip followed
    along the segment agree; returns whether the chord certificate signed
    it."""
    u, gaps = _top_eigenvectors(mats, "point")
    i, j = np.array([0]), np.array([1])
    cloud = LiftedCloud(np.zeros((2, 1)), mats, 1.0)
    flip = bool(_edge_flips(mats, u, gaps, i, j)[0])
    assert flip == bool(_midpoint_flips(cloud, u, i, j)[0])
    assert flip == _path_flip(mats[0], mats[1], u[0], u[1])
    return bool(_chord_certified(mats, gaps, np.array([u[0] @ u[1]]), i, j)[0])


def test_property_projector_certificate_at_its_threshold():
    # near-projector pairs A_i = u_i u_i' + F_i whose c = u_i . u_j has c^2
    # within 1% of 2 max(d_i, d_j), d_i = |sym(A_i) - u_i u_i'|_F, of either
    # sign and below both points' bounds: the flip, the midpoint flip and
    # the flip followed along the segment agree
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(2, 4), st.floats(0.005, 0.45), st.floats(0.0, 1.0), st.floats(0.99, 1.01),
        st.sampled_from([-1.0, 1.0]), st.integers(0, 2**16),
    )
    def check(m, d, share, ratio, sign, seed):
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(2, m, m))
        F += F.transpose(0, 2, 1)
        F *= (np.array([d, share * d]) / np.linalg.norm(F, axis=(1, 2)))[:, None, None]
        e = np.eye(m)[0]
        A, B = np.outer(e, e) + F[0], np.outer(e, e) + F[1]
        u, _ = _top_eigenvectors(np.stack([A, B]), "point")
        R = np.stack([A, B]) - u[:, :, None] * u[:, None, :]
        dist = np.linalg.norm(R, axis=(1, 2))
        # turn B so that its line meets A's at the drawn c; the reflection
        # keeps its distance from its projector
        c = sign * math.sqrt(ratio * 2.0 * dist.max())
        w = rng.normal(size=m)
        w -= (w @ u[0]) * u[0]
        target = c * u[0] + math.sqrt(1.0 - c * c) * w / np.linalg.norm(w)
        mats = np.stack([A, _reflected(B, u[1], target)])
        _, gaps = _top_eigenvectors(mats, "point")
        hypothesis.assume(np.linalg.norm(mats[0] - mats[1]) < SQRT2 * min(gaps) * 0.999)
        _assert_flip_agrees(mats)

    check()


def test_certificates_refuse_a_pair_the_sign_rule_gets_wrong():
    # Below the bound no pair has a transport that differs from sign(c).
    # With E = sym(A_j - A_i), spread s = lambda_max(E) - lambda_min(E) <=
    # sqrt(2) |E|_F < g_i + g_j.  A top line w of M = A_i + t E orthogonal
    # to u_i would need t s >= t (w'Ew - u_i'Eu_i) >= g_i + g_M (Courant-
    # Fischer at A_i and at M) and g_M >= g_j - (1 - t) s (Weyl), so s >=
    # g_i + g_j.  So the line never turns orthogonal to u_i, and the
    # certificate guards the rounding of c, not the rule.  Past the bound
    # the rule can fail: on this m = 3 pair c < 0, yet the top line, whose
    # gap stays above 0.03 along the segment, arrives as +u_j.  The chord
    # certificate refuses it.
    mats = np.array([
        [[0.1, 0.1, -0.1], [0.1, -0.6, -0.3], [-0.1, -0.3, -0.4]],
        [[-0.4, -0.3, 0.1], [-0.3, -0.6, 0.1], [0.1, 0.1, 0.1]],
    ])
    u, gaps = _top_eigenvectors(mats, "point")
    i, j = np.array([0]), np.array([1])
    c = u[0] @ u[1]
    assert c < -0.1 and not _path_flip(mats[0], mats[1], u[0], u[1])
    spread = np.ptp(np.linalg.eigvalsh(mats[1] - mats[0]))
    assert spread > gaps.sum()
    assert not _chord_certified(mats, gaps, np.array([c]), i, j)[0]


def test_chord_certificate_refuses_c_at_the_rounding():
    # In exact arithmetic the chord test gives c^2 > CHORD_MARGIN / (1 +
    # CHORD_MARGIN) (see lifebar).  Points of gap 1e-8 on orthogonal lines
    # at eigenvalue 500 are far outside the scale the margin covers: the
    # eigensolve's gaps, off by about eps * 500, let about half of these
    # rotated pairs pass the chord test with |c| at the rounding, below
    # 3.2e-5.  The c^2 > GAP_TOLERANCE guard refuses them, and their
    # midpoint, on the medial axis, is refused in turn.
    i, j = np.array([0]), np.array([1])
    passed = 0
    for t in np.linspace(0.0, math.pi, 64, endpoint=False):
        Q = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        mats = np.stack([Q @ np.diag(d) @ Q.T
                         for d in ([500.0 + 1e-8, 500.0], [500.0, 500.0 + 1e-8])])
        u, gaps = _top_eigenvectors(mats, "point")
        c = np.array([u[0] @ u[1]])
        chord2 = np.sum((mats[0] - mats[1]) ** 2)
        if 2.0 * (1.0 + CHORD_MARGIN) * chord2 < (gaps[0] + gaps[1]) ** 2 and abs(c[0]) <= 3.2e-5:
            passed += 1
            assert not _chord_certified(mats, gaps, c, i, j)[0]
            with pytest.raises(MedialAxisError, match="edge midpoint 0"):
                _edge_flips(mats, u, gaps, i, j)
    assert passed


def test_property_exact_projectors_are_certified():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(2, 4), st.one_of(st.floats(-0.99, -0.01), st.floats(0.01, 0.99)),
        st.integers(0, 2**16),
    )
    def check(m, c, seed):
        Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(m, m)))[0]
        v = c * Q[:, 0] + math.sqrt(1.0 - c * c) * Q[:, 1]
        assert _assert_flip_agrees(np.stack([np.outer(Q[:, 0], Q[:, 0]), np.outer(v, v)]))

    check()

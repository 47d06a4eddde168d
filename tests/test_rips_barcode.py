"""rips_barcode against the reference column reduction over stored triangles."""

import numpy as np
import pytest

from swbundle.datasets import circle_normal, circle_tautological
from swbundle.simplicial import rips_barcode, rips_filtration
from swbundle.z2 import INF, barcode


def reference(D, max_value, max_dim):
    return barcode(rips_filtration(D, max_value, 2), max_dim)


def distances(pts):
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)


def assert_matches_reference(D, max_value):
    for max_dim in (0, 1):
        got = rips_barcode(D, max_value, max_dim).intervals
        assert got == reference(D, max_value, max_dim).intervals, (max_value, max_dim)


def random_cloud(rng, kind):
    n = int(rng.integers(2, 22))
    pts = rng.normal(size=(n, int(rng.integers(1, 4))))
    if kind == "rounded":  # many tied distances
        pts = np.round(pts)
    elif kind == "duplicates":  # zero-length edges
        pts[rng.integers(0, n, size=n // 3)] = pts[0]
    return pts


@pytest.mark.parametrize("kind", ["plain", "rounded", "duplicates"])
def test_random_clouds(rng, kind):
    for _ in range(30):
        D = distances(random_cloud(rng, kind))
        assert_matches_reference(D, float(rng.uniform(0.2, 2.5)))


def test_single_point():
    D = np.zeros((1, 1))
    assert_matches_reference(D, 1.0)
    assert rips_barcode(D, 1.0).intervals == ((0, 0.0, INF),)


def test_max_value_below_every_edge(rng):
    D = distances(rng.normal(size=(9, 2))) + 1.0
    np.fill_diagonal(D, 0.0)
    assert_matches_reference(D, 0.4)
    assert rips_barcode(D, 0.4).intervals == ((0, 0.0, INF),) * 9


@pytest.mark.parametrize("cloud", [circle_tautological(40, 1.0), circle_normal(60, 1.0)],
                         ids=["mobius-40", "circle-normal-60"])
def test_canonical_clouds(cloud):
    D = cloud.distance_matrix()
    assert_matches_reference(D, 1.3)
    assert rips_barcode(D, 1.3).in_dim(1)  # these clouds have degree-1 classes at 1.3


def test_keys_past_int32(rng):
    # a noisy circle with all 1,770 edges: its cycle dies late, and reducing
    # it reaches apparent pivots rank * E ** 2 + ... far beyond 2 ** 31
    theta = rng.uniform(0.0, 2 * np.pi, 60)
    pts = np.c_[np.cos(theta), np.sin(theta)] + 0.1 * rng.normal(size=(60, 2))
    D = distances(pts)
    assert_matches_reference(D, float(D.max()))


@pytest.mark.parametrize("max_dim", [-1, 2])
def test_rejects_degrees_outside_0_1(max_dim):
    with pytest.raises(ValueError):
        rips_barcode(np.zeros((2, 2)), 1.0, max_dim)


def test_rejects_bad_distance_matrix():
    with pytest.raises(ValueError):
        rips_barcode(np.array([[0.0, 1.0], [2.0, 0.0]]), 1.0)


def test_reference_rejects_negative_max_dim():
    with pytest.raises(ValueError):
        reference(np.zeros((2, 2)), 1.0, -1)


def test_property_matches_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    coords = st.integers(-4, 4).map(lambda k: k / 2.0)  # half-integers: ties and duplicates
    clouds = st.integers(1, 12).flatmap(
        lambda n: st.lists(st.tuples(coords, coords), min_size=n, max_size=n))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(clouds, st.floats(0.0, 3.0))
    def check(points, max_value):
        assert_matches_reference(distances(np.array(points)), max_value)

    check()

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary.  Tolerances are fixed here and nowhere else.
"""

import itertools
import math

import numpy as np
import pytest

from swbundle.bundle import hausdorff_distance, lifebar
from swbundle.datasets import (
    add_noise,
    circle_normal,
    circle_tautological,
    klein_normal,
    torus_normal,
)
from swbundle.projective import (
    medial_distance,
    project_grassmannian,
    sw_class_at,
    triangulate_rp,
)
from swbundle.simplicial import (
    SimplicialComplex,
    is_simplicial_map,
    pullback_cochain,
    rips_filtration,
)
from swbundle.z2 import (
    CochainZ2,
    barcode,
    betti_numbers,
    coboundary_matrix,
    h1_generator,
    is_coboundary,
    is_cocycle,
)

from conftest import random_complex, small_fixture_complexes

SQRT2 = math.sqrt(2.0)


def _report(n, text):
    print(f"criterion {n} PASS: {text}")


@pytest.fixture(scope="module")
def T2():
    return triangulate_rp(2)


@pytest.fixture(scope="module")
def T3():
    return triangulate_rp(3)


def _random_projector(rng, m):
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    return Q[:, :1] @ Q[:, :1].T


def test_criterion_1_projection_optimality():
    rng = np.random.default_rng(101)
    pool = {2: [_random_projector(rng, 2) for _ in range(1000)],
            3: [_random_projector(rng, 3) for _ in range(1000)]}
    checked = 0
    while checked < 200:
        m = 2 if checked % 2 == 0 else 3
        A = rng.normal(size=(m, m))
        As = (A + A.T) / 2.0
        vals = np.sort(np.linalg.eigvalsh(As))[::-1]
        if vals[0] - vals[1] <= 0.1:
            continue
        P = project_grassmannian(A, 1).P
        dist = np.linalg.norm(As - P)
        for Q in pool[m]:
            assert dist <= np.linalg.norm(As - Q) + 1e-8
        checked += 1
    _report(1, "nearest-projector output beat 1000 random projectors for 200 matrices")


def test_criterion_2_medial_distance_of_projectors():
    rng = np.random.default_rng(202)
    for i in range(50):
        m = 2 + i % 2
        P = _random_projector(rng, m)
        assert medial_distance(P, 1) == pytest.approx(SQRT2 / 2.0, abs=1e-9)
    _report(2, "50 random projectors sit at distance sqrt(2)/2 from the medial axis")


def test_criterion_3_projective_triangulations(T2, T3):
    assert len(T2.vertex_labels) == 3
    assert len(T2.L.simplices[1]) == 3
    assert betti_numbers(T2.L, 1)[1] == 1
    assert (len(T3.vertex_labels), len(T3.L.simplices[1]), len(T3.L.simplices[2])) == (7, 18, 12)
    assert T3.L.euler_characteristic() == 1
    assert betti_numbers(T3.L, 1)[1] == 1
    # enumeration oracle: cells of the subdivided sphere, halved by the quotient
    subsets = [frozenset(c) for k in range(1, 4) for c in itertools.combinations(range(4), k)]
    pairs = sum(1 for a in subsets for b in subsets if a < b)
    triples = sum(1 for a in subsets for b in subsets for c in subsets if a < b < c)
    assert (len(subsets), pairs, triples) == (14, 36, 24)
    _report(3, "m=2 gives (3, 3, b1=1); m=3 gives (7, 18, 12), chi=1, b1=1")


def test_criterion_4_mobius_lifebar(T2):
    cloud = circle_tautological(60, 1.0)
    lb = lifebar(cloud, resolution=0.02)
    assert not lb.empty
    assert lb.t_dagger <= 0.05
    assert sw_class_at(cloud, 0.3, T2).nonzero
    assert sw_class_at(cloud, 0.45, T2).nonzero
    _report(4, f"Mobius lifebar starts at {lb.t_dagger:.3f} <= 0.05; nonzero at 0.3 and 0.45")


def test_criterion_5_circle_normal_lifebars(T2):
    lb1 = lifebar(circle_normal(60, 1.0), resolution=0.02)
    assert lb1.empty
    cloud2 = circle_normal(60, 2.0)
    # grid oracle around the expected flip before trusting the bisection
    for t, expected in [(0.6, False), (0.65, False), (0.75, True), (0.9, True)]:
        assert sw_class_at(cloud2, t, T2).nonzero == expected
    lb2 = lifebar(cloud2, resolution=0.02)
    assert lb2.t_dagger == pytest.approx(1.0 / SQRT2, abs=0.08)
    _report(5, f"gamma=1 lifebar empty on [0, 0.5); gamma=2 starts at "
               f"{lb2.t_dagger:.3f} = 1/sqrt(2) +- 0.08")


def test_criterion_6_mobius_h1_death():
    cloud = circle_tautological(100, 1.0)
    F = rips_filtration(cloud.distance_matrix(), 1.3, 2)
    bars = barcode(F, 1).in_dim(1)
    b, d = max(bars, key=lambda bd: bd[1] - bd[0])
    lo, hi = math.sqrt(1.5) / SQRT2, math.sqrt(1.5)
    assert lo <= d <= hi
    _report(6, f"longest H1 bar of the 100-point Mobius circle dies at {d:.4f} "
               f"in [{lo:.3f}, {hi:.3f}]")


def test_criterion_7_stability_under_jitter():
    clean = circle_tautological(60, 1.0)
    resolution = 0.02
    lb_clean = lifebar(clean, resolution=resolution)
    worst = 0.0
    for seed in range(10):
        noisy = add_noise(clean, 0.03, seed)
        eps = hausdorff_distance(clean, noisy)
        lb_noisy = lifebar(noisy, resolution=resolution)
        t_noisy = lb_noisy.t_dagger if not lb_noisy.empty else lb_noisy.t_max
        shift = abs(t_noisy - lb_clean.t_dagger)
        assert shift <= eps  # the paper's bound; resolution steers nothing
        worst = max(worst, shift / eps)
    _report(7, f"10 jitters at sigma=0.03: max lifebar shift {worst:.3f} times the "
               f"Hausdorff distance")


def test_criterion_8_orientability_discrimination():
    lb_torus = lifebar(torus_normal(12, 12, 1.0), resolution=0.02)
    assert lb_torus.empty
    lb_klein = lifebar(klein_normal(16, 16, 1.0), resolution=0.02)
    assert not lb_klein.empty
    _report(8, f"torus lifebar empty; Klein lifebar nonzero from {lb_klein.t_dagger:.3f}")


def test_criterion_9_property_suites(T2):
    rng = np.random.default_rng(909)
    # delta^1 after delta^0 vanishes
    for _ in range(20):
        K = random_complex(rng)
        assert not np.any((coboundary_matrix(K, 1) @ coboundary_matrix(K, 0)).data)
    # pullback commutes with the coboundary on cocycles
    six = SimplicialComplex([(i, (i + 1) % 6) for i in range(6)])
    three = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    f = {i: i % 3 for i in range(6)}
    assert is_simplicial_map(f, six, three)
    w = h1_generator(three)
    assert is_cocycle(six, pullback_cochain(f, six, three, w))
    # weak-approximation tie-break independence
    for cloud in (circle_tautological(40, 1.0), circle_normal(40, 2.0)):
        for t in (0.25, 0.45):
            assert (
                sw_class_at(cloud, t, T2, _pick="min").nonzero
                == sw_class_at(cloud, t, T2, _pick="max").nonzero
            )
    # face-map antipodal invariance
    for m in (2, 3):
        T = triangulate_rp(m)
        for _ in range(100):
            v = rng.normal(size=m)
            assert T.face_simplices(v) == T.face_simplices(-v)
    # Rips monotonicity
    for _ in range(10):
        pts = rng.normal(size=(8, 3))
        D = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        F = rips_filtration(D, 1.5, 2)
        for s, v in F.values.items():
            for drop in range(len(s)) if len(s) > 1 else ():
                assert F.values[s[:drop] + s[drop + 1:]] <= v + 1e-12
    _report(9, "coboundary composition, pullback, tie-break, antipodal, and "
               "monotonicity properties all held under seeded randomization")


def test_criterion_10_gf2_oracle_equivalence():
    checked = 0
    for K in small_fixture_complexes():
        edges = K.sorted_simplices(1)
        assert len(edges) <= 12
        verts = [v[0] for v in K.simplices[0]]
        tris = K.simplices.get(2, ())
        cocycles, coboundaries = [], set()
        for bits in itertools.product((0, 1), repeat=len(edges)):
            sup = frozenset(e for e, b in zip(edges, bits) if b)
            if all(
                sum((t[:i] + t[i + 1:]) in sup for i in range(3)) % 2 == 0
                for t in tris
            ):
                cocycles.append(sup)
        for assign in itertools.product((0, 1), repeat=len(verts)):
            val = dict(zip(verts, assign))
            coboundaries.add(
                frozenset(e for e in edges if (val[e[0]] + val[e[1]]) % 2)
            )
        for sup in cocycles:
            assert is_coboundary(K, CochainZ2(1, sup)) == (sup in coboundaries)
            checked += 1
        g = h1_generator(K)
        if any(sup not in coboundaries for sup in cocycles):
            assert g is not None and g.support not in coboundaries
        else:
            assert g is None
    _report(10, f"coboundary decisions matched exhaustive enumeration on "
                f"{checked} cocycles across {len(small_fixture_complexes())} fixtures")

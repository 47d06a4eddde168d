import math

import numpy as np
import pytest

from swbundle.simplicial import (
    FilteredComplex,
    SimplicialComplex,
    barycentric_subdivision,
    clique_complex,
    is_simplicial_map,
    pullback_cochain,
    rips_filtration,
)
from swbundle.z2 import (
    CochainZ2,
    barcode,
    betti_numbers,
    is_coboundary,
    is_cocycle,
)

from conftest import random_complex


class TestComplexBasics:
    def test_closure(self):
        K = SimplicialComplex([(2, 0, 1)])
        assert (0, 1) in K and (2,) in K and (0, 1, 2) in K

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            SimplicialComplex([(0, 0)])

    def test_payload_needs_contiguous_ids(self):
        with pytest.raises(ValueError):
            SimplicialComplex([(3, 5)], payloads=np.zeros((2, 1)))

    def test_euler_characteristic(self):
        assert SimplicialComplex([(0, 1, 2)]).euler_characteristic() == 1


class TestRips:
    def test_half_distance_convention(self):
        D = np.array([[0.0, 2.0], [2.0, 0.0]])
        F = rips_filtration(D, 10.0, 1)
        assert F.values[(0, 1)] == pytest.approx(1.0)

    def test_equilateral_triangle(self):
        pts = 2.0 * np.array([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
        D = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        F = rips_filtration(D, 10.0, 2)
        assert F.values[(0, 1, 2)] == pytest.approx(1.0)

    def test_square_h1_bar(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        D = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        bc = barcode(rips_filtration(D, 10.0, 2), 1)
        assert bc.in_dim(1) == [(pytest.approx(1.0), pytest.approx(math.sqrt(2)))]

    def test_max_value_prunes(self):
        D = np.array([[0.0, 2.0], [2.0, 0.0]])
        F = rips_filtration(D, 0.5, 1)
        assert 1 not in F.complex.simplices

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rips_filtration(np.array([[0.0, 1.0], [2.0, 0.0]]), 1.0, 1)
        with pytest.raises(ValueError):
            rips_filtration(np.array([[0.0, -1.0], [-1.0, 0.0]]), 1.0, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rips_filtration(np.array([[0.0, np.nan], [np.nan, 0.0]]), 1.0, 1)

    def test_monotone_invariant(self, rng):
        for _ in range(10):
            pts = rng.normal(size=(9, 3))
            D = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            F = rips_filtration(D, float(rng.uniform(0.3, 2.0)), 2)
            # FilteredComplex validates on construction; re-check explicitly
            for s, v in F.values.items():
                for drop in range(len(s)) if len(s) > 1 else ():
                    assert F.values[s[:drop] + s[drop + 1:]] <= v + 1e-12

    def test_flag_property(self, rng):
        pts = rng.normal(size=(10, 2))
        D = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        for t in (0.3, 0.6, 0.9):
            sub = rips_filtration(D, t, 2).complex
            flag = clique_complex(sub.simplices.get(1, ()), len(sub.vertices), 2)
            assert flag.simplices == sub.simplices


class TestClique:
    def test_triangle_graph(self):
        K = clique_complex([(0, 1), (1, 2), (0, 2)], 3, 2)
        assert K.simplices[2] == ((0, 1, 2),)

    def test_truncation(self):
        K = clique_complex([(0, 1), (1, 2), (0, 2)], 3, 1)
        assert 2 not in K.simplices

    def test_k4(self):
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        K = clique_complex(edges, 4, 2)
        assert len(K.simplices[2]) == 4
        assert 3 not in K.simplices
        assert len(clique_complex(edges, 4, 3).simplices[3]) == 1


class TestSubdivision:
    def test_single_edge(self):
        S = barycentric_subdivision(SimplicialComplex([(0, 1)]))
        assert len(S.simplices[0]) == 3 and len(S.simplices[1]) == 2

    def test_filled_triangle(self):
        S = barycentric_subdivision(SimplicialComplex([(0, 1, 2)]))
        # (p+1)! top simplices for p = 2
        assert len(S.simplices[0]) == 7 and len(S.simplices[2]) == 6

    def test_boundary_of_triangle(self):
        S = barycentric_subdivision(SimplicialComplex([(0, 1), (1, 2), (0, 2)]))
        assert len(S.simplices[0]) == 6 and len(S.simplices[1]) == 6

    def test_names_are_parent_simplices(self):
        S = barycentric_subdivision(SimplicialComplex([(0, 1)]))
        assert S.vertex_names == [(0,), (1,), (0, 1)]

    def test_preserves_euler_and_betti(self, rng):
        for _ in range(10):
            K = random_complex(rng, n_vertices=6)
            if K.n_simplices() > 200:
                continue
            S = barycentric_subdivision(K)
            assert S.euler_characteristic() == K.euler_characteristic()
            assert betti_numbers(S, 2) == betti_numbers(K, 2)

    def test_payload_barycenters(self):
        pay = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        K = SimplicialComplex([(0, 1, 2)], payloads=pay)
        S = barycentric_subdivision(K)
        i = S.vertex_names.index((0, 1, 2))
        assert np.allclose(S.payloads[i], pay.mean(axis=0))
        j = S.vertex_names.index((0, 1))
        assert np.allclose(S.payloads[j], [0.5, 0.0])

    def test_payload_barycenters_random(self, rng):
        # ids by position: each new simplex is an ascending chain of names,
        # and each payload is exactly the mean over its simplex
        for _ in range(5):
            K = random_complex(rng, n_vertices=8, p_edge=0.6)
            simplices = [s for ss in K.simplices.values() for s in ss]
            K = SimplicialComplex(simplices, payloads=rng.normal(size=(8, 3)))
            assert K.dim == 2
            S = barycentric_subdivision(K)
            for i, name in enumerate(S.vertex_names):
                assert np.array_equal(S.payloads[i], K.payloads[list(name)].mean(axis=0))
            for simplices in S.simplices.values():
                for s in simplices:
                    assert list(s) == sorted(set(s))
                    chain = [set(S.vertex_names[v]) for v in s]
                    assert all(a < b for a, b in zip(chain, chain[1:]))

    def test_empty_complex_with_payloads(self):
        S = barycentric_subdivision(SimplicialComplex([], payloads=np.zeros((0, 3))))
        assert S.n_simplices() == 0 and S.payloads.shape == (0, 3)

    def test_rejects_high_dimension(self):
        with pytest.raises(ValueError):
            barycentric_subdivision(SimplicialComplex([(0, 1, 2, 3)]))


class TestSimplicialMaps:
    def test_identity(self):
        K = SimplicialComplex([(0, 1, 2)])
        assert is_simplicial_map({v: v for v in K.vertices}, K, K)

    def test_constant(self):
        K = SimplicialComplex([(0, 1, 2)])
        L = SimplicialComplex([(0, 1)])
        assert is_simplicial_map({v: 0 for v in K.vertices}, K, L)

    def test_non_adjacent_image(self):
        K = SimplicialComplex([(0, 1)])
        L = SimplicialComplex([(0,), (1,)])
        assert not is_simplicial_map({0: 0, 1: 1}, K, L)

    def test_requires_total_map(self):
        K = SimplicialComplex([(0, 1)])
        with pytest.raises(ValueError):
            is_simplicial_map({0: 0}, K, K)


def pullback2(f, L_w2_support, tri):
    """Oracle helper: pullback of a 2-cochain on a triangle image."""
    img = tuple(sorted(set(f[v] for v in tri)))
    return 1 if len(img) == 3 and img in L_w2_support else 0


class TestPullback:
    def test_identity_pullback(self):
        K = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        w = CochainZ2(1, {(0, 1)})
        assert pullback_cochain({v: v for v in K.vertices}, K, K, w) == w

    def test_constant_pullback_is_zero(self):
        K = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        L = SimplicialComplex([(0, 1)])
        w = CochainZ2(1, {(0, 1)})
        assert pullback_cochain({v: 0 for v in K.vertices}, K, L, w).is_zero

    def test_double_cover_kills_class(self):
        six = SimplicialComplex([(i, (i + 1) % 6) for i in range(6)])
        three = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        f = {i: i % 3 for i in range(6)}
        w = CochainZ2(1, {(0, 1)})
        pb = pullback_cochain(f, six, three, w)
        assert is_cocycle(six, pb)
        assert is_coboundary(six, pb)  # degree-2 cover kills the Z/2 class

    def test_rejects_non_simplicial(self):
        K = SimplicialComplex([(0, 1)])
        L = SimplicialComplex([(0,), (1,)])
        with pytest.raises(ValueError):
            pullback_cochain({0: 0, 1: 1}, K, L, CochainZ2(1))

    def test_commutes_with_coboundary(self, rng):
        # delta(f* w) == f*(delta w) for arbitrary 1-cochains w
        K = random_complex(rng, n_vertices=6, p_edge=0.6)
        L = random_complex(rng, n_vertices=5, p_edge=0.8)
        l_verts = list(L.vertices)
        for _ in range(20):
            f = {v: l_verts[rng.integers(len(l_verts))] for v in K.vertices}
            if not is_simplicial_map(f, K, L):
                continue
            edges_l = list(L.simplices.get(1, ()))
            sup = frozenset(
                e for e in edges_l if rng.random() < 0.4
            )
            w = CochainZ2(1, sup)
            pb = pullback_cochain(f, K, L, w)
            # delta w support among L triangles
            dw = {
                t
                for t in L.simplices.get(2, ())
                if sum((t[:i] + t[i + 1:]) in sup for i in range(3)) % 2
            }
            for tri in K.simplices.get(2, ()):
                lhs = sum((tri[:i] + tri[i + 1:]) in pb.support for i in range(3)) % 2
                assert lhs == pullback2(f, dw, tri)

    def test_pullback_of_cocycle_is_cocycle(self, rng):
        K = barycentric_subdivision(SimplicialComplex([(0, 1, 2), (1, 2, 3)]))
        L = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        f = {v: int(rng.integers(3)) for v in K.vertices}
        # constant-ish maps into a hollow triangle are simplicial iff images
        # of edges are edges or vertices; rebuild until simplicial
        while not is_simplicial_map(f, K, L):
            f = {v: int(rng.integers(3)) for v in K.vertices}
        w = CochainZ2(1, {(0, 1)})
        assert is_cocycle(K, pullback_cochain(f, K, L, w))


class TestFilteredComplexChecks:
    def test_negative_edge_value_within_the_monotone_slack(self):
        # the face check allows 1e-12 of slack, so only the sign test refuses this
        K = SimplicialComplex([(0, 1)])
        with pytest.raises(ValueError, match="negative filtration value at \\(0, 1\\)"):
            FilteredComplex(K, {(0,): 0.0, (1,): 0.0, (0, 1): -1e-13})

    def test_negative_vertex_value(self):
        with pytest.raises(ValueError, match="negative filtration value at \\(1,\\)"):
            FilteredComplex(SimplicialComplex([(0, 1)]), {(0,): 0.0, (1,): -1.0, (0, 1): 0.0})

    def test_non_monotone_triangle(self):
        K = SimplicialComplex([(0, 1, 2)])
        vals = {s: 1.0 for ss in K.simplices.values() for s in ss}
        vals[(0, 1, 2)] = 0.5
        with pytest.raises(ValueError, match="non-monotone filtration at simplex \\(0, 1, 2\\)"):
            FilteredComplex(K, vals)
        FilteredComplex(K, {**vals, (0, 1, 2): 1.0 - 1e-13})  # within the slack

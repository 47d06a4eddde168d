import itertools
import math

import numpy as np
import pytest

from swbundle.simplicial import FilteredComplex, SimplicialComplex, rips_filtration
from swbundle.z2 import (
    INF,
    Barcode,
    BitMatrix,
    CochainZ2,
    barcode,
    betti_numbers,
    coboundary_matrix,
    gf2_rank,
    gf2_solve,
    h1_generator,
    is_coboundary,
    is_cocycle,
)

from conftest import random_complex, small_fixture_complexes


def brute_rank(M: np.ndarray) -> int:
    """Oracle: rank = log2 of the number of distinct row-span vectors."""
    rows = [tuple(r % 2) for r in np.asarray(M, dtype=int)]
    span = {tuple([0] * len(rows[0])) if rows else ()}
    for r in rows:
        span |= {tuple((np.array(v) + np.array(r)) % 2) for v in span}
    return int(math.log2(len(span)))


class TestGF2:
    def test_rank_identity(self):
        assert gf2_rank(BitMatrix(np.eye(3))) == 3

    def test_rank_zero(self):
        assert gf2_rank(BitMatrix.zeros(3, 4)) == 0

    def test_rank_repeated_rows(self):
        M = [[1, 1], [1, 1]]
        assert gf2_rank(BitMatrix(M)) == 1
        assert brute_rank(np.array(M)) == 1

    def test_rank_matches_bruteforce(self, rng):
        for _ in range(30):
            M = rng.integers(0, 2, size=(rng.integers(1, 6), rng.integers(1, 6)))
            assert gf2_rank(BitMatrix(M)) == brute_rank(M)

    def test_solve_identity(self):
        x = gf2_solve(BitMatrix(np.eye(2)), [1, 0])
        assert list(x) == [1, 0]

    def test_solve_inconsistent(self):
        assert gf2_solve(BitMatrix.zeros(1, 2), [1]) is None

    def test_solve_underdetermined(self):
        M = BitMatrix([[1, 1]])
        x = gf2_solve(M, [1])
        assert (M.data @ x) % 2 == 1

    def test_solve_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gf2_solve(BitMatrix(np.eye(2)), [1, 0, 1])

    def test_solve_matches_enumeration(self, rng):
        for _ in range(40):
            m, n = rng.integers(1, 5), rng.integers(1, 5)
            M = rng.integers(0, 2, size=(m, n))
            b = rng.integers(0, 2, size=m)
            x = gf2_solve(BitMatrix(M), b)
            solvable = any(
                np.array_equal((M @ np.array(cand)) % 2, b)
                for cand in itertools.product((0, 1), repeat=n)
            )
            if x is None:
                assert not solvable
            else:
                assert np.array_equal((M @ x) % 2, b)


class TestCoboundary:
    def test_single_edge_matrix(self):
        K = SimplicialComplex([(0, 1)])
        assert coboundary_matrix(K, 0).data.tolist() == [[1, 1]]

    def test_isolated_vertices(self):
        K = SimplicialComplex([(0,), (1,)])
        M = coboundary_matrix(K, 0)
        assert M.rows == 0 and M.cols == 2

    def test_filled_triangle_delta1(self):
        K = SimplicialComplex([(0, 1, 2)])
        assert coboundary_matrix(K, 1).data.tolist() == [[1, 1, 1]]

    def test_delta_squared_zero(self, rng):
        for _ in range(15):
            K = random_complex(rng)
            d0 = coboundary_matrix(K, 0)
            d1 = coboundary_matrix(K, 1)
            assert not np.any((d1 @ d0).data)

    def test_cocycle_checks(self):
        tri = SimplicialComplex([(0, 1, 2)])
        assert is_cocycle(tri, CochainZ2(1))
        assert not is_cocycle(tri, CochainZ2(1, {(0, 1)}))
        assert is_cocycle(tri, CochainZ2(1, {(0, 1), (1, 2)}))

    def test_cocycle_rejects_unhosted_support(self):
        tri = SimplicialComplex([(0, 1, 2)])
        with pytest.raises(ValueError):
            is_cocycle(tri, CochainZ2(1, {(0, 5)}))


def enumerate_cocycle_facts(K):
    """Oracle: classify all 1-cochains by brute force (<= 12 edges)."""
    edges = K.sorted_simplices(1)
    verts = [v[0] for v in K.simplices[0]]
    tris = K.simplices.get(2, ())
    cocycles, coboundaries = [], set()
    for bits in itertools.product((0, 1), repeat=len(edges)):
        sup = frozenset(e for e, b in zip(edges, bits) if b)
        if all(
            sum((t[:i] + t[i + 1:]) in sup for i in range(3)) % 2 == 0 for t in tris
        ):
            cocycles.append(sup)
    for assign in itertools.product((0, 1), repeat=len(verts)):
        val = dict(zip(verts, assign))
        coboundaries.add(frozenset(e for e in edges if (val[e[0]] + val[e[1]]) % 2))
    return cocycles, coboundaries


class TestCoboundaryDecision:
    def test_zero_cocycle(self):
        K = SimplicialComplex([(0, 1, 2)])
        assert is_coboundary(K, CochainZ2(1))

    def test_hollow_cycle_edge_is_not_coboundary(self):
        K = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        assert not is_coboundary(K, CochainZ2(1, {(0, 1)}))

    def test_tree_cocycles_are_coboundaries(self):
        K = SimplicialComplex([(0, 1), (1, 2), (2, 3)])
        for sup in [set(), {(0, 1)}, {(0, 1), (2, 3)}, {(1, 2)}]:
            assert is_coboundary(K, CochainZ2(1, sup))

    def test_requires_cocycle(self):
        K = SimplicialComplex([(0, 1, 2)])
        with pytest.raises(ValueError):
            is_coboundary(K, CochainZ2(1, {(0, 1)}))

    def test_matches_exhaustive_enumeration(self):
        for K in small_fixture_complexes():
            assert len(K.simplices.get(1, ())) <= 12
            cocycles, coboundaries = enumerate_cocycle_facts(K)
            for sup in cocycles:
                assert is_coboundary(K, CochainZ2(1, sup)) == (sup in coboundaries)

    def test_class_representative_independence(self, rng):
        # cochains differing by an explicit delta^0 x get the same verdict
        for K in small_fixture_complexes()[:6]:
            cocycles, _ = enumerate_cocycle_facts(K)
            edges = K.sorted_simplices(1)
            verts = [v[0] for v in K.simplices[0]]
            for sup in cocycles[: 2 ** min(len(verts), 4)]:
                assign = {v: int(rng.integers(0, 2)) for v in verts}
                shift = frozenset(e for e in edges if (assign[e[0]] + assign[e[1]]) % 2)
                assert is_coboundary(K, CochainZ2(1, sup)) == is_coboundary(
                    K, CochainZ2(1, sup ^ shift)
                )


class TestH1Generator:
    def test_tree_has_none(self):
        assert h1_generator(SimplicialComplex([(0, 1), (1, 2)])) is None

    def test_hollow_cycle(self):
        K = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        g = h1_generator(K)
        assert len(g.support) % 2 == 1
        assert is_cocycle(K, g) and not is_coboundary(K, g)

    def test_deterministic(self):
        K = SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert h1_generator(K) == h1_generator(K)

    def test_agrees_with_enumeration(self):
        for K in small_fixture_complexes():
            cocycles, coboundaries = enumerate_cocycle_facts(K)
            has_h1 = any(sup not in coboundaries for sup in cocycles)
            g = h1_generator(K)
            if has_h1:
                assert g is not None
                assert g.support in set(cocycles) and g.support not in coboundaries
            else:
                assert g is None


class TestBarcode:
    def test_single_point(self):
        F = FilteredComplex(SimplicialComplex([(0,)]), {(0,): 0.0})
        assert barcode(F, 1).intervals == ((0, 0.0, INF),)

    def test_two_points_one_edge(self):
        F = FilteredComplex(
            SimplicialComplex([(0, 1)]), {(0,): 0.0, (1,): 0.0, (0, 1): 1.0}
        )
        assert barcode(F, 1).intervals == ((0, 0.0, 1.0), (0, 0.0, INF))

    def test_square_cycle(self):
        # oracle: Betti_1 of the sublevel complexes flips 0 -> 1 -> 0 at 1, sqrt(2)
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        D = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        F = rips_filtration(D, 10.0, 2)
        for t, expected in [(0.9, 0), (1.2, 1), (1.5, 0)]:
            assert betti_numbers(rips_filtration(D, t, 2).complex, 1)[1] == expected
        assert barcode(F, 1).in_dim(1) == [(1.0, math.sqrt(2.0))]

    def test_infinite_h0_equals_components(self, rng):
        for _ in range(10):
            K = random_complex(rng, n_vertices=8, p_edge=0.25)
            vals = {s: float(len(s) - 1) for ss in K.simplices.values() for s in ss}
            F = FilteredComplex(K, vals)
            bc = barcode(F, 1)
            n_inf = sum(1 for b, d in bc.in_dim(0) if d == INF)
            assert n_inf == betti_numbers(K, 0)[0]

    def test_zero_values_reproduce_betti(self, rng):
        for _ in range(8):
            K = random_complex(rng, n_vertices=7)
            vals = {s: 0.0 for ss in K.simplices.values() for s in ss}
            bc = barcode(FilteredComplex(K, vals), 2)
            betti = betti_numbers(K, 2)
            for d in range(3):
                assert sum(1 for b, e in bc.in_dim(d) if e == INF) == betti[d]

    def test_rejects_non_monotone(self):
        K = SimplicialComplex([(0, 1)])
        F = FilteredComplex(K, {(0,): 0.0, (1,): 0.0, (0, 1): 1.0})
        F.values[(0, 1)] = -1.0  # corrupt after construction
        with pytest.raises(ValueError):
            barcode(F, 1)

    def test_json_roundtrip(self):
        bc = Barcode(((0, 0.0, INF), (1, 0.5, 1.25)))
        assert Barcode.from_json(bc.to_json()) == bc
        assert '"death": null' in bc.to_json()

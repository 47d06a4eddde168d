import itertools

import numpy as np
import pytest

from swbundle.projective import ProjectiveTriangulation, _centered_unit, triangulate_rp
from swbundle.z2 import betti_numbers, h1_generator, is_coboundary, is_cocycle


@pytest.fixture(scope="module")
def T2():
    return triangulate_rp(2)


@pytest.fixture(scope="module")
def T3():
    return triangulate_rp(3)


class TestConstruction:
    def test_m2_is_a_circle(self, T2):
        assert len(T2.vertex_labels) == 3
        assert len(T2.L.simplices[1]) == 3
        assert T2.L.euler_characteristic() == 0
        assert betti_numbers(T2.L, 1) == [1, 1]

    def test_m3_counts(self, T3):
        assert len(T3.vertex_labels) == 7
        assert len(T3.L.simplices[1]) == 18
        assert len(T3.L.simplices[2]) == 12
        assert T3.L.euler_characteristic() == 1
        # b2 = 1 over Z/2 for the projective plane
        assert betti_numbers(T3.L, 2) == [1, 1, 1]

    def test_m3_enumeration_oracle(self):
        # the subdivided sphere has 14 / 36 / 24 cells; the quotient halves them
        subsets = [
            frozenset(c)
            for size in range(1, 4)
            for c in itertools.combinations(range(4), size)
        ]
        assert len(subsets) == 14
        pairs = sum(1 for a in subsets for b in subsets if a < b)
        chains = sum(
            1 for a in subsets for b in subsets for c in subsets if a < b < c
        )
        assert (pairs, chains) == (36, 24)
        T = triangulate_rp(3)
        assert (len(T.vertex_labels), len(T.L.simplices[1]), len(T.L.simplices[2])) == (
            14 // 2,
            36 // 2,
            24 // 2,
        )

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_vertex_count(self, m):
        assert len(triangulate_rp(m).vertex_labels) == 2**m - 1

    def test_m_out_of_range(self):
        for m in (1, 7):
            with pytest.raises(ValueError):
                triangulate_rp(m)

    def test_involution_is_free(self):
        # no proper subset equals its complement, so the quotient is simplicial
        for m in (2, 3, 4):
            full = frozenset(range(m + 1))
            for size in range(1, m + 1):
                for c in itertools.combinations(range(m + 1), size):
                    assert frozenset(c) != full - frozenset(c)

    def test_labels_contain_zero(self, T3):
        assert all(0 in lab for lab in T3.vertex_labels)

    def test_w1_generates(self):
        # the closed-form w1 is cohomologous to the dense GF(2) generator
        for m in (2, 3, 4, 5, 6):
            T = triangulate_rp(m)
            assert is_cocycle(T.L, T.w1)
            assert not is_coboundary(T.L, T.w1)
            assert is_coboundary(T.L, T.w1 + h1_generator(T.L))


class TestEmbeddings:
    def test_unit_and_centered(self, T3):
        E = T3.vertex_embeddings
        assert np.allclose(np.linalg.norm(E, axis=1), 1.0)
        assert np.allclose(E.sum(axis=1), 0.0, atol=1e-12)

    def test_matches_indicator_construction(self, T3):
        for i, lab in enumerate(T3.vertex_labels):
            e = np.zeros(4)
            e[list(lab)] = 1.0
            e -= e.mean()
            e /= np.linalg.norm(e)
            assert np.allclose(T3.vertex_embeddings[i], e) or np.allclose(
                T3.vertex_embeddings[i], -e
            )

    def test_complement_is_antipodal(self):
        for m in (2, 3):
            full = frozenset(range(m + 1))
            for size in range(1, m + 1):
                for c in itertools.combinations(range(m + 1), size):
                    a = _centered_unit(frozenset(c), m)
                    b = _centered_unit(full - frozenset(c), m)
                    assert np.allclose(a, -b)


def cone_oracle(m: int, X: np.ndarray) -> list:
    """Independent face map: for each query, intersect the vertex sets of all
    maximal chains (one per label permutation) whose cone holds the query,
    found by a least-squares solve against the centered-indicator vertices."""
    hits = [[] for _ in range(X.shape[0])]
    for perm in itertools.permutations(range(m + 1)):
        chain = [frozenset(perm[:k]) for k in range(1, m + 1)]
        W = np.column_stack([_centered_unit(s, m) for s in chain])
        lam, *_ = np.linalg.lstsq(W, X.T, rcond=None)
        assert np.allclose(W @ lam, X.T, atol=1e-9)
        for n in np.nonzero(lam.min(axis=0) >= -1e-9)[0]:
            hits[n].append(frozenset(chain))
    out = []
    for faces in hits:
        assert faces, "no maximal face holds the query"
        out.append(frozenset.intersection(*faces))
    return out


def _oracle_directions(T: ProjectiveTriangulation, rng) -> np.ndarray:
    """Random directions plus vertex embeddings and the ± midpoints of
    embedding pairs, in the hyperplane coordinates of T."""
    E = T.vertex_embeddings @ T._basis
    pairs = list(itertools.combinations(range(len(E)), 2))
    return np.vstack(
        [
            rng.normal(size=(200, T.m)),
            E,
            [E[i] + E[j] for i, j in pairs],
            [E[i] - E[j] for i, j in pairs],
            np.eye(T.m),
        ]
    )


class TestSphereFaceMap:
    def test_vertex_hit(self, T2):
        v = T2.vertex_embeddings[0] @ T2._basis
        assert 0 in T2.face_simplices(v)[0]

    def test_edge_midpoint(self, T2):
        a = _centered_unit(frozenset({0}), 2)
        b = _centered_unit(frozenset({0, 1}), 2)
        mid = a + b
        mid /= np.linalg.norm(mid)
        assert T2.face_simplices(mid @ T2._basis) == [(0, 1)]

    def test_result_is_a_chain(self, T3, rng):
        for _ in range(100):
            chain = T3.face_simplices(rng.normal(size=3))[0]
            for a, b in zip(chain, chain[1:]):
                assert a < b

    def test_matches_bruteforce(self, rng):
        for m in (2, 3, 4):
            T = triangulate_rp(m)
            V = _oracle_directions(T, rng)
            X = (V / np.linalg.norm(V, axis=1)[:, None]) @ T._basis.T
            expected = cone_oracle(m, X)
            full = frozenset(range(m + 1))
            quotient = [
                tuple(sorted(T.vertex_labels.index(s if 0 in s else full - s) for s in face))
                for face in expected
            ]
            assert T.face_simplices(V) == quotient


class TestRPFaceMap:
    def test_antipodal_invariance(self, rng):
        for m in (2, 3):
            T = triangulate_rp(m)
            for _ in range(150):
                v = rng.normal(size=m)
                assert T.face_simplices(v) == T.face_simplices(-v)

    def test_scale_invariance(self, T3, rng):
        for _ in range(50):
            v = rng.normal(size=3)
            assert T3.face_simplices(v) == T3.face_simplices(3.7 * v)

    def test_vertex_embedding_maps_to_vertex(self, T3):
        for i in range(len(T3.vertex_labels)):
            v = T3.vertex_embeddings[i] @ T3._basis
            assert i in T3.face_simplices(v)[0]

    def test_results_live_in_l(self, T3, rng):
        # 64 spread directions: results are simplices of L and agree with the
        # quotient of the sphere face that the cone oracle finds
        for _ in range(64):
            v = rng.normal(size=3)
            simplex = T3.face_simplices(v)[0]
            assert simplex in T3.L
            x = (T3._basis @ (v / np.linalg.norm(v)))
            chain = cone_oracle(3, (x / np.linalg.norm(x))[None])[0]
            full = frozenset(range(4))
            quotient = sorted(
                {T3.vertex_labels.index(s if 0 in s else full - s) for s in chain}
            )
            assert tuple(quotient) == simplex

    def test_rejects_zero(self, T2):
        with pytest.raises(ValueError):
            T2.face_simplices(np.zeros(2))
        with pytest.raises(ValueError, match="non-finite"):
            T2.face_simplices(np.array([np.nan, 1.0]))

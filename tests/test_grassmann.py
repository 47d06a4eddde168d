import math

import numpy as np
import pytest

from swbundle.grassmann import (
    GrassmannPoint,
    MatrixPoint,
    MedialAxisError,
    eigen_gaps,
    eigh_descending,
    gamma_dist,
    jacobi_eigh_batch,
    line_projector,
    line_projectors,
    medial_distance,
    project_grassmannian,
    tmax,
)

SQRT2 = math.sqrt(2.0)


def random_projector(rng, m, d=1):
    B = rng.normal(size=(m, m))
    Q, _ = np.linalg.qr(B)
    return Q[:, :d] @ Q[:, :d].T


class TestGammaDist:
    def test_euclidean_part(self):
        a = MatrixPoint([0.0, 0.0], np.zeros((2, 2)))
        b = MatrixPoint([3.0, 4.0], np.zeros((2, 2)))
        assert gamma_dist(a, b, 1.0) == pytest.approx(5.0)
        assert gamma_dist(a, b, 7.0) == pytest.approx(5.0)

    def test_matrix_part_scaled(self):
        a = MatrixPoint([1.0], np.zeros((2, 2)))
        b = MatrixPoint([1.0], np.eye(2))
        assert gamma_dist(a, b, 2.0) == pytest.approx(2.0 * SQRT2)

    def test_symmetry_and_triangle(self, rng):
        pts = [
            MatrixPoint(rng.normal(size=3), rng.normal(size=(2, 2))) for _ in range(12)
        ]
        g = 0.7
        for a, b in zip(pts, pts[1:]):
            assert gamma_dist(a, b, g) == pytest.approx(gamma_dist(b, a, g))
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            assert gamma_dist(a, c, g) <= gamma_dist(a, b, g) + gamma_dist(b, c, g) + 1e-12

    def test_rejects_bad_gamma(self):
        a = MatrixPoint([0.0], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            gamma_dist(a, a, 0.0)

    def test_rejects_dimension_mismatch(self):
        a = MatrixPoint([0.0], np.zeros((2, 2)))
        b = MatrixPoint([0.0, 1.0], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            gamma_dist(a, b, 1.0)


class TestJacobi:
    def test_diagonal_input(self):
        vals, vecs = jacobi_eigh_batch(np.diag([3.0, 1.0])[None])
        assert np.allclose(vals[0], [3.0, 1.0])
        assert np.allclose(np.abs(vecs[0]), np.eye(2))

    def test_off_diagonal(self):
        vals, _ = jacobi_eigh_batch(np.array([[0.0, 1.0], [1.0, 0.0]])[None])
        assert np.allclose(vals[0], [1.0, -1.0])

    def test_roundtrip_precision(self, rng):
        for _ in range(60):
            m = int(rng.integers(2, 9))
            S = rng.normal(size=(m, m))
            S = S + S.T
            vals, vecs = jacobi_eigh_batch(S[None])
            O = vecs[0]
            tol = 1e-10 * (1.0 + np.linalg.norm(S))
            assert np.abs(O @ np.diag(vals[0]) @ O.T - S).max() <= tol
            assert np.abs(O.T @ O - np.eye(m)).max() <= 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigh_batch(np.array([[0.0, 1.0], [0.0, 0.0]])[None])

    def test_batch_rejects_one_asymmetric(self, rng):
        S = rng.normal(size=(4, 3, 3))
        S = S + S.transpose(0, 2, 1)
        S[2, 0, 1] += 1.0
        with pytest.raises(ValueError):
            jacobi_eigh_batch(S)

    def test_batch_matches_single(self, rng):
        S = rng.normal(size=(50, 3, 3))
        S = S + S.transpose(0, 2, 1)
        vals, vecs = jacobi_eigh_batch(S)
        for i in range(50):
            single, _ = jacobi_eigh_batch(S[i][None])
            assert np.allclose(vals[i], single[0], atol=1e-10)
            rec = vecs[i] @ np.diag(vals[i]) @ vecs[i].T
            assert np.abs(rec - S[i]).max() <= 1e-10 * (1 + np.linalg.norm(S[i]))


def assert_matches_jacobi(S):
    """eigh_descending against the Jacobi oracle on a symmetric stack: the
    eigenvalues within 1e-12 times the norm, and the top vectors equal up to
    sign wherever the top eigen-gap exceeds 1e-6."""
    vals, vecs = eigh_descending(S)
    ref_vals, ref_vecs = jacobi_eigh_batch(S)
    norms = np.linalg.norm(S, axis=(1, 2))
    assert np.all(np.abs(vals - ref_vals).max(axis=1) <= 1e-12 * norms)
    gaps = ref_vals[:, 0] - ref_vals[:, 1]
    top, ref_top = vecs[:, :, 0], ref_vecs[:, :, 0]
    sign = np.where(np.einsum("ij,ij->i", top, ref_top) < 0.0, -1.0, 1.0)
    err = np.abs(sign[:, None] * top - ref_top).max(axis=1)
    gapped = gaps > 1e-6  # there the top vector is determined to about eps * norm / gap
    assert np.all(err[gapped] <= 1e-12 * norms[gapped] / gaps[gapped])


class TestEighDescending:
    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_jacobi_on_random_stacks(self, rng, m):
        S = rng.normal(size=(200, m, m))
        assert_matches_jacobi((S + S.transpose(0, 2, 1)) / 2.0)

    def test_matches_jacobi_on_cross_check_clouds(self):
        from test_bundle import CROSS_CHECK_CLOUDS

        for make in CROSS_CHECK_CLOUDS.values():
            mats = make().mats
            assert_matches_jacobi((mats + mats.transpose(0, 2, 1)) / 2.0)

    def test_single_matrix_descending(self):
        vals, vecs = eigh_descending(np.diag([1.0, 3.0, 2.0]))
        assert vals.tolist() == [3.0, 2.0, 1.0]
        assert np.array_equal(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])


class TestEigenGaps:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gap_of_the_symmetric_part(self, rng, d):
        S = rng.normal(size=(5, 4, 4))
        gaps, vecs = eigen_gaps(S, d)
        vals, oracle = eigh_descending((S + S.transpose(0, 2, 1)) / 2.0)
        assert np.array_equal(gaps, vals[:, d - 1] - vals[:, d])
        assert np.array_equal(vecs, oracle)
        assert np.array_equal(eigen_gaps(S[2], d)[0], gaps[2])

    def test_solver_hook(self, rng):
        S = rng.normal(size=(6, 3, 3))
        gaps, _ = eigen_gaps(S, 1, solve=jacobi_eigh_batch)
        assert np.allclose(gaps, eigen_gaps(S, 1)[0], atol=1e-12)

    @pytest.mark.parametrize("m, d, message", [
        (3, 0, "d = 0 out of range for m = 3$"),
        (3, 3, "d = 3 out of range for m = 3$"),
        (1, 1, "d = 1 out of range for m = 1: a 1 x 1 matrix part has no line"),
    ])
    def test_range(self, m, d, message):
        with pytest.raises(ValueError, match=message):
            eigen_gaps(np.eye(m), d)


class TestProjection:
    def test_already_diagonal(self):
        P = project_grassmannian(np.diag([3.0, 1.0]), 1)
        assert np.allclose(P.P, np.diag([1.0, 0.0]))

    def test_asymmetric_input(self):
        P = project_grassmannian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
        assert np.allclose(P.P, [[0.5, 0.5], [0.5, 0.5]])

    def test_grid_oracle(self):
        # oracle: minimize |A^s - P(theta)|_F over a fine angle grid
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        As = (A + A.T) / 2.0
        best, best_d = None, np.inf
        for theta in np.linspace(0.0, np.pi, 20001, endpoint=False):
            v = np.array([np.cos(theta), np.sin(theta)])
            Q = np.outer(v, v)
            d = np.linalg.norm(As - Q)
            if d < best_d:
                best, best_d = Q, d
        P = project_grassmannian(A, 1)
        assert np.abs(P.P - best).max() < 1e-4
        assert np.linalg.norm(As - P.P) <= best_d + 1e-12

    def test_medial_axis_error(self):
        with pytest.raises(MedialAxisError):
            project_grassmannian(np.eye(2), 1)

    def test_invariants(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 5))
            d = int(rng.integers(1, m))
            A = rng.normal(size=(m, m))
            try:
                G = project_grassmannian(A, d)
            except MedialAxisError:
                continue
            assert np.allclose(G.P, G.P.T)
            assert np.allclose(G.P @ G.P, G.P, atol=1e-10)
            assert np.trace(G.P) == pytest.approx(d)
            assert np.linalg.norm(G.P) == pytest.approx(math.sqrt(d))

    def test_optimality_against_random_projectors(self, rng):
        for _ in range(40):
            m = int(rng.integers(2, 4))
            A = rng.normal(size=(m, m))
            As = (A + A.T) / 2.0
            try:
                G = project_grassmannian(A, 1)
            except MedialAxisError:
                continue
            dd = np.linalg.norm(As - G.P)
            for _ in range(200):
                Q = random_projector(rng, m)
                assert dd <= np.linalg.norm(As - Q) + 1e-8

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            project_grassmannian(np.eye(3), 3)


class TestMedialDistance:
    def test_projector_distance(self, rng):
        for m, d in [(2, 1), (3, 1), (3, 2), (4, 2)]:
            P = random_projector(rng, m, d)
            assert medial_distance(P, d) == pytest.approx(SQRT2 / 2.0, abs=1e-9)

    def test_zero_matrix(self):
        assert medial_distance(np.zeros((2, 2)), 1) == 0.0

    def test_formula_value(self):
        assert medial_distance(np.diag([2.0, 0.0]), 1) == pytest.approx(SQRT2)

    def test_grid_oracle(self):
        # the medial axis of lines in R^2 is {c I + antisymmetric}; minimize
        # the distance to it over a grid in (c, t)
        A = np.diag([2.0, 0.0])
        best = np.inf
        for c in np.linspace(-1.0, 3.0, 2001):
            for t in np.linspace(-2.0, 2.0, 101):
                B = c * np.eye(2) + t * np.array([[0.0, 1.0], [-1.0, 0.0]])
                best = min(best, np.linalg.norm(A - B))
        assert medial_distance(A, 1) == pytest.approx(best, abs=1e-3)

    def test_antisymmetric_invariance(self, rng):
        for _ in range(30):
            m = int(rng.integers(2, 5))
            A = rng.normal(size=(m, m))
            W = rng.normal(size=(m, m))
            W = W - W.T
            assert medial_distance(A, 1) == pytest.approx(medial_distance(A + W, 1))

    def test_d_range(self):
        with pytest.raises(ValueError):
            medial_distance(np.eye(2), 2)


class TestTmax:
    def test_grassmann_cloud(self, rng):
        pts = [MatrixPoint(rng.normal(size=2), random_projector(rng, 2)) for _ in range(6)]
        assert tmax(pts, 1, 1.0) == pytest.approx(SQRT2 / 2.0)
        assert tmax(pts, 1, 2.0) == pytest.approx(SQRT2)

    def test_zero_matrix_in_cloud(self):
        pts = [MatrixPoint([0.0], np.eye(2)), MatrixPoint([1.0], np.zeros((2, 2)))]
        assert tmax(pts, 1, 1.0) == 0.0

    def test_linear_in_gamma(self, rng):
        pts = [MatrixPoint(rng.normal(size=2), rng.normal(size=(3, 3))) for _ in range(5)]
        base = tmax(pts, 1, 1.0)
        for g in (0.5, 2.0, 3.7):
            assert tmax(pts, 1, g) == pytest.approx(g * base)

    def test_empty_cloud(self):
        with pytest.raises(ValueError):
            tmax([], 1, 1.0)

    def test_matches_medial_distance(self, rng):
        pts = [MatrixPoint(rng.normal(size=2), rng.normal(size=(4, 4))) for _ in range(20)]
        for d in (1, 2, 3):
            expected = min(medial_distance(p.A, d) for p in pts)
            assert tmax(pts, d, 1.5) == pytest.approx(1.5 * expected, rel=1e-12)

    def test_d_range(self):
        pts = [MatrixPoint([0.0], np.eye(2))]
        with pytest.raises(ValueError):
            tmax(pts, 2, 1.0)


class TestLineProjector:
    def test_axis(self):
        assert np.allclose(line_projector([1.0, 0.0]).P, [[1.0, 0.0], [0.0, 0.0]])

    def test_diagonal_direction(self):
        assert np.allclose(line_projector([1.0, 1.0]).P, [[0.5, 0.5], [0.5, 0.5]])

    def test_scale_invariance(self, rng):
        v = rng.normal(size=4)
        assert np.allclose(line_projector(v).P, line_projector(2.5 * v).P)
        assert np.allclose(line_projector(v).P, line_projector(-v).P)

    def test_near_zero(self):
        with pytest.raises(ValueError):
            line_projector([0.0, 1e-15])

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            line_projector([np.nan, 1.0])

    def test_batch_matches_rows(self, rng):
        V = rng.normal(size=(7, 3))
        P = line_projectors(V)
        assert P.shape == (7, 3, 3)
        for v, p in zip(V, P):
            assert np.array_equal(p, line_projector(v).P)

    @pytest.mark.parametrize("bad, message", [
        ([0.0, 1e-15], "near-zero direction vector"),
        ([np.nan, 1.0], "non-finite direction vector"),
        ([1e200, 1e200], "squared norm overflows"),
    ])
    def test_batch_refuses_one_bad_row(self, bad, message):
        with pytest.raises(ValueError, match=message):
            line_projectors([[1.0, 0.0], bad, [0.0, 1.0]])


class TestEigenDecompositionType:
    def test_grassmann_point_validation(self):
        with pytest.raises(ValueError):
            GrassmannPoint(np.array([[0.5, 0.0], [0.0, 0.0]]), 1)

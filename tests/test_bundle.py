import math
import time

import numpy as np
import pytest

from swbundle.bundle import (
    LiftedCloud,
    _chord_certified,
    _edge_flips,
    _point_lines,
    checked_index_bound,
    hausdorff_distance,
    lifebar,
    lift_cloud,
    rips_index_bound,
)
from swbundle.datasets import (
    add_noise,
    circle_normal,
    circle_tautological,
    klein_normal,
    torus_normal,
)
from swbundle.grassmann import (
    MatrixPoint,
    MedialAxisError,
    eigh_descending,
    gamma_dist,
    line_projectors,
)
from swbundle.projective import (
    SubdivisionLimitError,
    build_bundle_filtration,
    sw_class_at,
    triangulate_rp,
    vertex_face_values,
    weak_simplicial_approximation,
    weak_star_check,
)
from swbundle.simplicial import (
    SimplicialComplex,
    _flag_edges,
    barycentric_subdivision,
    is_simplicial_map,
    pullback_cochain,
    rips_filtration,
)
from swbundle.z2 import INF, barcode, is_coboundary, is_cocycle

from test_sign_transport import TIE, sign_onset

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def T2():
    return triangulate_rp(2)


class TestLiftedCloud:
    def test_lift_with_vectors(self):
        c = lift_cloud(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), 1.0)
        assert np.allclose(c.mats[0], [[1.0, 0.0], [0.0, 0.0]])

    def test_circle_bundles_agree_at_theta_zero(self):
        x = circle_normal(8, 1.0)
        y = circle_tautological(8, 1.0)
        assert np.allclose(x.mats[0], [[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(y.mats[0], [[1.0, 0.0], [0.0, 0.0]])

    def test_tautological_half_angle(self):
        y = circle_tautological(4, 1.0)
        # theta = pi carries the half-angle pi/2 line
        assert np.allclose(y.xs[2], [-1.0, 0.0], atol=1e-12)
        assert np.allclose(y.mats[2], [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lift_cloud(np.zeros((2, 2)), np.ones((3, 2)), 1.0)

    def test_empty_cloud_refused(self):
        # the message from_json_obj gives an empty "points" list, not a numpy reshape error
        with pytest.raises(ValueError, match="empty cloud"):
            LiftedCloud(np.zeros((0, 2)), np.zeros((0, 2, 2)), 1.0)
        with pytest.raises(ValueError, match="empty cloud"):
            lift_cloud(np.zeros((0, 2)), np.zeros((0, 2)), 1.0)

    def test_zero_line(self):
        with pytest.raises(ValueError):
            lift_cloud(np.zeros((1, 2)), np.zeros((1, 2)), 1.0)

    def test_matrix_lines_refused(self):
        # lines are (N, m) directions only; matrices are not passed through
        with pytest.raises(ValueError, match=r"direction vectors of shape \(N, m\)"):
            lift_cloud(np.zeros((2, 1)), np.stack([np.eye(2)] * 2), 1.0)

    def test_distance_matrix_matches_gamma_dist(self, rng):
        c = circle_tautological(10, 1.5)
        D = c.distance_matrix()
        pts = [MatrixPoint(x, A) for x, A in zip(c.xs, c.mats)]
        for i, j in [(0, 3), (2, 7), (4, 5)]:
            assert D[i, j] == pytest.approx(gamma_dist(pts[i], pts[j], 1.5))

    @pytest.mark.parametrize(
        "xs, mats, gamma",
        [
            ([[np.nan]], [np.eye(2)], 1.0),
            ([[0.0]], [[[np.inf, 0.0], [0.0, 0.0]]], 1.0),
            ([[0.0]], [np.eye(2)], np.nan),
            ([[0.0]], [np.eye(2)], np.inf),
        ],
    )
    def test_rejects_non_finite(self, xs, mats, gamma):
        with pytest.raises(ValueError):
            LiftedCloud(np.array(xs), np.array(mats), gamma)

    @pytest.mark.parametrize("xs, gamma", [([[0.0]], 1e308), ([[1e154]], 1.0), ([[1e-3]], 1e154)])
    def test_rejects_overflowing_squared_distances(self, xs, gamma):
        with pytest.raises(ValueError, match="squared distances overflow a float"):
            LiftedCloud(np.array(xs), np.array([np.eye(2)]), gamma)

    def test_squared_distances_below_the_refusal_stay_finite(self):
        # 8 max |e_i|^2 = 8e306 is finite, and so are the squared distances
        cloud = LiftedCloud(np.array([[-1e153], [1e153]]), np.array([np.eye(2)] * 2), 1.0)
        assert np.all(np.isfinite(cloud.distance_matrix()))
        assert cloud.distance_matrix()[0, 1] == pytest.approx(2e153)

    def test_json_roundtrip_with_direction_key(self):
        obj = {
            "n": 2,
            "m": 2,
            "gamma": 1.0,
            "points": [{"x": [0.0, 1.0], "v": [1.0, 1.0]}],
        }
        c = LiftedCloud.from_json_obj(obj)
        assert np.allclose(c.mats[0], [[0.5, 0.5], [0.5, 0.5]])

    def test_direction_points_load_bitwise(self, rng):
        xs, V = rng.normal(size=(9, 2)), rng.normal(size=(9, 3))
        A = line_projectors(rng.normal(size=(9, 3)))
        for first_v in (0, 3):  # every point a direction; points 0-2 matrices, the rest directions
            points = [{"x": x, "A": a} for x, a in zip(xs.tolist(), A.tolist())][:first_v]
            points += [{"x": x, "v": v} for x, v in zip(xs.tolist(), V.tolist())][first_v:]
            c = LiftedCloud.from_json_obj({"n": 2, "m": 3, "gamma": 1.0, "points": points})
            assert np.array_equal(c.xs, xs)
            assert np.array_equal(c.mats[:first_v], A[:first_v])
            assert np.array_equal(c.mats[first_v:], line_projectors(V)[first_v:])


class TestIndexBound:
    def test_on_grassmann_gamma_one(self):
        assert rips_index_bound(circle_normal(10, 1.0)) == pytest.approx(0.5)

    def test_scales_with_gamma(self):
        assert rips_index_bound(circle_normal(10, 2.0)) == pytest.approx(1.0)

    def test_zero_matrix_gives_zero(self):
        c = LiftedCloud(np.zeros((1, 1)), np.zeros((1, 2, 2)), 1.0)
        assert rips_index_bound(c) == 0.0


class TestBundleFiltration:
    def test_two_points(self):
        c = lift_cloud(np.array([[0.0], [0.1]]), np.array([[1.0, 0.0], [1.0, 0.0]]), 1.0)
        F = build_bundle_filtration(c, 0.4)
        assert len(F.complex.simplices[0]) == 2
        assert len(F.complex.simplices.get(1, ())) == 1

    def test_max_t_beyond_bound_rejected(self):
        with pytest.raises(ValueError):
            build_bundle_filtration(circle_normal(10, 1.0), 0.6)

    def test_mobius_barcode_shape(self):
        c = circle_tautological(50, 1.0)
        bc = barcode(build_bundle_filtration(c, 0.5), 1)
        inf_h0 = [b for b, d in bc.in_dim(0) if d == INF]
        assert len(inf_h0) == 1
        h1 = bc.in_dim(1)
        assert len(h1) == 1 and h1[0][1] == INF  # still open at the bound

    def test_circle_normal_h1_death_within_interleaving(self):
        # offset-filtration death sqrt(1 + gamma^2/2); flag death within
        # a sqrt(2) factor below it (measured: 1.0)
        from swbundle.simplicial import rips_filtration

        c = circle_normal(100, 1.0)
        F = rips_filtration(c.distance_matrix(), 1.3, 2)
        bars = barcode(F, 1).in_dim(1)
        b, d = max(bars, key=lambda bd: bd[1] - bd[0])
        upper = math.sqrt(1.5)
        assert upper / SQRT2 - 1e-9 <= d <= upper + 1e-9
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_payloads_attached(self):
        c = circle_tautological(12, 1.0)
        F = build_bundle_filtration(c, 0.3)
        assert F.complex.payloads.shape == (12, 2 + 4)


class TestVertexFaceValues:
    def test_data_vertex_matches_rp_face_map(self, T2):
        c = circle_tautological(12, 1.0)
        K = build_bundle_filtration(c, 0.2).complex
        values = vertex_face_values(K, T2)
        for i in range(len(c)):
            direction = np.array([np.cos(np.pi * i / 12), np.sin(np.pi * i / 12)])
            assert values[i] == T2.face_simplices(direction)[0]

    def test_barycenter_of_equal_points(self, T2):
        xs = np.zeros((2, 2))
        mats = np.array([np.diag([1.0, 0.0])] * 2)
        K = SimplicialComplex(
            [(0, 1)], payloads=np.concatenate([xs, mats.reshape(2, -1)], axis=1)
        )
        from swbundle.simplicial import barycentric_subdivision

        S = barycentric_subdivision(K)
        values = vertex_face_values(S, T2)
        assert len(set(values.values())) == 1

    def test_wide_barycenter_matches_bruteforce(self, T2):
        # barycenter of two lines 80 degrees apart projects to the bisector
        a, b = 0.0, np.radians(80.0)
        mats = np.array(
            [np.outer([np.cos(t), np.sin(t)], [np.cos(t), np.sin(t)]) for t in (a, b)]
        )
        mean = mats.mean(axis=0)
        from swbundle.grassmann import project_grassmannian

        line = eigh_descending(project_grassmannian(mean, 1).P)[1][:, 0]
        expected = T2.face_simplices(line)[0]
        K = SimplicialComplex(
            [(0, 1)],
            payloads=np.concatenate([np.zeros((2, 2)), mats.reshape(2, -1)], axis=1),
        )
        from swbundle.simplicial import barycentric_subdivision

        S = barycentric_subdivision(K)
        values = vertex_face_values(S, T2)
        mid = S.vertex_names.index((0, 1))
        assert values[mid] == expected

    def test_medial_axis_payload_raises(self, T2):
        # orthogonal lines average to I/2, which sits on the medial axis
        mats = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        K = SimplicialComplex(
            [(0, 1)],
            payloads=np.concatenate([np.zeros((2, 2)), mats.reshape(2, -1)], axis=1),
        )
        from swbundle.simplicial import barycentric_subdivision

        with pytest.raises(MedialAxisError):
            vertex_face_values(barycentric_subdivision(K), T2)


class TestWeakStar:
    def test_single_vertex(self):
        K = SimplicialComplex([(0,)])
        f, fail = weak_star_check(K, {0: (2, 5)})
        assert fail is None and f == {0: 2}

    def test_shared_simplex_succeeds(self):
        K = SimplicialComplex([(0, 1, 2)])
        f, fail = weak_star_check(K, {v: (1, 3) for v in range(3)})
        assert fail is None and set(f.values()) == {1}

    def test_disjoint_neighbors_fail(self, T2):
        K = SimplicialComplex([(0, 1)])
        f, fail = weak_star_check(K, {0: (0,), 1: (1,)})
        assert f is None and fail == 0

    def test_mobius_succeeds_quickly(self, T2):
        c = circle_tautological(60, 1.0)
        K = build_bundle_filtration(c, 0.3).complex
        f, Kp, k = weak_simplicial_approximation(K, T2, subdiv_limit=4)
        assert k <= 2
        assert is_simplicial_map(f, Kp, T2.L)

    def test_subdivision_limit(self, T2):
        # one edge whose endpoints map to a vertex of L and the opposite edge
        d0 = T2.vertex_embeddings[0] @ T2._basis
        d_mid = (T2.vertex_embeddings[1] - T2.vertex_embeddings[2]) @ T2._basis
        from swbundle.grassmann import line_projector

        mats = np.array([line_projector(d0).P, line_projector(d_mid).P])
        K = SimplicialComplex(
            [(0, 1)],
            payloads=np.concatenate([np.zeros((2, 2)), mats.reshape(2, -1)], axis=1),
        )
        with pytest.raises(SubdivisionLimitError):
            weak_simplicial_approximation(K, T2, subdiv_limit=0)

    def test_refusal_at_limit_0_subdivides_nothing(self, T2, monkeypatch):
        import swbundle.projective as projective
        from swbundle.grassmann import line_projector

        # the graph of test_subdivision_limit
        d0 = T2.vertex_embeddings[0] @ T2._basis
        d_mid = (T2.vertex_embeddings[1] - T2.vertex_embeddings[2]) @ T2._basis
        mats = np.array([line_projector(d0).P, line_projector(d_mid).P])
        K = SimplicialComplex(
            [(0, 1)],
            payloads=np.concatenate([np.zeros((2, 2)), mats.reshape(2, -1)], axis=1),
        )
        built = []
        monkeypatch.setattr(projective, "barycentric_subdivision",
                            lambda K: built.append(K) or barycentric_subdivision(K))
        with pytest.raises(SubdivisionLimitError):
            weak_simplicial_approximation(K, T2, subdiv_limit=0)
        assert built == []

    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_subdivides_only_before_a_check(self, T2, monkeypatch, limit):
        import swbundle.projective as projective
        from swbundle.grassmann import line_projector

        # one edge between lines 60 degrees apart: two subdivisions are needed
        a = math.radians(60.0)
        mats = np.array([line_projector([1.0, 0.0]).P,
                         line_projector([math.cos(a), math.sin(a)]).P])
        K = SimplicialComplex(
            [(0, 1)],
            payloads=np.concatenate([np.zeros((2, 1)), mats.reshape(2, -1)], axis=1),
        )
        built = []
        monkeypatch.setattr(projective, "barycentric_subdivision",
                            lambda K: built.append(K) or barycentric_subdivision(K))
        if limit < 2:
            with pytest.raises(SubdivisionLimitError):
                weak_simplicial_approximation(K, T2, subdiv_limit=limit)
        else:
            assert weak_simplicial_approximation(K, T2, subdiv_limit=limit)[2] == 2
        assert len(built) == min(limit, 2)

    def test_negative_limit_refused(self, T2):
        K = build_bundle_filtration(circle_tautological(20, 1.0), 0.3).complex
        with pytest.raises(ValueError, match="subdivision limit must be non-negative"):
            weak_simplicial_approximation(K, T2, subdiv_limit=-1)


class TestClassEvaluation:
    def test_mobius_nonzero(self, T2):
        c = circle_tautological(60, 1.0)
        assert sw_class_at(c, 0.3, T2).nonzero

    def test_circle_normal_zero(self, T2):
        c = circle_normal(60, 1.0)
        assert not sw_class_at(c, 0.3, T2).nonzero

    def test_t_zero_is_zero(self, T2):
        c = circle_tautological(20, 1.0)
        r = sw_class_at(c, 0.0, T2)
        assert not r.nonzero and r.pullback_cocycle.is_zero

    def test_out_of_range(self, T2):
        c = circle_tautological(20, 1.0)
        with pytest.raises(ValueError):
            sw_class_at(c, 0.5, T2)
        with pytest.raises(ValueError):
            sw_class_at(c, -0.1, T2)

    def test_result_invariants(self, T2):
        c = circle_tautological(40, 1.0)
        r = sw_class_at(c, 0.35, T2)
        K = r.approximation  # vertex map defined on the subdivided complex
        assert r.nonzero
        assert r.subdivisions_used >= 0
        assert all(isinstance(v, int) for v in K.values())

    def test_tie_break_independence(self, T2):
        # different choices in the weak-star intersection give the same verdict
        for cloud in (circle_tautological(40, 1.0), circle_normal(40, 1.0)):
            for t in (0.2, 0.4):
                a = sw_class_at(cloud, t, T2, _pick="min").nonzero
                b = sw_class_at(cloud, t, T2, _pick="max").nonzero
                assert a == b

    def test_monotone_on_grid(self, T2):
        c = circle_tautological(60, 1.0)
        flags = [sw_class_at(c, t, T2).nonzero for t in np.linspace(0.0, 0.45, 8)]
        assert flags == sorted(flags)  # upward closed


class TestLifebar:
    def test_mobius(self):
        lb = lifebar(circle_tautological(60, 1.0), resolution=0.02)
        assert not lb.empty
        assert lb.t_dagger <= 0.05
        assert lb.t_max == pytest.approx(0.5)

    def test_circle_normal_small_gamma_empty(self):
        lb = lifebar(circle_normal(60, 0.5), resolution=0.02)
        assert lb.empty

    def test_circle_normal_gamma_two(self):
        lb = lifebar(circle_normal(60, 2.0), resolution=0.02)
        assert lb.t_dagger == pytest.approx(1.0 / SQRT2, abs=0.08)

    def test_bracket_invariant(self):
        lb = lifebar(circle_tautological(60, 1.0), resolution=0.02)
        for t, nonzero, _ in lb.evaluations:
            if t > lb.t_dagger:
                assert nonzero
            elif t < lb.t_dagger:
                assert not nonzero

    def test_json_schema(self):
        lb = lifebar(circle_tautological(30, 1.0), resolution=0.05)
        obj = lb.to_json_obj()
        assert set(obj) == {"t_max", "t_dagger", "resolution", "evaluations", "caveat"}
        assert all(set(e) == {"t", "nonzero", "subdivisions"} for e in obj["evaluations"])

    def test_bad_resolution(self):
        for resolution in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="resolution must be positive and finite"):
                lifebar(circle_tautological(30, 1.0), resolution=resolution)

    def test_cloud_data_computed_once(self, monkeypatch):
        import swbundle.bundle as bundle

        calls = {"tmax": 0, "eigh_descending": 0, "distance_matrix": 0, "payloads": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("tmax", "eigh_descending"):
            monkeypatch.setattr(bundle, name, counted(name, getattr(bundle, name)))
        for name in ("distance_matrix", "payloads"):
            monkeypatch.setattr(LiftedCloud, name, counted(name, getattr(LiftedCloud, name)))
        cloud = circle_tautological(40, 1.0)
        expected = lifebar(circle_tautological(40, 1.0), resolution=0.05)
        calls.update(tmax=0, eigh_descending=0, distance_matrix=0, payloads=0)
        lb = lifebar(cloud, resolution=0.05)
        assert lb == expected
        # one eigensolve of the points gives both the bound and the lines;
        # the odd cycle closes within the first block of 64 edges, each of
        # them certified by its chord, and no distance matrix is built
        assert calls == {"tmax": 0, "eigh_descending": 1, "distance_matrix": 0, "payloads": 0}

    @staticmethod
    def _solved_rows(monkeypatch):
        """Row counts of the stacks that reach bundle's eigensolver, in call order."""
        import swbundle.bundle as bundle

        rows = []
        solve = bundle.eigh_descending

        def counted(S):
            rows.append(S.shape[0])
            return solve(S)

        monkeypatch.setattr(bundle, "eigh_descending", counted)
        return rows

    @staticmethod
    def _refused_per_block(cloud):
        """The values of the edges below the bound, the ends of the blocks
        lifebar signs (the first max(N, 64) edges, then doubling, each block
        extended over the values tied with its last) and the number of
        edges the chord certificate refuses in each block."""
        u, gaps, bound = _point_lines(cloud)
        _, iu, ju, values = _flag_edges(cloud.distance_matrix(), math.nextafter(SQRT2 * bound, 0.0))
        c = np.einsum("ij,ij->i", u[iu], u[ju])
        refused = ~_chord_certified(cloud.mats, gaps, c, iu, ju)
        size, ends = max(len(cloud), 64), [0]
        while ends[-1] < len(values):
            end = min(ends[-1] + size, len(values))
            ends.append(int(np.searchsorted(values, values[end - 1], side="right")))
            size *= 2
        refused = [int(np.sum(refused[lo:hi])) for lo, hi in zip(ends, ends[1:])]
        return values, np.array(ends[1:]), refused

    def _assert_solves_the_blocks_it_reads(self, rows, cloud):
        """lifebar(cloud) solves the points, then the refused edges of each
        block up to the one holding the closing edge (every block for an
        empty lifebar), one stack per block that has any; returns the
        refused counts of the blocks read and of the blocks left."""
        values, ends, refused = self._refused_per_block(cloud)
        rows.clear()
        lb = lifebar(cloud)
        read = len(ends)
        if not lb.empty:
            # the closing edge has a value in (SQRT2 * t_dagger, SQRT2 * t*]
            t_star = math.nextafter(lb.t_dagger, math.inf)
            first = np.searchsorted(ends, np.sum(values <= SQRT2 * lb.t_dagger), side="right")
            last = np.searchsorted(ends, np.sum(values <= SQRT2 * t_star) - 1, side="right")
            assert first == last
            read = int(last) + 1
        assert rows == [len(cloud)] + [k for k in refused[:read] if k]
        return lb, refused[:read], refused[read:]

    def test_midpoints_solved_as_far_as_the_sweep_reads(self, monkeypatch):
        rows = self._solved_rows(monkeypatch)
        # the canonical noisy Klein cloud and its matrix parts moved off G_1
        # at shift 1 (gamma 2): the certificate signs every edge, so only the
        # points are solved
        for cloud in (add_noise(klein_normal(16, 16), 0.05, 0),
                      SHIFT_ONE_CLOUDS["klein-16-noisy-shift-1"]()):
            lb, read, left = self._assert_solves_the_blocks_it_reads(rows, cloud)
            assert not lb.empty and rows == [len(cloud)] and not any(read + left)
        # twins 1e-4 from orthogonal at one base point: their edges lie a
        # relative 5e-9 below the bound, in the sliver the certificate
        # refuses.  The Mobius class closes in the first block, and the
        # twins' edges in the last block are never solved; on the circle
        # the one block holding the closing edge also holds the twin's
        lb, _, left = self._assert_solves_the_blocks_it_reads(
            rows, _twinned(circle_tautological(20, 1.0), 3))
        assert not lb.empty and rows == [27] and left[-1] == 7
        lb, _, left = self._assert_solves_the_blocks_it_reads(
            rows, _twinned(circle_normal(12, 1.0), 12))
        assert not lb.empty and rows == [13, 1] and not left

    def test_empty_lifebar_solves_every_long_edge(self, monkeypatch):
        rows = self._solved_rows(monkeypatch)
        # the noisy torus and its matrix parts at shift 1: every edge signed
        for cloud in (add_noise(torus_normal(12, 12), 0.03, 0),
                      SHIFT_ONE_CLOUDS["torus-12-noisy-shift-1"]()):
            lb, _, _ = self._assert_solves_the_blocks_it_reads(rows, cloud)
            assert lb.empty and rows == [len(cloud)]
        # a circle at gamma 0.5 with twins: the sliver edges of both blocks
        lb, _, _ = self._assert_solves_the_blocks_it_reads(rows, _twinned(circle_normal(30, 0.5), 7))
        assert lb.empty and rows == [35, 4, 1]

    @pytest.mark.parametrize("make", [
        lambda: circle_tautological(40, 1.0),
        lambda: circle_normal(60, 2.0),
        lambda: add_noise(klein_normal(8, 8), 0.03, 1),
    ], ids=["mobius-40", "circle-normal-60-gamma-2", "klein-8-noisy"])
    def test_evaluations_match_sw_class_at(self, make):
        # the paper's pipeline, on the graph it builds at each index, finds
        # the class nonzero at the sweep's onset t* and zero just below it
        # (zero at the last index below t_max for an empty lifebar)
        cloud = make()
        T = triangulate_rp(cloud.m)
        lb = lifebar(cloud)
        if lb.empty:
            assert not sw_class_at(cloud, math.nextafter(lb.t_max, 0.0), T).nonzero
        else:
            assert sw_class_at(cloud, math.nextafter(lb.t_dagger, math.inf), T).nonzero
            assert not sw_class_at(cloud, lb.t_dagger, T).nonzero

    def test_onset_next_to_the_bound(self):
        # the onset lies within one resolution of t_max = 0.25
        cloud = circle_tautological(10, gamma=0.5)
        lb = lifebar(cloud)
        t_star = sign_onset(cloud)
        assert t_star == pytest.approx(0.2317627, abs=1e-7)
        assert not lb.empty
        assert lb.t_dagger - TIE < t_star <= lb.t_dagger + lb.resolution

    def test_noisy_klein_default_limit(self):
        # this cloud used to run for minutes and gigabytes on the 2-complex
        # and then hit the subdivision limit; the exact onset of its class
        # (parity union-find over sign flips on the flag graph) is 0.33510
        cloud = add_noise(klein_normal(16, 16), 0.05, 0)
        start = time.perf_counter()
        lb = lifebar(cloud)
        assert time.perf_counter() - start < 60.0
        assert not lb.empty
        assert lb.t_dagger < 0.33510 <= lb.t_dagger + lb.resolution


def _medial_cloud(gaps):
    """One point per eigen-gap g, with matrix diag((1 + g) / 2, (1 - g) / 2):
    g = 1 is a projector, g = 0 is I/2."""
    mats = np.array([np.diag([(1.0 + g) / 2.0, (1.0 - g) / 2.0]) for g in gaps])
    return LiftedCloud(np.arange(float(len(gaps)))[:, None], mats, 1.0)


class TestMedialAxisCloud:
    def test_lifebar_refused(self):
        with pytest.raises(MedialAxisError, match="point 1 has eigen-gap 0.000e"):
            lifebar(_medial_cloud([1.0, 0.0, 1.0]))

    def test_sw_class_at_refused(self, T2):
        with pytest.raises(MedialAxisError, match="point 1 has eigen-gap 0.000e"):
            sw_class_at(_medial_cloud([1.0, 0.0, 1.0]), 0.0, T2)

    def test_first_point_within_tolerance_named(self):
        # point 1 is within GAP_TOLERANCE, point 2 exactly on the axis
        with pytest.raises(MedialAxisError, match="point 1 has eigen-gap 5.000e-10"):
            checked_index_bound(_medial_cloud([1.0, 5e-10, 0.0]))

    def test_gap_above_tolerance_accepted(self):
        cloud = _medial_cloud([1.0, 1e-6])
        assert checked_index_bound(cloud) == rips_index_bound(cloud) > 0.0


def _non_projector(cloud, seed, noise=0.05, shift=0.0):
    """Rescaled, slightly asymmetric matrix parts: off G_1, off the medial axis.
    A shift by shift * I keeps every line and eigen-gap; at shift 1 and a
    small noise every point is farther than 1/2 from its projector."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.8, 1.2, size=(len(cloud), 1, 1))
    mats = (cloud.mats + shift * np.eye(cloud.m)) * scale + noise * rng.normal(size=cloud.mats.shape)
    return LiftedCloud(cloud.xs, mats, cloud.gamma)


# the noisy Klein and torus clouds with every matrix part farther than 1/2
# from its projector
SHIFT_ONE_CLOUDS = {
    "klein-16-noisy-shift-1": lambda: _non_projector(
        add_noise(klein_normal(16, 16, 2.0), 0.05, 0), 3, 0.02, 1.0),
    "torus-12-noisy-shift-1": lambda: _non_projector(
        add_noise(torus_normal(12, 12), 0.03, 0), 0, 0.02, 1.0),
}


def _twinned(cloud, every, c=1e-4):
    """A cloud in R^n x G_1(R^2) plus a twin at every every-th point: the same
    base point, with the projector onto the line that meets the point's at
    u . u_twin = c.  |P - P_twin|_F^2 = 2 (1 - c^2), so each pair is an edge
    just below the bound that the chord certificate refuses."""
    u, _, _ = _point_lines(cloud)
    u = u[::every]
    w = c * u + math.sqrt(1.0 - c * c) * np.stack([-u[:, 1], u[:, 0]], axis=1)
    return LiftedCloud(np.concatenate([cloud.xs, cloud.xs[::every]]),
                       np.concatenate([cloud.mats, w[:, :, None] * w[:, None, :]]), cloud.gamma)


CROSS_CHECK_CLOUDS = {
    "mobius-30-noisy": lambda: add_noise(circle_tautological(30, 1.0), 0.02, 0),
    "mobius-36-noisy": lambda: add_noise(circle_tautological(36, 1.0), 0.05, 1),
    "mobius-40-noisy": lambda: add_noise(circle_tautological(40, 1.0), 0.03, 2),
    "mobius-32-noisy": lambda: add_noise(circle_tautological(32, 1.0), 0.05, 3),
    "mobius-44-noisy": lambda: add_noise(circle_tautological(44, 1.0), 0.02, 4),
    "mobius-28-noisy": lambda: add_noise(circle_tautological(28, 1.0), 0.04, 5),
    "mobius-40": lambda: circle_tautological(40, 1.0),
    "circle-normal-gamma-2": lambda: circle_normal(30, 2.0),
    "circle-normal-noisy": lambda: add_noise(circle_normal(40, 1.0), 0.03, 1),
    "torus-8": lambda: torus_normal(8, 8),
    "torus-12-noisy": lambda: add_noise(torus_normal(12, 12), 0.03, 0),
    "klein-12": lambda: klein_normal(12, 12),
    "klein-12-noisy": lambda: add_noise(klein_normal(12, 12), 0.03, 1),
    "klein-16": lambda: klein_normal(16, 16),
    "mobius-non-projector": lambda: _non_projector(circle_tautological(30, 1.0), 3),
    "circle-normal-non-projector": lambda: _non_projector(circle_normal(40, 1.0), 4),
}


def test_checked_bound_equals_rips_bound():
    # the bound read off the lines' eigensolve is the tmax formula, to the bit
    for make in CROSS_CHECK_CLOUDS.values():
        cloud = make()
        assert checked_index_bound(cloud) == rips_index_bound(cloud)


@pytest.mark.parametrize("name", sorted(CROSS_CHECK_CLOUDS))
def test_graph_decider_matches_two_complex(name):
    # H^1 of the flag complex injects into H^1 of its graph, so where every
    # flag triangle has an even flip count the graph verdict of sw_class_at
    # must match the paper's pipeline on the 2-dimensional flag complex: at
    # every index sampled here, up to 7/8 of the bound, below the first odd
    # flag triangle of these clouds (0.987 of the top value on klein-16,
    # none on the others)
    cloud = CROSS_CHECK_CLOUDS[name]()
    T = triangulate_rp(cloud.m)
    D, payloads = cloud.distance_matrix(), cloud.payloads()
    for t in np.linspace(0.0, rips_index_bound(cloud), 8, endpoint=False):
        K = rips_filtration(D, SQRT2 * t, 2, payloads=payloads).complex
        f, Kp, _ = weak_simplicial_approximation(K, T)
        two_complex = not is_coboundary(Kp, pullback_cochain(f, Kp, T.L, T.w1))
        assert sw_class_at(cloud, t, T).nonzero == two_complex, f"t = {t:g}"


def _odd_triangle_values(cloud):
    """The top value sqrt(2) * t_max and the sorted values of the flag
    triangles below it whose three edge flips (_edge_flips) have an odd sum,
    by brute force over the triangles."""
    u, gaps, bound = _point_lines(cloud)
    top = SQRT2 * bound
    n, i, j, values = _flag_edges(cloud.distance_matrix(), math.nextafter(top, 0.0))
    V = np.full((n, n), np.inf)
    V[i, j] = V[j, i] = values
    F = np.zeros((n, n), dtype=bool)
    F[i, j] = F[j, i] = _edge_flips(cloud.mats, u, gaps, i, j)
    odd = []
    for a, b in zip(i.tolist(), j.tolist()):  # a < b < k: each triangle once
        k = np.flatnonzero(np.isfinite(V[a]) & np.isfinite(V[b]))
        k = k[k > b]
        value = np.maximum(V[a, b], np.maximum(V[a, k], V[b, k]))
        odd += value[F[a, b] ^ F[a, k] ^ F[b, k]].tolist()
    return top, sorted(odd)


@pytest.mark.parametrize("make, first_odd", [
    (lambda: circle_normal(60, 2.0), 1.40206),
    (lambda: circle_normal(60, 1.0), None),
    (lambda: add_noise(klein_normal(16, 16), 0.05, 0), 0.65531),
], ids=["circle-normal-60-gamma-2", "circle-normal-60-gamma-1", "klein-16-noisy"])
def test_no_odd_flag_triangle_below_the_safe_value(make, first_odd):
    # the lifebar decides the class of the flag graph; it is the flag
    # complex's class while every flag triangle is even.  A triangle of
    # value v lies within its circumradius 2v / sqrt(3) of a vertex, each
    # vertex at least top from the medial axis, so none below
    # (sqrt(3)/2) * top is odd.  Nearer the bound some are, on two of the
    # three lifebar-deep clouds
    top, odd = _odd_triangle_values(make())
    assert all(v >= math.sqrt(3.0) / 2.0 * top for v in odd)
    if first_odd is None:
        assert odd == []
    else:
        assert odd[0] == pytest.approx(first_odd, abs=1e-5)


# stronger perturbations of the matrix parts, each with an onset below its bound
STRONG_NON_PROJECTOR_CLOUDS = {
    "mobius-60-non-projector-0.15": lambda: _non_projector(circle_tautological(60, 1.0), 0, 0.15),
    "mobius-60-non-projector-0.2": lambda: _non_projector(circle_tautological(60, 1.0), 0, 0.2),
    "mobius-40-gamma-2-non-projector-0.2": lambda: _non_projector(
        circle_tautological(40, 2.0), 2, 0.2),
}


@pytest.mark.parametrize("name", sorted(CROSS_CHECK_CLOUDS) + sorted(STRONG_NON_PROJECTOR_CLOUDS))
def test_sweep_onset_matches_sw_class_at(name):
    # the parity sweep against the paper's pipeline: the same verdict at the
    # indices of the two-complex check, and the class turns nonzero exactly
    # at the double after t_dagger (or never below t_max)
    cloud = {**CROSS_CHECK_CLOUDS, **STRONG_NON_PROJECTOR_CLOUDS}[name]()
    T = triangulate_rp(cloud.m)
    lb = lifebar(cloud)
    for t in np.linspace(0.0, rips_index_bound(cloud), 8, endpoint=False):
        expected = not lb.empty and t > lb.t_dagger
        assert sw_class_at(cloud, t, T).nonzero == expected, f"t = {t:g}"
    if lb.empty:
        assert not sw_class_at(cloud, math.nextafter(lb.t_max, 0.0), T).nonzero
    else:
        assert not sw_class_at(cloud, lb.t_dagger, T).nonzero
        assert sw_class_at(cloud, math.nextafter(lb.t_dagger, math.inf), T).nonzero


class TestHausdorff:
    def test_identical(self):
        c = circle_tautological(15, 1.0)
        assert hausdorff_distance(c, c) == 0.0

    def test_singletons(self):
        a = LiftedCloud(np.array([[0.0]]), np.zeros((1, 2, 2)), 2.0)
        b = LiftedCloud(np.array([[1.0]]), np.eye(2)[None, :, :], 2.0)
        assert hausdorff_distance(a, b) == pytest.approx(
            gamma_dist(MatrixPoint(a.xs[0], a.mats[0]), MatrixPoint(b.xs[0], b.mats[0]), 2.0)
        )

    def test_subset_dominated_by_superset_direction(self, rng):
        xs = rng.normal(size=(10, 2))
        mats = np.array([np.eye(2)] * 10)
        big = LiftedCloud(xs, mats, 1.0)
        small = LiftedCloud(xs[:4], mats[:4], 1.0)
        emb_b, emb_s = big.embedding(), small.embedding()
        directed = max(
            np.min(np.linalg.norm(emb_s - e, axis=1)) for e in emb_b
        )
        assert hausdorff_distance(big, small) == pytest.approx(directed)

    def test_bruteforce_oracle(self, rng):
        a = LiftedCloud(rng.normal(size=(10, 2)), rng.normal(size=(10, 2, 2)), 1.3)
        b = LiftedCloud(rng.normal(size=(10, 2)), rng.normal(size=(10, 2, 2)), 1.3)
        pa, pb = ([MatrixPoint(x, A) for x, A in zip(c.xs, c.mats)] for c in (a, b))
        d_ab = max(min(gamma_dist(x, y, 1.3) for y in pb) for x in pa)
        d_ba = max(min(gamma_dist(x, y, 1.3) for y in pa) for x in pb)
        assert hausdorff_distance(a, b) == pytest.approx(max(d_ab, d_ba))

    def test_mismatch_rejected(self):
        a = circle_tautological(5, 1.0)
        b = circle_tautological(5, 2.0)
        with pytest.raises(ValueError):
            hausdorff_distance(a, b)


class TestStabilityAndScaling:
    def test_stability_single_jitter(self):
        clean = circle_tautological(60, 1.0)
        lb_clean = lifebar(clean, resolution=0.02)
        noisy = add_noise(clean, 0.03, seed=5)
        lb_noisy = lifebar(noisy, resolution=0.02)
        eps = hausdorff_distance(clean, noisy)
        # the paper's bound |t_dagger shift| <= d_H; resolution steers nothing
        assert abs(lb_noisy.t_dagger - lb_clean.t_dagger) <= eps

    def test_gamma_scaling_bounds(self):
        g1, g2 = 0.8, 1.6
        c1 = circle_tautological(25, g1)
        c2 = circle_tautological(25, g2)
        D1, D2 = c1.distance_matrix(), c2.distance_matrix()
        assert np.all(D1 <= D2 + 1e-12)
        assert np.all(D2 <= (g2 / g1) * D1 + 1e-12)
        assert rips_index_bound(c2) == pytest.approx(
            (g2 / g1) * rips_index_bound(c1)
        )

    def test_every_pullback_is_cocycle(self, T2):
        for t in (0.1, 0.3, 0.45):
            c = circle_tautological(40, 1.0)
            r = sw_class_at(c, t, T2)
            # recompute the host complex to re-verify the stored cochain
            from swbundle.bundle import SQRT2 as S2
            from swbundle.projective import _complex_at_scale

            K = _complex_at_scale(c, S2 * t)
            from swbundle.simplicial import barycentric_subdivision

            for _ in range(r.subdivisions_used):
                K = barycentric_subdivision(K)
            assert is_cocycle(K, r.pullback_cocycle)

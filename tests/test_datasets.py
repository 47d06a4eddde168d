import json
import math

import numpy as np
import pytest

from swbundle.bundle import LiftedCloud, hausdorff_distance, rips_index_bound
from swbundle.datasets import (
    GeneratorSpec,
    add_noise,
    circle_normal,
    circle_tautological,
    generate,
    klein_normal,
    klein_point,
    load_cloud,
    save_cloud,
    tangent_lift,
    torus_normal,
)
from swbundle.grassmann import MedialAxisError
from swbundle.projective import line_projector

from test_cli import MEDIAL_AXIS_CLOUD

SQRT2 = math.sqrt(2.0)


class TestCircleGenerators:
    def test_normal_theta_zero(self):
        c = circle_normal(4, 1.0)
        assert np.allclose(c.xs[0], [1.0, 0.0])
        assert np.allclose(c.mats[0], [[1.0, 0.0], [0.0, 0.0]])

    def test_normal_theta_quarter(self):
        c = circle_normal(4, 1.0)
        assert np.allclose(c.xs[1], [0.0, 1.0], atol=1e-12)
        assert np.allclose(c.mats[1], [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_tautological_half_angle_at_pi(self):
        c = circle_tautological(4, 1.0)
        assert np.allclose(c.xs[2], [-1.0, 0.0], atol=1e-12)
        assert np.allclose(c.mats[2], [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_tmax_on_grassmannian(self):
        for gen in (circle_normal, circle_tautological):
            c = gen(12, 1.0)
            assert rips_index_bound(c) * SQRT2 == pytest.approx(SQRT2 / 2.0)

    def test_seam_gap_bounded_below(self):
        # odd sample: the last point nearly closes the circle in x but its
        # line stays a half-step away
        c = circle_tautological(61, 1.0)
        d = np.linalg.norm(c.embedding()[60] - c.embedding()[0])
        assert d >= np.linalg.norm(c.embedding()[1] - c.embedding()[0]) * 0.9

    def test_count_validation(self):
        with pytest.raises(ValueError):
            circle_normal(2, 1.0)
        with pytest.raises(ValueError, match="circle count 10.5 is not an integer"):
            circle_tautological(10.5)
        assert len(circle_normal(np.int64(10))) == 10
        for kind in ("circle_normal", "circle_tautological"):
            with pytest.raises(ValueError, match=f"{kind} takes one count"):
                GeneratorSpec(kind, 10, count2=5)

    @pytest.mark.parametrize("kind, at_cap, past_cap", [
        ("circle_normal", (2 ** 20, None), (2 ** 20 + 1, None)),
        ("circle_tautological", (2 ** 20, None), (2 ** 20 + 1, None)),
        ("torus_normal", (2 ** 10, None), (2 ** 10 + 1, None)),
        ("klein_normal", (16, 2 ** 16), (16, 2 ** 16 + 1)),
    ])
    def test_point_cap(self, kind, at_cap, past_cap):
        # constructed only, never generated: a grid without count2 is square
        GeneratorSpec(kind, at_cap[0], count2=at_cap[1])
        with pytest.raises(ValueError, match=r"more than the cap of 1048576 \(2\*\*20\)"):
            GeneratorSpec(kind, past_cap[0], count2=past_cap[1])


class TestSurfaceGenerators:
    def test_torus_point_and_normal(self):
        c = torus_normal(4, 4, 1.0)
        assert np.allclose(c.xs[0], [3.0, 0.0, 0.0])
        assert np.allclose(c.mats[0], np.diag([1.0, 0.0, 0.0]))

    def test_torus_normal_matches_finite_differences(self):
        # oracle: cross product of numerical tangents
        h = 1e-6

        def point(u, v):
            return np.array(
                [
                    (2.0 + np.cos(v)) * np.cos(u),
                    (2.0 + np.cos(v)) * np.sin(u),
                    np.sin(v),
                ]
            )

        for u, v in [(0.3, 1.1), (2.0, 4.0), (5.5, 0.7)]:
            du = (point(u + h, v) - point(u - h, v)) / (2 * h)
            dv = (point(u, v + h) - point(u, v - h)) / (2 * h)
            n = np.cross(du, dv)
            expected = line_projector(n).P
            got = line_projector(
                np.array([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)])
            ).P
            assert np.allclose(got, expected, atol=1e-5)

    def test_all_matrix_parts_are_projectors(self):
        for cloud in (torus_normal(5, 5, 1.0), klein_normal(5, 5, 1.0)):
            for A in cloud.mats:
                assert np.allclose(A, A.T)
                assert np.allclose(A @ A, A, atol=1e-8)
                assert np.trace(A) == pytest.approx(1.0)
            assert rips_index_bound(cloud) == pytest.approx(0.5)

    def test_klein_seam_identification(self):
        # the figure-8 immersion satisfies point(u + 2 pi, v) == point(u, -v)
        for u, v in [(0.5, 1.0), (3.0, 2.5), (1.2, 5.9)]:
            assert np.allclose(klein_point(u + 2 * np.pi, v), klein_point(u, -v))
        # and is 2 pi periodic in v
        assert np.allclose(klein_point(1.0, 0.3 + 2 * np.pi), klein_point(1.0, 0.3))

    def test_klein_point_takes_arrays(self, rng):
        u, v = rng.uniform(0.0, 2 * np.pi, size=(2, 5))
        assert np.array_equal(klein_point(u, v), [klein_point(a, b) for a, b in zip(u, v)])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            torus_normal(2, 5, 1.0)
        # steps of 2 pi / 4.5 do not close the grid around the torus
        with pytest.raises(ValueError, match="grid count 4.5 is not an integer"):
            torus_normal(4.5, 4)
        with pytest.raises(ValueError, match="grid count 4.5 is not an integer"):
            klein_normal(4, 4.5)
        assert len(torus_normal(np.int64(4), 5)) == 20


class TestTangentLift:
    def test_circle_tangents(self):
        theta = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        c = tangent_lift(pts, 1.0)
        t0 = np.array([-np.sin(0.0), np.cos(0.0)])
        assert np.allclose(c.mats[0], np.outer(t0, t0), atol=1e-12)

    def test_cyclic_wraparound(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        c = tangent_lift(pts, 1.0)
        d_last = pts[0] - pts[2]  # neighbors of index 3 wrap to 0 and 2
        assert np.allclose(c.mats[3], line_projector(d_last).P)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            tangent_lift(np.zeros((2, 2)), 1.0)


class TestNoise:
    def test_zero_sigma_identity(self):
        c = circle_normal(10, 1.0)
        assert add_noise(c, 0.0, 3) is c

    def test_medial_axis_point_refused(self):
        # point 1 carries I/2: it has no top eigenvector to perturb
        cloud = LiftedCloud.from_json_obj(MEDIAL_AXIS_CLOUD)
        with pytest.raises(MedialAxisError, match="point 1 has eigen-gap 0.000e"):
            add_noise(cloud, 0.05, 3)

    def test_deterministic_per_seed(self):
        c = circle_normal(10, 1.0)
        a = add_noise(c, 0.05, 42)
        b = add_noise(c, 0.05, 42)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.mats, b.mats)
        other = add_noise(c, 0.05, 43)
        assert not np.array_equal(a.xs, other.xs)

    def test_stays_on_grassmannian(self):
        noisy = add_noise(circle_tautological(15, 1.0), 0.1, 7)
        for A in noisy.mats:
            assert np.allclose(A @ A, A, atol=1e-10)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_bad_noise_level_refused(self, sigma):
        c = circle_normal(10, 1.0)
        message = f"noise level must be finite and nonnegative, got {sigma}"
        with pytest.raises(ValueError, match=message):
            add_noise(c, sigma, 0)
        with pytest.raises(ValueError, match=f"got {sigma}"):
            GeneratorSpec("circle_normal", 10, noise=sigma)

    def test_hausdorff_bounded(self):
        # calibrated over 180 draws: max H / sigma observed was 5.6
        c = circle_tautological(60, 1.0)
        for seed in range(5):
            for sigma in (0.02, 0.05, 0.1):
                assert hausdorff_distance(c, add_noise(c, sigma, seed)) <= 6.0 * sigma


class TestGenerateDispatch:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec("nonsense", 10)
        with pytest.raises(ValueError):
            GeneratorSpec("circle_normal", 2)
        with pytest.raises(ValueError):
            GeneratorSpec("circle_normal", 10, noise=-0.1)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            GeneratorSpec("circle_normal", 10, noise=0.1, seed=-1)

    @pytest.mark.parametrize("kind, count, count2, message", [
        ("circle_normal", 10.5, None, "count 10.5 is not an integer"),
        ("torus_normal", 4.5, 4, "count 4.5 is not an integer"),
        ("klein_normal", 4, 4.5, "count 4.5 is not an integer"),
        ("torus_normal", 4, 2, "counts must be at least 3"),
        ("circle_normal", 2.5, None, "counts must be at least 3"),
    ])
    def test_counts_must_be_integers_of_at_least_3(self, kind, count, count2, message):
        with pytest.raises(ValueError, match=message):
            GeneratorSpec(kind, count, count2=count2)

    def test_numpy_integer_counts_accepted(self):
        assert len(generate(GeneratorSpec("circle_normal", np.int64(10)))) == 10
        assert len(generate(GeneratorSpec("torus_normal", np.int64(4), count2=np.int32(5)))) == 20

    def test_dispatch_and_noise(self):
        spec = GeneratorSpec("circle_tautological", 12, noise=0.02, seed=9)
        cloud = generate(spec)
        assert len(cloud) == 12
        clean = generate(GeneratorSpec("circle_tautological", 12))
        assert not np.array_equal(cloud.xs, clean.xs)

    def test_surface_grid(self):
        cloud = generate(GeneratorSpec("torus_normal", 4, count2=5))
        assert len(cloud) == 20

    def test_roundtrip_file(self, tmp_path):
        cloud = generate(GeneratorSpec("klein_normal", 4, count2=4, gamma=0.7))
        path = tmp_path / "cloud.json"
        save_cloud(cloud, path)
        back = load_cloud(path)
        assert back.gamma == cloud.gamma
        assert np.allclose(back.xs, cloud.xs)
        assert np.allclose(back.mats, cloud.mats)

    def test_file_bytes_and_exact_roundtrip(self, tmp_path):
        cloud = add_noise(generate(GeneratorSpec("klein_normal", 4, count2=4, gamma=0.7)), 0.03, 1)
        path = tmp_path / "cloud.json"
        save_cloud(cloud, path)
        # the pure-Python encoder, which json.dump uses, writes the same bytes
        encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
        assert path.read_text() == "".join(encoder.iterencode(cloud.to_json_obj())) + "\n"
        back = load_cloud(path)
        assert np.array_equal(back.xs, cloud.xs) and np.array_equal(back.mats, cloud.mats)

    def test_matrix_and_direction_points_mixed(self):
        obj = {"n": 1, "m": 2, "gamma": 1.0, "points": [
            {"x": [0.0], "A": [[1.0, 0.0], [0.0, 0.0]]},
            {"x": [1.0], "v": [0.0, 2.0]},
        ]}
        cloud = LiftedCloud.from_json_obj(obj)
        assert np.array_equal(cloud.xs, [[0.0], [1.0]])
        assert np.allclose(cloud.mats, [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])

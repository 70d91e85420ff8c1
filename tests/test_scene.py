import math

import numpy as np
import pytest

from safeland.scene import (Box, NoiseModel, Scenario, build_world, corrupt,
                            nadir_camera, render_true_depth)

import oracles
from conftest import make_flat_scenario


class TestBuildWorld:
    def test_flat_terrain_is_zero_everywhere(self):
        world = build_world(make_flat_scenario())
        assert np.all(world.heights == 0.0)

    def test_ramp_height_matches_analytic_surface(self):
        sc = Scenario(terrain="ramp", extent=(6.0, 5.0), ramp_grade_deg=10.0)
        world = build_world(sc)
        xs = np.arange(world.heights.shape[1]) * world.resolution
        expected = np.tile(xs * math.tan(math.radians(10.0)),
                           (world.heights.shape[0], 1))
        assert np.allclose(world.heights, expected, atol=1e-12)

    def test_same_scenario_and_seed_builds_identical_worlds(self):
        sc = Scenario(terrain="rough", extent=(6.0, 5.0), texture_seed=9)
        a = build_world(sc)
        b = build_world(sc)
        assert np.array_equal(a.heights, b.heights)
        assert np.array_equal(a.texture, b.texture)

    def test_surface_height_includes_box_tops(self):
        world = build_world(make_flat_scenario(
            obstacles=(Box(center=(2.0, 2.0), extents=(1.0, 1.0), height=0.5),)))
        assert world.surface_height_at(2.0, 2.0) == 0.5
        assert world.surface_height_at(2.5, 2.0) == 0.5   # footprint edge counts
        assert world.surface_height_at(3.0, 2.0) == 0.0

    def test_non_positive_box_extents_rejected(self):
        with pytest.raises(ValueError):
            Box(center=(1.0, 1.0), extents=(0.0, 1.0), height=1.0)
        with pytest.raises(ValueError):
            Box(center=(1.0, 1.0), extents=(1.0, 1.0), height=-0.5)

    def test_overlapping_boxes_accepted_as_union(self):
        sc = make_flat_scenario(obstacles=(
            Box(center=(3.0, 2.5), extents=(1.0, 1.0), height=1.0),
            Box(center=(3.3, 2.5), extents=(1.0, 1.0), height=1.0),
        ))
        world = build_world(sc)
        camera = nadir_camera([3.15, 2.5, 5.0])
        frame = render_true_depth(world, camera)
        # center pixel looks at the overlap: depth to the shared top
        assert frame.depth[36, 48] == pytest.approx(4.0, abs=1e-9)

    def test_texture_in_unit_range(self):
        world = build_world(make_flat_scenario())
        assert world.texture.min() >= 0.0 and world.texture.max() <= 1.0


class TestRender:
    def test_nadir_flat_ground_depth_equals_altitude_exactly(self):
        world = build_world(make_flat_scenario(extent=(12.0, 10.0)))
        camera = nadir_camera([6.0, 5.0, 5.0])
        frame = render_true_depth(world, camera)
        assert frame.valid.all()
        assert np.abs(frame.depth - 5.0).max() < 1e-9

    def test_box_top_under_center_reads_offset_depth(self):
        sc = make_flat_scenario(obstacles=(
            Box(center=(3.0, 2.5), extents=(1.0, 1.0), height=1.0),))
        world = build_world(sc)
        camera = nadir_camera([3.0, 2.5, 5.0])
        frame = render_true_depth(world, camera)
        h, w = frame.depth.shape
        assert frame.depth[h // 2, w // 2] == pytest.approx(4.0, abs=1e-9)

    def test_rough_terrain_matches_per_pixel_raymarch_oracle(self):
        sc = Scenario(terrain="rough", extent=(6.0, 5.0), texture_seed=13,
                      rough_amplitude=0.2, rough_scale=0.3)
        world = build_world(sc)
        camera = nadir_camera([3.0, 2.5, 4.0], width=48, height=36,
                              focal_length=40.0)
        frame = render_true_depth(world, camera)
        rng = np.random.default_rng(0)
        for _ in range(8):
            u = int(rng.integers(0, camera.width))
            v = int(rng.integers(0, camera.height))
            expected = oracles.raymarch_depth(world, camera, u, v)
            assert frame.valid[v, u] == math.isfinite(expected)
            if frame.valid[v, u]:
                assert frame.depth[v, u] == pytest.approx(expected, abs=1e-6)

    def test_rays_leaving_world_bounds_are_invalid(self, flat_world):
        # low altitude + short focal = wide footprint beyond the world edge
        camera = nadir_camera([0.2, 0.2, 4.0], focal_length=30.0)
        frame = render_true_depth(flat_world, camera)
        assert not frame.valid.all()
        assert frame.valid[36, 48]  # straight-down ray still lands inside

    def test_rendering_is_pure(self, flat_world):
        camera = nadir_camera([3.0, 2.5, 3.0])
        a = render_true_depth(flat_world, camera)
        b = render_true_depth(flat_world, camera)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.valid, b.valid)
        assert np.array_equal(a.intensity, b.intensity)

    def test_camera_below_local_terrain_rejected(self, flat_world):
        with pytest.raises(ValueError):
            render_true_depth(flat_world, nadir_camera([3.0, 2.5, -0.5]))


class TestCorrupt:
    def test_zero_noise_is_identity(self, flat_frame):
        noise = NoiseModel()
        out = corrupt(flat_frame, noise, np.random.default_rng(0))
        assert np.array_equal(out.depth, flat_frame.depth)
        assert np.array_equal(out.valid, flat_frame.valid)

    def test_gaussian_std_matches_within_two_percent(self):
        from conftest import synthetic_frame
        frame = synthetic_frame(np.full((1000, 1000), 5.0))
        out = corrupt(frame, NoiseModel(sigma_range=0.01),
                      np.random.default_rng(1))
        residual = out.depth[out.valid] - 5.0
        assert abs(residual.std() - 0.01) < 0.0002

    def test_dropout_fraction_concentrates(self):
        from conftest import synthetic_frame
        frame = synthetic_frame(np.full((1000, 1000), 5.0))
        out = corrupt(frame, NoiseModel(dropout_prob=0.05),
                      np.random.default_rng(2))
        frac = 1.0 - out.valid.mean()
        assert 0.048 <= frac <= 0.052

    def test_same_seed_reproduces_identical_output(self, flat_frame):
        noise = NoiseModel(sigma_range=0.02, dropout_prob=0.05,
                           burst_prob=0.3, burst_magnitude=0.5)
        a = corrupt(flat_frame, noise, np.random.default_rng(7))
        b = corrupt(flat_frame, noise, np.random.default_rng(7))
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.valid, b.valid)

    def test_no_valid_pixel_at_or_below_zero_after_corruption(self, flat_frame):
        noise = NoiseModel(sigma_range=5.0)
        out = corrupt(flat_frame, noise, np.random.default_rng(3))
        assert np.all(out.depth[out.valid] >= 0.01)

    def test_burst_bias_applies_to_whole_frame(self, flat_frame):
        noise = NoiseModel(burst_prob=1.0, burst_magnitude=0.5)
        out = corrupt(flat_frame, noise, np.random.default_rng(4))
        assert np.allclose(out.depth[out.valid] - flat_frame.depth[out.valid], 0.5)

    def test_depth_proportional_noise_scales_with_range(self):
        from conftest import synthetic_frame
        near = synthetic_frame(np.full((400, 400), 2.0))
        far = synthetic_frame(np.full((400, 400), 8.0))
        noise = NoiseModel(sigma_prop=0.01)
        out_near = corrupt(near, noise, np.random.default_rng(5))
        out_far = corrupt(far, noise, np.random.default_rng(5))
        std_near = (out_near.depth[out_near.valid] - 2.0).std()
        std_far = (out_far.depth[out_far.valid] - 8.0).std()
        assert std_far / std_near == pytest.approx(4.0, rel=0.05)

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(dropout_prob=1.5)
        with pytest.raises(ValueError):
            NoiseModel(sigma_range=-0.1)

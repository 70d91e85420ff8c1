import dataclasses
import math

import numpy as np
import pytest

from safeland import scene
from safeland.scene import (Box, CameraModel, NoiseModel, Scenario, build_world,
                            corrupt, load_scenario, nadir_camera, render_true_depth)

import oracles
from conftest import SCENARIO_DIR, make_flat_scenario


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


def assert_renders_like_full_march(world, camera):
    depth, valid, intensity = oracles.render_full_march(world, camera)
    frame = render_true_depth(world, camera)
    assert np.array_equal(frame.depth, depth)
    assert np.array_equal(frame.valid, valid)
    assert np.array_equal(frame.intensity, intensity)
    return frame


class TestBoundedMarch:
    """The windowed march and the box cull against the full-lattice renderer."""

    @pytest.fixture(scope="class")
    def cluttered_world(self):
        return build_world(load_scenario(SCENARIO_DIR / "cluttered.yaml"))

    @pytest.mark.parametrize("name", ["flat", "cluttered", "undersized"])
    def test_episode_poses_render_bit_exact(self, episode_frames, name):
        world, frames = episode_frames[name]
        for frame in frames:
            assert_renders_like_full_march(world, frame.camera)

    def test_descent_poses_render_bit_exact(self, cluttered_world):
        # over the landing disk, rough ground and the raised strip; at the
        # lowest poses the march starts at the camera
        for x, y in ((3.2, 3.5), (4.6, 2.4), (7.2, 5.3)):
            for z in (3.0, 1.5, 0.6, 0.35):
                assert_renders_like_full_march(
                    cluttered_world, nadir_camera([x, y, z], yaw=0.3))

    @pytest.mark.parametrize("position", [
        (0.3, 0.4, 5.0),
        # beyond the edge: rays enter the world late in the march, after
        # every ray in the world has passed under the lowest terrain
        (-0.3, 3.5, 1.5),
    ])
    def test_view_leaving_the_world_renders_bit_exact(self, cluttered_world, position):
        frame = assert_renders_like_full_march(
            cluttered_world, nadir_camera(list(position), yaw=0.2))
        assert frame.valid.any() and not frame.valid.all()

    def test_terrain_just_beyond_the_view_bounds_the_window(self):
        # a 0.3 m ridge on the node column one cell past the view's right
        # edge: the edge rays meet its slope above the flat ground in view
        world = build_world(make_flat_scenario(extent=(6.0, 5.0)))
        heights = world.heights.copy()
        heights[:, 37] = 0.3
        ridge = dataclasses.replace(world, heights=heights)
        frame = assert_renders_like_full_march(ridge, nadir_camera([3.0, 2.5, 1.0]))
        assert frame.depth[36, -1] < frame.depth[36, 48] - 0.05

    def test_rays_that_do_not_descend_render_bit_exact(self, cluttered_world):
        tilt = math.radians(75.0)
        c, s = math.cos(tilt), math.sin(tilt)
        tilt_x = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        flip = np.diag([1.0, -1.0, -1.0])
        camera = CameraModel(width=16, height=12, focal_length=10.0,
                             principal_point=(7.5, 5.5),
                             position=np.array([4.5, 1.0, 2.0]),
                             rotation_wc=(tilt_x @ flip).T)
        assert not (camera.pixel_dirs_world()[..., 2] < -1e-9).all()
        frame = assert_renders_like_full_march(cluttered_world, camera)
        assert frame.valid.any() and not frame.valid.all()

    def test_boxes_out_of_view_are_culled(self, cluttered_world, monkeypatch):
        camera = nadir_camera([2.0, 3.5, 1.0])   # every box lies beyond this view
        depth, valid, intensity = oracles.render_full_march(cluttered_world, camera)
        calls = []
        real = scene._box_intersect
        monkeypatch.setattr(scene, "_box_intersect",
                            lambda *args: calls.append(1) or real(*args))
        frame = render_true_depth(cluttered_world, camera)
        assert calls == []
        assert np.array_equal(frame.depth, depth)
        assert np.array_equal(frame.valid, valid)
        assert np.array_equal(frame.intensity, intensity)

    @pytest.mark.parametrize("x, y", [(5.6, 4.9), (5.6, 6.7), (4.6, 5.8), (6.6, 5.8)])
    def test_box_at_the_edge_of_view_is_kept(self, cluttered_world, monkeypatch, x, y):
        # the box at (5.6, 5.8) spans x 5.2..6.0 and y 5.5..6.1; 0.6 m from
        # one of its faces, the view sees that face, nearer than the ground
        # 1.35 m or more below the camera
        camera = nadir_camera([x, y, 1.5])
        calls = []
        real = scene._box_intersect
        monkeypatch.setattr(scene, "_box_intersect",
                            lambda *args: calls.append(1) or real(*args))
        frame = render_true_depth(cluttered_world, camera)
        assert len(calls) == 1
        assert (frame.depth[frame.valid] < 1.3).any()
        monkeypatch.undo()
        assert_renders_like_full_march(cluttered_world, camera)


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

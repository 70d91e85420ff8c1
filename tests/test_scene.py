import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeland import scene
from safeland.params import ConfigError, Params, validate
from safeland.scene import (Box, CameraModel, FlatPatch, NoiseModel, Scenario,
                            build_world, corrupt, load_scenario, render_true_depth)

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
        camera = CameraModel(96, 72, 72.0, [3.15, 2.5, 5.0])
        frame = render_true_depth(world, camera)
        # center pixel looks at the overlap: depth to the shared top
        assert frame.depth[36, 48] == pytest.approx(4.0, abs=1e-9)

    def test_texture_in_unit_range(self):
        world = build_world(make_flat_scenario())
        assert world.texture.min() >= 0.0 and world.texture.max() <= 1.0


class TestRender:
    def test_nadir_flat_ground_depth_equals_altitude_exactly(self):
        world = build_world(make_flat_scenario(extent=(12.0, 10.0)))
        camera = CameraModel(96, 72, 72.0, [6.0, 5.0, 5.0])
        frame = render_true_depth(world, camera)
        assert frame.valid.all()
        assert np.abs(frame.depth - 5.0).max() < 1e-9

    def test_box_top_under_center_reads_offset_depth(self):
        sc = make_flat_scenario(obstacles=(
            Box(center=(3.0, 2.5), extents=(1.0, 1.0), height=1.0),))
        world = build_world(sc)
        camera = CameraModel(96, 72, 72.0, [3.0, 2.5, 5.0])
        frame = render_true_depth(world, camera)
        h, w = frame.depth.shape
        assert frame.depth[h // 2, w // 2] == pytest.approx(4.0, abs=1e-9)

    def test_rough_terrain_matches_per_pixel_raymarch_oracle(self):
        sc = Scenario(terrain="rough", extent=(6.0, 5.0), texture_seed=13,
                      rough_amplitude=0.2, rough_scale=0.3)
        world = build_world(sc)
        camera = CameraModel(48, 36, 40.0, [3.0, 2.5, 4.0])
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
        camera = CameraModel(96, 72, 30.0, [0.2, 0.2, 4.0])
        frame = render_true_depth(flat_world, camera)
        assert not frame.valid.all()
        assert frame.valid[36, 48]  # straight-down ray still lands inside

    def test_rendering_is_pure(self, flat_world):
        camera = CameraModel(96, 72, 72.0, [3.0, 2.5, 3.0])
        a = render_true_depth(flat_world, camera)
        b = render_true_depth(flat_world, camera)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.valid, b.valid)
        assert np.array_equal(a.intensity, b.intensity)

    def test_camera_below_local_terrain_rejected(self, flat_world):
        with pytest.raises(ValueError):
            render_true_depth(flat_world, CameraModel(96, 72, 72.0, [3.0, 2.5, -0.5]))


def assert_renders_like_full_march(world, camera):
    depth, valid, intensity = oracles.render_full_march(world, camera)
    frame = render_true_depth(world, camera)
    assert np.array_equal(frame.depth, depth)
    assert np.array_equal(frame.valid, valid)
    assert np.array_equal(frame.intensity, intensity)
    return frame


@pytest.fixture(scope="module")
def cluttered_world():
    return build_world(load_scenario(SCENARIO_DIR / "cluttered.yaml"))


def spy_box_hits(monkeypatch) -> list:
    """The list that collects each answer of ``scene._box_intersect`` while the patch holds."""
    hits = []
    real = scene._box_intersect
    monkeypatch.setattr(scene, "_box_intersect",
                        lambda *args: hits.append(real(*args)) or hits[-1])
    return hits


class TestBoundedMarch:
    """The windowed march and the box cull against the full-lattice renderer."""

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
                    cluttered_world, CameraModel(96, 72, 72.0, [x, y, z]))

    @pytest.mark.parametrize("position", [
        (0.3, 0.4, 5.0),
        # beyond the edge: rays enter the world late in the march, after
        # every ray in the world has passed under the lowest terrain
        (-0.3, 3.5, 1.5),
    ])
    def test_view_leaving_the_world_renders_bit_exact(self, cluttered_world, position):
        frame = assert_renders_like_full_march(
            cluttered_world, CameraModel(96, 72, 72.0, list(position)))
        assert frame.valid.any() and not frame.valid.all()

    def test_terrain_just_beyond_the_view_bounds_the_window(self):
        # a 0.3 m ridge on the node column one cell past the view's right
        # edge: the edge rays meet its slope above the flat ground in view
        world = build_world(make_flat_scenario(extent=(6.0, 5.0)))
        heights = world.heights.copy()
        heights[:, 37] = 0.3
        ridge = dataclasses.replace(world, heights=heights)
        frame = assert_renders_like_full_march(
            ridge, CameraModel(96, 72, 72.0, [3.0, 2.5, 1.0]))
        assert frame.depth[36, -1] < frame.depth[36, 48] - 0.05

    @pytest.mark.parametrize("x, y", [(5.6, 5.8), (4.9, 5.8), (5.6, 5.3)])
    def test_odd_camera_with_a_box_in_view_renders_bit_exact(self, cluttered_world, x, y):
        # 17 x 13 px: the principal point sits on a pixel centre, so the
        # middle column and row run parallel to the box's x and y faces;
        # over the box at (5.6, 5.8), beside it in x, and beside it in y
        camera = CameraModel(17, 13, 10.0, [x, y, 2.0])
        xd, yd = camera.rays()
        assert xd[8] == 0.0 and yd[6] == 0.0
        frame = assert_renders_like_full_march(cluttered_world, camera)
        assert (frame.depth[frame.valid] < 1.0).any()   # the 1.1 m box top

    def test_boxes_out_of_view_are_culled(self, cluttered_world, monkeypatch):
        camera = CameraModel(96, 72, 72.0, [2.0, 3.5, 1.0])   # every box lies beyond this view
        depth, valid, intensity = oracles.render_full_march(cluttered_world, camera)
        hits = spy_box_hits(monkeypatch)
        frame = render_true_depth(cluttered_world, camera)
        assert len(hits) == len(cluttered_world.obstacles)
        assert all(hit is None for hit in hits)
        assert np.array_equal(frame.depth, depth)
        assert np.array_equal(frame.valid, valid)
        assert np.array_equal(frame.intensity, intensity)

    @pytest.mark.parametrize("x, y", [(5.6, 4.9), (5.6, 6.7), (4.6, 5.8), (6.6, 5.8)])
    def test_box_at_the_edge_of_view_is_kept(self, cluttered_world, monkeypatch, x, y):
        # the box at (5.6, 5.8) spans x 5.2..6.0 and y 5.5..6.1; 0.6 m from
        # one of its faces, the view sees that face, nearer than the ground
        # 1.35 m or more below the camera
        camera = CameraModel(96, 72, 72.0, [x, y, 1.5])
        hits = spy_box_hits(monkeypatch)
        frame = render_true_depth(cluttered_world, camera)
        assert sum(hit is not None for hit in hits) == 1
        assert (frame.depth[frame.valid] < 1.3).any()
        monkeypatch.undo()
        assert_renders_like_full_march(cluttered_world, camera)


class TestSeparableLookup:
    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-3.0, 12.0), y=st.floats(-3.0, 10.0), z=st.floats(0.2, 8.0),
           width=st.integers(1, 24), height=st.integers(1, 18),
           focal=st.floats(2.0, 80.0), k=st.integers(1, 12))
    def test_lattice_heights_equal_the_pointwise_lookup(self, cluttered_world, x, y, z,
                                                        width, height, focal, k):
        # poses over, near and beyond the 9 m x 7 m heightfield
        camera = CameraModel(width, height, focal, [x, y, z])
        dirs = oracles.nadir_pixel_dirs(camera)
        xd, yd = camera.rays()
        assert dirs[..., 0].tobytes() == np.broadcast_to(xd, (height, width)).tobytes()
        assert dirs[..., 1].tobytes() == np.broadcast_to(
            yd[:, None], (height, width)).tobytes()
        assert camera.pixel_dirs_world().tobytes() == dirs.tobytes()
        ts = np.linspace(0.0, z + 1.0, k)
        origin = camera.position
        px = origin[0] + ts[:, None, None] * dirs[..., 0]
        py = origin[1] + ts[:, None, None] * dirs[..., 1]
        pointwise = cluttered_world.height_at(px, py)
        lattice = scene._lattice_heights(cluttered_world, origin, xd, yd, ts)
        assert lattice.shape == (k, height, width)
        assert lattice.tobytes() == pointwise.tobytes()
        # and both as the scalar bilinear formula gives them
        scalar = [oracles._bilinear_scalar(cluttered_world.heights, cluttered_world.resolution,
                                           a, b, -1e30) for a, b in zip(px.flat, py.flat)]
        assert np.array_equal(pointwise.ravel(), scalar)

    @pytest.mark.parametrize("shape", [(1, 31), (31, 1), (1, 1), "undersized"])
    @pytest.mark.parametrize("width, height", [(1, 9), (9, 1), (1, 1), (12, 9)])
    def test_degenerate_heightfields_equal_the_pointwise_lookup(self, shape, width, height):
        # on a heightfield one node tall or wide the lookup's lower corner
        # index is -1, which wraps to the last node
        if shape == "undersized":
            world = build_world(load_scenario(SCENARIO_DIR / "undersized.yaml"))
        else:
            world = scene.World(heights=np.random.default_rng(sum(shape)).normal(0.0, 0.2, shape),
                                texture=np.zeros((5, 5)), resolution=0.1)
        # on the heightfield's corner and edges, and views that leave it
        for x, y, z in ((0.0, 0.0, 1.0), (1.5, 0.0, 2.0), (0.0, 1.5, 0.5),
                        (-0.3, 0.02, 0.5), (4.0, 3.0, 4.0), (8.5, 6.5, 3.0)):
            camera = CameraModel(width, height, 4.0, [x, y, z])
            xd, yd = camera.rays()
            for k in (1, 5):
                ts = np.linspace(0.1, z + 1.0, k)
                px = x + ts[:, None, None] * xd[None, None, :]
                py = y + ts[:, None, None] * yd[None, :, None]
                pointwise = world.height_at(px, py)
                lattice = scene._lattice_heights(world, camera.position, xd, yd, ts)
                assert lattice.shape == (k, height, width)
                assert lattice.tobytes() == pointwise.tobytes()


class TestLatticeCoords:
    """The lattice rule shared by the bilinear samplers, one coordinate at a time."""

    @pytest.mark.parametrize("x, n, i0, inside", [
        (-0.5, 5, 0, False),     # below the first node: its weights
        (0.0, 5, 0, True),       # on the first node
        (1.25, 5, 1, True),
        (2.0, 5, 2, True),       # on an inner node: its lower cell
        (3.999, 5, 3, True),
        (4.0, 5, 3, True),       # on the last node: the last cell, fraction 1
        (4.5, 5, 3, False),      # beyond the last node: its weights
        (0.5, 2, 0, True),       # the smallest lattice with a cell
        (0.0, 1, -1, True),      # one node: i0 -1 wraps to node 0
    ])
    def test_matches_the_scalar_rule(self, x, n, i0, inside):
        got_i0, f, e, got_inside = scene._lattice_coords(np.array([x]), n)
        xc = min(max(x, 0.0), n - 1)
        assert got_i0.dtype == np.int64 and got_i0.tolist() == [i0]
        assert f.tolist() == [xc - i0] and e.tolist() == [1.0 - (xc - i0)]
        assert got_inside.tolist() == [inside]
        assert 0.0 <= f[0] <= 1.0


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


class TestDomains:
    @pytest.mark.parametrize("cls", [Params, Scenario, NoiseModel, Box, FlatPatch])
    def test_every_number_declares_a_domain(self, cls):
        not_numbers = {"terrain", "name", "flat_patches", "obstacles", "noise"}
        for f in dataclasses.fields(cls):
            assert (f.name in not_numbers) != ("domain" in f.metadata), \
                f"{cls.__name__}.{f.name}"

    @pytest.mark.parametrize("make, name", [
        (lambda: validate(Params(f_max=True)), "f_max"),
        (lambda: validate(Params(f_max=30.0)), "f_max"),
        (lambda: validate(Params(alpha="0.9")), "alpha"),
        (lambda: Scenario(texture_seed=1.0), "texture_seed"),
        (lambda: Scenario(altitude=False), "altitude"),
        (lambda: Scenario(rough_scale="1e-3"), "rough_scale"),
        (lambda: Scenario(extent=[9.0, 7.0]), "extent"),
        (lambda: Scenario(extent=(9.0, 7.0, 1.0)), "extent"),
        (lambda: Scenario(start=(1.0, "2")), "start[1]"),
        (lambda: dataclasses.replace(Scenario(), camera_height=0), "camera_height"),
        (lambda: FlatPatch(center=None), "center"),
        (lambda: NoiseModel(burst_magnitude=math.inf), "burst_magnitude"),
        (lambda: Params(alpha=1.0), "alpha"),
        (lambda: dataclasses.replace(Params(), tau=2.0), "tau"),
    ])
    def test_wrong_type_shape_or_value_names_the_field(self, make, name):
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)}="):
            make()

    # every real-valued field of the scenario dataclasses; a tuple's first element
    @pytest.mark.parametrize("base, f", [
        pytest.param(base, f, id=f"{type(base).__name__}-{f.name}")
        for base in (Scenario(), NoiseModel(), Box((1.0, 1.0), (1.0, 1.0), 1.0),
                     FlatPatch(center=(1.0, 1.0)))
        for f in dataclasses.fields(base) if "domain" in f.metadata and f.type != "int"])
    def test_nan_names_the_field(self, base, f):
        pair = f.type.startswith("tuple")
        value, shown = ((math.nan, 1.0), f"{f.name}[0]") if pair else (math.nan, f.name)
        with pytest.raises(ConfigError, match=rf"^{re.escape(shown)}=nan outside domain"):
            dataclasses.replace(base, **{f.name: value})

    def test_float_field_takes_an_int(self):
        assert Scenario(altitude=3, extent=(9, 7)).altitude == 3
        assert validate(Params(alpha=0.9, f_s=20)).f_s == 20

    def test_shipped_scenarios_and_the_bench_variant_load(self):
        cluttered = load_scenario(SCENARIO_DIR / "cluttered.yaml")
        assert cluttered.flat_patches[1] == FlatPatch(center=(7.2, 5.3), height=0.3,
                                                      half_extents=(0.45, 0.75))
        assert cluttered.obstacles[2] == Box((5.6, 5.8), (0.8, 0.6), 1.1)
        assert cluttered.noise == NoiseModel(sigma_range=0.02, dropout_prob=0.05,
                                             burst_prob=0.05, burst_magnitude=0.5)
        assert load_scenario(SCENARIO_DIR / "flat.yaml").start == (5.8, 3.9)
        undersized = load_scenario(SCENARIO_DIR / "undersized.yaml")
        assert (undersized.name, undersized.extent) == ("undersized", (8.0, 6.0))
        hires = dataclasses.replace(undersized, camera_width=192, camera_height=144,
                                    camera_focal=144.0)
        assert (hires.camera_width, hires.camera_height) == (192, 144)

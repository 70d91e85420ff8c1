import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from safeland import perception
from safeland.perception import (_ASSOC_RES, CueVector, PlaneFit, RegionMask,
                                 _screen_result, compute_cues, extract_regions, fit_plane,
                                 screen_frame, tls_plane)
from safeland.scene import (Box, CameraModel, Scenario, build_world,
                            render_true_depth)
from safeland.selector import inscribed_distance_sq

import oracles
from conftest import frame_region, make_flat_scenario, region_box, synthetic_frame


@st.composite
def depth_frames(draw):
    """Depth up to 16×16 on a 1/32 m lattice, with dropout holes, and a window size."""
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    depth = draw(arrays(float, (h, w), elements=st.sampled_from(
        [2.0] * 6 + [2.03125, 2.0625, 2.25]), fill=st.nothing()))
    valid = draw(arrays(bool, (h, w), elements=st.sampled_from([True, True, True, False]),
                        fill=st.nothing()))
    return depth, valid, draw(st.integers(3, 6))


def lattice_frame(h: int, w: int, holes: list[tuple[int, int]], k: int = 3):
    """A fixed h×w depth frame on a 1/32 m lattice with the given (v, u) holes."""
    depth = 2.0 + np.random.default_rng(h * w).integers(0, 3, (h, w)) / 32.0
    valid = np.ones((h, w), dtype=bool)
    for v, u in holes:
        valid[v, u] = False
    return depth, valid, k


class TestScreenFrame:
    def test_obstacle_distance_map_matches_brute_force(self, params):
        sc = make_flat_scenario(extent=(9.0, 7.0), obstacles=(
            Box(center=(3.5, 3.0), extents=(0.6, 0.8), height=0.8),
            Box(center=(5.6, 4.2), extents=(0.4, 0.4), height=1.2)))
        world = build_world(sc)
        frame = render_true_depth(world, CameraModel(96, 72, 72.0, [4.5, 3.5, 5.0]))
        screen = screen_frame(frame, params)
        assert screen.obstacle_mask.any()
        ref = np.sqrt(oracles.brute_force_distance_sq(screen.obstacle_mask).astype(float))
        assert np.array_equal(screen.obstacle_dist_px, ref)

    def test_obstacle_distance_is_inf_without_obstacles(self, params, flat_frame):
        screen = screen_frame(flat_frame, params)
        assert not screen.obstacle_mask.any()
        assert np.all(np.isposinf(screen.obstacle_dist_px))

    # the examples, in order: a hole in the middle of each border; an invalid
    # first column; one-pixel-wide rows and columns; a pixel, (1, 4), whose
    # window holds exactly max(3, k²/3) valid pixels
    @settings(max_examples=300, deadline=None)
    @given(case=depth_frames())
    @example(case=lattice_frame(6, 7, holes=[(0, 3), (5, 3), (2, 0), (3, 6)]))
    @example(case=lattice_frame(5, 6, holes=[(v, 0) for v in range(5)]))
    @example(case=lattice_frame(1, 9, holes=[(0, 4)]))
    @example(case=lattice_frame(9, 1, holes=[(4, 0)], k=4))
    @example(case=lattice_frame(1, 1, holes=[]))
    @example(case=(np.full((4, 5), 2.0), ~np.isin(np.arange(20).reshape(4, 5), [3, 4, 13]), 3))
    def test_pass_mask_equals_the_per_pixel_rules(self, params, case):
        depth, valid, k = case
        frame = synthetic_frame(depth, valid=valid)
        with mock.patch.object(perception, "_SCREEN_K", k):
            screen = screen_frame(frame, params)
        got = frame.valid & ~screen.obstacle_mask
        want, near = oracles.screen_pass_mask(depth, valid, frame.camera.position[2],
                                              k, params.v_max, params.g_max)
        assert np.array_equal(got[~near], want[~near])


class TestExtractRegions:
    def test_flat_frame_yields_single_region_of_all_valid_pixels(self, params):
        world = build_world(make_flat_scenario())
        frame = render_true_depth(world, CameraModel(96, 72, 72.0, [3.0, 2.5, 2.2]))
        regions = extract_regions(frame, screen_frame(frame, params))
        assert len(regions) == 1
        assert int(regions[0].box_pixels.sum()) == int(frame.valid.sum())
        assert np.array_equal(regions[0].pixels, frame.valid)

    def test_wall_bisects_frame_into_two_regions(self, params):
        sc = make_flat_scenario(extent=(9.0, 7.0), obstacles=(
            Box(center=(4.5, 3.5), extents=(0.2, 7.0), height=1.0),))
        world = build_world(sc)
        frame = render_true_depth(world, CameraModel(96, 72, 72.0, [4.5, 3.5, 5.0]))
        regions = extract_regions(frame, screen_frame(frame, params))
        assert len(regions) == 2
        # each reported region is one 4-connected component of the oracle
        for region in regions:
            labels = oracles.flood_fill_labels(region.pixels)
            assert labels.max() == 1

    @pytest.mark.parametrize("name", ["flat", "cluttered", "undersized"])
    def test_footprint_is_the_cells_of_its_ground_points(self, params, episode_frames, name):
        for frame in episode_frames[name][1]:
            for region in extract_regions(frame, screen_frame(frame, params)):
                sel = region.pixels & frame.valid
                vs, us = np.nonzero(sel)
                ground = oracles.backproject(frame.camera, us, vs, frame.depth[sel])[:, :2]
                want = oracles.footprint_keys(np.floor(ground / _ASSOC_RES))
                assert region.ground_footprint.dtype == want.dtype
                assert np.array_equal(region.ground_footprint, want)

    def test_all_invalid_frame_yields_empty_list(self, params):
        depth = np.full((72, 96), 5.0)
        frame = synthetic_frame(depth, valid=np.zeros_like(depth, dtype=bool))
        assert extract_regions(frame, screen_frame(frame, params)) == []

    def test_regions_disjoint_and_four_connected(self, params):
        sc = Scenario(terrain="rough", extent=(9.0, 7.0), texture_seed=3,
                      rough_amplitude=0.15, rough_scale=0.25,
                      flat_patches=(), obstacles=(
                          Box(center=(6.2, 2.0), extents=(0.7, 0.7), height=0.9),))
        world = build_world(sc)
        frame = render_true_depth(world, CameraModel(96, 72, 72.0, [4.5, 3.5, 5.0]))
        regions = extract_regions(frame, screen_frame(frame, params))
        occupancy = np.zeros(frame.depth.shape, dtype=int)
        for region in regions:
            occupancy += region.pixels
            assert oracles.flood_fill_labels(region.pixels).max() == 1
        assert occupancy.max() <= 1

    def test_interior_dropout_does_not_shrink_region(self, params):
        world = build_world(make_flat_scenario())
        frame = render_true_depth(world, CameraModel(96, 72, 72.0, [3.0, 2.5, 2.2]))
        valid = frame.valid.copy()
        rng = np.random.default_rng(0)
        holes = rng.random(valid.shape) < 0.05
        valid &= ~holes
        holey = dataclasses.replace(frame, valid=valid,
                                    depth=np.where(valid, frame.depth, 0.0))
        regions = extract_regions(holey, screen_frame(holey, params))
        assert len(regions) == 1
        # interior dropped pixels stay inside the mask so clearance isn't punctured
        interior = np.zeros_like(holes)
        interior[3:-3, 3:-3] = True
        assert regions[0].pixels[holes & frame.valid & interior].all()

    def test_mostly_invalid_region_dropped(self, params):
        world = build_world(make_flat_scenario())
        frame = render_true_depth(world, CameraModel(96, 72, 72.0, [3.0, 2.5, 2.2]))
        valid = frame.valid.copy()
        rng = np.random.default_rng(1)
        valid &= rng.random(valid.shape) > 0.5
        holey = dataclasses.replace(frame, valid=valid,
                                    depth=np.where(valid, frame.depth, 0.0))
        assert extract_regions(holey, screen_frame(holey, params)) == []

    def test_sorted_by_area_descending(self, params):
        sc = make_flat_scenario(extent=(9.0, 7.0), obstacles=(
            Box(center=(3.0, 3.5), extents=(0.2, 7.0), height=1.0),))
        world = build_world(sc)
        frame = render_true_depth(world, CameraModel(96, 72, 72.0, [4.5, 3.5, 5.0]))
        regions = extract_regions(frame, screen_frame(frame, params))
        areas = [int(r.box_pixels.sum()) for r in regions]
        assert areas == sorted(areas, reverse=True)

    def test_equal_areas_keep_label_order(self):
        # components of 4, 8 and 4 px, labelled left to right
        classes = screened("..#....#..", "..#....#..")
        valid, passing = classes != 2, classes == 0
        frame = synthetic_frame(np.full(classes.shape, 5.0), valid=valid)
        with mock.patch.object(perception, "_A_MIN", 1):
            regions = extract_regions(frame, _screen_result(passing, valid))
        assert [int(r.box_pixels.sum()) for r in regions] == [8, 4, 4]
        assert [r.box[1].start for r in regions] == [3, 0, 8]

    def test_region_of_exactly_a_min_pixels_is_kept(self, params):
        sc = make_flat_scenario(extent=(9.0, 7.0), obstacles=(
            Box(center=(3.0, 3.5), extents=(0.2, 7.0), height=1.0),))
        frame = render_true_depth(build_world(sc),
                                  CameraModel(96, 72, 72.0, [4.5, 3.5, 5.0]))
        screen = screen_frame(frame, params)
        areas = [int(r.box_pixels.sum()) for r in extract_regions(frame, screen)]
        smallest = areas[-1]
        with mock.patch.object(perception, "_A_MIN", smallest):
            at_min = extract_regions(frame, screen)
        assert [int(r.box_pixels.sum()) for r in at_min] == areas
        with mock.patch.object(perception, "_A_MIN", smallest + 1):
            above_min = extract_regions(frame, screen)
        assert [int(r.box_pixels.sum()) for r in above_min] == [a for a in areas if a > smallest]


def screened(*rows: str) -> np.ndarray:
    """Pixel classes of a screened frame: '.' passes, '#' obstacle, 'x' invalid."""
    return np.array([[".#x".index(c) for c in row] for row in rows], dtype=np.int8)


@st.composite
def screened_frames(draw):
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    classes = draw(arrays(np.int8, (h, w), elements=st.sampled_from([0, 0, 0, 1, 2]),
                          fill=st.nothing()))
    return classes, draw(st.integers(1, 6)), draw(st.sampled_from([0.0, 0.3, 0.9]))


class TestClearance:
    """A region's rho and center are those of its own exact inscribed distance transform."""

    # the examples, in order: a region touching every edge; components
    # touching only diagonally; invalid holes; a component dropped by
    # a_min; one dropped by max_invalid_frac; no obstacle; 1 px wide; 1 px tall
    @settings(max_examples=300, deadline=None)
    @given(case=screened_frames())
    @example(case=(screened(".......", ".......", "...#...", ".......", "......."), 1, 0.3))
    @example(case=(screened("..##", "..##", "##..", "##.."), 1, 0.3))
    @example(case=(screened("......", ".x..x.", "......", "..xx#.", "......"), 1, 0.3))
    @example(case=(screened("....#..", "....#..", "#####..", "..#....", ".x#...."), 5, 0.3))
    @example(case=(screened("xx#...", "xx#...", "x.#...", "###..."), 1, 0.3))
    @example(case=(screened("....", "..x.", "...."), 1, 0.3))
    @example(case=(screened(".", ".", "#", ".", "x", "."), 1, 0.9))
    @example(case=(screened(".#..x..#."), 1, 0.9))
    def test_equals_per_mask_transform(self, case):
        classes, a_min, max_invalid_frac = case
        valid, passing = classes != 2, classes == 0
        frame = synthetic_frame(np.full(classes.shape, 5.0), valid=valid)
        with mock.patch.object(perception, "_A_MIN", a_min), \
                mock.patch.object(perception, "_MAX_INVALID_FRAC", max_invalid_frac):
            regions = extract_regions(frame, _screen_result(passing, valid))
        for region in regions:
            mask = region.pixels
            per_mask = inscribed_distance_sq(mask)
            brute = np.where(mask, oracles.brute_force_distance_sq(~mask, pad_with_targets=True), 0)
            assert np.array_equal(per_mask, brute)
            v, u = np.unravel_index(int(np.argmax(brute)), mask.shape)
            gsd = region.mean_depth / frame.camera.focal_length
            assert region.rho == float(np.sqrt(float(brute[v, u]))) * gsd
            center = frame.camera.backproject(u, v, region.mean_depth)
            assert region.center.tobytes() == center.tobytes()


class TestFitPlane:
    def test_exact_level_plane(self, params):
        depth = np.full((40, 60), 5.0)
        frame = synthetic_frame(depth)
        fit = fit_plane(frame, frame_region(frame, np.ones_like(depth, dtype=bool)))
        assert fit is not None
        assert np.allclose(fit.normal, [0.0, 0.0, -1.0], atol=1e-12)
        assert fit.rms_residual == pytest.approx(0.0, abs=1e-9)

    def test_tilted_plane_recovers_analytic_normal(self):
        # plane z = 5 + 0.1 x in camera coordinates
        h, w, f = 40, 60, 72.0
        xn = (np.arange(w) - (w - 1) / 2.0) / f
        depth = np.tile(5.0 / (1.0 - 0.1 * xn), (h, 1))
        frame = synthetic_frame(depth, focal=f)
        fit = fit_plane(frame, frame_region(frame, np.ones_like(depth, dtype=bool)))
        expected = np.array([0.1, 0.0, -1.0])
        expected /= np.linalg.norm(expected)
        assert np.allclose(fit.normal, expected, atol=1e-6)
        assert fit.rms_residual < 1e-9

    def test_noisy_plane_rms_and_normal_within_band(self):
        rng = np.random.default_rng(42)
        h, w, f = 25, 20, 72.0   # 500 points
        depth = np.full((h, w), 5.0) + rng.normal(0.0, 0.005, size=(h, w))
        frame = synthetic_frame(depth, focal=f)
        fit = fit_plane(frame, frame_region(frame, np.ones_like(depth, dtype=bool)))
        assert 0.0035 <= fit.rms_residual <= 0.0065
        angle = math.degrees(math.acos(min(abs(fit.normal @ np.array([0, 0, -1.0])), 1.0)))
        assert angle < 1.0
        # cross-check against an independent SVD fit on the same points
        sel = frame.valid
        dirs = frame.camera.pixel_dirs_world()[sel] * [1.0, -1.0, -1.0]   # camera frame
        pts = dirs * frame.depth[sel][:, None]
        normal_ref, rms_ref, _ = oracles.svd_plane_fit(pts)
        assert np.allclose(np.abs(fit.normal), np.abs(normal_ref), atol=1e-9)
        assert fit.rms_residual == pytest.approx(rms_ref, abs=1e-12)

    def test_degenerate_inputs_return_none(self):
        depth = np.full((10, 10), 5.0)
        frame = synthetic_frame(depth)
        two_px = np.zeros((10, 10), dtype=bool)
        two_px[2, 2] = two_px[3, 3] = True
        assert fit_plane(frame, frame_region(frame, two_px)) is None
        collinear = np.zeros((10, 10), dtype=bool)
        collinear[5, :] = True   # one image row of a level plane: collinear ray hits
        assert fit_plane(frame, frame_region(frame, collinear)) is None

    @pytest.mark.parametrize("name", ["flat", "cluttered", "undersized"])
    def test_region_box_equals_its_full_frame_mask(self, params, episode_frames, name):
        for frame in episode_frames[name][1]:
            for region in extract_regions(frame, screen_frame(frame, params)):
                # camera-frame points back-projected from the full-frame mask
                sel = region.pixels & frame.valid
                vs, us = np.nonzero(sel)
                xn, yn = frame.camera.normalized(us, vs)
                d = frame.depth[sel]
                whole = tls_plane(np.stack([xn * d, yn * d, d], axis=-1))
                boxed = fit_plane(frame, region)
                assert (boxed is None) == (whole is None)
                if boxed is not None:
                    assert boxed.normal.tobytes() == whole.normal.tobytes()
                    assert boxed.rms_residual == whole.rms_residual

    def test_order_and_duplication_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(60, 3)) * [1.0, 1.0, 0.02] + [0, 0, 4.0]
        base = tls_plane(pts)
        shuffled = tls_plane(pts[rng.permutation(60)])
        doubled = tls_plane(np.vstack([pts, pts]))
        assert np.allclose(base.normal, shuffled.normal, atol=1e-12)
        assert np.allclose(base.normal, doubled.normal, atol=1e-9)
        assert base.rms_residual == pytest.approx(doubled.rms_residual, abs=1e-12)


def oracle_distance_px(obstacle: np.ndarray) -> np.ndarray:
    """Obstacle distance map from the brute-force oracle; inf without obstacles."""
    if not obstacle.any():
        return np.full(obstacle.shape, np.inf)
    return np.sqrt(oracles.brute_force_distance_sq(obstacle).astype(float))


class TestComputeCues:
    def _region_for(self, frame, screen):
        regions = extract_regions(frame, screen)
        assert regions
        return regions[0]

    def test_flat_level_ground_no_obstacles_gives_zero_cues(self, params):
        world = build_world(make_flat_scenario())
        frame = render_true_depth(world, CameraModel(96, 72, 72.0, [3.0, 2.5, 2.2]))
        screen = screen_frame(frame, params)
        region = self._region_for(frame, screen)
        fit = fit_plane(frame, region)
        cues = compute_cues(region, fit,
                            oracle_distance_px(screen.obstacle_mask), params)
        assert cues.flatness == pytest.approx(0.0, abs=1e-7)
        assert cues.slope == pytest.approx(0.0, abs=1e-6)
        assert cues.obstacle == 0.0

    def test_ramp_slope_matches_grade_angle(self, params):
        sc = Scenario(terrain="ramp", extent=(9.0, 7.0), ramp_grade_deg=10.0,
                      texture_seed=2)
        world = build_world(sc)
        frame = render_true_depth(world, CameraModel(96, 72, 72.0, [4.5, 3.5, 4.0]))
        screen = screen_frame(frame, params)
        region = self._region_for(frame, screen)
        fit = fit_plane(frame, region)
        cues = compute_cues(region, fit,
                            oracle_distance_px(screen.obstacle_mask), params)
        assert cues.slope == pytest.approx(math.radians(10.0), abs=1e-3)

    def test_obstacle_score_at_one_meter(self, params):
        # gsd = depth / focal = 5 / 50 = 0.1 m/px; obstacles fill a column
        # 10 px left of a 3x3 region block: mean pixel distance 10 -> 1.0 m
        h, w = 40, 60
        depth = np.full((h, w), 5.0)
        frame = synthetic_frame(depth, focal=50.0)
        obstacle = np.zeros((h, w), dtype=bool)
        obstacle[:, 10] = True
        pixels = np.zeros((h, w), dtype=bool)
        pixels[19:22, 19:22] = True
        region = RegionMask(**region_box(pixels), ground_footprint=np.zeros(1, dtype=np.int64),
                            mean_depth=5.0, camera=frame.camera)
        fit = PlaneFit(normal=np.array([0.0, 0.0, -1.0]), rms_residual=0.0)
        cues = compute_cues(region, fit,
                            oracle_distance_px(obstacle), params)
        assert cues.obstacle == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_obstacle_score_zero_when_no_obstacles(self, params):
        depth = np.full((20, 20), 5.0)
        frame = synthetic_frame(depth)
        pixels = np.ones((20, 20), dtype=bool)
        region = RegionMask(**region_box(pixels), ground_footprint=np.zeros(1, dtype=np.int64),
                            mean_depth=5.0, camera=frame.camera)
        fit = PlaneFit(normal=np.array([0.0, 0.0, -1.0]), rms_residual=0.0)
        cues = compute_cues(region, fit,
                            oracle_distance_px(np.zeros((20, 20), dtype=bool)), params)
        assert cues.obstacle == 0.0

    def test_obstacle_score_monotone_in_distance(self, params):
        h, w = 40, 60
        depth = np.full((h, w), 5.0)
        frame = synthetic_frame(depth, focal=50.0)
        pixels = np.zeros((h, w), dtype=bool)
        pixels[19:22, 29:32] = True
        region = RegionMask(**region_box(pixels), ground_footprint=np.zeros(1, dtype=np.int64),
                            mean_depth=5.0, camera=frame.camera)
        fit = PlaneFit(normal=np.array([0.0, 0.0, -1.0]), rms_residual=0.0)
        scores = []
        for col in (25, 18, 10, 2):
            obstacle = np.zeros((h, w), dtype=bool)
            obstacle[:, col] = True
            cues = compute_cues(region, fit,
                                oracle_distance_px(obstacle), params)
            scores.append(cues.obstacle)
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_slope_invariant_to_normal_sign(self, params):
        depth = np.full((20, 20), 5.0)
        frame = synthetic_frame(depth)
        pixels = np.ones((20, 20), dtype=bool)
        region = RegionMask(**region_box(pixels), ground_footprint=np.zeros(1, dtype=np.int64),
                            mean_depth=5.0, camera=frame.camera)
        n = np.array([0.1, 0.0, -1.0])
        n /= np.linalg.norm(n)
        cues_a = compute_cues(region,
                              PlaneFit(n, 0.0),
                              oracle_distance_px(np.zeros((20, 20), dtype=bool)), params)
        cues_b = compute_cues(region,
                              PlaneFit(-n, 0.0),
                              oracle_distance_px(np.zeros((20, 20), dtype=bool)), params)
        assert cues_a.slope == pytest.approx(cues_b.slope, abs=1e-15)

    def test_cue_vector_validation(self):
        with pytest.raises(ValueError):
            CueVector(flatness=-0.1, slope=0.0, obstacle=0.0)
        with pytest.raises(ValueError):
            CueVector(flatness=0.0, slope=0.0, obstacle=float("nan"))

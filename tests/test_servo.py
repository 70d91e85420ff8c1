import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from scipy import ndimage

from safeland import servo
from safeland.servo import (_COMMIT_WINDOW_PX, _MARGIN, _MSE_MAX, _N_MIN, _PATCH_RADIUS, HOVER,
                            FeatureSet, _hypot, _match_points, _sample_patches,
                            _warp_template, acquire, control, detect_and_track,
                            detect_features, ibvs_velocity, interaction_matrix)

import oracles
from conftest import start_features, synthetic_frame


def textured_image(seed: int = 0, h: int = 72, w: int = 96) -> np.ndarray:
    rng = np.random.default_rng(seed)
    img = rng.random((h + 20, w + 20))
    img = ndimage.uniform_filter(img, size=3)
    return np.ascontiguousarray(img[10:10 + h, 10:10 + w])


class TestTracking:
    def test_static_scene_zero_drift_over_many_frames(self, params):
        img = textured_image()
        allowed = np.ones_like(img, dtype=bool)
        fs = start_features(img, allowed, z_now=5.0)
        assert fs.n_t > 10
        first = fs.points.copy()
        anchor0 = fs.anchor_px.copy()
        for _ in range(10):
            fs = detect_and_track(img, allowed, fs, params, z_now=5.0)
            assert np.array_equal(fs.points, first)
            assert np.array_equal(fs.anchor_px, anchor0)

    def test_pure_translation_shifts_all_points(self, params):
        img = textured_image(seed=1)
        allowed = np.zeros_like(img, dtype=bool)
        allowed[:, : img.shape[1] - 20] = True   # keep room to shift right
        fs = start_features(img, allowed, z_now=5.0)
        assert fs.n_t > 5
        shifted = np.roll(img, 10, axis=1)
        fs2 = detect_and_track(shifted, np.ones_like(allowed), fs, params,
                               z_now=5.0)
        assert fs2.n_t > 0
        # match survivors by nearest original point
        for p_new in fs2.points:
            d = np.hypot(fs.points[:, 0] - (p_new[0] - 10.0),
                         fs.points[:, 1] - p_new[1])
            assert d.min() <= 1.0

    def test_textureless_image_reports_tracking_lost(self, params):
        img = textured_image()
        allowed = np.ones_like(img, dtype=bool)
        fs = start_features(img, allowed, z_now=5.0)
        assert fs.n_t > 0
        # no template matches a flat image and re-detection finds no corner
        lost = detect_and_track(np.full(img.shape, 0.5), allowed, fs, params, z_now=5.0)
        assert lost.n_t == 0

    def test_redetection_triggers_below_minimum_population(self, params):
        img = textured_image(seed=2)
        allowed = np.ones_like(img, dtype=bool)
        fs = start_features(img, allowed, z_now=5.0)
        starved = FeatureSet(points=fs.points[:2].copy(),
                             patches=fs.patches[:2].copy(),
                             anchor_px=fs.anchor_px.copy(), ref_z=fs.ref_z)
        fs2 = detect_and_track(img, allowed, starved, params, z_now=5.0)
        assert fs2.n_t >= _N_MIN
        # re-detection alone refreshes every template
        assert np.array_equal(fs2.patches, _sample_patches(img, fs2.points))

    def test_detection_respects_allowed_mask(self, params):
        img = textured_image(seed=3)
        allowed = np.zeros_like(img, dtype=bool)
        allowed[20:50, 30:70] = True
        pts = detect_features(img, allowed)
        assert len(pts) > 0
        assert np.all((pts[:, 0] >= 30) & (pts[:, 0] < 70))
        assert np.all((pts[:, 1] >= 20) & (pts[:, 1] < 50))

    @pytest.mark.parametrize("margin", [1, 4, 7])
    def test_detection_keeps_the_margin(self, margin):
        img = textured_image(seed=3)
        h, w = img.shape
        ring = np.ones_like(img, dtype=bool)
        ring[margin:-margin, margin:-margin] = False
        with mock.patch.object(servo, "_N_MAX", 1000), \
                mock.patch.object(servo, "_MARGIN", margin):
            pts = detect_features(img, np.ones_like(img, dtype=bool))
            # allowed only on the ring outside the margin: nothing to detect
            on_ring = detect_features(img, ring)
        assert len(pts) > 0
        assert np.all((pts >= margin) & (pts <= np.array([w, h]) - 1 - margin))
        assert len(on_ring) == 0

    @pytest.mark.parametrize("name", ["flat", "cluttered", "undersized"])
    def test_refreshed_set_is_whole_pixels_inside_the_margin(self, episode_frames,
                                                             params, name):
        # a starved set tracked onto the next frame at a depth change above
        # the retemplate ratio: the survivors are retemplated and re-detection
        # adds fresh points in the same call
        _, frames = episode_frames[name]
        for a, b in zip(frames[:-1], frames[1:]):
            fs = start_features(a.intensity, a.valid, z_now=5.0)
            starved = dataclasses.replace(fs, points=fs.points[:3], patches=fs.patches[:3])
            with mock.patch.object(servo, "_RETEMPLATE_RATIO", 0.01):
                with mock.patch.object(servo, "_N_MIN", 1):
                    survivors = detect_and_track(b.intensity, b.valid, starved, params,
                                                 z_now=4.9)
                got = detect_and_track(b.intensity, b.valid, starved, params, z_now=4.9)
            assert 0 < survivors.n_t < got.n_t
            # the snapped survivors lead the set, ahead of the fresh points
            assert np.array_equal(got.points[:survivors.n_t], survivors.points)
            pts = got.points
            h, w = b.intensity.shape
            assert np.array_equal(pts, np.round(pts))
            assert np.all((pts >= _MARGIN) & (pts <= np.array([w, h]) - 1 - _MARGIN))
            assert np.array_equal(got.patches,
                                  _sample_patches(b.intensity, pts))
            assert got.ref_z == 4.9


def disk_mask(shape, center, radius):
    """Pixels within ``radius`` of ``center`` (u, v)."""
    vs, us = np.mgrid[:shape[0], :shape[1]]
    return (us - center[0]) ** 2 + (vs - center[1]) ** 2 <= radius ** 2


class TestAcquire:
    """Detection of the initial feature set around a committed center."""

    CENTER = np.array([40.0, 30.0])

    @staticmethod
    def frame(intensity=None):
        depth = 2.0 + np.linspace(0.0, 0.5, 96)[None, :] + np.zeros((72, 1))
        valid = np.ones(depth.shape, dtype=bool)
        valid[:, 44:48] = False
        return synthetic_frame(depth, valid,
                               textured_image(seed=7) if intensity is None else intensity)

    def acquire_in(self, frame, region, radius):
        """The acquired set, checked against the valid disk pixels it searched."""
        searched = disk_mask(region.shape, self.CENTER, radius) & region & frame.valid
        fs = acquire(frame, self.CENTER, region)
        assert np.array_equal(fs.anchor_px, self.CENTER)
        us, vs = fs.points.astype(int).T
        assert fs.n_t > 0 and searched[vs, us].all()
        assert fs.ref_z == float(frame.depth[searched].mean())
        assert np.array_equal(fs.patches, _sample_patches(frame.intensity, fs.points))
        return fs

    def test_anchored_on_the_center_inside_disk_and_region(self):
        frame = self.frame()
        region = np.zeros(frame.valid.shape, dtype=bool)
        region[20:60, 30:70] = True
        self.acquire_in(frame, region, _COMMIT_WINDOW_PX)

    def test_whole_disk_when_the_region_has_no_valid_pixel_there(self):
        frame = self.frame()
        region = np.zeros(frame.valid.shape, dtype=bool)
        region[:, 44:48] = True      # inside the disk, but all invalid
        region[:, 80:] = True        # valid, but outside the disk
        fs = acquire(frame, self.CENTER, region)
        # the same set and depth as a search of the whole disk
        whole = self.acquire_in(frame, np.ones_like(region), _COMMIT_WINDOW_PX)
        assert np.array_equal(fs.points, whole.points) and fs.ref_z == whole.ref_z

    def test_three_times_the_window_when_the_small_one_is_flat(self):
        intensity = textured_image(seed=7)
        # no variance in any 5 x 5 window centred in the small disk
        small = disk_mask(intensity.shape, self.CENTER, _COMMIT_WINDOW_PX)
        intensity[disk_mask(intensity.shape, self.CENTER, _COMMIT_WINDOW_PX + 3)] = 0.5
        fs = self.acquire_in(self.frame(intensity), np.ones_like(small),
                             3 * _COMMIT_WINDOW_PX)
        assert not small[fs.points[:, 1].astype(int), fs.points[:, 0].astype(int)].any()

    def test_textureless_frame_finds_nothing(self):
        frame = self.frame(np.full((72, 96), 0.5))
        assert acquire(frame, self.CENTER, frame.valid) is None


def match_like_reference(intensity, templates, points, params):
    """Batched matches, asserted bit-equal to the per-point reference."""
    pr, sr = _PATCH_RADIUS, params.search_radius
    hits, matched = _match_points(intensity, templates, points, sr)
    for k in range(points.shape[0]):
        ref = oracles.match_point(intensity, templates[k], points[k, 0], points[k, 1],
                                  sr, pr, _MSE_MAX)
        assert bool(matched[k]) == (ref is not None), k
        if ref is not None:
            assert (hits[k, 0], hits[k, 1]) == ref, k
    return hits, matched


class TestBatchedMatcher:
    """The batched matcher and refiner against the per-point reference."""

    @pytest.mark.parametrize("name", ["flat", "cluttered", "undersized"])
    def test_episode_frames_match_bit_exact(self, episode_frames, params, name):
        # features detected on one frame, matched on the next with the
        # template warped by the change in camera height
        _, frames = episode_frames[name]
        for a, b in zip(frames[:-1], frames[1:]):
            fs = start_features(a.intensity, a.valid, z_now=5.0)
            assert fs.n_t > 0
            scale = float(a.camera.position[2] / b.camera.position[2])
            templates = _warp_template(fs.patches, scale)
            for k in range(fs.n_t):
                assert np.array_equal(templates[k],
                                      oracles.warp_template(fs.patches[k], scale))
            match_like_reference(b.intensity, templates, fs.points, params)

    def test_mixed_batch_matches_bit_exact(self, params):
        """One batch holding every way a point can end its match."""
        pr = _PATCH_RADIUS
        h, w = 72, 96
        img = textured_image(seed=4)
        ramp_v = np.arange(h)[:, None]
        ramp_u = np.arange(w)[None, :]
        img[:, 48:] = (0.01 * ramp_u + 0.05 * np.sin(0.7 * ramp_v))[:, 48:]
        img[46:, 8:45] = 0.5 + 1e-4 * ramp_u[:, 8:45]       # nearly flat block

        def patch_at(u, v):
            return img[v - pr: v + pr + 1, u - pr: u + pr + 1].copy()

        cases = [
            ((20.0, 20.0), patch_at(20, 20)),                # exact: zero SSD
            ((5.0, 5.0), oracles.sample_patch(img, 6.3, 7.4, pr)),  # clipped window
            ((6.0, 30.0), patch_at(4, 30)),                  # best on the first valid column
            ((90.0, 66.0), patch_at(88, 65)),                # clipped at the far corner
            ((26.0, 58.0), oracles.sample_patch(img, 26.3, 58.0, pr)),  # det <= 1e-18
            ((62.0, 36.0), patch_at(76, 36)),                # runaway refinement
            ((30.0, 30.0), np.random.default_rng(0).random((2 * pr + 1,) * 2)),  # no match
        ]
        points = np.array([c[0] for c in cases])
        templates = np.array([c[1] for c in cases])
        hits, matched = match_like_reference(img, templates, points, params)
        assert list(matched) == [True, True, True, True, True, True, False]
        assert tuple(hits[0]) == (20.0, 20.0)                # zero drift
        assert tuple(hits[2]) == (4.0, 30.0)
        # the faint ramp has no vertical gradient: the first Gauss-Newton
        # step is singular, so the point stays on its SSD answer although
        # a step would move it 0.3 px toward the template
        assert tuple(hits[4]) == (26.0, 50.0)
        # the runaway point keeps its SSD answer, the window edge, although
        # its first Gauss-Newton step alone moves it a whole pixel
        assert tuple(hits[5]) == (72.0, 36.0)
        one_step = oracles.subpixel_refine(img, templates[5], 72.0, 36.0, pr, iters=1)
        assert one_step[0] == pytest.approx(73.0, abs=1e-9)

    @pytest.mark.parametrize("right, bottom", [(False, False), (True, False),
                                               (False, True), (True, True)],
                             ids=["top-left", "top-right", "bottom-left", "bottom-right"])
    def test_window_leaving_the_image_in_a_corner(self, params, right, bottom):
        """A search radius under the patch radius: on the corner pixel the
        window holds no position whose patch lies inside the image, and
        ``pr - sr`` px in from it exactly one."""
        pr, sr = _PATCH_RADIUS, 2
        img = textured_image(seed=5)
        h, w = img.shape

        def at(d, size, far):
            return size - 1 - d if far else d

        u0, v0 = at(0, w, right), at(0, h, bottom)
        u1, v1 = at(pr - sr, w, right), at(pr - sr, h, bottom)
        uc, vc = at(pr, w, right), at(pr, h, bottom)
        template = img[vc - pr: vc + pr + 1, uc - pr: uc + pr + 1]
        # the corner's patch with the image's edge continued outward: a
        # window that leaves the image must not match even this
        edged = np.pad(img, pr, mode="edge")[v0: v0 + 2 * pr + 1, u0: u0 + 2 * pr + 1]
        points = np.array([[u0, v0], [u1, v1]], dtype=float)
        hits, matched = match_like_reference(
            img, np.array([edged, template]), points,
            dataclasses.replace(params, search_radius=sr))
        assert list(matched) == [False, True]
        assert tuple(hits[1]) == (uc, vc)

    def test_step_lengths_are_math_hypot(self):
        # np.hypot differs from math.hypot in the last bit on a few of
        # these inputs on common libms
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 200_000))
        assert np.array_equal(_hypot(x, y), np.array(list(map(math.hypot, x, y))))


class TestInteractionMatrix:
    def test_centered_feature(self):
        l_mat = interaction_matrix((0.0, 0.0), 2.0)
        assert np.allclose(l_mat, [[-0.5, 0.0, 0.0], [0.0, -0.5, 0.0]],
                           atol=1e-15)

    def test_offset_feature(self):
        l_mat = interaction_matrix((0.1, 0.0), 2.0)
        assert np.allclose(l_mat, [[-0.5, 0.0, 0.05], [0.0, -0.5, 0.0]],
                           atol=1e-15)

    def test_doubling_depth_halves_every_entry(self):
        a = interaction_matrix((0.2, -0.3), 1.5)
        b = interaction_matrix((0.2, -0.3), 3.0)
        assert np.allclose(b, a / 2.0, atol=1e-15)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            interaction_matrix((0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            interaction_matrix((0.0, 0.0), float("nan"))


class TestControl:
    def test_worked_example(self, params):
        v_raw = ibvs_velocity((0.0, 0.0), 2.0, (0.1, 0.0), 0.8)
        assert np.allclose(v_raw, [0.16, 0.0, 0.0], atol=1e-12)

    def test_zero_error_descends(self, params):
        cmd = control((0.0, 0.0), 2.0, params)
        assert cmd.vx == 0.0 and cmd.vy == 0.0
        assert cmd.vz == -params.v_des

    def test_descent_gate_only_below_alignment_threshold(self, params):
        aligned = control((0.001, 0.0), 3.0, params)
        assert aligned.vz == -params.v_des
        misaligned = control((0.3, 0.0), 3.0, params)
        assert misaligned.vz != -params.v_des

    def test_saturation_preserves_lateral_direction(self, params):
        cmd = control((0.3, 0.2), 5.0, params)
        assert math.hypot(cmd.vx, cmd.vy) == pytest.approx(params.v_xy_max, abs=1e-12)
        v_raw = ibvs_velocity((0.3, 0.2), 5.0, (0.3, 0.2), params.lam)
        cross = cmd.vx * v_raw[1] - cmd.vy * v_raw[0]
        assert cross == pytest.approx(0.0, abs=1e-12)
        assert cmd.vx * v_raw[0] + cmd.vy * v_raw[1] > 0.0

    def test_commands_finite_and_bounded_for_wild_inputs(self, params):
        rng = np.random.default_rng(0)
        for _ in range(500):
            s = tuple(rng.uniform(-5, 5, 2))
            z = float(rng.uniform(1e-3, 50.0))
            cmd = control(s, z, params)
            assert math.isfinite(cmd.vx) and math.isfinite(cmd.vy) \
                and math.isfinite(cmd.vz)
            assert math.hypot(cmd.vx, cmd.vy) <= params.v_xy_max * (1 + 1e-12)
            assert abs(cmd.vz) <= params.v_z_max * (1 + 1e-12)

    def test_bad_depth_hovers(self, params):
        assert control((0.1, 0.0), float("nan"), params) == HOVER

    def test_pseudoinverse_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            s = tuple(rng.uniform(-1, 1, 2))
            z = float(rng.uniform(0.05, 20.0))
            l_mat = interaction_matrix(s, z)
            assert np.allclose(np.linalg.pinv(l_mat),
                               oracles.pinv_normal_equations(l_mat), atol=1e-9)

    def test_kinematic_loop_contracts_error_geometrically(self, params):
        # ideal kinematics: the camera carries out the command exactly; the
        # per-step contraction of the unsaturated loop stays within 5% of
        # the nominal 1 - gain*dt factor
        dt = 1.0 / params.f_s
        z = 4.0
        target = np.array([0.4, -0.3])   # ground offset of the mark, m
        cam = np.zeros(2)
        limits = dataclasses.replace(params, v_xy_max=1e9, v_z_max=1e9)
        tol = 0.05 * params.lam * dt
        bound = 1.0 - params.lam * dt + tol
        prev = None
        with mock.patch.object(servo, "_E_ALIGN", 1e-12):   # no gated descent
            for _ in range(60):
                s = ((target[0] - cam[0]) / z, -(target[1] - cam[1]) / z)
                e = math.hypot(*s)
                if prev is not None:
                    assert e <= bound * prev + 1e-15
                prev = e
                cmd = control(s, z, limits)
                cam += np.array([cmd.vx, -cmd.vy]) * dt
                z += cmd.vz * dt
        assert prev < 1e-3


class TestAnchor:
    def test_anchor_follows_pure_translation(self, params):
        img = textured_image(seed=5)
        allowed = np.zeros_like(img, dtype=bool)
        allowed[:, : img.shape[1] - 16] = True
        fs = start_features(img, allowed, z_now=5.0)
        anchor0 = fs.anchor_px.copy()
        shifted = np.roll(img, 8, axis=1)
        fs2 = detect_and_track(shifted, np.ones_like(allowed), fs, params,
                               z_now=5.0)
        assert fs2.anchor_px[0] == pytest.approx(anchor0[0] + 8.0, abs=0.2)
        assert fs2.anchor_px[1] == pytest.approx(anchor0[1], abs=0.2)

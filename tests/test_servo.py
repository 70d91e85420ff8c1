import dataclasses
import math

import numpy as np
import pytest
from scipy import ndimage

from safeland.scene import nadir_camera
from safeland.servo import (HOVER, FeatureSet, _hypot, _match_points, _warp_template,
                            anchor_normalized, control, detect_and_track,
                            detect_features, ibvs_velocity, interaction_matrix)

import oracles


def textured_image(seed: int = 0, h: int = 72, w: int = 96) -> np.ndarray:
    rng = np.random.default_rng(seed)
    img = rng.random((h + 20, w + 20))
    img = ndimage.uniform_filter(img, size=3)
    return np.ascontiguousarray(img[10:10 + h, 10:10 + w])


class TestTracking:
    def test_static_scene_zero_drift_over_many_frames(self, params):
        img = textured_image()
        allowed = np.ones_like(img, dtype=bool)
        fs = detect_and_track(img, allowed, None, params, z_now=5.0)
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
        fs = detect_and_track(img, allowed, None, params, z_now=5.0)
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
        img = np.full((72, 96), 0.5)
        fs = detect_and_track(img, np.ones_like(img, dtype=bool), None,
                              params, z_now=5.0)
        assert fs.n_t == 0

    def test_redetection_triggers_below_minimum_population(self, params):
        img = textured_image(seed=2)
        allowed = np.ones_like(img, dtype=bool)
        fs = detect_and_track(img, allowed, None, params, z_now=5.0)
        starved = FeatureSet(points=fs.points[:2].copy(),
                             patches=fs.patches[:2].copy(),
                             anchor_px=fs.anchor_px.copy(), ref_z=fs.ref_z)
        fs2 = detect_and_track(img, allowed, starved, params, z_now=5.0)
        assert fs2.n_t >= params.n_min

    def test_detection_respects_allowed_mask(self, params):
        img = textured_image(seed=3)
        allowed = np.zeros_like(img, dtype=bool)
        allowed[20:50, 30:70] = True
        pts = detect_features(img, allowed, n_max=params.n_max,
                              patch_radius=params.patch_radius)
        assert len(pts) > 0
        assert np.all((pts[:, 0] >= 30) & (pts[:, 0] < 70))
        assert np.all((pts[:, 1] >= 20) & (pts[:, 1] < 50))


def match_like_reference(intensity, templates, points, params):
    """Batched matches, asserted bit-equal to the per-point reference."""
    pr, sr = params.patch_radius, params.search_radius
    hits, matched = _match_points(intensity, templates, points, sr, pr, params.mse_max)
    for k in range(points.shape[0]):
        ref = oracles.match_point(intensity, templates[k], points[k, 0], points[k, 1],
                                  sr, pr, params.mse_max)
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
            fs = detect_and_track(a.intensity, a.valid, None, params, z_now=5.0)
            assert fs.n_t > 0
            scale = float(a.camera.position[2] / b.camera.position[2])
            templates = _warp_template(fs.patches, scale)
            for k in range(fs.n_t):
                assert np.array_equal(templates[k],
                                      oracles.warp_template(fs.patches[k], scale))
            match_like_reference(b.intensity, templates, fs.points, params)

    def test_mixed_batch_matches_bit_exact(self, params):
        """One batch holding every way a point can end its match."""
        pr = params.patch_radius
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
            ((-30.0, 36.0), patch_at(20, 20)),               # empty window
            ((30.0, 30.0), np.random.default_rng(0).random((2 * pr + 1,) * 2)),  # no match
        ]
        points = np.array([c[0] for c in cases])
        templates = np.array([c[1] for c in cases])
        hits, matched = match_like_reference(img, templates, points, params)
        assert list(matched) == [True, True, True, True, True, True, False, False]
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
        assert cmd.lateral_norm == pytest.approx(params.v_xy_max, abs=1e-12)
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
            assert cmd.lateral_norm <= params.v_xy_max * (1 + 1e-12)
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
        limits = dataclasses.replace(params, v_xy_max=1e9, v_z_max=1e9,
                                     e_align=1e-12, v_des=0.0)
        tol = 0.05 * params.lam * dt
        bound = 1.0 - params.lam * dt + tol
        prev = None
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
        fs = detect_and_track(img, allowed, None, params, z_now=5.0)
        anchor0 = fs.anchor_px.copy()
        shifted = np.roll(img, 8, axis=1)
        fs2 = detect_and_track(shifted, np.ones_like(allowed), fs, params,
                               z_now=5.0)
        assert fs2.anchor_px[0] == pytest.approx(anchor0[0] + 8.0, abs=0.2)
        assert fs2.anchor_px[1] == pytest.approx(anchor0[1], abs=0.2)

    def test_anchor_normalized_uses_camera_intrinsics(self):
        camera = nadir_camera([0, 0, 5.0], width=97, height=73,
                              focal_length=50.0)
        fs = FeatureSet(points=np.zeros((1, 2)), patches=np.zeros((1, 9, 9)),
                        anchor_px=np.array([58.0, 36.0]), ref_z=5.0)
        s = anchor_normalized(fs, camera)
        assert s[0] == pytest.approx((58.0 - 48.0) / 50.0, abs=1e-15)
        assert s[1] == pytest.approx(0.0, abs=1e-15)

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import safeland.selector as sel_mod
import safeland.simloop as simloop_mod
from safeland import servo
from safeland.params import Params
from safeland.scene import Box, CameraModel, NoiseModel, Scenario, load_scenario
from safeland.servo import HOVER, VelocityCommand
from safeland.simloop import (_H_BLIND, _LOSS_GRACE, _T_V, VehicleState, command_to_world,
                              lawnmower_waypoints, make_camera, run_episode,
                              step_vehicle_world)

import oracles
from conftest import SCENARIO_DIR, make_flat_scenario


def rest_state(altitude: float = 2.0) -> VehicleState:
    return VehicleState(position=np.array([1.0, 1.0, altitude]),
                        velocity=np.zeros(3))


class TestVehicle:
    def test_zero_command_from_rest_is_equilibrium(self):
        state = rest_state()
        out = step_vehicle_world(state, command_to_world(HOVER), dt=0.1)
        assert np.array_equal(out.position, state.position)
        assert np.array_equal(out.velocity, state.velocity)

    def test_constant_command_settles_within_one_percent(self):
        state = rest_state()
        setpoint = np.array([0.2, 0.0, 0.0])
        for _ in range(100):   # 10 s >> _T_V = 0.5 s
            state = step_vehicle_world(state, setpoint, dt=0.1)
        assert abs(state.velocity[0] - 0.2) < 0.002

    def test_velocity_trace_matches_closed_form(self):
        state = rest_state()
        setpoint = np.array([0.25, 0.0, 0.0])
        for k in range(1, 40):
            state = step_vehicle_world(state, setpoint, dt=0.1)
            expected = oracles.first_order_velocity(0.25, 0.1, _T_V, k)
            assert state.velocity[0] == pytest.approx(expected, abs=1e-6)

    def test_camera_command_mapping_follows_image_axes(self):
        world = command_to_world(VelocityCommand(0.1, 0.2, -0.3))
        # image right -> +x, image down -> -y, command vz is world up
        assert np.allclose(world, [0.1, -0.2, -0.3], atol=1e-12)

    def test_lawnmower_covers_extent(self):
        pts = lawnmower_waypoints((9.0, 7.0), 5.0, 72.0, 96)
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        assert min(xs) <= 1.5 and max(xs) >= 7.5
        assert min(ys) <= 1.5 and max(ys) >= 5.5


@pytest.fixture(scope="module")
def flat_episode():
    scenario = make_flat_scenario()
    params = Params(f_max=50)
    return run_episode(scenario, params, seed=0), params


class TestCamera:
    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(-50.0, 50.0), y=st.floats(-50.0, 50.0),
           z=st.floats(0.01, 100.0),
           width=st.integers(1, 200), height=st.integers(1, 200),
           focal=st.floats(1.0, 1000.0))
    def test_every_loop_camera_looks_straight_down(self, x, y, z, width,
                                                   height, focal):
        # every ray of the loop's camera is the nadir rotation's: z = -1.0
        scenario = Scenario(camera_width=width, camera_height=height,
                            camera_focal=focal)
        camera = make_camera(scenario, np.array([x, y, z]))
        xd, yd = camera.rays()
        dirs = oracles.nadir_pixel_dirs(camera)
        assert (dirs[..., 2] == -1.0).all()
        assert dirs[..., 0].tobytes() == np.broadcast_to(xd, (height, width)).tobytes()
        assert dirs[..., 1].tobytes() == np.broadcast_to(
            yd[:, None], (height, width)).tobytes()


# signed zeros and subnormal-scale values next to ordinary ones: the closed
# forms must give the rotation's bits, the sign of a zero included
_COORD = st.sampled_from([0.0, -0.0, 1e-300, -1e-300]) | st.floats(-20.0, 20.0)


class TestNadirClosedForms:
    """The package's nadir arithmetic against the general rotation, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(vx=_COORD, vy=_COORD, vz=_COORD)
    def test_command_to_world(self, vx, vy, vz):
        got = command_to_world(VelocityCommand(vx, vy, vz))
        assert got.tobytes() == oracles.command_to_world(vx, vy, vz).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(cam=st.tuples(_COORD, _COORD, st.floats(0.1, 20.0)),
           point=st.tuples(_COORD, _COORD, _COORD),
           width=st.integers(1, 200), height=st.integers(1, 200),
           focal=st.floats(1.0, 1000.0))
    def test_project_px(self, cam, point, width, height, focal):
        camera = CameraModel(width, height, focal, list(cam))
        got = camera.project(np.array(point))
        assert got.tobytes() == oracles.project_px(camera, point).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(cam=st.tuples(_COORD, _COORD, st.floats(0.1, 20.0)),
           u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
           depth=st.sampled_from([0.0, 1e-300]) | st.floats(0.0, 20.0),
           width=st.integers(1, 200), height=st.integers(1, 200),
           focal=st.floats(1.0, 1000.0))
    def test_backproject(self, cam, u, v, depth, width, height, focal):
        camera = CameraModel(width, height, focal, list(cam))
        u, v = u * (width - 1), v * (height - 1)   # anywhere in the image
        got = camera.backproject(u, v, depth)
        assert got.tobytes() == oracles.backproject(camera, u, v, depth).tobytes()


class TestEpisode:
    def test_flat_world_lands_near_committed_center(self, flat_episode):
        result, params = flat_episode
        assert result.outcome == "landed"
        assert result.touchdown_error is not None
        assert result.touchdown_error < 0.05

    def test_phase_separation(self, flat_episode):
        result, _ = flat_episode
        phases = [row["phase"] for row in result.telemetry]
        first_exec = phases.index("exec")
        assert all(p == "scan" for p in phases[:first_exec])
        assert all(p == "exec" for p in phases[first_exec:])

    def test_commit_recorded_once_and_immutable(self):
        scenario = make_flat_scenario()
        commits = []

        def observer(event, data):
            if event == "commit":
                commits.append((data["t"], data["track"]))

        result = run_episode(scenario, Params(f_max=50), seed=0,
                             observer=observer)
        assert result.outcome == "landed"
        assert len(commits) == 1
        assert commits[0][0] == result.frames_to_commit
        assert commits[0][1].belief == result.commit_belief

    def test_commit_fields_are_the_committed_tracks_own(self):
        scenario = load_scenario(SCENARIO_DIR / "flat.yaml")
        committed = []

        def observer(event, data):
            if event == "commit":
                track = data["track"]
                committed.append((track.mask.center.copy(), track.mask.rho, track.belief))

        with mock.patch.object(simloop_mod, "_F_MAX_EXEC", 5):
            result = run_episode(scenario, Params(), seed=0, observer=observer)
        assert len(committed) == 1
        center, rho, belief = committed[0]
        assert result.commit_center == (center[0], center[1])
        assert result.commit_rho == rho
        assert result.commit_belief == belief

    def test_every_servo_command_within_limits(self, flat_episode):
        result, params = flat_episode
        for row in result.telemetry:
            if row["phase"] != "exec" or row["cmd_vx"] is None:
                continue
            assert np.hypot(row["cmd_vx"], row["cmd_vy"]) <= params.v_xy_max + 1e-9
            assert abs(row["cmd_vz"]) <= params.v_z_max + 1e-9

    def test_episode_fully_deterministic(self):
        scenario = make_flat_scenario(noise=NoiseModel(
            sigma_range=0.01, dropout_prob=0.02, burst_prob=0.1,
            burst_magnitude=0.3))
        a = run_episode(scenario, Params(f_max=40), seed=3)
        b = run_episode(scenario, Params(f_max=40), seed=3)
        assert a.outcome == b.outcome
        assert a.touchdown_error == b.touchdown_error
        assert a.telemetry == b.telemetry
        assert a.track_rows == b.track_rows

    def test_different_seeds_differ_under_noise(self):
        scenario = make_flat_scenario(noise=NoiseModel(sigma_range=0.02,
                                                       dropout_prob=0.05))
        a = run_episode(scenario, Params(f_max=40), seed=1)
        b = run_episode(scenario, Params(f_max=40), seed=2)
        assert a.telemetry != b.telemetry

    def test_descent_onto_box_top_lands(self):
        # the vehicle starts over a wide box, commits on its top and must
        # touch down there instead of descending into it
        scenario = make_flat_scenario(obstacles=(Box((3.6, 2.9), (2.0, 2.0), 0.4),))
        result = run_episode(scenario, Params(f_max=50), seed=0)
        assert result.outcome == "landed"
        assert result.touchdown_error < 0.05
        assert result.telemetry[-1]["z"] > 0.4

    def test_scan_into_tall_box_crashes(self):
        # the first scan row at 1 m altitude runs into a 2 m box; the
        # episode must end as crashed instead of raising from the renderer
        scenario = make_flat_scenario(altitude=1.0, start=(1.0, 1.0), obstacles=(
            Box((3.0, 1.0), (0.6, 0.6), 2.0),))
        result = run_episode(scenario, Params(), seed=0)
        assert result.outcome == "crashed"
        assert result.frames_to_commit is None
        assert result.frames_total == len(result.telemetry)
        last = result.telemetry[-1]
        assert abs(last["x"] - 3.0) < 0.6 and abs(last["y"] - 1.0) < 0.6

    def test_timeout_when_nothing_feasible(self):
        scenario = Scenario(terrain="rough", extent=(6.0, 5.0),
                            rough_amplitude=0.25, rough_scale=0.2,
                            texture_seed=4, altitude=3.0, start=(3.0, 2.5))
        result = run_episode(scenario, Params(f_max=12), seed=0)
        assert result.outcome == "timeout"
        assert result.frames_to_commit is None
        assert result.commit_center is None
        assert result.touchdown_error is None

    def test_telemetry_rows_have_stable_fields(self, flat_episode):
        from safeland.simloop import TELEMETRY_FIELDS
        result, _ = flat_episode
        for row in result.telemetry:
            assert set(row.keys()) == set(TELEMETRY_FIELDS)

    def test_textureless_world_aborts_to_hover(self, monkeypatch):
        scenario = make_flat_scenario()
        real_build = simloop_mod.build_world

        def flat_gray_world(sc):
            world = real_build(sc)
            return dataclasses.replace(world, texture=np.full_like(world.texture, 0.5))

        monkeypatch.setattr(simloop_mod, "build_world", flat_gray_world)
        result = simloop_mod.run_episode(scenario, Params(f_max=30), seed=0)
        assert result.outcome == "aborted"
        assert result.frames_to_commit is not None   # commit happened on geometry
        assert result.touchdown_error is None
        # the frame the features were sought on is recorded, hovering
        assert result.frames_total == len(result.telemetry)
        last = result.telemetry[-1]
        assert last["phase"] == "exec" and last["t"] == result.frames_total - 1
        assert (last["cmd_vx"], last["cmd_vy"], last["cmd_vz"]) == (0.0, 0.0, 0.0)
        assert last["n_features"] == 0 and last["depth_z"] is None


def lose_features(monkeypatch, first: int, frames: int) -> None:
    """The tracker reports no feature on ``frames`` tracked frames from the
    ``first``-th on, keeping the anchor it would have carried; the loop
    reaches it through ``servo``."""
    real = servo.detect_and_track
    tracked = [0]

    def track(intensity, region_mask, previous, params, *, z_now):
        fs = real(intensity, region_mask, previous, params, z_now=z_now)
        tracked[0] += 1
        if first <= tracked[0] < first + frames:
            return dataclasses.replace(fs, points=fs.points[:0], patches=fs.patches[:0])
        return fs

    monkeypatch.setattr(servo, "detect_and_track", track)


class TestLossGrace:
    """Execution frame k > 0 is the k-th tracked frame; frame 60 of the flat
    episode is mid-descent, at about 1.4 m, and from frame 124 on the
    measured depth falls from 0.19 m by 0.02 m a frame to touchdown after
    frame 130."""

    FIRST = 60

    def exec_rows(self, monkeypatch, frames):
        lose_features(monkeypatch, self.FIRST, frames)
        result = run_episode(make_flat_scenario(), Params(f_max=50), seed=0)
        return result, [row for row in result.telemetry if row["phase"] == "exec"]

    @staticmethod
    def hovers_without_features(row) -> bool:
        return ((row["cmd_vx"], row["cmd_vy"], row["cmd_vz"]) == (0.0, 0.0, 0.0)
                and row["n_features"] == 0)

    def test_loss_of_the_grace_hovers_then_recovers(self, monkeypatch):
        result, rows = self.exec_rows(monkeypatch, _LOSS_GRACE)
        lost = rows[self.FIRST: self.FIRST + _LOSS_GRACE]
        assert all(map(self.hovers_without_features, lost))
        assert rows[self.FIRST - 1]["n_features"] > 0
        # re-detection around the anchor on the next frame
        assert rows[self.FIRST + _LOSS_GRACE]["n_features"] > 0
        assert result.outcome == "landed"

    def test_loss_beyond_the_grace_aborts(self, monkeypatch):
        frames = _LOSS_GRACE + 1
        result, rows = self.exec_rows(monkeypatch, frames)
        assert result.outcome == "aborted" and result.touchdown_error is None
        assert len(rows) == self.FIRST + frames
        assert all(map(self.hovers_without_features, rows[-frames:]))
        assert not self.hovers_without_features(rows[-frames - 1])

    def test_loss_below_the_blind_depth_keeps_descending(self, monkeypatch):
        # without a feature from frame 126 (0.146 m) on, hovering would
        # abort on frame 131, before touchdown
        first = 126
        lose_features(monkeypatch, first, 10_000)
        result = run_episode(make_flat_scenario(), Params(f_max=50), seed=0)
        rows = [row for row in result.telemetry if row["phase"] == "exec"]
        assert result.outcome == "landed" and result.touchdown_error < 0.05
        blind = rows[first:]
        assert len(blind) == 5 and blind[0]["depth_z"] < _H_BLIND
        descent = (0.0, 0.0, -min(Params().v_des, Params().v_z_max))
        for row in blind:
            assert (row["cmd_vx"], row["cmd_vy"], row["cmd_vz"]) == descent
            assert row["n_features"] == 0 and row["e_norm"] is None

    def test_loss_that_reaches_the_blind_depth_stops_counting(self, monkeypatch):
        # lost from frame 124 (0.19 m) on: the vehicle hovers, still sinking,
        # under the grace until the depth falls under _H_BLIND, then descends
        first = 124
        lose_features(monkeypatch, first, 10_000)
        result = run_episode(make_flat_scenario(), Params(f_max=50), seed=0)
        rows = [row for row in result.telemetry if row["phase"] == "exec"][first:]
        assert result.outcome == "landed"
        hover = [row for row in rows if row["depth_z"] >= _H_BLIND]
        assert 0 < len(hover) <= _LOSS_GRACE < len(rows)
        assert all(map(self.hovers_without_features, hover))
        assert all(row["cmd_vz"] < 0.0 for row in rows[len(hover):])


class TestExecutionTimeout:
    def test_execution_times_out_after_f_max_exec_frames(self):
        # the flat episode is still at altitude after 7 execution frames
        with mock.patch.object(simloop_mod, "_F_MAX_EXEC", 7):
            result = run_episode(make_flat_scenario(), Params(f_max=50), seed=0)
        rows = [row for row in result.telemetry if row["phase"] == "exec"]
        assert result.outcome == "timeout" and result.touchdown_error is None
        assert len(rows) == 7 and all(row["n_features"] > 0 for row in rows)
        assert result.telemetry[-1] is rows[-1]


def scan_hires_scenario() -> Scenario:
    """The scan_hires benchmark scenario: undersized.yaml at 192x144."""
    return dataclasses.replace(load_scenario(SCENARIO_DIR / "undersized.yaml"),
                               camera_width=192, camera_height=144, camera_focal=144.0)


def per_mask_radius(region, gsd, rho_min):
    """Inscribed radius from a distance transform of the region's full-frame mask."""
    d2 = sel_mod.inscribed_distance_sq(region.pixels)
    v, u = np.unravel_index(int(np.argmax(d2)), d2.shape)
    rho = float(np.sqrt(float(d2[v, u])) * gsd)
    return sel_mod.FeasibilityResult(rho=rho, feasible=rho >= rho_min), (int(u), int(v))


class TestFeasibility:
    def test_every_track_equals_its_full_frame_mask_transform(self):
        params = Params(f_max=12)
        frames = []   # tracks per frame

        def observe(event, data):
            if event != "scan_frame":
                return
            tracks, feasibility = data["tracks"], data["feasibility"]
            frames.append(len(tracks))
            assert list(feasibility) == [track.id for track in tracks]
            for track in tracks:
                mask = track.mask
                feas, (u, v) = per_mask_radius(mask, mask.mean_depth / mask.camera.focal_length,
                                               params.rho_min)
                assert feasibility[track.id] == feas
                center = mask.camera.backproject(u, v, mask.mean_depth)
                assert mask.center.tobytes() == center.tobytes()

        result = run_episode(scan_hires_scenario(), params, seed=0, observer=observe)
        assert result.outcome == "timeout" and len(frames) == 12 and sum(frames) > 0


class TestRegionsLiveInTheirBox:
    def test_masks_hold_box_sized_arrays_of_their_own(self):
        frames = []

        def observe(event, data):
            if event != "scan_frame":
                return
            frames.append(data["t"])
            for track in data["tracks"]:
                mask = track.mask
                shape = (mask.box[0].stop - mask.box[0].start,
                         mask.box[1].stop - mask.box[1].start)
                for f in dataclasses.fields(mask):
                    value = getattr(mask, f.name)
                    if isinstance(value, np.ndarray) and f.name not in ("ground_footprint",
                                                                        "center"):
                        assert value.shape == shape, (data["t"], track.id, f.name)
            for region in data["regions"]:   # no region holds a clearance array
                arrays = {f.name for f in dataclasses.fields(region)
                          if isinstance(getattr(region, f.name), np.ndarray)}
                assert arrays == {"box_pixels", "ground_footprint", "center"}

        result = run_episode(scan_hires_scenario(), Params(f_max=12), seed=0, observer=observe)
        assert result.outcome == "timeout" and len(frames) == 12


class TestOneDistanceTransformPerFrame:
    # every scan_hires frame sees an obstacle; the noise-free flat world's
    # one scan frame sees none, and its execution frames screen nothing
    @pytest.mark.parametrize("make_scenario", [scan_hires_scenario, make_flat_scenario])
    def test_one_transform_per_scan_frame_with_an_obstacle(self, monkeypatch, make_scenario):
        real = ndimage.distance_transform_edt
        calls = [0]
        frames = []   # (phase, transforms run, frame has an obstacle pixel)

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        def observe(event, data):
            if event == "scan_frame":
                frames.append(("scan", calls[0], bool(data["screen"].obstacle_mask.any())))
            elif event == "exec_frame":
                frames.append(("exec", calls[0], False))
            calls[0] = 0

        monkeypatch.setattr(ndimage, "distance_transform_edt", counted)
        run_episode(make_scenario(), Params(f_max=12), seed=0, observer=observe)
        assert calls[0] == 0
        assert [n for _, n, _ in frames] == [int(obstacle) for _, _, obstacle in frames]
        assert any(phase == "scan" for phase, _, _ in frames)

"""Closed-loop episode runner: scan, commit, and servo to touchdown.

An episode is a pure function of (scenario, params, seed). The scan
phase flies a lawnmower pattern at constant altitude while beliefs
accumulate; once a feasible track crosses the commit threshold the
selector is never re-entered and the terminal phase servos the vehicle
over the committed center and descends. Losing every feature for more
than ``_LOSS_GRACE`` frames aborts to hover; under the depth
``_H_BLIND``, where the ground is too near to show texture, a frame
without features keeps the aligned descent instead and does not count
toward the abort. Execution times out after ``_F_MAX_EXEC`` frames. A
scan that flies into an obstacle taller than the scan altitude ends the
episode as crashed. Both phases take
each frame from one sense step (render, then corrupt) and read the run's
parameters from ``Params``. A track's feasibility and centre are those
of the region it holds, measured once when the region was extracted; the
selector returns the winning track itself, and the commit and the
terminal phase read its centre and radius from that region; the tracker
(``servo.acquire``, then ``servo.detect_and_track``) locks onto the
centre's projection. Touchdown is tested against the surface under the
vehicle, box tops included.

Vehicle motion is kinematic: a first-order velocity response with time
constant ``_T_V`` followed by Euler position integration. Commands from
the servo are given in camera axes with an up-positive vertical
component; for the nadir camera, image right is world x and image down
is world -y.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import belief as bel
from . import perception as per
from . import selector as sel
from . import servo as srv
from .params import Params
from .scene import (CameraModel, DepthFrame, Scenario, World, build_world,
                    corrupt, render_true_depth)

Observer = Callable[[str, dict], None]

TELEMETRY_FIELDS = (
    "t", "phase", "x", "y", "z", "vx", "vy", "vz",
    "cmd_vx", "cmd_vy", "cmd_vz",
    "n_regions", "n_tracks", "best_belief", "best_feasible_belief",
    "n_features", "s_u", "s_v", "e_norm", "depth_z",
)

TRACK_FIELDS = ("t", "id", "f", "s", "o", "l1", "l0", "b")


@dataclass
class VehicleState:
    position: np.ndarray   # (3,) world, m
    velocity: np.ndarray   # (3,) world, m/s


@dataclass
class EpisodeResult:
    outcome: str                          # landed | aborted | timeout | crashed
    seed: int
    frames_total: int
    frames_to_commit: int | None = None
    commit_belief: float | None = None
    commit_center: tuple[float, float] | None = None
    commit_rho: float | None = None
    touchdown_error: float | None = None  # m, only when landed
    infeasible_belief_at_commit: float | None = None
    peak_infeasible_belief: float = 0.0
    telemetry: list[dict] = field(default_factory=list)
    track_rows: list[dict] = field(default_factory=list)


def command_to_world(cmd: srv.VelocityCommand) -> np.ndarray:
    """Camera-axis lateral command + up-positive vertical -> world velocity."""
    # image right is world x, image down world -y; + 0.0 turns -0.0 into +0.0,
    # since the velocities reach the telemetry, which prints a zero's sign
    return np.array([cmd.vx, -cmd.vy, cmd.vz]) + 0.0


def step_vehicle_world(state: VehicleState, setpoint_world: np.ndarray,
                       dt: float) -> VehicleState:
    """First-order velocity response toward the setpoint, then integrate."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    gain = min(dt / _T_V, 1.0)
    vel = state.velocity + gain * (np.asarray(setpoint_world, dtype=float) - state.velocity)
    pos = state.position + vel * dt
    return VehicleState(position=pos, velocity=vel)


_SCAN_MARGIN = 1.0     # m, scan rows keep this far inside the extent
_SCAN_OVERLAP = 0.5    # fraction of the camera swath shared by adjacent rows
_WAYPOINT_REACH = 0.2  # m, distance at which a waypoint counts as reached
_T_V = 0.5             # s, time constant of the vehicle's velocity response
_H_TD = 0.05           # m, height over the surface that counts as touchdown
_F_MAX_EXEC = 2000     # execution frames before timeout
_LOSS_GRACE = 5        # featureless frames in a row that execution hovers through
_H_BLIND = 0.15        # m, depth under which a featureless frame keeps descending


def lawnmower_waypoints(extent: tuple[float, float], altitude: float,
                        focal: float, width_px: int) -> list[tuple[float, float]]:
    """Serpentine scan rows covering the extent at the given view overlap."""
    lx, ly = extent
    swath = max((width_px / focal) * altitude * (1.0 - _SCAN_OVERLAP), 0.5)
    x0, x1 = min(_SCAN_MARGIN, lx / 2), max(lx - _SCAN_MARGIN, lx / 2)
    y = min(_SCAN_MARGIN, ly / 2)
    y_end = max(ly - _SCAN_MARGIN, ly / 2)
    pts: list[tuple[float, float]] = []
    left = True
    while True:
        pts.append((x0 if left else x1, y))
        pts.append((x1 if left else x0, y))
        if y >= y_end:
            break
        y = min(y + swath, y_end)
        left = not left
    return pts


class _ScanGuidance:
    """Waypoint follower producing world-frame velocity setpoints."""

    def __init__(self, waypoints: list[tuple[float, float]], speed: float):
        self.waypoints = waypoints
        self.speed = speed
        self.index = 0

    def setpoint(self, position: np.ndarray) -> np.ndarray:
        target = np.asarray(self.waypoints[self.index])
        delta = target - position[:2]
        dist = float(np.hypot(delta[0], delta[1]))
        while dist < _WAYPOINT_REACH:
            self.index = (self.index + 1) % len(self.waypoints)
            target = np.asarray(self.waypoints[self.index])
            delta = target - position[:2]
            new_dist = float(np.hypot(delta[0], delta[1]))
            if new_dist <= dist:  # all waypoints within reach: hover
                return np.zeros(3)
            dist = new_dist
        v = self.speed * delta / dist
        return np.array([v[0], v[1], 0.0])


def make_camera(scenario: Scenario, position: np.ndarray) -> CameraModel:
    return CameraModel(width=scenario.camera_width, height=scenario.camera_height,
                       focal_length=scenario.camera_focal, position=position)


def _sense(scenario: Scenario, world: World, state: VehicleState,
           rng: np.random.Generator) -> DepthFrame:
    """The noisy depth frame seen from the vehicle's pose."""
    camera = make_camera(scenario, state.position)
    return corrupt(render_true_depth(world, camera), scenario.noise, rng)


def run_episode(scenario: Scenario, params: Params, seed: int,
                observer: Observer | None = None) -> EpisodeResult:
    world = build_world(scenario)
    rng = np.random.default_rng(seed)
    start_xy = scenario.start if scenario.start is not None else (
        scenario.extent[0] / 2.0, scenario.extent[1] / 2.0)
    state = VehicleState(
        position=np.array([start_xy[0], start_xy[1], scenario.altitude]),
        velocity=np.zeros(3))
    result = EpisodeResult(outcome="timeout", seed=seed, frames_total=0)

    commit = _scan(scenario, params, world, rng, state, result, observer)
    if commit is not None:
        _execute(scenario, params, world, rng, *commit, result, observer)
    result.frames_total = len(result.telemetry)   # one row per sensed frame
    return result


def _scan(scenario: Scenario, params: Params, world: World, rng: np.random.Generator,
          state: VehicleState, result: EpisodeResult, observer: Observer | None):
    """Fly the lawnmower pattern until a commit or ``f_max`` frames.

    Returns (state, mask of the committed track's region), or None on
    timeout or when the vehicle has flown into the surface (outcome
    ``crashed``, before the frame is sensed).
    """
    dt = 1.0 / params.f_s
    guidance = _ScanGuidance(
        lawnmower_waypoints(scenario.extent, scenario.altitude,
                            scenario.camera_focal, scenario.camera_width),
        speed=params.v_xy_max)
    tracks: list[bel.RegionTrack] = []
    next_id = 0
    for t in range(params.f_max):
        if state.position[2] <= world.surface_height_at(state.position[0], state.position[1]):
            result.outcome = "crashed"
            return None
        frame = _sense(scenario, world, state, rng)
        screen = per.screen_frame(frame, params)
        regions = per.extract_regions(frame, screen)
        assoc = bel.associate(tracks, regions, params, next_id=next_id)
        tracks, next_id = assoc.tracks, assoc.next_id

        matched_cues: dict[int, per.CueVector] = {}
        for track, region in assoc.matches:
            fit = per.fit_plane(frame, region)
            if fit is None:
                continue
            matched_cues[track.id] = per.compute_cues(
                region, fit, screen.obstacle_dist_px, params)
        bel.step(tracks, matched_cues, params)

        feasibility = {tr.id: sel.FeasibilityResult(rho=tr.mask.rho,
                                                    feasible=tr.mask.rho >= params.rho_min)
                       for tr in tracks}
        feasible_beliefs = [tr.belief for tr in tracks if feasibility[tr.id].feasible]
        infeasible_beliefs = [tr.belief for tr in tracks
                              if not feasibility[tr.id].feasible]
        if infeasible_beliefs:
            result.peak_infeasible_belief = max(result.peak_infeasible_belief,
                                                max(infeasible_beliefs))
        best = sel.select(tracks, feasibility, params.tau)

        _record_tracks(result, t, tracks, matched_cues)
        setpoint = guidance.setpoint(state.position)
        _record_frame(result, t, "scan", state, setpoint,
                      n_regions=len(regions), n_tracks=len(tracks),
                      best_belief=max((tr.belief for tr in tracks), default=None),
                      best_feasible_belief=max(feasible_beliefs, default=None))
        if observer is not None:
            observer("scan_frame", {
                "t": t, "frame": frame, "regions": regions, "tracks": tracks,
                "screen": screen, "matched_cues": matched_cues,
                "feasibility": feasibility,
            })

        if best is not None:
            result.frames_to_commit = t
            result.commit_belief = float(best.belief)
            result.commit_center = (float(best.mask.center[0]), float(best.mask.center[1]))
            result.commit_rho = best.mask.rho
            result.infeasible_belief_at_commit = max(infeasible_beliefs, default=None)
            if observer is not None:
                observer("commit", {"t": t, "track": best, "frame": frame})
            return state, best.mask

        state = step_vehicle_world(state, setpoint, dt)
    return None


def _execute(scenario: Scenario, params: Params, world: World,
             rng: np.random.Generator, state: VehicleState,
             commit_mask: per.RegionMask, result: EpisodeResult,
             observer: Observer | None) -> None:
    """Servo over the committed center and descend until touchdown, abort or timeout.

    The sensed frame on which no feature is found is recorded as a
    hovering ``exec`` row before the abort, so every sensed frame has
    a telemetry row.
    """
    dt = 1.0 / params.f_s
    c_world = commit_mask.center
    start_t = len(result.telemetry)

    # detect the feature cloud around the committed center; the anchor point
    # tracks the center's image position through the cloud's common motion
    frame = _sense(scenario, world, state, rng)
    fs = srv.acquire(frame, frame.camera.project(c_world), commit_mask.pixels)
    if fs is None:
        result.outcome = "aborted"
        _record_frame(result, start_t, "exec", state, (0.0, 0.0, 0.0),
                      n_regions=0, n_tracks=0, n_features=0)
        return

    z_t = fs.ref_z
    lost = 0
    for k in range(_F_MAX_EXEC):
        t = start_t + k
        if k > 0:  # frame 0 is the one the features were detected on
            frame = _sense(scenario, world, state, rng)

        box = commit_mask.box
        sel_pixels = commit_mask.box_pixels & frame.valid[box]
        if sel_pixels.any():
            z_t = float(frame.depth[box][sel_pixels].mean())

        if k > 0:
            fs = srv.detect_and_track(frame.intensity, frame.valid, fs, params,
                                      z_now=z_t)

        if fs.n_t == 0:
            if z_t < _H_BLIND:   # the descent control gives at zero error
                cmd = srv.VelocityCommand(0.0, 0.0, -min(params.v_des, params.v_z_max))
            else:
                lost += 1
                cmd = srv.HOVER
            s_virtual = None
            error = {}
        else:
            lost = 0
            s_virtual = np.array(frame.camera.normalized(*fs.anchor_px))
            cmd = srv.control(s_virtual, z_t, params)
            error = {"s_u": float(s_virtual[0]), "s_v": float(s_virtual[1]),
                     "e_norm": float(np.hypot(s_virtual[0], s_virtual[1]))}

        _record_frame(result, t, "exec", state, (cmd.vx, cmd.vy, cmd.vz),
                      n_regions=0, n_tracks=0, n_features=fs.n_t, depth_z=z_t, **error)
        if observer is not None:
            observer("exec_frame", {"t": t, "frame": frame, "features": fs,
                                    "cmd": cmd, "s": s_virtual, "z": z_t})

        if lost > _LOSS_GRACE:
            result.outcome = "aborted"
            return

        state = step_vehicle_world(state, command_to_world(cmd), dt)
        surface = world.surface_height_at(state.position[0], state.position[1])
        if state.position[2] - surface < _H_TD:
            result.outcome = "landed"
            result.touchdown_error = float(np.hypot(state.position[0] - c_world[0],
                                                    state.position[1] - c_world[1]))
            return
    result.outcome = "timeout"


def _record_tracks(result: EpisodeResult, t: int, tracks: list[bel.RegionTrack],
                   matched_cues: dict[int, per.CueVector]) -> None:
    for track in tracks:
        cues = matched_cues.get(track.id)
        l1, l0 = track.likelihoods if track.likelihoods is not None else (None, None)
        row = {
            "t": t, "id": track.id,
            "f": cues.flatness if cues else None,
            "s": cues.slope if cues else None,
            "o": cues.obstacle if cues else None,
            "l1": l1, "l0": l0,
            "b": track.belief,
        }
        result.track_rows.append(row)


def _record_frame(result: EpisodeResult, t: int, phase: str, state: VehicleState,
                  cmd, **fields) -> None:
    """Append one telemetry row; ``fields`` sets the phase's own columns, the rest stay empty."""
    row = dict.fromkeys(TELEMETRY_FIELDS)
    row.update(zip(("x", "y", "z", "vx", "vy", "vz", "cmd_vx", "cmd_vy", "cmd_vz"),
                   map(float, (*state.position, *state.velocity, *cmd))))
    row.update(t=t, phase=phase, **fields)
    result.telemetry.append(row)

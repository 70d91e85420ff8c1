from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from safeland.params import Params
from safeland.perception import RegionMask
from safeland.servo import FeatureSet, _sample_patches, detect_features
from safeland.scene import (CameraModel, DepthFrame, Scenario, build_world,
                            load_scenario, render_true_depth)
from safeland.simloop import run_episode

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def output_digest(out_dir: Path) -> str:
    """SHA-256 over the top-level files of a run's output, concatenated in name order."""
    digest = hashlib.sha256()
    for path in sorted((p for p in out_dir.iterdir() if p.is_file()), key=lambda p: p.name):
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="session")
def params() -> Params:
    return Params()


def make_flat_scenario(**overrides) -> Scenario:
    base = dict(terrain="flat", extent=(6.0, 5.0),
                texture_seed=5, altitude=2.2, start=(3.6, 2.9))
    base.update(overrides)
    return Scenario(**base)


@pytest.fixture(scope="session")
def flat_world():
    return build_world(make_flat_scenario())


@pytest.fixture(scope="session")
def flat_frame(flat_world) -> DepthFrame:
    camera = CameraModel(96, 72, 72.0, [3.0, 2.5, 2.2])
    return render_true_depth(flat_world, camera)


def synthetic_frame(depth: np.ndarray, valid: np.ndarray | None = None,
                    intensity: np.ndarray | None = None,
                    focal: float = 72.0, altitude: float | None = None) -> DepthFrame:
    """Hand-built frame with a level downward camera."""
    h, w = depth.shape
    if valid is None:
        valid = np.ones_like(depth, dtype=bool)
    if intensity is None:
        intensity = np.full(depth.shape, 0.5)
    if altitude is None:
        altitude = float(np.max(np.where(valid, depth, 0.0))) + 0.1
    camera = CameraModel(w, h, focal, [0.0, 0.0, altitude])
    return DepthFrame(depth=np.where(valid, depth, 0.0), valid=valid,
                      intensity=intensity, camera=camera)


def region_box(pixels: np.ndarray) -> dict:
    """``RegionMask`` box and box mask of a full-frame mask, with rho and center
    left at zero: fitting, cues and association do not read them."""
    box = ndimage.find_objects(pixels.astype(np.int8))[0]
    return {"box": box, "box_pixels": pixels[box].copy(), "rho": 0.0, "center": np.zeros(3)}


def frame_region(frame: DepthFrame, pixels: np.ndarray) -> RegionMask:
    """A ``RegionMask`` of a full-frame mask of ``frame``, as ``fit_plane`` reads it."""
    return RegionMask(**region_box(pixels), ground_footprint=np.zeros(0, dtype=np.int64),
                      mean_depth=float(frame.depth[pixels].mean()), camera=frame.camera)


def start_features(intensity: np.ndarray, allowed: np.ndarray, *, z_now: float) -> FeatureSet:
    """The corners detected in ``allowed`` with their templates, anchored on
    their centroid: a set for ``detect_and_track`` to advance."""
    pts = detect_features(intensity, allowed).astype(float)
    return FeatureSet(points=pts, patches=_sample_patches(intensity, pts),
                      anchor_px=pts.mean(axis=0), ref_z=z_now)


class _EnoughFrames(Exception):
    pass


@pytest.fixture(scope="session")
def episode_frames(params):
    """World and the first sensed frames of a short seed-0 episode of each
    shipped scenario: poses and images the closed loop really produces."""
    out = {}
    for name in ("flat", "cluttered", "undersized"):
        scenario = load_scenario(SCENARIO_DIR / f"{name}.yaml")
        frames = []

        def keep(event, data):
            if event in ("scan_frame", "exec_frame"):
                frames.append(data["frame"])
                if len(frames) == 6:
                    raise _EnoughFrames

        try:
            run_episode(scenario, params, 0, observer=keep)
        except _EnoughFrames:
            pass
        out[name] = (build_world(scenario), frames)
    return out

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from safeland.params import Params
from safeland.scene import (DepthFrame, Scenario, build_world, load_scenario,
                            nadir_camera, render_true_depth)
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
    base = dict(name="flat-test", terrain="flat", extent=(6.0, 5.0),
                texture_seed=5, altitude=2.2, start=(3.6, 2.9))
    base.update(overrides)
    return Scenario(**base)


@pytest.fixture(scope="session")
def flat_world():
    return build_world(make_flat_scenario())


@pytest.fixture(scope="session")
def flat_frame(flat_world) -> DepthFrame:
    camera = nadir_camera([3.0, 2.5, 2.2])
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
    camera = nadir_camera([0.0, 0.0, altitude], width=w, height=h,
                          focal_length=focal)
    return DepthFrame(t=0, depth=np.where(valid, depth, 0.0), valid=valid,
                      intensity=intensity, camera=camera)


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

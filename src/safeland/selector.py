"""Landing-footprint feasibility and constrained commit decision.

The inscribed radius of a region mask is the maximum of an exact
Euclidean distance transform, converted to meters by the ground sample
distance. The transform is scipy's exact EDT, rounded to the squared
integer pixel distances it represents. The image border counts as
background, so a mask touching the edge is one pixel from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage


def distance_sq_to(targets: np.ndarray, pad_with_targets: bool = False) -> np.ndarray:
    """Exact squared Euclidean pixel distance from every pixel to the nearest target.

    With ``pad_with_targets`` the image is treated as surrounded by a
    one-pixel ring of targets. Target pixels report 0. An image without
    any target raises ``ValueError``.
    """
    t = np.asarray(targets, dtype=bool)
    if t.ndim != 2:
        raise ValueError("targets must be a 2-D boolean array")
    if pad_with_targets:
        t = np.pad(t, 1, constant_values=True)
    if not t.any():
        raise ValueError("targets must contain at least one target pixel")
    d = ndimage.distance_transform_edt(~t)
    if pad_with_targets:
        d = d[1:-1, 1:-1]
    return np.rint(d * d).astype(np.int64)


def inscribed_distance_sq(mask: np.ndarray) -> np.ndarray:
    """Squared distance of every mask pixel to the nearest background pixel."""
    m = np.asarray(mask, dtype=bool)
    d2 = distance_sq_to(~m, pad_with_targets=True)
    return np.where(m, d2, 0)


@dataclass(frozen=True)
class FeasibilityResult:
    rho: float       # m, maximum inscribed radius on the ground plane
    feasible: bool   # rho >= rho_min exactly


@dataclass(frozen=True)
class LandingDecision:
    track_id: int
    center_ground: tuple[float, float]  # m, world x/y of the maximum-clearance point
    rho: float
    belief_at_commit: float
    frame: int


def inscribed_radius(mask: np.ndarray, ground_sample_distance: float,
                     rho_min: float) -> tuple[FeasibilityResult, tuple[int, int] | None]:
    """Max inscribed radius of a mask plus the pixel attaining it.

    Ties resolve to the lowest row, then lowest column. An empty mask is
    infeasible with rho 0 and no center.
    """
    if ground_sample_distance <= 0.0:
        raise ValueError("ground sample distance must be positive")
    m = np.asarray(mask, dtype=bool)
    if not m.any():
        return FeasibilityResult(rho=0.0, feasible=False), None
    d2 = inscribed_distance_sq(m)
    flat_idx = int(np.argmax(d2))          # row-major argmax = lowest row, then column
    v, u = np.unravel_index(flat_idx, d2.shape)
    rho = float(np.sqrt(float(d2[v, u])) * ground_sample_distance)
    return FeasibilityResult(rho=rho, feasible=rho >= rho_min), (int(u), int(v))


def select(tracks, feasibility: dict[int, FeasibilityResult],
           centers: dict[int, tuple[float, float]], tau: float,
           frame_index: int) -> LandingDecision | None:
    """Constrained commit: argmax belief over feasible tracks, gated by tau.

    Deterministic tie-break: higher belief, then larger rho, then lower
    track id. Returns None when no track is feasible or the best feasible
    belief is still under the threshold.
    """
    best = None
    best_key = None
    for track in tracks:
        feas = feasibility.get(track.id)
        if feas is None or not feas.feasible:
            continue
        key = (-track.belief, -feas.rho, track.id)
        if best_key is None or key < best_key:
            best, best_key = track, key
    if best is None:
        return None
    if best.belief < tau:
        return None
    feas = feasibility[best.id]
    return LandingDecision(
        track_id=best.id,
        center_ground=tuple(centers[best.id]),
        rho=feas.rho,
        belief_at_commit=float(best.belief),
        frame=frame_index,
    )

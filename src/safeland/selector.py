"""Landing-footprint feasibility and constrained commit decision.

The inscribed radius of a region is the largest clearance over its
pixels, the distance to the nearest pixel outside the region, converted
to meters by the ground sample distance. ``perception`` measures every
region once, when it extracts it, and the selector only decides:
a track is feasible when its region's radius reaches ``rho_min``, and
``select`` returns the feasible track of highest belief, whose region
carries the landing centre and radius the loop commits to.

``inscribed_radius`` measures a plain boolean mask with scipy's exact
Euclidean distance transform, rounded to the squared integer pixel
distances it represents, on the mask's bounding box: the ring of pixels
around the box is background or image border, and no background pixel
beyond the ring is nearer to a mask pixel than the ring is. The image
border counts as background, so a mask touching the edge is one pixel
from it. It is the reference a region's radius is checked against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage


def distance_sq_to(targets: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean pixel distance from every pixel to the nearest target.

    Target pixels report 0. An image without any target raises ``ValueError``.
    """
    t = np.asarray(targets, dtype=bool)
    if t.ndim != 2:
        raise ValueError("targets must be a 2-D boolean array")
    if not t.any():
        raise ValueError("targets must contain at least one target pixel")
    d = ndimage.distance_transform_edt(~t)
    return np.rint(d * d).astype(np.int64)


def inscribed_distance_sq(mask: np.ndarray) -> np.ndarray:
    """Squared distance of every mask pixel to the nearest background pixel or the border."""
    m = np.asarray(mask, dtype=bool)
    d2 = distance_sq_to(np.pad(~m, 1, constant_values=True))[1:-1, 1:-1]
    return np.where(m, d2, 0)


@dataclass(frozen=True)
class FeasibilityResult:
    rho: float       # m, maximum inscribed radius on the ground plane
    feasible: bool   # rho >= rho_min exactly


def inscribed_radius(mask: np.ndarray, ground_sample_distance: float,
                     rho_min: float) -> tuple[FeasibilityResult, tuple[int, int] | None]:
    """Max inscribed radius of an (H, W) boolean mask plus the pixel attaining it.

    Ties resolve to the lowest row, then lowest column. An empty mask is
    infeasible with rho 0 and no center.
    """
    if ground_sample_distance <= 0.0:
        raise ValueError("ground sample distance must be positive")
    m = mask.astype(bool, copy=False)
    rows = np.flatnonzero(m.any(axis=1))
    if rows.size == 0:
        return FeasibilityResult(rho=0.0, feasible=False), None
    cols = np.flatnonzero(m.any(axis=0))
    box = (slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1))
    d2 = inscribed_distance_sq(m[box])
    # row-major argmax in the box = lowest row, then column, in the frame
    v, u = np.unravel_index(int(np.argmax(d2)), d2.shape)
    rho = float(np.sqrt(float(d2[v, u])) * ground_sample_distance)
    center = (int(u) + box[1].start, int(v) + box[0].start)
    return FeasibilityResult(rho=rho, feasible=rho >= rho_min), center


def select(tracks, feasibility: dict[int, FeasibilityResult], tau: float):
    """Constrained commit: the feasible track of highest belief, gated by tau.

    Deterministic tie-break: higher belief, then larger rho, then lower
    track id. Returns the winning track, or None when no track is
    feasible or the best feasible belief is still under the threshold.
    """
    best = min((tr for tr in tracks if feasibility[tr.id].feasible), default=None,
               key=lambda tr: (-tr.belief, -feasibility[tr.id].rho, tr.id))
    return best if best is not None and best.belief >= tau else None

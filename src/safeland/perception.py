"""Candidate landing regions and per-region geometric cues from one depth frame.

Screening marks a pixel as locally landable when the windowed standard
deviation of reconstructed world height and the depth gradient magnitude
both stay under their thresholds. The gradient reads depth with invalid
pixels and the ring beyond the image border marked NaN; a gradient with
no valid neighbour to read is NaN and fails. Valid pixels that fail
screening form the obstacle map consumed by the proximity cue, and the
regions are the 4-connected components of the pixels that are not
obstacles: passing and invalid (dropout) pixels. So holes do not shatter
or shrink a region, but a region that is mostly invalid is dropped.

A pixel's world height is the camera height minus its depth (the
camera looks straight down). Screening runs the frame's one distance
transform, to the nearest obstacle pixel; the cues of every region read
it from the screen result instead of recomputing it. Screening also
turns it into the frame's clearance map, the squared distance to the
nearest obstacle pixel or to the ring of pixels just beyond the image
border, whichever is nearer. Within a region this is the distance to
the nearest pixel outside the region: regions are 4-connected
components of the non-obstacle pixels, so the nearest outside pixel q
is an obstacle or beyond the border. Were q a non-obstacle pixel of another
component, its 4-neighbour one step closer to the region pixel would lie
in the region and join the two.

Each region is measured once, when it is extracted: its inscribed
radius ``rho`` is its largest clearance, converted to meters at the
region's mean depth, and its ``center`` is the world point of the pixel
attaining it, the lowest row and then column on ties. The selector only
decides on these numbers.

A region lives in its bounding box: it stores the box and its pixels
inside the box, and keeps no array of the frame's size nor a view into
one. Every per-region stage reads the box. Row-major order inside a box
is the frame's row-major order, so sums, orderings and argmaxes are
those of the full-frame arrays. The full-frame mask is pasted from the
box on request, for the readers that need one. Region extraction forms
world x and y only for each region's valid pixels, along the camera's
rays. Its ground footprint is the sorted unique int64 keys ``cx·2³² + cy``
of the cells ``(cx, cy) = floor((x, y) / _ASSOC_RES)`` those points hit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .params import Params
from .scene import CameraModel, DepthFrame
from .selector import distance_sq_to

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=int)
_ASSOC_RES = 0.10  # m, ground-cell size of a region's footprint
_OBSTACLE_K = 9    # region pixels nearest the centroid that the proximity cue reads
_SCREEN_K = 5      # px, window of the local height statistics
_A_MIN = 100       # px, smallest region kept
_MAX_INVALID_FRAC = 0.30  # largest share of invalid pixels in a kept region


@dataclass(frozen=True)
class ScreenResult:
    obstacle_mask: np.ndarray  # valid pixels that violate them
    obstacle_dist_px: np.ndarray  # distance to the nearest obstacle pixel (px; inf if none)
    clearance_sq: np.ndarray   # squared distance to the nearest obstacle or beyond the border (px²)


@dataclass(frozen=True)
class RegionMask:
    box: tuple[slice, slice]       # bounding box of the component in the frame
    box_pixels: np.ndarray         # box-sized bool, the 4-connected component
    ground_footprint: np.ndarray   # (K,) sorted unique int64 ground-cell keys cx·2³² + cy
    mean_depth: float              # m, over valid pixels in the region
    rho: float                     # m, largest inscribed radius at the mean depth
    center: np.ndarray             # (3,) world point of the pixel attaining rho
    camera: CameraModel            # camera the mask was observed with

    @property
    def pixels(self) -> np.ndarray:
        """The component as a new (camera.height, camera.width) bool mask."""
        out = np.zeros((self.camera.height, self.camera.width), dtype=bool)
        out[self.box] = self.box_pixels
        return out


@dataclass(frozen=True)
class PlaneFit:
    normal: np.ndarray     # unit 3-vector, camera frame, oriented toward the camera
    rms_residual: float    # m, RMS orthogonal distance


@dataclass(frozen=True)
class CueVector:
    flatness: float   # normalized plane-fit residual, >= 0
    slope: float      # rad, angle between plane normal and gravity vertical
    obstacle: float   # proximity score in [0, 1]

    def __post_init__(self) -> None:
        if not (np.isfinite(self.flatness) and np.isfinite(self.slope)
                and np.isfinite(self.obstacle)):
            raise ValueError("cue values must be finite")
        if self.flatness < 0.0 or not -1e-9 <= self.slope <= np.pi / 2 + 1e-9 \
                or not -1e-9 <= self.obstacle <= 1.0 + 1e-9:
            raise ValueError(f"cue out of range: {self}")


def screen_frame(frame: DepthFrame, params: Params) -> ScreenResult:
    valid = frame.valid
    k = _SCREEN_K
    hz = np.where(valid, frame.camera.position[2] - frame.depth, 0.0)
    vf = valid.astype(float)

    def winsum(a: np.ndarray) -> np.ndarray:
        return ndimage.uniform_filter(a, size=k, mode="constant", cval=0.0) * (k * k)

    count = winsum(vf)
    min_count = max(3.0, (k * k) / 3.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = winsum(hz) / count
        var = winsum(hz * hz) / count - mean * mean
    std = np.sqrt(np.clip(var, 0.0, None))
    # count is a sum of ones up to the filter's rounding: round it first
    pass_var = valid & (np.rint(count) >= min_count) & (std <= params.v_max)

    # invalid depth is NaN, so a gradient that needs it is NaN and fails
    d = np.where(valid, frame.depth, np.nan)
    gx = _masked_gradient(d)
    gy = _masked_gradient(d.T).T
    pass_grad = np.hypot(gx, gy) <= params.g_max

    return _screen_result(pass_var & pass_grad, valid)


def _screen_result(pass_mask: np.ndarray, valid: np.ndarray) -> ScreenResult:
    """Obstacle map, obstacle distances and clearance map of a frame's pass mask."""
    obstacle_mask = valid & ~pass_mask
    h, w = obstacle_mask.shape
    rows, cols = np.arange(h), np.arange(w)
    # distance from each pixel to the ring of pixels just beyond the image
    border = np.minimum.outer(np.minimum(rows + 1, h - rows), np.minimum(cols + 1, w - cols))
    clearance_sq = border * border
    if obstacle_mask.any():
        obstacle_sq = distance_sq_to(obstacle_mask)
        obstacle_dist_px = np.sqrt(obstacle_sq.astype(float))
        np.minimum(clearance_sq, obstacle_sq, out=clearance_sq)
    else:
        obstacle_dist_px = np.full(obstacle_mask.shape, np.inf)
    return ScreenResult(obstacle_mask=obstacle_mask,
                        obstacle_dist_px=obstacle_dist_px, clearance_sq=clearance_sq)


def _masked_gradient(d: np.ndarray) -> np.ndarray:
    """Per-row difference of NaN-marked depth, padded with NaN: central where
    both neighbours are valid, else toward the one valid neighbour, else
    NaN. (An invalid pixel between two valid ones reads the central one.)
    """
    pad = np.pad(d, ((0, 0), (1, 1)), constant_values=np.nan)
    prev, nxt = pad[:, :-2], pad[:, 2:]
    central = (nxt - prev) * 0.5
    return np.where(np.isnan(central), np.where(np.isnan(nxt), d - prev, nxt - d), central)


def extract_regions(frame: DepthFrame, screen: ScreenResult) -> list[RegionMask]:
    """The frame's screened 4-connected components of at least ``_A_MIN`` px,
    largest first, in label order on ties."""
    labels, _ = ndimage.label(~screen.obstacle_mask, structure=_FOUR_CONNECTED)
    regions: list[RegionMask] = []
    xd, yd = frame.camera.rays()
    cam_x, cam_y = frame.camera.position[:2]
    areas = np.bincount(labels.ravel())
    areas[0] = 0   # the background
    boxes = ndimage.find_objects(labels)
    large = np.flatnonzero(areas >= _A_MIN)
    for lab in large[np.argsort(-areas[large], kind="stable")]:
        box = boxes[lab - 1]   # every pixel of the region lies in its bounding box
        comp = labels[box] == lab
        area = int(areas[lab])
        comp_valid = comp & frame.valid[box]
        n_valid = int(comp_valid.sum())
        if 1.0 - n_valid / area > _MAX_INVALID_FRAC:
            continue
        vv, uu = np.nonzero(comp_valid)
        d = frame.depth[box][comp_valid]
        # the ground cell of each valid pixel
        cx = np.floor((cam_x + xd[box[1]][uu] * d) / _ASSOC_RES).astype(np.int64)
        cy = np.floor((cam_y + yd[box[0]][vv] * d) / _ASSOC_RES).astype(np.int64)
        mean_depth = float(d.mean())
        # row-major argmax in the box = lowest row, then column, in the frame
        d2 = np.where(comp, screen.clearance_sq[box], 0)
        v, u = np.unravel_index(int(np.argmax(d2)), d2.shape)
        regions.append(RegionMask(
            box=box,
            box_pixels=comp,
            ground_footprint=np.unique(cx * 2**32 + cy),
            mean_depth=mean_depth,
            rho=float(np.sqrt(float(d2[v, u])) * (mean_depth / frame.camera.focal_length)),
            center=frame.camera.backproject(u + box[1].start, v + box[0].start, mean_depth),
            camera=frame.camera,
        ))
    return regions


def tls_plane(points: np.ndarray) -> PlaneFit | None:
    """Total-least-squares plane through a point set (camera frame): its normal and RMS residual.

    Returns None when the points are too few or collinear. Order- and
    duplication-invariant: the fit depends only on the point distribution.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n < 3:
        return None
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered / n
    evals, evecs = np.linalg.eigh(cov)         # ascending eigenvalues
    if evals[1] <= 1e-12 * max(evals[2], 1.0) + 1e-14:
        return None                            # collinear point set
    normal = evecs[:, 0]
    if normal @ centroid > 0.0:
        normal = -normal                       # orient toward the camera
    return PlaneFit(normal=normal, rms_residual=float(np.sqrt(max(evals[0], 0.0))))


def fit_plane(frame: DepthFrame, region: RegionMask) -> PlaneFit | None:
    """Total-least-squares plane over the region's back-projected 3-D points.

    Returns None when the points are too few or collinear; the caller
    skips the region for this frame.
    """
    rows, cols = region.box
    sel = region.box_pixels & frame.valid[rows, cols]
    vs, us = np.nonzero(sel)
    xn, yn = frame.camera.normalized(us + cols.start, vs + rows.start)
    d = frame.depth[rows, cols][sel]
    return tls_plane(np.stack([xn * d, yn * d, d], axis=-1))   # camera-frame points


def compute_cues(mask: RegionMask, fit: PlaneFit, obstacle_dist_px: np.ndarray,
                 params: Params) -> CueVector:
    """Flatness, slope, obstacle-proximity cue vector for one region.

    ``obstacle_dist_px`` is the obstacle distance map of the region's
    frame (``ScreenResult.obstacle_dist_px``), read at the
    ``_OBSTACLE_K`` region pixels nearest the region's pixel centroid;
    with no obstacle it is inf everywhere and the proximity cue is 0.
    """
    flat = fit.rms_residual / params.sigma_f
    # the camera's optical axis is the gravity vertical
    slope = float(np.arccos(np.clip(abs(float(fit.normal[2])), 0.0, 1.0)))

    rows, cols = mask.box
    vs, us = np.nonzero(mask.box_pixels)
    vs += rows.start
    us += cols.start
    cu, cv = float(us.mean()), float(vs.mean())
    d2c = (us - cu) ** 2 + (vs - cv) ** 2
    order = np.lexsort((us, vs, d2c))
    sel = order[:_OBSTACLE_K]
    gsd = mask.mean_depth / mask.camera.focal_length
    d_obs = float(obstacle_dist_px[vs[sel], us[sel]].mean()) * gsd
    prox = float(np.exp(-d_obs / params.d_scale))
    return CueVector(flatness=flat, slope=slope, obstacle=prox)


def region_label_map(regions: list[RegionMask], shape: tuple[int, int]) -> np.ndarray:
    """Label raster for debug export: region index + 1, background 0."""
    out = np.zeros(shape, dtype=np.int32)
    for idx, region in enumerate(regions, start=1):
        out[region.pixels] = idx
    return out

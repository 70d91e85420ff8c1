"""Salient-point tracking and the terminal visual-servo control law.

The tracker is deliberately simple: corner candidates are local maxima
of windowed intensity variance, matched by minimum patch SSD inside a
bounded search window (the template is pre-warped by the known relative
depth change, and a gradient-based sub-pixel refinement follows when the
best match is not exact). Templates refresh only after a meaningful
depth change, so a static camera over a static scene tracks with exactly
zero drift.

Matching is batched over the whole feature set: one SSD over every
point's full search window, gathered in blocks of a few points to bound
memory, and one Gauss-Newton refiner that stops each point on its own
rules through an active mask. Its reductions are the ones that keep the
bits of a per-point loop (a row-major argmin over windows whose clipped
positions score inf, ``np.vecdot`` for the dot products, ``math.hypot``
for step lengths).

The feature set also carries an anchor: the image position of a chosen
scene point (the detection centroid by default; the landing loop re-seats
it on the committed center), propagated by the common scale-and-shift
motion of the surviving points. Servoing on the anchor keeps the error
signal continuous when individual points drop out or new ones are
detected.

The control law maps the normalized image error of the anchor through the
pseudoinverse of the point interaction matrix; its gain, speed limits
and descent gate are read from ``Params``. The emitted command's lateral
components live in camera axes (image right / image down); the vertical
component is up-positive, so descent is a negative ``vz``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .params import Params
from .scene import CameraModel, _bilinear_grid

_MIN_CORNER_SCORE = 1e-5  # variance threshold; constant patches score zero
_SCORE_WIN = 5            # px, window of the corner variance score
_NMS_RADIUS = 3           # px, corner non-maximum suppression half-window
_REFINE_ITERS = 3         # Gauss-Newton steps of the sub-pixel refinement


@dataclass
class FeatureSet:
    points: np.ndarray      # (N, 2) float64 pixel positions (u, v)
    patches: np.ndarray     # (N, P, P) templates sampled at detection/refresh
    anchor_px: np.ndarray   # (2,) propagated image position of the servo target
    ref_z: float            # depth at which the templates were sampled

    @property
    def n_t(self) -> int:
        return int(self.points.shape[0])


def _variance_score(intensity: np.ndarray) -> np.ndarray:
    mean = ndimage.uniform_filter(intensity, size=_SCORE_WIN, mode="nearest")
    mean_sq = ndimage.uniform_filter(intensity * intensity, size=_SCORE_WIN, mode="nearest")
    return np.clip(mean_sq - mean * mean, 0.0, None)


def detect_features(intensity: np.ndarray, allowed: np.ndarray, *,
                    n_max: int, patch_radius: int,
                    margin: int | None = None) -> np.ndarray:
    """Top corner candidates as an (N, 2) integer (u, v) array."""
    h, w = intensity.shape
    score = _variance_score(intensity)
    edge = patch_radius if margin is None else margin
    ok = allowed.copy()
    ok[:edge, :] = False
    ok[-edge:, :] = False
    ok[:, :edge] = False
    ok[:, -edge:] = False
    local_max = ndimage.maximum_filter(score, size=2 * _NMS_RADIUS + 1,
                                       mode="nearest") == score
    cand = ok & local_max & (score > _MIN_CORNER_SCORE)
    vs, us = np.nonzero(cand)
    if vs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    order = np.lexsort((us, vs, -score[vs, us]))[:n_max]
    return np.stack([us[order], vs[order]], axis=1).astype(np.int64)


def _sample_patches(intensity: np.ndarray, points: np.ndarray,
                    patch_radius: int) -> np.ndarray:
    """Whole-pixel templates centered on the rounded points (inside the image)."""
    pr = patch_radius
    centers = np.round(points).astype(np.int64)
    windows = sliding_window_view(intensity, (2 * pr + 1, 2 * pr + 1))
    return windows[centers[:, 1] - pr, centers[:, 0] - pr]


def _warp_template(templates: np.ndarray, scale: float) -> np.ndarray:
    """Templates (..., P, P) as they would appear after the scene magnified by ``scale``.

    Exact identity at scale 1 so a static scene still matches bit-exactly.
    """
    if scale == 1.0:
        return templates
    p = templates.shape[-1]
    c = (p - 1) / 2.0
    coords = np.clip((np.arange(p) - c) / scale + c, 0.0, p - 1.0)
    i0 = np.minimum(coords.astype(np.int64), p - 2)
    f = coords - i0
    rows = templates[..., i0, :] * (1.0 - f)[:, None] + templates[..., i0 + 1, :] * f[:, None]
    return rows[..., i0] * (1.0 - f)[None, :] + rows[..., i0 + 1] * f[None, :]


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # math.hypot, not np.hypot: the two differ in the last bit on some inputs
    return np.fromiter(map(math.hypot, x, y), dtype=float, count=len(x))


def _subpixel_refine(intensity: np.ndarray, templates: np.ndarray,
                     points: np.ndarray, active: np.ndarray,
                     patch_radius: int) -> np.ndarray:
    """Gauss-Newton alignment of each active point's patch onto its template.

    A point stops when its patch would leave the image, its normal
    matrix is singular or its step falls under 1e-3 px; a point that
    wandered more than 1.5 px keeps its start (the SSD answer).
    """
    h, w = intensity.shape
    pr = patch_radius
    offs = np.arange(-pr, pr + 1)
    pts = points.copy()
    active = active.copy()
    for _ in range(_REFINE_ITERS):
        u, v = pts[:, 0], pts[:, 1]
        active &= (pr + 1 <= u) & (u <= w - 2 - pr) & (pr + 1 <= v) & (v <= h - 2 - pr)
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        patch = _bilinear_grid(intensity, 1.0, (u[idx, None] + offs)[:, None, :],
                               (v[idx, None] + offs)[:, :, None], 0.0)
        r = (patch - templates[idx])[:, 1:-1, 1:-1].reshape(idx.size, -1)
        gu = (0.5 * (patch[:, 1:-1, 2:] - patch[:, 1:-1, :-2])).reshape(idx.size, -1)
        gv = (0.5 * (patch[:, 2:, 1:-1] - patch[:, :-2, 1:-1])).reshape(idx.size, -1)
        # np.vecdot reproduces the bits of a 1-D ``gu @ gu``; einsum and sum do not
        h00 = np.vecdot(gu, gu) + 1e-12
        h11 = np.vecdot(gv, gv) + 1e-12
        h01 = np.vecdot(gu, gv)
        b0 = np.vecdot(gu, r)
        b1 = np.vecdot(gv, r)
        det = h00 * h11 - h01 * h01
        solvable = det > 1e-18
        active[idx[~solvable]] = False
        idx, det = idx[solvable], det[solvable]
        h00, h11, h01, b0, b1 = (a[solvable] for a in (h00, h11, h01, b0, b1))
        du = -(h11 * b0 - h01 * b1) / det
        dv = -(h00 * b1 - h01 * b0) / det
        step = _hypot(du, dv)
        norm = np.where(step > 1.0, step, 1.0)
        pts[idx, 0] += du / norm
        pts[idx, 1] += dv / norm
        active[idx[step < 1e-3]] = False
    runaway = _hypot(pts[:, 0] - points[:, 0], pts[:, 1] - points[:, 1]) > 1.5
    pts[runaway] = points[runaway]
    return pts


_SSD_CHUNK = 8  # points per block of the SSD; bounds its (8, S, S, P, P) temporary


def _match_points(intensity: np.ndarray, templates: np.ndarray, points: np.ndarray,
                  search_radius: int, patch_radius: int,
                  mse_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-SSD match of every template in its search window, then refined.

    Returns the matched positions and a mask of the points that matched:
    a point fails when its window, clipped so the patch stays inside the
    image, is empty or its best mean squared error exceeds ``mse_max``.
    Positions outside a point's clipped window score inf, so the
    row-major argmin picks the same position as a search of the clipped
    window alone.
    """
    h, w = intensity.shape
    pr, sr = patch_radius, search_radius
    p, s = 2 * pr + 1, 2 * sr + 1
    n = points.shape[0]
    offs = np.arange(-sr, sr + 1)
    centers = np.round(points).astype(np.int64)
    us = centers[:, 0, None] + offs                 # (N, S) candidate columns
    vs = centers[:, 1, None] + offs                 # (N, S) candidate rows
    inside = (((vs >= pr) & (vs <= h - 1 - pr))[:, :, None]
              & ((us >= pr) & (us <= w - 1 - pr))[:, None, :])
    windows = sliding_window_view(intensity, (p, p))
    rows = np.clip(vs - pr, 0, h - p)[:, :, None]
    cols = np.clip(us - pr, 0, w - p)[:, None, :]
    ssd = np.empty((n, s, s))
    for c in range(0, n, _SSD_CHUNK):
        blk = slice(c, c + _SSD_CHUNK)
        diff = windows[rows[blk], cols[blk]]        # (chunk, S, S, P, P) copy
        diff -= templates[blk, None, None]
        np.square(diff, out=diff)
        ssd[blk] = diff.sum(axis=(3, 4))
    ssd[~inside] = np.inf
    ssd = ssd.reshape(n, s * s)
    flat = np.argmin(ssd, axis=1)
    each = np.arange(n)
    best = ssd[each, flat]
    matched = best / (p * p) <= mse_max
    j, i = np.divmod(flat, s)
    hits = np.stack([us[each, i], vs[each, j]], axis=1).astype(float)
    # an exact integer match is kept as-is so a static scene tracks with zero drift
    hits = _subpixel_refine(intensity, templates, hits, matched & (best > 0.0), pr)
    return hits, matched


def _fit_similarity(prev_pts: np.ndarray, new_pts: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    p_bar = prev_pts.mean(axis=0)
    q_bar = new_pts.mean(axis=0)
    dp = prev_pts - p_bar
    dq = new_pts - q_bar
    denom = float((dp * dp).sum())
    k = float((dp * dq).sum()) / denom if denom > 1e-12 else 1.0
    return k, p_bar, q_bar


def _similarity_step(prev_pts: np.ndarray, new_pts: np.ndarray,
                     anchor: np.ndarray) -> np.ndarray:
    """Propagate the anchor by the common scale-and-shift of the matched points.

    One trimming pass discards correspondences that disagree with the
    consensus motion (typically points degrading near the image border)
    before the final fit.
    """
    if prev_pts.shape[0] == 0:
        return anchor
    if prev_pts.shape[0] == 1:
        return anchor + (new_pts[0] - prev_pts[0])
    k, p_bar, q_bar = _fit_similarity(prev_pts, new_pts)
    if prev_pts.shape[0] >= 4:
        pred = k * (prev_pts - p_bar) + q_bar
        res = np.hypot(*(new_pts - pred).T)
        cut = max(0.5, 2.5 * float(np.median(res)))
        keep = res <= cut
        if keep.sum() >= 3 and keep.sum() < keep.size:
            k, p_bar, q_bar = _fit_similarity(prev_pts[keep], new_pts[keep])
    return k * (anchor - p_bar) + q_bar


def _resample(intensity: np.ndarray, points: np.ndarray,
              patch_radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Snap points to whole pixels and sample fresh templates there.

    Points whose template would leave the image are dropped.
    """
    h, w = intensity.shape
    pr = patch_radius
    inb = ((points[:, 0] >= pr) & (points[:, 0] <= w - 1 - pr)
           & (points[:, 1] >= pr) & (points[:, 1] <= h - 1 - pr))
    points = np.round(points[inb])
    return points, _sample_patches(intensity, points, pr)


def detect_and_track(intensity: np.ndarray, region_mask: np.ndarray,
                     previous: FeatureSet | None, params: Params, *,
                     z_now: float = math.nan) -> FeatureSet:
    """Initialize or advance the tracked feature set on a new intensity image.

    A returned set with ``n_t == 0`` is the tracking-lost signal. On
    initialization, detection is restricted to ``region_mask``; on later
    frames the mask bounds re-detection, which triggers whenever the
    population falls under ``n_min`` and searches a disk around the anchor.
    """
    pr = params.patch_radius
    margin = pr + 3
    if previous is None:
        pts = detect_features(intensity, region_mask, n_max=params.n_max,
                              patch_radius=pr, margin=margin)
        ptsf = pts.astype(float)
        anchor = ptsf.mean(axis=0) if len(ptsf) else np.zeros(2)
        return FeatureSet(points=ptsf, patches=_sample_patches(intensity, ptsf, pr),
                          anchor_px=anchor, ref_z=z_now)

    # known relative scale between template capture and now; warping the
    # template removes the matching bias a raw SSD would pick up
    scale = 1.0
    if math.isfinite(z_now) and math.isfinite(previous.ref_z) \
            and previous.ref_z > 0.0 and z_now > 0.0:
        scale = float(np.clip(previous.ref_z / z_now, 0.6, 1.8))

    h_img, w_img = intensity.shape
    border = float(margin)  # cull points before border clipping degrades their matches
    hits, matched = _match_points(intensity, _warp_template(previous.patches, scale),
                                  previous.points, params.search_radius, pr,
                                  params.mse_max)
    keep = (matched & (border <= hits[:, 0]) & (hits[:, 0] <= w_img - 1 - border)
            & (border <= hits[:, 1]) & (hits[:, 1] <= h_img - 1 - border))
    prev_pts, new_pts = previous.points[keep], hits[keep]
    anchor = _similarity_step(prev_pts, new_pts, previous.anchor_px)
    patches = previous.patches[keep]
    ref_z = previous.ref_z

    # refresh templates after a meaningful depth (scale) change; stored
    # positions snap to the new patch centers so no false motion enters
    # the anchor on the next frame
    if new_pts.shape[0] and math.isfinite(z_now) and math.isfinite(ref_z) \
            and ref_z > 0.0 and abs(z_now / ref_z - 1.0) > params.retemplate_ratio:
        new_pts, patches = _resample(intensity, new_pts, pr)
        ref_z = z_now

    if new_pts.shape[0] < params.n_min:
        vs = np.arange(h_img)[:, None]
        us = np.arange(w_img)[None, :]
        radius = max(2 * params.commit_window_px, 2 * params.search_radius)
        disk = (us - anchor[0]) ** 2 + (vs - anchor[1]) ** 2 <= radius ** 2
        allowed = disk & region_mask
        fresh = detect_features(intensity, allowed, n_max=params.n_max,
                                patch_radius=pr, margin=margin).astype(float)
        if fresh.shape[0]:
            if new_pts.shape[0]:
                d2 = ((fresh[:, None, :] - new_pts[None, :, :]) ** 2).sum(axis=2)
                fresh = fresh[d2.min(axis=1) > (2.0 * pr) ** 2]
            if fresh.shape[0]:
                fresh = fresh[: params.n_max - new_pts.shape[0]]
                # the whole set must share one template capture depth:
                # survivors are snapped and resampled alongside the new points
                new_pts, patches = _resample(intensity, np.vstack([new_pts, fresh]), pr)
                if math.isfinite(z_now):
                    ref_z = z_now

    return FeatureSet(points=new_pts, patches=patches, anchor_px=anchor, ref_z=ref_z)


# --------------------------------------------------------------------------
# control law
# --------------------------------------------------------------------------

def anchor_normalized(features: FeatureSet, camera: CameraModel) -> np.ndarray:
    xn, yn = camera.normalized(features.anchor_px[0], features.anchor_px[1])
    return np.array([float(xn), float(yn)])


def interaction_matrix(s, z: float) -> np.ndarray:
    """Point interaction matrix for normalized coordinates at depth z."""
    if not (np.isfinite(z) and z > 0.0):
        raise ValueError("depth must be positive and finite")
    u, v = float(s[0]), float(s[1])
    return np.array([[-1.0 / z, 0.0, u / z],
                     [0.0, -1.0 / z, v / z]])


def ibvs_velocity(s, z: float, error, gain: float) -> np.ndarray:
    """Raw control output -gain * pinv(L) @ e in optical-axis camera coordinates."""
    l_mat = interaction_matrix(s, z)
    return -gain * (np.linalg.pinv(l_mat) @ np.asarray(error, dtype=float))


@dataclass(frozen=True)
class VelocityCommand:
    vx: float  # m/s, camera x (image right)
    vy: float  # m/s, camera y (image down)
    vz: float  # m/s, up-positive; descent is negative

    @property
    def lateral_norm(self) -> float:
        return math.hypot(self.vx, self.vy)


HOVER = VelocityCommand(0.0, 0.0, 0.0)


def control(s, z: float, params: Params) -> VelocityCommand:
    """Saturated velocity command with gated descent; hovers on bad input.

    ``s`` is the anchor in normalized image coordinates and ``z`` the
    region depth. The target is the principal point, so the error is ``s``.
    """
    e = np.array([float(s[0]), float(s[1])])
    if not (np.all(np.isfinite(e)) and np.isfinite(z) and z > 0.0):
        return HOVER
    v_raw = ibvs_velocity(e, z, e, params.lam)
    if not np.all(np.isfinite(v_raw)):
        return HOVER
    vz = -float(v_raw[2])  # optical-axis forward -> up-positive
    if float(np.hypot(e[0], e[1])) < params.e_align:
        vz = -params.v_des
    vx, vy = float(v_raw[0]), float(v_raw[1])
    lat = math.hypot(vx, vy)
    if lat > params.v_xy_max:
        scale = params.v_xy_max / lat
        vx *= scale
        vy *= scale
    vz = float(np.clip(vz, -params.v_z_max, params.v_z_max))
    return VelocityCommand(vx=vx, vy=vy, vz=vz)

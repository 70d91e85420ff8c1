"""Salient-point tracking and the terminal visual-servo control law.

The tracker is deliberately simple: corner candidates are local maxima
of windowed intensity variance, matched by minimum patch SSD inside a
bounded search window (the template is pre-warped by the known relative
depth change, and a gradient-based sub-pixel refinement follows when the
best match is not exact). Templates refresh only after a re-detection
or a relative depth change over ``_RETEMPLATE_RATIO``, so a static
camera over a static scene tracks with exactly zero drift.

Matching is batched over the whole feature set: one SSD over every
point's full search window, gathered in blocks of a few points to bound
memory, and one Gauss-Newton refiner that stops each point on its own
rules through an active mask. Its reductions are the ones that keep the
bits of a per-point loop (a row-major argmin over windows of an image
padded with inf, so a window that leaves the image scores inf,
``np.vecdot`` for the dot products, ``math.hypot`` for step lengths).

The feature set also carries an anchor: the image position of the
committed center, where ``acquire`` places it, propagated by the common
scale-and-shift motion of the surviving points. Servoing on the anchor
keeps the error signal continuous when individual points drop out or
new ones are detected.

The control law maps the normalized image error of the anchor through
the pseudoinverse of the point interaction matrix; its gain, speed
limits and descent rate are read from ``Params``, and descent engages
under the error ``_E_ALIGN``. The emitted command's lateral components
live in camera axes (image right / image down); the vertical component
is up-positive, so descent is a negative ``vz``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .params import Params
from .scene import DepthFrame, _bilinear_grid, _lattice_coords

_MIN_CORNER_SCORE = 1e-5  # variance threshold; constant patches score zero
_SCORE_WIN = 5            # px, window of the corner variance score
_NMS_RADIUS = 3           # px, corner non-maximum suppression half-window
_REFINE_ITERS = 3         # Gauss-Newton steps of the sub-pixel refinement
_PATCH_RADIUS = 4         # px, template half-size (9x9 patches)
_N_MAX = 40               # feature budget
_COMMIT_WINDOW_PX = 24    # px, detection radius around the committed center
_MSE_MAX = 0.005          # per-pixel SSD threshold for accepting a match
_MARGIN = _PATCH_RADIUS + 3  # px, border that detection and the tracked points keep
_N_MIN = 8                # re-detect features below this count
_RETEMPLATE_RATIO = 0.25  # refresh templates after this relative depth change
_E_ALIGN = 0.05           # normalized image error below which descent engages


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


def detect_features(intensity: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """The top ``_N_MAX`` corners ``_MARGIN`` px or more inside the image, as (N, 2) int (u, v)."""
    score = _variance_score(intensity)
    inner = (slice(_MARGIN, -_MARGIN),) * 2
    ok = np.zeros_like(allowed)
    ok[inner] = allowed[inner]
    local_max = ndimage.maximum_filter(score, size=2 * _NMS_RADIUS + 1,
                                       mode="nearest") == score
    cand = ok & local_max & (score > _MIN_CORNER_SCORE)
    vs, us = np.nonzero(cand)
    if vs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    order = np.lexsort((us, vs, -score[vs, us]))[:_N_MAX]
    return np.stack([us[order], vs[order]], axis=1).astype(np.int64)


def _sample_patches(intensity: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Whole-pixel templates centered on the rounded points (inside the image)."""
    pr = _PATCH_RADIUS
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
    i0, f, e, _ = _lattice_coords((np.arange(p) - c) / scale + c, p)
    rows = templates[..., i0, :] * e[:, None] + templates[..., i0 + 1, :] * f[:, None]
    return rows[..., i0] * e[None, :] + rows[..., i0 + 1] * f[None, :]


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # math.hypot, not np.hypot: the two differ in the last bit on some inputs
    return np.fromiter(map(math.hypot, x, y), dtype=float, count=len(x))


def _subpixel_refine(intensity: np.ndarray, templates: np.ndarray,
                     points: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Gauss-Newton alignment of each active point's patch onto its template.

    A point stops when its patch would leave the image, its normal
    matrix is singular or its step falls under 1e-3 px; a point that
    wandered more than 1.5 px keeps its start (the SSD answer).
    """
    h, w = intensity.shape
    pr = _PATCH_RADIUS
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
                  search_radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-SSD match of every template in its search window, then refined.

    Every point's rounded position lies inside the image, as a tracked
    point's does. Returns the matched positions and a mask of the points
    that matched: a point fails when its best mean squared error exceeds
    ``_MSE_MAX``. The image is padded with inf, so a window that leaves it
    scores inf and the row-major argmin picks the same position as a
    search of the window clipped to the image alone.
    """
    pr, sr = _PATCH_RADIUS, search_radius
    p, s = 2 * pr + 1, 2 * sr + 1
    n = points.shape[0]
    offs = np.arange(-sr, sr + 1)
    centers = np.round(points).astype(np.int64)
    us = centers[:, 0, None] + offs                 # (N, S) candidate columns
    vs = centers[:, 1, None] + offs                 # (N, S) candidate rows
    padded = np.pad(intensity, sr + pr, constant_values=np.inf)
    windows = sliding_window_view(padded, (p, p))   # [j, i] centred on (u, v) = (i - sr, j - sr)
    rows = (vs + sr)[:, :, None]
    cols = (us + sr)[:, None, :]
    ssd = np.empty((n, s, s))
    for c in range(0, n, _SSD_CHUNK):
        blk = slice(c, c + _SSD_CHUNK)
        diff = windows[rows[blk], cols[blk]]        # (chunk, S, S, P, P) copy
        diff -= templates[blk, None, None]
        np.square(diff, out=diff)
        ssd[blk] = diff.sum(axis=(3, 4))
    ssd = ssd.reshape(n, s * s)
    flat = np.argmin(ssd, axis=1)
    each = np.arange(n)
    best = ssd[each, flat]
    matched = best / (p * p) <= _MSE_MAX
    j, i = np.divmod(flat, s)
    hits = np.stack([us[each, i], vs[each, j]], axis=1).astype(float)
    # without refinement the median touchdown error (cluttered seeds 0-39) is 0.217 m,
    # not 0.033 m; an exact integer match is kept as-is so a static scene has zero drift
    hits = _subpixel_refine(intensity, templates, hits, matched & (best > 0.0))
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
    before the final fit; without it the median touchdown error nearly triples.
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


def detect_and_track(intensity: np.ndarray, region_mask: np.ndarray,
                     previous: FeatureSet, params: Params, *,
                     z_now: float) -> FeatureSet:
    """Advance the tracked feature set onto a new intensity image.

    A returned set with ``n_t == 0`` is the tracking-lost signal.
    ``region_mask`` bounds re-detection, which triggers whenever the
    population falls under ``_N_MIN`` and searches a disk around the anchor.
    ``z_now`` is the current region depth, finite and positive.
    """
    # known relative scale between template capture and now; warping the
    # template removes the matching bias a raw SSD would pick up (without it
    # one of cluttered seeds 0-39 aborts, and the worst touchdown error is 0.27 m)
    scale = float(np.clip(previous.ref_z / z_now, 0.6, 1.8))

    hits, matched = _match_points(intensity, _warp_template(previous.patches, scale),
                                  previous.points, params.search_radius)
    # cull points before border clipping degrades their matches
    inside = (_MARGIN <= hits) & (hits <= np.array(intensity.shape[::-1]) - 1 - _MARGIN)
    keep = matched & inside.all(axis=1)
    prev_pts, new_pts = previous.points[keep], hits[keep]
    anchor = _similarity_step(prev_pts, new_pts, previous.anchor_px)
    patches = previous.patches[keep]
    ref_z = previous.ref_z

    # refresh templates after a meaningful depth (scale) change or a
    # re-detection; stored positions snap to the new patch centers so no
    # false motion enters the anchor on the next frame
    refresh = bool(new_pts.shape[0]) and abs(z_now / ref_z - 1.0) > _RETEMPLATE_RATIO
    if refresh:
        new_pts = np.round(new_pts)

    if new_pts.shape[0] < _N_MIN:
        radius = max(2 * _COMMIT_WINDOW_PX, 2 * params.search_radius)
        allowed = _disk(intensity.shape, anchor, radius) & region_mask
        fresh = detect_features(intensity, allowed).astype(float)
        if new_pts.shape[0]:
            d2 = ((fresh[:, None, :] - new_pts[None, :, :]) ** 2).sum(axis=2)
            fresh = fresh[d2.min(axis=1) > (2.0 * _PATCH_RADIUS) ** 2]
        if fresh.shape[0]:
            # the whole set must share one template capture depth: the
            # survivors are refreshed alongside the new points
            new_pts = np.vstack([new_pts, fresh[: _N_MAX - new_pts.shape[0]]])
            refresh = True

    # the border cull and detection both keep every point ``_MARGIN`` px inside
    if refresh:
        new_pts = np.round(new_pts)
        patches = _sample_patches(intensity, new_pts)
        ref_z = z_now
    return FeatureSet(points=new_pts, patches=patches, anchor_px=anchor, ref_z=ref_z)


def _disk(shape: tuple[int, int], center, radius: float) -> np.ndarray:
    """(H, W) mask of the pixels within ``radius`` px of ``center`` (u, v)."""
    vs, us = np.ogrid[:shape[0], :shape[1]]
    return (us - center[0]) ** 2 + (vs - center[1]) ** 2 <= radius ** 2


def acquire(frame: DepthFrame, center_px: np.ndarray,
            region_pixels: np.ndarray) -> FeatureSet | None:
    """Detect the feature set that locks onto a committed center at ``center_px``.

    Searches the ``_COMMIT_WINDOW_PX`` disk, then the 3x disk; in each the
    valid pixels of ``region_pixels`` ((H, W) bool), or every valid pixel
    of the disk when the region has none there. Returns the corners found
    and their templates, anchored on ``center_px``, with ``ref_z`` the
    mean depth of the pixels searched; None when neither disk holds one.
    """
    for radius in (_COMMIT_WINDOW_PX, 3 * _COMMIT_WINDOW_PX):
        disk = _disk(frame.valid.shape, center_px, radius) & frame.valid
        allowed = disk & region_pixels
        if not allowed.any():
            allowed = disk
        pts = detect_features(frame.intensity, allowed).astype(float)
        if len(pts):
            return FeatureSet(points=pts, patches=_sample_patches(frame.intensity, pts),
                              anchor_px=np.asarray(center_px, dtype=float),
                              ref_z=float(frame.depth[allowed].mean()))
    return None


# --------------------------------------------------------------------------
# control law
# --------------------------------------------------------------------------

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
    if float(np.hypot(e[0], e[1])) < _E_ALIGN:
        vz = -params.v_des
    vx, vy = float(v_raw[0]), float(v_raw[1])
    lat = math.hypot(vx, vy)
    if lat > params.v_xy_max:
        scale = params.v_xy_max / lat
        vx *= scale
        vy *= scale
    vz = float(np.clip(vz, -params.v_z_max, params.v_z_max))
    return VelocityCommand(vx=vx, vy=vy, vz=vz)

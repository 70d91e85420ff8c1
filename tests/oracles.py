"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written on a different route than the
library code: scalar loops instead of vectorization, direct definitions
instead of two-pass algorithms, normal equations instead of SVD.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np


def belief_recursion(b0: float, alpha: float, pairs) -> list[float]:
    """Scripted two-equation recursion: persistence mix, then Bayes update."""
    beliefs = []
    b = b0
    for l1, l0 in pairs:
        b_bar = alpha * b + (1.0 - alpha) * (1.0 - b)
        b = (l1 * b_bar) / (l1 * b_bar + l0 * (1.0 - b_bar))
        beliefs.append(b)
    return beliefs


def brute_force_distance_sq(targets: np.ndarray, pad_with_targets: bool = False) -> np.ndarray:
    """Nearest-target squared distance by direct minimization over all targets."""
    t = np.asarray(targets, dtype=bool)
    if pad_with_targets:
        t = np.pad(t, 1, constant_values=True)
    h, w = t.shape
    ty, tx = np.nonzero(t)
    out = np.full((h, w), 10**12, dtype=np.int64)
    if ty.size:
        ys = np.arange(h, dtype=np.int64)
        xs = np.arange(w, dtype=np.int64)
        dy2 = (ys[:, None] - ty[None, :]) ** 2           # (H, K)
        dx2 = (xs[:, None] - tx[None, :]) ** 2           # (W, K)
        for y in range(h):
            out[y] = (dy2[y][None, :] + dx2).min(axis=1)
    if pad_with_targets:
        out = out[1:-1, 1:-1]
    return out


def screen_pass_mask(depth: np.ndarray, valid: np.ndarray, cam_z: float, k: int,
                     v_max: float, g_max: float, tie: float = 1e-9):
    """Screening's pass mask by a scalar loop per pixel, and the pixels
    whose height std or gradient magnitude lies within ``tie`` of its
    threshold, where rounding may decide either way.

    A pixel passes when it is valid, when at least max(3, k²/3) pixels of
    its k×k window (rows and columns i - k//2 .. i + (k-1)//2, cut at the
    image border) are valid, when the population std of those pixels'
    heights ``cam_z - depth`` is at most ``v_max``, and when its depth
    gradient is defined with magnitude at most ``g_max``. Along each axis
    the gradient is the central difference when both neighbours are
    valid, the difference to the one valid neighbour otherwise, and
    undefined with no valid neighbour.
    """
    h, w = depth.shape
    ok = np.zeros((h, w), dtype=bool)
    near = np.zeros((h, w), dtype=bool)

    def is_valid(y: int, x: int) -> bool:
        return 0 <= y < h and 0 <= x < w and bool(valid[y, x])

    def diff(y: int, x: int, dy: int, dx: int) -> float | None:
        prev_ok, next_ok = is_valid(y - dy, x - dx), is_valid(y + dy, x + dx)
        if prev_ok and next_ok:
            return (depth[y + dy, x + dx] - depth[y - dy, x - dx]) * 0.5
        if next_ok:
            return depth[y + dy, x + dx] - depth[y, x]
        if prev_ok:
            return depth[y, x] - depth[y - dy, x - dx]
        return None

    for y in range(h):
        for x in range(w):
            if not valid[y, x]:
                continue
            heights = [cam_z - depth[yy, xx]
                       for yy in range(y - k // 2, y + (k - 1) // 2 + 1)
                       for xx in range(x - k // 2, x + (k - 1) // 2 + 1)
                       if is_valid(yy, xx)]
            if len(heights) < max(3.0, k * k / 3.0):
                continue
            mean = sum(heights) / len(heights)
            std = math.sqrt(sum((z - mean) ** 2 for z in heights) / len(heights))
            gx, gy = diff(y, x, 0, 1), diff(y, x, 1, 0)
            if gx is None or gy is None:
                continue
            mag = math.sqrt(gx * gx + gy * gy)
            ok[y, x] = std <= v_max and mag <= g_max
            near[y, x] = abs(std - v_max) <= tie or abs(mag - g_max) <= tie
    return ok, near


def footprint_keys(cells) -> np.ndarray:
    """Sorted unique footprint keys cx·2³² + cy of (cx, cy) integer cells."""
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    return np.unique(cells[:, 0] * 2**32 + cells[:, 1])


def footprint_iou(keys_a: np.ndarray, keys_b: np.ndarray) -> float:
    """IoU of two ground footprints given as unique cell-key arrays."""
    if len(keys_a) == 0 or len(keys_b) == 0:
        return 0.0
    inter = np.intersect1d(keys_a, keys_b, assume_unique=True).size
    union = keys_a.size + keys_b.size - inter
    return inter / union if union else 0.0


def pinv_normal_equations(l_mat: np.ndarray) -> np.ndarray:
    """Right pseudoinverse of a full-row-rank matrix via the normal equations."""
    l_mat = np.asarray(l_mat, dtype=float)
    return l_mat.T @ np.linalg.inv(l_mat @ l_mat.T)


def flood_fill_labels(mask: np.ndarray) -> np.ndarray:
    """4-connected component labels by breadth-first flood fill."""
    m = np.asarray(mask, dtype=bool)
    labels = np.zeros(m.shape, dtype=np.int32)
    current = 0
    for sy, sx in zip(*np.nonzero(m)):
        if labels[sy, sx]:
            continue
        current += 1
        queue = deque([(sy, sx)])
        labels[sy, sx] = current
        while queue:
            y, x = queue.popleft()
            for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                if 0 <= ny < m.shape[0] and 0 <= nx < m.shape[1] \
                        and m[ny, nx] and not labels[ny, nx]:
                    labels[ny, nx] = current
                    queue.append((ny, nx))
    return labels


def svd_plane_fit(points: np.ndarray):
    """Plane normal and RMS orthogonal residual via full SVD of centered points."""
    pts = np.asarray(points, dtype=float)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    normal = vt[-1]
    if normal @ centroid > 0:
        normal = -normal
    rms = svals[-1] / math.sqrt(pts.shape[0])
    return normal, float(rms), centroid


def first_order_velocity(setpoint: float, dt: float, t_v: float, steps: int) -> float:
    """Closed form of v_{k+1} = v_k + (dt/t_v)(u - v_k) from rest."""
    a = 1.0 - dt / t_v
    return setpoint * (1.0 - a ** steps)


def _bilinear_scalar(grid: np.ndarray, resolution: float, x: float, y: float,
                     out_of_bounds: float) -> float:
    gx = x / resolution
    gy = y / resolution
    ny, nx = grid.shape
    if not (0.0 <= gx <= nx - 1 and 0.0 <= gy <= ny - 1):
        return out_of_bounds
    gxc = min(max(gx, 0.0), nx - 1)
    gyc = min(max(gy, 0.0), ny - 1)
    i0 = min(int(gxc), nx - 2)
    j0 = min(int(gyc), ny - 2)
    fx = gxc - i0
    fy = gyc - j0
    return (grid[j0, i0] * (1 - fx) * (1 - fy)
            + grid[j0, i0 + 1] * fx * (1 - fy)
            + grid[j0 + 1, i0] * (1 - fx) * fy
            + grid[j0 + 1, i0 + 1] * fx * fy)


# world -> camera rotation of the level nadir camera (optical axis along
# world -z); the package writes its products out in closed form
NADIR_WC = np.diag([1.0, -1.0, -1.0])
NADIR_CW = NADIR_WC.T


def nadir_pixel_dirs(camera) -> np.ndarray:
    """(H, W, 3) world ray per pixel per meter of depth, through the rotation."""
    xn, yn = camera.normalized(np.arange(camera.width), np.arange(camera.height))
    dirs = np.empty((camera.height, camera.width, 3))
    dirs[..., 0] = xn[None, :]
    dirs[..., 1] = yn[:, None]
    dirs[..., 2] = 1.0
    return dirs @ NADIR_CW.T


def command_to_world(vx: float, vy: float, vz: float) -> np.ndarray:
    """Camera-axis lateral command rotated into the world, plus world-up vz."""
    return NADIR_CW @ np.array([vx, vy, 0.0]) + np.array([0.0, 0.0, vz])


def project_px(camera, point_world) -> np.ndarray:
    """Pinhole projection of a world point through the rotation; the image
    centre for a point not in front of the camera."""
    p_cam = NADIR_WC @ (np.asarray(point_world, dtype=float) - camera.position)
    cx, cy = camera.principal_point
    if p_cam[2] <= 0.0:
        return np.array([cx, cy])
    return np.array([camera.focal_length * p_cam[0] / p_cam[2] + cx,
                     camera.focal_length * p_cam[1] / p_cam[2] + cy])


def backproject(camera, u, v, depth) -> np.ndarray:
    """Pixel + z-depth -> world point, through the rotation."""
    xn, yn = camera.normalized(u, v)
    d = np.asarray(depth, dtype=float)
    pts_cam = np.stack([xn * d, yn * d, d], axis=-1)
    return pts_cam @ NADIR_CW.T + camera.position


def raymarch_depth(world, camera, u: int, v: int, max_range: float = 100.0) -> float:
    """Scalar re-derivation of one pixel's z-depth: boxes by slab test,
    terrain by fixed-step march with one bisection and a secant finish.

    Returns inf when the ray hits nothing.
    """
    cx, cy = camera.principal_point
    f = camera.focal_length
    d_cam = np.array([(u - cx) / f, (v - cy) / f, 1.0])
    d_w = NADIR_WC.T @ d_cam
    origin = np.asarray(camera.position, dtype=float)
    cam_z = float(origin[2])

    t_box = math.inf
    for box in world.obstacles:
        base = _bilinear_scalar(world.heights, world.resolution,
                                box.center[0], box.center[1], -1e30)
        lo = (box.center[0] - box.extents[0] / 2, box.center[1] - box.extents[1] / 2, base)
        hi = (box.center[0] + box.extents[0] / 2, box.center[1] + box.extents[1] / 2,
              base + box.height)
        t_near, t_far = -math.inf, math.inf
        ok = True
        for axis in range(3):
            if abs(d_w[axis]) < 1e-12:
                if not lo[axis] <= origin[axis] <= hi[axis]:
                    ok = False
                    break
                continue
            t0 = (lo[axis] - origin[axis]) / d_w[axis]
            t1 = (hi[axis] - origin[axis]) / d_w[axis]
            t_near = max(t_near, min(t0, t1))
            t_far = min(t_far, max(t0, t1))
        if ok and t_near <= t_far and t_far > 0:
            t_box = min(t_box, t_near if t_near > 0 else t_far)

    step = world.resolution * 0.5
    hmax = float(world.heights.max())
    hmin = float(world.heights.min())

    # the sample count is shared across the frame: derived from the widest
    # per-pixel window, exactly as the renderer does
    max_span = 0.0
    for vv in range(camera.height):
        for uu in range(camera.width):
            dzp = ((uu - cx) / f) * NADIR_WC.T[2, 0] \
                + ((vv - cy) / f) * NADIR_WC.T[2, 1] \
                + NADIR_WC.T[2, 2]
            if dzp < -1e-9:
                lo_p = max((cam_z - hmax) / (-dzp) - step, 1e-6)
                hi_p = min((cam_z - hmin) / (-dzp) + step, max_range)
                max_span = max(max_span, max(hi_p - lo_p, 0.0))

    t_terrain = math.inf
    dz = float(d_w[2])
    if dz < -1e-9 and max_span > 0.0:
        n = max(int(math.ceil(max_span / step)) + 1, 2)
        t_lo = max((cam_z - hmax) / (-dz) - step, 1e-6)
        t_hi = min((cam_z - hmin) / (-dz) + step, max_range)
        span = max(t_hi - t_lo, 0.0)

        def g_of(tq: float) -> float:
            px = origin[0] + tq * d_w[0]
            py = origin[1] + tq * d_w[1]
            pz = cam_z + tq * dz
            return pz - _bilinear_scalar(world.heights, world.resolution, px, py, -1e30)

        prev_t = t_lo
        prev_g = g_of(prev_t)
        for k in range(1, n + 1):
            tk = t_lo + (k / n) * span
            gk = g_of(tk)
            if gk <= 0.0:
                ta, ga, tb, gb = prev_t, prev_g, tk, gk
                tm = 0.5 * (ta + tb)
                gm = g_of(tm)
                if gm <= 0.0:
                    tb, gb = tm, gm
                else:
                    ta, ga = tm, gm
                denom = ga - gb
                t_terrain = ta + ga * (tb - ta) / denom if denom > 0 else tb
                break
            prev_t, prev_g = tk, gk

    depth = min(t_terrain, t_box)
    return depth if (math.isfinite(depth) and 0.0 < depth <= max_range) else math.inf


# --------------------------------------------------------------------------
# per-point tracker and full-lattice renderer: the loop forms the batched
# library code replaced, kept as bit-exact references for it
# --------------------------------------------------------------------------

def warp_template(template: np.ndarray, scale: float) -> np.ndarray:
    """One (P, P) template magnified by ``scale``; identity at scale 1."""
    if scale == 1.0:
        return template
    p = template.shape[0]
    c = (p - 1) / 2.0
    coords = np.clip((np.arange(p) - c) / scale + c, 0.0, p - 1.0)
    i0 = np.minimum(coords.astype(np.int64), p - 2)
    f = coords - i0
    rows = template[i0, :] * (1.0 - f)[:, None] + template[i0 + 1, :] * f[:, None]
    return rows[:, i0] * (1.0 - f)[None, :] + rows[:, i0 + 1] * f[None, :]


def sample_patch(intensity: np.ndarray, u: float, v: float, pr: int):
    """Bilinear (P, P) patch centered at (u, v), or None when it would leave the image."""
    h, w = intensity.shape
    if not (pr + 1 <= u <= w - 2 - pr and pr + 1 <= v <= h - 2 - pr):
        return None
    return np.array([[_bilinear_scalar(intensity, 1.0, u + du, v + dv, 0.0)
                      for du in range(-pr, pr + 1)] for dv in range(-pr, pr + 1)])


def subpixel_refine(intensity: np.ndarray, template: np.ndarray, u: float,
                    v: float, pr: int, iters: int = 3) -> tuple[float, float]:
    """Gauss-Newton sub-pixel alignment of one patch onto its template."""
    uu, vv = u, v
    for _ in range(iters):
        patch = sample_patch(intensity, uu, vv, pr)
        if patch is None:
            break
        r = (patch - template)[1:-1, 1:-1].ravel()
        gu = 0.5 * (patch[1:-1, 2:] - patch[1:-1, :-2]).ravel()
        gv = 0.5 * (patch[2:, 1:-1] - patch[:-2, 1:-1]).ravel()
        h00 = float(gu @ gu) + 1e-12
        h11 = float(gv @ gv) + 1e-12
        h01 = float(gu @ gv)
        b0 = float(gu @ r)
        b1 = float(gv @ r)
        det = h00 * h11 - h01 * h01
        if det <= 1e-18:
            break
        du = -(h11 * b0 - h01 * b1) / det
        dv = -(h00 * b1 - h01 * b0) / det
        step = math.hypot(du, dv)
        if step > 1.0:
            du, dv = du / step, dv / step
        uu += du
        vv += dv
        if step < 1e-3:
            break
    if math.hypot(uu - u, vv - v) > 1.5:  # runaway refinement: keep the SSD answer
        return u, v
    return uu, vv


def match_point(intensity: np.ndarray, template: np.ndarray, u: float, v: float,
                sr: int, pr: int, mse_max: float) -> tuple[float, float] | None:
    """Minimum-SSD match of one template inside its clipped search window."""
    h, w = intensity.shape
    ui, vi = int(round(u)), int(round(v))
    v0, v1 = max(vi - sr, pr), min(vi + sr, h - 1 - pr)
    u0, u1 = max(ui - sr, pr), min(ui + sr, w - 1 - pr)
    if v1 < v0 or u1 < u0:
        return None
    p = 2 * pr + 1
    ssd = np.empty((v1 - v0 + 1, u1 - u0 + 1))
    for j in range(ssd.shape[0]):
        for i in range(ssd.shape[1]):
            vc, uc = v0 + j, u0 + i
            window = intensity[vc - pr: vc + pr + 1, uc - pr: uc + pr + 1]
            ssd[j, i] = ((window - template) ** 2).reshape(1, p * p).sum(axis=1)[0]
    j, i = np.unravel_index(int(np.argmin(ssd)), ssd.shape)
    best = float(ssd[j, i])
    if best / (p * p) > mse_max:
        return None
    mu, mv = float(u0 + i), float(v0 + j)
    if best > 0.0:
        mu, mv = subpixel_refine(intensity, template, mu, mv, pr)
    return mu, mv


def box_intersect(origin: np.ndarray, dirs: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
    """First-hit ray parameter per pixel for one axis-aligned box (inf = miss),
    from the (H, W, 3) ray directions."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t0 = (lo - origin) * inv
        t1 = (hi - origin) * inv
    near = np.minimum(t0, t1)
    far = np.maximum(t0, t1)
    # axis-parallel rays: hit only if origin within the slab on that axis
    par = np.abs(dirs) < 1e-12
    inside = (origin >= lo) & (origin <= hi)
    near = np.where(par, np.where(inside, -np.inf, np.inf), near)
    far = np.where(par, np.where(inside, np.inf, -np.inf), far)
    t_enter = near.max(axis=-1)
    t_exit = far.min(axis=-1)
    hit = (t_enter <= t_exit) & (t_exit > 0.0)
    t_hit = np.where(t_enter > 0.0, t_enter, t_exit)  # origin inside: exit face
    return np.where(hit, t_hit, np.inf)


def render_full_march(world, camera):
    """Depth, validity and intensity of a view with every ray marched over
    the whole global lattice and every box slab-tested, from the (H, W, 3)
    world ray directions."""
    from safeland.scene import _MAX_RANGE

    dirs = camera.pixel_dirs_world()
    origin = camera.position
    cam_z = float(origin[2])
    h, w = camera.height, camera.width

    t_box = np.full((h, w), np.inf)
    box_shade = np.ones((h, w))
    for box in world.obstacles:
        base = float(world.height_at(*box.center))
        lo = np.array([box.center[0] - box.extents[0] / 2.0,
                       box.center[1] - box.extents[1] / 2.0, base])
        hi = np.array([box.center[0] + box.extents[0] / 2.0,
                       box.center[1] + box.extents[1] / 2.0, base + box.height])
        t = box_intersect(origin, dirs, lo, hi)
        closer = t < t_box
        t_box = np.where(closer, t, t_box)
        box_shade = np.where(closer, 0.85, box_shade)

    step = world.resolution * 0.5
    dz = dirs[..., 2]
    hmax = float(world.heights.max())
    hmin = float(world.heights.min())
    descending = dz < -1e-9
    inv_rate = np.where(descending, -dz, 1.0)
    t_lo = np.where(descending, np.maximum((cam_z - hmax) / inv_rate - step, 1e-6), 0.0)
    t_hi = np.minimum(np.where(descending, (cam_z - hmin) / inv_rate + step, 0.0), _MAX_RANGE)

    t_terrain = np.full((h, w), np.inf)
    span = np.maximum(np.where(descending, t_hi - t_lo, 0.0), 0.0)
    max_span = float(span.max()) if span.size else 0.0
    if max_span > 0.0:
        n = max(int(math.ceil(max_span / step)) + 1, 2)
        ks = np.arange(n + 1, dtype=float) / n
        ts = t_lo[None, ...] + ks[:, None, None] * span[None, ...]
        px = origin[0] + ts * dirs[..., 0][None, ...]
        py = origin[1] + ts * dirs[..., 1][None, ...]
        pz = cam_z + ts * dz[None, ...]
        g = pz - world.height_at(px, py)
        below = g <= 0.0
        any_hit = below.any(axis=0) & descending
        first = np.maximum(np.argmax(below, axis=0), 1)
        iy, ix = np.nonzero(any_hit)
        if iy.size:
            k1 = first[iy, ix]
            ta, tb = ts[k1 - 1, iy, ix], ts[k1, iy, ix]
            ga, gb = g[k1 - 1, iy, ix], g[k1, iy, ix]

            def g_of(tq):
                return (cam_z + tq * dz[iy, ix]) - world.height_at(
                    origin[0] + tq * dirs[iy, ix, 0], origin[1] + tq * dirs[iy, ix, 1])

            tm = 0.5 * (ta + tb)
            gm = g_of(tm)
            take_left = gm <= 0.0
            tb = np.where(take_left, tm, tb)
            gb = np.where(take_left, gm, gb)
            ta = np.where(take_left, ta, tm)
            ga = np.where(take_left, ga, gm)
            denom = ga - gb
            t_terrain[iy, ix] = np.where(
                denom > 0.0, ta + ga * (tb - ta) / np.where(denom > 0.0, denom, 1.0), tb)

    depth = np.minimum(t_terrain, t_box)
    valid = np.isfinite(depth) & (depth > 0.0) & (depth <= _MAX_RANGE)
    safe_depth = np.where(valid, depth, 1.0)
    shade = np.where(t_box < t_terrain, box_shade, 1.0)
    albedo = world.texture_at(origin[0] + safe_depth * dirs[..., 0],
                              origin[1] + safe_depth * dirs[..., 1],
                              safe_depth / camera.focal_length)
    intensity = np.where(valid, np.clip(albedo * shade, 0.0, 1.0), 0.0)
    return np.where(valid, depth, 0.0), valid, intensity

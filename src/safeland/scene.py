"""Procedural test worlds and a noisy downward-looking depth camera.

Conventions used throughout the package:

* World frame: x/y on the ground, z up, meters.
* Camera frame: x = image right, y = image down, z = optical axis
  (toward the scene). ``rotation_wc`` maps world vectors into this frame.
* Depth is z-depth: distance along the optical axis, not slant range.
  A level camera at altitude h over flat ground therefore reads h at
  every pixel.
* Invalid pixels are carried in an explicit boolean mask, never encoded
  as zero or NaN depth.

Rendering casts one ray per pixel against the heightfield (fixed-step
march at half the ground resolution, one bisection plus a secant
refinement on the bracketing interval) and against axis-aligned boxes
(exact slab test). The march lattice is shared by the frame and spans
the global height range, but only the window of it that can hold a
ray's first sample under the terrain is evaluated: it is bounded by the
highest and lowest terrain under the view's ground footprint. A view
with a ray that does not descend, or whose footprint leaves the
heightfield, marches the whole lattice. Boxes that no ray of the view
can reach are not slab-tested. Both bounds leave every result bit for
bit as the full march gives it. Rendering and corruption are pure
functions; the RNG for corruption is passed explicitly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

_EXIT_HEIGHT = -1.0e30  # stands in for "ray left the world bounds"
_MAX_RANGE = 100.0      # m, farther returns are invalid
_MARCH_MARGIN = 1e-9    # m, height slack of the march window


@dataclass(frozen=True)
class Box:
    """Axis-aligned obstacle: footprint center/extents in meters, height above terrain."""

    center: tuple[float, float]
    extents: tuple[float, float]
    height: float

    def __post_init__(self) -> None:
        if min(self.extents) <= 0.0 or self.height <= 0.0:
            raise ValueError(f"box extents and height must be positive, got {self}")


@dataclass(frozen=True)
class NoiseModel:
    sigma_range: float = 0.0      # m, additive Gaussian std on valid depths
    sigma_prop: float = 0.0       # extra std per meter of depth
    dropout_prob: float = 0.0     # per-pixel probability of an invalid return
    burst_prob: float = 0.0       # per-frame probability of a whole-frame bias
    burst_magnitude: float = 0.0  # m, bias applied on a burst frame

    def __post_init__(self) -> None:
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise ValueError("dropout_prob must be in [0, 1]")
        if not 0.0 <= self.burst_prob <= 1.0:
            raise ValueError("burst_prob must be in [0, 1]")
        if self.sigma_range < 0.0 or self.sigma_prop < 0.0:
            raise ValueError("noise sigmas must be non-negative")


@dataclass(frozen=True)
class CameraModel:
    width: int
    height: int
    focal_length: float                 # px
    principal_point: tuple[float, float]  # px (cx, cy)
    position: np.ndarray                # (3,) world, m
    rotation_wc: np.ndarray             # (3,3) world -> camera

    def __post_init__(self) -> None:
        if self.focal_length <= 0.0:
            raise ValueError("focal_length must be positive")
        cx, cy = self.principal_point
        if not (0.0 <= cx < self.width and 0.0 <= cy < self.height):
            raise ValueError("principal point must lie inside the image")
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        r = np.asarray(self.rotation_wc, dtype=float)
        if r.shape != (3, 3) or not np.allclose(r @ r.T, np.eye(3), atol=1e-9) \
                or not math.isclose(float(np.linalg.det(r)), 1.0, abs_tol=1e-9):
            raise ValueError("rotation_wc must be a proper rotation matrix")
        object.__setattr__(self, "rotation_wc", r)

    @property
    def rotation_cw(self) -> np.ndarray:
        return self.rotation_wc.T

    def pixel_dirs_camera(self) -> np.ndarray:
        """(H, W, 3) per-pixel direction in camera coords, scaled to unit z-depth."""
        cx, cy = self.principal_point
        xn = (np.arange(self.width) - cx) / self.focal_length
        yn = (np.arange(self.height) - cy) / self.focal_length
        dirs = np.empty((self.height, self.width, 3))
        dirs[..., 0] = xn[None, :]
        dirs[..., 1] = yn[:, None]
        dirs[..., 2] = 1.0
        return dirs

    def pixel_dirs_world(self) -> np.ndarray:
        return self.pixel_dirs_camera() @ self.rotation_cw.T

    def normalized(self, u, v):
        """Pixel coordinates -> normalized image coordinates."""
        cx, cy = self.principal_point
        return (np.asarray(u, dtype=float) - cx) / self.focal_length, \
               (np.asarray(v, dtype=float) - cy) / self.focal_length

    def backproject(self, u, v, depth):
        """Pixel + z-depth -> world point(s)."""
        xn, yn = self.normalized(u, v)
        d = np.asarray(depth, dtype=float)
        pts_cam = np.stack([xn * d, yn * d, d], axis=-1)
        return pts_cam @ self.rotation_cw.T + self.position


def nadir_camera(position, yaw: float = 0.0, *, width: int = 96, height: int = 72,
                 focal_length: float = 72.0) -> CameraModel:
    """Level downward-looking camera: image right = world x at yaw 0."""
    c, s = math.cos(yaw), math.sin(yaw)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    flip = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    r_cw = rz @ flip
    return CameraModel(
        width=width, height=height, focal_length=focal_length,
        principal_point=((width - 1) / 2.0, (height - 1) / 2.0),
        position=np.asarray(position, dtype=float), rotation_wc=r_cw.T,
    )


@dataclass(frozen=True)
class DepthFrame:
    t: int
    depth: np.ndarray      # (H, W) z-depth in m; value meaningless where not valid
    valid: np.ndarray      # (H, W) bool
    intensity: np.ndarray  # (H, W) grayscale in [0, 1]
    camera: CameraModel


def _bilinear_grid(grid: np.ndarray, resolution: float, x, y,
                   out_of_bounds: float) -> np.ndarray:
    x = np.asarray(x, dtype=float) / resolution
    y = np.asarray(y, dtype=float) / resolution
    ny, nx = grid.shape
    inside = (x >= 0.0) & (x <= nx - 1) & (y >= 0.0) & (y <= ny - 1)
    xc = np.clip(x, 0.0, nx - 1)
    yc = np.clip(y, 0.0, ny - 1)
    i0 = np.minimum(xc.astype(np.int64), nx - 2)
    j0 = np.minimum(yc.astype(np.int64), ny - 2)
    fx = xc - i0
    fy = yc - j0
    v = (grid[j0, i0] * (1.0 - fx) * (1.0 - fy)
         + grid[j0, i0 + 1] * fx * (1.0 - fy)
         + grid[j0 + 1, i0] * (1.0 - fx) * fy
         + grid[j0 + 1, i0 + 1] * fx * fy)
    return np.where(inside, v, out_of_bounds)


def _downsample2(grid: np.ndarray) -> np.ndarray:
    ny, nx = grid.shape
    py, px = ny + (ny % 2), nx + (nx % 2)
    padded = np.pad(grid, ((0, py - ny), (0, px - nx)), mode="edge")
    return 0.25 * (padded[0::2, 0::2] + padded[1::2, 0::2]
                   + padded[0::2, 1::2] + padded[1::2, 1::2])


@dataclass(frozen=True)
class World:
    heights: np.ndarray     # (Ny, Nx) node heights, m; node (i, j) sits at (j*res, i*res)
    texture: np.ndarray     # ground albedo grid in [0, 1], on its own finer lattice
    resolution: float       # m per heightmap lattice cell
    texture_resolution: float = 0.02  # m per texture lattice cell
    obstacles: tuple[Box, ...] = ()
    texture_mips: tuple[np.ndarray, ...] = ()  # derived; box-filtered pyramid

    def __post_init__(self) -> None:
        if self.resolution <= 0.0 or self.texture_resolution <= 0.0:
            raise ValueError("lattice resolutions must be positive")
        if not np.all(np.isfinite(self.heights)):
            raise ValueError("heightmap must be finite everywhere")
        if not self.texture_mips:
            mips = [self.texture]
            while min(mips[-1].shape) > 4:
                mips.append(_downsample2(mips[-1]))
            object.__setattr__(self, "texture_mips", tuple(mips))

    @property
    def extent(self) -> tuple[float, float]:
        ny, nx = self.heights.shape
        return ((nx - 1) * self.resolution, (ny - 1) * self.resolution)

    def height_at(self, x, y):
        """Terrain height (m); out-of-bounds points report a deep sentinel."""
        return _bilinear_grid(self.heights, self.resolution, x, y, _EXIT_HEIGHT)

    def surface_height_at(self, x: float, y: float) -> float:
        """Height (m) of the surface under (x, y): the terrain, or the top of a box there."""
        top = float(self.height_at(x, y))
        for box in self.obstacles:
            if (abs(x - box.center[0]) <= box.extents[0] / 2.0
                    and abs(y - box.center[1]) <= box.extents[1] / 2.0):
                top = max(top, float(self.height_at(*box.center)) + box.height)
        return top

    def texture_at(self, x, y, footprint):
        """Ground albedo, box-filtered to the sampling footprint (m).

        Filtering picks the mip pair bracketing the footprint and blends
        them, so a descending camera sees progressively finer content
        without aliasing at altitude.
        """
        xb, yb, fp = np.broadcast_arrays(np.asarray(x, dtype=float),
                                         np.asarray(y, dtype=float),
                                         np.asarray(footprint, dtype=float))
        fp = np.maximum(fp, self.texture_resolution)
        level = np.clip(np.log2(fp / self.texture_resolution), 0.0,
                        len(self.texture_mips) - 1.0)
        lo = np.floor(level).astype(np.int64)
        frac = level - lo
        out = np.zeros(xb.shape)
        for lev in np.unique(lo):
            selm = lo == lev
            res_lo = self.texture_resolution * (2.0 ** lev)
            v_lo = _bilinear_grid(self.texture_mips[lev], res_lo,
                                  xb[selm], yb[selm], 0.0)
            hi = min(lev + 1, len(self.texture_mips) - 1)
            v_hi = _bilinear_grid(self.texture_mips[hi], res_lo * 2.0,
                                  xb[selm], yb[selm], 0.0)
            out[selm] = v_lo * (1.0 - frac[selm]) + v_hi * frac[selm]
        return out


# --------------------------------------------------------------------------
# scenario description and world construction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatPatch:
    """Flat plateau carved into the terrain: a disk, or a rectangle when
    half_extents is given (radius is then ignored)."""

    center: tuple[float, float]
    radius: float = 0.0
    height: float = 0.0
    half_extents: tuple[float, float] | None = None


@dataclass(frozen=True)
class Scenario:
    name: str = "scenario"
    terrain: str = "flat"            # flat | ramp | rough
    extent: tuple[float, float] = (9.0, 7.0)
    ground_resolution: float = 0.1
    ramp_grade_deg: float = 10.0
    rough_amplitude: float = 0.12    # m, peak-to-mean roughness
    rough_scale: float = 0.5         # m, roughness wavelength
    flat_patches: tuple[FlatPatch, ...] = ()
    obstacles: tuple[Box, ...] = ()
    texture_seed: int = 0
    noise: NoiseModel = field(default_factory=NoiseModel)
    start: tuple[float, float] | None = None
    altitude: float = 5.0
    camera_width: int = 96
    camera_height: int = 72
    camera_focal: float = 72.0

    def __post_init__(self) -> None:
        if self.terrain not in ("flat", "ramp", "rough"):
            raise ValueError(f"unknown terrain type '{self.terrain}'")
        if min(self.extent) <= 0.0:
            raise ValueError("extent must be positive")


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    return scenario_from_dict(raw, name=Path(path).stem)


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    obstacles = tuple(
        Box(center=tuple(o["center"]), extents=tuple(o["extents"]), height=float(o["height"]))
        for o in raw.get("obstacles", []) or []
    )
    patches = tuple(
        FlatPatch(center=tuple(p["center"]), radius=float(p.get("radius", 0.0)),
                  height=float(p.get("height", 0.0)),
                  half_extents=(tuple(p["half_extents"])
                                if p.get("half_extents") is not None else None))
        for p in raw.get("flat_patches", []) or []
    )
    noise = NoiseModel(**(raw.get("noise", {}) or {}))
    start = tuple(raw["start"]) if raw.get("start") is not None else None
    kwargs = {
        k: raw[k]
        for k in ("terrain", "ground_resolution", "ramp_grade_deg", "rough_amplitude",
                  "rough_scale", "texture_seed", "altitude",
                  "camera_width", "camera_height", "camera_focal")
        if k in raw
    }
    if "extent" in raw:
        kwargs["extent"] = tuple(raw["extent"])
    return Scenario(name=raw.get("name", name), obstacles=obstacles, flat_patches=patches,
                    noise=noise, start=start, **kwargs)


def _value_noise(rng: np.random.Generator, shape: tuple[int, int], cell: int) -> np.ndarray:
    """Bilinearly interpolated lattice noise in [0, 1]."""
    cell = max(int(cell), 1)
    ny = shape[0] // cell + 2
    nx = shape[1] // cell + 2
    coarse = rng.random((ny, nx))
    return _bilinear_grid(coarse, cell, np.arange(shape[1])[None, :],
                          np.arange(shape[0])[:, None], 0.0)


def build_world(scenario: Scenario) -> World:
    """Deterministic world: the same scenario and seed give identical arrays."""
    res = scenario.ground_resolution
    nx = int(round(scenario.extent[0] / res)) + 1
    ny = int(round(scenario.extent[1] / res)) + 1

    if scenario.terrain == "flat":
        heights = np.zeros((ny, nx))
    elif scenario.terrain == "ramp":
        xs = np.arange(nx) * res
        heights = np.tile(xs * math.tan(math.radians(scenario.ramp_grade_deg)), (ny, 1))
    else:  # rough
        rng = np.random.default_rng(scenario.texture_seed + 1)
        cell = max(int(round(scenario.rough_scale / res)), 1)
        base = _value_noise(rng, (ny, nx), cell)
        detail = _value_noise(rng, (ny, nx), max(cell // 2, 1))
        heights = scenario.rough_amplitude * (2.0 * (0.7 * base + 0.3 * detail) - 1.0)

    if scenario.flat_patches:
        xs = (np.arange(nx) * res)[None, :]
        ys = (np.arange(ny) * res)[:, None]
        for patch in scenario.flat_patches:
            if patch.half_extents is not None:
                hx, hy = patch.half_extents
                inside = ((np.abs(xs - patch.center[0]) <= hx)
                          & (np.abs(ys - patch.center[1]) <= hy))
            else:
                dist2 = (xs - patch.center[0]) ** 2 + (ys - patch.center[1]) ** 2
                inside = dist2 <= patch.radius ** 2
            heights = np.where(inside, patch.height, heights)

    # texture lives on a finer lattice with content at several scales so the
    # point tracker keeps salient structure all the way through the descent
    tex_res = 0.02
    tnx = int(round(scenario.extent[0] / tex_res)) + 1
    tny = int(round(scenario.extent[1] / tex_res)) + 1
    rng_tex = np.random.default_rng(scenario.texture_seed)
    octaves = [
        (0.45, _value_noise(rng_tex, (tny, tnx), int(round(0.40 / tex_res)))),
        (0.30, _value_noise(rng_tex, (tny, tnx), int(round(0.12 / tex_res)))),
        (0.25, _value_noise(rng_tex, (tny, tnx), int(round(0.04 / tex_res)))),
    ]
    mix = sum(amp * grid for amp, grid in octaves)
    xs = (np.arange(tnx) * tex_res)[None, :]
    ys = (np.arange(tny) * tex_res)[:, None]
    checker = ((np.floor(xs / 0.5) + np.floor(ys / 0.5)) % 2.0)
    texture = np.clip(0.10 + 0.55 * mix + 0.25 * checker, 0.0, 1.0)

    return World(heights=heights, texture=texture, resolution=res,
                 texture_resolution=tex_res, obstacles=scenario.obstacles)


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _box_intersect(origin: np.ndarray, dirs: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """First-hit ray parameter per pixel for one axis-aligned box (inf = miss)."""
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


def _box_in_view(origin: np.ndarray, dirs: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, margin: float) -> bool:
    """Whether a view of descending rays can reach the box at all.

    A descending ray meets the box no farther than where it crosses the
    plane of the box's base, so its ground position there lies between
    the camera's and that crossing. A box whose footprint, grown by
    ``margin``, misses the bounds of those positions is out of view.
    """
    t_base = max(float(origin[2] - lo[2]), 0.0) / -dirs[..., 2]
    for axis in (0, 1):
        reach = origin[axis] + t_base * dirs[..., axis]
        if (min(float(reach.min()), origin[axis]) > hi[axis] + margin
                or max(float(reach.max()), origin[axis]) < lo[axis] - margin):
            return False
    return True


def _march_window(world: World, origin: np.ndarray, dirs: np.ndarray,
                  ts: np.ndarray) -> tuple[int, int]:
    """Lattice indices [k_lo, k_hi] holding each ray's first hit and the sample before.

    A hit is a sample under the terrain. ``ts`` is the (n+1, H, W) march lattice of a view whose rays all
    descend. The terrain under the view's ground footprint, grown by one
    cell, lies between ``lo`` and ``hi``: no sample above ``hi`` is under
    it and every sample below ``lo`` is, so the first sample under the
    terrain falls between the first sample any ray takes under ``hi`` and
    the first by which every ray is under ``lo`` (the one-level case of a
    maximum mipmap). A footprint that leaves the heightfield keeps the
    whole lattice: a sample past the edge is never under the terrain, so
    a ray outside the heightfield at ``k_hi`` may meet the terrain later.
    """
    n = ts.shape[0] - 1
    cells = []
    for axis, size in ((1, world.heights.shape[0]), (0, world.heights.shape[1])):
        ends = (origin[axis] + ts[[0, n]] * dirs[..., axis]) / world.resolution
        first, last = float(ends.min()), float(ends.max())
        if first < 0.0 or last > size - 1:
            return 0, n
        cells.append(slice(max(math.floor(first) - 1, 0), min(math.floor(last) + 3, size)))
    view = world.heights[tuple(cells)]
    # the margin covers the rounding of bilinear interpolation
    hi = float(view.max()) + _MARCH_MARGIN
    lo = float(view.min()) - _MARCH_MARGIN
    pz = (origin[2] + ts * dirs[..., 2]).reshape(n + 1, -1)
    some_under = pz.min(axis=1) <= hi
    all_under = pz.max(axis=1) <= lo
    k_lo = int(np.argmax(some_under)) if some_under.any() else n
    k_hi = int(np.argmax(all_under)) if all_under.any() else n
    return max(k_lo - 1, 0), k_hi


def render_true_depth(world: World, camera: CameraModel) -> DepthFrame:
    """Noise-free depth + intensity render of the world from the camera."""
    cam_z = float(camera.position[2])
    local = world.height_at(camera.position[0], camera.position[1])
    if float(local) > _EXIT_HEIGHT / 2 and cam_z <= float(local):
        raise ValueError("camera must be above the terrain underneath it")
    for box in world.obstacles:
        base = float(world.height_at(*box.center))
        inside = (abs(camera.position[0] - box.center[0]) < box.extents[0] / 2.0
                  and abs(camera.position[1] - box.center[1]) < box.extents[1] / 2.0
                  and base < cam_z < base + box.height)
        if inside:
            raise ValueError("camera must not be inside an obstacle")

    dirs = camera.pixel_dirs_world()          # (H, W, 3), unit z-depth parameterization
    origin = camera.position
    h, w = camera.height, camera.width
    dz = dirs[..., 2]
    descending = dz < -1e-9
    all_descending = bool(descending.all())

    t_box = np.full((h, w), np.inf)
    box_shade = np.ones((h, w))
    for box in world.obstacles:
        base = float(world.height_at(*box.center))
        lo = np.array([box.center[0] - box.extents[0] / 2.0,
                       box.center[1] - box.extents[1] / 2.0, base])
        hi = np.array([box.center[0] + box.extents[0] / 2.0,
                       box.center[1] + box.extents[1] / 2.0, base + box.height])
        if all_descending and not _box_in_view(origin, dirs, lo, hi, world.resolution):
            continue
        t = _box_intersect(origin, dirs, lo, hi)
        closer = t < t_box
        t_box = np.where(closer, t, t_box)
        box_shade = np.where(closer, 0.85, box_shade)

    step = world.resolution * 0.5
    hmax = float(world.heights.max())
    hmin = float(world.heights.min())
    inv_rate = np.where(descending, -dz, 1.0)
    t_lo = np.where(descending, np.maximum((cam_z - hmax) / inv_rate - step, 1e-6), 0.0)
    t_hi = np.where(descending, (cam_z - hmin) / inv_rate + step, 0.0)
    t_hi = np.minimum(t_hi, _MAX_RANGE)

    t_terrain = np.full((h, w), np.inf)
    span = np.maximum(np.where(descending, t_hi - t_lo, 0.0), 0.0)
    max_span = float(span.max()) if span.size else 0.0
    if max_span > 0.0:
        # one lattice for the frame, set by the global height range; only
        # the part of it that can hold a ray's first hit is evaluated
        n = int(math.ceil(max_span / step)) + 1
        n = max(n, 2)
        ks = np.arange(n + 1, dtype=float) / n          # (n+1,)
        ts = t_lo[None, ...] + ks[:, None, None] * span[None, ...]
        if all_descending:
            k_lo, k_hi = _march_window(world, origin, dirs, ts)
            ts = ts[k_lo:k_hi + 1]
        px = origin[0] + ts * dirs[..., 0][None, ...]
        py = origin[1] + ts * dirs[..., 1][None, ...]
        pz = cam_z + ts * dz[None, ...]
        g = pz - world.height_at(px, py)
        below = g <= 0.0
        any_hit = below.any(axis=0) & descending
        first = np.argmax(below, axis=0)
        first = np.maximum(first, 1)  # g > 0 at the window start by construction

        iy, ix = np.nonzero(any_hit)
        if iy.size:
            k1 = first[iy, ix]
            ta = ts[k1 - 1, iy, ix]
            tb = ts[k1, iy, ix]
            ga = g[k1 - 1, iy, ix]
            gb = g[k1, iy, ix]

            def g_of(tq):
                pxq = origin[0] + tq * dirs[iy, ix, 0]
                pyq = origin[1] + tq * dirs[iy, ix, 1]
                pzq = cam_z + tq * dz[iy, ix]
                return pzq - world.height_at(pxq, pyq)

            tm = 0.5 * (ta + tb)
            gm = g_of(tm)
            take_left = gm <= 0.0
            tb = np.where(take_left, tm, tb)
            gb = np.where(take_left, gm, gb)
            ta = np.where(take_left, ta, tm)
            ga = np.where(take_left, ga, gm)
            denom = ga - gb
            t_star = np.where(denom > 0.0, ta + ga * (tb - ta) / np.where(denom > 0.0, denom, 1.0), tb)
            t_terrain[iy, ix] = t_star

    depth = np.minimum(t_terrain, t_box)
    valid = np.isfinite(depth) & (depth > 0.0) & (depth <= _MAX_RANGE)

    safe_depth = np.where(valid, depth, 1.0)
    hit_x = origin[0] + safe_depth * dirs[..., 0]
    hit_y = origin[1] + safe_depth * dirs[..., 1]
    footprint = safe_depth / camera.focal_length   # m of ground per pixel at the hit
    shade = np.where(t_box < t_terrain, box_shade, 1.0)
    albedo = world.texture_at(hit_x, hit_y, footprint)
    intensity = np.where(valid, np.clip(albedo * shade, 0.0, 1.0), 0.0)
    depth = np.where(valid, depth, 0.0)
    return DepthFrame(t=0, depth=depth, valid=valid, intensity=intensity, camera=camera)


def corrupt(frame: DepthFrame, noise: NoiseModel, rng: np.random.Generator) -> DepthFrame:
    """Apply the observation noise model; pure, reproducible for a given RNG state.

    Draw order is fixed (burst, additive field, dropout field) and the
    additive/dropout fields are always full-frame so the stream does not
    depend on the validity layout.
    """
    depth = frame.depth.copy()
    valid = frame.valid.copy()
    if noise.burst_prob > 0.0:
        if rng.random() < noise.burst_prob:
            depth = np.where(valid, depth + noise.burst_magnitude, depth)
    if noise.sigma_range > 0.0 or noise.sigma_prop > 0.0:
        eps = rng.standard_normal(depth.shape)
        sigma = noise.sigma_range + noise.sigma_prop * np.abs(depth)
        depth = np.where(valid, depth + sigma * eps, depth)
    if noise.dropout_prob > 0.0:
        keep = rng.random(depth.shape) >= noise.dropout_prob
        valid = valid & keep
    # non-physical ranges are clamped before they can reach the plane fits
    depth = np.where(valid, np.maximum(depth, 0.01), 0.0)
    return DepthFrame(t=frame.t, depth=depth, valid=valid,
                      intensity=frame.intensity, camera=frame.camera)

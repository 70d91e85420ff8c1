"""Procedural test worlds and a noisy depth camera that looks straight down.

Conventions used throughout the package:

* World frame: x/y on the ground, z up, meters.
* Camera frame: x = image right, y = image down, z = optical axis
  (toward the scene). The camera is the level nadir camera: its frame is
  the world frame with y and z negated, so the world ray through pixel
  (v, u) per meter of depth is ``(xd[u], yd[v], -1)`` (``CameraModel.rays``).
* Depth is z-depth: distance along the optical axis, not slant range.
  A level camera at altitude h over flat ground therefore reads h at
  every pixel.
* Invalid pixels are carried in an explicit boolean mask, never encoded
  as zero or NaN depth.

Rendering casts one ray per pixel against the heightfield (fixed-step
march at half the ground resolution, one bisection plus a secant
refinement on the bracketing interval) and against axis-aligned boxes
(exact slab test). Every ray shares one 1-D march lattice that spans the
global height range, so sample k sits at the same height on every ray,
and a ray's world x depends on its column alone and its y on its row
alone, so the heightfield lookup forms its indices and weights per
column and per row, blends the column weights into each heightfield row
the lattice meets once, and copies whole rows per image row. Only the
window of the lattice that can hold a ray's first sample under the
terrain is evaluated, bounded by the highest and lowest terrain under
the view's ground footprint; a footprint that leaves the heightfield
marches the whole lattice. A box's slab test forms the image only when
some column and some row of the view meet the box. None of this changes
a result bit from the full per-pixel march. Rendering and corruption are
pure functions; the RNG for corruption is passed explicitly.

One surface rule bounds the poses, the one the loop's crash and
touchdown tests apply: a camera renders only above
``World.surface_height_at`` under it, and any lower pose raises.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .params import ConfigError, ranged, validate

_EXIT_HEIGHT = -1.0e30  # stands in for "ray left the world bounds"
_MAX_RANGE = 100.0      # m, farther returns are invalid
_MARCH_MARGIN = 1e-9    # m, height slack of the march window
_TEX_RES = 0.02         # m per texture lattice cell


@dataclass(frozen=True)
class Box:
    """Axis-aligned obstacle: footprint center/extents in meters, height above terrain."""

    center: tuple[float, float] = ranged(MISSING)
    extents: tuple[float, float] = ranged(MISSING, gt=0.0)
    height: float = ranged(MISSING, gt=0.0)

    def __post_init__(self) -> None:
        validate(self)


@dataclass(frozen=True)
class NoiseModel:
    sigma_range: float = ranged(0.0, ge=0.0)           # m, additive Gaussian std on valid depths
    sigma_prop: float = ranged(0.0, ge=0.0)            # extra std per meter of depth
    dropout_prob: float = ranged(0.0, ge=0.0, le=1.0)  # per-pixel probability of an invalid return
    burst_prob: float = ranged(0.0, ge=0.0, le=1.0)    # per-frame probability of a whole-frame bias
    burst_magnitude: float = ranged(0.0)               # m, bias applied on a burst frame

    def __post_init__(self) -> None:
        validate(self)


@dataclass(frozen=True)
class CameraModel:
    """Level nadir camera: optical axis along world -z, image right along
    world x, image down along world -y."""

    width: int
    height: int
    focal_length: float    # px
    position: np.ndarray   # (3,) world, m

    def __post_init__(self) -> None:
        if self.focal_length <= 0.0:
            raise ValueError("focal_length must be positive")
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))

    @property
    def principal_point(self) -> tuple[float, float]:
        """(cx, cy) in px: the image centre."""
        return (self.width - 1) / 2.0, (self.height - 1) / 2.0

    def normalized(self, u, v):
        """Pixel coordinates -> normalized image coordinates."""
        cx, cy = self.principal_point
        return (np.asarray(u, dtype=float) - cx) / self.focal_length, \
               (np.asarray(v, dtype=float) - cy) / self.focal_length

    def rays(self) -> tuple[np.ndarray, np.ndarray]:
        """(W,) xd and (H,) yd: the world ray through pixel (v, u) per meter
        of depth is (xd[u], yd[v], -1)."""
        xn, yn = self.normalized(np.arange(self.width), np.arange(self.height))
        return xn, 0.0 - yn   # a zero yd is +0.0, not -0.0

    def pixel_dirs_world(self) -> np.ndarray:
        """(H, W, 3) world ray per pixel per meter of depth."""
        xd, yd = self.rays()
        dirs = np.empty((self.height, self.width, 3))
        dirs[..., 0] = xd[None, :]
        dirs[..., 1] = yd[:, None]
        dirs[..., 2] = -1.0
        return dirs

    def project(self, point) -> np.ndarray:
        """World point -> pixel (u, v); the image centre for a point not below the camera."""
        dx, dy, dz = np.asarray(point, dtype=float) - self.position
        depth = -dz   # z-depth along the downward optical axis
        cx, cy = self.principal_point
        if depth <= 0.0:
            return np.array([cx, cy])
        return np.array([self.focal_length * dx / depth + cx,
                         self.focal_length * -dy / depth + cy])

    def backproject(self, u, v, depth):
        """Pixel + z-depth -> world point(s)."""
        xn, yn = self.normalized(u, v)
        d = np.asarray(depth, dtype=float)
        # depth d along the ray (xn, -yn, -1); + 0.0 turns a -0.0 offset into
        # +0.0, so a zero coordinate of the point is always +0.0
        return np.stack([xn * d, -yn * d, -d], axis=-1) + 0.0 + self.position


@dataclass(frozen=True)
class DepthFrame:
    depth: np.ndarray      # (H, W) z-depth in m; value meaningless where not valid
    valid: np.ndarray      # (H, W) bool
    intensity: np.ndarray  # (H, W) grayscale in [0, 1]
    camera: CameraModel


def _lattice_coords(x, n: int):
    """Lower node ``i0``, fraction ``f``, its complement ``1 - f`` and the
    on-lattice test of coordinates ``x`` on the nodes 0 .. n-1; a coordinate
    off the lattice takes the nearest end's weights. A lattice one node long
    has ``i0`` -1, which wraps to node 0 when it indexes."""
    xc = np.clip(x, 0.0, n - 1)
    i0 = np.minimum(xc.astype(np.int64), n - 2)
    f = xc - i0
    return i0, f, 1.0 - f, (x >= 0.0) & (x <= n - 1)


def _bilinear_grid(grid: np.ndarray, resolution: float, x, y,
                   out_of_bounds: float) -> np.ndarray:
    ny, nx = grid.shape
    i0, fx, ex, in_x = _lattice_coords(np.asarray(x, dtype=float) / resolution, nx)
    j0, fy, ey, in_y = _lattice_coords(np.asarray(y, dtype=float) / resolution, ny)
    i1, j1 = i0 + 1, j0 + 1
    # corner by corner, in place: (g00 * ex * ey + g01 * fx * ey) + ... in that order
    v = grid[j0, i0] * ex
    v *= ey
    for j, i, wx, wy in ((j0, i1, fx, ey), (j1, i0, ex, fy), (j1, i1, fx, fy)):
        term = grid[j, i] * wx
        term *= wy
        v += term
    return np.where(in_x & in_y, v, out_of_bounds)


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
    obstacles: tuple[Box, ...] = ()
    texture_mips: tuple[np.ndarray, ...] = field(init=False)  # derived; box-filtered pyramid

    def __post_init__(self) -> None:
        if self.resolution <= 0.0:
            raise ValueError("lattice resolution must be positive")
        if not np.all(np.isfinite(self.heights)):
            raise ValueError("heightmap must be finite everywhere")
        mips = [self.texture]
        while min(mips[-1].shape) > 4:
            mips.append(_downsample2(mips[-1]))
        object.__setattr__(self, "texture_mips", tuple(mips))

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
        fp = np.maximum(fp, _TEX_RES)
        level = np.clip(np.log2(fp / _TEX_RES), 0.0,
                        len(self.texture_mips) - 1.0)
        lo = np.floor(level).astype(np.int64)
        frac = level - lo
        out = np.zeros(xb.shape)
        # the levels present, in one pass (np.unique sorts, at 3% of a render)
        for lev in np.flatnonzero(np.bincount(lo.ravel())):
            selm = lo == lev
            res_lo = _TEX_RES * (2.0 ** lev)
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

    center: tuple[float, float] = ranged(MISSING)
    radius: float = ranged(0.0, ge=0.0)
    height: float = ranged(0.0)
    half_extents: tuple[float, float] | None = ranged(None, ge=0.0)

    def __post_init__(self) -> None:
        validate(self)


@dataclass(frozen=True)
class Scenario:
    terrain: str = "flat"            # flat | ramp | rough
    extent: tuple[float, float] = ranged((9.0, 7.0), gt=0.0)
    ground_resolution: float = ranged(0.1, gt=0.0)
    ramp_grade_deg: float = ranged(10.0, gt=-90.0, lt=90.0)
    rough_amplitude: float = ranged(0.12, ge=0.0)   # m, peak-to-mean roughness
    rough_scale: float = ranged(0.5, gt=0.0)        # m, roughness wavelength
    flat_patches: tuple[FlatPatch, ...] = ()
    obstacles: tuple[Box, ...] = ()
    texture_seed: int = ranged(0, ge=0)
    noise: NoiseModel = field(default_factory=NoiseModel)
    start: tuple[float, float] | None = ranged(None)
    altitude: float = ranged(5.0)                   # m, a scan below the surface crashes
    camera_width: int = ranged(96, ge=1)
    camera_height: int = ranged(72, ge=1)
    camera_focal: float = ranged(72.0, gt=0.0)

    def __post_init__(self) -> None:
        if self.terrain not in ("flat", "ramp", "rough"):
            raise ValueError(f"unknown terrain type '{self.terrain}'")
        validate(self)


def _from_dict(cls, raw, where: str):
    """``cls`` built from a mapping of its field names, YAML lists read as tuples;
    errors name the entry ``where`` they come from."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}expected a mapping, got {raw!r}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{where}unknown key(s) {sorted(map(str, unknown))}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
    except (ConfigError, TypeError) as exc:   # TypeError: a required key is missing
        raise ConfigError(f"{where}{exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    """The scenario a YAML file describes; unknown keys and values outside
    a field's domain raise ``ConfigError``."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"expected a mapping, got {raw!r}")
    for key, cls in (("obstacles", Box), ("flat_patches", FlatPatch)):
        items = raw.get(key) or []
        if not isinstance(items, list):
            raise ConfigError(f"{key}: expected a list, got {items!r}")
        raw[key] = tuple(_from_dict(cls, item, f"{key}[{i}]: ") for i, item in enumerate(items))
    raw["noise"] = _from_dict(NoiseModel, raw.get("noise") or {}, "noise: ")
    return _from_dict(Scenario, raw, "")


def _value_noise(rng: np.random.Generator, shape: tuple[int, int], cell: int) -> np.ndarray:
    """Bilinearly interpolated lattice noise in [0, 1]; a cell under 1 px counts as 1."""
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
        cell = int(round(scenario.rough_scale / res))
        base = _value_noise(rng, (ny, nx), cell)
        detail = _value_noise(rng, (ny, nx), cell // 2)
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
    tnx = int(round(scenario.extent[0] / _TEX_RES)) + 1
    tny = int(round(scenario.extent[1] / _TEX_RES)) + 1
    rng_tex = np.random.default_rng(scenario.texture_seed)
    octaves = [
        (0.45, _value_noise(rng_tex, (tny, tnx), int(round(0.40 / _TEX_RES)))),
        (0.30, _value_noise(rng_tex, (tny, tnx), int(round(0.12 / _TEX_RES)))),
        (0.25, _value_noise(rng_tex, (tny, tnx), int(round(0.04 / _TEX_RES)))),
    ]
    mix = sum(amp * grid for amp, grid in octaves)
    xs = (np.arange(tnx) * _TEX_RES)[None, :]
    ys = (np.arange(tny) * _TEX_RES)[:, None]
    checker = ((np.floor(xs / 0.5) + np.floor(ys / 0.5)) % 2.0)
    texture = np.clip(0.10 + 0.55 * mix + 0.25 * checker, 0.0, 1.0)

    return World(heights=heights, texture=texture, resolution=res,
                 obstacles=scenario.obstacles)


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _box_intersect(origin: np.ndarray, xd: np.ndarray, yd: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """(H, W) first-hit parameter of the rays (xd[u], yd[v], -1) on one box
    (inf = miss), or None when no ray meets it: a hit needs a column (x
    slab) and a row (y slab) that each overlap the z slab with a positive exit.
    """
    slabs = []
    for axis, d in ((0, xd), (1, yd), (2, -1.0)):
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / d
            t0 = (lo[axis] - origin[axis]) * inv
            t1 = (hi[axis] - origin[axis]) * inv
        # axis-parallel rays: inside the slab throughout if the origin is
        par = np.abs(d) < 1e-12
        inside = lo[axis] <= origin[axis] <= hi[axis]
        slabs.append((np.where(par, -np.inf if inside else np.inf, np.minimum(t0, t1)),
                      np.where(par, np.inf if inside else -np.inf, np.maximum(t0, t1))))
    (x_in, x_out), (y_in, y_out), (z_in, z_out) = slabs
    for t_in, t_out in ((x_in, x_out), (y_in, y_out)):
        t_exit = np.minimum(t_out, z_out)
        if not ((np.maximum(t_in, z_in) <= t_exit) & (t_exit > 0.0)).any():
            return None
    t_enter = np.maximum(np.maximum(x_in[None, :], y_in[:, None]), z_in)
    t_exit = np.minimum(np.minimum(x_out[None, :], y_out[:, None]), z_out)
    hit = (t_enter <= t_exit) & (t_exit > 0.0)
    t_hit = np.where(t_enter > 0.0, t_enter, t_exit)  # origin inside: exit face
    return np.where(hit, t_hit, np.inf)


def _march_window(world: World, origin: np.ndarray, xd: np.ndarray, yd: np.ndarray,
                  ts: np.ndarray) -> tuple[int, int]:
    """Lattice indices [k_lo, k_hi] holding each ray's first hit and the sample before.

    A hit is a sample under the terrain. ``ts`` is the (n+1,) lattice
    every ray shares: sample k sits at height ``cam_z - ts[k]`` on each.
    The terrain under the view's ground footprint, grown by one cell,
    lies between ``lo`` and ``hi``: no sample above ``hi`` is under it
    and every sample below ``lo`` is, so the first hit falls between the
    first sample under ``hi`` and the first under ``lo`` (the one-level
    case of a maximum mipmap). A footprint that leaves the heightfield
    keeps the whole lattice: a sample past the edge is never under the
    terrain, so a ray outside the heightfield at ``k_hi`` may meet the
    terrain later.
    """
    n = ts.shape[0] - 1
    cells = []
    for axis, d, size in ((1, yd, world.heights.shape[0]), (0, xd, world.heights.shape[1])):
        ends = (origin[axis] + ts[[0, n], None] * d) / world.resolution
        first, last = float(ends.min()), float(ends.max())
        if first < 0.0 or last > size - 1:
            return 0, n
        cells.append(slice(max(math.floor(first) - 1, 0), min(math.floor(last) + 3, size)))
    view = world.heights[tuple(cells)]
    # the margin covers the rounding of bilinear interpolation
    hi = float(view.max()) + _MARCH_MARGIN
    lo = float(view.min()) - _MARCH_MARGIN
    pz = origin[2] - ts   # falls along the lattice: count the samples above a level
    k_lo = min(int(np.count_nonzero(pz > hi)), n)
    k_hi = min(int(np.count_nonzero(pz > lo)), n)
    return max(k_lo - 1, 0), k_hi


def _lattice_heights(world: World, origin: np.ndarray, xd: np.ndarray,
                     yd: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """(K, H, W) terrain height under sample k of the ray through (v, u), which lies
    over (px[k, u], py[k, v]); the same bits as ``world.height_at`` on those points.

    The lookup's indices and weights are per column and per row, so the
    x-weighted corners ``g[j, i0] * ex`` and ``g[j, i0 + 1] * fx`` are
    formed once per sample and heightfield row the lattice meets, and
    every (sample, image row) copies its rows ``j0`` and ``j0 + 1`` of
    them whole. Rows are taken by index, not by slice: on a heightfield
    one node tall ``j0`` is -1 and wraps to row 0, as in ``_bilinear_grid``.
    """
    grid = world.heights
    ny, nx = grid.shape
    # (K, W) per column and (K, H) per row
    i0, fx, ex, in_x = _lattice_coords((origin[0] + ts[:, None] * xd) / world.resolution, nx)
    j0, fy, ey, in_y = _lattice_coords((origin[1] + ts[:, None] * yd) / world.resolution, ny)
    r0 = int(j0.min())
    rows = grid[np.arange(r0, int(j0.max()) + 2)]             # (R, Nx)
    n_k, n_u = i0.shape
    # (R * K, W): row (j - r0) * K + k holds sample k's corner on heightfield row j
    a0 = (rows[:, i0] * ex).reshape(-1, n_u)
    a1 = (rows[:, i0 + 1] * fx).reshape(-1, n_u)
    top = (j0 - r0) * n_k + np.arange(n_k)[:, None]           # (K, H), row j0
    # corner by corner, in place, as _bilinear_grid sums them
    v = a0[top]
    v *= ey[:, :, None]
    for a, j, wy in ((a1, top, ey), (a0, top + n_k, fy), (a1, top + n_k, fy)):
        term = a[j]
        term *= wy[:, :, None]
        v += term
    np.copyto(v, _EXIT_HEIGHT, where=~(in_x[:, None, :] & in_y[:, :, None]))
    return v


def render_true_depth(world: World, camera: CameraModel) -> DepthFrame:
    """Noise-free depth + intensity render of the world from the nadir camera."""
    origin = camera.position
    cam_z = float(origin[2])
    if cam_z <= world.surface_height_at(origin[0], origin[1]):
        raise ValueError("camera must be above the surface underneath it")

    h, w = camera.height, camera.width
    xd, yd = camera.rays()

    t_box = np.full((h, w), np.inf)
    for box in world.obstacles:
        base = float(world.height_at(*box.center))
        lo = np.array([box.center[0] - box.extents[0] / 2.0,
                       box.center[1] - box.extents[1] / 2.0, base])
        hi = np.array([box.center[0] + box.extents[0] / 2.0,
                       box.center[1] + box.extents[1] / 2.0, base + box.height])
        t_hit = _box_intersect(origin, xd, yd, lo, hi)
        if t_hit is not None:
            t_box = np.minimum(t_box, t_hit)

    # one lattice for every ray, set by the global height range; only the
    # part of it that can hold a ray's first hit is evaluated
    step = world.resolution * 0.5
    hmax = float(world.heights.max())
    hmin = float(world.heights.min())
    t_lo = max(cam_z - hmax - step, 1e-6)
    t_hi = min(cam_z - hmin + step, _MAX_RANGE)
    span = t_hi - t_lo

    t_terrain = np.full((h, w), np.inf)
    if span > 0.0:   # else all terrain is out of range, or above a camera off the heightfield
        n = max(int(math.ceil(span / step)) + 1, 2)
        ks = np.arange(n + 1, dtype=float) / n          # (n+1,)
        ts = t_lo + ks * span                           # (n+1,), every ray's lattice
        k_lo, k_hi = _march_window(world, origin, xd, yd, ts)
        ts = ts[k_lo:k_hi + 1]
        pz = cam_z - ts                                 # the height of sample k on every ray
        g = pz[:, None, None] - _lattice_heights(world, origin, xd, yd, ts)
        below = g <= 0.0
        any_hit = below.any(axis=0)
        first = np.argmax(below, axis=0)
        first = np.maximum(first, 1)  # g > 0 at the window start by construction

        iy, ix = np.nonzero(any_hit)
        k1 = first[iy, ix]
        ta = ts[k1 - 1]
        tb = ts[k1]
        ga = g[k1 - 1, iy, ix]
        gb = g[k1, iy, ix]
        tm = 0.5 * (ta + tb)
        gm = (cam_z - tm) - world.height_at(origin[0] + tm * xd[ix], origin[1] + tm * yd[iy])
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
    hit_x = origin[0] + safe_depth * xd
    hit_y = origin[1] + safe_depth * yd[:, None]
    footprint = safe_depth / camera.focal_length   # m of ground per pixel at the hit
    shade = np.where(t_box < t_terrain, 0.85, 1.0)   # boxes are shaded darker
    albedo = world.texture_at(hit_x, hit_y, footprint)
    intensity = np.where(valid, np.clip(albedo * shade, 0.0, 1.0), 0.0)
    depth = np.where(valid, depth, 0.0)
    return DepthFrame(depth=depth, valid=valid, intensity=intensity, camera=camera)


def corrupt(frame: DepthFrame, noise: NoiseModel, rng: np.random.Generator) -> DepthFrame:
    """Apply the observation noise model; pure, reproducible for a given RNG state.

    Draw order is fixed (burst, additive field, dropout field) and the
    additive/dropout fields are always full-frame so the stream does not
    depend on the validity layout.
    """
    depth, valid = frame.depth, frame.valid   # each step below builds a new array
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
    return DepthFrame(depth=depth, valid=valid, intensity=frame.intensity,
                      camera=frame.camera)

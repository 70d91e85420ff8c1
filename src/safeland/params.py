"""Run parameters for the landing pipeline.

The core symbols (alpha, tau, rho_min, w_f/w_s/w_o, lambda, f_s, b0,
v_xy_max, v_z_max) use the same names in config files and ``--set``
overrides so a run can be reproduced from its summary line alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


class ConfigError(ValueError):
    """Raised when a parameter override is malformed or out of domain."""


@dataclass(frozen=True)
class Params:
    # belief / selection
    f_s: float = 10.0        # Hz, loop and belief update rate
    w_f: float = 0.4         # flatness weight
    w_s: float = 0.2         # slope weight
    w_o: float = 0.4         # obstacle proximity weight
    alpha: float = 0.95      # temporal persistence, (0.5, 1)
    b0: float = 0.5          # initial belief for new tracks
    tau: float = 0.75        # commit threshold on belief
    rho_min: float = 0.55    # m, minimum inscribed landing radius
    eps_l: float = 0.05      # likelihood floor, keeps beliefs revisable

    # cue shaping
    sigma_f: float = 0.02    # m, plane-fit RMS that maps to flatness cue 1.0
    sigma_f_cue: float = 1.0  # scale of the flatness likelihood on the normalized cue
    sigma_s: float = 0.15    # rad, scale of the slope likelihood
    sigma_o: float = 0.5     # scale of the obstacle likelihood
    d_scale: float = 0.5     # m, obstacle-distance scale in the proximity score
    obstacle_k: int = 9      # interior pixels (nearest the centroid) used for proximity

    # region screening
    screen_k: int = 5        # px, window for local height statistics
    v_max: float = 0.03      # m, max height std inside the window
    g_max: float = 0.10      # m/px, max depth gradient magnitude
    a_min: int = 100         # px, minimum region area
    max_invalid_frac: float = 0.30

    # association
    iou_min: float = 0.3     # ground-footprint IoU required for a match
    track_grace: int = 5     # frames a track survives unmatched
    assoc_res: float = 0.10  # m, ground-cell size for footprint IoU

    # servo / control
    lam: float = 0.8         # servo gain (config symbol: lambda)
    v_xy_max: float = 0.25   # m/s, lateral speed limit
    v_z_max: float = 0.30    # m/s, vertical speed limit
    e_align: float = 0.05    # normalized image error below which descent engages
    v_des: float = 0.2       # m/s, gated descent rate
    n_min: int = 8           # re-detect features below this count
    n_max: int = 40          # feature budget
    patch_radius: int = 4    # px, template half-size (9x9 patches)
    search_radius: int = 10  # px, match search half-window (21x21)
    retemplate_ratio: float = 0.25  # refresh templates after this relative depth change
    commit_window_px: int = 24     # px, detection radius around the committed center
    mse_max: float = 0.005   # per-pixel SSD threshold for accepting a match

    # vehicle / episode
    t_v: float = 0.5         # s, first-order velocity-response time constant
    f_max: int = 300         # scan frames before timeout
    f_max_exec: int = 2000   # hard cap on execution frames
    h_td: float = 0.05       # m, touchdown altitude


# symbol -> (low, high, low_open, high_open); None means unbounded on that side
_DOMAINS: dict[str, tuple[float | None, float | None, bool, bool]] = {
    "f_s": (0.0, None, True, False),
    "w_f": (0.0, None, False, False),
    "w_s": (0.0, None, False, False),
    "w_o": (0.0, None, False, False),
    "alpha": (0.5, 1.0, True, True),
    "b0": (0.0, 1.0, True, True),
    "tau": (0.0, 1.0, True, True),
    "rho_min": (0.0, None, True, False),
    "eps_l": (0.0, 0.5, True, False),
    "sigma_f": (0.0, None, True, False),
    "sigma_f_cue": (0.0, None, True, False),
    "sigma_s": (0.0, None, True, False),
    "sigma_o": (0.0, None, True, False),
    "d_scale": (0.0, None, True, False),
    "obstacle_k": (1, None, False, False),
    "screen_k": (3, None, False, False),
    "v_max": (0.0, None, True, False),
    "g_max": (0.0, None, True, False),
    "a_min": (1, None, False, False),
    "max_invalid_frac": (0.0, 1.0, False, True),
    "iou_min": (0.0, 1.0, True, True),
    "track_grace": (0, None, False, False),
    "assoc_res": (0.0, None, True, False),
    "lam": (0.0, None, True, False),
    "v_xy_max": (0.0, None, True, False),
    "v_z_max": (0.0, None, True, False),
    "e_align": (0.0, None, True, False),
    "v_des": (0.0, None, True, False),
    "n_min": (1, None, False, False),
    "n_max": (1, None, False, False),
    "patch_radius": (1, None, False, False),
    "search_radius": (1, None, False, False),
    "retemplate_ratio": (0.0, 1.0, True, True),
    "commit_window_px": (1, None, False, False),
    "mse_max": (0.0, None, True, False),
    "t_v": (0.0, None, True, False),
    "f_max": (1, None, False, False),
    "f_max_exec": (1, None, False, False),
    "h_td": (0.0, None, True, False),
}

# config files and --set use "lambda"; the attribute is `lam` (reserved word)
_ALIASES = {"lambda": "lam"}

# the module's annotations are strings (``from __future__ import annotations``)
_INT_FIELDS = {f.name for f in fields(Params) if f.type == "int"}


def domain_text(symbol: str) -> str:
    lo, hi, lo_open, hi_open = _DOMAINS[symbol]
    left = "(" if lo_open or lo is None else "["
    right = ")" if hi_open or hi is None else "]"
    lo_s = "-inf" if lo is None else f"{lo:g}"
    hi_s = "inf" if hi is None else f"{hi:g}"
    return f"{left}{lo_s}, {hi_s}{right}"


def _check_domain(symbol: str, value: float) -> None:
    lo, hi, lo_open, hi_open = _DOMAINS[symbol]
    ok = math.isfinite(value)   # inf and nan are outside every domain
    if lo is not None:
        ok = ok and (value > lo if lo_open else value >= lo)
    if hi is not None:
        ok = ok and (value < hi if hi_open else value <= hi)
    if not ok:
        raise ConfigError(f"{symbol}={value:g} outside domain {domain_text(symbol)}")


def validate(params: Params) -> Params:
    """Check every field against its domain; returns the params unchanged."""
    for f in fields(params):
        _check_domain(f.name, getattr(params, f.name))
    return params


def apply_overrides(params: Params, overrides: dict[str, str | float | int]) -> Params:
    """Apply name=value overrides, validating names, types, and domains."""
    updates: dict[str, float | int] = {}
    for raw_name, raw_value in overrides.items():
        name = _ALIASES.get(raw_name, raw_name)
        if name not in _DOMAINS:
            raise ConfigError(f"unknown parameter '{raw_name}'")
        try:
            value: float | int
            if name in _INT_FIELDS:
                value = int(str(raw_value), 0)
            else:
                value = float(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{raw_name}: cannot parse '{raw_value}' as a number") from exc
        try:
            _check_domain(name, value)
        except ConfigError as exc:
            # report the symbol the user typed, with its domain
            raise ConfigError(f"{raw_name}={value:g} outside domain {domain_text(name)}") from exc
        updates[name] = value
    return replace(params, **updates)

"""Run parameters for the landing pipeline, and the domain of every
configuration number.

The core symbols (alpha, tau, rho_min, w_f/w_s/w_o, lambda, f_s, b0,
v_xy_max, v_z_max) use the same names in config files and ``--set``
overrides so a run can be reproduced from its summary line alone.

A number is a field of ``Params`` when it is one of the paper's symbols,
a model parameter (the likelihood floor, the cue and likelihood scales,
the screening thresholds ``v_max`` and ``g_max``, the descent rate
``v_des``), a number that the two bench workloads run at different
values (``f_max``), or one that an open ROADMAP item varies
(``search_radius``). A test is not a caller: a test that needs another
value patches the module constant for that case. Every other number is
an implementation constant, a module constant beside its one reader.

Every numeric field of ``Params`` and of the scenario dataclasses in
``scene`` declares its domain with ``ranged``; each is ``validate``d when
built, ``apply_overrides`` checks each override, and both raise ``ConfigError``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

_BOUNDS = {"gt", "ge", "lt", "le"}


class ConfigError(ValueError):
    """Raised when a parameter override or a scenario is malformed or out of domain."""


def ranged(default, **bounds):
    """A dataclass field whose value ``validate`` keeps finite and inside
    ``bounds``: lower ``gt`` or ``ge``, upper ``lt`` or ``le``, any of them
    left out for an unbounded side. Pass ``dataclasses.MISSING`` as the
    default of a required field."""
    if not set(bounds) <= _BOUNDS:
        raise TypeError(f"unknown bounds {sorted(set(bounds) - _BOUNDS)}")
    return field(default=default, metadata={"domain": bounds})


def domain_text(bounds: dict) -> str:
    """The interval of a ``ranged`` domain, e.g. ``(0, inf)`` or ``[1, inf)``."""
    lo = bounds.get("gt", bounds.get("ge", -math.inf))
    hi = bounds.get("lt", bounds.get("le", math.inf))
    left = "[" if "ge" in bounds else "("
    right = "]" if "le" in bounds else ")"
    return f"{left}{lo:g}, {hi:g}{right}"


def _check(name: str, value, integer: bool, bounds: dict) -> None:
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if integer else "a number"
        raise ConfigError(f"{name}={value!r} is not {what} in {domain_text(bounds)}")
    inf = math.inf
    if not (math.isfinite(value)   # inf and nan are outside every domain
            and bounds.get("gt", -inf) < value <= bounds.get("le", inf)
            and bounds.get("ge", -inf) <= value < bounds.get("lt", inf)):
        raise ConfigError(f"{name}={value:g} outside domain {domain_text(bounds)}")


def validate(obj):
    """Check every field of the dataclass ``obj`` that declares a domain;
    returns ``obj`` unchanged.

    The annotation gives the shape: ``int`` takes an integer, ``float``
    any real number, ``tuple[float, float]`` a tuple of two of them, each
    in the domain, and a trailing ``| None`` also takes None. (The
    annotations are strings: ``from __future__ import annotations``.)
    """
    for f in fields(obj):
        if "domain" not in f.metadata:
            continue
        bounds, value = f.metadata["domain"], getattr(obj, f.name)
        if value is None and f.type.endswith("| None"):
            continue
        if not f.type.startswith("tuple"):
            _check(f.name, value, f.type == "int", bounds)
        elif isinstance(value, tuple) and len(value) == 2:
            for i, v in enumerate(value):
                _check(f"{f.name}[{i}]", v, False, bounds)
        else:
            raise ConfigError(f"{f.name}={value!r} is not a tuple of two numbers "
                              f"in {domain_text(bounds)}")
    return obj


@dataclass(frozen=True)
class Params:
    # belief / selection
    f_s: float = ranged(10.0, gt=0.0)              # Hz, loop and belief update rate
    w_f: float = ranged(0.4, ge=0.0)               # flatness weight
    w_s: float = ranged(0.2, ge=0.0)               # slope weight
    w_o: float = ranged(0.4, ge=0.0)               # obstacle proximity weight
    alpha: float = ranged(0.95, gt=0.5, lt=1.0)    # temporal persistence
    b0: float = ranged(0.5, gt=0.0, lt=1.0)        # initial belief for new tracks
    tau: float = ranged(0.75, gt=0.0, lt=1.0)      # commit threshold on belief
    rho_min: float = ranged(0.55, gt=0.0)          # m, minimum inscribed landing radius
    eps_l: float = ranged(0.05, gt=0.0, le=0.5)    # likelihood floor, keeps beliefs revisable

    # cue shaping
    sigma_f: float = ranged(0.02, gt=0.0)          # m, plane-fit RMS that maps to flatness cue 1.0
    sigma_s: float = ranged(0.15, gt=0.0)          # rad, scale of the slope likelihood
    sigma_o: float = ranged(0.5, gt=0.0)           # scale of the obstacle likelihood
    d_scale: float = ranged(0.5, gt=0.0)  # m, obstacle-distance scale in the proximity score

    # region screening
    v_max: float = ranged(0.03, gt=0.0)            # m, max height std inside the window
    g_max: float = ranged(0.10, gt=0.0)            # m/px, max depth gradient magnitude

    # servo / control
    lam: float = ranged(0.8, gt=0.0)               # servo gain (config symbol: lambda)
    v_xy_max: float = ranged(0.25, gt=0.0)         # m/s, lateral speed limit
    v_z_max: float = ranged(0.30, gt=0.0)          # m/s, vertical speed limit
    v_des: float = ranged(0.2, gt=0.0)             # m/s, gated descent rate
    search_radius: int = ranged(10, ge=1)          # px, match search half-window (21x21)

    # vehicle / episode
    f_max: int = ranged(300, ge=1)                 # scan frames before timeout

    def __post_init__(self) -> None:
        validate(self)


# config files and --set use "lambda"; the attribute is `lam` (reserved word)
_ALIASES = {"lambda": "lam"}

_FIELDS = {f.name: f for f in fields(Params)}


def apply_overrides(params: Params, overrides: dict[str, str | float | int]) -> Params:
    """Apply name=value overrides, validating names, types, and domains."""
    updates: dict[str, float | int] = {}
    for raw_name, raw_value in overrides.items():
        name = _ALIASES.get(raw_name, raw_name)
        if name not in _FIELDS:
            raise ConfigError(f"unknown parameter '{raw_name}'")
        integer = _FIELDS[name].type == "int"
        try:
            value = int(str(raw_value), 0) if integer else float(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{raw_name}: cannot parse '{raw_value}' as a number") from exc
        # reported under the symbol the user typed
        _check(raw_name, value, integer, _FIELDS[name].metadata["domain"])
        updates[name] = value
    return replace(params, **updates)

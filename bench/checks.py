"""Property checks on benchmark episodes, independent of today's outputs.

Each check returns a list of problems; an empty list is a pass. The
checks re-derive what they test from the scenario geometry and from
first principles (the scalar belief recursion, an exact distance
transform built on scipy rather than on ``safeland.selector``), so a
change that alters behaviour is caught even when it alters every
emitted file consistently.
"""
from __future__ import annotations

import math
import time

import numpy as np
from scipy import ndimage

_REL = 1e-9  # relative tolerance for recomputed floating-point values


def belief_recursion(track_rows: list[dict], alpha: float, b0: float) -> list[str]:
    """Recompute every recorded belief from its (l1, l0) and the previous belief.

    Per frame a track's belief is mixed toward 0.5 by the persistence
    prior, then, when the track was observed (l1 and l0 recorded), Bayes
    updated by the likelihood ratio. A track starts from ``b0`` in the
    frame it is born and appears in every frame until it retires.
    """
    problems: list[str] = []
    last: dict[int, tuple[int, float]] = {}
    for row in track_rows:
        tid, t = row["id"], row["t"]
        prev_t, b_prev = last.get(tid, (t - 1, b0))
        if prev_t != t - 1:
            problems.append(f"track {tid}: frame {t} follows frame {prev_t}")
        b_bar = alpha * b_prev + (1.0 - alpha) * (1.0 - b_prev)
        l1, l0 = row["l1"], row["l0"]
        if (l1 is None) != (l0 is None):
            problems.append(f"track {tid} t={t}: only one likelihood recorded")
            b = b_bar
        elif l1 is None:
            b = b_bar
        else:
            b = l1 * b_bar / (l1 * b_bar + l0 * (1.0 - b_bar))
        if not math.isclose(b, row["b"], rel_tol=_REL, abs_tol=1e-15):
            problems.append(f"track {tid} t={t}: belief {row['b']!r}, recursion gives {b!r}")
        last[tid] = (t, row["b"])
    return problems


def exact_rho(mask: np.ndarray, ground_sample_distance: float) -> float:
    """Largest inscribed radius (m) of a mask; the image border is background."""
    m = np.pad(np.asarray(mask, dtype=bool), 1, constant_values=False)
    if not m.any():
        return 0.0
    return float(ndimage.distance_transform_edt(m).max()) * ground_sample_distance


def rho_problems(tid: int, mask: np.ndarray, gsd: float, rho: float,
                 feasible: bool, rho_min: float) -> list[str]:
    ref = exact_rho(mask, gsd)
    problems = []
    if not math.isclose(rho, ref, rel_tol=_REL, abs_tol=1e-12):
        problems.append(f"track {tid}: rho {rho!r}, exact EDT gives {ref!r}")
    if feasible != (rho >= rho_min):
        problems.append(f"track {tid}: feasible={feasible} with rho {rho!r}")
    return problems


class RhoChecker:
    """Observer that recomputes every reported track rho on every scan frame.

    The time it spends is kept in ``seconds`` so the caller can take it
    out of measured wall time.
    """

    def __init__(self, rho_min: float):
        self.rho_min = rho_min
        self.problems: list[str] = []
        self.seconds = 0.0

    def __call__(self, event: str, data: dict) -> None:
        if event != "scan_frame":
            return
        t0 = time.perf_counter()
        for track in data["tracks"]:
            feas = data["feasibility"][track.id]
            gsd = track.mask.mean_depth / track.mask.camera.focal_length
            for p in rho_problems(track.id, track.mask.pixels, gsd, feas.rho,
                                  feas.feasible, self.rho_min):
                self.problems.append(f"t={data['t']} {p}")
        self.seconds += time.perf_counter() - t0


def command_limits(telemetry: list[dict], v_xy_max: float, v_z_max: float) -> list[str]:
    problems = []
    for row in telemetry:
        if row["phase"] != "exec":
            continue
        vx, vy, vz = row["cmd_vx"], row["cmd_vy"], row["cmd_vz"]
        if vx is None or vy is None or vz is None:
            problems.append(f"t={row['t']}: execution frame without a command")
        elif math.hypot(vx, vy) > v_xy_max + 1e-9 or abs(vz) > v_z_max + 1e-9:
            problems.append(f"t={row['t']}: command ({vx}, {vy}, {vz}) exceeds limits")
    return problems


def _distance_to_rect(point, center, half_extents) -> float:
    dx = max(abs(point[0] - center[0]) - half_extents[0], 0.0)
    dy = max(abs(point[1] - center[1]) - half_extents[1], 0.0)
    return math.hypot(dx, dy)


def clutter_landing(result, scenario, params) -> list[str]:
    """Landed, with a rho_min disk inside the large flat patch, away from the strip."""
    problems = []
    if result.outcome != "landed":
        problems.append(f"outcome {result.outcome}, expected landed")
    if result.commit_center is None:
        return problems + ["no commit"]
    c = result.commit_center
    disks = [p for p in scenario.flat_patches if p.half_extents is None]
    strips = [p for p in scenario.flat_patches if p.half_extents is not None]
    big = max(disks, key=lambda p: p.radius)
    off = math.hypot(c[0] - big.center[0], c[1] - big.center[1])
    if off + params.rho_min > big.radius:
        problems.append(f"commit {c}: rho_min disk leaves the large patch "
                        f"({off:.3f} + {params.rho_min} > {big.radius})")
    for strip in strips:
        if _distance_to_rect(c, strip.center, strip.half_extents) < 1.0:
            problems.append(f"commit {c} within 1 m of the strip at {strip.center}")
    return problems + command_limits(result.telemetry, params.v_xy_max, params.v_z_max)


def scan_timeout(result, scenario, params) -> list[str]:
    """Timed out without a commit while an infeasible track's belief exceeded 0.9."""
    problems = []
    if result.outcome != "timeout":
        problems.append(f"outcome {result.outcome}, expected timeout")
    if result.frames_to_commit is not None or result.commit_center is not None:
        problems.append("committed")
    if not result.peak_infeasible_belief > 0.9:
        problems.append(f"peak infeasible belief {result.peak_infeasible_belief} not above 0.9")
    return problems


def episode_problems(result, outcome_check, scenario, params,
                     rho_checker: RhoChecker) -> list[str]:
    """Every check for one episode: its workload's outcome check plus the shared ones."""
    return (outcome_check(result, scenario, params)
            + belief_recursion(result.track_rows, params.alpha, params.b0)
            + rho_checker.problems)

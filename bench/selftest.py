"""Self-test of the benchmark's property checks: each must pass a good result
and reject a deliberately corrupted copy of it.

    python3 bench/selftest.py

Runs in about a second and prints one line per case; exits 1 if any
check passes a corrupted result or rejects a good one.
"""
from __future__ import annotations

import copy
import dataclasses
import sys
from types import SimpleNamespace

import numpy as np

import checks
import run

run._import_package()

from safeland.params import Params  # noqa: E402
from safeland.scene import FlatPatch, load_scenario  # noqa: E402
from safeland.selector import inscribed_radius  # noqa: E402
from safeland.simloop import EpisodeResult  # noqa: E402

PARAMS = Params()
CLUTTERED = load_scenario(run.SCENARIOS / "cluttered.yaml")
# the large patch with a small strip 0.7 m from its centre
STRIP_NEAR = dataclasses.replace(CLUTTERED, flat_patches=(
    CLUTTERED.flat_patches[0], FlatPatch(center=(4.0, 3.5), half_extents=(0.1, 0.1))))


def belief_rows() -> list[dict]:
    """Two tracks, one unobserved for a frame, built with the recursion itself."""
    a = PARAMS.alpha
    rows, beliefs = [], {}
    for t, tid, l1, l0 in [(0, 0, 0.9, 0.1), (0, 1, 0.2, 0.6), (1, 0, None, None),
                           (1, 1, 0.3, 0.5), (2, 0, 0.8, 0.05)]:
        b = beliefs.get(tid, PARAMS.b0)
        b_bar = a * b + (1 - a) * (1 - b)
        b = b_bar if l1 is None else l1 * b_bar / (l1 * b_bar + l0 * (1 - b_bar))
        beliefs[tid] = b
        rows.append({"t": t, "id": tid, "l1": l1, "l0": l0, "b": b})
    return rows


def exec_rows(n: int = 5) -> list[dict]:
    return [{"t": t, "phase": "exec", "cmd_vx": 0.1, "cmd_vy": -0.1, "cmd_vz": -0.2}
            for t in range(n)]


def landed(center=(3.2, 3.5)) -> EpisodeResult:
    return EpisodeResult(outcome="landed", seed=0, frames_total=5, frames_to_commit=0,
                         commit_center=center, commit_rho=1.0, touchdown_error=0.01,
                         telemetry=exec_rows(), track_rows=belief_rows())


def timed_out() -> EpisodeResult:
    return EpisodeResult(outcome="timeout", seed=0, frames_total=12,
                         peak_infeasible_belief=0.95, track_rows=belief_rows())


def with_(result: EpisodeResult, **changes) -> EpisodeResult:
    out = copy.deepcopy(result)
    for key, value in changes.items():
        setattr(out, key, value)
    return out


def corrupt_row(rows: list[dict], index: int, **changes) -> list[dict]:
    out = copy.deepcopy(rows)
    out[index].update(changes)
    return out


def rho_case(mask: np.ndarray, gsd: float = 0.05):
    """The selector's rho for a mask, and a checker run on a synthetic scan frame."""
    feas, _ = inscribed_radius(mask, gsd, PARAMS.rho_min)

    def frame(rho: float, feasible: bool) -> list[str]:
        camera = SimpleNamespace(focal_length=100.0)
        track = SimpleNamespace(id=7, mask=SimpleNamespace(pixels=mask, mean_depth=gsd * 100.0,
                                                           camera=camera))
        checker = checks.RhoChecker(PARAMS.rho_min)
        checker("scan_frame", {"t": 0, "tracks": [track],
                               "feasibility": {7: SimpleNamespace(rho=rho, feasible=feasible)}})
        return checker.problems
    return feas, frame


def main() -> int:
    square = np.zeros((40, 50), dtype=bool)
    square[5:30, 10:35] = True
    edge = np.zeros((40, 50), dtype=bool)
    edge[:, :20] = True          # touches three image borders
    sq, sq_frame = rho_case(square)
    ed, ed_frame = rho_case(edge)
    outcome = lambda check, res: check(res, CLUTTERED, PARAMS)  # noqa: E731
    clutter = lambda item: checks.clutter_landing(item[0], item[1], PARAMS)  # noqa: E731
    scan = lambda res: outcome(checks.scan_timeout, res)  # noqa: E731
    beliefs = lambda rows: checks.belief_recursion(rows, PARAMS.alpha, PARAMS.b0)  # noqa: E731
    limits = lambda rows: checks.command_limits(rows, PARAMS.v_xy_max, PARAMS.v_z_max)  # noqa: E731

    cases = [
        ("belief recursion", beliefs, belief_rows(), [
            ("belief off by 1e-6", corrupt_row(belief_rows(), 3, b=belief_rows()[3]["b"] + 1e-6)),
            ("likelihoods swapped", corrupt_row(belief_rows(), 1, l1=0.6, l0=0.2)),
            ("missing frame", [r for i, r in enumerate(belief_rows()) if i != 2]),
            ("update on an unobserved frame", corrupt_row(belief_rows(), 2, l1=0.9, l0=0.1)),
        ]),
        ("rho of an interior square", lambda args: sq_frame(*args), (sq.rho, sq.feasible), [
            ("rho one pixel larger", (sq.rho + 0.05, sq.feasible)),
            ("feasibility flipped", (sq.rho, not sq.feasible)),
        ]),
        ("rho of a mask on the border", lambda args: ed_frame(*args), (ed.rho, ed.feasible), [
            ("border not counted as background", (ed.rho + 0.05, ed.feasible)),
        ]),
        ("command limits", limits, exec_rows(), [
            ("lateral over v_xy_max", corrupt_row(exec_rows(), 2, cmd_vx=0.3)),
            ("vertical over v_z_max", corrupt_row(exec_rows(), 4, cmd_vz=-0.31)),
            ("execution frame without command", corrupt_row(exec_rows(), 0, cmd_vz=None)),
        ]),
        ("clutter landing", clutter, (landed(), CLUTTERED), [
            ("aborted", (with_(landed(), outcome="aborted"), CLUTTERED)),
            ("rho_min disk leaves the large patch", (landed(center=(3.2 + 0.95, 3.5)), CLUTTERED)),
            ("commit within 1 m of a strip", (landed(), STRIP_NEAR)),
            ("command over the limit",
             (with_(landed(), telemetry=corrupt_row(exec_rows(), 1, cmd_vy=0.5)), CLUTTERED)),
        ]),
        ("scan timeout", scan, timed_out(), [
            ("landed", with_(timed_out(), outcome="landed")),
            ("committed", with_(timed_out(), frames_to_commit=3, commit_center=(4.0, 3.0))),
            ("peak infeasible belief 0.85", with_(timed_out(), peak_infeasible_belief=0.85)),
        ]),
    ]

    wrong = 0
    for name, check, good, bad_variants in cases:
        problems = check(good)
        status = "ok" if not problems else "WRONG (rejects a good result: " + problems[0] + ")"
        wrong += bool(problems)
        print(f"{status:4} {name}: good result passes")
        for label, bad in bad_variants:
            rejected = bool(check(bad))
            wrong += not rejected
            print(f"{'ok' if rejected else 'WRONG':4} {name}: rejects {label}")
    print(f"{'all checks behave' if not wrong else f'{wrong} wrong'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

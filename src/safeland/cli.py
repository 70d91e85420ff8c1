"""Command-line front end: single and batch episode runs with file emission.

Exit codes: 0 landed (all landed for a batch), 2 aborted, 3 timeout,
4 configuration error, 5 I/O error, 6 crashed. A batch that does not
land every episode exits with the code of its first such episode. An
output directory that cannot be created stops the run with exit 5
before any episode, and a failed output write exits 5 as well.
"""
from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import raster
from .params import ConfigError, Params, apply_overrides, validate
from .perception import region_label_map
from .scene import Scenario, load_scenario
from .simloop import (TELEMETRY_FIELDS, TRACK_FIELDS, EpisodeResult,
                      format_row, run_episode)

EXIT_OK = 0
EXIT_ABORTED = 2
EXIT_TIMEOUT = 3
EXIT_CONFIG = 4
EXIT_IO = 5
EXIT_CRASHED = 6

SUMMARY_FIELDS = (
    "seed", "outcome", "frames_total", "frames_to_commit", "commit_belief",
    "commit_x", "commit_y", "commit_rho", "touchdown_error",
    "infeasible_belief_at_commit", "peak_infeasible_belief",
)

_OUTCOME_CODE = {"landed": EXIT_OK, "aborted": EXIT_ABORTED, "timeout": EXIT_TIMEOUT,
                 "crashed": EXIT_CRASHED}

_EMIT_TOKENS = {"summary", "telemetry", "maps"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run request: scenario file, overrides, seeds, emission."""

    scenario_path: Path
    params: Params
    seeds: tuple[int, ...]
    out_dir: Path
    emit: frozenset = frozenset({"summary"})
    workers: int = 1

    @classmethod
    def from_args(cls, scenario: str, overrides: list[str], seeds: str,
                  out: str, emit: str, workers: int) -> "RunConfig":
        params = apply_overrides(Params(), parse_overrides(overrides))
        validate(params)
        tokens = frozenset(t.strip() for t in emit.split(",") if t.strip())
        unknown = tokens - _EMIT_TOKENS
        if unknown:
            raise ConfigError(f"unknown --emit values: {sorted(unknown)}")
        return cls(scenario_path=Path(scenario), params=params,
                   seeds=tuple(parse_seeds(seeds)), out_dir=Path(out),
                   emit=tokens, workers=max(workers, 1))


def parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ConfigError(f"empty seed range '{text}'")
        return list(range(lo, hi + 1))
    return [int(text)]


def parse_overrides(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects symbol=value, got '{pair}'")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


_MAP_EVERY = 10  # frames between map snapshots


class MapWriter:
    """Writes diagnostic rasters every ``_MAP_EVERY``-th frame and at commit time."""

    def __init__(self, out_dir: Path, seed: int):
        self.dir = out_dir / "maps"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.seed = seed

    def __call__(self, event: str, data: dict) -> None:
        if event not in ("scan_frame", "exec_frame", "commit"):
            return
        if event != "commit" and data["t"] % _MAP_EVERY != 0:
            return
        frame = data["frame"]
        stem = f"s{self.seed}_t{data['t']:04d}" + ("_commit" if event == "commit" else "")
        raster.depth_to_pgm(self.dir / f"{stem}_depth.pgm", frame.depth, frame.valid)
        raster.gray_to_pgm(self.dir / f"{stem}_intensity.pgm", frame.intensity)
        if event != "scan_frame":
            return
        labels = region_label_map(data["regions"], frame.depth.shape)
        raster.labels_to_pgm(self.dir / f"{stem}_regions.pgm", labels)
        belief_map = np.zeros(frame.depth.shape)
        like_map = np.zeros(frame.depth.shape)
        feas_map = np.zeros(frame.depth.shape)
        for track in data["tracks"]:
            if track.mask.camera is not frame.camera:
                continue
            belief_map[track.mask.pixels] = track.belief
            if track.likelihoods is not None:
                like_map[track.mask.pixels] = track.likelihoods[0]
            feas_map[track.mask.pixels] = min(data["feasibility"][track.id].rho / 2.0, 1.0)
        raster.gray_to_pgm(self.dir / f"{stem}_belief.pgm", belief_map)
        raster.gray_to_pgm(self.dir / f"{stem}_likelihood.pgm", like_map)
        raster.gray_to_pgm(self.dir / f"{stem}_feasibility.pgm", feas_map)


def _write_csv(path: Path, fields: tuple[str, ...], rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow(format_row(row, fields))


def _summary_row(res: EpisodeResult) -> dict:
    cx, cy = res.commit_center if res.commit_center else (None, None)
    return {
        "seed": res.seed, "outcome": res.outcome,
        "frames_total": res.frames_total,
        "frames_to_commit": res.frames_to_commit,
        "commit_belief": res.commit_belief,
        "commit_x": cx, "commit_y": cy, "commit_rho": res.commit_rho,
        "touchdown_error": res.touchdown_error,
        "infeasible_belief_at_commit": res.infeasible_belief_at_commit,
        "peak_infeasible_belief": res.peak_infeasible_belief,
    }


def run(config: RunConfig, scenario: Scenario) -> list[EpisodeResult]:
    """Execute the configured seeds and write the requested artifacts.

    The output directory is created before any episode runs, so an
    unusable ``out_dir`` raises ``OSError`` without simulating anything.
    """
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    def one(seed: int) -> EpisodeResult:
        observer = MapWriter(out_dir, seed) if "maps" in config.emit else None
        return run_episode(scenario, config.params, seed, observer=observer)

    if config.workers > 1 and len(config.seeds) > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(one, config.seeds))
    else:
        results = [one(seed) for seed in config.seeds]

    if "summary" in config.emit:
        _write_csv(out_dir / "summary.csv", SUMMARY_FIELDS,
                   [_summary_row(r) for r in results])
    if "telemetry" in config.emit:
        for res in results:
            _write_csv(out_dir / f"telemetry_{res.seed}.csv", TELEMETRY_FIELDS,
                       res.telemetry)
            _write_csv(out_dir / f"tracks_{res.seed}.csv", TRACK_FIELDS,
                       res.track_rows)
    return results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safeland",
        description="Probabilistic landing-site selection and servo landing, closed loop.")
    parser.add_argument("scenario", help="scenario YAML file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SYMBOL=VALUE",
                        help="override a parameter (e.g. alpha=0.9); repeatable")
    parser.add_argument("--seeds", default="0",
                        help="single seed or inclusive range a..b (default 0)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--emit", default="summary",
                        help="comma list of: summary,telemetry,maps")
    parser.add_argument("--workers", type=int, default=1,
                        help="concurrent episodes for batch runs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_args(args.scenario, args.overrides, args.seeds,
                                     args.out, args.emit, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        scenario = load_scenario(config.scenario_path)
    except FileNotFoundError:
        print(f"i/o error: scenario file not found: {args.scenario}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # malformed yaml or bad fields
        print(f"config error: scenario: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        results = run(config, scenario)
    except OSError as exc:  # the output directory or a file in it cannot be written
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for res in results:
        line = (f"seed={res.seed} outcome={res.outcome} "
                f"frames={res.frames_total} commit_frame={res.frames_to_commit} "
                f"belief={_opt(res.commit_belief)} rho={_opt(res.commit_rho)} "
                f"touchdown_error={_opt(res.touchdown_error)}")
        print(line)
    landed = sum(1 for r in results if r.outcome == "landed")
    print(f"{landed}/{len(results)} landed")

    if all(r.outcome == "landed" for r in results):
        return EXIT_OK
    first_bad = next(r for r in results if r.outcome != "landed")
    return _OUTCOME_CODE[first_bad.outcome]


def _opt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


if __name__ == "__main__":
    sys.exit(main())

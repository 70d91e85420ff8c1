"""Closed-loop landing benchmark: two workloads through the public API.

Run from the root of a checkout:

    python3 bench/run.py --workload clutter_batch --seed 0 --seconds 40 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones listed in BENCHMARK.json; with ``--trace 1`` the
run alternates untraced and traced rounds and reports the per-stage
numbers and the tracing overhead. Every episode is checked by
``checks.py``; an episode that fails a check counts as failed. README.md
in this directory describes the workloads, their seeds and reference
figures.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT_ROOT = ROOT / ".bench_out"

WORKLOADS = ("clutter_batch", "scan_hires")
CLUTTER_EPISODES = 2      # seeds per clutter_batch round, one per worker
CLUTTER_WORKERS = 2
# clutter_batch rounds draw their episode seeds from 0..119, every one of
# which lands and passes the checks. Outside it some seeds end "aborted":
# the tracker loses every feature a few centimetres above the ground (seed
# 7520538570 is one; see README.md), an outcome that depends on the seed.
CLUTTER_SEED_POOL = 120
SCAN_HIRES_FRAMES = 12    # f_max for scan_hires: every episode is scan-only
SETUP_PROBES = 12         # at least; two before the first round and after each one
EMIT = "summary,telemetry"


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    """Make ``import safeland`` load this checkout's source tree and nothing else."""
    if not (SRC / "safeland" / "__init__.py").is_file():
        _die(f"no package source at {SRC / 'safeland'}")
    if not SCENARIOS.is_dir():
        _die(f"no scenarios directory at {SCENARIOS}")
    sys.path.insert(0, str(SRC))
    import safeland
    if Path(safeland.__file__).resolve().parent != (SRC / "safeland").resolve():
        _die(f"imported safeland from {safeland.__file__}, not from {SRC}")


@dataclasses.dataclass
class Workload:
    name: str
    scenario: Any
    params: Any
    seeds: tuple[int, ...]
    outcome_check: Callable      # (result, scenario, params) -> list of problems
    scenario_path: Path
    step_frames: int             # frames per timed step (see StepClock)
    cli_config: Any = None       # a cli.RunConfig: the workload runs through cli.run


def setup(name: str, seed: int, out_dir: Path) -> Workload:
    """Import, scenario load and config: the work before a workload's first episode."""
    _import_package()
    import checks
    from safeland.cli import RunConfig
    from safeland.params import Params, apply_overrides, validate
    from safeland.scene import load_scenario

    if name == "clutter_batch":
        path = SCENARIOS / "cluttered.yaml"
        first = seed % (CLUTTER_SEED_POOL // CLUTTER_EPISODES) * CLUTTER_EPISODES
        config = RunConfig.from_args(str(path), [], f"{first}..{first + CLUTTER_EPISODES - 1}",
                                     str(out_dir), EMIT, CLUTTER_WORKERS)
        return Workload(name, load_scenario(path), config.params, config.seeds,
                        checks.clutter_landing, path, step_frames=5, cli_config=config)
    path = SCENARIOS / "undersized.yaml"
    scenario = dataclasses.replace(load_scenario(path), camera_width=192,
                                   camera_height=144, camera_focal=144.0)
    params = validate(apply_overrides(Params(), {"f_max": SCAN_HIRES_FRAMES}))
    return Workload(name, scenario, params, (seed,), checks.scan_timeout, path,
                    step_frames=1)


class StepClock:
    """Observer that times an episode in steps, the benchmark's checks excluded.

    A step is ``step_frames`` consecutive frames of one phase; its time
    runs from the previous observer event (or the episode's start) to
    its last frame's event, and ``finish`` times the rest of the episode.
    Rounds repeat the same episodes, so the same step recurs in every
    round under the same key.
    """

    def __init__(self, seed: int, step_frames: int, inner, steps: dict):
        self.seed, self.step_frames, self.inner, self.steps = seed, step_frames, inner, steps
        self.last = time.perf_counter()

    def _add(self, key) -> None:
        self.steps[key] = self.steps.get(key, 0.0) + time.perf_counter() - self.last

    def __call__(self, event: str, data: dict) -> None:
        self._add((self.seed, event, data["t"] // self.step_frames))
        self.inner(event, data)
        self.last = time.perf_counter()

    def finish(self) -> None:
        self._add((self.seed, "end", 0))


@dataclasses.dataclass
class Round:
    episodes: int
    frames: int
    failed: int
    wall_s: float      # episodes, plus emission on the batch path; checks excluded
    elapsed_s: float   # everything, for scheduling the next round
    step_s: float = 0.0  # summed step times (untraced rounds)


def run_round(wl: Workload, tracer) -> tuple[Round, list, dict]:
    """One pass over the workload's seeds, every episode checked.

    Returns the round's numbers, its episode results and, for an
    untraced round, its step times by key (see StepClock); callers keep
    the results of the last round only, so that memory held does not
    grow with the number of rounds that fit into a run.
    """
    import checks
    from safeland import cli, simloop
    from tracing import patched

    spans: list[tuple[float, float]] = []
    checkers: dict[int, checks.RhoChecker] = {}
    steps: dict = {}

    def checked(run_episode, seed: int):
        checker = checks.RhoChecker(wl.params.rho_min)
        checkers[seed] = checker
        if tracer is not None:
            observer = tracer.episode(checker)
        else:
            observer = StepClock(seed, wl.step_frames, checker, steps)
        start = time.perf_counter()
        result = run_episode(wl.scenario, wl.params, seed, observer=observer)
        end = time.perf_counter()
        if tracer is not None:
            tracer.end_episode(end - start - checker.seconds)
        else:
            observer.finish()
        spans.append((start, end))
        return result

    t0 = time.perf_counter()
    if wl.cli_config is not None:
        # the config asks for no maps, so cli.run passes no observer of its own
        with patched(cli, "run_episode",
                     lambda scenario, params, seed, observer=None: checked(real, seed)) as real:
            results = cli.run(wl.cli_config, wl.scenario)
        run_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.cli_run(run_s, max(e for _, e in spans) - min(s for s, _ in spans))
    else:
        results = [checked(simloop.run_episode, seed) for seed in wl.seeds]
        run_s = time.perf_counter() - t0
    wall_s = run_s - sum(c.seconds for c in checkers.values())

    failed = 0
    for res in results:
        problems = checks.episode_problems(res, wl.outcome_check, wl.scenario,
                                           wl.params, checkers[res.seed])
        if problems:
            failed += 1
            print(f"{wl.name} seed {res.seed} failed: " + "; ".join(problems[:5]),
                  file=sys.stderr)
    rnd = Round(len(results), sum(r.frames_total for r in results), failed, wall_s,
                time.perf_counter() - t0, sum(steps.values()))
    return rnd, results, steps


def emit_digest(wl: Workload, results: list, out_dir: Path) -> str:
    """SHA-256 over the CLI's summary/telemetry/tracks CSVs, files in name order.

    The batch path has already written them; in-process results are
    passed through ``cli.run`` so the bytes come from the same writer.
    """
    from safeland import cli
    from tracing import patched

    if wl.cli_config is None:
        by_seed = {r.seed: r for r in results}
        config = cli.RunConfig(scenario_path=wl.scenario_path, params=wl.params,
                               seeds=wl.seeds, out_dir=out_dir,
                               emit=frozenset(EMIT.split(",")), workers=1)
        with patched(cli, "run_episode",
                     lambda scenario, params, seed, observer=None: by_seed[seed]):
            cli.run(config, wl.scenario)
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir(), key=lambda p: p.name):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from spawning a process to its workload being ready."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    if proc.returncode != 0 or line.strip() != "ready":
        _die(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def measure(wl: Workload, seconds: float, trace: bool, between: Callable[[], None]):
    """Whole rounds until the next one would overrun ``seconds``; at least two.

    With ``trace`` the rounds alternate untraced and traced, starting
    untraced. ``between`` runs before the first round and after each
    one, outside the ``seconds`` budget. Returns the rounds, the steady
    wall time of every two successive untraced rounds (see
    ``pair_wall_s``), the tracer and the results of the last round.
    """
    from tracing import Tracer

    tracer = Tracer() if trace else None
    plain: list[Round] = []
    traced: list[Round] = []
    pair_walls: list[float] = []
    prev_steps: dict = {}
    budget_s = 0.0
    while True:
        between()
        t0 = time.perf_counter()
        use_tracer = trace and len(traced) < len(plain)
        with tracer.installed() if use_tracer else nullcontext():
            rnd, results, steps = run_round(wl, tracer if use_tracer else None)
        budget_s += time.perf_counter() - t0
        if not use_tracer:
            if plain:
                pair_walls.append(pair_wall_s(plain[-1], prev_steps, rnd, steps))
            prev_steps = steps
        (traced if use_tracer else plain).append(rnd)
        rounds = plain + traced
        mean_elapsed = statistics.fmean(r.elapsed_s for r in rounds)
        if len(rounds) >= 2 and budget_s + mean_elapsed > seconds:
            between()
            return plain, traced, pair_walls, tracer, results


def pair_wall_s(a: Round, a_steps: dict, b: Round, b_steps: dict) -> float:
    """Round wall time of two successive untraced rounds, host slowdowns taken out.

    Both rounds do the same work step for step, so the slower time of a
    step was slowed by the host, not by the program: the faster of its
    two times is kept. The summed faster times are scaled by the rounds'
    wall time over their step time, which counts what lies outside the
    steps and, on the batch path, the two workers' steps overlapping.
    Always comparing two rounds keeps the estimate from depending on how
    many rounds fit into a run.
    """
    if a_steps.keys() != b_steps.keys():
        _die("two untraced rounds took different steps: the episodes are not deterministic")
    fastest = sum(min(t, b_steps[key]) for key, t in a_steps.items())
    return fastest * (a.wall_s + b.wall_s) / (a.step_s + b.step_s)


def _frames_per_s(rnd: Round) -> float:
    return rnd.frames / rnd.wall_s


def _median(rounds: list[Round], rate) -> float:
    return statistics.median(rate(rnd) for rnd in rounds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed offset; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print 'ready' and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out_dir = OUT_ROOT / f"{args.workload}-{args.seed}-{time.time_ns()}"
    if args.setup_probe:
        setup(args.workload, args.seed, out_dir)
        print("ready", flush=True)
        return 0

    setup_times: list[float] = []

    def probe_between_rounds() -> None:
        if not args.trace:
            setup_times.extend(probe_setup(args.workload, args.seed) for _ in range(2))

    wl = setup(args.workload, args.seed, out_dir)
    out_dir.mkdir(parents=True)
    try:
        plain, traced, pair_walls, tracer, last = measure(wl, args.seconds, bool(args.trace),
                                                          probe_between_rounds)
        while not args.trace and len(setup_times) < SETUP_PROBES:
            probe_between_rounds()
        digest = emit_digest(wl, last, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass

    rounds = plain + traced
    attempted = sum(r.episodes for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{wl.name}: seeds {wl.seeds[0]}..{wl.seeds[-1]}, {len(plain)} untraced and "
          f"{len(traced)} traced rounds, {failed}/{attempted} episodes failed")
    print(f"{wl.name}: sha256 of emitted summary/telemetry/tracks CSVs {digest}")
    landed = [r.touchdown_error for r in last if r.outcome == "landed"]
    if landed:
        print(f"{wl.name}: mean touchdown error {statistics.fmean(landed):.4f} m "
              f"over {len(landed)} landed episodes of the last round")
    for label, group in (("untraced", plain), ("traced", traced)):
        if group:
            rates = ", ".join(f"{_frames_per_s(rnd):.2f}" for rnd in group)
            print(f"{wl.name}: {label} frames/s per round: {rates}")
    if pair_walls:
        rates = ", ".join(f"{plain[0].frames / w:.2f}" for w in pair_walls)
        print(f"{wl.name}: steady frames/s per two successive untraced rounds: {rates}")

    if args.trace:
        metrics = tracer.metrics()
        fps_plain, fps_traced = _median(plain, _frames_per_s), _median(traced, _frames_per_s)
        metrics["trace.frames_per_s"] = (fps_traced, "1/s")
        metrics["trace.untraced_frames_per_s"] = (fps_plain, "1/s")
        metrics["trace.overhead_share"] = (1.0 - fps_traced / fps_plain, "fraction")
    else:
        wall_s = statistics.median(pair_walls)
        metrics = {
            "episodes_per_s": (plain[0].episodes / wall_s, "1/s"),
            "frames_per_s": (plain[0].frames / wall_s, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-stage timing and counts for the traced benchmark run.

Stages are timed by wrapping public functions of the package under the
name their caller looks up: ``simloop`` imports ``build_world``,
``render_true_depth`` and ``corrupt`` by name, ``perception`` imports
``distance_sq_to`` by name, and every other stage is called through its
module. Frame-level counts come from the public ``Observer`` hook of
``run_episode``. Nothing inside the package is changed; the wrappers
are removed again when a traced round ends.
"""
from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

from safeland import belief, perception, scene, selector, servo, simloop

# (stage, owner the caller looks the name up in, attribute name)
STAGES = (
    ("scene.build_world", simloop, "build_world"),
    ("scene.render", simloop, "render_true_depth"),
    ("scene.corrupt", simloop, "corrupt"),
    ("perception.screen", perception, "screen_frame"),
    ("perception.extract", perception, "extract_regions"),
    ("perception.fit_plane", perception, "fit_plane"),
    ("perception.cues", perception, "compute_cues"),
    ("belief.associate", belief, "associate"),
    ("belief.step", belief, "step"),
    ("selector.feasibility", selector, "inscribed_radius"),
    ("selector.select", selector, "select"),
    ("servo.track", servo, "detect_and_track"),
    ("servo.control", servo, "control"),
)
EMIT_STAGE = "cli.emit"

# functions only counted, not timed: they run inside timed stages
COUNTED = (
    ("scene.pixel_dirs", scene.CameraModel, "pixel_dirs_world"),
    ("perception.obstacle_dt", perception, "distance_sq_to"),
)


@contextmanager
def patched(owner, name: str, value):
    """Replace ``owner.name`` for the duration of the block."""
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield original
    finally:
        setattr(owner, name, original)


class EpisodeTrace:
    """Observer for one episode: splits its wall time into scan and execution frames.

    Each frame's time runs from the previous observer event (or from the
    end of world construction) to its own event. The wrapped checker
    observer runs after the timestamp is taken and the clock restarts
    after it, so checking stays out of the frame times.
    """

    def __init__(self, tracer: "Tracer", inner):
        self.tracer = tracer
        self.inner = inner
        self.last = time.perf_counter()

    def mark(self) -> None:
        self.last = time.perf_counter()

    def __call__(self, event: str, data: dict) -> None:
        now = time.perf_counter()
        elapsed = now - self.last
        tr = self.tracer
        with tr.lock:
            if event == "scan_frame":
                tr.frame_s["scan"] += elapsed
                tr.frames["scan"] += 1
                tr.per_frame["regions"] += len(data["regions"])
                tr.per_frame["tracks"] += len(data["tracks"])
            elif event == "exec_frame":
                tr.frame_s["exec"] += elapsed
                tr.frames["exec"] += 1
                tr.per_frame["features"] += data["features"].n_t
        self.inner(event, data)
        self.last = time.perf_counter()


class Tracer:
    """Accumulates stage times, call counts and frame counts over traced rounds."""

    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.frames: dict[str, int] = defaultdict(int)
        self.frame_s: dict[str, float] = defaultdict(float)
        self.per_frame: dict[str, int] = defaultdict(int)
        self.episodes = 0
        self.episode_s = 0.0
        self.cli_run_s = 0.0

    def _timed(self, stage: str, fn, after=None):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                with self.lock:
                    self.calls[stage] += 1
                    self.seconds[stage] += dt
            if after is not None:
                after(out)
            return out
        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.lock:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_associate(self, result) -> None:
        # tracks left unmatched keep last frame's mask, so their
        # feasibility is recomputed on unchanged input
        with self.lock:
            self.per_frame["unmatched"] += len(result.tracks) - len(result.matches)

    def _after_build_world(self, _world) -> None:
        episode = getattr(self.local, "episode", None)
        if episode is not None:
            episode.mark()

    @contextmanager
    def installed(self):
        hooks = {"belief.associate": self._after_associate,
                 "scene.build_world": self._after_build_world}
        with ExitStack() as stack:
            for stage, owner, name in STAGES:
                wrapper = self._timed(stage, getattr(owner, name), hooks.get(stage))
                stack.enter_context(patched(owner, name, wrapper))
            for counter, owner, name in COUNTED:
                stack.enter_context(patched(owner, name, self._counted(counter, getattr(owner, name))))
            yield self

    def episode(self, inner) -> EpisodeTrace:
        trace = EpisodeTrace(self, inner)
        self.local.episode = trace
        return trace

    def end_episode(self, wall_s: float) -> None:
        self.local.episode = None
        with self.lock:
            self.episodes += 1
            self.episode_s += wall_s

    def cli_run(self, run_s: float, episodes_span_s: float) -> None:
        """One ``cli.run`` call: its wall time minus the span of its episodes is emission."""
        with self.lock:
            self.calls[EMIT_STAGE] += 1
            self.seconds[EMIT_STAGE] += run_s - episodes_span_s
            self.cli_run_s += run_s

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        n_ep = max(self.episodes, 1)
        for stage, _, _ in STAGES + ((EMIT_STAGE, None, None),):
            calls, secs = self.calls[stage], self.seconds[stage]
            base = self.cli_run_s if stage == EMIT_STAGE else self.episode_s
            out[f"{stage}.calls"] = (calls / n_ep, "1/episode")
            out[f"{stage}.ms_per_call"] = (1e3 * secs / calls if calls else 0.0, "ms")
            out[f"{stage}.share"] = (secs / base if base else 0.0, "fraction")
        scan, execf = self.frames["scan"], self.frames["exec"]
        all_frames = max(scan + execf, 1)
        out["scene.pixel_dirs.calls_per_frame"] = (
            self.calls["scene.pixel_dirs"] / all_frames, "1/frame")
        out["perception.regions_per_frame"] = (self.per_frame["regions"] / max(scan, 1), "1/frame")
        out["perception.obstacle_dt.calls_per_frame"] = (
            self.calls["perception.obstacle_dt"] / max(scan, 1), "1/frame")
        out["belief.tracks_per_frame"] = (self.per_frame["tracks"] / max(scan, 1), "1/frame")
        feas = self.calls["selector.feasibility"]
        out["selector.feasibility.unchanged_share"] = (
            self.per_frame["unmatched"] / feas if feas else 0.0, "fraction")
        out["servo.features_per_frame"] = (self.per_frame["features"] / max(execf, 1), "1/frame")
        out["simloop.scan_frame_ms"] = (1e3 * self.frame_s["scan"] / scan if scan else 0.0, "ms")
        out["simloop.exec_frame_ms"] = (1e3 * self.frame_s["exec"] / execf if execf else 0.0, "ms")
        staged = sum(self.seconds[s] for s, _, _ in STAGES)
        out["simloop.other.share"] = (
            1.0 - staged / self.episode_s if self.episode_s else 0.0, "fraction")
        return out

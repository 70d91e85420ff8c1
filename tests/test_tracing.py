"""The benchmark's tracer wraps and counts package functions by attribute
name (``bench/tracing.py``); every name it looks up must still resolve, so
a rename inside the package fails here rather than in a traced bench run."""
import sys
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import checks  # noqa: E402
import tracing  # noqa: E402
from conftest import SCENARIO_DIR  # noqa: E402

from safeland import simloop  # noqa: E402
from safeland.params import Params  # noqa: E402
from safeland.scene import load_scenario  # noqa: E402
from safeland.simloop import run_episode  # noqa: E402

_NAMES = tracing.STAGES + tracing.COUNTED
# hooks the loop no longer reaches: a region's radius is measured when it is
# extracted, and the render builds no per-pixel ray grid
_IDLE = {"selector.feasibility", "scene.pixel_dirs"}
# calls of each reached stage in the short episode below: two scan frames
# (commit on the second), then five execution frames; the first of them is
# acquisition's detection, which tracks nothing, so four are tracked
_EPISODE_CALLS = {
    "scene.build_world": 1, "scene.render": 7, "scene.corrupt": 7,
    "perception.screen": 2, "perception.extract": 2, "perception.fit_plane": 4,
    "perception.cues": 4, "belief.associate": 2, "belief.step": 2,
    "selector.select": 2, "servo.track": 4, "servo.control": 5,
    "perception.obstacle_dt": 2,
}


@pytest.mark.parametrize("stage, owner, name", _NAMES, ids=[s for s, _, _ in _NAMES])
def test_traced_name_resolves_on_the_package(stage, owner, name):
    assert callable(getattr(owner, name, None)), f"{stage}: {owner.__name__}.{name} is gone"


@pytest.fixture(scope="module")
def traced_episode():
    """A short committed ``cluttered`` episode run as the benchmark runs one:
    traced, with the rho checker as the episode's observer."""
    scenario = load_scenario(SCENARIO_DIR / "cluttered.yaml")
    params = Params()
    tracer = tracing.Tracer()
    checker = checks.RhoChecker(params.rho_min)
    with tracer.installed(), mock.patch.object(simloop, "_F_MAX_EXEC", 5):
        result = run_episode(scenario, params, seed=0, observer=tracer.episode(checker))
    assert (result.outcome, result.frames_total, result.frames_to_commit) == ("timeout", 7, 1)
    return result, params, tracer, checker


def test_every_hooked_stage_is_called_by_an_episode(traced_episode):
    """A stage the package imports by name instead of looking it up where the
    tracer patches it would count zero calls; a short committed episode
    reaches every stage but the idle ones."""
    _, _, tracer, _ = traced_episode
    uncalled = {stage for stage, _, _ in _NAMES if tracer.calls[stage] == 0}
    assert uncalled == _IDLE
    assert {stage: tracer.calls[stage] for stage in _EPISODE_CALLS} == _EPISODE_CALLS


def test_bench_checks_pass_on_a_real_episode(traced_episode):
    """The fields the benchmark reads through the observer and the result
    are still there: its rho checker, belief recursion and frame counts
    run on what a real episode reports."""
    result, params, tracer, checker = traced_episode
    assert checker.problems == []
    assert checks.belief_recursion(result.track_rows, params.alpha, params.b0) == []
    assert dict(tracer.frames) == {"scan": 2, "exec": 5}


def test_bench_selftest_passes(capsys):
    """The benchmark's own checks still run against the package's surface,
    ``selector.inscribed_radius`` included (``bench/selftest.py``)."""
    import selftest
    assert selftest.main() == 0, capsys.readouterr().out

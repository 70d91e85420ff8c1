"""The benchmark's tracer wraps and counts package functions by attribute
name (``bench/tracing.py``); every name it looks up must still resolve, so
a rename inside the package fails here rather than in a traced bench run."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402

_NAMES = tracing.STAGES + tracing.COUNTED


@pytest.mark.parametrize("stage, owner, name", _NAMES, ids=[s for s, _, _ in _NAMES])
def test_traced_name_resolves_on_the_package(stage, owner, name):
    assert callable(getattr(owner, name, None)), f"{stage}: {owner.__name__}.{name} is gone"

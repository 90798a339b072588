"""Every name the benchmark's span tracer wraps must still exist.

The benchmark's smoke test is not part of this suite, so a rename or
deletion of a traced function would otherwise surface only when the
benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACE_POINTS


@pytest.mark.parametrize("target", sorted({t for _, t, _ in _trace_points()}))
def test_trace_point_resolves_to_a_callable(target):
    module_name, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr, None)), target

"""The benchmark tracer's hooks must all resolve in the package."""

import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def test_every_traced_name_resolves_to_a_callable():
    """perfbench/trace.py wraps (owner, attribute) pairs by name, so a
    retired name would only fail in a traced benchmark run. The module is
    loaded by path under another name: ``trace`` shadows the stdlib."""
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPS
    missing = [(owner.__name__, attr) for owner, attr, _ in tracer.WRAPS
               if not callable(getattr(owner, attr, None))]
    assert not missing

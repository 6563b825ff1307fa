"""The benchmark's tracer (bench/tracing.py) rebinds package functions by
name, and a traced run raises when a required target is missing."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_required_trace_target_resolves():
    tracing = load_tracing()
    required = [t for t in tracing.TARGETS if t[2] not in tracing.OPTIONAL]
    assert required
    for module_name, attr, _prefix, _kind, _phase in required:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"trace target {module_name}.{attr} not found"

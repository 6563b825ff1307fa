"""The benchmark's contract with the package: its tracer (bench/tracing.py)
rebinds package functions by name, and a traced run raises when a required
target is missing; its problem files (bench/problems.py) must load."""

import importlib

from relubarrier import load_problem

from helpers import load_bench_module


def test_every_required_trace_target_resolves():
    tracing = load_bench_module("tracing")
    required = [t for t in tracing.TARGETS if t[2] not in tracing.OPTIONAL]
    assert required
    for module_name, attr, _prefix, _kind, _phase in required:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"trace target {module_name}.{attr} not found"


def test_every_bench_problem_file_loads(tmp_path):
    problems = load_bench_module("problems")
    suites = {w: problems.build_workload(w, 0) for w in problems.WORKLOADS}
    suites["warm-up"] = [problems.warm_up_problem()]
    for name, suite in suites.items():
        problems.write_workload(suite, str(tmp_path / name))
        for p in suite:
            assert load_problem(p.path).network.input_dim == p.dim

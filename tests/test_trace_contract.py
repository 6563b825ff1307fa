"""The benchmark's contract with the package: its tracer (bench/tracing.py)
rebinds package functions by name, and a traced run raises when a required
target is missing; its problem files (bench/problems.py) must load, and
every report made from them must pass its checker (bench/checker.py),
known answers included; every configuration knob is one that some input
actually sets, and each command's override flags match the RELUBARRIER_*
variables; and every public name has a caller outside the tests."""

import argparse
import ast
import dataclasses
import importlib
import pathlib

import relubarrier
from relubarrier import (DynamicsSystem, VerifierConfig, build_report, cli, conditions,
                         load_problem, parse_expression)

from helpers import BENCH, diamond_net, load_bench_module

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def test_bench_tracer_reads_a_verify_pass():
    """The tracer's wrappers bind the traced functions' arguments and read
    their results, so a traced pass breaks when a signature drifts."""
    tracing = load_bench_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        conditions.verify_certificate(
            diamond_net(), DynamicsSystem.parse(["-x1", "-x2"], dim=2),
            parse_expression("0.04 - x1^2 - x2^2", 2),
            parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2))
    finally:
        tracer.uninstall()
    metrics = {name: metric(tracer) for name, (_unit, metric) in tracing.LAYER_METRICS.items()}
    assert metrics["regions.find_initial_region.attempts"] >= 1
    assert metrics["regions.regions_found"] == 4
    assert all(isinstance(value, (int, float)) for value in metrics.values())


def test_every_configuration_field_is_set_by_some_input():
    """A knob earns its place when the command line / environment or a bench
    problem file sets it; domain_box and seed frame every problem.  Fixed
    numbers are constants in config.py instead."""
    problems = load_bench_module("problems")
    suites = [problems.build_workload(w, 0) for w in problems.WORKLOADS]
    bench_keys = {k for suite in suites for p in suite for k in p.budgets}
    override_keys = {key for key, _cast in cli._ENV_KEYS.values()}
    allowed = override_keys | bench_keys | {"domain_box", "seed"}
    unset = [f.name for f in dataclasses.fields(VerifierConfig) if f.name not in allowed]
    assert unset == []


def test_override_flags_and_environment_cover_the_same_keys():
    """Every command takes a flag for exactly the configuration keys that a
    RELUBARRIER_* variable sets, so neither route reaches a knob the other
    cannot."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    fields = {f.name for f in dataclasses.fields(VerifierConfig)}
    env_keys = {key for key, _cast in cli._ENV_KEYS.values()}
    for name in ("verify", "export-smt", "plot"):
        flags = {a.dest for a in commands[name]._actions if a.dest in fields}
        assert flags == env_keys, name


def test_every_bench_report_passes_the_checker(tmp_path, monkeypatch):
    """Every workload at seed 0, through the verify path and the benchmark's
    independent checker: witnesses re-check, no verified patch is
    contradicted, and verdicts, failures and caveat prefixes match the known
    answers."""
    monkeypatch.syspath_prepend(BENCH)   # the checker imports `problems`
    checker = importlib.import_module("checker")
    problems = importlib.import_module("problems")
    failures = []
    for workload in problems.WORKLOADS:
        suite = problems.build_workload(workload, 0)
        problems.write_workload(suite, str(tmp_path / workload))
        for spec in suite:
            problem = load_problem(spec.path)
            verdict = conditions.verify_certificate(problem.network, problem.system,
                                                    problem.h_init, problem.h_unsafe,
                                                    problem.config)
            result = checker.check_report(spec, build_report(problem, verdict))
            if not result.ok:
                failures.extend(result.problems)
    assert failures == []


def test_every_public_name_has_a_caller_outside_the_tests():
    """A name in `relubarrier.__all__` that only the tests read is a wrapper
    duplicating an internal route, or dead: every one must be referenced (as
    a name or an attribute) in src/ outside __init__.py, demos/ or bench/."""
    # the tracer names them by string; ROADMAP item 1 moves them into the tests
    allowed = {"implicit_equalities", "remove_redundant"}
    files = [p for p in (ROOT / "src" / "relubarrier").glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "demos").glob("*.py")) + list((ROOT / "bench").glob("*.py"))
    referenced = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = [name for name in relubarrier.__all__
                if name != "__version__" and name not in referenced | allowed]
    assert uncalled == []

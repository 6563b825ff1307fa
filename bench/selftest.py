"""Self-tests of the benchmark itself (not of the package).

Run from the repository root:

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the package's own test collection.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import relubarrier  # noqa: E402
import checker  # noqa: E402
import problems  # noqa: E402
from run import operation  # noqa: E402
from tracing import LAYER_METRICS, TARGETS, Tracer  # noqa: E402


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", problems.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        problems.write_workload(problems.build_workload(workload, seed), str(tmp_path / sub))
    a, b, c = (_files(tmp_path / sub) for sub in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_numpy_forms_match_the_problem_text():
    """The checker's numpy forms compute what the problem files say."""
    rng = np.random.default_rng(0)
    for workload in problems.WORKLOADS:
        for p in problems.build_workload(workload, 3):
            xs = rng.uniform(-1.0, 1.0, size=(5, p.dim))
            system = relubarrier.DynamicsSystem.parse(p.dynamics, p.dim)
            np.testing.assert_allclose([system(x) for x in xs], p.f(xs), rtol=1e-12, atol=1e-12)
            for text, g in ((p.initial_set, p.g_init), (p.unsafe_set, p.g_unsafe)):
                expr = relubarrier.parse_expression(text, p.dim)
                np.testing.assert_allclose(relubarrier.evaluate(expr, xs), g(xs),
                                           rtol=1e-12, atol=1e-12)
            net = relubarrier.network_from_json(p.net)
            np.testing.assert_allclose(net.forward_many(xs), problems.net_forward(p.net, xs),
                                       rtol=1e-12, atol=1e-12)


@pytest.fixture()
def tiny(tmp_path):
    p = problems.warm_up_problem()
    problems.write_workload([p], str(tmp_path))
    return p


def _traced(path):
    tracer = Tracer()
    tracer.install()
    try:
        _, stable = operation(relubarrier, path)
    finally:
        tracer.uninstall()
    return tracer, stable


def test_traced_report_equals_untraced(tiny):
    _, untraced = operation(relubarrier, tiny.path)
    tracer, traced = _traced(tiny.path)
    assert traced == untraced
    assert tracer.counts["linprog.lp_solve.calls"] > 0
    assert tracer.counts["conditions.search.calls"] > 0
    assert tracer.counts["geometry.bounding_box.calls"] > 0


def test_two_traced_runs_give_identical_counts(tiny):
    first, second = _traced(tiny.path)[0], _traced(tiny.path)[0]
    counted = [n for n, (unit, _) in LAYER_METRICS.items() if unit not in ("s", "ms")]
    assert {n: LAYER_METRICS[n][1](first) for n in counted} == \
        {n: LAYER_METRICS[n][1](second) for n in counted}


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "relubarrier" or name.startswith("relubarrier."):
            out.update({(name, k): v for k, v in vars(module).items()})
    out.update({("ReluNetwork", k): v
                for k, v in vars(relubarrier.ReluNetwork).items()})
    return out


def test_every_wrapped_name_is_restored(tiny):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        assert len(changed) >= len(TARGETS)
        operation(relubarrier, tiny.path)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _falsified_diamond(tmp_path):
    p = problems.warm_up_problem()
    p.dynamics = ["1", "0"]
    p.f = lambda x: np.tile([1.0, 0.0], (len(x), 1))
    problems.write_workload([p], str(tmp_path))
    report, _ = operation(relubarrier, p.path)
    return p, report


def test_checker_accepts_a_sound_report(tmp_path):
    p, report = _falsified_diamond(tmp_path)
    assert report["verdicts"]["invariance"] == "falsified"
    result = checker.check_report(p, report)
    assert result.ok and result.probes > 0 and result.uncovered == 0


def test_checker_trips_on_a_moved_witness(tmp_path):
    p, report = _falsified_diamond(tmp_path)
    report["witnesses"][0]["point"] = [5.0, 5.0]
    assert checker.check_report(p, report).bad_witnesses == 1


def test_checker_trips_on_a_contradicted_verdict(tmp_path):
    p, report = _falsified_diamond(tmp_path)
    for row in report["regions"]:
        row["invariance"]["status"] = "verified"
    report["verdicts"]["invariance"] = "verified"
    report["witnesses"] = []
    assert checker.check_report(p, report).wrong_verdicts > 0


def test_checker_trips_on_a_wrong_known_answer(tmp_path):
    p, report = _falsified_diamond(tmp_path)
    p.expect = {"invariance": "verified"}
    assert checker.check_report(p, report).wrong_verdicts == 1

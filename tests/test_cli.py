"""Command-line behaviour: exit codes, report schema conformance,
environment-variable precedence, SMT export layout and SVG plotting."""

import json
import stat

import jsonschema
import numpy as np
import pytest

from relubarrier import cli
from relubarrier.cli import main
from relubarrier.network import ReluNetwork

from helpers import SCHEMA, all_dead_net, diamond_net, write_problem


INIT = "0.04 - x1^2 - x2^2"
UNSAFE = "1 - (x1 - 3)^2 - (x2 - 3)^2"


def run_verify(tmp_path, dynamics, net=None, name="problem", extra=()):
    problem = write_problem(tmp_path, net or diamond_net(), dynamics,
                            INIT, UNSAFE, name=name)
    out = tmp_path / f"{name}_report.json"
    code = main(["verify", "--problem", str(problem), "--out", str(out)]
                + list(extra))
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


# -- exit codes --------------------------------------------------------------------

def test_exit_zero_on_verified(tmp_path, capsys):
    code, report = run_verify(tmp_path, ["-x1", "-x2"])
    assert code == 0
    assert report["verdicts"]["overall"] == "verified"
    text = capsys.readouterr().out
    assert "verified" in text


def test_exit_one_on_falsified(tmp_path):
    code, report = run_verify(tmp_path, ["1", "0"])
    assert code == 1
    assert report["verdicts"]["overall"] == "falsified"
    assert report["witnesses"]


def test_exit_two_on_unknown(tmp_path):
    # the weighted flow vanishes identically on two slices; interval
    # branch-and-bound can neither certify nor falsify at zero margin
    code, report = run_verify(tmp_path, ["x2^3", "-x2^3"])
    assert code == 2
    assert report["verdicts"]["overall"] == "unknown"


def test_exit_two_when_the_enclosure_overflows(tmp_path, capsys):
    code, report = run_verify(tmp_path, ["-x1*exp(1000*x1)", "-x2"])
    assert code == 2
    assert report["verdicts"]["invariance"] == "unknown"
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


def test_exit_three_on_structured_failure(tmp_path, capsys):
    code, report = run_verify(tmp_path, ["-x1", "-x2"], net=all_dead_net(),
                              name="dead")
    assert code == 3
    assert report["failure"]["kind"] == "search-exhausted"
    assert "search-exhausted" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["export-smt", "plot"])
def test_export_and_plot_exit_three_when_h_keeps_one_sign(tmp_path, capsys, command):
    # h = -1 - relu(x1) - relu(x2) <= -1: no level set to enumerate
    net = ReluNetwork([np.eye(2)], [np.zeros(2)], -np.ones(2), -1.0)
    problem = write_problem(tmp_path, net, ["-x1", "-x2"], INIT, UNSAFE)
    out = (["--out-dir", str(tmp_path / "smt")] if command == "export-smt"
           else ["--out", str(tmp_path / "p.svg")])
    assert main([command, "--problem", str(problem)] + out) == 3
    assert "h keeps one sign" in capsys.readouterr().err


def test_exit_three_on_unreadable_problem(tmp_path, capsys):
    code = main(["verify", "--problem", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def first_weights(rows):
    """A network-file edit: the first layer's weights become rows."""
    def edit(net):
        net["layers"][0]["weights"] = rows
        return net
    return edit


# (id, fields replaced in the diamond problem file, network-file edit or None)
MALFORMED = [
    ("unknown-key", {"budgets": {"bogus": 1}}, None),
    ("string-tolerance", {"tolerances": {"tol_feas": "1e-7"}}, None),
    ("negative-tolerance", {"tolerances": {"tol_margin": -1.0}}, None),
    ("fractional-count", {"budgets": {"max_attempts": 2.5}}, None),
    ("string-count", {"budgets": {"membership_samples": "10"}}, None),
    ("bool-count", {"budgets": {"bab_max_boxes": True}}, None),
    ("zero-max-regions", {"budgets": {"max_regions": 0}}, None),
    ("string-seed", {"seed": "abc"}, None),
    ("negative-seed", {"seed": -1}, None),
    ("string-in-domain-box", {"domain_box": [["x", 3], [-3, 3]]}, None),
    ("nan-in-domain-box", {"domain_box": [[-3, float("nan")], [-3, 3]]}, None),
    ("tolerances-not-an-object", {"tolerances": "x"}, None),
    ("set-function-not-a-string", {"initial_set": 5}, None),
    ("dynamics-entry-not-a-string", {"dynamics": ["-x1", 2]}, None),
    ("string-weight", {}, first_weights([["a", 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])),
    ("ragged-weights", {}, first_weights([[1.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])),
    ("network-not-an-object", {}, lambda net: 5),
    ("threads-above-one", {"budgets": {"threads": 2}}, None),
    ("fractional-input-dim", {}, lambda net: {**net, "input_dim": 2.5}),
    ("string-input-dim", {}, lambda net: {**net, "input_dim": "2"}),
    ("huge-tol-feas", {"tolerances": {"tol_feas": 1e300}}, None),
]


@pytest.mark.parametrize("fields, net_edit", [pytest.param(f, e, id=name)
                                              for name, f, e in MALFORMED])
def test_exit_three_on_malformed_input(tmp_path, capsys, fields, net_edit):
    """Malformed values are bad input (exit 3 with an error line), not a
    traceback with exit 1, the code for falsified."""
    problem = write_problem(tmp_path, diamond_net(), ["-x1", "-x2"], INIT, UNSAFE)
    data = json.loads(open(problem).read())
    data.update(fields)
    open(problem, "w").write(json.dumps(data))
    if net_edit is not None:
        net_path = tmp_path / data["network_path"]
        net_path.write_text(json.dumps(net_edit(json.loads(net_path.read_text()))))
    assert main(["verify", "--problem", problem, "--out", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err.startswith("error:")


# -- report contract ---------------------------------------------------------------

@pytest.mark.parametrize("dynamics", [("-x1", "-x2"), ("1", "0"),
                                      ("x2^3", "-x2^3")])
def test_reports_validate_against_shipped_schema(tmp_path, dynamics):
    _, report = run_verify(tmp_path, list(dynamics))
    jsonschema.validate(report, SCHEMA)


def test_failure_report_validates_too(tmp_path):
    _, report = run_verify(tmp_path, ["-x1", "-x2"], net=all_dead_net(),
                           name="dead")
    jsonschema.validate(report, SCHEMA)


def test_repeat_runs_identical_modulo_timings(tmp_path):
    _, a = run_verify(tmp_path, ["1", "0"], name="first")
    _, b = run_verify(tmp_path, ["1", "0"], name="second")
    for r in (a, b):
        del r["timings"]
        r["problem"]["path"] = r["problem"]["network_path"] = ""
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- option precedence -------------------------------------------------------------

def test_env_overrides_problem_file(tmp_path, monkeypatch):
    monkeypatch.setenv("RELUBARRIER_SEED", "41")
    monkeypatch.setenv("RELUBARRIER_TOL_MARGIN", "0.25")
    _, report = run_verify(tmp_path, ["-x1", "-x2"])
    assert report["configuration"]["seed"] == 41
    assert report["configuration"]["tol_margin"] == 0.25


def test_cli_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RELUBARRIER_SEED", "41")
    _, report = run_verify(tmp_path, ["-x1", "-x2"],
                           extra=["--seed", "1234"])
    assert report["configuration"]["seed"] == 1234


def test_max_regions_env_flags_partial(tmp_path, monkeypatch):
    monkeypatch.setenv("RELUBARRIER_MAX_REGIONS", "2")
    _, report = run_verify(tmp_path, ["-x1", "-x2"])
    assert report["configuration"]["max_regions"] == 2
    assert report["enumeration"]["partial"] is True
    assert report["enumeration"]["region_count"] <= 2


# -- export-smt --------------------------------------------------------------------

def test_export_writes_queries_and_manifest(tmp_path):
    problem = write_problem(tmp_path, diamond_net(), ["-x1", "-x2"],
                            INIT, UNSAFE)
    out_dir = tmp_path / "smt"
    code = main(["export-smt", "--problem", str(problem),
                 "--out-dir", str(out_dir)])
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert "manifest.json" in files
    # all three conditions, one file per region
    for kind in ("invariance", "initial", "unsafe"):
        kind_files = [f for f in files if f.startswith(f"{kind}_region_")]
        assert len(kind_files) == 4
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["files"]) == 12
    for entry in manifest["files"]:
        assert (out_dir / entry["file"]).exists()
        assert entry["mode"] == "per-region"
        assert entry["logic"] in ("QF_NRA", "QF_NRA+transcendental")
        assert len(entry["regions"]) == 1
        text = (out_dir / entry["file"]).read_text()
        assert text.rstrip().endswith("(check-sat)")


def test_export_monolithic_and_condition_filter(tmp_path):
    problem = write_problem(tmp_path, diamond_net(), ["-x1", "-x2"],
                            INIT, UNSAFE)
    out_dir = tmp_path / "smt"
    code = main(["export-smt", "--problem", str(problem),
                 "--out-dir", str(out_dir), "--monolithic",
                 "--condition", "invariance"])
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["invariance.smt2", "manifest.json"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["files"]) == 1
    assert len(manifest["files"][0]["regions"]) == 4


def test_export_include_domain_box(tmp_path):
    problem = write_problem(tmp_path, diamond_net(), ["-x1", "-x2"],
                            INIT, UNSAFE)
    out_dir = tmp_path / "smt"
    main(["export-smt", "--problem", str(problem), "--out-dir", str(out_dir),
          "--condition", "invariance", "--include-domain-box"])
    text = (out_dir / "invariance_region_000.smt2").read_text()
    assert "(<= x1 3)" in text and "(>= x2 (- 3))" in text


@pytest.mark.parametrize("out_name", ["smt", "smt out"], ids=["smt", "space-in-path"])
def test_export_with_fake_solver_records_answers(tmp_path, out_name):
    """The fake solver answers unsat only when handed one existing file, so
    a query path split by the shell is recorded as unknown."""
    solver = tmp_path / "fakesolver"
    solver.write_text('#!/bin/sh\n[ "$#" -eq 1 ] && [ -f "$1" ] && echo unsat || echo unknown\n')
    solver.chmod(solver.stat().st_mode | stat.S_IEXEC)
    problem = write_problem(tmp_path, diamond_net(), ["-x1", "-x2"],
                            INIT, UNSAFE)
    out_dir = tmp_path / out_name
    code = main(["export-smt", "--problem", str(problem),
                 "--out-dir", str(out_dir), "--condition", "invariance",
                 "--solver-cmd", f"{solver} {{file}}"])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for entry in manifest["files"]:
        assert entry["solver"]["status"] == "unsat"


def test_export_missing_solver_degrades_gracefully(tmp_path, capsys):
    problem = write_problem(tmp_path, diamond_net(), ["-x1", "-x2"],
                            INIT, UNSAFE)
    out_dir = tmp_path / "smt"
    code = main(["export-smt", "--problem", str(problem),
                 "--out-dir", str(out_dir), "--condition", "invariance",
                 "--solver-cmd", "definitely-not-a-solver {file}"])
    assert code == 0  # files and manifest written regardless
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for entry in manifest["files"]:
        assert entry["solver"]["status"] == "unavailable"


# -- plot --------------------------------------------------------------------------

def test_plot_writes_svg(tmp_path):
    problem = write_problem(tmp_path, diamond_net(), ["-x1", "-x2"],
                            INIT, UNSAFE)
    out = tmp_path / "picture.svg"
    code = main(["plot", "--problem", str(problem), "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert svg.count('class="region"') == 4
    assert 'class="level-set"' in svg
    assert 'class="initial-contour"' in svg
    assert 'class="unsafe-contour"' in svg


def test_plot_marks_witnesses_from_report(tmp_path):
    problem = write_problem(tmp_path, diamond_net(), ["1", "0"], INIT, UNSAFE)
    report_path = tmp_path / "report.json"
    main(["verify", "--problem", str(problem), "--out", str(report_path)])
    witness_count = len(json.loads(report_path.read_text())["witnesses"])
    assert witness_count > 0
    out = tmp_path / "picture.svg"
    code = main(["plot", "--problem", str(problem), "--out", str(out),
                 "--report", str(report_path)])
    assert code == 0
    assert out.read_text().count('class="witness-marker"') == witness_count


def test_plot_rejects_higher_dimensions(tmp_path, capsys, monkeypatch):
    """The dimension is checked before any region is enumerated."""
    enumerated = []
    monkeypatch.setattr(cli, "enumerate_level_set",
                        lambda *args, **kwargs: enumerated.append(args))
    net = ReluNetwork([np.eye(4)], [np.zeros(4)], -np.ones(4), 1.0)
    problem = write_problem(tmp_path, net, ["-x1", "-x2", "-x3", "-x4"],
                            "0.04 - x1^2 - x2^2 - x3^2 - x4^2",
                            "1 - (x1-3)^2 - (x2-3)^2 - (x3-3)^2 - (x4-3)^2",
                            domain=((-3.0, 3.0),) * 4)
    code = main(["plot", "--problem", str(problem),
                 "--out", str(tmp_path / "p.svg")])
    assert code == 3
    assert "error:" in capsys.readouterr().err
    assert enumerated == []

"""Problem-file loading, report layout, exit codes and the determinism
serialization used to compare runs."""

import itertools
import json
import os

import numpy as np
import pytest

from relubarrier import (DEFAULT_CONFIG, ProblemFormatError,
                         VerifierConfig,
                         build_report, evaluate, exit_code, load_problem,
                         report_bytes_without_timings, verify_certificate,
                         write_report, EXIT_FALSIFIED, EXIT_FAILURE,
                         EXIT_UNKNOWN, EXIT_VERIFIED)
from relubarrier.conditions import _aggregate

from helpers import CUBIC2D, diamond_net, write_problem


INIT = "0.04 - x1^2 - x2^2"
UNSAFE = "1 - (x1 - 3)^2 - (x2 - 3)^2"


@pytest.fixture
def arch_problem(tmp_path):
    return write_problem(tmp_path, diamond_net(), CUBIC2D, INIT, UNSAFE)


# -- loading ---------------------------------------------------------------------

def test_load_problem_round_trip(arch_problem):
    lp = load_problem(arch_problem)
    assert lp.network.input_dim == 2
    assert lp.system.dim == 2
    assert lp.dynamics == list(CUBIC2D)
    x = np.array([0.3, -0.2])
    assert evaluate(lp.h_init, x) == pytest.approx(0.04 - 0.3**2 - 0.2**2)
    assert lp.config.seed == 0
    assert lp.config.tol_feas == 1e-7


def test_relative_network_path_resolved_against_problem_file(tmp_path):
    sub = tmp_path / "nested"
    path = write_problem(sub, diamond_net(), CUBIC2D, INIT, UNSAFE)
    cwd = os.getcwd()
    os.chdir(tmp_path)  # loading must not depend on the process cwd
    try:
        lp = load_problem(os.path.join("nested", os.path.basename(path)))
    finally:
        os.chdir(cwd)
    assert lp.network.input_dim == 2


def test_dynamics_arity_mismatch(tmp_path):
    path = write_problem(tmp_path, diamond_net(), ["-x1", "-x2", "-x1"],
                         INIT, UNSAFE)
    with pytest.raises(ProblemFormatError, match="3 dynamics components for an 2-input"):
        load_problem(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "network_path": "x.json",\n  "dynamics": [,]\n}\n')
    with pytest.raises(ProblemFormatError) as err:
        load_problem(path)
    assert ":3:" in str(err.value)


def test_missing_field_named(tmp_path):
    path = write_problem(tmp_path, diamond_net(), CUBIC2D, INIT, UNSAFE)
    data = json.loads(open(path).read())
    del data["unsafe_set"]
    open(path, "w").write(json.dumps(data))
    with pytest.raises(ProblemFormatError, match="missing required field") as err:
        load_problem(path)
    assert "unsafe_set" in str(err.value)


def test_domain_box_validation(tmp_path):
    path = write_problem(tmp_path, diamond_net(), CUBIC2D, INIT, UNSAFE)
    data = json.loads(open(path).read())
    data["domain_box"] = [[-3, 3], [2, -2]]
    open(path, "w").write(json.dumps(data))
    with pytest.raises(ProblemFormatError):
        load_problem(path)
    data["domain_box"] = [[-3, 3]]
    open(path, "w").write(json.dumps(data))
    with pytest.raises(ProblemFormatError, match="domain_box must hold 2"):
        load_problem(path)


def test_tolerances_and_budgets_merge(tmp_path):
    path = write_problem(tmp_path, diamond_net(), CUBIC2D, INIT, UNSAFE,
                         seed=7, tolerances={"tol_feas": 1e-6,
                                             "tol_margin": 1e-4},
                         budgets={"max_attempts": 17, "bab_max_boxes": 99})
    lp = load_problem(path)
    assert lp.config.tol_feas == 1e-6
    assert lp.config.tol_margin == 1e-4
    assert lp.config.max_attempts == 17
    assert lp.config.bab_max_boxes == 99
    assert lp.config.seed == 7
    # untouched settings keep their defaults
    assert lp.config.membership_samples == 100_000
    assert lp.config.max_regions is None


def test_overrides_beat_file_values(tmp_path):
    path = write_problem(tmp_path, diamond_net(), CUBIC2D, INIT, UNSAFE,
                         seed=7, tolerances={"tol_feas": 1e-6})
    lp = load_problem(path, overrides={"tol_feas": 1e-9, "seed": 123,
                                       "max_regions": 5, "tol_margin": None})
    assert lp.config.tol_feas == 1e-9
    assert lp.config.seed == 123
    assert lp.config.max_regions == 5
    # a None override means "not given" and must not clobber anything
    assert lp.config.tol_margin == 0.0


@pytest.mark.parametrize("key", ["tol_typo",
                                 # fixed numbers, no longer settable
                                 "tol_eq", "tol_zero", "falsify_gate", "branch_cap",
                                 "oracle_cap", "bisect_eps", "falsify_budget",
                                 "bab_min_width"])
def test_unknown_configuration_key_rejected(tmp_path, key):
    path = write_problem(tmp_path, diamond_net(), CUBIC2D, INIT, UNSAFE,
                         tolerances={key: 1.0})
    with pytest.raises(ValueError, match="unknown configuration key"):
        load_problem(path)


@pytest.mark.parametrize("key, value", [("tol_feas", 1e300), ("tol_margin", -1.0),
                                        ("threads", 2), ("max_attempts", 2.5),
                                        ("max_regions", 0), ("seed", -1),
                                        ("domain_box", [["x", 3], [-3, 3]]),
                                        ("domain_box", ((3.0, -3.0), (3.0, -3.0)))])
def test_config_built_in_code_is_validated(key, value):
    """Direct construction and `updated` check every value as a problem
    file's values are checked (a tol_feas of 1e300 once falsified a true
    barrier)."""
    with pytest.raises(ProblemFormatError, match=f"invalid value for {key}"):
        VerifierConfig(**{key: value})
    with pytest.raises(ProblemFormatError, match=f"invalid value for {key}"):
        DEFAULT_CONFIG.updated(**{key: value})


def test_config_domain_box_stored_as_float_pairs():
    cfg = DEFAULT_CONFIG.updated(domain_box=[[-1, 1], [0, 2]])
    assert cfg.domain_box == ((-1.0, 1.0), (0.0, 2.0))
    assert cfg.updated(seed=3).domain_box == cfg.domain_box


# -- reports ----------------------------------------------------------------------

def run_and_report(tmp_path, dynamics=("-x1", "-x2")):
    path = write_problem(tmp_path, diamond_net(), dynamics, INIT, UNSAFE)
    lp = load_problem(path)
    verdict = verify_certificate(lp.network, lp.system, lp.h_init,
                                 lp.h_unsafe, lp.config)
    return build_report(lp, verdict)


def test_report_layout(tmp_path):
    report = run_and_report(tmp_path)
    assert set(report) == {"tool", "problem", "configuration", "verdicts",
                           "failure", "enumeration", "regions", "membership",
                           "witnesses", "caveats", "timings"}
    assert report["tool"]["name"] == "relubarrier"
    assert report["verdicts"]["overall"] == "verified"
    assert report["failure"] is None
    assert report["enumeration"]["region_count"] == 4
    assert report["enumeration"]["connectivity_assumed"] is True
    assert len(report["regions"]) == 4
    row = report["regions"][0]
    assert set(row) >= {"index", "indicator", "w", "b", "slice_dimension",
                        "degenerate", "invariance", "initial", "unsafe"}
    assert row["slice_dimension"] == 1
    assert report["membership"]["initial"]["ok"] is True
    assert report["membership"]["unsafe"]["ok"] is True
    assert set(report["timings"]) == {"enumeration_s", "conditions_s", "total_s"}
    json.dumps(report)  # everything must be JSON-serializable


def test_report_rows_keep_the_record_field_order(tmp_path):
    """A region's condition rows and the membership rows list their record's
    fields in declaration order, the region verdict's indicator left out
    (the region row names it)."""
    report = run_and_report(tmp_path, dynamics=("1", "0"))
    for row in report["regions"]:
        for label in ("invariance", "initial", "unsafe"):
            assert list(row[label]) == ["status", "method", "bound", "witness", "witness_value",
                                        "vacuous", "domain_restricted", "note"]
    for label in ("initial", "unsafe"):
        assert list(report["membership"][label]) == ["point", "set_value", "h_value", "ok",
                                                     "samples"]


def test_report_region_rows_in_canonical_order(tmp_path):
    report = run_and_report(tmp_path)
    indicators = [row["indicator"] for row in report["regions"]]
    assert indicators == sorted(indicators)
    assert indicators == ["0101", "0110", "1001", "1010"]


def test_report_witnesses_on_falsified_run(tmp_path):
    report = run_and_report(tmp_path, dynamics=("1", "0"))
    assert report["verdicts"]["invariance"] == "falsified"
    assert report["witnesses"]
    for entry in report["witnesses"]:
        assert set(entry) >= {"condition", "region", "point", "value"}
        assert entry["condition"] == "invariance"
        assert entry["value"] < 0


def test_exit_code_mapping():
    """Every status triple exits by its overall verdict (`_aggregate`):
    falsified 1 over unknown 2 over verified 0; a failure exits 3."""
    def fake(triple, failure=None):
        inv, init, unsafe = triple
        return {"failure": failure,
                "verdicts": {"invariance": inv, "initial_condition": init,
                             "unsafe_condition": unsafe, "overall": _aggregate(triple)}}
    codes = {"verified": EXIT_VERIFIED, "falsified": EXIT_FALSIFIED, "unknown": EXIT_UNKNOWN}
    assert (EXIT_VERIFIED, EXIT_FALSIFIED, EXIT_UNKNOWN, EXIT_FAILURE) == (0, 1, 2, 3)
    for triple in itertools.product(codes, repeat=3):
        expected = 1 if "falsified" in triple else 2 if "unknown" in triple else 0
        assert exit_code(fake(triple)) == codes[_aggregate(triple)] == expected
    assert exit_code(fake(("verified",) * 3, failure={"kind": "search-exhausted"})) == 3


def test_write_report_and_determinism_serialization(tmp_path):
    report = run_and_report(tmp_path)
    out = tmp_path / "report.json"
    write_report(report, out)
    loaded = json.loads(out.read_text())
    assert loaded["verdicts"] == report["verdicts"]

    again = run_and_report(tmp_path)
    assert report_bytes_without_timings(report) == \
        report_bytes_without_timings(again)
    assert b"timings" not in report_bytes_without_timings(report)
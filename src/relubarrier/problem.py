"""Problem files, reports and their JSON forms.

A problem file bundles a network path, dynamics expression strings, the
initial/unsafe set functions, and optional domain/tolerance/budget/seed
overrides; `LoadedProblem` holds its texts and what they parse to.  Reports
serialize a CertificateVerdict into a stable JSON layout; everything except
the timings block is deterministic for a fixed problem and seed.  Its
region, membership and witness blocks follow `conditions.CONDITIONS`, and
its verdict and membership rows are the fields of the `RegionVerdict` and
`MembershipProbe` records, in declaration order (`_row`).
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .conditions import CONDITIONS, FALSIFIED, UNKNOWN, VERIFIED, CertificateVerdict
from .config import VerifierConfig
from .errors import ProblemFormatError
from .expressions import DynamicsSystem, Expr, parse_expression
from .network import ReluNetwork, load_network

EXIT_VERIFIED = 0
EXIT_FALSIFIED = 1
EXIT_UNKNOWN = 2
EXIT_FAILURE = 3


@dataclass
class LoadedProblem:
    """A parsed problem: the texts its report echoes, what they build, the settings."""

    path: str
    network_path: str
    dynamics: list[str]
    initial_set: str
    unsafe_set: str
    network: ReluNetwork
    system: DynamicsSystem
    h_init: Expr
    h_unsafe: Expr
    config: VerifierConfig


def _require(data: dict, key: str, path):
    if key not in data:
        raise ProblemFormatError(f"{path}: missing required field {key!r}")
    return data[key]


def load_problem(path, overrides: dict | None = None) -> LoadedProblem:
    """Parse and cross-validate a problem file.

    overrides (tolerance/budget/seed keys) take precedence over the file's
    own blocks; defaults fill the rest.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ProblemFormatError(f"{path}: problem file must hold a JSON object")

    network_path, dynamics, initial_set, unsafe_set = (_require(data, key, path) for key in (
        "network_path", "dynamics", "initial_set", "unsafe_set"))
    if not (isinstance(dynamics, list) and all(isinstance(t, str) for t in
                                               [network_path, initial_set, unsafe_set, *dynamics])):
        raise ProblemFormatError(f"{path}: network_path, each dynamics entry and "
                                 "each set function must be a string")
    tolerances, budgets = data.get("tolerances", {}), data.get("budgets", {})
    if not (isinstance(tolerances, dict) and isinstance(budgets, dict)):
        raise ProblemFormatError(f"{path}: tolerances and budgets must be JSON objects")

    # relative to the problem file; join keeps an absolute network_path as it is
    network = load_network(os.path.join(os.path.dirname(os.path.abspath(path)), network_path))
    n = network.input_dim

    if len(dynamics) != n:
        raise ProblemFormatError(f"{path}: {len(dynamics)} dynamics components for an "
                                 f"{n}-input network")
    system = DynamicsSystem.parse(dynamics, n)
    h_init = parse_expression(initial_set, n)
    h_unsafe = parse_expression(unsafe_set, n)

    extra: dict = {"seed": data.get("seed", 0), "domain_box": data.get("domain_box")}
    extra.update({k: v for k, v in (overrides or {}).items() if v is not None})
    cfg = VerifierConfig.from_dicts(tolerances, budgets, **extra)
    try:
        cfg.domain(n)   # the box's length, checked where the box is read
    except ProblemFormatError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc
    return LoadedProblem(str(path), network_path, dynamics, initial_set, unsafe_set,
                         network, system, h_init, h_unsafe, cfg)


# -- report building ------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _row(record) -> dict | None:
    """A region verdict or membership probe as its dataclass fields, in
    declaration order, but the indicator (its region row names it); None
    for None."""
    if record is None:
        return None
    return {name: _jsonable(getattr(record, name)) for name in _row_fields(type(record))}


@functools.cache
def _row_fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name != "indicator")


def _collect_witnesses(verdict: CertificateVerdict) -> list[dict]:
    out = []
    for label, result in verdict.results.items():
        for v in result.region_verdicts:
            if v.status == "falsified" and v.witness is not None:
                out.append({"condition": label,
                            "region": v.indicator.compact(),
                            "point": _jsonable(v.witness),
                            "value": _jsonable(v.witness_value)})
        if result.probe is not None and not result.probe.ok:
            out.append({"condition": label, "region": None,
                        "point": _jsonable(result.probe.point),
                        "value": _jsonable(result.probe.h_value)})
    return out


def build_report(problem: LoadedProblem, verdict: CertificateVerdict) -> dict:
    """The stable report layout; region rows in canonical indicator order."""
    n = problem.network.input_dim
    regions = verdict.enumeration.regions if verdict.enumeration else []

    def condition_of(name: str, idx: int):
        rows = getattr(verdict.results.get(name), "region_verdicts", [])
        return _row(rows[idx]) if idx < len(rows) else None

    region_rows = []
    for i, r in enumerate(regions):
        region_rows.append({
            "index": i,
            "indicator": r.indicator.compact(),
            "w": _jsonable(r.slice.w),
            "b": _jsonable(r.slice.b),
            "slice_dimension": n if r.degenerate else n - 1,
            "degenerate": r.degenerate,
            **{name: condition_of(name, i) for name in CONDITIONS},
        })

    timings = dict(verdict.timings)
    report = {
        "tool": {"name": "relubarrier", "version": __version__},
        "problem": {
            "path": problem.path,
            "network_path": problem.network_path,
            "dynamics": list(problem.dynamics),
            "initial_set": problem.initial_set,
            "unsafe_set": problem.unsafe_set,
        },
        "configuration": problem.config.as_dict(),
        "verdicts": {
            "invariance": verdict.status("invariance"),
            "initial_condition": verdict.status("initial"),
            "unsafe_condition": verdict.status("unsafe"),
            "overall": verdict.overall,
        },
        "failure": verdict.failure,
        "enumeration": None if verdict.enumeration is None else {
            "region_count": len(regions),
            "visited": verdict.enumeration.visited_count,
            "connectivity_assumed": verdict.enumeration.connectivity_assumed,
            "partial": verdict.enumeration.partial,
            "errors": list(verdict.enumeration.errors),
            "seed_indicator": verdict.enumeration.seed_indicator.compact(),
            "search": verdict.enumeration.search,
        },
        "regions": region_rows,
        "membership": {name: _row(getattr(verdict.results.get(name), "probe", None))
                       for name in CONDITIONS[1:]},   # the set conditions
        "witnesses": _collect_witnesses(verdict),
        "caveats": list(verdict.caveats),
        "timings": {
            "enumeration_s": round(timings.get("enumeration_s", 0.0), 2),
            "conditions_s": round(timings.get("conditions_s", 0.0), 2),
            "total_s": round(timings.get("total_s", 0.0), 2),
        },
    }
    return report


def exit_code(report: dict) -> int:
    """EXIT_FAILURE for a failure report, else the code of its overall verdict."""
    if report.get("failure"):
        return EXIT_FAILURE
    return {FALSIFIED: EXIT_FALSIFIED, UNKNOWN: EXIT_UNKNOWN,
            VERIFIED: EXIT_VERIFIED}[report["verdicts"]["overall"]]


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def report_bytes_without_timings(report: dict) -> bytes:
    """The report without its timings block, as compact JSON (determinism checks)."""
    stripped = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(stripped).encode()

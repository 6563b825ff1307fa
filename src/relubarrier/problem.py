"""Problem files, reports and their JSON forms.

A problem file bundles a network path, dynamics expression strings, the
initial/unsafe set functions, and optional domain/tolerance/budget/seed
overrides.  Reports serialize a CertificateVerdict into a stable JSON
layout; everything except the timings block is deterministic for a fixed
problem and seed.  Its verdict and membership rows are the fields of the
`RegionVerdict` and `MembershipProbe` records, in declaration order (`_row`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .conditions import FALSIFIED, UNKNOWN, VERIFIED, CertificateVerdict, ConditionResult
from .config import VerifierConfig
from .errors import (DimensionMismatch, MissingField, ProblemFormatError,
                     RelubarrierError)
from .expressions import DynamicsSystem, Expr, parse_expression
from .network import ReluNetwork, load_network

EXIT_VERIFIED = 0
EXIT_FALSIFIED = 1
EXIT_UNKNOWN = 2
EXIT_FAILURE = 3


@dataclass
class ProblemSpec:
    """The problem texts a report echoes; the settings are `LoadedProblem.config`."""

    network_path: str
    dynamics: list[str]
    initial_set: str
    unsafe_set: str
    path: str | None = None


@dataclass
class LoadedProblem:
    spec: ProblemSpec
    network: ReluNetwork
    system: DynamicsSystem
    h_init: Expr
    h_unsafe: Expr
    config: VerifierConfig


def _require(data: dict, key: str, path):
    if key not in data:
        raise MissingField(f"{path}: missing required field {key!r}")
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

    spec = ProblemSpec(
        network_path=_require(data, "network_path", path),
        dynamics=_require(data, "dynamics", path),
        initial_set=_require(data, "initial_set", path),
        unsafe_set=_require(data, "unsafe_set", path),
        path=str(path),
    )
    texts = [spec.network_path, spec.initial_set, spec.unsafe_set]
    if not (isinstance(spec.dynamics, list) and all(isinstance(t, str)
                                                    for t in texts + spec.dynamics)):
        raise ProblemFormatError(f"{path}: network_path, each dynamics entry and "
                                 "each set function must be a string")
    tolerances, budgets = data.get("tolerances", {}), data.get("budgets", {})
    if not (isinstance(tolerances, dict) and isinstance(budgets, dict)):
        raise ProblemFormatError(f"{path}: tolerances and budgets must be JSON objects")

    net_path = spec.network_path
    if not os.path.isabs(net_path):
        net_path = os.path.join(os.path.dirname(os.path.abspath(path)), net_path)
    network = load_network(net_path)
    n = network.input_dim

    if len(spec.dynamics) != n:
        raise DimensionMismatch(
            f"{path}: {len(spec.dynamics)} dynamics components for an "
            f"{n}-input network")
    system = DynamicsSystem.parse(spec.dynamics, n)
    h_init = parse_expression(spec.initial_set, n)
    h_unsafe = parse_expression(spec.unsafe_set, n)

    extra: dict = {"seed": data.get("seed", 0), "domain_box": data.get("domain_box")}
    extra.update({k: v for k, v in (overrides or {}).items() if v is not None})
    cfg = VerifierConfig.from_dicts(tolerances, budgets, **extra)
    if cfg.domain_box is not None and len(cfg.domain_box) != n:
        raise DimensionMismatch(f"{path}: domain_box must hold {n} [lo,hi] pairs")
    return LoadedProblem(spec=spec, network=network, system=system,
                         h_init=h_init, h_unsafe=h_unsafe, config=cfg)


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
    return {f.name: _jsonable(getattr(record, f.name))
            for f in fields(record) if f.name != "indicator"}


def _collect_witnesses(verdict: CertificateVerdict) -> list[dict]:
    out = []
    pairs = [("invariance", verdict.invariance_result),
             ("initial", verdict.initial_result),
             ("unsafe", verdict.unsafe_result)]
    for label, result in pairs:
        if result is None:
            continue
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

    def condition_of(result: ConditionResult | None, idx: int):
        if result is None or idx >= len(result.region_verdicts):
            return None
        return _row(result.region_verdicts[idx])

    region_rows = []
    for i, r in enumerate(regions):
        region_rows.append({
            "index": i,
            "indicator": r.indicator.compact(),
            "w": _jsonable(r.slice.w),
            "b": _jsonable(r.slice.b),
            "slice_dimension": n if r.degenerate else n - 1,
            "degenerate": r.degenerate,
            "invariance": condition_of(verdict.invariance_result, i),
            "initial": condition_of(verdict.initial_result, i),
            "unsafe": condition_of(verdict.unsafe_result, i),
        })

    timings = dict(verdict.timings)
    report = {
        "tool": {"name": "relubarrier", "version": __version__},
        "problem": {
            "path": problem.spec.path,
            "network_path": problem.spec.network_path,
            "dynamics": list(problem.spec.dynamics),
            "initial_set": problem.spec.initial_set,
            "unsafe_set": problem.spec.unsafe_set,
        },
        "configuration": problem.config.as_dict(),
        "verdicts": {
            "invariance": verdict.invariance,
            "initial_condition": verdict.initial_condition,
            "unsafe_condition": verdict.unsafe_condition,
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
        "membership": {
            "initial": _row(getattr(verdict.initial_result, "probe", None)),
            "unsafe": _row(getattr(verdict.unsafe_result, "probe", None)),
        },
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

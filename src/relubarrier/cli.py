"""Command-line entry points: verify, export-smt, plot.

Option precedence is command line > RELUBARRIER_* environment variables >
problem file > built-in defaults.  Exit codes: 0 all conditions verified,
1 some condition falsified, 2 some condition undecided, 3 structured
failure (bad input, no level set, search exhausted).
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import time

from .conditions import CONDITIONS, verify_certificate
from .errors import RelubarrierError
from .problem import (EXIT_FAILURE, build_report, exit_code, load_problem,
                      write_report)
from .regions import enumerate_level_set
from .smtlib import export_invariance, export_set_condition

_ENV_PREFIX = "RELUBARRIER_"
_ENV_KEYS = {
    "TOL_FEAS": ("tol_feas", float),
    "TOL_MARGIN": ("tol_margin", float),
    "SEED": ("seed", int),
    "MAX_REGIONS": ("max_regions", int),
}


def _env_overrides() -> dict:
    out = {}
    for suffix, (key, cast) in _ENV_KEYS.items():
        raw = os.environ.get(_ENV_PREFIX + suffix)
        if raw is None:
            continue
        try:
            out[key] = cast(raw)
        except ValueError:
            raise RelubarrierError(
                f"environment variable {_ENV_PREFIX}{suffix} is not a valid "
                f"{cast.__name__}: {raw!r}")
    return out


def _merge_overrides(args: argparse.Namespace) -> dict:
    merged = _env_overrides()
    for key, _cast in _ENV_KEYS.values():
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _plain_verdict_line(report: dict) -> str:
    v = report["verdicts"]
    return (f"invariance={v['invariance']} initial={v['initial_condition']} "
            f"unsafe={v['unsafe_condition']} overall={v['overall']}")


def run_verify(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem, overrides=_merge_overrides(args))
    verdict = verify_certificate(problem.network, problem.system,
                                 problem.h_init, problem.h_unsafe,
                                 problem.config)
    report = build_report(problem, verdict)
    write_report(report, args.out)
    enumeration = report["enumeration"]
    count = enumeration["region_count"] if enumeration else 0
    print(f"regions: {count}")
    print(_plain_verdict_line(report))
    if report.get("failure"):
        print(f"failure: {report['failure']['kind']}", file=sys.stderr)
    for caveat in report["caveats"]:
        print(f"caveat: {caveat}")
    print(f"report written to {args.out}")
    return exit_code(report)


def _invoke_solver(template: str, path: str, timeout_s: float) -> dict:
    """Best-effort bridge to an external SMT solver binary; the query path
    is quoted for the shell."""
    cmd = template.replace("{file}", shlex.quote(str(path)))
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, shell=True, capture_output=True, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "seconds": round(timeout_s, 2)}
    except FileNotFoundError:
        return {"status": "unavailable"}
    elapsed = time.perf_counter() - started
    if proc.returncode == 127:  # shell could not find the binary
        return {"status": "unavailable"}
    lines = [ln.strip() for ln in proc.stdout.splitlines() if ln.strip()]
    answer = "unknown"
    for ln in reversed(lines):
        low = ln.lower()
        if low in ("sat", "unsat", "unknown") or low.startswith("delta-sat"):
            answer = low
            break
    if proc.returncode != 0 and answer == "unknown":
        return {"status": "error", "returncode": proc.returncode,
                "seconds": round(elapsed, 2)}
    return {"status": answer, "seconds": round(elapsed, 2)}


def run_export_smt(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem, overrides=_merge_overrides(args))
    cfg = problem.config
    net = problem.network
    regions = enumerate_level_set(net, cfg).regions

    mode = "monolithic" if args.monolithic else "per-region"
    domain_box = cfg.domain(net.input_dim) if args.include_domain_box else None
    queries = []
    for name, target in zip(CONDITIONS, (problem.system, problem.h_init, problem.h_unsafe)):
        if args.condition in (name, "all"):
            queries += (export_invariance(regions, target, cfg, mode=mode, domain_box=domain_box)
                        if name == "invariance" else export_set_condition(
                            regions, target, name, net.input_dim, cfg, mode=mode, domain_box=domain_box))

    os.makedirs(args.out_dir, exist_ok=True)
    manifest = {
        "problem": str(args.problem),
        "mode": mode,
        "region_count": len(regions),
        "files": [],
    }
    for query in queries:
        path = os.path.join(args.out_dir, query.filename)
        with open(path, "w") as fh:
            fh.write(query.text)
        entry = {
            "file": query.filename,
            "mode": query.mode,
            "logic": query.logic_tag,
            "regions": [{"index": i, "indicator": regions[i].indicator.compact()}
                        for i in query.region_ids],
        }
        if args.solver_cmd:
            entry["solver"] = _invoke_solver(args.solver_cmd, path,
                                             timeout_s=args.solver_timeout)
        manifest["files"].append(entry)

    manifest_path = os.path.join(args.out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(queries)} quer{'y' if len(queries) == 1 else 'ies'} "
          f"and manifest.json to {args.out_dir}")
    if args.solver_cmd:
        tally: dict[str, int] = {}
        for entry in manifest["files"]:
            status = entry.get("solver", {}).get("status", "skipped")
            tally[status] = tally.get(status, 0) + 1
        print("solver results: " +
              ", ".join(f"{k}={v}" for k, v in sorted(tally.items())))
    return 0


def run_plot(args: argparse.Namespace) -> int:
    from .svgplot import check_plane, render_plot

    problem = load_problem(args.problem, overrides=_merge_overrides(args))
    net = problem.network
    check_plane(net)   # before enumerating regions that could not be drawn

    witnesses = []
    if args.report:
        with open(args.report) as fh:
            report = json.load(fh)
        witnesses = report.get("witnesses", [])

    regions = enumerate_level_set(net, problem.config).regions
    svg = render_plot(net, regions, problem.h_init, problem.h_unsafe, witnesses,
                      domain=problem.config.domain(net.input_dim))
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"plot written to {args.out}")
    return 0


def _add_common_overrides(parser: argparse.ArgumentParser) -> None:
    """One flag per RELUBARRIER_* variable, taking precedence over it."""
    for suffix, (key, cast) in _ENV_KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=cast, default=None,
                            help=f"configuration {key}; overrides {_ENV_PREFIX}{suffix}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relubarrier",
        description="verify piecewise-linear barrier certificates given by "
                    "small feedforward networks with rectifier activations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification "
                              "pipeline and write a JSON report")
    p_verify.add_argument("--problem", required=True, help="problem JSON file")
    p_verify.add_argument("--out", required=True, help="report JSON path")
    _add_common_overrides(p_verify)
    p_verify.set_defaults(func=run_verify)

    p_export = sub.add_parser("export-smt", help="enumerate regions and "
                              "write SMT-LIB queries plus a manifest")
    p_export.add_argument("--problem", required=True)
    p_export.add_argument("--out-dir", required=True)
    p_export.add_argument("--monolithic", action="store_true",
                          help="one disjunctive query per condition instead "
                               "of one file per region")
    p_export.add_argument("--condition", default="all",
                          choices=(*CONDITIONS, "all"))
    p_export.add_argument("--include-domain-box", action="store_true",
                          help="conjoin the analysis box onto every query")
    p_export.add_argument("--solver-cmd", default=None,
                          help="shell template run per query; '{file}' is "
                               "replaced with the query path")
    p_export.add_argument("--solver-timeout", type=float, default=60.0,
                          help="seconds allowed per solver call")
    _add_common_overrides(p_export)
    p_export.set_defaults(func=run_export_smt)

    p_plot = sub.add_parser("plot", help="render a 2-D SVG picture of the "
                            "regions, level set, and witnesses")
    p_plot.add_argument("--problem", required=True)
    p_plot.add_argument("--report", default=None,
                        help="verify report JSON; its witnesses are drawn")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    _add_common_overrides(p_plot)
    p_plot.set_defaults(func=run_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RelubarrierError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except Exception as exc:   # a traceback would exit 1, the code for falsified
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())

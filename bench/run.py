"""Verification benchmark for relubarrier.

Usage (from the repository root):

    python3 bench/run.py --workload enum-affine --seed 1 --seconds 25 --trace 0

One operation takes one generated problem file through the path that
`relubarrier verify` takes: `load_problem`, `verify_certificate`,
`build_report` and `report_bytes_without_timings`, then SMT-LIB export of
invariance and both set conditions for every enumerated region.  The loop
is closed: one process, one client, `threads=1`; the next problem starts
when the previous one ends.  Passes over the workload repeat until
`--seconds` have gone by (at least two passes).

Every report is checked, outside the timed region, by the independent
checker in `checker.py`.  Reports must also repeat byte for byte (timings
aside) in every later pass, traced or not.

Times are in reference seconds (see `refclock.py`): wall time scaled to a
fixed machine speed measured right before and after each operation, because
the host drifts by up to 1.8x.  Raw wall medians are printed beside them.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics of `tracing.py`, plus
`trace.overhead_s`, and writes the spans to `bench/out/`.  The last line of
standard output is one JSON object; the exit code is 0 only when every
operation succeeded and every check held.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one thread for every BLAS / OpenMP pool, set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy  # noqa: E402

import checker  # noqa: E402
import problems as problems_mod  # noqa: E402
from refclock import machine_speed, reference_seconds  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s", "suite_s": "s", "region_decisions_per_s": "1/s",
    "slowest_op_s": "s", "decided_share": "share", "covered_share": "share",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import the package from this checkout's src/, or exit with an error."""
    sys.path.insert(0, SRC)
    try:
        import relubarrier
    except ImportError as exc:
        sys.exit(f"bench: cannot import relubarrier from {SRC}: {exc}")
    if not os.path.abspath(relubarrier.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: relubarrier resolved to {relubarrier.__file__}, not {SRC}")
    return relubarrier


def operation(rb, path):
    """One problem file through the verify path; returns (report, stable bytes)."""
    problem = rb.load_problem(path)
    verdict = rb.verify_certificate(problem.network, problem.system, problem.h_init,
                                    problem.h_unsafe, problem.config)
    report = rb.build_report(problem, verdict)
    stable = rb.report_bytes_without_timings(report)
    regions = verdict.enumeration.regions if verdict.enumeration else []
    if regions:
        n = problem.network.input_dim
        rb.export_invariance(regions, problem.system, problem.config)
        rb.export_set_condition(regions, problem.h_init, "initial", n, problem.config)
        rb.export_set_condition(regions, problem.h_unsafe, "unsafe", n, problem.config)
    return report, stable


def decisions(report):
    """(region x condition verdicts, of which unknown, by method)."""
    total = unknown = 0
    methods = {"lp": 0, "search": 0, "interval": 0}
    for row in report["regions"]:
        for label in ("invariance", "initial", "unsafe"):
            verdict = row[label]
            if verdict is None:
                continue
            total += 1
            unknown += verdict["status"] == "unknown"
            methods[verdict["method"]] = methods.get(verdict["method"], 0) + 1
    return total, unknown, methods


def setup(workload, seed, run_dir):
    """Median of SETUP_REPEATS set-ups, in reference seconds: a fresh
    interpreter importing the package, plus generating and writing the
    problem files."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times, problems = [], None
    for i in range(SETUP_REPEATS):
        before = machine_speed()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import relubarrier"], env=env,
                       cwd=ROOT, check=True)
        problems = problems_mod.build_workload(workload, seed)
        problems_mod.write_workload(problems, os.path.join(run_dir, f"setup{i}"))
        times.append(reference_seconds(time.perf_counter() - t0, before, machine_speed()))
    return statistics.median(times), problems


def warm_up(rb, run_dir):
    """One untimed operation on a tiny problem, so lazy imports and
    first-call costs are paid before the first timed pass."""
    tiny = problems_mod.warm_up_problem()
    problems_mod.write_workload([tiny], os.path.join(run_dir, "warm-up"))
    operation(rb, tiny.path)


class Run:
    """Timed passes over one workload, with the checks after each operation."""

    def __init__(self, rb, problems, tracer=None):
        self.rb, self.problems = rb, problems
        self.tracer = tracer
        self.times = {p.name: [] for p in problems}      # reference seconds
        self.wall = {p.name: [] for p in problems}
        self.pass_seconds = {False: [], True: []}      # traced? -> suite time per pass
        self.stable = {}
        self.reports = {}
        self.checks = {}
        self.attempted = self.failed = 0
        self.errors = []
        self.layer_samples = []                        # per traced pass: metric -> value

    def one_pass(self, traced):
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.reset()
            tracer.install()
        suite = 0.0
        speed = machine_speed()
        try:
            for p in self.problems:
                if tracer is not None:
                    tracer.problem = p.name
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    report, stable = operation(self.rb, p.path)
                except Exception as exc:  # an unexpected raise fails the operation
                    self.failed += 1
                    self.errors.append(f"{p.name}: raised {type(exc).__name__}: {exc}")
                    continue
                finally:
                    wall = time.perf_counter() - t0
                    before, speed = speed, machine_speed()
                scaled = reference_seconds(wall, before, speed)
                suite += scaled
                self.times[p.name].append(scaled)
                self.wall[p.name].append(wall)
                if not self.check(p, report, stable):
                    self.failed += 1
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.pass_seconds[traced].append(suite)
        if tracer is not None:
            self.layer_samples.append({name: fn(tracer) for name, (_, fn)
                                       in LAYER_METRICS.items()})

    def check(self, p, report, stable):
        """Independent check on first sight, byte identity afterwards."""
        if p.name not in self.stable:
            self.stable[p.name] = stable
            self.reports[p.name] = report
            result = checker.check_report(p, report)
            self.checks[p.name] = result
            self.errors.extend(result.problems)
            return result.ok
        if stable != self.stable[p.name]:
            self.errors.append(f"{p.name}: report differs from the first pass")
            return False
        return self.checks[p.name].ok

    # -- metrics -------------------------------------------------------------------

    def end_to_end(self, setup_s):
        medians = {name: statistics.median(ts) for name, ts in self.times.items() if ts}
        suite = sum(medians.values())
        total = unknown = 0
        for report in self.reports.values():
            t, u, _ = decisions(report)
            total += t
            unknown += u
        probes = sum(c.probes for c in self.checks.values())
        uncovered = sum(c.uncovered for c in self.checks.values())
        return {
            "setup_s": setup_s,
            "suite_s": suite,
            "region_decisions_per_s": total / suite if suite else 0.0,
            "slowest_op_s": max(medians.values()) if medians else 0.0,
            "decided_share": 1.0 - (unknown / total if total else 0.0),
            "covered_share": 1.0 - (uncovered / probes if probes else 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, {
            "failed_share": self.failed / self.attempted if self.attempted else 0.0,
            "wrong_verdicts": sum(c.wrong_verdicts for c in self.checks.values()),
            "bad_witnesses": sum(c.bad_witnesses for c in self.checks.values()),
            "unknown_share": unknown / total if total else 0.0,
            "uncovered_share": uncovered / probes if probes else 0.0,
            "region_decisions": total,
            "level_set_probes": probes,
        }

    def per_layer(self):
        samples = self.layer_samples
        out = {}
        for name, (unit, _) in LAYER_METRICS.items():
            values = [s[name] for s in samples]
            out[name] = (statistics.median(values) if unit in ("s", "ms") else values[-1], unit)
        routes = {"lp": 0, "search": 0, "interval": 0}
        for report in self.reports.values():
            for method, count in decisions(report)[2].items():
                routes[method] = routes.get(method, 0) + count
        for method in ("lp", "search", "interval"):
            out[f"conditions.route.{method}"] = (routes[method], "count")
        overhead = (statistics.median(self.pass_seconds[True])
                    - statistics.median(self.pass_seconds[False]))
        out["trace.overhead_s"] = (overhead, "s")
        return out

    def counts_repeat(self):
        """Counts of every traced pass equal those of the first one."""
        counted = [n for n, (unit, _) in LAYER_METRICS.items() if unit not in ("s", "ms")]
        return all(s[n] == self.layer_samples[0][n] for s in self.layer_samples for n in counted)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=problems_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rb = import_package()

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} platform={platform.platform()} "
          f"threads: {' '.join(f'{v}=1' for v in THREAD_VARS)}")
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s, problems = setup(args.workload, args.seed, run_dir)
        first_op_s = time.perf_counter() - _START
        warm_up(rb, run_dir)
        tracer = None
        if args.trace:
            tracer = Tracer()
        run = Run(rb, problems, tracer)
        begin = time.perf_counter()
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() - begin < args.seconds:
            run.one_pass(traced=bool(args.trace) and passes % 2 == 1)
            passes += 1
        measured_s = time.perf_counter() - begin
        if tracer is not None:
            os.makedirs(OUT, exist_ok=True)
            tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(problems)} problems, "
          f"{passes} passes in {measured_s:.1f} s, closed loop, 1 client, threads=1; "
          f"process start to first operation {first_op_s:.3f} s")
    for p in problems:
        ts, walls = run.times[p.name], run.wall[p.name]
        report = run.reports.get(p.name, {})
        check = run.checks.get(p.name, checker.CheckResult())
        failure = (report.get("failure") or {}).get("kind")
        print(f"  {p.name:24s} median {statistics.median(ts) if ts else float('nan'):8.4f} "
              f"reference s ({statistics.median(walls) if walls else float('nan'):.4f} wall s) "
              f"over {len(ts)} samples  regions {len(report.get('regions', []))}  "
              f"probes {check.probes - check.uncovered}/{check.probes} covered  "
              f"{report.get('verdicts', {}).get('overall', '-')}"
              f"{' (' + failure + ')' if failure else ''}")
    for line in run.errors:
        print(f"  FAIL {line}")

    if args.trace:
        for prefix in tracer.missing:
            print(f"  note: trace target {prefix} not found; its metrics read 0")
        layer = run.per_layer()
        if not run.counts_repeat():
            run.failed += 1
            print("  FAIL per-layer counts differ between traced passes")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        e2e, extra = run.end_to_end(setup_s)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
        print(f"  suite_s and slowest_op_s are sums / maxima of per-problem medians "
              f"over {passes} samples each")
        for name, value in extra.items():
            print(f"  {name} = {value}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    correct = run.failed == 0 and all(c.ok for c in run.checks.values())
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

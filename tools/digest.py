"""One SHA-256 over everything the benchmark's problems make the verifier write.

Usage (from the repository root):

    python3 tools/digest.py SRC_DIR

SRC_DIR is the `src/` directory of the checkout under test; the problems
come from this checkout's `bench/problems.py`, which is only read.  For the
60 bench problems (3 workloads x seeds 1, 3, 7, 11) the digest covers
`report_bytes_without_timings` of each report, each enumerated region's
indicator, frame (vertices, rays, tight masks), slice rows and facet
neurons, and the text of every SMT query of all three conditions, per
region and monolithic, with and without the domain box.  Two trees that
print the same digest wrote the same bytes and enumerated the same frames,
to the last bit of every vertex, even where a report or query never shows it.
"""

import argparse
import hashlib
import importlib.util
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 3, 7, 11)


def load_problems_module():
    path = os.path.join(ROOT, "bench", "problems.py")
    spec = importlib.util.spec_from_file_location("bench_problems", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def digest(rb, problems_mod, work_dir) -> str:
    sha = hashlib.sha256()
    for workload in problems_mod.WORKLOADS:
        for seed in SEEDS:
            problems = problems_mod.build_workload(workload, seed)
            problems_mod.write_workload(problems, os.path.join(work_dir, f"{workload}-{seed}"))
            for p in problems:
                problem = rb.load_problem(p.path)
                verdict = rb.verify_certificate(problem.network, problem.system, problem.h_init,
                                                problem.h_unsafe, problem.config)
                report = rb.build_report(problem, verdict)
                # the report names its problem file: hash the name within work_dir
                report["problem"]["path"] = os.path.relpath(p.path, work_dir)
                sha.update(rb.report_bytes_without_timings(report))
                regions = verdict.enumeration.regions if verdict.enumeration else []
                if not regions:
                    continue
                for r in regions:
                    sha.update(f"{r.indicator.compact()} {r.neurons}".encode())
                    for a in (r.vertices, r.rays, r.tight, r.slice.A, r.slice.d, r.slice.w,
                              np.array([r.slice.b])):
                        sha.update(f"{a.dtype}{a.shape}".encode() + np.ascontiguousarray(a).tobytes())
                n, cfg = problem.network.input_dim, problem.config
                for box in (None, cfg.domain(n)):
                    for mode in ("per-region", "monolithic"):
                        queries = (rb.export_invariance(regions, problem.system, cfg, mode, box)
                                   + rb.export_set_condition(regions, problem.h_init, "initial",
                                                             n, cfg, mode, box)
                                   + rb.export_set_condition(regions, problem.h_unsafe, "unsafe",
                                                             n, cfg, mode, box))
                        for q in queries:
                            sha.update(q.text.encode())
    return sha.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src/ directory whose relubarrier is imported")
    src = os.path.abspath(parser.parse_args().src)
    sys.path.insert(0, src)
    import relubarrier as rb
    if not os.path.abspath(rb.__file__).startswith(src + os.sep):
        sys.exit(f"digest: relubarrier resolved to {rb.__file__}, not under {src}")
    with tempfile.TemporaryDirectory() as work_dir:
        print(digest(rb, load_problems_module(), work_dir))


if __name__ == "__main__":
    main()

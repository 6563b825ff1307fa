"""Span tracing by rebinding the package's public functions.

`Tracer.install()` replaces each traced function by a wrapper in every
`relubarrier` module that holds a reference to it (methods on their class),
and `Tracer.uninstall()` puts the originals back.  Nothing is installed
unless a traced pass asks for it, so untraced passes run the program as is.

Two kinds of wrapper:

* span: records (id, name, start, end, parent, problem, outcome, leaf_s)
  in memory; `leaf_s` is the time spent in leaf calls directly under it, so
  self time = duration - child span durations - leaf_s;
* leaf: hot, small functions (LP solves, expression and network
  evaluations) are counted and timed into the enclosing span instead of
  getting a span each, which keeps the trace small.

Counts are also attributed to the enclosing phase (seed search,
enumeration, and the three condition checks) and to the enclosing search
or branch-and-bound box.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

# (module, attribute, metric prefix, kind, phase); "Class.method" attributes
# are rebound on the class.  `_falsify` is private but is the only boundary
# of the falsification search; it is optional so that a refactor that
# removes it only loses the search metrics.
TARGETS = (
    ("relubarrier.problem", "load_problem", "problem.load_problem", "span", None),
    ("relubarrier.problem", "build_report", "problem.build_report", "span", None),
    ("relubarrier.conditions", "verify_certificate", "conditions.verify_certificate",
     "span", None),
    ("relubarrier.regions", "find_initial_region", "regions.find_initial_region",
     "span", "seed"),
    ("relubarrier.regions", "boundary_propagation", "regions.boundary_propagation",
     "span", "enumeration"),
    ("relubarrier.regions", "valid_test", "regions.valid_test", "span", None),
    ("relubarrier.regions", "build_valid_region", "regions.build_valid_region", "span", None),
    ("relubarrier.geometry", "remove_redundant", "geometry.remove_redundant", "span", None),
    ("relubarrier.geometry", "implicit_equalities", "geometry.implicit_equalities",
     "span", None),
    ("relubarrier.geometry", "bounding_box", "geometry.bounding_box", "span", None),
    ("relubarrier.conditions", "check_invariance", "conditions.check_invariance",
     "span", "invariance"),
    ("relubarrier.conditions", "check_initial_condition",
     "conditions.check_initial_condition", "span", "initial"),
    ("relubarrier.conditions", "check_unsafe_condition",
     "conditions.check_unsafe_condition", "span", "unsafe"),
    ("relubarrier.conditions", "_falsify", "conditions.search", "span", None),
    ("relubarrier.smtlib", "export_invariance", "smtlib.export_invariance", "span", None),
    ("relubarrier.smtlib", "export_set_condition", "smtlib.export_set_condition",
     "span", None),
    ("relubarrier.linprog", "lp_solve", "linprog.lp_solve", "leaf", None),
    ("relubarrier.expressions", "evaluate", "expressions.evaluate", "leaf", None),
    ("relubarrier.expressions", "interval_evaluate", "expressions.interval_evaluate",
     "leaf", None),
    ("relubarrier.network", "ReluNetwork.forward", "network.forward", "leaf", None),
    ("relubarrier.network", "ReluNetwork.feasible_indicators",
     "network.feasible_indicators", "leaf", None),
)
OPTIONAL = {"conditions.search"}
PHASES = ("seed", "enumeration", "invariance", "initial", "unsafe")


class _Frame:
    __slots__ = ("id", "name", "phase", "in_bab", "in_search", "start", "child", "leaf")

    def __init__(self, id_, name, parent, phase):
        self.id = id_
        self.name = name
        self.phase = phase or (parent.phase if parent else "other")
        self.in_bab = name == "geometry.bounding_box" or bool(parent and parent.in_bab)
        self.in_search = name == "conditions.search" or bool(parent and parent.in_search)
        self.child = 0.0
        self.leaf = 0.0
        self.start = time.perf_counter()


class Tracer:
    def __init__(self):
        self.problem = None
        self.reset()
        self._bindings = []     # (owner, attribute, original)
        self.missing = []       # optional targets absent from the package

    def reset(self):
        """Drop recorded spans and totals (bindings stay as they are)."""
        self.spans = []
        self.counts = Counter()
        self.seconds = Counter()       # inclusive, outermost call of each name
        self.self_seconds = Counter()
        self._stack = []
        self._next_id = 0

    # -- installation ------------------------------------------------------------

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "relubarrier" or name.startswith("relubarrier."))]
        for module_name, attr, prefix, kind, phase in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, method, None) if module is not None else None
            if original is None:
                if prefix not in OPTIONAL:
                    self.uninstall()
                    raise RuntimeError(f"trace target {module_name}.{attr} not found")
                self.missing.append(prefix)
                continue
            wrapper = (self._leaf if kind == "leaf" else self._span)(original, prefix, phase)
            owners = [owner] if owner_name else [
                m for m in modules if any(v is original for v in vars(m).values())]
            for o in owners:
                for name, value in list(vars(o).items()):
                    if value is original:
                        self._bindings.append((o, name, original))
                        setattr(o, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._bindings):
            setattr(owner, name, original)
        self._bindings = []

    # -- wrappers -----------------------------------------------------------------

    def _leaf(self, fn, prefix, _phase):
        tracer = self
        is_lp = prefix == "linprog.lp_solve"

        def leaf(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                counts, stack = tracer.counts, tracer._stack
                counts[prefix + ".calls"] += 1
                tracer.seconds[prefix] += dt
                frame = stack[-1] if stack else None
                if frame is not None:
                    frame.leaf += dt
                if is_lp:
                    counts[f"linprog.lp_solve.calls.{frame.phase if frame else 'other'}"] += 1
                    if frame is not None and frame.in_bab:
                        counts["conditions.bab.lp_calls"] += 1
                    if frame is not None and frame.in_search:
                        counts["conditions.search.lp_calls"] += 1
            if is_lp and result.status == "infeasible":
                tracer.counts["linprog.lp_solve.infeasible"] += 1
            return result

        leaf.__wrapped__ = fn
        return leaf

    def _span(self, fn, prefix, phase):
        tracer = self
        signature = inspect.signature(fn)

        def span(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = _Frame(tracer._next_id, prefix, parent, phase)
            stack.append(frame)
            outcome = None
            try:
                result = fn(*args, **kwargs)
                outcome = tracer._outcome(prefix, result, None, signature, args, kwargs)
                return result
            except Exception as exc:
                outcome = tracer._outcome(prefix, None, exc, signature, args, kwargs)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame.start
                tracer.counts[prefix + ".calls"] += 1
                tracer.self_seconds[prefix] += duration - frame.child - frame.leaf
                if not any(f.name == prefix for f in stack):
                    tracer.seconds[prefix] += duration
                if parent is not None:
                    parent.child += duration
                tracer.spans.append((frame.id, prefix, frame.start, end,
                                     parent.id if parent else None, tracer.problem,
                                     outcome, frame.leaf))

        span.__wrapped__ = fn
        return span

    def _outcome(self, prefix, result, exc, signature, args, kwargs):
        """Record outcome counts of one span; returns a short outcome label."""
        counts = self.counts
        if exc is not None:
            if prefix == "regions.find_initial_region":
                cfg = signature.bind(*args, **kwargs).arguments.get("cfg")
                counts["regions.find_initial_region.attempts"] += getattr(cfg, "max_attempts", 0)
            return type(exc).__name__
        if prefix == "regions.valid_test":
            counts["regions.valid_test.valid"] += int(bool(result))
            return bool(result)
        if prefix == "regions.find_initial_region":
            counts["regions.find_initial_region.attempts"] += int(result[1]["attempts"])
        elif prefix == "regions.boundary_propagation":
            counts["regions.regions_found"] += len(result.regions)
            return len(result.regions)
        elif prefix == "conditions.search":
            counts["conditions.search.misses"] += int(result is None)
            return result is not None
        elif prefix.startswith("smtlib.export"):
            size = sum(len(q.text) for q in result)
            counts["smtlib.export.bytes"] += size
            return size
        return None

    # -- output ----------------------------------------------------------------------

    def write_spans(self, path):
        keys = ("id", "name", "start", "end", "parent", "problem", "outcome", "leaf_s")
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# per-layer metric name -> (unit, how it is computed from a Tracer).  No time
# is listed for bounding_box, the search or interval_evaluate: enum-affine
# never calls them, and a time that reads 0 on every run is not a measurement.
# Their counts are listed.
def _ratio(num, den):
    return num / den if den else 0.0


def _s(prefix):
    return lambda t: t.seconds[prefix]


def _self_s(prefix):
    return lambda t: t.self_seconds[prefix]


def _calls(prefix):
    return lambda t: t.counts[prefix + ".calls"]


LAYER_METRICS = {
    "regions.boundary_propagation.s": ("s", _s("regions.boundary_propagation")),
    "regions.boundary_propagation.self_s": ("s", _self_s("regions.boundary_propagation")),
    "regions.valid_test.calls": ("count", _calls("regions.valid_test")),
    "regions.valid_test.s": ("s", _s("regions.valid_test")),
    "regions.valid_test.self_s": ("s", _self_s("regions.valid_test")),
    "regions.valid_test.accept_ratio": ("ratio", lambda t: _ratio(
        t.counts["regions.valid_test.valid"], t.counts["regions.valid_test.calls"])),
    "regions.build_valid_region.s": ("s", _s("regions.build_valid_region")),
    "regions.build_valid_region.self_s": ("s", _self_s("regions.build_valid_region")),
    "regions.regions_found": ("count", lambda t: t.counts["regions.regions_found"]),
    "regions.find_initial_region.s": ("s", _s("regions.find_initial_region")),
    "regions.find_initial_region.self_s": ("s", _self_s("regions.find_initial_region")),
    "regions.find_initial_region.attempts": (
        "count", lambda t: t.counts["regions.find_initial_region.attempts"]),
    "geometry.remove_redundant.calls": ("count", _calls("geometry.remove_redundant")),
    "geometry.remove_redundant.s": ("s", _s("geometry.remove_redundant")),
    "geometry.remove_redundant.self_s": ("s", _self_s("geometry.remove_redundant")),
    "geometry.implicit_equalities.calls": ("count", _calls("geometry.implicit_equalities")),
    "geometry.implicit_equalities.s": ("s", _s("geometry.implicit_equalities")),
    "geometry.implicit_equalities.self_s": ("s", _self_s("geometry.implicit_equalities")),
    "geometry.bounding_box.calls": ("count", _calls("geometry.bounding_box")),
    "linprog.lp_solve.calls": ("count", _calls("linprog.lp_solve")),
    "linprog.lp_solve.s": ("s", _s("linprog.lp_solve")),
    "linprog.lp_solve.ms_per_call": ("ms", lambda t: 1e3 * _ratio(
        t.seconds["linprog.lp_solve"], t.counts["linprog.lp_solve.calls"])),
    "linprog.lp_solve.infeasible_ratio": ("ratio", lambda t: _ratio(
        t.counts["linprog.lp_solve.infeasible"], t.counts["linprog.lp_solve.calls"])),
    **{f"linprog.lp_solve.calls.{phase}": (
        "count", lambda t, phase=phase: t.counts[f"linprog.lp_solve.calls.{phase}"])
       for phase in PHASES},
    "conditions.check_invariance.s": ("s", _s("conditions.check_invariance")),
    "conditions.check_initial_condition.s": ("s", _s("conditions.check_initial_condition")),
    "conditions.check_unsafe_condition.s": ("s", _s("conditions.check_unsafe_condition")),
    "conditions.search.calls": ("count", _calls("conditions.search")),
    "conditions.search_miss_ratio": ("ratio", lambda t: _ratio(
        t.counts["conditions.search.misses"], t.counts["conditions.search.calls"])),
    "conditions.search.lp_calls": ("count", lambda t: t.counts["conditions.search.lp_calls"]),
    "conditions.bab.lp_calls": ("count", lambda t: t.counts["conditions.bab.lp_calls"]),
    "expressions.evaluate.calls": ("count", _calls("expressions.evaluate")),
    "expressions.evaluate.s": ("s", _s("expressions.evaluate")),
    "expressions.interval_evaluate.calls": ("count", _calls("expressions.interval_evaluate")),
    "network.forward.calls": ("count", _calls("network.forward")),
    "network.forward.s": ("s", _s("network.forward")),
    "network.feasible_indicators.calls": ("count", _calls("network.feasible_indicators")),
    "smtlib.export.s": ("s", lambda t: t.seconds["smtlib.export_invariance"]
                        + t.seconds["smtlib.export_set_condition"]),
    "smtlib.export.bytes": ("bytes", lambda t: t.counts["smtlib.export.bytes"]),
    "problem.load_problem.s": ("s", _s("problem.load_problem")),
    "problem.build_report.s": ("s", _s("problem.build_report")),
}

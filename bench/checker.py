"""Independent checker for verification reports.

Uses only numpy, the network JSON and the numpy forms of the dynamics and
set functions that the problem generator wrote by hand; nothing here calls
into the package under test.  It runs outside the timed region.

Three checks per report:

* every witness is re-evaluated: it lies on the level-set patch of its
  region (activation pattern consistent with the indicator, w.x + b = 0) and
  violates the stated condition;
* level-set probe points, found by bisecting sign-changing sample pairs of
  h, are looked up among the enumerated regions (`uncovered` when their
  activation pattern is not there);
* at covered probes, no `verified` region verdict may be contradicted, and
  the report's verdicts must match the problem's known answer, if it has one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from problems import Problem, net_forward

PROBES_PER_PROBLEM = 32
_PATCH_TOL = 1e-6       # relative slack for "on the patch / in the region"
_SIGN_TOL = 1e-9        # slack for "violates the condition" and "on the wrong side"
_AMBIGUOUS = 1e-9       # probes this close to a neuron's switching plane are skipped
_CONTRADICTS = 1e-7     # a verified patch may dip this far below zero at a probe

_CONDITIONS = (("invariance", "invariance"), ("initial", "initial_condition"),
               ("unsafe", "unsafe_condition"))


@dataclass
class CheckResult:
    wrong_verdicts: int = 0
    bad_witnesses: int = 0
    probes: int = 0
    uncovered: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.wrong_verdicts == 0 and self.bad_witnesses == 0


def _layers(net):
    return [(np.asarray(layer["weights"], dtype=float), np.asarray(layer["bias"], dtype=float))
            for layer in net["layers"]]


def _bits_of(compact: str):
    return [np.array([int(c) for c in part], dtype=float) for part in compact.split(".")]


def _masked_pass(net, bits, x):
    """Pre-activations under a fixed mask, and the affine piece (w, b)."""
    n = len(x)
    M, c = np.eye(n), np.zeros(n)
    pres = []
    for (W, b), mask in zip(_layers(net), bits):
        pres.append(W @ (M @ x + c) + b)
        M, c = mask[:, None] * (W @ M), mask * (W @ c + b)
    omega = np.asarray(net["output_weights"], dtype=float)
    return pres, omega @ M, float(omega @ c + net["output_bias"])


def _pattern(net, x):
    """Activation pattern at x as a compact string, or None when ambiguous."""
    z = np.asarray(x, dtype=float)
    parts = []
    for W, b in _layers(net):
        pre = W @ z + b
        if np.any(np.abs(pre) <= _AMBIGUOUS * (1.0 + np.abs(W) @ np.abs(z) + np.abs(b))):
            return None
        parts.append("".join("1" if p > 0 else "0" for p in pre))
        z = np.maximum(pre, 0.0)
    return ".".join(parts)


def _objective(problem: Problem, condition: str, w, x):
    """The quantity that must stay >= 0 on a patch for the condition to hold."""
    row = np.asarray(x, dtype=float)[None, :]
    if condition == "invariance":
        return float(w @ problem.f(row)[0])
    g = problem.g_init if condition == "initial" else problem.g_unsafe
    return -float(g(row)[0])


def _on_patch(net, compact, x) -> tuple[bool, np.ndarray]:
    pres, w, b = _masked_pass(net, _bits_of(compact), x)
    scale = 1.0 + float(np.abs(x).max())
    for pre, mask in zip(pres, _bits_of(compact)):
        signed = np.where(mask == 1.0, pre, -pre)   # must be >= 0
        if np.any(signed < -_PATCH_TOL * scale * (1.0 + np.abs(pre).max())):
            return False, w
    return abs(float(w @ x) + b) <= _PATCH_TOL * scale * (1.0 + np.abs(w).sum()), w


def _check_witnesses(problem, report, out: CheckResult):
    net = problem.net
    for wit in report["witnesses"]:
        x = np.asarray(wit["point"], dtype=float)
        cond = wit["condition"]
        if wit["region"] is None:       # membership probe that landed on the wrong side
            g = problem.g_init if cond == "initial" else problem.g_unsafe
            h = float(net_forward(net, x)[0])
            inside = float(g(x[None, :])[0]) > -_SIGN_TOL
            wrong_side = h <= _SIGN_TOL if cond == "initial" else h >= -_SIGN_TOL
            if not (inside and wrong_side):
                out.bad_witnesses += 1
                out.problems.append(f"{problem.name}: {cond} probe witness does not re-check")
            continue
        on_patch, w = _on_patch(net, wit["region"], x)
        if not on_patch:
            out.bad_witnesses += 1
            out.problems.append(f"{problem.name}: {cond} witness off region {wit['region']}")
        elif _objective(problem, cond, w, x) >= _SIGN_TOL:
            out.bad_witnesses += 1
            out.problems.append(f"{problem.name}: {cond} witness in {wit['region']} "
                                "does not violate the condition")
    for label, key in _CONDITIONS:
        if report["verdicts"][key] == "falsified" and not any(
                wit["condition"] == label for wit in report["witnesses"]):
            out.bad_witnesses += 1
            out.problems.append(f"{problem.name}: {label} falsified without a witness")


def _check_known_answer(problem, report, out: CheckResult):
    expect = problem.expect
    for key in ("invariance", "initial_condition", "unsafe_condition", "overall"):
        if key in expect and report["verdicts"][key] != expect[key]:
            out.wrong_verdicts += 1
            out.problems.append(f"{problem.name}: {key} is {report['verdicts'][key]}, "
                                f"construction says {expect[key]}")
    failure = (report.get("failure") or {}).get("kind")
    if failure != expect.get("failure"):
        out.wrong_verdicts += 1
        out.problems.append(f"{problem.name}: failure {failure!r}, "
                            f"expected {expect.get('failure')!r}")
    if "caveat" in expect and not any(c.startswith(expect["caveat"])
                                      for c in report["caveats"]):
        out.wrong_verdicts += 1
        out.problems.append(f"{problem.name}: no caveat {expect['caveat']!r}")


def level_set_probes(problem: Problem, count: int = PROBES_PER_PROBLEM,
                     rounds: int = 8) -> np.ndarray:
    """Points on {h = 0} from bisected sign-changing pairs of domain samples."""
    rng = np.random.default_rng([problem.seed, 4099])
    net, n, r = problem.net, problem.dim, problem.half_width
    for _ in range(rounds):
        xs = rng.uniform(-r, r, size=(4096, n))
        h = net_forward(net, xs)
        m = min(count, int(np.sum(h < 0.0)), int(np.sum(h > 0.0)))
        if m:
            break
    else:
        return np.zeros((0, n))
    a, b = xs[h < 0.0][:m], xs[h > 0.0][:m]
    for _ in range(60):
        mid = 0.5 * (a + b)
        neg = net_forward(net, mid) < 0.0
        a = np.where(neg[:, None], mid, a)
        b = np.where(neg[:, None], b, mid)
    return a


def check_report(problem: Problem, report: dict) -> CheckResult:
    out = CheckResult()
    _check_witnesses(problem, report, out)
    _check_known_answer(problem, report, out)
    rows = {row["indicator"]: row for row in report["regions"]}
    contradicted = set()
    for x in level_set_probes(problem):
        compact = _pattern(problem.net, x)
        if compact is None:
            continue
        out.probes += 1
        row = rows.get(compact)
        if row is None:
            out.uncovered += 1
            continue
        for label, _ in _CONDITIONS:
            verdict = row[label]
            if verdict is None or verdict["status"] != "verified":
                continue
            value = _objective(problem, label, np.asarray(row["w"]), x)
            if value < -_CONTRADICTS and (compact, label) not in contradicted:
                contradicted.add((compact, label))
                out.wrong_verdicts += 1
                out.problems.append(f"{problem.name}: {label} verified on {compact} "
                                    f"but {value:.3g} < 0 at probe {x.tolist()}")
    return out

"""Seeded problem families for the verification benchmark.

Every problem is a network JSON file plus a problem JSON file, exactly what
`relubarrier verify --problem` reads.  Each family also keeps a numpy form of
its dynamics and set functions, written here by hand rather than parsed from
the expression text, so that the independent checker never touches the
program's own parser.

How the workload seed enters
----------------------------
The suite is fixed: the base problems of a workload are drawn once from
fixed family seeds (`BASE_SEED` below), as the verifier's own `seed` field
is.  The workload seed draws a permutation of the hidden neurons of every
layer of every network, which changes the files byte for byte (row order of
every region system, summation order of every evaluation) but not the
problem.  Every seed therefore does the same work, and the spread between
seeds measures the machine rather than the draw.  (With fresh draws the
work would depend on the draw: the 3-D [12] nets drawn here carry 16 to 90
regions.  A signed permutation of the input coordinates was tried too; it
changes which level-set component the seed search lands on when the level
set is disconnected, and with it the work.)

Drop rule (the only one): a random-net base draw is redrawn when 4096
uniform samples of the domain box show no sign change of h.  No draw is
dropped for what the program does with it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

BASE_SEED = 20251110

WORKLOADS = ("enum-affine", "decide-nonlinear", "budget-exhaustion")


@dataclass
class Problem:
    name: str
    family: str
    net: dict                      # network JSON form
    dynamics: list[str]            # program syntax, one string per component
    initial_set: str
    unsafe_set: str
    f: Callable                    # numpy dynamics, rows (m, n) -> (m, n)
    g_init: Callable               # numpy set functions, rows (m, n) -> (m,)
    g_unsafe: Callable
    half_width: float              # domain box is [-half_width, half_width]^n
    budgets: dict
    seed: int
    expect: dict = field(default_factory=dict)   # known answer, if any
    path: str | None = None

    @property
    def dim(self) -> int:
        return int(self.net["input_dim"])


# -- text helpers ------------------------------------------------------------------

def _num(v: float) -> str:
    """Exact, sign-free decimal text of a float (the parser has no signed literals)."""
    return repr(abs(float(v)))


def _linear_text(coefs, const: float) -> str:
    """Program text of coefs . x + const."""
    parts = []
    for i, c in enumerate(coefs):
        if c == 0.0:
            continue
        term = f"{_num(c)}*x{i + 1}"
        parts.append(("- " if c < 0 else "+ ") + term)
    if const != 0.0 or not parts:
        parts.append(("- " if const < 0 else "+ ") + _num(const))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _ball_text(center, radius: float) -> str:
    """Program text of radius^2 - |x - center|^2 (positive inside the ball)."""
    terms = []
    for i, c in enumerate(center):
        if c == 0.0:
            terms.append(f"x{i + 1}^2")
        else:
            terms.append(f"(x{i + 1} {'-' if c > 0 else '+'} {_num(c)})^2")
    return f"{_num(radius * radius)} - (" + " + ".join(terms) + ")"


def _ball(center, radius: float):
    center = np.asarray(center, dtype=float)
    return (_ball_text(center, radius),
            lambda x: radius * radius - np.sum((x - center) ** 2, axis=1))


def _halfspace(u, offset: float):
    """{u.x + offset > 0} as (text, numpy function)."""
    u = np.asarray(u, dtype=float)
    return _linear_text(u, offset), lambda x: x @ u + offset


# -- networks ----------------------------------------------------------------------

def _net_json(weights, biases, omega, phi) -> dict:
    return {"input_dim": int(np.asarray(weights[0]).shape[1]),
            "layers": [{"weights": np.asarray(w, dtype=float).tolist(),
                        "bias": np.asarray(b, dtype=float).tolist()}
                       for w, b in zip(weights, biases)],
            "output_weights": np.asarray(omega, dtype=float).tolist(),
            "output_bias": float(phi)}


def net_forward(net: dict, x) -> np.ndarray:
    """h over rows of x, straight from the JSON form."""
    z = np.atleast_2d(np.asarray(x, dtype=float))
    for layer in net["layers"]:
        z = np.maximum(z @ np.asarray(layer["weights"]).T + np.asarray(layer["bias"]), 0.0)
    return z @ np.asarray(net["output_weights"]) + net["output_bias"]


def _random_net(rng, n: int, hidden, half_width: float) -> dict:
    """N(0,1) weights, N(0,1) x 0.5 biases; redrawn only by the drop rule."""
    while True:
        sizes = [n, *hidden]
        weights = [rng.standard_normal((sizes[i + 1], sizes[i])) for i in range(len(hidden))]
        biases = [0.5 * rng.standard_normal(m) for m in hidden]
        omega = rng.standard_normal(hidden[-1])
        phi = 0.5 * rng.standard_normal()
        net = _net_json(weights, biases, omega, phi)
        h = net_forward(net, rng.uniform(-half_width, half_width, size=(4096, n)))
        if h.min() < 0.0 < h.max():
            return net


def _polytope_net(a) -> dict:
    """h(x) = 1 - sum_i |a_i . x| as one layer of 2k rectifiers."""
    a = np.asarray(a, dtype=float)
    w1 = np.vstack([a, -a])
    return _net_json([w1], [np.zeros(len(w1))], -np.ones(len(w1)), 1.0)


def _unit_rows(rng, k: int, n: int) -> np.ndarray:
    a = rng.standard_normal((k, n))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


# -- flows -------------------------------------------------------------------------

def _decay_flow(n: int, drift=None):
    """x_i' = -x_i (1 + |x|^2) + drift_i."""
    drift = np.zeros(n) if drift is None else np.asarray(drift, dtype=float)
    norm = " + ".join(f"x{j + 1}^2" for j in range(n))
    texts = []
    for i in range(n):
        text = f"-x{i + 1}*(1 + {norm})"
        if drift[i] != 0.0:
            text += f" {'+' if drift[i] > 0 else '-'} {_num(drift[i])}"
        texts.append(text)

    def f(x):
        return -x * (1.0 + np.sum(x * x, axis=1, keepdims=True)) + drift

    return texts, f


def _affine_flow(F, c):
    F = np.asarray(F, dtype=float)
    c = np.asarray(c, dtype=float)
    return [_linear_text(F[i], c[i]) for i in range(len(F))], lambda x: x @ F.T + c


CUBIC2D = (["x1 - x1^3 + x2 - x1*x2^2", "-x1 + x2 - x1^2*x2 - x2^3"],
           lambda x: np.stack([x[:, 0] - x[:, 0] ** 3 + x[:, 1] - x[:, 0] * x[:, 1] ** 2,
                               -x[:, 0] + x[:, 1] - x[:, 0] ** 2 * x[:, 1] - x[:, 1] ** 3],
                              axis=1))

TRANSCENDENTAL3D = (["-x1*(1 + sin(x2)^2 + exp(-x3^2))",
                     "-x2*(1 + cos(x3)^2 + tanh(x1^2))",
                     "-x3*(1 + ln(1 + x1^2 + x2^2))"],
                    lambda x: np.stack([
                        -x[:, 0] * (1 + np.sin(x[:, 1]) ** 2 + np.exp(-x[:, 2] ** 2)),
                        -x[:, 1] * (1 + np.cos(x[:, 2]) ** 2 + np.tanh(x[:, 0] ** 2)),
                        -x[:, 2] * (1 + np.log(1 + x[:, 0] ** 2 + x[:, 1] ** 2))], axis=1))

FLAT2D = (["x2^3", "-x2^3"],
          lambda x: np.stack([x[:, 1] ** 3, -x[:, 1] ** 3], axis=1))


# -- families ----------------------------------------------------------------------

def _affine_net_problem(rng, n, hidden) -> dict:
    """Random net, affine flow, half-space sets: every decision is one LP."""
    net = _random_net(rng, n, hidden, 3.0)
    F = -np.eye(n) + 0.5 * rng.standard_normal((n, n))
    dyn, f = _affine_flow(F, np.zeros(n))
    init_text, g_init = _halfspace(-_unit_rows(rng, 1, n)[0], -1.5)
    unsafe_text, g_unsafe = _halfspace(_unit_rows(rng, 1, n)[0], -1.5)
    return dict(net=net, dynamics=dyn, f=f, initial_set=init_text, g_init=g_init,
                unsafe_set=unsafe_text, g_unsafe=g_unsafe, half_width=3.0)


def _polytope_problem(rng, n, k, drift: bool) -> dict:
    """h = 1 - sum |a_i.x| under x' = -x(1+|x|^2) [+ d].

    On every patch w.f = 1 + |x|^2 (+ w.d).  Without drift all three
    conditions hold by construction.  With drift d = |d| u, at the patch
    point x = t u (t = 1 / sum |a_i.u|) w.d = -|d| / t; choosing
    |d| = 2 t (1 + t^2) + 1 makes w.f < 0 there, so invariance is falsified.
    """
    a = _unit_rows(rng, k, n)
    reach = 1.0 / np.linalg.svd(a, compute_uv=False)[-1]   # |x| <= reach on the patch
    u = _unit_rows(rng, 1, n)[0]
    d_unsafe = reach + 1.0
    half_width = float(np.ceil(d_unsafe + 1.0))
    drift_vec = None
    if drift:
        t = 1.0 / np.sum(np.abs(a @ u))
        drift_vec = (2.0 * t * (1.0 + t * t) + 1.0) * u
    dyn, f = _decay_flow(n, drift_vec)
    init_text, g_init = _ball(np.zeros(n), 0.5 / k)          # |x| >= 1/k on the patch
    unsafe_text, g_unsafe = _ball(-d_unsafe * u, 0.5)
    expect = {"invariance": "falsified" if drift else "verified",
              "initial_condition": "verified", "unsafe_condition": "verified",
              "overall": "falsified" if drift else "verified"}
    return dict(net=_polytope_net(a), dynamics=dyn, f=f, initial_set=init_text,
                g_init=g_init, unsafe_set=unsafe_text, g_unsafe=g_unsafe,
                half_width=half_width, expect=expect,
                budgets={"membership_samples": 1_000_000})


def _random_candidate_problem(rng, n, hidden, flow) -> dict:
    """Random net under a repository flow, ball sets; no known answer."""
    net = _random_net(rng, n, hidden, 3.0)
    dyn, f = flow
    init_text, g_init = _ball(np.zeros(n), 0.5)
    unsafe_text, g_unsafe = _ball(np.full(n, 2.0), 0.5)
    return dict(net=net, dynamics=list(dyn), f=f, initial_set=init_text, g_init=g_init,
                unsafe_set=unsafe_text, g_unsafe=g_unsafe, half_width=3.0)


def _flat_diamond_problem(rng) -> dict:
    """The diamond h = 1 - |x1| - |x2| under a flow that vanishes on two
    patches: BaB can neither certify nor falsify, so it ends unknown."""
    net = _net_json([[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]], [[0.0] * 4],
                    [-1.0] * 4, 1.0)
    init_text, g_init = _ball([0.0, 0.0], 0.2)
    unsafe_text, g_unsafe = _ball([3.0, 3.0], 1.0)
    return dict(net=net, dynamics=list(FLAT2D[0]), f=FLAT2D[1], initial_set=init_text,
                g_init=g_init, unsafe_set=unsafe_text, g_unsafe=g_unsafe, half_width=3.0,
                expect={"invariance": "unknown", "overall": "unknown"},
                budgets={"bab_max_boxes": 500})


def _no_level_set_problem(rng) -> dict:
    """h = -1 - sum |omega_i| relu(...) < 0 everywhere: the seed search
    spends its whole draw budget and the run ends search-exhausted."""
    n, m = 2, 8
    weights = [rng.standard_normal((m, n))]
    biases = [0.5 * rng.standard_normal(m)]
    omega = -np.abs(rng.standard_normal(m))
    dyn, f = _affine_flow(-np.eye(n), np.zeros(n))
    init_text, g_init = _ball(np.zeros(n), 0.5)
    unsafe_text, g_unsafe = _ball(np.full(n, 2.0), 0.5)
    return dict(net=_net_json(weights, biases, omega, -1.0), dynamics=dyn, f=f,
                initial_set=init_text, g_init=g_init, unsafe_set=unsafe_text,
                g_unsafe=g_unsafe, half_width=3.0,
                expect={"failure": "search-exhausted"},
                budgets={"max_attempts": 10})


def _tiny_set_problem(rng) -> dict:
    """3-D polytope certificate, linear flow, an initial ball of radius 1e-3:
    rejection sampling cannot hit it, so the initial condition ends unknown
    with SamplerExhausted while the other two are verified."""
    n, k = 3, 4
    a = _unit_rows(rng, k, n)
    reach = 1.0 / np.linalg.svd(a, compute_uv=False)[-1]
    u = _unit_rows(rng, 1, n)[0]
    half_width = float(np.ceil(reach + 2.0))
    dyn, f = _affine_flow(-np.eye(n), np.zeros(n))
    init_text, g_init = _ball(np.zeros(n), 1e-3)
    unsafe_text, g_unsafe = _ball(-(reach + 1.0) * u, 0.5)
    return dict(net=_polytope_net(a), dynamics=dyn, f=f, initial_set=init_text,
                g_init=g_init, unsafe_set=unsafe_text, g_unsafe=g_unsafe,
                half_width=half_width,
                expect={"invariance": "verified", "initial_condition": "unknown",
                        "unsafe_condition": "verified", "overall": "unknown",
                        "caveat": "initial-set sampling exhausted"},
                budgets={"membership_samples": 1_000_000})


# (family, builder, builder args, how many base problems)
SUITES = {
    "enum-affine": [
        ("affine-2d-16", _affine_net_problem, (2, [16]), 3),
        ("affine-2d-16x16", _affine_net_problem, (2, [16, 16]), 2),
        ("affine-3d-12", _affine_net_problem, (3, [12]), 2),
    ],
    "decide-nonlinear": [
        ("polytope-2d", _polytope_problem, (2, 6, False), 1),
        ("polytope-3d", _polytope_problem, (3, 4, False), 1),
        ("drift-2d", _polytope_problem, (2, 6, True), 1),
        ("cubic-2d-8", _random_candidate_problem, (2, [8], CUBIC2D), 1),
        ("transcendental-3d-4", _random_candidate_problem, (3, [4], TRANSCENDENTAL3D), 1),
    ],
    "budget-exhaustion": [
        ("flat-diamond", _flat_diamond_problem, (), 1),
        ("no-level-set", _no_level_set_problem, (), 1),
        ("tiny-set", _tiny_set_problem, (), 1),
    ],
}


# -- seed ------------------------------------------------------------------------

def _permute_neurons(net: dict, rng) -> dict:
    """The same network with the hidden neurons of every layer reordered."""
    weights = [np.asarray(layer["weights"], dtype=float) for layer in net["layers"]]
    biases = [np.asarray(layer["bias"], dtype=float) for layer in net["layers"]]
    prev = None
    for i in range(len(weights)):
        order = rng.permutation(len(biases[i]))
        if prev is not None:
            weights[i] = weights[i][:, prev]
        weights[i], biases[i] = weights[i][order], biases[i][order]
        prev = order
    omega = np.asarray(net["output_weights"], dtype=float)[prev]
    return _net_json(weights, biases, omega, net["output_bias"])


def warm_up_problem() -> Problem:
    """Tiny diamond problem that touches the LP, search and interval routes."""
    spec = _flat_diamond_problem(None)
    spec.pop("budgets")
    dyn, f = _affine_flow(-np.eye(2), np.zeros(2))
    spec.update(dynamics=dyn, f=f, expect={})
    return Problem(name="warm-up", family="warm-up", budgets={"threads": 1}, seed=0, **spec)


# -- generation ----------------------------------------------------------------------

def build_workload(workload: str, seed: int) -> list[Problem]:
    """The workload's problems for one seed, in a fixed order."""
    problems = []
    for fam_index, (family, builder, args, count) in enumerate(SUITES[workload]):
        for i in range(count):
            spec = builder(np.random.default_rng([BASE_SEED, fam_index, i]), *args)
            spec["net"] = _permute_neurons(spec["net"],
                                           np.random.default_rng([seed, fam_index, i]))
            budgets = {"threads": 1, **spec.pop("budgets", {})}
            problems.append(Problem(name=f"{family}-{i}", family=family, budgets=budgets,
                                    seed=0, **spec))
    return problems


def write_workload(problems: list[Problem], directory: str) -> None:
    """Write each problem's network and problem files; sets Problem.path."""
    os.makedirs(directory, exist_ok=True)
    for p in problems:
        net_name = f"{p.name}.net.json"
        with open(os.path.join(directory, net_name), "w") as fh:
            json.dump(p.net, fh)
        box = [[-p.half_width, p.half_width]] * p.dim
        doc = {"network_path": net_name, "dynamics": p.dynamics,
               "initial_set": p.initial_set, "unsafe_set": p.unsafe_set,
               "domain_box": box, "budgets": p.budgets, "seed": p.seed}
        p.path = os.path.join(directory, f"{p.name}.problem.json")
        with open(p.path, "w") as fh:
            json.dump(doc, fh, indent=1)

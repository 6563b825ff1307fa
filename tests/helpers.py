"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own LP/geometry code
paths: vertex enumeration goes through numpy.linalg, grid oracles through
direct evaluation, so agreement is meaningful.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
import sys

import numpy as np

from relubarrier import (DEFAULT_CONFIG, UNBOUNDED, DynamicsSystem, LpProblem,
                         Polyhedron, SlicePolyhedron, evaluate, implicit_equalities,
                         lp_solve)
from relubarrier import conditions, geometry, linprog, regions, svgplot
from relubarrier.config import FALSIFY_BUDGET, FALSIFY_GATE, TOL_EQ
from relubarrier.network import ReluNetwork

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
with open(os.path.join(BENCH, os.pardir, "docs", "report_schema.json")) as _fh:
    SCHEMA = json.load(_fh)   # the report's JSON schema


def load_bench_module(name):
    """A module of the benchmark directory, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def counted_lp_solves(monkeypatch):
    """Count lp_solve calls from every package module that holds it."""
    calls = []
    original = linprog.lp_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (linprog, geometry, regions, conditions):
        if hasattr(module, "lp_solve"):
            monkeypatch.setattr(module, "lp_solve", counted)
    return calls


# -- hand-built fixture networks ---------------------------------------------------

def diamond_net() -> ReluNetwork:
    """h(x) = 1 - |x1| - |x2| built from four rectifier units."""
    w1 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b1 = np.zeros(4)
    return ReluNetwork([w1], [b1], np.array([-1.0, -1.0, -1.0, -1.0]), 1.0)


def strip_net() -> ReluNetwork:
    """h(x) = 1 - |x1|; its zero set is two disconnected vertical lines."""
    w1 = np.array([[1.0, 0.0], [-1.0, 0.0]])
    b1 = np.zeros(2)
    return ReluNetwork([w1], [b1], np.array([-1.0, -1.0]), 1.0)


def shifted_relu_net() -> ReluNetwork:
    """h(x) = relu(x1 - 1) + 1 >= 1 everywhere: no zero level set."""
    return ReluNetwork([np.array([[1.0]])], [np.array([-1.0])],
                       np.array([1.0]), 1.0)


def one_d_ramp_net() -> ReluNetwork:
    """h(x) = 1 - relu(x1) on the line; single valid region x1 >= 0."""
    return ReluNetwork([np.array([[1.0]])], [np.array([0.0])],
                       np.array([-1.0]), 1.0)


def all_dead_net() -> ReluNetwork:
    """h identically 1: zero weights everywhere, so no boundary exists."""
    w1 = np.zeros((2, 2))
    return ReluNetwork([w1], [np.zeros(2)], np.zeros(2), 1.0)


def deep_branching_net(gain: float = 1e12, offset: float = 50.0) -> ReluNetwork:
    """Two-layer net where masking a zero first-layer unit flips layer two.

    At x = (d, 1) with d below the zero tolerance, the first unit's
    pre-activation is d; keeping it active feeds gain*d - offset > 0 into
    the second layer while masking it feeds -offset < 0.
    """
    w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    b1 = np.zeros(2)
    w2 = np.array([[gain, 0.0]])
    b2 = np.array([-offset])
    return ReluNetwork([w1, w2], [b1, b2], np.array([1.0]), 0.0)


def random_hidden_net(rng: np.random.Generator, n_in: int = 2,
                      neurons: int | None = None) -> ReluNetwork:
    """One-hidden-layer net with standard normal weights and biases."""
    if neurons is None:
        neurons = int(rng.integers(4, 9))
    w1 = rng.normal(size=(neurons, n_in))
    b1 = rng.normal(size=neurons)
    omega = rng.normal(size=neurons)
    phi = float(rng.normal())
    return ReluNetwork([w1], [b1], omega, phi)


def scaled_output(net: ReluNetwork, k: float) -> ReluNetwork:
    """Same network with the output layer scaled by k."""
    return ReluNetwork([w.copy() for w in net.weights],
                       [b.copy() for b in net.biases],
                       k * net.output_weights, k * net.output_bias)


# -- independent oracles ------------------------------------------------------------

def vertex_minimum(c, a_ub, b_ub, a_eq=None, b_eq=None, tol=1e-9):
    """Brute-force LP oracle: enumerate basic points via numpy.linalg.

    Only for small bounded-feasible problems (n <= 3, m <= 10).  Returns
    (value, point) over all vertices, or None when no vertex is feasible.
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    n = c.size
    rows = [(a_ub[i], b_ub[i], False) for i in range(a_ub.shape[0])]
    if a_eq is not None:
        a_eq = np.asarray(a_eq, dtype=float)
        b_eq = np.asarray(b_eq, dtype=float)
        rows += [(a_eq[i], b_eq[i], True) for i in range(a_eq.shape[0])]
    best = None
    eq_idx = [i for i, r in enumerate(rows) if r[2]]
    for combo in itertools.combinations(range(len(rows)), n):
        if any(i not in combo for i in eq_idx):
            continue
        mat = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        x = np.linalg.solve(mat, rhs)
        ok = all((abs(a @ x - d) <= tol) if is_eq else (a @ x <= d + tol)
                 for a, d, is_eq in rows)
        if not ok:
            continue
        v = float(c @ x)
        if best is None or v < best[0]:
            best = (v, x)
    return best


# -- reference geometry: implicit equalities and numerical rank ---------------------

def matrix_rank(mat, tol_rank: float = 1e-8) -> int:
    """Numerical rank by row reduction with a pivot threshold.

    Rows are pre-normalized by their largest entry so the result is
    invariant under row scaling.
    """
    a = np.atleast_2d(np.asarray(mat, dtype=float)).copy()
    if a.size == 0:
        return 0
    norms = np.max(np.abs(a), axis=1)
    nonzero = norms > 0.0
    a[nonzero] = a[nonzero] / norms[nonzero, None]
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        piv = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[piv, col]) <= tol_rank:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] / a[rank, col]
        below = a[rank + 1:, col].copy()
        a[rank + 1:] -= np.outer(below, a[rank])
        rank += 1
    return rank


def dimension(p: Polyhedron, tol_eq: float = TOL_EQ, tol_rank: float = 1e-8,
              tol_feas: float = 1e-7) -> int:
    """Affine dimension of a nonempty polyhedron: n minus the rank of its
    implicit-equality rows."""
    implicit = implicit_equalities(p, tol_eq=tol_eq, tol_feas=tol_feas)
    if not implicit:
        return p.dim
    return p.dim - matrix_rank(p.A[implicit], tol_rank=tol_rank)


def slice_full(sl) -> Polyhedron:
    """A SlicePolyhedron in pure-inequality form: base rows, then
    ``w.x <= -b``, then ``-w.x <= b``."""
    return sl.base.with_rows(np.vstack([sl.w, -sl.w]), np.array([-sl.b, sl.b]))


def feasible_point(a_ub, b_ub, a_eq=None, b_eq=None, tol_feas: float = 1e-7):
    """A point of {a_ub x <= b_ub, a_eq x = b_eq} by a zero-objective LP, or
    None when the system is empty."""
    out = lp_solve(LpProblem(np.zeros(a_ub.shape[1]), a_ub, b_ub, a_eq, b_eq),
                   tol_feas=tol_feas)
    return out.point if out.optimal else None


def slice_feasible_point(sl, tol_feas: float = 1e-7):
    """A point of a SlicePolyhedron, or None when it is empty."""
    return feasible_point(sl.base.A, sl.base.d, sl.w[None, :], np.array([-sl.b]), tol_feas)


def reference_valid(net: ReluNetwork, ind, cfg=DEFAULT_CONFIG) -> bool:
    """Region validity by implicit equalities and numerical rank.

    The region is nonempty and full-dimensional; w = 0 makes it valid
    exactly when b = 0; otherwise the slice is nonempty with dimension n-1.
    """
    region, w, b = net.piece(ind)
    if feasible_point(region.A, region.d, tol_feas=cfg.tol_feas) is None:
        return False
    if dimension(region, tol_eq=TOL_EQ, tol_feas=cfg.tol_feas) < region.dim:
        return False
    if not w.any():
        return bool(b == 0.0)
    sliced = slice_full(SlicePolyhedron(region, w, b))
    if feasible_point(sliced.A, sliced.d, tol_feas=cfg.tol_feas) is None:
        return False
    return dimension(sliced, tol_eq=TOL_EQ, tol_feas=cfg.tol_feas) == region.dim - 1


def slices_intersect(r1, r2, tol_feas: float = 1e-7) -> bool:
    """Do two regions' level-set patches share a point?"""
    a_ub = np.vstack([r1.constraints.A, r2.constraints.A])
    b_ub = np.concatenate([r1.constraints.d, r2.constraints.d])
    a_eq = np.vstack([r1.slice.w[None, :], r2.slice.w[None, :]])
    b_eq = np.array([-r1.slice.b, -r2.slice.b])
    return feasible_point(a_ub, b_ub, a_eq, b_eq, tol_feas) is not None


def boundary_is_connected(regions, tol_feas: float = 1e-7) -> bool:
    """Connectivity of the region-adjacency graph (shared slice points).

    O(R^2) LPs: an oracle for small region lists only.
    """
    if len(regions) <= 1:
        return True
    n = len(regions)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j not in seen and slices_intersect(regions[i], regions[j], tol_feas):
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


def slice_grid(region, k: int = 10_000) -> np.ndarray:
    """k points densely covering a 2-D region's level-set segment.

    Endpoint extraction uses the library LP (the only way to touch the
    polytope), but the grid itself and any evaluation on it are
    library-free.
    """
    w, b = region.slice.w, region.slice.b
    t = np.array([-w[1], w[0]])
    a_rows, d_vals = region.constraints.A, region.constraints.d
    ends = []
    for sense in ("min", "max"):
        out = lp_solve(LpProblem(t, a_rows, d_vals, w[None, :],
                                 np.array([-b]), sense=sense))
        if out.status == UNBOUNDED:
            # clamp an unbounded slice with the standard domain box (or a
            # big box when the slice misses it); the grid then covers a
            # finite stretch of the segment
            for half in (3.0, 1e6):
                boxed_a = np.vstack([a_rows, np.eye(2), -np.eye(2)])
                boxed_d = np.concatenate([d_vals, np.full(2, half),
                                          np.full(2, half)])
                out = lp_solve(LpProblem(t, boxed_a, boxed_d, w[None, :],
                                         np.array([-b]), sense=sense))
                if out.optimal:
                    break
        assert out.optimal, f"segment endpoint LP came back {out.status}"
        ends.append(out.point)
    ts = np.linspace(0.0, 1.0, k)[:, None]
    return ends[0][None, :] * (1 - ts) + ends[1][None, :] * ts


def reference_falsify(region, g, cfg, rng):
    """The falsification search one candidate at a time: the reference for
    `conditions._falsify`, which checks its candidates in batches.

    A candidate counts when it lies on the slice within tol_feas and g,
    evaluated there alone, is finite.  Returns (witness, value, stage) with
    stage "vertex" or "pattern", or None when the search finds nothing.
    """
    sl = region.slice
    n = sl.base.dim
    w, b = sl.w, sl.b
    wnorm2 = float(w @ w)
    gate = -max(cfg.tol_margin, FALSIFY_GATE)

    def value(x):
        v = evaluate(g, x)
        return v if sl.contains(x, cfg.tol_feas) and np.isfinite(v) else None

    directions = np.vstack([np.zeros(n), rng.standard_normal((max(4, FALSIFY_BUDGET // 5), n))])
    outcomes = sl.minimize(directions, cfg.tol_feas)
    if not outcomes[0].optimal:
        return None
    points = np.array([out.point for out in outcomes if out.optimal])
    best = None
    for point in points:
        v = value(point)
        if v is not None and v < gate:
            return point, v, "vertex"
        if v is not None and (best is None or v < best[1]):
            best = (point, v)
    if best is None:
        return None
    x, gx = best
    spread = float(np.max(np.ptp(points, axis=0))) if len(points) > 1 else 1.0
    if spread == 0.0:
        spread = float(np.max(np.ptp(cfg.domain(n), axis=1)))
    step = max(spread / 4.0, 1e-3)
    moves = np.kron(np.eye(n), [[1.0], [-1.0]]) + 0.0
    if wnorm2 > 0.0:
        moves -= np.outer(moves @ w, w) / wnorm2
    for _ in range(FALSIFY_BUDGET):
        improved = False
        for d in moves[moves.any(axis=1)]:
            y = x + step * d
            if wnorm2 > 0.0:
                y = y - w * ((w @ y) + b) / wnorm2
            v = value(y)
            if v is None:
                continue
            if v < gate:
                return y, v, "pattern"
            if v < gx - 1e-15:
                x, gx, improved = y, v, True
        if not improved:
            step /= 2.0
            if step < 1e-9:
                break
    return None


def marching_squares_reference(expr, domain, grid=256):
    """Zero-level segments of expr over the domain box, one grid cell at a
    time: the reference for `svgplot._marching_squares`."""
    xs, ys, vals = svgplot._grid_values(expr, domain, grid)
    segments = []

    def interp(pa, va, pb, vb):
        t = va / (va - vb)
        return pa + t * (pb - pa)

    for i in range(grid - 1):
        for j in range(grid - 1):
            corner_vals = (vals[i, j], vals[i + 1, j], vals[i + 1, j + 1], vals[i, j + 1])
            if any(np.isnan(v) for v in corner_vals):
                continue
            corners = (np.array([xs[i], ys[j]]), np.array([xs[i + 1], ys[j]]),
                       np.array([xs[i + 1], ys[j + 1]]), np.array([xs[i], ys[j + 1]]))
            crossings = []
            for k in range(4):
                va, vb = corner_vals[k], corner_vals[(k + 1) % 4]
                if (va > 0) != (vb > 0):
                    crossings.append(interp(corners[k], va, corners[(k + 1) % 4], vb))
            if len(crossings) >= 2:
                segments.append((crossings[0], crossings[1]))
            if len(crossings) == 4:  # saddle cell: join the second pair too
                segments.append((crossings[2], crossings[3]))
    return segments


def network_to_json(net: ReluNetwork) -> dict:
    """The network-file form of net, as `network_from_json` reads it."""
    return {
        "input_dim": net.input_dim,
        "layers": [{"weights": w.tolist(), "bias": b.tolist()}
                   for w, b in zip(net.weights, net.biases)],
        "output_weights": net.output_weights.tolist(),
        "output_bias": net.output_bias,
    }


def write_problem(dirpath, net: ReluNetwork, dynamics, initial_set, unsafe_set,
                  domain=((-3.0, 3.0), (-3.0, 3.0)), seed: int = 0,
                  tolerances=None, budgets=None, name: str = "problem"):
    """Write a network + problem JSON pair; returns the problem path."""
    os.makedirs(dirpath, exist_ok=True)
    net_path = os.path.join(dirpath, f"{name}_net.json")
    with open(net_path, "w") as fh:
        json.dump(network_to_json(net), fh)
    spec = {
        "network_path": f"{name}_net.json",
        "dynamics": list(dynamics),
        "initial_set": initial_set,
        "unsafe_set": unsafe_set,
        "domain_box": [list(pair) for pair in domain],
        "seed": seed,
    }
    if tolerances:
        spec["tolerances"] = tolerances
    if budgets:
        spec["budgets"] = budgets
    problem_path = os.path.join(dirpath, f"{name}.json")
    with open(problem_path, "w") as fh:
        json.dump(spec, fh, indent=2)
    return problem_path


def affine_system(F, c) -> DynamicsSystem:
    """The flow f(x) = F x + c, written with repr coefficients so that the
    parsed system holds F and c exactly."""
    F, c = np.asarray(F, dtype=float), np.asarray(c, dtype=float)
    n = F.shape[1]
    return DynamicsSystem.parse(
        [" + ".join([f"{float(a)!r}*x{j + 1}" for j, a in enumerate(row)] + [repr(float(ci))])
         for row, ci in zip(F, c)], dim=n)


# -- dynamics strings for the four reference systems --------------------------------

CUBIC2D = ["x1 - x1^3 + x2 - x1*x2^2",
           "-x1 + x2 - x1^2*x2 - x2^3"]

TRANSCENDENTAL3D = ["-x1*(1 + sin(x2)^2 + exp(-x3^2))",
                    "-x2*(1 + cos(x3)^2 + tanh(x1^2))",
                    "-x3*(1 + ln(1 + x1^2 + x2^2))"]

CASCADE4D = ["-x1",
             "x1 - 2*x2",
             "x1 - 4*x3",
             "x1 - 3*x4"]

DECAY6D = [f"-x{i}*(1 + x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + x6^2)"
           for i in range(1, 7)]

ALL_SYSTEMS = {2: CUBIC2D, 3: TRANSCENDENTAL3D, 4: CASCADE4D, 6: DECAY6D}

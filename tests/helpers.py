"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own LP/geometry code
paths: vertex enumeration goes through numpy.linalg, grid oracles through
direct evaluation, so agreement is meaningful.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from relubarrier import (DEFAULT_CONFIG, INFEASIBLE, UNBOUNDED, CombinatorialBlowup,
                         DynamicsSystem, EnumerationResult, NumericalFailure, Polyhedron,
                         brute_force_valid_regions, evaluate,
                         build_valid_region, implicit_equalities, lp_solve,
                         network_from_json)
from relubarrier import conditions, geometry, linprog, regions, svgplot
from relubarrier.config import TOL_EQ
from relubarrier.expressions import Binary, Const, Pow, Unary, Var
from relubarrier.network import ActivationIndicator, ReluNetwork

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


def ill_scaled_deep_net(seed: int) -> ReluNetwork:
    """2-8-8-8-8 net from default_rng(seed): N(0,1) weights, those of
    layers 2-4 scaled by 1e4, N(0,1) biases and output weights, output bias
    0.  Some validity LPs of its regions fail numerically."""
    rng = np.random.default_rng(seed)
    weights = [rng.normal(size=(8, 2))] + [rng.normal(size=(8, 8)) * 1e4 for _ in range(3)]
    biases = [rng.normal(size=8) for _ in range(4)]
    return ReluNetwork(weights, biases, rng.normal(size=8), 0.0)


@dataclass(eq=False)
class RegionStandIn:
    """What the SMT export reads of a region, its indicator and its slice;
    hashed by identity and weak-referenceable, as `ValidRegion` is."""

    indicator: ActivationIndicator
    slice: Polyhedron


def indicator_of(compact: str) -> ActivationIndicator:
    """The indicator whose `ActivationIndicator.compact` is compact."""
    return ActivationIndicator(tuple(tuple(map(int, layer)) for layer in compact.split(".")))


def frame_nets():
    """Random 2-5-D nets, the strip net (lineality), the bench's polytope
    nets, a net with zero pieces (w = 0) and the first 30 nets that
    acceptance 4 draws from default_rng(42), some of whose rows are constant
    on a slice while not quite parallel to it."""
    nets = [random_hidden_net(np.random.default_rng([7, n, s]), n_in=n, neurons=6)
            for n in (2, 3, 4, 5) for s in range(3)]
    nets.append(strip_net())
    nets += [network_from_json(p.net)
             for p in load_bench_module("problems").build_workload("decide-nonlinear", 1)
             if p.family in ("polytope-2d", "polytope-3d", "drift-2d")]
    nets.append(ReluNetwork([np.array([[1.0, 0.0], [1.0, 0.0]])], [np.zeros(2)],
                            np.array([1.0, -1.0]), 0.0))   # h = 0 on both sides of x1 = 0
    rng = np.random.default_rng(42)
    while len(nets) < 50:   # acceptance 4's draws: a net, then a flow once it has regions
        net = random_hidden_net(rng, neurons=int(rng.integers(4, 7)))
        regions = [build_valid_region(net, c) for c in brute_force_valid_regions(net)]
        if any(not r.degenerate for r in regions):
            nets.append(net)
            rng.normal(size=(2, 2)), rng.normal(size=2)
    return nets


def sequential_walk(net: ReluNetwork, seed, cfg=DEFAULT_CONFIG) -> EnumerationResult:
    """The reference for `regions.boundary_propagation`: the walk one
    region and one candidate at a time, each built by `build_valid_region`
    as soon as a facet names it, from the point of that facet."""
    found, rejected, candidates, errors = {seed.indicator.key(): seed}, set(), {}, []
    queue, visited = [seed], 0

    def result():
        return EnumerationResult([found[k] for k in sorted(found)], visited, seed.indicator, errors)

    while queue:
        region = queue.pop(0)
        visited += 1
        if region.degenerate:
            errors.append(f"region {region.indicator.compact()}: degenerate piece, "
                          "facet propagation skipped")
            continue
        for j, point in enumerate(region.facet_points):
            n, key = region.neurons[j], point.tobytes()
            try:
                if n and region.tight[region.tight[:, j]].all(axis=0).sum() == 1:
                    neighbours = sorted([region.indicator, region.indicator.flipped(n)],
                                        key=ActivationIndicator.key)
                else:
                    if key not in candidates:
                        candidates[key] = net.feasible_indicators(point)
                    neighbours = candidates[key]
            except CombinatorialBlowup as exc:
                neighbours = candidates[key] = None
                errors.append(f"region {region.indicator.compact()} facet {j}: {exc}")
            if neighbours is None:
                continue
            for ind in neighbours:
                k = ind.key()
                if k in found or k in rejected:
                    continue
                try:
                    neighbour = build_valid_region(net, ind, cfg, point)
                except NumericalFailure as exc:
                    errors.append(f"candidate {ind.compact()}: {exc}")
                    rejected.add(k)
                    continue
                if neighbour is None:
                    rejected.add(k)
                    continue
                if cfg.max_regions is not None and len(found) >= cfg.max_regions:
                    errors.append(f"region cap {cfg.max_regions} reached; enumeration stopped")
                    return result()
                found[k] = neighbour
                queue.append(neighbour)
            if not any(i.key() in found for i in neighbours if i != region.indicator):
                errors.append(f"region {region.indicator.compact()} facet {j}: no valid "
                              "region continues the level set there")
    return result()


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


def whole_space(dim: int, w=None, b: float = 0.0) -> Polyhedron:
    """R^dim as a polyhedron with no rows, on ``w.x + b = 0`` when w is given."""
    return Polyhedron(np.zeros((0, dim)), np.zeros(0), w, b)


def slice_full(sl) -> Polyhedron:
    """A polyhedron on a hyperplane in pure-inequality form: its rows, then
    ``w.x <= -b``, then ``-w.x <= b``."""
    return Polyhedron(np.vstack([sl.A, sl.w, -sl.w]), np.concatenate([sl.d, [-sl.b, sl.b]]))


def feasible_point(a_ub, b_ub, tol_feas: float = 1e-7):
    """A point of {a_ub x <= b_ub} by a zero-objective LP, or None when the
    system is empty."""
    out = lp_solve(np.zeros(a_ub.shape[1]), a_ub, b_ub, tol_feas=tol_feas)
    return out.point if out.optimal else None


def slice_feasible_point(sl, tol_feas: float = 1e-7):
    """A point of a polyhedron on a hyperplane, or None when it is empty."""
    full = slice_full(sl)
    return feasible_point(full.A, full.d, tol_feas)


def failing_validity_lps(monkeypatch, seed_failures: int = 0):
    """Make validity decisions (`regions.valid_test`) fail numerically, as
    a failing validity LP does: the seed search's first seed_failures, and
    every one of boundary propagation."""
    valid, walk = regions.valid_test, regions.boundary_propagation
    state = {"calls": 0, "walking": False}

    def failing(*args, **kwargs):
        state["calls"] += 1
        if state["walking"] or state["calls"] <= seed_failures:
            raise NumericalFailure("injected validity LP failure")
        return valid(*args, **kwargs)

    def walking(*args, **kwargs):
        state["walking"] = True
        return walk(*args, **kwargs)

    monkeypatch.setattr(regions, "valid_test", failing)
    monkeypatch.setattr(regions, "boundary_propagation", walking)


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
    sliced = slice_full(Polyhedron(region.A, region.d, w, b))
    if feasible_point(sliced.A, sliced.d, tol_feas=cfg.tol_feas) is None:
        return False
    return dimension(sliced, tol_eq=TOL_EQ, tol_feas=cfg.tol_feas) == region.dim - 1


def reference_probe(net: ReluNetwork, set_expr, cfg, rng, want_inside: bool):
    """The membership probe drawn in batches of 2048 rows of `rng.uniform`,
    each batch a fresh array: the points and the checks that
    `conditions._membership_probe` must reproduce bit for bit from the
    buffer it reuses and scales in place.  Every set point of the first
    batch holding any is checked, and the first failing one, else the
    first, is reported."""
    domain = cfg.domain(net.input_dim)
    seen = 0
    while seen < cfg.membership_samples:
        k = min(2048, cfg.membership_samples - seen)
        xs = rng.uniform(domain[:, 0], domain[:, 1], size=(k, net.input_dim))
        values = evaluate(set_expr, xs)
        idx = np.flatnonzero(values > 0.0)
        if idx.size:
            h = net.forward_many(xs[idx])
            good = h > 0.0 if want_inside else h < 0.0
            j = int(np.argmin(good))
            i = int(idx[j])
            return conditions.MembershipProbe(point=xs[i], set_value=float(values[i]),
                                              h_value=float(h[j]), ok=bool(good.all()),
                                              samples=seen + i + 1)
        seen += k
    return None


def slices_intersect(r1, r2, tol_feas: float = 1e-7) -> bool:
    """Do two regions' level-set patches share a point?"""
    full = [slice_full(Polyhedron(r.constraints.A, r.constraints.d, r.slice.w, r.slice.b))
            for r in (r1, r2)]
    return feasible_point(np.vstack([p.A for p in full]), np.concatenate([p.d for p in full]),
                          tol_feas) is not None


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


def lp_slice_answers(region, objectives, tol_feas: float = 1e-7):
    """By LP over the region's whole slice (`Polyhedron.minimize`), what its
    frame answers: the indices of the rows of region.constraints whose max
    A_j.x over the slice reaches d_j - tol_feas, and per row of objectives
    min c.x, -inf where it is unbounded below."""
    full = Polyhedron(region.constraints.A, region.constraints.d, region.slice.w,
                      region.slice.b)
    tops = [full.minimize(-a, tol_feas) for a in full.A]   # max A_j.x
    minima = [full.minimize(c, tol_feas) for c in objectives]
    assert all(out.status != INFEASIBLE for out in tops + minima)
    touching = [j for j, top in enumerate(tops)
                if top.optimal and -top.value >= full.d[j] - tol_feas]
    return touching, [out.value if out.optimal else -np.inf for out in minima]


def slice_grid(region, k: int = 10_000) -> np.ndarray:
    """k points densely covering a 2-D region's level-set segment.

    Endpoint extraction uses the library LP (the only way to touch the
    polytope), but the grid itself and any evaluation on it are
    library-free.
    """
    w, b = region.slice.w, region.slice.b
    t = np.array([-w[1], w[0]])
    full = Polyhedron(region.constraints.A, region.constraints.d, w, b)
    ends = []
    for direction in (t, -t):   # the two ends: min and max of t.x
        out = full.minimize(direction)
        if out.status == UNBOUNDED:
            # clamp an unbounded slice with the standard domain box (or a
            # big box when the slice misses it); the grid then covers a
            # finite stretch of the segment
            for half in (3.0, 1e6):
                out = full.within(np.array([[-half, half]] * 2)).minimize(direction)
                if out.optimal:
                    break
        assert out.optimal, f"segment endpoint LP came back {out.status}"
        ends.append(out.point)
    ts = np.linspace(0.0, 1.0, k)[:, None]
    return ends[0][None, :] * (1 - ts) + ends[1][None, :] * ts


def patch_samples(region, domain, rng, k: int = 4000) -> np.ndarray:
    """Points of the patch inside the domain box, drawn without its frame:
    k uniform points of the box projected onto the hyperplane, kept where
    they stay in the box and obey every row of the region exactly."""
    w = region.slice.w
    xs = rng.uniform(domain[:, 0], domain[:, 1], size=(k, len(w)))
    if w.any():
        xs -= np.outer(xs @ w + region.slice.b, w) / (w @ w)
    inside = np.all((xs >= domain[:, 0]) & (xs <= domain[:, 1]), axis=1)
    return xs[inside & region.constraints.contains(xs, 0.0)]


def lp_bounding_box(sl: Polyhedron, domain: np.ndarray | None = None,
                    tol_feas: float = 1e-7):
    """Coordinate-wise bounds of a slice by LP: the min and max of each
    coordinate, 2n objectives solved by one `minimize` each; the
    reference for `geometry.bounding_box`, which reads them off the frame.

    Returns (box (n,2), sample points, restricted) or None when infeasible;
    ``restricted`` is set when an unbounded coordinate was clamped to the
    supplied domain box.
    """
    dim = sl.dim
    # objectives x1, -x1, x2, -x2, ...: minimising -x_i gives max x_i
    signs = np.tile([1.0, -1.0], dim)
    objectives = np.repeat(np.eye(dim), 2, axis=0) * signs[:, None]
    outcomes = [sl.minimize(c, tol_feas) for c in objectives]
    if outcomes[0].status == INFEASIBLE:
        return None
    box = np.empty((dim, 2))
    points = []
    restricted = False
    for k, outcome in enumerate(outcomes):
        i, side = divmod(k, 2)
        if outcome.optimal:
            box[i, side] = signs[k] * outcome.value
            points.append(outcome.point)
        elif domain is None:
            raise ValueError("unbounded slice and no domain box to restrict to")
        else:
            box[i, side] = domain[i, side]
            restricted = True
    return box, points, restricted


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

def weighted_sum(coefs, exprs):
    """sum_i coefs[i] * exprs[i] as one expression: Binary("*", Const(c), e)
    terms joined by Binary("+") from the left.  Zero coefficients are left
    out; an empty sum is Const(0.0).  The reference for each row of
    `expressions._weighted` (its own row of coefficients) and for the SMT
    export's w.f text."""
    terms = [Binary("*", Const(float(c)), e) for c, e in zip(coefs, exprs) if c != 0.0]
    return functools.reduce(functools.partial(Binary, "+"), terms) if terms else Const(0.0)


def reference_enclosure(e, box):
    """The natural interval extension of e over one (n, 2) box, one node at
    a time in Python floats with the C library's functions, as the scalar
    code that `interval_evaluate` replaced computed it: (lo, hi), or None
    where a node's enclosure is not finite, divides by an interval holding
    0 or takes ln of one reaching <= 0."""
    two_pi = 2.0 * math.pi

    def reaches(offset, lo, hi):
        return offset + two_pi * math.ceil((lo - offset) / two_pi) <= hi

    def walk(e):
        if isinstance(e, Var):
            lo, hi = float(box[e.index, 0]), float(box[e.index, 1])
        elif isinstance(e, Const):
            lo = hi = float(e.value)
        elif isinstance(e, Pow):
            a, b = walk(e.base)
            ends = (a ** e.exponent, b ** e.exponent)
            if e.exponent == 0:
                lo, hi = 1.0, 1.0
            elif e.exponent % 2:
                lo, hi = ends
            else:
                lo, hi = (0.0 if a <= 0.0 <= b else min(ends)), max(ends)
        elif isinstance(e, Unary):
            a, b = walk(e.arg)
            if e.name == "-":
                lo, hi = -b, -a
            elif e.name in ("sin", "cos"):
                f, peak, trough = ((math.sin, math.pi / 2, -math.pi / 2) if e.name == "sin"
                                   else (math.cos, 0.0, math.pi))
                full = b - a >= two_pi
                lo = -1.0 if full or reaches(trough, a, b) else min(f(a), f(b))
                hi = 1.0 if full or reaches(peak, a, b) else max(f(a), f(b))
            elif e.name == "ln" and a <= 0.0:
                raise ValueError("ln of an interval reaching <= 0")
            else:
                f = {"tanh": math.tanh, "exp": math.exp, "ln": math.log}[e.name]
                lo, hi = f(a), f(b)
        else:
            (al, ah), (bl, bh) = walk(e.left), walk(e.right)
            if e.op == "+":
                lo, hi = al + bl, ah + bh
            elif e.op == "-":
                lo, hi = al - bh, ah - bl
            elif e.op == "/" and bl <= 0.0 <= bh:
                raise ValueError("division by an interval holding 0")
            else:
                ends = ((al * bl, al * bh, ah * bl, ah * bh) if e.op == "*"
                        else (al / bl, al / bh, ah / bl, ah / bh))
                lo, hi = min(ends), max(ends)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise OverflowError("an enclosure that is not finite")
        return lo, hi

    try:
        return walk(e)
    except (OverflowError, ValueError):   # Python's float ** and math.exp raise OverflowError
        return None


CASCADE4D = ["-x1",
             "x1 - 2*x2",
             "x1 - 4*x3",
             "x1 - 3*x4"]

DECAY6D = [f"-x{i}*(1 + x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + x6^2)"
           for i in range(1, 7)]

ALL_SYSTEMS = {2: CUBIC2D, 3: TRANSCENDENTAL3D, 4: CASCADE4D, 6: DECAY6D}

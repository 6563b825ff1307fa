"""Per-region condition checks: LP route, branch-and-bound and its seeds,
set conditions, and the end-to-end certificate pipeline."""

import dataclasses
import json
import math
from collections import Counter, deque

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relubarrier import (DEFAULT_CONFIG, FALSIFIED, UNKNOWN, VERIFIED,
                         ActivationIndicator, DynamicsSystem,
                         NumericalFailure, Polyhedron, ReluNetwork, boundary_propagation,
                         brute_force_valid_regions, build_report, build_valid_region,
                         check_initial_condition, check_invariance,
                         check_unsafe_condition, enumerate_level_set, evaluate,
                         interval_evaluate, load_problem,
                         parse_expression, verify_certificate, write_report)
from relubarrier import conditions
from relubarrier.config import FALSIFY_GATE
from relubarrier.geometry import bounding_box, frame, inscribed_ball
from relubarrier.regions import ValidRegion, valid_test

from helpers import (SCHEMA, affine_system, counted_lp_solves, diamond_net,
                     failing_validity_lps, frame_nets, ill_scaled_deep_net, indicator_of, load_bench_module, patch_samples, random_hidden_net,
                     reference_probe, slice_grid, strip_net, weighted_sum, write_problem,
                     ALL_SYSTEMS, CUBIC2D, TRANSCENDENTAL3D)


def ind(*bits):
    return ActivationIndicator((tuple(bits),))


def diamond_regions():
    net = diamond_net()
    seed = build_valid_region(net, ind(1, 0, 1, 0))
    return net, boundary_propagation(net, seed).regions


def first_quadrant_region():
    net = diamond_net()
    return net, build_valid_region(net, ind(1, 0, 1, 0))


def w_dot_f(region, sys):
    """The region's invariance objective g = w.f."""
    return weighted_sum(region.slice.w, sys.exprs)


def bab(region, sys, cfg=DEFAULT_CONFIG):
    """BaB's verdict on the region's invariance objective w.f, the region
    run alone."""
    return conditions._bab([region], sys.exprs, [region.slice.w], cfg)[0]


# -- affine route ------------------------------------------------------------------

def test_affine_route_stable_flow_bound_one():
    _net, region = first_quadrant_region()[0], None
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    verdict = check_invariance(net, [region], sys).region_verdicts[0]
    assert verdict.status == VERIFIED
    assert verdict.bound == pytest.approx(1.0, abs=1e-9)
    assert verdict.method == "lp"


def test_affine_route_constant_negative_falsifies():
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["1", "0"], dim=2)
    verdict = check_invariance(net, [region], sys).region_verdicts[0]
    assert verdict.status == FALSIFIED
    assert verdict.witness is not None
    # witness on the slice segment with value exactly -1
    assert region.slice.contains(verdict.witness, tol=1e-7)
    assert verdict.witness_value == pytest.approx(-1.0, abs=1e-9)


def test_affine_route_zero_field_verified():
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["0", "0"], dim=2)
    verdict = check_invariance(net, [region], sys).region_verdicts[0]
    assert verdict.status == VERIFIED
    assert verdict.bound == pytest.approx(0.0, abs=1e-12)


def test_affine_route_minimum_inside_the_float_noise_band_is_unknown():
    """A patch minimum between the witness gate and -tol_margin is neither
    verified nor a witness: the affine route leaves it unknown with its
    bound.  g = 0.9999999995 - x1 reaches -5e-10 at (1, 0) on the x1 > 0
    patches, above the gate -1e-9 and below -tol_margin = 0."""
    net, regions = diamond_regions()
    result = check_initial_condition(net, regions, parse_expression("x1 - 0.9999999995", 2))
    rows = {v.indicator.compact(): v for v in result.region_verdicts}
    assert {v.method for v in rows.values()} == {"lp"}
    assert rows["0101"].status == rows["0110"].status == VERIFIED
    for compact in ("1001", "1010"):
        v = rows[compact]
        assert (v.status, v.note, v.witness) == (UNKNOWN, "optimum inside the float-noise band", None)
        assert -FALSIFY_GATE < v.bound < -DEFAULT_CONFIG.tol_margin
        assert v.bound == pytest.approx(-5.0e-10, rel=1e-5)


def test_affine_route_completeness_against_grid():
    net, regions = diamond_regions()
    rng = np.random.default_rng(8)
    for _ in range(20):
        F = rng.normal(size=(2, 2))
        c = rng.normal(size=2)
        sys = affine_system(F, c)
        for region in regions:
            verdict = check_invariance(net, [region], sys).region_verdicts[0]
            pts = slice_grid(region, 2000)
            vals = (pts @ F.T + c) @ region.slice.w
            grid_min = vals.min()
            if abs(verdict.bound if verdict.bound is not None else grid_min) <= 1e-5:
                continue  # too marginal for a grid comparison
            if verdict.status == VERIFIED:
                assert grid_min >= -1e-5
            elif verdict.status == FALSIFIED:
                assert grid_min <= 1e-5


def test_affine_route_rejects_a_nonaffine_weighted_flow():
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(CUBIC2D, dim=2)
    assert check_invariance(net, [region], sys).region_verdicts[0].method != "lp"


@pytest.mark.parametrize("flow, status", [
    (["-x1", "sin(x2)"], VERIFIED),                # w.f = 1 on both lines
    (["x1", "x2^3 - x2"], FALSIFIED),              # w.f = -1 on both lines
    (["0.5 - x2 / 4", "x1*sin(x2)"], FALSIFIED),   # unbounded below along them
])
def test_weighted_flow_affine_where_the_flow_is_not_is_decided_by_lp(flow, status):
    """h = 1 - |x1| has w = (-+1, 0) on its two patches, the lines x1 = +-1:
    the nonlinear second component carries weight 0, so w.f is affine there
    and the patch's frame decides it exactly, in agreement with a slice grid."""
    net = strip_net()
    regions = [build_valid_region(net, c) for c in brute_force_valid_regions(net)]
    sys = DynamicsSystem.parse(flow, dim=2)
    result = check_invariance(net, regions, sys)
    assert len(regions) == 2 and all(r.slice.w[1] == 0.0 for r in regions)
    for region, v in zip(regions, result.region_verdicts):
        assert (v.method, v.status, v.domain_restricted) == ("lp", status, False)
        grid_min = min(region.slice.w @ sys(p) for p in slice_grid(region, 2000))
        if status == VERIFIED:
            assert v.bound == pytest.approx(grid_min, abs=1e-9)
        else:
            assert grid_min < 0.0
            assert_checked_witness(region, v, lambda x: region.slice.w @ sys(x))


def test_affine_forms_are_taken_once_per_flow_component_or_set_function(monkeypatch):
    """Whether g is affine depends on the flow or the set function, not on
    the region: one `_linear_form` per flow component, one per set function."""
    calls = []
    original = conditions._linear_form
    monkeypatch.setattr(conditions, "_linear_form",
                        lambda e, dim: calls.append(e) or original(e, dim))
    net, regions = diamond_regions()
    assert len(regions) == 4
    result = check_invariance(net, regions, DynamicsSystem.parse(["-x1", "-x2"], dim=2))
    assert len(calls) == 2
    assert all(v.method == "lp" for v in result.region_verdicts)
    calls.clear()
    result = check_initial_condition(net, regions, parse_expression("0.04 - x1^2 - x2^2", 2))
    assert len(calls) == 1
    assert all(v.method != "lp" for v in result.region_verdicts)


# -- BaB's witness seeds ---------------------------------------------------------------

def seed_batches(monkeypatch):
    """The point batches `_first_witnesses` gets, one list per call (the
    points of each segment in turn); the first call is BaB's seed check."""
    calls = []
    original = conditions._first_witnesses

    def logged(regions, coefs, points, seg, exprs, cfg):
        calls.append([np.array(points[seg == s]) for s in range(len(regions))])
        return original(regions, coefs, points, seg, exprs, cfg)

    monkeypatch.setattr(conditions, "_first_witnesses", logged)
    return calls


def test_falsify_finds_witness_for_constant_negative():
    """w.f = -(1 + x2^2) < 0 on the whole patch: the first vertex is a
    witness."""
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["1 + x2^2", "0"], dim=2)
    hit, = check_invariance(net, [region], sys).region_verdicts
    assert (hit.status, hit.method) == (FALSIFIED, "interval")
    assert np.array_equal(hit.witness, region.vertices[0])
    assert region.slice.contains(hit.witness, tol=1e-6)
    assert hit.witness_value < -1e-9


def test_falsify_absent_for_stable_flow(monkeypatch):
    """w.f = x1^3 + x2^3 >= 1/4 on the patch: no seed is a witness, and BaB
    verifies."""
    batches = seed_batches(monkeypatch)
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["-x1^3", "-x2^3"], dim=2)
    verdict, = check_invariance(net, [region], sys).region_verdicts
    assert (verdict.status, verdict.method, verdict.witness) == (VERIFIED, "interval", None)
    assert batches and np.array_equal(batches[0][0], region.vertices)


def test_the_seed_batch_evaluates_each_expression_over_the_rows_that_weigh_it(monkeypatch):
    """On the diamond under (-x1^3, -x2^3) with both ball sets, BaB's seed
    batch evaluates each expression once, over exactly the seed rows of
    the pairs whose coefficient on it is nonzero (a flow component over
    the invariance pairs', a set function over its own pairs'), not over
    every row of the batch."""
    calls, evaluated = [], []
    first_witnesses, evaluate = conditions._first_witnesses, conditions.evaluate

    def logged(regions, coefs, points, seg, exprs, cfg):
        start = len(evaluated)
        hits = first_witnesses(regions, coefs, points, seg, exprs, cfg)
        calls.append((np.array(coefs), np.bincount(seg, minlength=len(regions)).tolist(), exprs,
                      evaluated[start:]))
        return hits

    monkeypatch.setattr(conditions, "_first_witnesses", logged)
    monkeypatch.setattr(conditions, "evaluate",
                        lambda e, x: evaluated.append((e, len(x))) or evaluate(e, x))
    net, regions = diamond_regions()
    targets = {"invariance": DynamicsSystem.parse(["-x1^3", "-x2^3"], dim=2),
               "initial": parse_expression("0.04 - x1^2 - x2^2", 2),
               "unsafe": parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2)}
    conditions._check_conditions(net, regions, targets, DEFAULT_CONFIG)
    coefs, sizes, exprs, seen = calls[0]
    assert len(coefs) == 3 * len(regions) and len(exprs) == 4
    want = [(e, sum(m for m, c in zip(sizes, coefs[:, j]) if c != 0.0)) for j, e in enumerate(exprs)]
    assert all(0 < rows < sum(sizes) for _e, rows in want)
    assert [(id(e), rows) for e, rows in seen] == [(id(e), rows) for e, rows in want]


def test_falsify_sign_change_matches_grid_oracle():
    """Cubic flow whose w.f changes sign along the slice segment."""
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(CUBIC2D, dim=2)
    pts = slice_grid(region, 10_000)
    w = region.slice.w
    grid_vals = np.array([w @ sys(p) for p in pts[::10]])
    hit, = check_invariance(net, [region], sys).region_verdicts
    assert hit.method == "interval"
    if grid_vals.min() < -1e-6:
        assert hit.status == FALSIFIED
        assert hit.witness_value < -1e-9
        direct = w @ sys(np.asarray(hit.witness))
        assert hit.witness_value == pytest.approx(direct, rel=1e-9, abs=1e-12)
    else:
        assert hit.status != FALSIFIED


def test_falsify_solves_no_lp(monkeypatch):
    """w.f = 0 on the flat patch, so BaB checks its seeds and every simplex
    up to its budget and finds no witness, with no LP anywhere."""
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)
    calls = counted_lp_solves(monkeypatch)
    verdict, = check_invariance(net, [region], sys,
                                DEFAULT_CONFIG.updated(bab_max_boxes=50)).region_verdicts
    assert (verdict.status, verdict.method, verdict.witness) == (UNKNOWN, "interval", None)
    assert calls == []


def test_falsify_checks_its_points_in_one_call(monkeypatch):
    """h = 1 - relu(x1) - relu(x2) has a segment and two half-lines as
    patches.  BaB's first batch holds, for all three at once, each patch's
    vertices and then each vertex moved 1, 2, 4, 8 and 16 domain-box widths
    along each ray (a width is 6 on the default domain box).  w.f is
    positive on every patch (1 + x2^2, 1 + x1^2, 2 + |x|^2), so no point
    is a witness."""
    batches = seed_batches(monkeypatch)
    net = ReluNetwork([np.eye(2)], [np.zeros(2)], -np.ones(2), 1.0)
    regions = [build_valid_region(net, c) for c in brute_force_valid_regions(net)]
    sys = DynamicsSystem.parse(["-1 - x1^2", "-1 - x2^2"], dim=2)
    result = check_invariance(net, regions, sys)
    assert [len(r.rays) for r in regions] == [1, 1, 0]
    assert all(v.status == VERIFIED for v in result.region_verdicts)
    assert len(batches[0]) == len(regions)
    for region, seeds in zip(regions, batches[0]):
        steps = [6.0 * 2.0 ** k * ray for k in range(5) for ray in region.rays]
        assert np.array_equal(seeds, np.vstack([region.vertices]
                                               + [region.vertices + s for s in steps]))


# -- branch and bound ------------------------------------------------------------------

def test_bab_certifies_stable_flow():
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    verdict = bab(region, sys)
    assert verdict.status == VERIFIED
    assert verdict.bound is not None and verdict.bound >= -1e-9


def test_bab_falsifies_constant_negative():
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["1", "0"], dim=2)
    verdict = bab(region, sys)
    assert verdict.status == FALSIFIED
    assert verdict.witness is not None
    assert region.slice.contains(verdict.witness, tol=1e-6)


def test_bab_cubic_inward_verified():
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["-x1^3", "-x2^3"], dim=2)
    verdict = bab(region, sys)
    assert verdict.status == VERIFIED


def test_bab_flat_case_margin_semantics():
    """w.f identically 0 on the slice: Unknown at zero margin, Verified
    with any positive margin."""
    net, region = first_quadrant_region()
    # w = (-1,-1): w.f = -(x2^3) - (-x2^3) = 0 pointwise, but the interval
    # enclosure of the difference never collapses
    sys = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)
    verdict = bab(region, sys)
    assert verdict.status == UNKNOWN
    # a margin above the residual enclosure width at the minimum box size
    cfg = DEFAULT_CONFIG.updated(tol_margin=1e-3)
    verdict = bab(region, sys, cfg)
    assert verdict.status == VERIFIED


def test_bab_verified_never_contradicted_by_sampling():
    net, regions = diamond_regions()
    systems = [DynamicsSystem.parse(["-x1^3", "-x2^3"], dim=2),
               DynamicsSystem.parse(["-x1 - x2^2 * x1", "-x2"], dim=2),
               DynamicsSystem.parse(CUBIC2D, dim=2)]
    for sys in systems:
        for region in regions:
            verdict = bab(region, sys)
            if verdict.status != VERIFIED:
                continue
            pts = slice_grid(region, 10_000)
            vals = np.array([region.slice.w @ sys(p) for p in pts[::7]])
            assert vals.min() >= -DEFAULT_CONFIG.tol_margin - 1e-9


def test_margin_monotonicity_never_flips_verified_to_falsified():
    net, regions = diamond_regions()
    sys = DynamicsSystem.parse(CUBIC2D, dim=2)
    for region in regions:
        small = bab(region, sys, DEFAULT_CONFIG.updated(tol_margin=0.0))
        large = bab(region, sys, DEFAULT_CONFIG.updated(tol_margin=0.5))
        if small.status == VERIFIED:
            assert large.status == VERIFIED


def record_enclosures(monkeypatch):
    """Run-time log of the (expression, boxes) batches `_bab` hands
    `interval_evaluate`."""
    log = []
    original = conditions.interval_evaluate

    def logged(e, boxes):
        log.append((e, np.array(boxes, dtype=float)))
        return original(e, boxes)

    monkeypatch.setattr(conditions, "interval_evaluate", logged)
    return log


def enclosed(log, sys, g):
    """(box, lower bound of g's enclosure there) for every box BaB enclosed,
    level by level: every flow component is enclosed over the same batch,
    and BaB reads g's enclosure off theirs float for float (as
    test_weighted_is_the_enclosure_of_the_weighted_sum checks)."""
    first = [boxes for e, boxes in log if e is sys.exprs[0]]
    assert [boxes.tobytes() for e, boxes in log] == [
        boxes.tobytes() for boxes in first for _ in sys.exprs]
    return [(box, lo) for boxes in first for box, lo in zip(boxes, interval_evaluate(g, boxes)[:, 0])]


def test_bab_encloses_each_simplex_box_widened_by_tol_feas(monkeypatch):
    """Simplex vertices lie on the slice only up to rounding, and a witness
    may sit tol_feas off it, so each enclosure covers a simplex's vertex box
    widened by tol_feas on every side, clipped only at an exact
    single-coordinate bound.  Replayed from the patch's simplices, breadth
    first: a simplex its enclosure does not certify is split at the
    midpoint of its longest edge."""
    net = random_hidden_net(np.random.default_rng(0), neurons=6)
    regions = [build_valid_region(net, c) for c in brute_force_valid_regions(net)]
    sys = DynamicsSystem.parse(CUBIC2D, dim=2)
    cfg = DEFAULT_CONFIG
    log = record_enclosures(monkeypatch)
    split = 0
    for region in regions:
        log.clear()
        bab(region, sys, cfg)
        exact = conditions._axis_bounds(region.slice)
        queue = deque(conditions._simplices(region, cfg)[0] if log else [])
        for box, lo in enclosed(log, sys, w_dot_f(region, sys)):
            simplex = queue.popleft()
            want = np.column_stack([simplex.min(axis=0) - cfg.tol_feas,
                                    simplex.max(axis=0) + cfg.tol_feas])
            assert np.array_equal(box, np.clip(want, exact[:, :1], exact[:, 1:]))
            if lo >= -cfg.tol_margin:
                continue
            edges = np.linalg.norm(simplex[:, None] - simplex[None], axis=2)
            i, j = np.unravel_index(np.argmax(edges), edges.shape)
            left, right = simplex.copy(), simplex.copy()
            left[j] = right[i] = 0.5 * (simplex[i] + simplex[j])
            queue.extend([left, right])
            split += 1
    assert split >= 20


def test_bab_simplex_vertices_lie_on_the_slice(monkeypatch):
    """Every simplex vertex lies on the slice within tol_feas: those of the
    patch's triangulation, on bounded and domain-clamped patches of 2-D and
    3-D nets, and every point BaB checks as a witness (a simplex's vertices
    and centroid) down to the budget on the diamond's flat patch."""
    points = []
    original = conditions._first_witnesses

    def logged(regions, coefs, batch, seg, exprs, cfg):
        points.extend(np.array(batch[seg == s], dtype=float) for s in range(len(regions)))
        return original(regions, coefs, batch, seg, exprs, cfg)

    monkeypatch.setattr(conditions, "_first_witnesses", logged)
    net, region = first_quadrant_region()
    bab(region, DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2),
        DEFAULT_CONFIG.updated(bab_max_boxes=200))
    checked = [(region.slice, p) for p in points]
    rng = np.random.default_rng(9)
    restricted = 0
    for n in (2, 2, 3, 3):
        net = random_hidden_net(rng, n_in=n, neurons=5)
        for region in (build_valid_region(net, c) for c in brute_force_valid_regions(net)):
            simplices, clamped = conditions._simplices(region, DEFAULT_CONFIG)
            if simplices is not None:
                checked.append((region.slice, simplices.reshape(-1, n)))
                restricted += clamped
    assert restricted >= 5 and sum(len(points) for _sl, points in checked) > 500
    for sl, points in checked:
        assert sl.contains(points, DEFAULT_CONFIG.tol_feas).all()


def test_bab_certified_boxes_cover_every_verified_patch(monkeypatch):
    """Each sampled point of a patch that BaB verifies lies in some enclosed
    box whose lower bound certified: no part of the patch escapes the
    proof, whose bound is the least such lower bound (a zero's sign too), on the diamond's patches and those of random 2-D and 3-D nets,
    bounded and clamped to the domain box (sampled inside it only)."""
    flows = {2: [DynamicsSystem.parse(flow, dim=2) for flow in (
        ["-x1^3", "-x2^3"], ["-x1*(1 + x1^2 + x2^2)", "-x2*(1 + x1^2 + x2^2)"], CUBIC2D)],
             3: [DynamicsSystem.parse(flow, dim=3) for flow in (
        ["-x1^3", "-x2^3", "-x3^3"], TRANSCENDENTAL3D)]}
    _net, patches = diamond_regions()
    rng = np.random.default_rng(4)
    for n in (2, 2, 2, 3, 3):
        net = random_hidden_net(rng, n_in=n, neurons=5)
        patches += [build_valid_region(net, c) for c in brute_force_valid_regions(net)]
    log = record_enclosures(monkeypatch)
    verified = Counter()
    for region in patches:
        n = region.slice.dim
        pts = patch_samples(region, DEFAULT_CONFIG.domain(n), rng)
        for sys in flows[n]:
            log.clear()
            verdict = bab(region, sys)
            if verdict.status != VERIFIED or verdict.vacuous:
                continue
            certified = [(box, lo) for box, lo in enclosed(log, sys, w_dot_f(region, sys))
                         if lo >= -DEFAULT_CONFIG.tol_margin]
            least = min(lo for _box, lo in certified)   # the first of equal lows, as BaB's
            assert np.float64(verdict.bound).tobytes() == np.float64(least).tobytes()
            boxes = np.array([box for box, _lo in certified])
            inside = np.all((pts[:, None] >= boxes[None, :, :, 0])
                            & (pts[:, None] <= boxes[None, :, :, 1]), axis=2)
            assert inside.any(axis=1).all()
            verified[n, verdict.domain_restricted] += len(pts) > 0
    assert verified[2, False] >= 15 and verified[3, False] >= 10
    assert verified[2, True] >= 3 and verified[3, True] >= 3


def test_bab_widening_stops_at_exact_single_coordinate_bounds(monkeypatch):
    """The diamond's rows x1 >= 0 and x2 >= 0 bound their coordinate exactly,
    so a minimum of exactly 0 on that bound (w.f = 2 x2^3 on the patch of
    x1 <= 0 <= x2) stays verified."""
    net, regions = diamond_regions()
    region = next(r for r in regions if r.indicator == ind(0, 1, 1, 0))
    sys = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)
    log = record_enclosures(monkeypatch)
    verdict = bab(region, sys)
    assert (verdict.status, verdict.bound) == (VERIFIED, 0.0)
    assert log and all(box[0, 1] == 0.0 and box[1, 0] == 0.0
                       for box, _lo in enclosed(log, sys, w_dot_f(region, sys)))


def batch_pairs():
    """(regions, exprs, coefs) of pairs of every kind BaB meets: the
    diamond's four segments and the three patches of h = 1 - relu(x1) -
    relu(x2) (a segment, two half-lines) under cubic flows, a flat w.f, an
    overflowing set function and two nonlinear ones, one negative only
    about (0.5, 0.5), in the middle of a segment; and the degenerate half-plane
    of h = relu(x1) - relu(x1) (w = 0, so its simplices are triangles, the
    others' segments) under three nonlinear set functions, one negative
    only about the centroid (2, 1) of its first triangle."""
    _net, diamond = diamond_regions()
    lines = ReluNetwork([np.eye(2)], [np.zeros(2)], -np.ones(2), 1.0)
    zero = ReluNetwork([np.array([[1.0, 0.0], [1.0, 0.0]])], [np.zeros(2)],
                       np.array([1.0, -1.0]), 0.0)
    flat = build_valid_region(zero, ind(1, 1))
    assert flat.degenerate
    exprs = [parse_expression(t, 2) for t in CUBIC2D + [
        "-x1^3", "-x2^3", "x2^3", "-x2^3", "exp(1000*x1)", "0.04 - x1^2 - x2^2",
        "0.04 - (x1 - 1)^2 - x2^2", "-1 - x1^2", "1 - 100*((x1 - 0.5)^2 + (x2 - 0.5)^2)",
        "0.25 - (x1 - 2)^2 - (x2 - 1)^2"]]
    regions, coefs = [], []
    for region in diamond + [build_valid_region(lines, c) for c in brute_force_valid_regions(lines)]:
        w = region.slice.w
        for row in ({0: w[0], 1: w[1]}, {2: w[0], 3: w[1]}, {4: w[0], 5: w[1]}, {6: 1.0},
                    {10: -1.0}, {7: -1.0}):
            regions.append(region)
            coefs.append([row.get(j, 0.0) for j in range(len(exprs))])
    for j in (8, 9, 11):
        regions.append(flat)
        coefs.append([-1.0 if k == j else 0.0 for k in range(len(exprs))])
    return regions, exprs, coefs


def test_bab_gives_each_pair_of_a_batch_the_verdict_it_gets_alone(monkeypatch):
    """Batching never leaks between pairs: one `_bab` call over the pairs
    of `batch_pairs` at a budget of 5 simplices gives each pair its verdict
    run alone, field for field (witness bytes included).  The call covers
    verified rows, rows falsified at a seed, inside a segment and at a
    triangle's centroid (in the level where earlier runs' enclosures
    fail), a spent budget, a failed
    enclosure, patches cut to the domain box and both simplex shapes."""
    shapes, original = set(), conditions._simplices

    def logged(region, cfg):
        simplices, restricted = original(region, cfg)
        shapes.add(simplices.shape[1])
        return simplices, restricted

    monkeypatch.setattr(conditions, "_simplices", logged)
    regions, exprs, coefs = batch_pairs()
    cfg = DEFAULT_CONFIG.updated(bab_max_boxes=5)
    together = conditions._bab(regions, exprs, coefs, cfg)
    assert shapes == {2, 3}
    for region, weights, got in zip(regions, coefs, together):
        alone, = conditions._bab([region], exprs, [weights], cfg)
        assert row(got) == row(alone)
        assert got.witness is None or got.witness.tobytes() == alone.witness.tobytes()
    statuses = Counter((v.status, v.note.split(":")[0], v.domain_restricted) for v in together)
    assert statuses[VERIFIED, "", False] and statuses[FALSIFIED, "", False]
    assert statuses[UNKNOWN, "box budget 5 exhausted", False]
    assert statuses[UNKNOWN, "interval enclosure failed", False]
    assert statuses[VERIFIED, "", True] and statuses[UNKNOWN, "box budget 5 exhausted", True]
    assert any(v.witness is not None and not (v.witness == region.vertices).all(axis=1).any()
               for region, v in zip(regions, together))
    flat = [v for region, v in zip(regions, together) if region.degenerate]
    assert [v.status for v in flat] == [UNKNOWN, VERIFIED, FALSIFIED]
    assert flat[2].witness.tolist() == [2.0, 1.0]


def test_bab_encloses_each_expression_once_per_level(monkeypatch):
    """However many pairs weigh an expression, BaB encloses it once per
    level: as often as the pair that weighs it and runs the most levels
    alone encloses it."""
    log = record_enclosures(monkeypatch)
    regions, exprs, coefs = batch_pairs()
    conditions._bab(regions, exprs, coefs, DEFAULT_CONFIG)
    together = Counter(id(e) for e, _boxes in log)
    for j, e in enumerate(exprs):
        levels = []
        for region, row in zip(regions, coefs):
            if row[j] != 0.0:
                log.clear()
                conditions._bab([region], exprs, [row], DEFAULT_CONFIG)
                levels.append(sum(x is e for x, _boxes in log))
        assert together[id(e)] == max(levels)
        if j in (4, 5):   # the flat w.f
            assert sorted(levels) == [1, 1, 1, 12, 12, 12]


def test_simplices_tile_the_patch():
    """On the regions of random 2-5-D nets, the bench's polytope nets (with
    degenerate vertices: one point on more than k rows), lineality and zero
    pieces: the simplices' k-volumes sum to the patch's (the hull of its
    vertices, or of the vertices of its cut to the domain box), and
    sampled points of the patch (convex combinations of its vertices, and
    points of the hyperplane inside the domain box that obey every row)
    fall in at least one simplex."""
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(17)
    cfg = DEFAULT_CONFIG
    counts = Counter()
    for net in frame_nets():
        for indicator in brute_force_valid_regions(net):
            region = build_valid_region(net, indicator)
            simplices, restricted = conditions._simplices(region, cfg)
            if simplices is None:
                counts["outside"] += 1
                continue
            if restricted:
                box, _ = bounding_box(region.vertices, region.rays, cfg.domain(net.input_dim))
                vertices, _, tight = frame(region.slice.within(box), cfg.tol_feas)
            else:
                vertices, tight = region.vertices, region.tight
            k = simplices.shape[1] - 1
            origin = vertices[0]
            basis = np.linalg.svd(vertices - origin)[2][:k].T    # the patch's own axes
            coords = (simplices - origin) @ basis
            volumes = np.abs(np.linalg.det(coords[:, 1:] - coords[:, :1])) / math.factorial(k)
            hull = (vertices - origin) @ basis
            whole = (np.ptp(hull) if k == 1 else spatial.ConvexHull(hull).volume) if k else 1.0
            assert volumes.sum() == pytest.approx(whole, rel=1e-9, abs=1e-12)
            weights = rng.dirichlet(np.ones(len(vertices)), size=200)
            points = np.vstack([weights @ vertices, patch_samples(region, cfg.domain(net.input_dim), rng)])
            if k:
                inverse = np.linalg.inv(coords[:, 1:] - coords[:, :1])   # rows: barycentric map
                local = np.einsum("pk,skj->psj", (points - origin) @ basis, inverse) \
                    - np.einsum("sk,skj->sj", coords[:, 0], inverse)[None]
                bary = np.concatenate([1.0 - local.sum(axis=2, keepdims=True), local], axis=2)
                assert (bary >= -1e-9).all(axis=2).any(axis=1).all()
            counts["restricted" if restricted else "bounded"] += 1
            counts[k] += 1
            counts["degenerate"] += bool((tight.sum(axis=1) > k).any())
    assert counts["bounded"] > 100 and counts["restricted"] > 100
    assert counts[1] and counts[2] and counts[3] and counts[4] and counts["degenerate"]


def test_a_witness_inside_a_bounded_patch_comes_from_bab(monkeypatch):
    """h = 1 - |x1| - |x2| - |x3|; on its first-octant patch (a triangle)
    w.f = 100 ((x1 - c1)^2 + (x2 - c2)^2) - 1 is negative only on a small
    disc: no seed (the vertices; the patch has no rays) is a witness, and
    BaB's simplices reach into the disc."""
    batches = seed_batches(monkeypatch)
    net = ReluNetwork([np.kron(np.eye(3), [[1.0], [-1.0]])], [np.zeros(6)], -np.ones(6), 1.0)
    region = build_valid_region(net, ind(1, 0, 1, 0, 1, 0))
    for c1, c2 in ((0.2, 0.5), (0.5, 0.2), (0.3, 0.3)):
        sys = DynamicsSystem.parse([f"1 - 100*((x1 - {c1})^2 + (x2 - {c2})^2)", "0", "0"],
                                   dim=3)
        g = w_dot_f(region, sys)
        batches.clear()
        result = check_invariance(net, [region], sys)
        verdict, = result.region_verdicts
        assert (result.status, verdict.status, verdict.method) == (FALSIFIED, FALSIFIED, "interval")
        assert np.array_equal(batches[0][0], region.vertices)
        assert not any(np.array_equal(verdict.witness, v) for v in region.vertices)
        assert np.hypot(verdict.witness[0] - c1, verdict.witness[1] - c2) < 0.1
        assert_checked_witness(region, verdict, lambda x: evaluate(g, x))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-0.25, 1.25), st.sampled_from([0.0, 3e-8, -3e-8, 1e-6, 0.2])),
                min_size=1, max_size=8),
       st.sampled_from([["1/(x1 - 0.5)", "0"], ["ln(x2)", "-x1"], ["exp(1000*x1)", "-x2"],
                        ["x1*x2 - 0.3", "x1^3"]]))
def test_batched_witness_check_is_the_per_row_definition(rows, flow):
    """A row is a witness exactly when it lies on the slice within tol_feas
    and g, evaluated there alone, is finite and below
    -max(tol_margin, FALSIFY_GATE); the check returns that value, else NaN."""
    _net, region = first_quadrant_region()
    sl, cfg = region.slice, DEFAULT_CONFIG
    gate = -max(cfg.tol_margin, FALSIFY_GATE)
    g = w_dot_f(region, DynamicsSystem.parse(flow, dim=2))
    normal = sl.w / np.linalg.norm(sl.w)
    points = np.array([[t, 1.0 - t] + off * normal for t, off in rows])
    values = conditions._checked_witness(sl, points, evaluate(g, points), cfg)
    for x, got in zip(points, values):
        v = evaluate(g, x)
        checked = sl.contains(x, cfg.tol_feas) and np.isfinite(v)
        assert got == v if checked else np.isnan(got)
        assert (got < gate) == (checked and v < gate)


def test_bab_verifies_the_decay_flow_on_bounded_patches():
    """Decay flow on the diamond's bounded patches: w.f = 1 + |x|^2 there."""
    net, regions = diamond_regions()
    sys = DynamicsSystem.parse(["-x1*(1 + x1^2 + x2^2)", "-x2*(1 + x1^2 + x2^2)"], dim=2)
    result = check_invariance(net, regions, sys)
    assert result.status == VERIFIED
    assert all((v.method, v.domain_restricted, v.witness) == ("interval", False, None)
               for v in result.region_verdicts)


def test_a_patch_bab_leaves_open_has_its_vertices_evaluated_once(monkeypatch):
    """w.f = 0 on the flat patch, so BaB runs out of boxes.  The patch's
    vertices are evaluated once, in the seed check, one call per flow
    component, and never again as a batch of their own."""
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)
    at_vertices, original = [], conditions.evaluate

    def logged(e, x):
        if np.array_equal(np.reshape(x, (-1, 2)), region.vertices):
            at_vertices.append(e)
        return original(e, x)

    monkeypatch.setattr(conditions, "evaluate", logged)
    cfg = DEFAULT_CONFIG.updated(bab_max_boxes=5)
    verdict, = check_invariance(net, [region], sys, cfg).region_verdicts
    assert (verdict.status, verdict.method) == (UNKNOWN, "interval")
    assert verdict.note == "box budget 5 exhausted"
    assert at_vertices == list(sys.exprs)


def test_drift_region_falsified_by_bab_with_checked_witness():
    """Decay flow plus a drift d = (2t(1 + t^2) + 1) u: at x = t u on the
    diamond's first-quadrant patch (t = 1 / (u1 + u2)), w.f < 0."""
    u = np.array([0.6, 0.8])
    t = 1.0 / u.sum()
    d = (2.0 * t * (1.0 + t * t) + 1.0) * u
    sys = DynamicsSystem.parse([f"-x1*(1 + x1^2 + x2^2) + {float(d[0])!r}",
                                f"-x2*(1 + x1^2 + x2^2) + {float(d[1])!r}"], dim=2)
    net, regions = diamond_regions()
    region = next(r for r in regions if r.indicator == ind(1, 0, 1, 0))
    g = weighted_sum(region.slice.w, sys.exprs)
    assert region.slice.contains(t * u) and evaluate(g, t * u) < 0.0
    result = check_invariance(net, regions, sys)
    v = next(v for v in result.region_verdicts if v.indicator == region.indicator)
    assert (v.status, v.method) == (FALSIFIED, "interval")
    off = v.witness + region.slice.w   # leaves the hyperplane
    values = conditions._checked_witness(region.slice, [v.witness, off],
                                         evaluate(g, np.array([v.witness, off])), DEFAULT_CONFIG)
    assert values[0] == v.witness_value < conditions._gate(DEFAULT_CONFIG)
    assert np.isnan(values[1])


def test_a_ray_point_witness_ends_the_patch_before_any_simplex_is_cut(monkeypatch):
    """On the line x1 = 0, w.f = 16 - x2^2 is positive inside the default
    [-3, 3]^2 domain box and negative for |x2| > 4: the seeds out along the
    line's rays, not bound to the box, give the witness, so BaB cuts no
    simplex and the verdict is not domain-restricted."""
    cuts = []
    original = conditions._simplices
    monkeypatch.setattr(conditions, "_simplices",
                        lambda *args: cuts.append(1) or original(*args))
    net = line_net()
    region = build_valid_region(net, brute_force_valid_regions(net)[0])
    sys = DynamicsSystem.parse(["16 - x2^2", "0"], dim=2)
    g = weighted_sum(region.slice.w, sys.exprs)
    verdict, = check_invariance(net, [region], sys).region_verdicts
    assert cuts == []
    assert (verdict.status, verdict.method, verdict.domain_restricted) == \
        (FALSIFIED, "interval", False)
    assert abs(verdict.witness[1]) > 4.0
    assert_checked_witness(region, verdict, lambda x: evaluate(g, x))


def test_a_violation_between_the_ray_points_leaves_a_domain_restricted_verified():
    """h = 1 - relu(x1) - relu(x2); its patch for x1 > 0 > x2 is the half-line
    x1 = 1, x2 <= 0, and w.f = (x2 + 35)^2 / 25 - 1 is negative only for
    -40 < x2 < -30, outside the default [-3, 3]^2 domain box and between
    BaB's ray seeds at 4 and 8 box widths (x2 = -24 and -48).  No seed is
    a witness, BaB verifies the part inside the box, and the verified row
    speaks for that part only."""
    net = ReluNetwork([np.eye(2)], [np.zeros(2)], -np.ones(2), 1.0)
    region = build_valid_region(net, ind(1, 0))
    np.testing.assert_allclose(region.rays, [[0.0, -1.0]], atol=1e-12)
    sys = DynamicsSystem.parse(["1 - (x2 + 35)^2 / 25", "0"], dim=2)
    g = w_dot_f(region, sys)
    stretch = evaluate(g, np.array([[1.0, -24.0], [1.0, -35.0], [1.0, -48.0]]))
    assert stretch[0] > 0.0 > stretch[1] and stretch[2] > 0.0
    verdict, = check_invariance(net, [region], sys).region_verdicts
    assert (verdict.status, verdict.method, verdict.domain_restricted) == (VERIFIED, "interval", True)
    assert verdict.witness is None


def test_bab_witness_on_an_unbounded_patch_ends_the_ladder():
    """On the line x1 = 0, w.f = x2^2 - 1 is negative for |x2| < 1, inside
    the domain box: BaB's checked witness is a violation wherever the patch
    runs, so the verdict is not domain-restricted, and check_invariance
    gives BaB's verdict as it is."""
    net = line_net()
    region = build_valid_region(net, brute_force_valid_regions(net)[0])
    sys = DynamicsSystem.parse(["x2^2 - 1", "0"], dim=2)
    g = weighted_sum(region.slice.w, sys.exprs)
    alone = bab(region, sys)
    assert (alone.status, alone.domain_restricted) == (FALSIFIED, False)
    verdict, = check_invariance(net, [region], sys).region_verdicts
    assert (verdict.status, verdict.method) == (FALSIFIED, "interval")
    assert np.array_equal(verdict.witness, alone.witness)
    assert_checked_witness(region, verdict, lambda x: evaluate(g, x))


def test_no_frame_for_the_cut_patch_leaves_the_row_to_the_search(monkeypatch):
    """When the frame of an unbounded patch cut to the domain box fails
    (NumericalFailure: the steps from its largest ball's centre end off
    it), BaB's row is unknown and domain-restricted, with the reason in its
    note, unless its seeds, checked before any cut, hold a witness: on the
    line x1 = 0 the ray seeds find w.f = 16 - x2^2 < 0 beyond the box."""
    def failing(*args, **kwargs):
        raise NumericalFailure("the steps from the centre of the polyhedron's largest "
                               "ball end off it")

    monkeypatch.setattr(conditions, "frame", failing)
    net = line_net()
    region = build_valid_region(net, brute_force_valid_regions(net)[0])
    for flow, status in ((["16 - x2^2", "0"], FALSIFIED), (["1 + x2^2", "0"], UNKNOWN)):
        verdict, = check_invariance(net, [region], DynamicsSystem.parse(flow, dim=2)).region_verdicts
        assert verdict.status == status
        if status == UNKNOWN:
            assert verdict.domain_restricted and verdict.note.startswith(
                "no frame for the patch cut to the domain box: the steps from the centre")


def test_the_cut_of_a_ray_patch_with_no_vertex_in_the_box_starts_at_its_ball(monkeypatch):
    """The wedge x2 >= -x1, x2 >= x1 - 10 on the plane x3 = 0, with 15
    relaxed copies of each row: its apex (5, -5, 0) lies outside its root
    box [-3, 3] x [-5, 3] x [0, 0], and the cut has C(36, 2) = 630 > 512
    pairs of rows on the plane, so its frame starts from the centre of the
    cut's largest ball (one LP).  The simplices tile the cut, the triangle
    (3, -3), (3, 3), (-3, 3) of area 18."""
    A = np.tile([[1.0, -1.0, 0.0], [-1.0, -1.0, 0.0]], (16, 1))
    d = np.concatenate([[10.0 + j, float(j)] for j in range(16)])
    sl = Polyhedron(A, d, np.array([0.0, 0.0, 1.0]), 0.0)
    region = ValidRegion(ind(0), Polyhedron(A, d), sl, *frame(sl), [()] * len(d))
    assert np.allclose(region.vertices, [[5.0, -5.0, 0.0]])
    balls = []
    monkeypatch.setattr("relubarrier.geometry.inscribed_ball",
                        lambda *args: balls.append(1) or inscribed_ball(*args))
    simplices, restricted = conditions._simplices(region, DEFAULT_CONFIG)
    assert restricted and len(balls) == 1
    areas = np.abs(np.linalg.det(simplices[:, 1:, :2] - simplices[:, :1, :2])) / 2.0
    assert areas.sum() == pytest.approx(18.0) and np.allclose(simplices[..., 2], 0.0)


def test_a_patch_with_no_simplex_leaves_its_row_unknown():
    """On ill_scaled_deep_net(2) this valid region's patch is a segment of
    five frame vertices, the first within tol_feas of every row, so the
    pulling triangulation meets no facet below it and yields no simplex:
    the row is unknown with the reason in its note, not an IndexError."""
    net = ill_scaled_deep_net(2)
    region = build_valid_region(net, indicator_of("01010010.00110000.11001110.01010101"))
    assert len(region.vertices) == 5 and not len(region.rays) and region.tight[0].all()
    spread = np.linalg.svd(region.vertices[1:] - region.vertices[0], compute_uv=False)
    assert spread[1] <= 1e-9 * spread[0]   # on one line
    result = check_initial_condition(net, [region], parse_expression("0.01 - x1^2 - x2^2", 2))
    (verdict,) = result.region_verdicts
    assert (verdict.status, verdict.method, verdict.domain_restricted) == (UNKNOWN, "interval", False)
    assert verdict.note.startswith("no simplex in the pulling triangulation of 5 vertices")


def test_ray_seeds_reach_far_along_a_ray_shaped_patch():
    """h = x1 from hidden units x1, -x1, x2: with the third unit off the
    patch is the ray x1 = 0, x2 <= 0, so every vertex LP ends at its apex.
    w.f = 16 - x2^2 is negative only for x2 < -4, beyond the domain box."""
    net = ReluNetwork([np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])], [np.zeros(3)],
                      np.array([1.0, -1.0, 0.0]), 0.0)
    region = build_valid_region(net, ind(1, 0, 0))
    sys = DynamicsSystem.parse(["16 - x2^2", "0"], dim=2)
    g = weighted_sum(region.slice.w, sys.exprs)
    verdict, = check_invariance(net, [region], sys).region_verdicts
    assert (verdict.status, verdict.method) == (FALSIFIED, "interval")
    assert verdict.witness[1] < -4.0
    assert_checked_witness(region, verdict, lambda x: evaluate(g, x))


# -- invariance aggregation ----------------------------------------------------------

def test_invariance_diamond_stable_all_verified():
    net, regions = diamond_regions()
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    result = check_invariance(net, regions, sys)
    assert result.status == VERIFIED
    assert len(result.region_verdicts) == 4
    for v in result.region_verdicts:
        assert v.status == VERIFIED
        assert v.bound == pytest.approx(1.0, abs=1e-6)


def test_invariance_diamond_drift_falsified_with_witness():
    net, regions = diamond_regions()
    sys = DynamicsSystem.parse(["1", "0"], dim=2)
    result = check_invariance(net, regions, sys)
    assert result.status == FALSIFIED
    falsified = [v for v in result.region_verdicts if v.status == FALSIFIED]
    assert falsified
    for v in falsified:
        region = next(r for r in regions if r.indicator == v.indicator)
        assert region.slice.contains(v.witness, tol=1e-6)
        assert v.witness_value < -1e-9


def test_invariance_empty_regions_raises():
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    with pytest.raises(ValueError, match="empty region list"):
        check_invariance(diamond_net(), [], sys)


def test_witness_revalidation_on_nonlinear_falsified():
    net, regions = diamond_regions()
    sys = DynamicsSystem.parse(["x1^3 + 1", "x2^3"], dim=2)
    result = check_invariance(net, regions, sys)
    for v in result.region_verdicts:
        if v.status == FALSIFIED:
            region = next(r for r in regions if r.indicator == v.indicator)
            assert region.slice.contains(v.witness, tol=1e-6)
            direct = region.slice.w @ sys(np.asarray(v.witness))
            assert direct < -1e-9
            assert direct == pytest.approx(v.witness_value, rel=1e-9, abs=1e-12)


def test_zero_minimum_patches_are_not_falsified():
    """On the diamond under (x1^3 + 1, x2^3), w.f has exact minimum 0 on
    patches 0101 and 0110 (at a patch edge); a witness a float step off
    the patch must not make either `falsified`."""
    net, regions = diamond_regions()
    sys = DynamicsSystem.parse(["x1^3 + 1", "x2^3"], dim=2)
    result = check_invariance(net, regions, sys)
    rows = {v.indicator: v for v in result.region_verdicts}
    for bits in ((0, 1, 0, 1), (0, 1, 1, 0)):
        assert rows[ind(*bits)].status != FALSIFIED


# -- LP-route witnesses ------------------------------------------------------------------

def line_net():
    """h(x) = relu(x1) - relu(-x1) = x1: each valid region's patch is the
    whole line x1 = 0, so a nonconstant affine objective along x2 is
    unbounded below on it."""
    return ReluNetwork([np.array([[1.0, 0.0], [-1.0, 0.0]])], [np.zeros(2)],
                       np.array([1.0, -1.0]), 0.0)


def assert_checked_witness(region, v, g):
    """v's witness lies on the slice, and g evaluated there directly is its
    witness_value, below the falsification gate."""
    cfg = DEFAULT_CONFIG
    assert region.slice.contains(v.witness, tol=cfg.tol_feas)
    direct = g(np.asarray(v.witness))
    assert v.witness_value == pytest.approx(direct, rel=1e-12, abs=1e-12)
    assert direct < -max(cfg.tol_margin, FALSIFY_GATE)


def test_lp_unbounded_objective_falsified_with_checked_witness():
    net = line_net()
    regions = [build_valid_region(net, c) for c in brute_force_valid_regions(net)]
    assert regions
    sys = DynamicsSystem.parse(["x2", "0"], dim=2)
    h_unsafe = parse_expression("x2", 2)
    invariance = check_invariance(net, regions, sys).region_verdicts
    unsafe = check_unsafe_condition(net, regions, h_unsafe).region_verdicts
    single = [check_invariance(net, [r], sys).region_verdicts[0] for r in regions]
    for region, v_inv, v_unsafe, v_single in zip(regions, invariance, unsafe, single):
        checks = ((v_inv, lambda x: region.slice.w @ sys(x)),
                  (v_single, lambda x: region.slice.w @ sys(x)),
                  (v_unsafe, lambda x: -evaluate(h_unsafe, x)))
        for v, g in checks:
            assert (v.status, v.method) == (FALSIFIED, "lp")
            assert v.note == "objective unbounded below"
            assert_checked_witness(region, v, g)
            assert v.witness_value == g(np.asarray(v.witness))


def test_lp_witnesses_of_affine_drift_pass_the_check():
    sys = DynamicsSystem.parse(["-x1 + 0.8", "-x2 - 0.5"], dim=2)
    h_init = parse_expression("x1 - 0.3", 2)
    h_unsafe = parse_expression("0.2 - x2", 2)
    nets = [diamond_net()] + [random_hidden_net(np.random.default_rng(s), neurons=5)
                              for s in range(4)]
    checked = 0
    for net in nets:
        verdict = verify_certificate(net, sys, h_init, h_unsafe)
        if verdict.enumeration is None:
            continue
        for result, g_of in ((verdict.results["invariance"],
                              lambda r: (lambda x: r.slice.w @ sys(x))),
                             (verdict.results["initial"],
                              lambda r: (lambda x: -evaluate(h_init, x))),
                             (verdict.results["unsafe"],
                              lambda r: (lambda x: -evaluate(h_unsafe, x)))):
            for region, v in zip(verdict.enumeration.regions, result.region_verdicts):
                assert v.method == "lp"
                if v.status == FALSIFIED:
                    assert_checked_witness(region, v, g_of(region))
                    checked += 1
    assert checked > 0


def test_lp_point_failing_the_witness_check_gives_unknown(monkeypatch):
    """No falsified verdict without a witness that passed the check."""
    net, region = first_quadrant_region()
    line = line_net()
    line_region = build_valid_region(line, brute_force_valid_regions(line)[0])
    monkeypatch.setattr(Polyhedron, "contains",
                        lambda self, x, tol=1e-7: np.zeros(len(x), dtype=bool))
    bounded = check_invariance(net, [region], DynamicsSystem.parse(["1", "0"], dim=2))
    unbounded = check_invariance(line, [line_region],
                                 DynamicsSystem.parse(["x2", "0"], dim=2))
    bounded, unbounded = bounded.region_verdicts[0], unbounded.region_verdicts[0]
    assert (bounded.status, bounded.witness) == (UNKNOWN, None)
    assert bounded.note == "LP point failed the witness check"
    assert (unbounded.status, unbounded.witness) == (UNKNOWN, None)
    assert unbounded.note == "objective unbounded below; LP point failed the witness check"


def test_the_affine_route_checks_its_witnesses_in_one_batch(monkeypatch):
    """On an all-affine problem with falsified rows in every condition, the
    condition pass evaluates each expression once for its witnesses, all
    candidates in one batch, and each witness value is the float `evaluate`
    gives for g there.  The membership probes, which draw their own points,
    are left out."""
    net, regions = diamond_regions()
    sys = DynamicsSystem.parse(["1", "0"], dim=2)
    h_init, h_unsafe = parse_expression("x1 + 2", 2), parse_expression("x2 + 2", 2)
    calls = []
    monkeypatch.setattr(conditions, "evaluate", lambda e, x: calls.append(e) or evaluate(e, x))
    monkeypatch.setattr(conditions, "_membership_probe", lambda *args: None)
    inv, init, unsafe = conditions._check_conditions(
        net, regions, {"invariance": sys, "initial": h_init, "unsafe": h_unsafe},
        DEFAULT_CONFIG).values()
    exprs = [*sys.exprs, h_init, h_unsafe]
    assert len(calls) == len(exprs) and all(a is b for a, b in zip(calls, exprs))
    checks = [(v, w_dot_f(r, sys)) for r, v in zip(regions, inv.region_verdicts)]
    checks += [(v, weighted_sum([-1.0], [h])) for result, h in ((init, h_init), (unsafe, h_unsafe))
               for v in result.region_verdicts]
    falsified = [(v, g) for v, g in checks if v.status == FALSIFIED]
    assert len(falsified) == 2 + 4 + 4 and all(v.method == "lp" for v, _g in checks)
    for v, g in falsified:
        assert v.witness_value == evaluate(g, v.witness)


def assert_same_condition(a, b):
    """Two ConditionResults agree field for field, probe and rows included."""
    assert (a.status, a.note, a.probe is None) == (b.status, b.note, b.probe is None)
    if a.probe is not None:
        assert np.array_equal(a.probe.point, b.probe.point)
        assert (a.probe.set_value, a.probe.h_value, a.probe.ok, a.probe.samples) == \
            (b.probe.set_value, b.probe.h_value, b.probe.ok, b.probe.samples)
    assert len(a.region_verdicts) == len(b.region_verdicts)
    for u, v in zip(a.region_verdicts, b.region_verdicts):
        assert (u.indicator, u.status, u.method, u.bound, u.witness_value, u.note, u.vacuous,
                u.domain_restricted) == (v.indicator, v.status, v.method, v.bound,
                                         v.witness_value, v.note, v.vacuous, v.domain_restricted)
        assert (u.witness is None and v.witness is None) or np.array_equal(u.witness, v.witness)


CIRCLES = ("0.04 - x1^2 - x2^2", "1 - (x1 - 3)^2 - (x2 - 3)^2")


@pytest.mark.parametrize("case", ["diamond", "budget", "unbounded", "no-unsafe-set",
                                  "no-simplices"])
def test_one_pass_decides_as_the_three_checks_do(case, monkeypatch):
    """verify_certificate decides all three conditions in one pass over the
    (region, condition) pairs; its results equal, field for field, those of
    check_invariance, check_initial_condition and check_unsafe_condition
    called one by one on the same regions: on the diamond under the cubic
    flow, with BaB's budget run out on its flat patches, on the half-lines
    of h = 1 - relu(x1) - relu(x2) (domain-restricted rows), without an
    unsafe set, and with `_simplices` failing on one region, which leaves
    each of that region's pairs that reach the cut unknown."""
    net, flow, cfg = diamond_net(), CUBIC2D, DEFAULT_CONFIG
    h_init, h_unsafe = (parse_expression(text, 2) for text in CIRCLES)
    if case == "budget":
        flow, cfg = ["x2^3", "-x2^3"], cfg.updated(bab_max_boxes=50)
    elif case == "unbounded":
        net, flow = ReluNetwork([np.eye(2)], [np.zeros(2)], -np.ones(2), 1.0), ["-x1^3", "-x2^3"]
    elif case == "no-unsafe-set":
        h_unsafe = None
    elif case == "no-simplices":
        original, failing = conditions._simplices, ind(1, 0, 1, 0)

        def cut(region, cfg):
            if region.indicator == failing:
                raise NumericalFailure("injected")
            return original(region, cfg)

        monkeypatch.setattr(conditions, "_simplices", cut)
    sys = DynamicsSystem.parse(flow, dim=2)
    verdict = verify_certificate(net, sys, h_init, h_unsafe, cfg)
    regions = verdict.enumeration.regions
    assert not verdict.enumeration.partial
    assert_same_condition(verdict.results["invariance"], check_invariance(net, regions, sys, cfg))
    assert_same_condition(verdict.results["initial"],
                          check_initial_condition(net, regions, h_init, cfg))
    if h_unsafe is None:
        assert verdict.status("unsafe") == VERIFIED
        assert verdict.results["unsafe"].region_verdicts == []
    else:
        assert_same_condition(verdict.results["unsafe"],
                              check_unsafe_condition(net, regions, h_unsafe, cfg))
    rows = [v for res in verdict.results.values() for v in res.region_verdicts]
    notes = Counter(v.note for v in rows)
    if case == "diamond":
        assert {v.method for v in rows} == {"interval"}
        assert verdict.status("invariance") == FALSIFIED
    elif case == "budget":
        assert notes["box budget 50 exhausted"] == 2
    elif case == "unbounded":
        assert any(v.domain_restricted for v in rows)
    elif case == "no-simplices":
        assert notes["injected"] >= 2


def test_verify_certificate_cuts_each_patch_into_simplices_once(monkeypatch):
    """With a non-affine flow and non-affine set functions every region has
    three pairs for BaB, and `_simplices` runs at most once per distinct
    region, and exactly once on each region none of whose pairs ended at a
    seed (every row verified or unknown by BaB): on the diamond under the
    decay flow, 4 calls for 12 pairs, and on random nets under the cubic
    flow."""
    cuts = Counter()
    original = conditions._simplices
    monkeypatch.setattr(conditions, "_simplices",
                        lambda region, cfg: cuts.update([id(region)]) or original(region, cfg))
    h_init, h_unsafe = (parse_expression(text, 2) for text in CIRCLES)
    decay = DynamicsSystem.parse(["-x1*(1 + x1^2 + x2^2)", "-x2*(1 + x1^2 + x2^2)"], dim=2)
    rng = np.random.default_rng(12)
    problems = [(diamond_net(), decay)] + [(random_hidden_net(rng, neurons=6),
                                           DynamicsSystem.parse(CUBIC2D, dim=2))
                                          for _ in range(4)]
    reached = 0
    for net, sys in problems:
        cuts.clear()
        verdict = verify_certificate(net, sys, h_init, h_unsafe)
        if verdict.enumeration is None:
            continue
        results = verdict.results.values()
        assert max(cuts.values(), default=0) <= 1
        for i, region in enumerate(verdict.enumeration.regions):
            rows = [res.region_verdicts[i] for res in results]
            if all(v.method == "interval" and v.status != FALSIFIED for v in rows):
                assert cuts[id(region)] == 1
                reached += 1
        if net.input_dim == 2 and sys is decay:
            assert sum(cuts.values()) == len(verdict.enumeration.regions) == 4
    assert reached > 4


# -- set conditions ---------------------------------------------------------------------

def test_initial_condition_verified():
    net, regions = diamond_regions()
    h_init = parse_expression("0.04 - x1^2 - x2^2", 2)
    result = check_initial_condition(net, regions, h_init)
    assert result.status == VERIFIED
    assert result.probe is not None
    assert result.probe.ok
    assert result.probe.h_value > 0


def test_initial_condition_boundary_ball_falsified():
    net, regions = diamond_regions()
    h_init = parse_expression("0.01 - (x1 - 1)^2 - x2^2", 2)
    result = check_initial_condition(net, regions, h_init)
    assert result.status == FALSIFIED
    falsified = [v for v in result.region_verdicts if v.status == FALSIFIED]
    assert falsified
    for v in falsified:
        assert np.linalg.norm(np.asarray(v.witness) - np.array([1.0, 0.0])) < 1e-3


def test_unsafe_condition_verified():
    net, regions = diamond_regions()
    h_unsafe = parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2)
    result = check_unsafe_condition(net, regions, h_unsafe)
    assert result.status == VERIFIED
    assert result.probe.ok
    assert result.probe.h_value < 0


def test_unsafe_condition_boundary_ball_falsified():
    net, regions = diamond_regions()
    h_unsafe = parse_expression("0.01 - (x1 - 1)^2 - x2^2", 2)
    result = check_unsafe_condition(net, regions, h_unsafe)
    assert result.status == FALSIFIED


def test_membership_asymmetry_initial_needs_strict_inside():
    """A set sitting wholly on the h < 0 side passes part one (no slice
    contact at tolerance zero) but must fail the membership probe."""
    net, regions = diamond_regions()
    # tiny ball just outside the vertex (1,0); sup over slice = 0 exactly
    h_init = parse_expression("0.000001 - (x1 - 1.001)^2 - x2^2", 2)
    result = check_initial_condition(net, regions, h_init)
    assert result.status == FALSIFIED
    assert result.probe is not None
    assert not result.probe.ok
    assert result.probe.h_value < 0  # sampled point is outside, h negative


def test_membership_asymmetry_unsafe_needs_strict_outside():
    net, regions = diamond_regions()
    # ball strictly inside the invariant set: h > 0 at every sample
    h_unsafe = parse_expression("0.01 - x1^2 - x2^2", 2)
    result = check_unsafe_condition(net, regions, h_unsafe)
    assert result.status == FALSIFIED
    assert not result.probe.ok
    assert result.probe.h_value > 0


def test_probe_checks_every_sampled_set_point(tmp_path):
    """On the benchmark's affine-2d-16-0 the first sampled initial-set point
    has h > 0, but part of the set lies where h <= 0 (a level-set component
    that propagation never reaches); a later sample in the same batch shows
    it."""
    problems = load_bench_module("problems")
    spec = [p for p in problems.build_workload("enum-affine", 3) if p.name == "affine-2d-16-0"]
    problems.write_workload(spec, str(tmp_path))
    problem = load_problem(spec[0].path)
    verdict = verify_certificate(problem.network, problem.system, problem.h_init,
                                 problem.h_unsafe, problem.config)
    assert verdict.status("initial") == FALSIFIED
    probe = verdict.results["initial"].probe
    assert not probe.ok
    x = np.asarray(probe.point)
    assert spec[0].g_init(x[None, :])[0] > 0.0
    assert problems.net_forward(spec[0].net, x)[0] <= 0.0


def test_affine_set_expression_uses_lp_route():
    net, regions = diamond_regions()
    # half-plane x1 >= 2 misses the diamond; affine handling is exact
    h_init = parse_expression("x1 - 2", 2)
    result = check_initial_condition(net, regions, h_init)
    for v in result.region_verdicts:
        assert v.method == "lp"


# -- condition order ---------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 2])
def test_condition_order_does_not_change_verdicts(seed, monkeypatch):
    """No condition solves an LP (BaB under the radial flows x (|x|^2 - 20)
    and its reverse, and the affine route, read the frame), and each region
    is certified valid from its frame: the enumerations and the four checks
    make no lp_solve call.  Unsafe then invariance on one
    region list gives the verdicts of invariance then unsafe on a fresh
    enumeration: same route, bound and witness."""
    net = random_hidden_net(np.random.default_rng(seed), n_in=2, neurons=6)
    unsafe = parse_expression("x1 - 1", 2)
    calls = counted_lp_solves(monkeypatch)
    methods = set()
    for sign in ("", "-"):
        sys = DynamicsSystem.parse([f"{sign}x1*(x1^2 + x2^2 - 20)",
                                    f"{sign}x2*(x1^2 + x2^2 - 20)"], dim=2)
        regions = enumerate_level_set(net).regions
        fresh = enumerate_level_set(net).regions
        enumerated = len(calls)
        unsafe_first = check_unsafe_condition(net, regions, unsafe)
        inv_second = check_invariance(net, regions, sys)
        inv_first = check_invariance(net, fresh, sys)
        unsafe_second = check_unsafe_condition(net, fresh, unsafe)
        assert len(calls) == enumerated == 0
        pairs = list(zip(inv_second.region_verdicts + unsafe_first.region_verdicts,
                         inv_first.region_verdicts + unsafe_second.region_verdicts))
        methods |= {a.method for a, _ in pairs}
        for a, b in pairs:
            assert (a.status, a.method, a.bound, a.witness_value, a.note) == \
                (b.status, b.method, b.bound, b.witness_value, b.note)
            assert (a.witness is None and b.witness is None) or np.array_equal(a.witness,
                                                                               b.witness)
    assert methods == {"lp", "interval"}


# -- end-to-end --------------------------------------------------------------------------

def test_verify_certificate_all_verified():
    net = diamond_net()
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    h_init = parse_expression("0.04 - x1^2 - x2^2", 2)
    h_unsafe = parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2)
    verdict = verify_certificate(net, sys, h_init, h_unsafe)
    assert verdict.status("invariance") == VERIFIED
    assert verdict.status("initial") == VERIFIED
    assert verdict.status("unsafe") == VERIFIED
    assert verdict.overall == VERIFIED
    assert verdict.failure is None
    assert len(verdict.enumeration.regions) == 4
    assert any("connected" in c for c in verdict.caveats)


def test_verify_certificate_drift_falsifies_invariance_only():
    net = diamond_net()
    sys = DynamicsSystem.parse(["1", "0"], dim=2)
    h_init = parse_expression("0.04 - x1^2 - x2^2", 2)
    h_unsafe = parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2)
    verdict = verify_certificate(net, sys, h_init, h_unsafe)
    assert verdict.status("invariance") == FALSIFIED
    assert verdict.status("initial") == VERIFIED
    assert verdict.status("unsafe") == VERIFIED
    assert verdict.overall == FALSIFIED


def test_verify_certificate_where_validity_lps_fail_numerically(monkeypatch):
    """Candidates whose validity LPs fail (the seed search's first, and
    every one in propagation) leave a partial enumeration and a verdict,
    not an error."""
    failing_validity_lps(monkeypatch, seed_failures=1)
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    h_init = parse_expression("0.04 - x1^2 - x2^2", 2)
    h_unsafe = parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2)
    verdict = verify_certificate(ill_scaled_deep_net(2), sys, h_init, h_unsafe)
    assert verdict.failure is None and verdict.enumeration.partial
    assert verdict.overall == FALSIFIED
    # BaB solves no LP, so the set conditions' region is decided; the
    # condition it verifies stays unknown over the partial enumeration
    rows = [v for res in (verdict.results["initial"], verdict.results["unsafe"])
            for v in res.region_verdicts]
    assert rows and all((v.status, v.method) == (VERIFIED, "interval") for v in rows)
    assert verdict.status("unsafe") == UNKNOWN
    assert verdict.results["unsafe"].note.startswith("enumeration partial: ")


def test_a_partial_enumeration_never_verifies(monkeypatch):
    """A condition whose rows all verify over a partial enumeration is
    unknown, its note naming the enumeration's errors: the diamond cut at
    two regions, and ill_scaled_deep_net(3) where propagation's validity
    LPs fail numerically, so one region is found."""
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    h_init = parse_expression("0.01 - x1^2 - x2^2", 2)
    h_unsafe = parse_expression("x1 - 2.5", 2)
    assert verify_certificate(diamond_net(), sys, h_init, h_unsafe).overall == VERIFIED
    cut = verify_certificate(diamond_net(), sys, h_init, h_unsafe,
                             DEFAULT_CONFIG.updated(max_regions=2))
    for res in cut.results.values():
        assert [v.status for v in res.region_verdicts] == [VERIFIED] * 2
        assert res.status == UNKNOWN
        assert res.note == "enumeration partial: region cap 2 reached; enumeration stopped"
    failing_validity_lps(monkeypatch)
    deep = verify_certificate(ill_scaled_deep_net(3), sys,
                              parse_expression("0.04 - x1^2 - x2^2", 2),
                              parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2))
    assert len(deep.enumeration.regions) == 1
    assert deep.enumeration.errors[0].startswith("candidate ")
    assert [v.status for v in deep.results["invariance"].region_verdicts] == [VERIFIED]
    assert deep.status("invariance") == UNKNOWN and deep.overall == UNKNOWN
    errors = deep.enumeration.errors
    assert deep.results["invariance"].note == "enumeration partial: " + "; ".join(errors)


@pytest.mark.parametrize("seed, segment", [(5, "01111010.00000110.10011011.00001111"),
                                           (9, "11110101.10010110.11000011.00111010")],
                         ids=["5", "9"])
def test_a_walk_that_cannot_cross_a_facet_is_partial(seed, segment):
    """On ill_scaled_deep_net(5) and (9) (rows of norm up to 1e13) the
    patch of region ``segment`` is a segment: both vertices survive the
    unit-row feasibility test.  Where no valid region continues the level
    set past a facet point (the pre-activation at the point is float noise
    far above TOL_ZERO and names only the region itself), the walk records
    that, so invariance is never `verified` over the regions it did reach."""
    net = ill_scaled_deep_net(seed)
    region = build_valid_region(net, indicator_of(segment))
    assert len(region.vertices) == 2 and not len(region.rays)
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    verdict = verify_certificate(net, sys, parse_expression("0.01 - x1^2 - x2^2", 2),
                                 parse_expression("x1 - 2.5", 2))
    errors = verdict.enumeration.errors
    assert any(e.endswith("no valid region continues the level set there") for e in errors)
    assert verdict.status("invariance") != VERIFIED and verdict.overall != VERIFIED


def validity_lps_and_all_lps(monkeypatch, net, sys, h_init, h_unsafe):
    """(LPs solved inside `valid_test`, all LPs, the LPs each accepted
    candidate solved there) of one verify_certificate, and its verdict."""
    tests = []
    calls = counted_lp_solves(monkeypatch)

    def counted_valid_test(*args, **kwargs):
        before = len(calls)
        out = valid_test(*args, **kwargs)
        tests.append((out, len(calls) - before))
        return out

    monkeypatch.setattr("relubarrier.regions.valid_test", counted_valid_test)
    verdict = verify_certificate(net, sys, h_init, h_unsafe)
    return sum(n for _, n in tests), len(calls), [n for ok, n in tests if ok], verdict


def test_an_all_affine_problem_solves_only_validity_lps(monkeypatch):
    """Under an affine flow with half-space sets, every lp_solve call of
    verify_certificate is a validity LP (`valid_test`), and a region
    certified from its frame solves none: the facet points and the affine
    minima come off each patch's vertices and rays."""
    net = random_hidden_net(np.random.default_rng(0), n_in=3, neurons=8)
    F = -np.eye(3) + 0.5 * np.random.default_rng(100).normal(size=(3, 3))
    validity, lps, accepted, verdict = validity_lps_and_all_lps(
        monkeypatch, net, affine_system(F, np.zeros(3)),
        parse_expression("-x1 - 1.5", 3), parse_expression("x2 - 1.5", 3))
    assert len(verdict.enumeration.regions) > 20
    assert validity == lps
    assert accepted == [0] * len(verdict.enumeration.regions)


@pytest.mark.parametrize("n", [2, 3])
def test_a_nonlinear_problem_solves_only_validity_lps(monkeypatch, n):
    """Nonlinear flows and ball sets, so every patch goes to branch-and-bound
    over its simplices: still every lp_solve call is a validity LP, and a
    region certified from its frame solves none.  The
    cubic flow on the diamond, and the transcendental flow on a random 3-D
    net with unbounded patches."""
    if n == 2:
        net, flow = diamond_net(), CUBIC2D
    else:
        net, flow = random_hidden_net(np.random.default_rng(2), n_in=3, neurons=6), TRANSCENDENTAL3D
    ball = " - ".join(["0.25"] + [f"x{i + 1}^2" for i in range(n)])
    validity, lps, accepted, verdict = validity_lps_and_all_lps(
        monkeypatch, net, DynamicsSystem.parse(flow, dim=n), parse_expression(ball, n),
        parse_expression(f"1 - (x1 - 2.5)^2 - {ball.replace('0.25 - x1^2', '0')}", n))
    rows = [v for res in verdict.results.values() for v in res.region_verdicts]
    assert rows and all(v.method != "lp" for v in rows)
    assert validity == lps
    assert accepted == [0] * len(verdict.enumeration.regions)


def test_search_exhausted_counts_the_candidates_that_failed_numerically(monkeypatch):
    """A seed search whose candidates fail numerically (every validity
    decision here) says how many failed, rather than only that no region was
    found: two candidates at each of the 50 crossings, whose neuron at zero
    branches."""
    def failing(*args, **kwargs):
        raise NumericalFailure("injected validity LP failure")

    monkeypatch.setattr("relubarrier.regions.valid_test", failing)
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    h_init = parse_expression("0.04 - x1^2 - x2^2", 2)
    h_unsafe = parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2)
    verdict = verify_certificate(ill_scaled_deep_net(1), sys, h_init, h_unsafe)
    assert verdict.failure == {
        "kind": "search-exhausted",
        "detail": "no valid region found in 50 attempts; "
                  "100 candidates failed numerically"}


def test_verify_certificate_constant_network_structured_failure():
    from helpers import all_dead_net
    net = all_dead_net()
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    cfg = DEFAULT_CONFIG.updated(max_attempts=3)
    verdict = verify_certificate(net, sys, None, None, cfg)
    assert verdict.failure is not None
    assert verdict.failure["kind"] == "search-exhausted"
    assert verdict.overall == UNKNOWN


def test_verify_certificate_stops_when_ibp_shows_h_has_one_sign(tmp_path, monkeypatch):
    """The benchmark's no-level-set network is negative on the whole domain
    box; interval bound propagation shows it before any point is drawn."""
    problems = load_bench_module("problems")
    spec = [p for p in problems.build_workload("budget-exhaustion", 0)
            if p.family == "no-level-set"]
    problems.write_workload(spec, str(tmp_path))
    problem = load_problem(spec[0].path)
    calls, forward = [], ReluNetwork.forward
    monkeypatch.setattr(ReluNetwork, "forward",
                        lambda net, x: calls.append(1) or forward(net, x))
    verdict = verify_certificate(problem.network, problem.system, problem.h_init,
                                 problem.h_unsafe, problem.config)
    assert verdict.failure["kind"] == "search-exhausted"
    lo, hi = problem.network.ibp_bounds(problem.config.domain(2))
    assert hi < 0.0
    assert verdict.failure["detail"] == ("h keeps one sign on the domain box: interval "
                                         f"bound propagation encloses it in [{lo:.6g}, {hi:.6g}]")
    assert calls == []


def test_verify_certificate_empty_set_reports_sampler_exhaustion():
    """Draws that never land in the set leave the condition unknown, and the
    region verdicts already decided stay in the result."""
    net = diamond_net()
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    h_init = parse_expression("0 - 1 - x1^2", 2)  # empty in any domain
    verdict = verify_certificate(net, sys, h_init, None)
    assert verdict.status("initial") == UNKNOWN
    result = verdict.results["initial"]
    assert result.probe is None
    assert len(result.region_verdicts) == len(verdict.enumeration.regions) == 4
    assert all(v.status == VERIFIED for v in result.region_verdicts)
    assert result.note.startswith("no point with a positive set function in "
                                  f"{DEFAULT_CONFIG.membership_samples} draws")
    assert f"initial-set sampling exhausted: {result.note}" in verdict.caveats


def test_patch_witnesses_stand_when_sampling_runs_out():
    """A ball of radius 1e-4 about the vertex (1, 0) is missed by 1000 draws,
    but the patches through the vertex carry checked witnesses, so the
    condition is falsified rather than unknown."""
    net = diamond_net()
    h_init = parse_expression("0.00000001 - (x1 - 1)^2 - x2^2", 2)
    cfg = DEFAULT_CONFIG.updated(membership_samples=1000)
    verdict = verify_certificate(net, DynamicsSystem.parse(["-x1", "-x2"], dim=2), h_init,
                                 parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2), cfg)
    assert verdict.status("initial") == FALSIFIED
    assert verdict.results["initial"].probe is None
    assert any(c.startswith("initial-set sampling exhausted: no point with a positive "
                            "set function in 1000 draws") for c in verdict.caveats)
    falsified = [(r, v) for r, v in zip(verdict.enumeration.regions,
                                        verdict.results["initial"].region_verdicts)
                 if v.status == FALSIFIED]
    assert falsified
    for region, v in falsified:
        assert region.slice.contains(v.witness, cfg.tol_feas)
        assert evaluate(h_init, v.witness) == -v.witness_value > FALSIFY_GATE


PROBE_BOX = ((-3.0, 2.0), (-0.5, 4.25))   # not a cube
PROBE_HITS = pytest.mark.parametrize(
    "hits", [(), (1,), (1, 7), (2048,), (2048, 2049), (2049, 4000), (4096, 4097), (5000, 6000),
             (10_240, 10_241), (12_000, 12_300)],
    ids=lambda hits: "-".join(map(str, hits)) or "none")


def balls_about(points):
    """A set function positive exactly within 1e-6 of one of one or two points."""
    terms = ["(1e-12 - " + " - ".join(f"(x{k + 1} - {float(c)!r})^2" for k, c in enumerate(p)) + ")"
             for p in points]
    return parse_expression(("-" if len(terms) == 2 else "") + "*".join(terms), len(points[0]))


def check_probe_against_reference(net, box, samples, hits):
    """The probe gives field for field what `reference_probe` gives, with a
    set of balls about the draws at `hits` (1-based), for both signs."""
    n = net.input_dim
    cfg = DEFAULT_CONFIG.updated(domain_box=box, membership_samples=samples)
    draws = np.random.default_rng(5).uniform(*np.array(box).T, size=(13_000, n))
    sign = np.sign(net.forward_many(draws))
    picked = [hits[0] - 1] if hits else []
    if len(hits) == 2:   # the first draw from hits[1] on where h has the other sign
        picked.append(hits[1] - 1 + int(np.argmax(sign[hits[1] - 1:] != sign[picked[0]])))
        assert picked[1] // 2048 == (hits[1] - 1) // 2048
    set_expr = balls_about(draws[picked]) if picked else parse_expression("-1 - x1^2", n)
    for want_inside in (True, False):
        probe = conditions._membership_probe(net, set_expr, cfg, np.random.default_rng(5),
                                             want_inside)
        expected = reference_probe(net, set_expr, cfg, np.random.default_rng(5), want_inside)
        if expected is None:
            assert probe is None and (not hits or hits[0] > samples)
            continue
        assert probe.samples == hits[0] or not probe.ok
        assert probe.point.tobytes() == expected.point.tobytes()   # rng.uniform's bits
        assert probe.point.base is None                            # not a view of the buffer
        assert (probe.set_value, probe.h_value, probe.ok, probe.samples) == \
            (expected.set_value, expected.h_value, expected.ok, expected.samples)


@pytest.mark.parametrize("samples", [1000, 10_000, 1_000_000])
@PROBE_HITS
def test_membership_probe_matches_the_batched_reference(samples, hits):
    """The probe draws 2048 rows, then 8192 at a time, into a reused buffer; it
    gives field for field what the 2048-row batches of `rng.uniform` gave
    (`reference_probe`) for set points at the given draws, in one 2048-draw
    batch or across a batch boundary of either size, where the second
    point, if checked, would flip the outcome: its h has the other sign."""
    check_probe_against_reference(diamond_net(), PROBE_BOX, samples, hits)


@pytest.mark.parametrize("samples", [1000, 10_000, 1_000_000])
@PROBE_HITS
def test_membership_probe_matches_the_reference_on_a_3d_box(samples, hits):
    """As above for a 3-D net on a box of three unequal widths, where a
    widths or offsets vector tiled in the wrong order (each coordinate's
    value repeated, or the columns swapped) would move every point."""
    net = random_hidden_net(np.random.default_rng(4), n_in=3)   # h > 0 on about 22% of the box
    check_probe_against_reference(net, ((-3.0, 2.0), (-0.5, 4.25), (1.0, 7.0)), samples, hits)


@pytest.mark.parametrize("samples, batches", [(20_000, [2048, 8192, 8192, 1568]),
                                              (5000, [2048, 2952]), (1000, [1000])])
def test_membership_probe_batch_schedule(monkeypatch, samples, batches):
    """A probe that never hits evaluates the set function once per batch:
    2048 rows, then 8192 at a time, the last cut at the budget.  The rule
    that only the first 2048-draw batch holding a set point is checked
    rests on this schedule.  The draws share one buffer, as long as the
    longest batch so far, so no row of it goes undrawn."""
    shapes = []
    monkeypatch.setattr(conditions, "evaluate",
                        lambda e, xs: shapes.append((len(xs), xs.base.shape)) or evaluate(e, xs))
    cfg = DEFAULT_CONFIG.updated(membership_samples=samples)
    assert conditions._membership_probe(diamond_net(), parse_expression("-1 - x1^2", 2), cfg,
                                        np.random.default_rng(5), True) is None
    assert shapes == [(k, (max(batches[:i + 1]), 2)) for i, k in enumerate(batches)]


@pytest.mark.parametrize("flow, h_init, condition, axis, undefined", [
    # ln(x1 + 0.5) is undefined where x1 <= -0.5
    (["-x1", "-x2"], "ln(x1 + 0.5) - 0.5", "initial", 0,
     lambda lo, hi: lo <= -0.5),
    # -x1/(x2 + 0.5) is undefined at x2 = -0.5
    (["-x1/(x2+0.5)", "-x2"], "0.04 - x1^2 - x2^2", "invariance", 1,
     lambda lo, hi: lo <= -0.5 <= hi),
], ids=["initial-ln", "flow-division"])
def test_verify_certificate_where_g_is_undefined_on_a_patch(flow, h_init, condition,
                                                            axis, undefined):
    """A domain error in a condition's objective leaves the patch undecided
    or falsified by a checked witness; it never fails the run and never
    lets the patch pass."""
    verdict = verify_certificate(diamond_net(), DynamicsSystem.parse(flow, dim=2),
                                 parse_expression(h_init, 2),
                                 parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2))
    assert verdict.failure is None
    rows = verdict.results[condition].region_verdicts
    touched = 0
    for region, row in zip(verdict.enumeration.regions, rows):
        box, _restricted = bounding_box(region.vertices, region.rays, DEFAULT_CONFIG.domain(2))
        if undefined(*box[axis]):
            touched += 1
            assert row.status != VERIFIED
    assert touched == 2


@pytest.mark.parametrize("f1", [
    "-x1*exp(1000*x1)",                                       # math.exp overflows
    "-x1 + 1e200*x1*x1*x2*1e200 - 1e200*x1*x1*x2*1e200",      # inf - inf is NaN
    "exp(1000)",                       # a constant that overflows has no affine form
    "1e200^2",                         # nor does a power of one, and it raises nothing
])
def test_verify_certificate_where_the_enclosure_overflows(f1, tmp_path):
    """An enclosure that overflows leaves its patch unknown with a note; it
    never fails the run, and the report is strict JSON that the schema
    accepts."""
    path = write_problem(tmp_path, diamond_net(), [f1, "-x2"], "0.04 - x1^2 - x2^2",
                         "1 - (x1 - 3)^2 - (x2 - 3)^2")
    problem = load_problem(path)
    verdict = verify_certificate(problem.network, problem.system, problem.h_init,
                                 problem.h_unsafe, problem.config)
    assert verdict.failure is None and verdict.status("invariance") == UNKNOWN
    notes = [v.note for v in verdict.results["invariance"].region_verdicts if v.status == UNKNOWN]
    assert notes and all(n.startswith("interval enclosure failed: overflow or NaN")
                         for n in notes)
    report = build_report(problem, verdict)
    json.dumps(report, allow_nan=False)
    jsonschema.validate(report, SCHEMA)


def test_overflowing_witness_value_is_no_witness(tmp_path):
    """Under (exp(1000 x1), exp(1000 x2)) w.f overflows at the vertices of
    patch 1010 and its one simplex's enclosure fails, but that simplex's
    centroid (0.5, 0.5) is checked too: w.f = -2 exp(500) there is finite,
    so the patch is falsified with it, and the report is strict JSON."""
    path = write_problem(tmp_path, diamond_net(), ["exp(1000*x1)", "exp(1000*x2)"],
                         "0.04 - x1^2 - x2^2", "1 - (x1 - 3)^2 - (x2 - 3)^2")
    problem = load_problem(path)
    verdict = verify_certificate(problem.network, problem.system, problem.h_init,
                                 problem.h_unsafe, problem.config)
    rows = {r.indicator.compact(): v for r, v in zip(verdict.enumeration.regions,
                                                      verdict.results["invariance"].region_verdicts)}
    assert rows["1010"].status == FALSIFIED
    assert rows["1010"].method == "interval"
    assert rows["1010"].witness == pytest.approx([0.5, 0.5], abs=1e-15)
    assert rows["1010"].witness_value == pytest.approx(-2.0 * math.exp(500.0), rel=1e-12)
    assert all(np.isfinite(v.witness_value) for v in rows.values()
               if v.witness_value is not None)
    json.dumps(build_report(problem, verdict), allow_nan=False)


def test_a_set_function_that_overflows_has_no_set_point(tmp_path):
    """1e308*10 - x1 overflows to inf at every draw: no draw counts as a
    point of the initial set, as no witness may carry a value that is not
    finite, so the condition ends unknown with the sampling caveat, and the
    report written to disk parses with every non-finite number refused."""
    path = write_problem(tmp_path, diamond_net(), ["-x1", "-x2"], "1e308*10 - x1",
                         "1 - (x1 - 3)^2 - (x2 - 3)^2")
    problem = load_problem(path)
    verdict = verify_certificate(problem.network, problem.system, problem.h_init,
                                 problem.h_unsafe, problem.config)
    initial = verdict.results["initial"]
    assert initial.probe is None and verdict.status("initial") == UNKNOWN
    assert initial.note.startswith("no point with a positive set function")
    write_report(build_report(problem, verdict), tmp_path / "report.json")

    def refuse(name):
        raise ValueError(f"non-finite number {name} in the report")

    json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)


def row(v):
    """A region verdict as plain values, arrays as lists."""
    return tuple(x.tolist() if isinstance(x, np.ndarray) else x for x in dataclasses.astuple(v))


OVERFLOWING_FLOWS = [[f1, "-x2"] for f1 in (
    "-x1*exp(1000*x1)", "-x1 + 1e200*x1*x1*x2*1e200 - 1e200*x1*x1*x2*1e200",
    "exp(1000)", "1e200^2")]


def test_batched_bab_gives_each_region_its_verdict_alone():
    """BaB runs all of a condition's patches in lockstep, a level at a time;
    each patch's verdict (status, method, bound, witness, note, ...) is the
    one it gets checked alone, on the diamond under the flows whose
    enclosures overflow and the flat flow, and on the acceptance and bench
    polytope nets (`frame_nets`) under the reference flows."""
    cases = [(diamond_net(), DynamicsSystem.parse(flow, dim=2))
             for flow in OVERFLOWING_FLOWS + [["x2^3", "-x2^3"], CUBIC2D]]
    cases += [(net, DynamicsSystem.parse(ALL_SYSTEMS[net.input_dim], dim=net.input_dim))
              for net in frame_nets() if net.input_dim in (2, 3)]
    cfg = DEFAULT_CONFIG.updated(bab_max_boxes=300)
    methods = Counter()
    for net, sys in cases:
        regions = [build_valid_region(net, c) for c in brute_force_valid_regions(net)]
        if not regions:
            continue
        together = check_invariance(net, regions, sys, cfg).region_verdicts
        for region, v in zip(regions, together):
            assert row(v) == row(check_invariance(net, [region], sys, cfg).region_verdicts[0])
            methods[v.status, v.note.split(":")[0]] += 1
    assert methods[VERIFIED, ""] > 50 and methods[FALSIFIED, ""] > 5
    assert methods[UNKNOWN, "interval enclosure failed"] >= 4


def test_bab_encloses_each_flow_component_once_per_level(monkeypatch):
    """The bench's flat diamond: under (x2^3, -x2^3), w.f = 0 on two of the
    diamond's four patches, which spend a budget of 500 simplices each.
    The invariance check encloses each flow component once per level over
    every open patch's boxes: (levels reached) x 2 calls for over 1000
    simplices, not one call per simplex."""
    net, regions = diamond_regions()
    sys = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)
    log = record_enclosures(monkeypatch)
    result = check_invariance(net, regions, sys, DEFAULT_CONFIG.updated(bab_max_boxes=500))
    assert [v.note for v in result.region_verdicts].count("box budget 500 exhausted") == 2
    levels = [boxes for e, boxes in log if e is sys.exprs[0]]
    assert sum(len(boxes) for boxes in levels) > 1000
    assert len(log) == 2 * len(levels) <= 2 * 10


def test_verify_certificate_unknown_flat_case():
    """Nonlinear flat objective leaves branch-and-bound undecided at zero
    margin; the aggregate is Unknown, not Falsified."""
    net = diamond_net()
    sys = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)
    verdict = verify_certificate(net, sys, None, None)
    assert verdict.status("invariance") == UNKNOWN
    assert verdict.overall == UNKNOWN
    statuses = {v.status for v in verdict.results["invariance"].region_verdicts}
    assert UNKNOWN in statuses
    assert FALSIFIED not in statuses


def test_verify_certificate_timings_and_seeds_stable():
    net = diamond_net()
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    h_init = parse_expression("0.04 - x1^2 - x2^2", 2)
    h_unsafe = parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2)
    a = verify_certificate(net, sys, h_init, h_unsafe)
    b = verify_certificate(net, sys, h_init, h_unsafe)
    assert [r.indicator for r in a.enumeration.regions] == \
           [r.indicator for r in b.enumeration.regions]
    for va, vb in zip(a.results["invariance"].region_verdicts,
                      b.results["invariance"].region_verdicts):
        assert va.status == vb.status
        assert va.bound == vb.bound
    assert set(a.timings) >= {"enumeration_s", "conditions_s", "total_s"}


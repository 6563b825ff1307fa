"""Per-region condition checks: LP route, falsification, branch-and-bound,
set conditions, and the end-to-end certificate pipeline."""

import json

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relubarrier import (DEFAULT_CONFIG, FALSIFIED, UNKNOWN, VERIFIED,
                         ActivationIndicator, DynamicsSystem, NoRegions, Polyhedron,
                         ReluNetwork, SlicePolyhedron, boundary_propagation,
                         brute_force_valid_regions, build_report, build_valid_region,
                         check_initial_condition, check_invariance,
                         check_unsafe_condition, enumerate_level_set, evaluate, load_problem,
                         parse_expression, verify_certificate)
from relubarrier import conditions
from relubarrier.config import FALSIFY_GATE
from relubarrier.expressions import weighted_sum
from relubarrier.geometry import bounding_box

from helpers import (SCHEMA, affine_system, counted_lp_solves, diamond_net,
                     load_bench_module, random_hidden_net, reference_falsify, slice_grid,
                     strip_net, write_problem, CUBIC2D)


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
    and one LP decides the patch exactly, in agreement with a slice grid."""
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


# -- falsification search ---------------------------------------------------------------

def test_falsify_finds_witness_for_constant_negative():
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["1", "0"], dim=2)
    hit = conditions._falsify(region, w_dot_f(region, sys), DEFAULT_CONFIG,
                              np.random.default_rng(0))
    assert hit is not None
    assert hit.status == FALSIFIED
    assert region.slice.contains(hit.witness, tol=1e-6)
    assert hit.witness_value < -1e-9


def test_falsify_absent_for_stable_flow():
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    assert conditions._falsify(region, w_dot_f(region, sys), DEFAULT_CONFIG,
                               np.random.default_rng(0)) is None


def test_falsify_sign_change_matches_grid_oracle():
    """Cubic flow whose w.f changes sign along the slice segment."""
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(CUBIC2D, dim=2)
    pts = slice_grid(region, 10_000)
    w = region.slice.w
    grid_vals = np.array([w @ sys(p) for p in pts[::10]])
    hit = conditions._falsify(region, w_dot_f(region, sys), DEFAULT_CONFIG,
                              np.random.default_rng(0))
    if grid_vals.min() < -1e-6:
        assert hit is not None
        assert hit.witness_value < -1e-9
        direct = w @ sys(np.asarray(hit.witness))
        assert hit.witness_value == pytest.approx(direct, rel=1e-9, abs=1e-12)
    else:
        assert hit is None


def test_falsify_solves_lps_only_in_its_vertex_stage(monkeypatch):
    """w.f = 0 on the flat patch, so the search walks its whole budget:
    its feasible point and max(4, FALSIFY_BUDGET // 5) vertices come from one
    batched LP, and the pattern moves that leave the patch solve none."""
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)
    g = weighted_sum(region.slice.w, sys.exprs)
    calls = counted_lp_solves(monkeypatch)
    found = conditions._falsify(region, g, DEFAULT_CONFIG, np.random.default_rng(0))
    assert found is None
    assert len(calls) == 1


# -- branch and bound ------------------------------------------------------------------

def test_bab_certifies_stable_flow():
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    verdict = conditions._bab(region, w_dot_f(region, sys), DEFAULT_CONFIG)
    assert verdict.status == VERIFIED
    assert verdict.bound is not None and verdict.bound >= -1e-9


def test_bab_falsifies_constant_negative():
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["1", "0"], dim=2)
    verdict = conditions._bab(region, w_dot_f(region, sys), DEFAULT_CONFIG)
    assert verdict.status == FALSIFIED
    assert verdict.witness is not None
    assert region.slice.contains(verdict.witness, tol=1e-6)


def test_bab_cubic_inward_verified():
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["-x1^3", "-x2^3"], dim=2)
    verdict = conditions._bab(region, w_dot_f(region, sys), DEFAULT_CONFIG)
    assert verdict.status == VERIFIED


def test_bab_flat_case_margin_semantics():
    """w.f identically 0 on the slice: Unknown at zero margin, Verified
    with any positive margin."""
    net, region = first_quadrant_region()
    # w = (-1,-1): w.f = -(x2^3) - (-x2^3) = 0 pointwise, but the interval
    # enclosure of the difference never collapses
    sys = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)
    verdict = conditions._bab(region, w_dot_f(region, sys), DEFAULT_CONFIG)
    assert verdict.status == UNKNOWN
    # a margin above the residual enclosure width at the minimum box size
    cfg = DEFAULT_CONFIG.updated(tol_margin=1e-3)
    verdict = conditions._bab(region, w_dot_f(region, sys), cfg)
    assert verdict.status == VERIFIED


def test_bab_verified_never_contradicted_by_sampling():
    net, regions = diamond_regions()
    systems = [DynamicsSystem.parse(["-x1^3", "-x2^3"], dim=2),
               DynamicsSystem.parse(["-x1 - x2^2 * x1", "-x2"], dim=2),
               DynamicsSystem.parse(CUBIC2D, dim=2)]
    for sys in systems:
        for region in regions:
            verdict = conditions._bab(region, w_dot_f(region, sys), DEFAULT_CONFIG)
            if verdict.status != VERIFIED:
                continue
            pts = slice_grid(region, 10_000)
            vals = np.array([region.slice.w @ sys(p) for p in pts[::7]])
            assert vals.min() >= -DEFAULT_CONFIG.tol_margin - 1e-9


def test_margin_monotonicity_never_flips_verified_to_falsified():
    net, regions = diamond_regions()
    sys = DynamicsSystem.parse(CUBIC2D, dim=2)
    for region in regions:
        g = w_dot_f(region, sys)
        small = conditions._bab(region, g, DEFAULT_CONFIG.updated(tol_margin=0.0))
        large = conditions._bab(region, g, DEFAULT_CONFIG.updated(tol_margin=0.5))
        if small.status == VERIFIED:
            assert large.status == VERIFIED


def record_bab_boxes(monkeypatch):
    """Run-time log of _bab: ("box", contracted box) for every bounding_box
    result, ("tighten", (half, tightened half)) for every `_tighten` call and
    ("enclose", box) for every box `interval_evaluate` sees."""
    events = []
    original_bounding_box, original_tighten = conditions.bounding_box, conditions._tighten
    original_interval = conditions.interval_evaluate

    def logged_bounding_box(*args, **kwargs):
        out = original_bounding_box(*args, **kwargs)
        if out is not None:
            events.append(("box", out[0].copy()))
        return out

    def logged_tighten(box, w, b):
        out = original_tighten(box, w, b)
        events.append(("tighten", (box.copy(), out.copy())))
        return out

    def logged_interval(g, box):
        events.append(("enclose", np.array(box, dtype=float)))
        return original_interval(g, box)

    monkeypatch.setattr(conditions, "bounding_box", logged_bounding_box)
    monkeypatch.setattr(conditions, "_tighten", logged_tighten)
    monkeypatch.setattr(conditions, "interval_evaluate", logged_interval)
    return events


def test_bab_encloses_each_contracted_box_widened_by_tol_feas(monkeypatch):
    """LP-contracted boxes are only accurate to tol_feas, so the enclosure
    covers each one widened by tol_feas on every side.  A half of such a
    box is tightened by the hyperplane equation instead of an LP: the
    enclosure covers the tightened half widened alike (not past an exact
    axis bound), and the tightened half keeps every slice-grid point of
    the half."""
    net = random_hidden_net(np.random.default_rng(0), neurons=6)
    regions = [build_valid_region(net, c) for c in brute_force_valid_regions(net)]
    sys = DynamicsSystem.parse(CUBIC2D, dim=2)
    tol = DEFAULT_CONFIG.tol_feas
    enclosed = tightened = kept = 0
    events = record_bab_boxes(monkeypatch)
    for region in regions:
        events.clear()
        conditions._bab(region, weighted_sum(region.slice.w, sys.exprs), DEFAULT_CONFIG)
        exact = conditions._axis_bounds(region.slice.base)
        pts = slice_grid(region, 2000)
        for (kind, cbox), (next_kind, box) in zip(events, events[1:]):
            if next_kind != "enclose":
                continue
            if kind == "box":
                assert np.all(box[:, 0] <= cbox[:, 0] - tol)
                assert np.all(box[:, 1] >= cbox[:, 1] + tol)
                enclosed += 1
                continue
            assert kind == "tighten"
            half, tbox = cbox
            assert np.all(box[:, 0] <= np.maximum(tbox[:, 0] - tol, exact[:, 0]))
            assert np.all(box[:, 1] >= np.minimum(tbox[:, 1] + tol, exact[:, 1]))
            inside = pts[np.all((pts >= half[:, 0]) & (pts <= half[:, 1]), axis=1)]
            assert np.all((inside >= tbox[:, 0]) & (inside <= tbox[:, 1]))
            tightened += 1
            kept += len(inside)
    assert enclosed >= 20 and tightened >= 20 and kept >= 1000


def test_tighten_keeps_every_hyperplane_point_of_the_box():
    """Seeded boxes and hyperplanes that meet them, in 2-D and 3-D (some
    parallel to an axis): sampled points of box and hyperplane lie in the
    tightened box, and in 2-D it is the LP bounding box of the line cut to
    the box, within tol_feas."""
    rng = np.random.default_rng(5)
    tol = DEFAULT_CONFIG.tol_feas
    checked = 0
    for n in (2, 3):
        for trial in range(200):
            lo = rng.uniform(-3.0, 2.0, n)
            box = np.column_stack([lo, lo + rng.uniform(0.01, 2.0, n)])
            w = rng.normal(size=n)
            if trial % 5 == 0:
                w[rng.integers(n)] = 0.0
            b = -float(w @ rng.uniform(box[:, 0], box[:, 1]))
            tight = conditions._tighten(box, w, b)
            assert np.all(tight[:, 0] <= tight[:, 1])
            # points of the box solved onto the hyperplane along its largest |w_j|
            j = int(np.argmax(np.abs(w)))
            rest = np.delete(np.arange(n), j)
            xs = rng.uniform(box[:, 0], box[:, 1], size=(500, n))
            xs[:, j] = -(b + xs[:, rest] @ w[rest]) / w[j]
            xs = xs[np.all((xs >= box[:, 0]) & (xs <= box[:, 1]), axis=1)]
            assert np.all((xs >= tight[:, 0]) & (xs <= tight[:, 1]))
            checked += len(xs)
            if n == 2:
                line = SlicePolyhedron(Polyhedron.whole_space(2), w, b).within(box)
                lp_box, _points, _restricted = bounding_box(line, tol_feas=tol)
                np.testing.assert_allclose(tight, lp_box, rtol=0.0, atol=tol)
    assert checked >= 20_000
    # a box the hyperplane misses comes back whole, never empty
    box = np.array([[0.0, 1.0], [1.0 + 1e-12, 1.0 + 1e-12]])
    assert np.array_equal(conditions._tighten(box, np.array([0.0, 1.0]), -1.0), box)


def test_bab_certified_boxes_cover_every_verified_patch(monkeypatch):
    """Each slice-grid point of a patch that BaB verifies lies in some
    enclosed box whose lower bound certified: no part of the patch escapes
    the proof, on the diamond's patches and those of random nets."""
    flows = [DynamicsSystem.parse(flow, dim=2) for flow in (
        ["-x1^3", "-x2^3"], ["-x1*(1 + x1^2 + x2^2)", "-x2*(1 + x1^2 + x2^2)"], CUBIC2D)]
    _net, patches = diamond_regions()
    rng = np.random.default_rng(4)
    for _ in range(3):
        net = random_hidden_net(rng, neurons=5)
        patches += [build_valid_region(net, c) for c in brute_force_valid_regions(net)]
    certified = []
    original = conditions.interval_evaluate

    def logged(g, box):
        iv = original(g, box)
        if iv.lo >= -DEFAULT_CONFIG.tol_margin:
            certified.append(np.array(box, dtype=float))
        return iv

    monkeypatch.setattr(conditions, "interval_evaluate", logged)
    verified = 0
    for region in patches:
        pts = slice_grid(region, 1000)
        for sys in flows:
            certified.clear()
            verdict = conditions._bab(region, weighted_sum(region.slice.w, sys.exprs),
                                      DEFAULT_CONFIG)
            if verdict.status != VERIFIED or verdict.vacuous:
                continue
            boxes = np.array(certified)
            inside = np.all((pts[:, None] >= boxes[None, :, :, 0])
                            & (pts[:, None] <= boxes[None, :, :, 1]), axis=2)
            assert inside.any(axis=1).all()
            verified += 1
    assert verified >= 20


def test_bab_lp_count_on_the_flat_patch(monkeypatch):
    """w.f = 0 on the flat first-quadrant patch, so BaB splits until its
    budget or the margin stops it.  No bounding_box call receives a half of
    a contracted box (both halves meet the patch; they are tightened by the
    hyperplane equation instead), which caps the LPs: at most 330 of 500
    boxes, and at most 1,600 where tol_margin = 1e-3 verifies the patch
    (2,959 when every box took an LP, for the same bound)."""
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)
    calls = []   # (the box a call is cut to, or None at the root; contracted box)
    original = conditions.bounding_box

    def logged(sl, domain=None, tol_feas=DEFAULT_CONFIG.tol_feas):
        out = original(sl, domain, tol_feas)
        n = sl.base.dim
        given = None if domain is not None else np.column_stack(
            [-sl.base.d[-n:], sl.base.d[-2 * n:-n]])   # rows x <= hi, then -x <= -lo
        calls.append((given, None if out is None else out[0]))
        return out

    monkeypatch.setattr(conditions, "bounding_box", logged)
    for cfg, cap in ((DEFAULT_CONFIG.updated(bab_max_boxes=500), 330),
                     (DEFAULT_CONFIG.updated(tol_margin=1e-3), 1600)):
        calls.clear()
        verdict = conditions._bab(region, w_dot_f(region, sys), cfg)
        assert len(calls) <= cap
        halves = set()
        for _given, box in calls:
            if box is None:
                continue
            widest = int(np.argmax(box[:, 1] - box[:, 0]))
            mid = 0.5 * (box[widest, 0] + box[widest, 1])
            left, right = box.copy(), box.copy()
            left[widest, 1] = right[widest, 0] = mid
            halves.update((left.tobytes(), right.tobytes()))
        assert not any(given is not None and given.tobytes() in halves for given, _box in calls)
    assert (verdict.status, verdict.bound) == (VERIFIED, pytest.approx(-9.999479489327e-4,
                                                                      rel=1e-12))


def test_bab_contracts_a_bounded_root_once(monkeypatch):
    """The decay flow is certified on the first-quadrant patch at the root
    box: one bounding_box call, which the root box is taken from."""
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["-x1*(1 + x1^2 + x2^2)", "-x2*(1 + x1^2 + x2^2)"], dim=2)
    events = record_bab_boxes(monkeypatch)
    verdict = conditions._bab(region, weighted_sum(region.slice.w, sys.exprs), DEFAULT_CONFIG)
    assert (verdict.status, verdict.domain_restricted) == (VERIFIED, False)
    assert [kind for kind, _box in events] == ["box", "enclose"]


def test_bab_widening_stops_at_exact_single_coordinate_bounds(monkeypatch):
    """The diamond's rows x1 >= 0 and x2 >= 0 bound their coordinate exactly,
    so a minimum of exactly 0 on that bound (w.f = 2 x2^3 on the patch of
    x1 <= 0 <= x2) stays verified."""
    net, regions = diamond_regions()
    region = next(r for r in regions if r.indicator == ind(0, 1, 1, 0))
    sys = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)
    events = record_bab_boxes(monkeypatch)
    verdict = conditions._bab(region, weighted_sum(region.slice.w, sys.exprs), DEFAULT_CONFIG)
    assert (verdict.status, verdict.bound) == (VERIFIED, 0.0)
    boxes = [box for kind, box in events if kind == "enclose"]
    assert boxes and all(box[0, 1] == 0.0 and box[1, 0] == 0.0 for box in boxes)


def counted_search(monkeypatch):
    calls = []
    original = conditions._falsify

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(conditions, "_falsify", counted)
    return calls


def test_batched_search_follows_the_one_at_a_time_path():
    """h = 1 - |x1| - |x2| - |x3|; on its first-octant patch (a triangle)
    w.f = 100 ((x1 - 0.2)^2 + (x2 - 0.5)^2) - 1 is negative only on a small
    disc: the vertices are no witnesses, and the pattern search walks in to
    one.  Which point it reaches depends on the order of its moves; checking
    each round's moves as a batch takes the same steps as checking them one
    at a time."""
    net = ReluNetwork([np.kron(np.eye(3), [[1.0], [-1.0]])], [np.zeros(6)], -np.ones(6), 1.0)
    region = build_valid_region(net, ind(1, 0, 1, 0, 1, 0))
    g = w_dot_f(region, DynamicsSystem.parse(["1 - 100*((x1 - 0.2)^2 + (x2 - 0.5)^2)",
                                              "0", "0"], dim=3))
    for seed in range(3):
        witness, value, stage = reference_falsify(region, g, DEFAULT_CONFIG,
                                                  np.random.default_rng(seed))
        assert stage == "pattern"
        verdict = conditions._falsify(region, g, DEFAULT_CONFIG, np.random.default_rng(seed))
        assert (verdict.status, verdict.method) == (FALSIFIED, "search")
        np.testing.assert_allclose(verdict.witness, witness, rtol=0, atol=1e-12)
        assert verdict.witness_value == pytest.approx(value, rel=0, abs=1e-12)


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
    values = conditions._checked_witness(sl, points, g, cfg)
    for x, got in zip(points, values):
        v = evaluate(g, x)
        checked = sl.contains(x, cfg.tol_feas) and np.isfinite(v)
        assert got == v if checked else np.isnan(got)
        assert (got < gate) == (checked and v < gate)


def test_search_skipped_where_bab_verifies(monkeypatch):
    """Decay flow on the diamond's bounded patches: w.f = 1 + |x|^2 there."""
    calls = counted_search(monkeypatch)
    net, regions = diamond_regions()
    sys = DynamicsSystem.parse(["-x1*(1 + x1^2 + x2^2)", "-x2*(1 + x1^2 + x2^2)"], dim=2)
    result = check_invariance(net, regions, sys)
    assert result.status == VERIFIED
    assert all((v.method, v.domain_restricted) == ("interval", False)
               for v in result.region_verdicts)
    assert calls == []


def test_search_runs_once_when_bab_runs_out_of_boxes(monkeypatch):
    calls = counted_search(monkeypatch)
    net, region = first_quadrant_region()
    sys = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)   # w.f = 0 on the patch
    cfg = DEFAULT_CONFIG.updated(bab_max_boxes=5)
    verdict = conditions._decide(region, w_dot_f(region, sys), None, cfg, 0)
    assert len(calls) == 1
    assert (verdict.status, verdict.method) == (UNKNOWN, "interval")
    assert verdict.note == "box budget 5 exhausted"


def test_drift_region_falsified_by_bab_with_checked_witness(monkeypatch):
    """Decay flow plus a drift d = (2t(1 + t^2) + 1) u: at x = t u on the
    diamond's first-quadrant patch (t = 1 / (u1 + u2)), w.f < 0."""
    calls = counted_search(monkeypatch)
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
    values = conditions._checked_witness(region.slice, [v.witness, off], g, DEFAULT_CONFIG)
    assert values[0] == v.witness_value < conditions._gate(DEFAULT_CONFIG)
    assert np.isnan(values[1])
    assert calls == []


def test_search_runs_where_bab_sees_an_unbounded_patch_inside_the_domain_only(monkeypatch):
    """On the line x1 = 0, w.f = 16 - x2^2 is positive inside the default
    [-3, 3]^2 domain box and negative for |x2| > 4: BaB verifies inside the
    box, and the search, not bound to the box, finds the witness outside."""
    calls = counted_search(monkeypatch)
    net = line_net()
    region = build_valid_region(net, brute_force_valid_regions(net)[0])
    sys = DynamicsSystem.parse(["16 - x2^2", "0"], dim=2)
    g = weighted_sum(region.slice.w, sys.exprs)
    inside = conditions._bab(region, g, DEFAULT_CONFIG)
    assert (inside.status, inside.domain_restricted) == (VERIFIED, True)
    verdict = conditions._decide(region, g, None, DEFAULT_CONFIG, 0)
    assert len(calls) == 1
    assert (verdict.status, verdict.method) == (FALSIFIED, "search")
    assert abs(verdict.witness[1]) > 4.0
    assert_checked_witness(region, verdict, lambda x: evaluate(g, x))


def test_bab_witness_on_an_unbounded_patch_ends_the_ladder(monkeypatch):
    """On the line x1 = 0, w.f = x2^2 - 1 is negative for |x2| < 1, inside
    the domain box: BaB's checked witness is a violation wherever the patch
    runs, so the verdict is not domain-restricted and the search does not
    run."""
    calls = counted_search(monkeypatch)
    net = line_net()
    region = build_valid_region(net, brute_force_valid_regions(net)[0])
    sys = DynamicsSystem.parse(["x2^2 - 1", "0"], dim=2)
    g = weighted_sum(region.slice.w, sys.exprs)
    bab = conditions._bab(region, g, DEFAULT_CONFIG)
    assert (bab.status, bab.domain_restricted) == (FALSIFIED, False)
    verdict = conditions._decide(region, g, None, DEFAULT_CONFIG, 0)
    assert calls == []
    assert (verdict.status, verdict.method) == (FALSIFIED, "interval")
    assert np.array_equal(verdict.witness, bab.witness)
    assert_checked_witness(region, verdict, lambda x: evaluate(g, x))


def test_search_reaches_far_along_a_ray_shaped_patch():
    """h = x1 from hidden units x1, -x1, x2: with the third unit off the
    patch is the ray x1 = 0, x2 <= 0, so every vertex LP ends at its apex.
    w.f = 16 - x2^2 is negative only for x2 < -4, beyond the domain box."""
    net = ReluNetwork([np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])], [np.zeros(3)],
                      np.array([1.0, -1.0, 0.0]), 0.0)
    region = build_valid_region(net, ind(1, 0, 0))
    sys = DynamicsSystem.parse(["16 - x2^2", "0"], dim=2)
    g = weighted_sum(region.slice.w, sys.exprs)
    verdict = conditions._decide(region, g, None, DEFAULT_CONFIG, 0)
    assert (verdict.status, verdict.method) == (FALSIFIED, "search")
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
    with pytest.raises(NoRegions):
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
        for result, g_of in ((verdict.invariance_result,
                              lambda r: (lambda x: r.slice.w @ sys(x))),
                             (verdict.initial_result,
                              lambda r: (lambda x: -evaluate(h_init, x))),
                             (verdict.unsafe_result,
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
    monkeypatch.setattr(SlicePolyhedron, "contains",
                        lambda self, x, tol=1e-7: np.zeros(len(x), dtype=bool))
    bounded = check_invariance(net, [region], DynamicsSystem.parse(["1", "0"], dim=2))
    unbounded = check_invariance(line, [line_region],
                                 DynamicsSystem.parse(["x2", "0"], dim=2))
    bounded, unbounded = bounded.region_verdicts[0], unbounded.region_verdicts[0]
    assert (bounded.status, bounded.witness) == (UNKNOWN, None)
    assert bounded.note == "LP point failed the witness check"
    assert (unbounded.status, unbounded.witness) == (UNKNOWN, None)
    assert unbounded.note == "objective unbounded below; LP point failed the witness check"


def test_verify_certificate_looks_up_the_checks_when_called(monkeypatch):
    calls = []
    for name in ("check_invariance", "check_initial_condition", "check_unsafe_condition"):
        original = getattr(conditions, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(conditions, name, counted)
    net = diamond_net()
    verify_certificate(net, DynamicsSystem.parse(["-x1", "-x2"], dim=2),
                       parse_expression("0.04 - x1^2 - x2^2", 2),
                       parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2))
    assert calls == ["check_invariance", "check_initial_condition",
                     "check_unsafe_condition"]


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
    assert verdict.initial_condition == FALSIFIED
    probe = verdict.initial_result.probe
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


# -- the slice's shared phase one --------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 2])
def test_condition_order_does_not_change_verdicts(seed):
    """A region's slice keeps its phase one across the conditions' LPs (the
    LP route here, the search and BaB under the cubic flow).  Unsafe then
    invariance on one region list gives the verdicts of invariance then
    unsafe on a fresh enumeration: same route, bound and witness."""
    net = random_hidden_net(np.random.default_rng(seed), n_in=2, neurons=6)
    sys = DynamicsSystem.parse(CUBIC2D, dim=2)
    unsafe = parse_expression("x1 - 1", 2)
    regions = enumerate_level_set(net).regions
    unsafe_first = check_unsafe_condition(net, regions, unsafe)
    inv_second = check_invariance(net, regions, sys)
    fresh = enumerate_level_set(net).regions
    assert all(r.slice.memo == {} for r in fresh) and all(r.slice.memo for r in regions)
    inv_first = check_invariance(net, fresh, sys)
    unsafe_second = check_unsafe_condition(net, fresh, unsafe)
    pairs = list(zip(inv_second.region_verdicts + unsafe_first.region_verdicts,
                     inv_first.region_verdicts + unsafe_second.region_verdicts))
    assert {a.method for a, _ in pairs} == {"lp", "search", "interval"}
    for a, b in pairs:
        assert (a.status, a.method, a.bound, a.witness_value, a.note) == \
            (b.status, b.method, b.bound, b.witness_value, b.note)
        assert (a.witness is None and b.witness is None) or np.array_equal(a.witness, b.witness)


# -- end-to-end --------------------------------------------------------------------------

def test_verify_certificate_all_verified():
    net = diamond_net()
    sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    h_init = parse_expression("0.04 - x1^2 - x2^2", 2)
    h_unsafe = parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2)
    verdict = verify_certificate(net, sys, h_init, h_unsafe)
    assert verdict.invariance == VERIFIED
    assert verdict.initial_condition == VERIFIED
    assert verdict.unsafe_condition == VERIFIED
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
    assert verdict.invariance == FALSIFIED
    assert verdict.initial_condition == VERIFIED
    assert verdict.unsafe_condition == VERIFIED
    assert verdict.overall == FALSIFIED


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
    lo, hi = problem.network.ibp_candidate(problem.config.domain(2)).output
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
    assert verdict.initial_condition == UNKNOWN
    result = verdict.initial_result
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
    assert verdict.initial_condition == FALSIFIED
    assert verdict.initial_result.probe is None
    assert any(c.startswith("initial-set sampling exhausted: no point with a positive "
                            "set function in 1000 draws") for c in verdict.caveats)
    falsified = [(r, v) for r, v in zip(verdict.enumeration.regions,
                                        verdict.initial_result.region_verdicts)
                 if v.status == FALSIFIED]
    assert falsified
    for region, v in falsified:
        assert region.slice.contains(v.witness, cfg.tol_feas)
        assert evaluate(h_init, v.witness) == -v.witness_value > FALSIFY_GATE


@pytest.mark.parametrize("flow, h_init, condition, axis, undefined", [
    # ln(x1 + 0.5) is undefined where x1 <= -0.5
    (["-x1", "-x2"], "ln(x1 + 0.5) - 0.5", "initial_result", 0,
     lambda lo, hi: lo <= -0.5),
    # -x1/(x2 + 0.5) is undefined at x2 = -0.5
    (["-x1/(x2+0.5)", "-x2"], "0.04 - x1^2 - x2^2", "invariance_result", 1,
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
    rows = getattr(verdict, condition).region_verdicts
    touched = 0
    for region, row in zip(verdict.enumeration.regions, rows):
        box, _points, _restricted = bounding_box(region.slice)
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
    assert verdict.failure is None and verdict.invariance == UNKNOWN
    notes = [v.note for v in verdict.invariance_result.region_verdicts if v.status == UNKNOWN]
    assert notes and all(n.startswith("interval enclosure failed: overflow or NaN")
                         for n in notes)
    report = build_report(problem, verdict)
    json.dumps(report, allow_nan=False)
    jsonschema.validate(report, SCHEMA)


def test_overflowing_witness_value_is_no_witness(tmp_path):
    """Under (exp(1000 x1), exp(1000 x2)) the point value of w.f on patch
    1010 overflows; the patch stays unknown with the enclosure's note, and
    the report is strict JSON."""
    path = write_problem(tmp_path, diamond_net(), ["exp(1000*x1)", "exp(1000*x2)"],
                         "0.04 - x1^2 - x2^2", "1 - (x1 - 3)^2 - (x2 - 3)^2")
    problem = load_problem(path)
    verdict = verify_certificate(problem.network, problem.system, problem.h_init,
                                 problem.h_unsafe, problem.config)
    rows = {r.indicator.compact(): v for r, v in zip(verdict.enumeration.regions,
                                                      verdict.invariance_result.region_verdicts)}
    assert rows["1010"].status == UNKNOWN
    assert rows["1010"].witness is None
    assert rows["1010"].note.startswith("interval enclosure failed: overflow or NaN")
    assert all(np.isfinite(v.witness_value) for v in rows.values()
               if v.witness_value is not None)
    json.dumps(build_report(problem, verdict), allow_nan=False)


def test_verify_certificate_unknown_flat_case():
    """Nonlinear flat objective leaves branch-and-bound undecided at zero
    margin; the aggregate is Unknown, not Falsified."""
    net = diamond_net()
    sys = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)
    verdict = verify_certificate(net, sys, None, None)
    assert verdict.invariance == UNKNOWN
    assert verdict.overall == UNKNOWN
    statuses = {v.status for v in verdict.invariance_result.region_verdicts}
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
    for va, vb in zip(a.invariance_result.region_verdicts,
                      b.invariance_result.region_verdicts):
        assert va.status == vb.status
        assert va.bound == vb.bound
    assert set(a.timings) >= {"enumeration_s", "invariance_s",
                              "initial_s", "unsafe_s", "total_s"}


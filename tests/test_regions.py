"""Valid-region test, initial region search, and boundary propagation."""

import copy
import functools
import itertools
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from relubarrier import (ActivationIndicator, Polyhedron, ReluNetwork,
                         SearchExhausted, boundary_propagation,
                         brute_force_valid_regions, build_valid_region,
                         enumerate_level_set, find_initial_region,
                         remove_redundant, valid_test, DEFAULT_CONFIG)
from relubarrier import (CombinatorialBlowup, NumericalFailure, conditions, geometry,
                         network_from_json, regions)
from relubarrier.config import TOL_EQ
from relubarrier.geometry import inscribed_ball

from helpers import (all_dead_net, boundary_is_connected, counted_lp_solves,
                     diamond_net, frame_nets, load_bench_module, lp_slice_answers,
                     one_d_ramp_net, ill_scaled_deep_net, indicator_of, random_hidden_net,
                     reference_valid, scaled_output, sequential_walk, slice_feasible_point,
                     slice_full, strip_net)


def ind(*bits):
    return ActivationIndicator((tuple(bits),))


DIAMOND_INDICATORS = [ind(0, 1, 0, 1), ind(0, 1, 1, 0),
                      ind(1, 0, 0, 1), ind(1, 0, 1, 0)]


def test_regions_are_equal_and_hashed_by_identity():
    """Array fields cannot be compared, so a region equals itself alone:
    comparing never raises, and a region can key a dict."""
    regions = enumerate_level_set(diamond_net()).regions
    region = regions[0]
    twin = copy.copy(region)
    assert twin != region and not twin == region and region == region
    assert regions[1] != region and regions.index(region) == 0 and twin not in regions
    table = {r: i for i, r in enumerate(regions)}
    assert len(table) == 4 and table[region] == 0 and twin not in table


# -- valid test -----------------------------------------------------------------------

def test_diamond_quadrant_is_valid():
    assert valid_test(*diamond_net().piece(ind(1, 0, 1, 0)))


def test_diamond_degenerate_indicator_invalid():
    # region is the ray x1 = 0, x2 >= 0: not full-dimensional
    assert not valid_test(*diamond_net().piece(ind(1, 1, 1, 0)))


def test_positive_network_slice_infeasible():
    # h = relu(x1) + 1 >= 1: the active region's hyperplane misses it
    net = ReluNetwork([np.array([[1.0]])], [np.array([0.0])],
                      np.array([1.0]), 1.0)
    assert not valid_test(*net.piece(ActivationIndicator(((1,),))))


def test_empty_region_invalid():
    # indicator (1, 1) for the strip net needs x1 >= 0 and -x1 >= 0 ... both
    # rows of the strip net are +-x1, so (1,1) pins x1 = 0: lower-dimensional
    assert not valid_test(*strip_net().piece(ind(1, 1)))


def test_zero_piece_with_nonzero_bias_invalid():
    # all-masked indicator on the diamond: w = 0, b = 1 means no zero set
    assert not valid_test(*diamond_net().piece(ind(0, 0, 0, 0)))


def test_zero_piece_with_zero_bias_valid_degenerate():
    # h = relu(x1) - relu(x1) is 0 on x1 >= 0: w = 0, b = 0 there
    net = ReluNetwork([np.array([[1.0], [1.0]])], [np.zeros(2)],
                      np.array([1.0, -1.0]), 0.0)
    assert valid_test(*net.piece(ind(1, 1)))
    assert build_valid_region(net, ind(1, 1)).degenerate


def test_each_candidate_costs_one_network_pass(monkeypatch):
    """Enumeration pulls each candidate indicator back through the network
    once: as many indicators through `ReluNetwork.pieces` (a level's
    candidates in one stacked pass) as validity tests."""
    calls = Counter()

    def counted(name, fn, size=lambda args: 1):
        def wrapper(*args, **kwargs):
            calls[name] += size(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ReluNetwork, "pieces",
                        counted("piece", ReluNetwork.pieces, lambda args: len(args[1])))
    monkeypatch.setattr("relubarrier.regions.valid_test", counted("valid_test", valid_test))
    enumerate_level_set(diamond_net())
    assert calls["valid_test"] >= 4
    assert calls["piece"] == calls["valid_test"]


def test_validity_scale_invariant():
    rng = np.random.default_rng(17)
    for seed in range(8):
        net = random_hidden_net(np.random.default_rng(seed), neurons=4)
        scaled = scaled_output(net, 7.0)
        import itertools
        for bits in itertools.product((0, 1), repeat=4):
            c = ind(*bits)
            assert bool(valid_test(*net.piece(c))) == bool(valid_test(*scaled.piece(c)))


# -- brute-force oracle -----------------------------------------------------------------

def _all_indicators(net):
    for flat in itertools.product((0, 1), repeat=net.num_neurons):
        it = iter(flat)
        yield ActivationIndicator(tuple(tuple(next(it) for _ in range(m))
                                        for m in net.layer_sizes))


def random_nets(rng):
    """20 nets: one hidden layer on 2-D and 3-D inputs, and two-layer 2-D nets."""
    nets = [random_hidden_net(rng, n_in=n, neurons=m)
            for n, m in [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5)] * 3]
    for _ in range(5):
        w1, w2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 3))
        nets.append(ReluNetwork([w1, w2], [rng.normal(size=3), rng.normal(size=3)],
                                rng.normal(size=3), float(rng.normal())))
    return nets


def test_valid_test_matches_reference_on_random_nets():
    nets = random_nets(np.random.default_rng(11))
    valid = 0
    for net in nets:
        for indicator in _all_indicators(net):
            expected = reference_valid(net, indicator)
            assert valid_test(*net.piece(indicator)) == expected, indicator.compact()
            valid += expected
    assert valid > 50


@pytest.mark.parametrize("width, expected", [(5e-8, False), (9e-8, False),
                                             (1.1e-7, True), (1e-6, True)])
def test_strip_sliver_valid_iff_wider_than_tol_eq(width, expected):
    # h = x1 - width/2 on the strip 0 <= x1 <= width (both units active)
    net = ReluNetwork([np.array([[1.0, 0.0], [-1.0, 0.0]])], [np.array([0.0, width])],
                      np.array([1.0, 0.0]), -width / 2)
    indicator = ind(1, 1)
    assert valid_test(*net.piece(indicator)) is expected
    assert reference_valid(net, indicator) is expected


def test_slice_ball_settles_the_region_ball_unless_rows_run_along_w(monkeypatch):
    """A slice ball whose centre is farther than TOL_EQ / 2 + tol_feas from
    every row shows that the region's ball is wide enough too, so most
    valid regions of the random nets skip the region-ball LP; the strip
    slivers, whose rows are parallel to w, take it where their half-width
    is within that distance, and the 1e-6 strip skips it; the 5e-8 strip
    is flat and takes no LP at all."""
    region_balls = []
    original = regions.inscribed_ball

    def logged(p, *args, **kwargs):
        region_balls.append(p.w is None)
        return original(p, *args, **kwargs)

    monkeypatch.setattr(regions, "inscribed_ball", logged)
    valid = skipped = 0
    for net in random_nets(np.random.default_rng(11)):
        for indicator in _all_indicators(net):
            region_balls.clear()
            if valid_test(*net.piece(indicator)):
                valid += 1
                skipped += region_balls == [False]
    assert skipped > 0.75 * valid   # 107 of 131
    for width, balls in ((5e-8, []), (1.1e-7, [False, True]), (1e-6, [False])):
        net = ReluNetwork([np.array([[1.0, 0.0], [-1.0, 0.0]])], [np.array([0.0, width])],
                          np.array([1.0, 0.0]), -width / 2)
        region_balls.clear()
        valid_test(*net.piece(ind(1, 1)))
        assert region_balls == balls


def flat_nets():
    """Small nets whose pieces have exactly opposite rows (slabs), as a ±a
    neuron pair gives at a facet point on its row, or rows opposite up to a
    relative 1e-9."""
    rng = np.random.default_rng(3)
    w, c = rng.normal(size=(3, 2)), rng.normal(size=3)
    nets = [ReluNetwork([np.vstack([w, -w[:1]])], [np.append(c, -c[0])], rng.normal(size=4), 0.3),
            ReluNetwork([np.vstack([w, w[1:2]])], [np.append(c, c[1])], rng.normal(size=4), -0.2)]
    near = np.vstack([w, -w[:1] * (1 + 1e-9)])    # opposite, but not exactly: the LPs decide
    nets.append(ReluNetwork([near], [np.append(c, -c[0])], rng.normal(size=4), 0.1))
    v = rng.normal(size=(2, 3))                   # opposite rows in the second layer
    nets.append(ReluNetwork([w, np.vstack([v, -v[:1]])], [c, np.array([0.4, -0.1, -0.4])],
                            rng.normal(size=3), 0.2))
    for width in (5e-8, 1e-7, 1.1e-7):            # h = x1 - width/2 on 0 <= x1 <= width
        nets.append(ReluNetwork([np.array([[1.0, 0.0], [-1.0, 0.0], [0.3, 1.0]])],
                                [np.array([0.0, width, 0.5])], np.array([1.0, 0.0, 0.0]),
                                -width / 2))
    return nets


def test_flat_check_settles_validity_as_the_reference_does(monkeypatch):
    """Across every indicator of the flat nets, `valid_test` (which rejects
    exactly opposite rows bounding a slab no wider than TOL_EQ with no LP)
    agrees with the rank-based reference, and a flat candidate calls no
    `inscribed_ball`."""
    balls = []
    original = regions.inscribed_ball
    monkeypatch.setattr(regions, "inscribed_ball",
                        lambda *args, **kwargs: balls.append(1) or original(*args, **kwargs))
    flat = 0
    for net in flat_nets():
        for indicator in _all_indicators(net):
            region, w, b = net.piece(indicator)
            A, d = region.A, region.d
            slab = any(A[i].any() and np.array_equal(A[i], -A[j])
                       and d[i] + d[j] <= TOL_EQ * np.linalg.norm(A[i])
                       for i in range(len(A)) for j in range(len(A)))
            balls.clear()
            assert valid_test(region, w, b) == reference_valid(net, indicator), \
                indicator.compact()
            assert not slab or balls == []
            flat += slab
    assert flat > 20


def test_the_frame_certificate_decides_as_the_lps_do(monkeypatch):
    """The validity verdict `build_valid_region` reaches, with a point of
    its frame as evidence, is the verdict of `valid_test` on its LPs alone:
    on every indicator of random 2-D and 3-D nets and of the flat nets, and
    on every candidate the enumerations of ill_scaled_deep_net(s) meet.
    Most valid regions are certified with no LP."""
    calls = counted_lp_solves(monkeypatch)
    reached = []

    def recorded(region, w, b, cfg, evidence):
        before = len(calls)
        valid = valid_test(region, w, b, cfg, evidence)
        reached.append((region, w, b, valid, len(calls) - before))
        return valid

    monkeypatch.setattr(regions, "valid_test", recorded)
    for net in random_nets(np.random.default_rng(5)) + flat_nets():
        for indicator in _all_indicators(net):
            build_valid_region(net, indicator)
    for seed in (0, 2, 3, 5, 7, 9):
        enumerate_level_set(ill_scaled_deep_net(seed))
    valid = certified = 0
    for region, w, b, verdict, lps in reached:
        assert verdict == valid_test(region, w, b)
        valid += verdict
        certified += verdict and lps == 0
    assert valid > 250 and certified > 0.95 * valid   # 271 of 280


def test_an_all_affine_net_enumerates_with_no_lp(monkeypatch):
    """Every region of a seeded random 3-D net is certified valid from its
    frame, so its enumeration solves no LP, where `valid_test` on its LPs
    alone solves at least one per region."""
    net = random_hidden_net(np.random.default_rng(0), n_in=3, neurons=8)
    calls = counted_lp_solves(monkeypatch)
    result = enumerate_level_set(net)
    assert len(result.regions) > 20 and result.errors == [] and calls == []
    for region in result.regions:
        assert valid_test(*net.piece(region.indicator))
    assert len(calls) >= len(result.regions)


@pytest.mark.parametrize("candidate, radius", [("01011010.00000110.10011011.00001111", 0.0193),
                                               ("01111010.00001110.10011011.00001111", 0.513)])
def test_slice_balls_of_ill_scaled_pieces(candidate, radius):
    """On ill_scaled_deep_net(5) the two regions that continue the level set
    past the ends of one segment patch have pieces with |w| of 1.8e12 and
    1.0e13.  Solved in the hyperplane's own coordinates, their slice LPs
    find balls of radius about 0.0193 and 0.513, and both are valid."""
    region, w, b = ill_scaled_deep_net(5).piece(indicator_of(candidate))
    centre, r = inscribed_ball(Polyhedron(region.A, region.d, w, b))
    assert r == pytest.approx(radius, rel=0.01)
    scale = np.linalg.norm(region.A, axis=1)
    assert np.all(region.A @ centre - region.d <= 1e-7 * scale)
    assert abs(w @ centre + b) <= 1e-7 * np.linalg.norm(w)
    assert valid_test(region, w, b)


def test_a_walk_crosses_facets_whose_pre_activations_are_float_noise():
    """On ill_scaled_deep_net(0) the deep pre-activations sum terms of size
    up to about 1e12, so at a facet point they are float noise far above
    1e-9 yet within TOL_ZERO of those terms: the neuron branches and the
    walk crosses every facet, six regions and no error (one region and a
    dead end with an absolute 1e-9)."""
    result = enumerate_level_set(ill_scaled_deep_net(0))
    assert len(result.regions) == 6 and result.errors == []


def test_slice_on_a_facet_stays_valid():
    # h = relu(-x1): on the region x1 <= 0 the level set x1 = 0 is its facet
    net = ReluNetwork([np.array([[-1.0, 0.0]])], [np.array([0.0])],
                      np.array([1.0]), 0.0)
    assert valid_test(*net.piece(ind(1)))
    assert reference_valid(net, ind(1))


def test_brute_force_diamond():
    assert brute_force_valid_regions(diamond_net()) == DIAMOND_INDICATORS


def test_brute_force_strip():
    out = brute_force_valid_regions(strip_net())
    assert out == [ind(0, 1), ind(1, 0)]


def test_brute_force_all_dead_empty():
    assert brute_force_valid_regions(all_dead_net()) == []


def test_brute_force_cap():
    rng = np.random.default_rng(0)
    net = random_hidden_net(rng, neurons=17)   # one above ORACLE_CAP
    with pytest.raises(ValueError, match="exceed the oracle cap"):
        brute_force_valid_regions(net)


# -- the patch's frame: touching rows and facet points ----------------------------------

@pytest.fixture(scope="module")
def random_regions():
    """Every non-degenerate valid region of 20 random nets."""
    out = []
    for net in random_nets(np.random.default_rng(29)):
        for indicator in _all_indicators(net):
            region = build_valid_region(net, indicator)
            if region is not None and not region.degenerate:
                out.append(region)
    assert len(out) > 50
    return out


def _row_set(p):
    return {tuple(row) for row in np.column_stack([p.A, p.d])}


def test_rows_dropped_from_the_slice_never_reach_it(random_regions):
    tol = DEFAULT_CONFIG.tol_feas
    dropped = 0
    for region in random_regions:
        full, touching = region.constraints, _row_set(region.slice)
        w, b = region.slice.w, region.slice.b
        for a, d in zip(full.A, full.d):
            if tuple(np.append(a, d)) in touching:
                continue
            top = Polyhedron(full.A, full.d, w, b).minimize(-a)   # max a.x
            assert top.optimal and -top.value < d - tol
            dropped += 1
        # the rows of an irredundant system of the full slice all touch it
        reference = remove_redundant(slice_full(Polyhedron(full.A, full.d, w, b)))
        hyperplane = {tuple(np.append(w, -b)), tuple(np.append(-w, b))}
        assert _row_set(reference) <= touching | hyperplane
    assert dropped > 0


def test_facet_points_lie_on_the_slice_and_their_row(random_regions):
    """A touching row's facet point is the mean of the patch's vertices
    that meet the row, and it lies on the row to float precision, not only
    within tol_feas: the walk's neighbour test (`feasible_indicators`)
    branches a neuron only within TOL_ZERO of the terms it sums."""
    tol = DEFAULT_CONFIG.tol_feas
    for region in random_regions:
        full = Polyhedron(region.constraints.A, region.constraints.d,
                          region.slice.w, region.slice.b)
        rows = region.slice
        assert len(region.facet_points) == rows.num_rows
        for point, a, d in zip(region.facet_points, rows.A, rows.d):
            assert full.contains(point, tol=tol)
            scale = np.linalg.norm(a) * np.linalg.norm(point) + abs(d)
            assert abs(a @ point - d) <= 1e-13 * scale


def test_frame_answers_what_the_lps_answer():
    """On every valid region: its vertices lie on the slice within tol_feas;
    its touching rows are those whose max over the slice by LP reaches
    d_j - tol_feas; and for random affine objectives the affine route is
    unbounded exactly where the LP is, and otherwise its bound is the LP's
    minimum within 1e-9 relative."""
    tol = DEFAULT_CONFIG.tol_feas
    rng = np.random.default_rng(5)
    counts = Counter()
    for net in frame_nets():
        for indicator in brute_force_valid_regions(net):
            region = build_valid_region(net, indicator)
            full = Polyhedron(region.constraints.A, region.constraints.d,
                              region.slice.w, region.slice.b)
            assert full.contains(region.vertices, tol).all()
            objectives = rng.normal(size=(3, net.input_dim))
            touching, minima = lp_slice_answers(region, objectives, tol)
            assert np.array_equal(full.A[touching], region.slice.A)
            for c, lp_min in zip(objectives, minima):
                verdict, _candidate = conditions._decide_affine(region, (c, 0.0), DEFAULT_CONFIG)
                if lp_min == -np.inf:
                    assert verdict.note.startswith("objective unbounded below")
                    counts["unbounded"] += 1
                else:
                    assert verdict.bound == pytest.approx(lp_min, rel=1e-9, abs=1e-12)
            counts["regions"] += 1
            counts["lineality"] += int(len(region.vertices) == 1 and len(region.rays) >= 2)
            counts["degenerate"] += int(region.degenerate)
    assert counts["regions"] > 300 and counts["unbounded"] > 50
    assert counts["lineality"] and counts["degenerate"]


def test_touching_rows_cut_out_the_same_slice(random_regions):
    rng = np.random.default_rng(31)
    tol = DEFAULT_CONFIG.tol_feas
    hits = 0
    for region in random_regions:
        full, rows = region.constraints, region.slice
        w, b = region.slice.w, region.slice.b
        xs = rng.uniform(-3.0, 3.0, size=(400, full.dim))
        xs -= np.outer(xs @ w + b, w) / (w @ w)   # onto the hyperplane
        in_full = np.all(xs @ full.A.T <= full.d, axis=1)
        in_rows = np.all(xs @ rows.A.T <= rows.d, axis=1)
        assert np.all(in_rows[in_full])
        assert np.all(xs[in_rows] @ full.A.T <= full.d + tol)
        hits += int(in_full.sum())
    assert hits > 1000


def test_build_valid_region_solves_only_its_validity_lps(monkeypatch):
    """At most two validity LPs; the touching rows and facet points come off
    the patch's frame."""
    nets = [diamond_net(), random_hidden_net(np.random.default_rng(3), n_in=3, neurons=5)]
    calls = counted_lp_solves(monkeypatch)
    built = 0
    for net in nets:
        for indicator in _all_indicators(net):
            calls.clear()
            built += build_valid_region(net, indicator) is not None
            assert len(calls) <= 2
    assert built >= 4



def test_a_frame_that_spans_too_few_dimensions_is_a_numerical_failure(monkeypatch):
    """valid_test has shown an (n-1)-ball in the patch, so a frame whose
    vertices and rays span fewer dimensions lost some: build_valid_region
    raises NumericalFailure (propagation records it), never a region read
    off a partial frame.  Here the frame keeps one vertex of a segment."""
    net, indicator = diamond_net(), ind(1, 0, 1, 0)
    assert build_valid_region(net, indicator) is not None

    def one_vertex(ps, tol, nears):
        return [(vertices[:1], rays[:0], tight[:1])
                for vertices, rays, tight in geometry.frames(ps, tol, nears)]

    monkeypatch.setattr("relubarrier.regions.frames", one_vertex)
    with pytest.raises(NumericalFailure, match="frame spans fewer dimensions than its patch"):
        build_valid_region(net, indicator)


# -- initial region search ---------------------------------------------------------------

class ScriptedRng:
    """An rng whose one uniform batch is the scripted rows."""

    def __init__(self, *rows):
        self.batch = np.array(rows)

    def uniform(self, low, high, size):
        return self.batch


def test_find_initial_region_diamond():
    net = diamond_net()
    region, meta = find_initial_region(net)
    assert region.indicator in DIAMOND_INDICATORS
    assert meta["attempts"] >= 1
    assert set(meta) == {"attempts"}


def test_bisection_pair_from_spec_lands_in_first_quadrant():
    """Deterministic bracketing pair (3,3)/(0,0) converges near (0.5, 0.5)."""
    net = diamond_net()
    rng = ScriptedRng([3.0, 3.0], [0.0, 0.0])
    region, meta = find_initial_region(net, rng=rng)
    assert region.indicator == ind(1, 0, 1, 0)
    assert meta["attempts"] == 1


def test_vertex_straddling_pair_expands_candidates():
    """The pair (2,0)/(0.5,0) bisects onto the vertex (1,0), where the units
    x2 and -x2 are both zero: feasible_indicators branches them into four
    candidates, and the first valid one in key order is the seed."""
    net = diamond_net()
    rng = ScriptedRng([2.0, 0.0], [0.5, 0.0])
    region, meta = find_initial_region(net, rng=rng)
    assert net.feasible_indicators(np.array([1.0, 0.0])) == [
        ind(1, 0, a, b) for a in (0, 1) for b in (0, 1)]
    assert build_valid_region(net, ind(1, 0, 0, 0)) is None
    assert region.indicator == ind(1, 0, 0, 1)
    assert meta == {"attempts": 1}


def test_seed_is_feasible_at_the_bisected_crossing():
    """On random nets the seed region's indicator is one of the indicators
    feasible at the h < 0 end of the scripted pair, bisected here until it
    stops moving (float resolution)."""
    checked = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        net = random_hidden_net(rng, n_in=2 + seed % 2)
        xs = rng.uniform(-3, 3, size=(200, net.input_dim))
        h = net.forward_many(xs)
        if not ((h < 0).any() and (h > 0).any()):
            continue
        x_neg, x_pos = xs[np.argmax(h < 0)], xs[np.argmax(h > 0)]
        region, meta = find_initial_region(net, rng=ScriptedRng(x_neg, x_pos))
        for _ in range(1100):   # a width of 6 halves below the least subnormal
            mid = 0.5 * (x_neg + x_pos)
            if net.forward(mid) < 0.0:
                x_neg = mid
            else:
                x_pos = mid
        assert region.indicator in net.feasible_indicators(x_neg)
        assert meta == {"attempts": 1}
        checked += 1
    assert checked >= 8


def test_search_exhausted_on_constant_network():
    net = all_dead_net()
    cfg = DEFAULT_CONFIG.updated(max_attempts=3)
    with pytest.raises(SearchExhausted):
        find_initial_region(net, cfg)


# -- boundary propagation ------------------------------------------------------------------

def test_propagation_diamond_finds_all_four():
    net = diamond_net()
    seed = build_valid_region(net, ind(1, 0, 1, 0))
    result = boundary_propagation(net, seed)
    assert [r.indicator for r in result.regions] == DIAMOND_INDICATORS
    assert result.visited_count == 4
    assert result.connectivity_assumed
    assert not result.partial
    assert result.errors == []
    assert result.seed_indicator == ind(1, 0, 1, 0)


def test_propagation_strip_stops_at_disconnection():
    """The facet x1 = 0 never meets the level set, so only the seeded
    half-plane is found even though the oracle sees two regions."""
    net = strip_net()
    seed = build_valid_region(net, ind(1, 0))
    result = boundary_propagation(net, seed)
    assert [r.indicator for r in result.regions] == [ind(1, 0)]
    assert result.connectivity_assumed
    oracle = brute_force_valid_regions(net)
    assert len(oracle) == 2


def test_propagation_one_dimensional_base_case():
    net = one_d_ramp_net()
    seed_ind = ActivationIndicator(((1,),))
    assert valid_test(*net.piece(seed_ind))
    seed = build_valid_region(net, seed_ind)
    result = boundary_propagation(net, seed)
    assert [r.indicator for r in result.regions] == [seed_ind]


def test_propagation_deterministic():
    net = diamond_net()
    seed = build_valid_region(net, ind(0, 1, 0, 1))
    a = boundary_propagation(net, seed)
    b = boundary_propagation(net, seed)
    assert [r.indicator for r in a.regions] == [r.indicator for r in b.regions]
    assert a.visited_count == b.visited_count


def test_propagation_skips_a_degenerate_seed():
    """A zero piece (w = 0, b = 0) has no hyperplane to cross: propagation
    stops at it and says so."""
    net = ReluNetwork([np.array([[1.0], [1.0]])], [np.zeros(2)],
                      np.array([1.0, -1.0]), 0.0)
    result = boundary_propagation(net, build_valid_region(net, ind(1, 1)))
    assert result.partial
    assert len(result.errors) == 1 and "degenerate piece" in result.errors[0]
    assert result.visited_count == 1


def test_propagation_region_cap_flags_partial():
    net = diamond_net()
    seed = build_valid_region(net, ind(1, 0, 1, 0))
    cfg = DEFAULT_CONFIG.updated(max_regions=2)
    result = boundary_propagation(net, seed, cfg)
    assert result.partial
    assert len(result.regions) <= 2


def test_propagation_records_a_branching_cap_hit_and_goes_on():
    """h = x2 + sum_k relu(x1 + k x2 / 10) / 100 - relu(x1 - 1) / 2 (k < 22):
    its level set runs through the origin, where 22 neurons with distinct
    rows are zero, past the cap of 20.  The 22 touching rows through the
    origin share that facet point, so the walk records one error there, at
    the first of them, crosses the facet at x1 = 1, and returns the two
    x1 > 0 pieces as a partial result."""
    w1 = np.vstack([np.column_stack([np.ones(22), np.arange(22) / 10.0]),
                    [[1.0, 0.0], [0.0, 1.0]]])
    b1 = np.concatenate([np.zeros(22), [-1.0, 10.0]])   # relu(x2 + 10) - 10 = x2 here
    net = ReluNetwork([w1], [b1], np.concatenate([np.full(22, 0.01), [-0.5, 1.0]]), -10.0)
    seed = "1" * 22 + "01"
    result = boundary_propagation(net, build_valid_region(net, indicator_of(seed)))
    assert [r.indicator.compact() for r in result.regions] == [seed, "1" * 24]
    origin = [j for j, p in enumerate(result.regions[0].facet_points) if not p.any()]
    assert origin == list(range(22))
    assert result.errors == [f"region {seed} facet 0: 22 simultaneously-zero neurons "
                             "exceed the cap of 20"]


def test_propagation_flips_a_facet_that_22_neurons_share():
    """The diamond with relu(x1) repeated 21 times (each copy weighted
    -1/21 in h): 22 neurons share the row of x1 = 0, more than the
    branching cap, and one flip of all 22 crosses it, so all four pieces
    come back with no error."""
    w1 = np.array([[1.0, 0.0]] * 21 + [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    net = ReluNetwork([w1], [np.zeros(24)], np.array([-1.0 / 21] * 21 + [-1.0] * 3), 1.0)
    result = boundary_propagation(net, build_valid_region(net, ind(*[1] * 21, 0, 1, 0)))
    assert [r.indicator.compact() for r in result.regions] == [
        "0" * 21 + "1" + p for p in ("01", "10")] + ["1" * 21 + "0" + p for p in ("01", "10")]
    assert result.errors == [] and result.visited_count == 4
    assert tuple(range(22)) in result.regions[0].neurons


def _spied_walk(net, monkeypatch):
    """Enumerate net's level set, returning the result and the points at
    which the walk (past its seed) called `feasible_indicators`."""
    points, original = [], ReluNetwork.feasible_indicators
    monkeypatch.setattr(ReluNetwork, "feasible_indicators",
                        lambda self, x: points.append(np.array(x)) or original(self, x))
    result = enumerate_level_set(net)
    monkeypatch.undo()
    return result, points[1:]


def _two_layer_net(rng, n_in, width):
    weights = [rng.normal(size=(width, n_in)), rng.normal(size=(width, width))]
    return ReluNetwork(weights, [rng.normal(size=width) for _ in weights],
                       rng.normal(size=width), float(rng.normal()))


@pytest.mark.parametrize("n_in", [2, 3])
@pytest.mark.parametrize("layers", [1, 2])
def test_a_flipped_facet_has_the_neighbours_the_forward_pass_finds(n_in, layers, monkeypatch):
    """On seeded random nets, at every facet point where the walk names
    the neighbour by flipping the facet's neurons instead of calling
    `feasible_indicators`, that call would give the region and its flip,
    in key order."""
    flips = 0
    for s in range(8):
        rng = np.random.default_rng([11, n_in, layers, s])
        net = random_hidden_net(rng, n_in, 7) if layers == 1 else _two_layer_net(rng, n_in, 5)
        try:
            result, called = _spied_walk(net, monkeypatch)
        except SearchExhausted:
            continue
        assert not result.partial
        for region in result.regions:
            for j, point in enumerate(region.facet_points):
                if any(np.array_equal(point, x) for x in called):
                    continue
                assert len(region.neurons[j]) == 1
                assert net.feasible_indicators(point) == sorted(
                    [region.indicator, region.indicator.flipped(region.neurons[j])],
                    key=ActivationIndicator.key)
                flips += 1
    assert flips >= 30   # 40 to 622 per case


def _shared_row_nets():
    """Nets whose neurons share rows within one layer: seeded polytope nets
    h = 1 - sum |a_i.x| (each |t| as relu(t) + relu(-t), rows permuted),
    random nets with duplicated and negated neurons, the diamond with
    relu(x1) repeated 5 and 21 times, and two-layer nets whose second layer
    holds a negated pair and a duplicate."""
    nets = {"diamond": diamond_net()}
    for n, k in ((2, 6), (3, 4)):
        rng = np.random.default_rng([13, n, k])
        a = rng.standard_normal((k, n))
        w1 = np.vstack([a, -a])[rng.permutation(2 * k)]
        nets[f"polytope-{n}d"] = ReluNetwork([w1], [np.zeros(2 * k)], -np.ones(2 * k), 1.0)
    for s in (0, 4):   # seeds whose nets have a level set in the domain box
        rng = np.random.default_rng([17, s])
        w, b = rng.normal(size=(4, 2)), rng.normal(size=4)
        nets[f"doubled-{s}"] = ReluNetwork([np.vstack([w, w, -w[:2]])],
                                           [np.concatenate([b, b, -b[:2]])],
                                           rng.normal(size=10), float(rng.normal()))
    for copies in (5, 21):
        w1 = np.array([[1.0, 0.0]] * copies + [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        nets[f"copies-{copies}"] = ReluNetwork([w1], [np.zeros(copies + 3)],
                                               np.array([-1.0 / copies] * copies + [-1.0] * 3),
                                               1.0)
    for s in (1, 3):
        rng = np.random.default_rng([19, s])
        w2, b2 = rng.normal(size=(3, 5)), rng.normal(size=3)
        w2, b2 = np.vstack([w2, -w2[:1], w2[1:2]]), np.concatenate([b2, -b2[:1], b2[1:2]])
        nets[f"two-layer-{s}"] = ReluNetwork([rng.normal(size=(5, 2)), w2],
                                             [rng.normal(size=5), b2],
                                             rng.normal(size=5), float(rng.normal()))
    return nets


@pytest.mark.parametrize("name", list(_shared_row_nets()))
def test_a_flipped_shared_row_has_the_valid_neighbours_the_forward_pass_finds(name, monkeypatch):
    """At every facet the walk crosses by flipping a group of neurons that
    share its row, `feasible_indicators` holds the region and its flip,
    and `valid_test` rejects every other indicator there with no LP: the
    partial flips leave two exactly opposite rows with d_i + d_j = 0.  So
    both name the same valid neighbours.  Where more than BRANCH_CAP
    neurons share the row (21 copies), `feasible_indicators` refuses, and
    64 seeded partial flips of the group stand in for its indicators."""
    net = _shared_row_nets()[name]
    result, called = _spied_walk(net, monkeypatch)
    assert not result.partial
    rng, calls, flips, groups = np.random.default_rng(0), counted_lp_solves(monkeypatch), 0, 0
    for region in result.regions:
        for j, point in enumerate(region.facet_points):
            group = region.neurons[j]
            if any(np.array_equal(point, x) for x in called):
                continue
            pair = [region.indicator, region.indicator.flipped(group)]
            try:
                candidates = net.feasible_indicators(point)
            except CombinatorialBlowup:
                candidates = pair + [region.indicator.flipped(
                    rng.choice(group, int(rng.integers(1, len(group))), replace=False))
                    for _ in range(64)]
            assert set(pair) <= set(candidates)
            for candidate in set(candidates) - set(pair):
                assert not valid_test(*net.piece(candidate)) and calls == []
            assert build_valid_region(net, pair[1], DEFAULT_CONFIG, point) is not None
            flips += 1
            groups += len(group) > 1
    assert flips > 0 and groups > 0


def test_the_walk_runs_the_forward_pass_only_at_the_seed_and_shared_facets(monkeypatch):
    """On the seeded 3-D net of the no-LP test, `feasible_indicators` runs
    once for the seed and once per distinct facet point of the facets that
    are not simple: one whose vertices all meet another touching row too,
    or whose row neurons of two layers share (none here)."""
    net = random_hidden_net(np.random.default_rng(0), n_in=3, neurons=8)
    result, called = _spied_walk(net, monkeypatch)
    shared = [region.facet_points[j].tobytes()
              for region in result.regions for j, on in enumerate(region.tight.T)
              if not region.neurons[j] or region.tight[on].all(axis=0).sum() > 1]
    facets = sum(region.tight.shape[1] for region in result.regions)
    assert len(set(shared)) < len(shared) < facets     # some shared facets share a point
    assert sorted(p.tobytes() for p in called) == sorted(set(shared))
    assert not result.partial


@pytest.mark.parametrize("name", ["diamond", "polytope-2d", "polytope-3d"])
def test_the_walk_over_a_polytope_net_runs_the_forward_pass_only_at_the_seed(name, monkeypatch):
    """h = 1 - sum |a_i.x|: two neurons share every facet row, so the walk
    crosses every facet by flipping both, calls `feasible_indicators`
    once (the seed) and builds no candidate that is not valid."""
    net = _shared_row_nets()[name]
    built, original = [], regions.build_level

    def recorded(*args):
        built.extend(out := original(*args))
        return out

    monkeypatch.setattr(regions, "build_level", recorded)
    result, called = _spied_walk(net, monkeypatch)
    assert not result.partial and called == [] and len(result.regions) > 3
    assert None not in built and len(built) == len(result.regions)


def _two_layer_diamond():
    """The diamond built over two layers: layer one holds relu(+-x1) and
    relu(+-x2), layer two relu(z1 - z2) = relu(x1) and its three siblings."""
    w1 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    w2 = np.array([[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0, -1.0], [0.0, 0.0, -1.0, 1.0]])
    return ReluNetwork([w1, w2], [np.zeros(4)] * 2, -np.ones(4), 1.0)


def test_the_walk_falls_back_where_neurons_of_two_layers_share_a_row(monkeypatch):
    """On the two-layer diamond each facet row holds neurons of both
    layers, so `neurons` is empty there and every distinct facet point
    runs the forward pass once: the two facets through each vertex of the
    diamond share it."""
    result, called = _spied_walk(_two_layer_diamond(), monkeypatch)
    assert [r.indicator.compact() for r in result.regions] == [
        f"{c}.{c}" for c in ("0101", "0110", "1001", "1010")]
    assert all(group == () for region in result.regions for group in region.neurons)
    assert not result.partial
    assert sum(len(region.facet_points) for region in result.regions) == 8
    points = {p.tobytes() for region in result.regions for p in region.facet_points}
    assert sorted(p.tobytes() for p in called) == sorted(points) and len(points) == 4


@pytest.mark.parametrize("two_layers", [False, True])
def test_the_diamond_at_its_exact_region_count_is_complete(two_layers):
    """max_regions = 4, the diamond's region count.  One layer: every facet
    flips to a valid neighbour.  Two layers: every facet runs the forward
    pass, whose flat candidates are tested and rejected; only a fifth valid
    region would pass the cap.  Either way nothing is left out."""
    net = _two_layer_diamond() if two_layers else diamond_net()
    seed = indicator_of("1010.1010") if two_layers else ind(1, 0, 1, 0)
    result = boundary_propagation(net, build_valid_region(net, seed),
                                  DEFAULT_CONFIG.updated(max_regions=4))
    assert len(result.regions) == 4
    assert (result.visited_count, result.errors) == (4, [])


def test_a_failing_frame_leaves_validity_to_the_lps_and_fails_again(monkeypatch):
    """With no frame there is no evidence: the slice LP's ball accepts
    1010, and the region, which needs its frame, fails with the frame's
    NumericalFailure; the frame is taken once."""
    frames, balls = [], []
    original = regions.inscribed_ball

    def failing(ps, *args, **kwargs):
        frames.append(ps)
        return [NumericalFailure("no frame") for _ in ps]

    monkeypatch.setattr(regions, "frames", failing)
    monkeypatch.setattr(regions, "inscribed_ball",
                        lambda *args, **kwargs: balls.append(args) or original(*args, **kwargs))
    with pytest.raises(NumericalFailure, match="no frame"):
        build_valid_region(diamond_net(), ind(1, 0, 1, 0))
    assert (len(frames), len(balls)) == (1, 1)


def test_the_seed_search_skips_a_sign_change_past_the_branching_cap():
    """The net of the branching-cap test: the pair (0, 3) / (0, 0) bisects
    onto (0, 1), where 22 neurons are zero, so that attempt finds nothing;
    a second pair (3, 3) / (0, 0) bisects into the 1010 piece."""
    w1 = np.array([[1.0, 0.0]] * 21 + [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    net = ReluNetwork([w1], [np.zeros(24)], np.array([-1.0 / 21] * 21 + [-1.0] * 3), 1.0)

    def scripted(*batches):   # an rng drawing the batches in turn, the last one from then on
        batches = list(batches)
        return SimpleNamespace(uniform=lambda lo, hi, size: batches.pop(0)
                               if len(batches) > 1 else batches[0])

    on_the_cap, diagonal = np.array([[0.0, 3.0], [0.0, 0.0]]), np.array([[3.0, 3.0], [0.0, 0.0]])
    cfg = DEFAULT_CONFIG.updated(max_attempts=3)
    with pytest.raises(SearchExhausted, match="^no valid region found in 3 attempts$"):
        find_initial_region(net, cfg, scripted(on_the_cap))
    region, meta = find_initial_region(net, cfg, scripted(on_the_cap, diagonal))
    assert (region.indicator.compact(), meta) == ("1" * 21 + "010", {"attempts": 2})


def test_propagation_matches_oracle_on_random_nets():
    hits = 0
    seed = 0
    while hits < 8:
        rng = np.random.default_rng(seed)
        seed += 1
        net = random_hidden_net(rng, neurons=5)
        oracle = brute_force_valid_regions(net)
        if not oracle:
            continue
        regions = [build_valid_region(net, c) for c in oracle]
        if not boundary_is_connected(regions):
            continue
        result = boundary_propagation(net, regions[0])
        assert [r.indicator for r in result.regions] == oracle
        hits += 1


def test_boundary_coverage_by_bisection():
    """Random level-set points must land inside some enumerated region."""
    net = diamond_net()
    seed = build_valid_region(net, ind(1, 0, 1, 0))
    regions = boundary_propagation(net, seed).regions
    rng = np.random.default_rng(123)
    covered = 0
    for _ in range(200):
        x_pos = np.zeros(2)
        x_neg = rng.uniform(-3, 3, size=2)
        if net.forward(x_neg) >= 0:
            continue
        for _ in range(60):
            mid = 0.5 * (x_pos + x_neg)
            if net.forward(mid) >= 0:
                x_pos = mid
            else:
                x_neg = mid
        point = 0.5 * (x_pos + x_neg)
        assert any(r.constraints.contains(point, tol=1e-6) for r in regions)
        covered += 1
    assert covered > 100


def test_valid_region_slice_dimension():
    net = diamond_net()
    region = build_valid_region(net, ind(1, 0, 1, 0))
    assert region.constraints.num_rows == 2  # duplicates removed
    assert not region.degenerate
    point = slice_feasible_point(region.slice)
    assert point is not None
    assert abs(region.slice.w @ point + region.slice.b) <= 1e-7


# -- the walk a level at a time ------------------------------------------------------

@functools.cache
def _walk_seeds():
    """(net, seed region) for `frame_nets`' nets, the enum-affine bench nets
    and two ill-scaled nets whose walks end partial, where the seed search
    finds a seed."""
    bench = load_bench_module("problems").build_workload("enum-affine", 1)
    nets = frame_nets() + [ill_scaled_deep_net(2), ill_scaled_deep_net(3)] + [
        network_from_json(p.net) for p in bench]
    seeds = []
    for net in nets:
        try:
            seeds.append((net, find_initial_region(net)[0]))
        except SearchExhausted:
            continue
    return seeds


def _levels(monkeypatch, name):
    """Record each call of `regions.<name>` (its arguments) while running."""
    calls, original = [], getattr(regions, name)
    monkeypatch.setattr(regions, name, lambda *args: calls.append(args) or original(*args))
    return calls, original


def test_each_walk_level_frames_as_its_candidates_alone(monkeypatch):
    """Every level of the walk, framed as one stack (`geometry.frames`),
    gives each candidate the frame `geometry.frame` gives it alone, array
    for array and bit for bit (or the same NumericalFailure)."""
    levels, frames = _levels(monkeypatch, "frames")
    for net, seed in _walk_seeds():
        boundary_propagation(net, seed)
    stacked = [level for level in levels if len(level[0]) > 1]
    assert len(stacked) > 100 and max(len(level[0]) for level in stacked) > 10
    for ps, tol, nears in stacked:
        for p, near, together in zip(ps, nears, frames(ps, tol, nears)):
            try:
                alone = geometry.frame(p, tol, near)
            except NumericalFailure as exc:
                assert isinstance(together, NumericalFailure) and str(together) == str(exc)
                continue
            assert len(together) == 3
            for a, b in zip(together, alone):
                assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


def _same_walk(got, want):
    assert [r.indicator.key() for r in got.regions] == [r.indicator.key() for r in want.regions]
    assert (got.visited_count, got.errors) == (want.visited_count, want.errors)
    for a, b in zip(got.regions, want.regions):
        assert a.neurons == b.neurons
        for x, y in ((a.vertices, b.vertices), (a.rays, b.rays), (a.tight, b.tight),
                     (a.slice.A, b.slice.A), (a.slice.d, b.slice.d), (a.slice.w, b.slice.w)):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("cap", [None, 2, 3, 5, 8, 13, 21, 34])
def test_the_level_walk_matches_the_sequential_walk(cap, monkeypatch):
    """The walk a level at a time finds the regions, visit count and error
    texts of the walk one candidate at a time (`helpers.sequential_walk`),
    uncapped and at region caps that stop it in the middle of a level."""
    cfg, inside = DEFAULT_CONFIG.updated(max_regions=cap), 0
    for net, seed in _walk_seeds():
        levels, build = _levels(monkeypatch, "build_level")
        uncapped = boundary_propagation(net, seed)
        monkeypatch.undo()
        found = np.cumsum([1] + [sum(r is not None and not isinstance(r, NumericalFailure)
                                     for r in build(*args)) for args in levels])
        got = boundary_propagation(net, seed, cfg)
        _same_walk(got, sequential_walk(net, seed, cfg))
        if cap is None:
            _same_walk(got, uncapped)
        elif cap < found[-1] and cap not in found:   # the cap falls inside a level
            inside += got.errors[-1] == f"region cap {cap} reached; enumeration stopped"
    assert cap is None or inside > 0


def test_a_level_builds_its_other_candidates_when_one_frame_fails(monkeypatch):
    """A level in which one candidate's frame raises NumericalFailure: that
    candidate is rejected alone, with the frame's message (the LPs accept
    its piece), and the others are built as they are without the failure."""
    net, seed = _walk_seeds()[-1]
    levels, build = _levels(monkeypatch, "build_level")
    boundary_propagation(net, seed)
    monkeypatch.undo()
    level = max((args[1] for args in levels), key=len)
    assert len(level) > 2
    want, frames = build(net, level), regions.frames

    def failing(ps, *args):
        out = frames(ps, *args)
        out[1] = NumericalFailure("injected frame failure")
        return out

    monkeypatch.setattr(regions, "frames", failing)
    got = build(net, level)
    assert isinstance(got[1], NumericalFailure) and str(got[1]) == "injected frame failure"
    assert isinstance(want[1], regions.ValidRegion)
    for a, b in zip(got[:1] + got[2:], want[:1] + want[2:]):
        assert a.indicator == b.indicator
        assert all(np.array_equal(x, y) for x, y in ((a.vertices, b.vertices), (a.rays, b.rays),
                                                      (a.tight, b.tight)))


def test_a_failing_frame_lp_rejects_its_candidate_alone(monkeypatch):
    """Regions of 17 rows on a 3-D slice (C(17, 3) > 512 subsets) are
    framed by the edge walk, one at a time, and with no start point each
    walk's first basis comes from the ball LP.  When that LP fails for one
    candidate of a level, the candidate alone is rejected with the LP's
    message (the walk's `candidate` error) and the others build as alone."""
    rng = np.random.default_rng(5)
    net = ReluNetwork([rng.normal(size=(17, 4))], [rng.normal(size=17)], rng.normal(size=17), 0.3)
    seed = find_initial_region(net)[0]
    level = [(seed.indicator.flipped(n), None) for n in dict.fromkeys(seed.neurons) if n][:3]
    alone = [build_valid_region(net, ind) for ind, _ in level]
    assert len(level) == 3 and all(isinstance(r, regions.ValidRegion) for r in alone)
    bad, ball = net.piece(level[0][0])[1], geometry.inscribed_ball

    def failing(p, *args):
        if p.w is not None and np.array_equal(p.w, bad):
            raise NumericalFailure("injected LP failure")
        return ball(p, *args)

    monkeypatch.setattr(geometry, "inscribed_ball", failing)
    got = regions.build_level(net, level)
    assert isinstance(got[0], NumericalFailure) and str(got[0]) == "injected LP failure"
    for a, b in zip(got[1:], alone[1:]):
        assert a.indicator == b.indicator
        assert all(np.array_equal(x, y) for x, y in ((a.vertices, b.vertices), (a.rays, b.rays),
                                                      (a.tight, b.tight)))
    build = regions.build_level
    monkeypatch.setattr(regions, "build_level",   # every frame from the ball LP
                        lambda net, level, *args: build(net, [(i, None) for i, _ in level], *args))
    walk = boundary_propagation(net, seed, DEFAULT_CONFIG.updated(max_regions=12))
    assert f"candidate {level[0][0].compact()}: injected LP failure" in walk.errors


def test_a_level_frames_only_the_candidates_that_valid_test_asks_for_or_accepts(monkeypatch):
    """The diamond's 16 indicators as one level: the flat ones and the one
    with w = 0 and b != 0, which `valid_test` rejects before it asks for
    evidence, are never framed; the others are framed once each, and every
    candidate builds as it does alone."""
    net = diamond_net()
    level = [(ind(*bits), None) for bits in itertools.product((0, 1), repeat=4)]

    def key(A, w):   # a patch by its distinct nonzero rows and its w
        return frozenset(bytes(row + 0.0) for row in A if row.any()), bytes(w + 0.0)

    asks = Counter()
    for indicator, _ in level:
        region, w, b = net.piece(indicator)
        asked = []
        if valid_test(region, w, b, evidence=lambda: asked.append(1)) or asked:
            asks[key(region.A, w)] += 1
    framed, frames = Counter(), regions.frames

    def recorded(ps, *args):
        framed.update(key(p.A, p.w) for p in ps)
        return frames(ps, *args)

    monkeypatch.setattr(regions, "frames", recorded)
    got = regions.build_level(net, level)
    assert framed == asks and 4 <= sum(asks.values()) < len(level)
    for (indicator, _), a in zip(level, got):
        b = build_valid_region(net, indicator)
        assert (a is None) == (b is None)
        if a is not None:
            assert all(np.array_equal(x, y) for x, y in ((a.vertices, b.vertices),
                                                          (a.rays, b.rays), (a.tight, b.tight)))

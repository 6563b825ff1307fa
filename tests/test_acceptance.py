"""Acceptance gate: one test per headline guarantee, each printing a single
pass/fail line under ``pytest -v`` and enforcing its own wall-clock budget.

Every expectation is checked against an independent route (exhaustive
enumeration, dense grids, direct evaluation) rather than against the code
path that produced it.
"""

import json
import time

import numpy as np
import pytest

from relubarrier import (DEFAULT_CONFIG, FALSIFIED, VERIFIED,
                         boundary_propagation,
                         brute_force_valid_regions, build_report,
                         build_valid_region, check_invariance, evaluate,
                         interval_evaluate, load_problem,
                         parse_expression, report_bytes_without_timings,
                         verify_certificate, DynamicsSystem)

from helpers import (ALL_SYSTEMS, affine_system, boundary_is_connected, diamond_net,
                     random_hidden_net, scaled_output, slice_grid, strip_net,
                     write_problem)
from test_smtlib import query_holds_at


INIT = "0.04 - x1^2 - x2^2"
UNSAFE = "1 - (x1 - 3)^2 - (x2 - 3)^2"


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def test_acceptance_1_propagation_matches_oracle_on_50_random_nets():
    """Boundary propagation equals exhaustive enumeration on 50 random
    connected networks (2 inputs, one hidden layer of 4-8 neurons); 60 s."""
    with Stopwatch() as clock:
        accepted = 0
        attempt = 0
        while accepted < 50:
            attempt += 1
            rng = np.random.default_rng(1000 + attempt)
            neurons = int(rng.integers(4, 9))
            net = random_hidden_net(rng, neurons=neurons)
            oracle = brute_force_valid_regions(net)
            if not oracle:
                continue
            regions = [build_valid_region(net, c) for c in oracle]
            if not boundary_is_connected(regions):
                continue
            start = regions[int(rng.integers(len(regions)))]
            result = boundary_propagation(net, start)
            assert [r.indicator for r in result.regions] == oracle, \
                f"net #{attempt}: propagation disagrees with the oracle"
            assert not result.partial
            accepted += 1
    assert clock.elapsed < 60.0, f"took {clock.elapsed:.1f}s"


def test_acceptance_2_diamond_end_to_end():
    """The diamond certificate: four regions, every invariance bound within
    1e-6 of 1 for the contracting flow, and for the constant drift a
    counterexample on the first-quadrant edge x1+x2=1, x>=0; 1 s."""
    with Stopwatch() as clock:
        net = diamond_net()
        sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
        h_init = parse_expression(INIT, 2)
        h_unsafe = parse_expression(UNSAFE, 2)
        verdict = verify_certificate(net, sys, h_init, h_unsafe)
        assert verdict.overall == VERIFIED
        assert len(verdict.enumeration.regions) == 4
        for v in verdict.invariance_result.region_verdicts:
            assert v.status == VERIFIED
            assert abs(v.bound - 1.0) <= 1e-6

        drift = DynamicsSystem.parse(["1", "0"], dim=2)
        verdict = verify_certificate(net, drift, h_init, h_unsafe)
        assert verdict.invariance == FALSIFIED
        quadrant = {r.indicator.bits[0]: r
                    for r in verdict.enumeration.regions}[(1, 0, 1, 0)]
        v = next(v for v in verdict.invariance_result.region_verdicts
                 if v.indicator == quadrant.indicator)
        assert v.status == FALSIFIED
        x = np.asarray(v.witness)
        assert abs(x[0] + x[1] - 1.0) <= 1e-6
        assert x[0] >= -1e-6 and x[1] >= -1e-6
    assert clock.elapsed < 1.0, f"took {clock.elapsed:.2f}s"


def test_acceptance_3_disconnected_boundary_reported_as_assumption():
    """On the two-sided strip the walk finds one of the two oracle regions
    and the result is explicitly flagged as connectivity-assumed; 1 s."""
    with Stopwatch() as clock:
        net = strip_net()
        oracle = brute_force_valid_regions(net)
        assert len(oracle) == 2
        start = build_valid_region(net, oracle[0])
        result = boundary_propagation(net, start)
        assert len(result.regions) == 1
        assert result.connectivity_assumed is True
    assert clock.elapsed < 1.0, f"took {clock.elapsed:.2f}s"


def test_acceptance_4_affine_lp_agrees_with_dense_grid():
    """100 random (affine flow, network) pairs: the one-LP region verdicts
    agree with a 10^4-point slice grid whenever the optimum is more than
    1e-5 from zero; 120 s."""
    with Stopwatch() as clock:
        rng = np.random.default_rng(42)
        compared = 0
        pairs = 0
        while pairs < 100:
            net = random_hidden_net(rng, neurons=int(rng.integers(4, 7)))
            indicators = brute_force_valid_regions(net)
            regions = [build_valid_region(net, c) for c in indicators]
            regions = [r for r in regions if not r.degenerate]
            if not regions:
                continue
            pairs += 1
            F = rng.normal(size=(2, 2))
            c = rng.normal(size=2)
            sys = affine_system(F, c)
            for region in regions:
                verdict = check_invariance(net, [region], sys).region_verdicts[0]
                if verdict.bound is None or abs(verdict.bound) <= 1e-5:
                    continue
                pts = slice_grid(region, 10_000)
                grid_min = float((pts @ (F.T @ region.affine.w)
                                  + region.affine.w @ c).min())
                compared += 1
                if verdict.status == VERIFIED:
                    assert grid_min >= -1e-5, \
                        f"grid found {grid_min} below a verified bound"
                else:
                    assert verdict.status == FALSIFIED
                    assert grid_min <= 1e-5, \
                        f"grid min {grid_min} contradicts falsification"
        assert compared >= 100  # the comparison actually exercised the gate
    assert clock.elapsed < 120.0, f"took {clock.elapsed:.1f}s"


def test_acceptance_5_interval_enclosure_soundness_100k_triples():
    """10^5 (expression, box, point) triples drawn from the four benchmark
    flows: interval evaluation never excludes a true value; 30 s."""
    with Stopwatch() as clock:
        rng = np.random.default_rng(7)
        components = [(dim, comp) for dim, sys in ALL_SYSTEMS.items()
                      for comp in sys]
        exprs = {(dim, comp): parse_expression(comp, dim)
                 for dim, comp in components}
        checked = 0
        for i in range(1000):
            dim, comp = components[int(rng.integers(len(components)))]
            e = exprs[(dim, comp)]
            centre = rng.uniform(-3, 3, size=dim)
            half = rng.uniform(0, 1.5, size=dim) * rng.random() + 1e-9
            lo = np.maximum(centre - half, -3.0)
            hi = np.minimum(centre + half, 3.0)
            iv = interval_evaluate(e, np.stack([lo, hi], axis=1))
            pts = rng.uniform(lo, hi, size=(100, dim))
            vals = np.array([evaluate(e, p) for p in pts])
            slack = 1e-9 * max(1.0, abs(iv.lo), abs(iv.hi))
            assert vals.min() >= iv.lo - slack, \
                f"{comp}: value below enclosure on box {lo}..{hi}"
            assert vals.max() <= iv.hi + slack, \
                f"{comp}: value above enclosure on box {lo}..{hi}"
            checked += 100
        assert checked == 100_000
    assert clock.elapsed < 30.0, f"took {clock.elapsed:.1f}s"


def test_acceptance_6_set_conditions_and_shifted_ball_witness():
    """Ball initial/unsafe sets verify on the diamond; shifting the initial
    ball onto the vertex (1,0) falsifies with a witness within 1e-6 of the
    level set; 2 s."""
    with Stopwatch() as clock:
        net = diamond_net()
        sys = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
        h_init = parse_expression(INIT, 2)
        h_unsafe = parse_expression(UNSAFE, 2)
        verdict = verify_certificate(net, sys, h_init, h_unsafe)
        assert verdict.initial_condition == VERIFIED
        assert verdict.unsafe_condition == VERIFIED

        shifted = parse_expression("0.01 - (x1 - 1)^2 - x2^2", 2)
        verdict = verify_certificate(net, sys, shifted, h_unsafe)
        assert verdict.initial_condition == FALSIFIED
        hits = [v for v in verdict.initial_result.region_verdicts
                if v.status == FALSIFIED]
        assert hits
        regions = {r.indicator: r for r in verdict.enumeration.regions}
        for v in hits:
            x = np.asarray(v.witness)
            assert regions[v.indicator].slice.contains(x, tol=1e-6)
            assert evaluate(shifted, x) > 0  # genuinely inside the set
    assert clock.elapsed < 2.0, f"took {clock.elapsed:.2f}s"


def test_acceptance_7_smt_queries_cross_checked_against_lp():
    """Exported per-region SMT queries, decided by evaluating their text,
    agree with the LP verdicts on affine fixtures; 10 s."""
    from relubarrier import ActivationIndicator, export_invariance
    with Stopwatch() as clock:
        net = diamond_net()
        seed = build_valid_region(net, ActivationIndicator(((1, 0, 1, 0),)))
        regions = boundary_propagation(net, seed).regions

        # contracting flow: every query must reject every slice sample
        stable = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
        for q, region in zip(export_invariance(regions, stable), regions):
            verdict = check_invariance(net, [region], stable).region_verdicts[0]
            assert verdict.status == VERIFIED
            for point in slice_grid(region, 300):
                assert not query_holds_at(q, point)

        # constant drift: the LP witness must satisfy the question text
        drift = DynamicsSystem.parse(["1", "0"], dim=2)
        falsified = 0
        for q, region in zip(export_invariance(regions, drift), regions):
            verdict = check_invariance(net, [region], drift).region_verdicts[0]
            if verdict.status == FALSIFIED:
                falsified += 1
                assert query_holds_at(q, verdict.witness)
        assert falsified >= 1

        # random affine flows over random certificates
        rng = np.random.default_rng(5)
        agreements = 0
        while agreements < 25:
            rnet = random_hidden_net(rng, neurons=5)
            rregions = [build_valid_region(rnet, cand) for cand in
                        brute_force_valid_regions(rnet)]
            rregions = [r for r in rregions if not r.degenerate]
            if not rregions:
                continue
            sysr = affine_system(rng.normal(size=(2, 2)), rng.normal(size=2))
            for q, region in zip(export_invariance(rregions, sysr), rregions):
                verdict = check_invariance(rnet, [region], sysr).region_verdicts[0]
                if verdict.bound is None or abs(verdict.bound) <= 1e-5:
                    continue
                agreements += 1
                if verdict.status == FALSIFIED:
                    assert query_holds_at(q, verdict.witness)
                else:
                    for point in slice_grid(region, 200):
                        assert not query_holds_at(q, point)
    assert clock.elapsed < 10.0, f"took {clock.elapsed:.1f}s"


def test_acceptance_8_determinism_and_output_scaling(tmp_path):
    """Same problem, same seed: byte-identical reports modulo timings.
    Scaling the output layer by 7 leaves the region set, the verdicts and
    the witnesses unchanged; 5 s."""
    with Stopwatch() as clock:
        problem_path = write_problem(tmp_path, diamond_net(),
                                     ["x1 - x1^3 + x2 - x1*x2^2",
                                      "-x1 + x2 - x1^2*x2 - x2^3"],
                                     INIT, UNSAFE)
        reports = []
        for _ in range(2):
            lp = load_problem(problem_path)
            verdict = verify_certificate(lp.network, lp.system, lp.h_init,
                                         lp.h_unsafe, lp.config)
            reports.append(build_report(lp, verdict))
        assert report_bytes_without_timings(reports[0]) == \
            report_bytes_without_timings(reports[1])

        net = diamond_net()
        sys = DynamicsSystem.parse(["1", "0"], dim=2)
        base = verify_certificate(net, sys, None, None)
        scaled = verify_certificate(scaled_output(net, 7.0), sys, None, None)
        base_regions = base.enumeration.regions
        scaled_regions = scaled.enumeration.regions
        assert [r.indicator for r in base_regions] == \
            [r.indicator for r in scaled_regions]
        for rb, rs in zip(base_regions, scaled_regions):
            assert np.allclose(rs.affine.w, 7.0 * rb.affine.w)
            assert rs.affine.b == pytest.approx(7.0 * rb.affine.b)
        for vb, vs in zip(base.invariance_result.region_verdicts,
                          scaled.invariance_result.region_verdicts):
            assert vb.status == vs.status
            if vs.witness is not None:
                region = next(r for r in base_regions
                              if r.indicator == vs.indicator)
                assert region.slice.contains(np.asarray(vs.witness), tol=1e-6)
    assert clock.elapsed < 5.0, f"took {clock.elapsed:.2f}s"

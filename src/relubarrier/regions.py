"""Enumerating the linear regions that carry the zero level set.

A region is *valid* when it is full-dimensional and its intersection with
the hyperplane of its own affine piece has dimension n-1 (the intersection
actually carries a patch of the level set, rather than grazing a corner).
Each dimension is one inscribed-ball LP: the ball's diameter must exceed tol_eq.

Enumeration starts from one valid region found by sampling/bisection and
propagates across facets: wherever the level set meets a facet of a known
region, the indicators feasible at that point name the neighbours.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, VerifierConfig
from .errors import CombinatorialBlowup, NumericalFailure, OracleTooLarge, SearchExhausted
from .geometry import Polyhedron, SlicePolyhedron, inscribed_radius, remove_redundant
from .linprog import lp_feasible
from .network import (ActivationIndicator, RegionAffine, ReluNetwork,
                      expand_candidate)


@dataclass
class ValidRegion:
    """A valid region with its affine piece and reduced constraint system."""

    indicator: ActivationIndicator
    affine: RegionAffine
    constraints: Polyhedron        # irredundant region inequalities
    slice: SlicePolyhedron         # constraints meet {w.x + b = 0}
    degenerate: bool = False       # the piece is identically zero (w = 0, b = 0)

    def key(self):
        return self.indicator.key()


@dataclass
class EnumerationResult:
    regions: list[ValidRegion]
    visited_count: int
    connectivity_assumed: bool = True
    partial: bool = False
    errors: list[str] = field(default_factory=list)
    seed_indicator: ActivationIndicator | None = None


def valid_test(net: ReluNetwork, ind: ActivationIndicator,
               cfg: VerifierConfig = DEFAULT_CONFIG, region: Polyhedron | None = None,
               aff: RegionAffine | None = None) -> bool:
    """Decide whether ind names a valid region, with at most two LPs.

    Checks, in order: the region's largest inscribed ball has diameter
    > tol_eq; the affine piece is not identically zero (w = 0, b = 0 counts
    as valid but degenerate, w = 0 with b != 0 has an empty slice); the
    largest such ball within the hyperplane w.x + b = 0 has diameter > tol_eq.
    region and aff, when given, must be net's constraints and affine piece
    for ind; otherwise they are computed here.
    """
    if region is None:
        region = net.region_constraints(ind)
    radius = inscribed_radius(region, tol_feas=cfg.tol_feas)
    if radius is None or 2.0 * radius <= cfg.tol_eq:
        return False
    if aff is None:
        aff = net.affine_map(ind)
    if not aff.w.any():
        return bool(aff.b == 0.0)
    radius = inscribed_radius(region, aff.w, aff.b, tol_feas=cfg.tol_feas)
    return radius is not None and 2.0 * radius > cfg.tol_eq


def build_valid_region(net: ReluNetwork, ind: ActivationIndicator,
                       cfg: VerifierConfig = DEFAULT_CONFIG) -> ValidRegion | None:
    """Validate ind and construct its ValidRegion, or None when it is not valid."""
    region, aff = net.region_constraints(ind), net.affine_map(ind)
    if not valid_test(net, ind, cfg, region, aff):
        return None
    reduced = remove_redundant(region, tol_feas=cfg.tol_feas)
    return ValidRegion(indicator=ind, affine=aff, constraints=reduced,
                       slice=SlicePolyhedron(reduced, aff.w, aff.b),
                       degenerate=not aff.w.any())


# -- initial region search -------------------------------------------------------

def set_guided_sampler(net: ReluNetwork, h_init=None, h_unsafe=None,
                       domain: np.ndarray | None = None):
    """Point source for the initial search.

    Draws uniformly from the domain box and tags each point by the first
    set whose describing function is positive there, so the search can
    report whether the seeding pair came from the given sets or from plain
    domain sampling.
    """
    from .expressions import evaluate  # local import to avoid a cycle at import time

    if domain is None:
        domain = DEFAULT_CONFIG.domain(net.input_dim)

    def draw(rng):
        x = rng.uniform(domain[:, 0], domain[:, 1])
        tag = "domain"
        try:
            if h_init is not None and evaluate(h_init, x) > 0.0:
                tag = "initial-set"
            elif h_unsafe is not None and evaluate(h_unsafe, x) > 0.0:
                tag = "unsafe-set"
        except Exception:
            tag = "domain"
        return x, tag

    return draw


def _bisect_to(net, x_neg, x_pos, eps):
    """Shrink a sign-bracketing pair to distance <= eps by midpoint steps."""
    x_neg = np.array(x_neg, dtype=float)
    x_pos = np.array(x_pos, dtype=float)
    while float(np.linalg.norm(x_neg - x_pos)) > eps:
        mid = 0.5 * (x_neg + x_pos)
        if net.forward(mid) < 0.0:
            x_neg = mid
        else:
            x_pos = mid
    return x_neg, x_pos


def find_initial_region(net: ReluNetwork, sampler, cfg: VerifierConfig = DEFAULT_CONFIG,
                        rng: np.random.Generator | None = None):
    """Locate one valid region by sampling a sign change and bisecting.

    Returns (ValidRegion, metadata).  Each attempt samples a pair with
    h(x1)h(x2) < 0, bisects until the pair is eps-close, wraps it in its
    interval hull, propagates bounds to get a candidate indicator, and runs
    the validity test over the candidate's completions.  If interval
    propagation leaves too many neurons undetermined, eps shrinks tenfold
    and the bisection continues.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    draw_budget = 2000
    for attempt in range(1, cfg.max_attempts + 1):
        x_neg = x_pos = None
        tag_neg = tag_pos = None
        for _ in range(draw_budget):
            x, tag = sampler(rng)
            h = net.forward(x)
            if h < 0.0 and x_neg is None:
                x_neg, tag_neg = x, tag
            elif h > 0.0 and x_pos is None:
                x_pos, tag_pos = x, tag
            if x_neg is not None and x_pos is not None:
                break
        if x_neg is None or x_pos is None:
            continue  # no sign change found this attempt

        eps = cfg.bisect_eps
        while eps > 1e-13:
            a, b = _bisect_to(net, x_neg, x_pos, eps)
            hull = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
            cand = net.ibp_candidate(hull)
            if cand.num_unknown > cfg.branch_cap:
                eps /= 10.0
                continue
            for ind in expand_candidate(cand, cfg.branch_cap):
                region = build_valid_region(net, ind, cfg)
                if region is not None:
                    meta = {"attempts": attempt, "eps": eps,
                            "pair_tags": (tag_neg, tag_pos),
                            "mode": ("set-guided" if "domain" not in (tag_neg, tag_pos)
                                     else "domain-uniform")}
                    return region, meta
            break  # candidates all invalid: resample a fresh pair
    raise SearchExhausted(f"no valid region found in {cfg.max_attempts} attempts")


# -- boundary propagation ---------------------------------------------------------

def boundary_propagation(net: ReluNetwork, seed: ValidRegion,
                         cfg: VerifierConfig = DEFAULT_CONFIG) -> EnumerationResult:
    """Grow the set of valid regions across shared facets from a seed.

    FIFO worklist; every facet of a known region that meets the level set
    yields a point whose feasible indicators are validity-tested.  Output
    is sorted by indicator key, so the result does not depend on worklist
    scheduling.  Completeness rests on the level set being connected,
    which is assumed, not verified.
    """
    regions: dict[tuple, ValidRegion] = {seed.key(): seed}
    rejected: set[tuple] = set()
    queue: deque[tuple] = deque([seed.key()])
    visited: set[tuple] = set()
    errors: list[str] = []
    partial = False

    while queue:
        key = queue.popleft()
        if key in visited:
            continue
        visited.add(key)
        region = regions[key]
        if region.degenerate:
            errors.append(f"region {region.indicator.compact()}: degenerate piece, "
                          "facet propagation skipped")
            partial = True
            continue
        A, d = region.constraints.A, region.constraints.d
        w, b = region.affine.w, region.affine.b
        facet_hits = 0
        for j in range(region.constraints.num_rows):
            if net.input_dim == 2 and facet_hits >= 4:
                break  # a line meets at most 4 facet-bearing edges in the plane
            others = [k for k in range(region.constraints.num_rows) if k != j]
            point = lp_feasible(A[others], d[others],
                                np.vstack([w[None, :], A[j][None, :]]),
                                np.array([-b, d[j]]),
                                num_vars=net.input_dim, tol_feas=cfg.tol_feas)
            if point is None:
                continue
            facet_hits += 1
            try:
                neighbours = net.feasible_indicators(point, cfg.tol_zero, cfg.branch_cap)
            except CombinatorialBlowup as exc:
                errors.append(f"region {region.indicator.compact()} facet {j}: {exc}")
                partial = True
                continue
            cap_hit = False
            for ind in neighbours:
                k = ind.key()
                if k in regions or k in rejected:
                    continue
                if cfg.max_regions is not None and len(regions) >= cfg.max_regions:
                    cap_hit = True
                    break
                try:
                    neighbour = build_valid_region(net, ind, cfg)
                except NumericalFailure as exc:
                    errors.append(f"candidate {ind.compact()}: {exc}")
                    partial = True
                    rejected.add(k)
                    continue
                if neighbour is not None:
                    regions[k] = neighbour
                    queue.append(k)
                else:
                    rejected.add(k)
            if cap_hit:
                errors.append(f"region cap {cfg.max_regions} reached; enumeration stopped")
                partial = True
                queue.clear()
                break

    ordered = [regions[k] for k in sorted(regions)]
    return EnumerationResult(regions=ordered, visited_count=len(visited),
                             connectivity_assumed=True, partial=partial,
                             errors=errors, seed_indicator=seed.indicator)


# -- exhaustive oracle ------------------------------------------------------------

def brute_force_valid_regions(net: ReluNetwork,
                              cfg: VerifierConfig = DEFAULT_CONFIG
                              ) -> list[ActivationIndicator]:
    """Every valid indicator by exhaustive enumeration, in canonical order.

    Exponential in the neuron count; refuses networks above cfg.oracle_cap.
    """
    total = net.num_neurons
    if total > cfg.oracle_cap:
        raise OracleTooLarge(f"{total} neurons exceed the oracle cap {cfg.oracle_cap}")
    sizes = net.layer_sizes
    out = []
    for flat in itertools.product((0, 1), repeat=total):
        layers = []
        pos = 0
        for m in sizes:
            layers.append(tuple(flat[pos:pos + m]))
            pos += m
        ind = ActivationIndicator(tuple(layers))
        if valid_test(net, ind, cfg):
            out.append(ind)
    return out


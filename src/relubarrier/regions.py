"""Enumerating the linear regions that carry the zero level set.

A region is *valid* when it is full-dimensional and its intersection with
the hyperplane of its own affine piece (its *slice*) has dimension n-1:
inscribed balls wider than TOL_EQ.  A point of the patch's frame
(`geometry.frame`) mostly shows that with no LP, the slice's LP being the
fallback, and a slab no wider than TOL_EQ between opposite rows needs none.
The frame gives the rest of a valid region: a row that one of its vertices
meets within tol_feas touches the slice, and the mean of the vertices that
meet it is its facet point; the other rows are redundant there.
`constraints` keeps the distinct nonzero rows (the exact region), the slice
the touching rows, which the deciders and the SMT export read.
`enumerate_level_set` is the one enumeration route: unless interval bounds
show that h keeps one sign on the domain box, it finds one valid region and
propagates across facets from it.  The candidates at a point of the level
set (a facet point, or the seed's sign change bisected to float resolution,
which also starts their frames) are the indicators feasible there; at a
simple facet, the only row all its vertices meet, shared by neurons of one
layer alone, the region and those neurons flipped, with no forward pass (a
partial flip leaves a flat slab).  A NumericalFailure
(validity LP or frame) rejects a candidate, and a facet point past which no
valid region continues the level set is an error: the enumeration is partial.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, ORACLE_CAP, TOL_EQ, VerifierConfig
from .errors import CombinatorialBlowup, NumericalFailure, SearchExhausted
from .geometry import Polyhedron, frame, inscribed_ball
from .network import ActivationIndicator, ReluNetwork


@dataclass
class ValidRegion:
    """A valid region with its rows, its slice and its facet points; the
    slice's w and b are the region's affine piece h(x) = w.x + b."""

    indicator: ActivationIndicator
    constraints: Polyhedron        # the region's distinct nonzero rows
    slice: Polyhedron              # the rows touching {w.x + b = 0}, on that hyperplane
    vertices: np.ndarray           # the patch's vertices and rays, as rows (`frame`)
    rays: np.ndarray
    tight: np.ndarray              # per vertex, the touching rows it meets
    neurons: list[tuple]           # per touching row, its neurons (flat indices) if of one layer

    @property
    def facet_points(self) -> list[np.ndarray]:   # per touching row, its vertices' mean
        return [self.vertices[on].mean(axis=0) for on in self.tight.T]

    @property
    def degenerate(self) -> bool:
        """The piece is identically zero: a valid piece with w = 0 has b = 0."""
        return not self.slice.w.any()


@dataclass
class EnumerationResult:
    """The valid regions of one level-set component in indicator-key order,
    the number of regions taken off the worklist, the seed region's
    indicator, what cut the walk short (``partial`` when anything did), and
    the seed search's {"attempts"} (`find_initial_region`)."""

    regions: list[ValidRegion]
    visited_count: int
    seed_indicator: ActivationIndicator
    errors: list[str] = field(default_factory=list)
    search: dict = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return bool(self.errors)

    @property
    def connectivity_assumed(self) -> bool:
        return True   # propagation reaches one component of the level set only


def valid_test(region: Polyhedron, w: np.ndarray, b: float,
               cfg: VerifierConfig = DEFAULT_CONFIG, evidence=None) -> bool:
    """Decide whether the piece w.x + b on region (`ReluNetwork.piece`)
    makes a valid region, mostly with no LP.

    The largest balls in the region and in its slice on w.x + b = 0 have
    diameter > TOL_EQ (w = 0: valid but degenerate if b = 0, else no slice).
    No such ball fits between rows a.x <= d_i and -a.x <= d_j (exactly
    opposite) with d_i + d_j <= TOL_EQ |a|, so that flat region is rejected
    before any LP; rows only nearly opposite are left to the LPs.
    Both balls fit about a point c of the hyperplane farther than TOL_EQ / 2
    + tol_feas from each nonzero row, zero rows holding (|a N| <= |a| in its
    `chart`): past the flat check, with w != 0, evidence() (a point or None)
    is tried as c, then the slice LP's centre; the region's LP runs last."""
    A, d = region.A[nz := region.A.any(axis=1)], region.d[nz]
    norms, sums = np.linalg.norm(A, axis=1), A.sum(axis=1)
    i, j = np.nonzero(sums[:, None] == -sums)   # negating a row negates its sum exactly
    if i.size and np.any(np.all(A[i] == -A[j], axis=1) & (d[i] + d[j] <= TOL_EQ * norms[i])):
        return False
    margin = (TOL_EQ / 2.0 + cfg.tol_feas) * norms
    if w.any():
        c = None if evidence is None else evidence()
        if c is not None and np.all(region.d[~nz] >= 0.0) and np.all(d - A @ c > margin):
            return True
        ball = inscribed_ball(Polyhedron(region.A, region.d, w, b), cfg.tol_feas)
        if ball is None or 2.0 * ball[1] <= TOL_EQ:
            return False
        if np.all(d - A @ ball[0] > margin):
            return True
    ball = inscribed_ball(region, cfg.tol_feas)
    return ball is not None and 2.0 * ball[1] > TOL_EQ and bool(w.any() or b == 0.0)


def build_valid_region(net: ReluNetwork, ind: ActivationIndicator,
                       cfg: VerifierConfig = DEFAULT_CONFIG, near=None) -> ValidRegion | None:
    """Validate ind and construct its ValidRegion, or None when it is not
    valid; near, a point of the patch if given, starts its frame.  The frame
    is `valid_test`'s evidence (its vertices' mean plus its unit rays), so it
    comes first; one that fails leaves validity to the LPs, and fails again
    if they accept.  A degenerate piece (w = 0) has the whole region for its patch."""
    region, w, b = net.piece(ind)
    first, nz = {}, region.A.any(axis=1)
    for j, row in enumerate(np.column_stack([region.A, region.d]) + 0.0):   # -0.0 keys as 0.0
        first.setdefault(row.tobytes(), []).append(j)
    groups = [js for js in first.values() if nz[js[0]]]
    keep = [js[0] for js in groups]
    exact = Polyhedron(region.A[keep], region.d[keep])
    patch, framed = Polyhedron(exact.A, exact.d, w, b), []

    def evidence():
        try:
            framed.append(frame(patch, cfg.tol_feas, near))
        except NumericalFailure:
            return None
        vertices, rays, _ = framed[0]
        return vertices.mean(axis=0) + rays.sum(axis=0) if len(vertices) else None

    if not valid_test(region, w, b, cfg, evidence):
        return None
    vertices, rays, tight = framed[0] if framed else frame(patch, cfg.tol_feas, near)
    span = np.vstack([vertices[1:] - vertices[:1], rays])
    if not len(vertices) or np.linalg.matrix_rank(span) < len(w) - w.any():
        raise NumericalFailure(f"valid region {ind.compact()}: its frame spans fewer "
                               "dimensions than its patch")
    touching = np.flatnonzero(tight.any(axis=0))
    ends = list(itertools.accumulate(net.layer_sizes))   # neurons of one layer, else none
    neurons = [tuple(js) if nz.all() and not any(js[0] < e <= js[-1] for e in ends)
               else () for js in (groups[t] for t in touching)]
    return ValidRegion(ind, exact, Polyhedron(exact.A[touching], exact.d[touching], w, b),
                       vertices, rays, tight[:, touching], neurons)


# -- initial region search -------------------------------------------------------

def find_initial_region(net: ReluNetwork, cfg: VerifierConfig = DEFAULT_CONFIG,
                        rng: np.random.Generator | None = None):
    """Locate one valid region the way propagation finds a neighbour.

    Returns (ValidRegion, {"attempts": n}).  Each attempt draws 2000 points
    uniformly from the domain box as one batch, takes the first with h < 0
    and the first with h > 0, and halves that pair until its midpoint equals
    one of its ends (float resolution).  The indicators feasible at the
    h < 0 end are then validity-tested in key order, and one that fails
    numerically (a validity LP, or its patch's frame) counts as invalid;
    when none is valid, or more than BRANCH_CAP neurons are zero there, the
    next attempt draws anew.  The SearchExhausted
    message counts the candidates that failed so.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    domain = cfg.domain(net.input_dim)
    failed = 0
    for attempt in range(1, cfg.max_attempts + 1):
        xs = rng.uniform(domain[:, 0], domain[:, 1], size=(2000, net.input_dim))
        h = net.forward_many(xs)
        neg, pos = np.flatnonzero(h < 0.0), np.flatnonzero(h > 0.0)
        if not (neg.size and pos.size):
            continue  # no sign change found this attempt
        x_neg, x_pos = xs[neg[0]], xs[pos[0]]
        while True:
            mid = 0.5 * (x_neg + x_pos)
            if (mid == x_neg).all() or (mid == x_pos).all():
                break
            if net.forward(mid) < 0.0:
                x_neg = mid
            else:
                x_pos = mid
        try:
            candidates = net.feasible_indicators(x_neg)
        except CombinatorialBlowup:
            continue
        for ind in candidates:
            try:
                region = build_valid_region(net, ind, cfg, x_neg)
            except NumericalFailure:
                failed += 1
                continue   # counts as invalid, as in propagation
            if region is not None:
                return region, {"attempts": attempt}
    raise SearchExhausted(f"no valid region found in {cfg.max_attempts} attempts"
                          + (f"; {failed} candidates failed numerically"
                             if failed else ""))


# -- boundary propagation ---------------------------------------------------------

def boundary_propagation(net: ReluNetwork, seed: ValidRegion,
                         cfg: VerifierConfig = DEFAULT_CONFIG) -> EnumerationResult:
    """Grow the set of valid regions across shared facets from a seed.

    FIFO worklist; at each facet point of a known region (one per row
    touching its slice) its candidates, found once per point, are validity-tested; a
    facet point where none but the region itself is valid is an error, as
    the level set goes on past a facet, so some region there is missing; so is
    a valid region past cfg.max_regions, which stops the walk.  Output
    is sorted by indicator key, so the result does not depend on worklist
    scheduling.  Completeness rests on the level set being connected,
    which is assumed, not verified.
    """
    regions: dict[tuple, ValidRegion] = {seed.indicator.key(): seed}
    rejected: set[tuple] = set()
    candidates: dict[bytes, list | None] = {}   # per facet point, which facets may share
    queue: deque[ValidRegion] = deque([seed])   # a region enters once, when found
    errors: list[str] = []
    visited = 0

    def result():
        return EnumerationResult([regions[k] for k in sorted(regions)], visited,
                                 seed.indicator, errors)

    while queue:
        region = queue.popleft()
        visited += 1
        if region.degenerate:
            errors.append(f"region {region.indicator.compact()}: degenerate piece, "
                          "facet propagation skipped")
            continue
        for j, point in enumerate(region.facet_points):
            n, key = region.neurons[j], point.tobytes()   # simple: n's row alone meets its vertices
            try:
                neighbours = sorted([region.indicator, region.indicator.flipped(n)],
                                    key=ActivationIndicator.key) if n and \
                    region.tight[region.tight[:, j]].all(axis=0).sum() == 1 \
                    else candidates[key] if key in candidates \
                    else candidates.setdefault(key, net.feasible_indicators(point))
            except CombinatorialBlowup as exc:
                neighbours = candidates[key] = None
                errors.append(f"region {region.indicator.compact()} facet {j}: {exc}")
            if neighbours is None:   # the point's forward pass branched past the cap
                continue
            for ind in neighbours:
                k = ind.key()
                if k in regions or k in rejected:
                    continue
                try:
                    neighbour = build_valid_region(net, ind, cfg, point)
                except NumericalFailure as exc:
                    errors.append(f"candidate {ind.compact()}: {exc}")
                    rejected.add(k)
                    continue
                if neighbour is not None:
                    if cfg.max_regions is not None and len(regions) >= cfg.max_regions:
                        errors.append(f"region cap {cfg.max_regions} reached; enumeration stopped")
                        return result()
                    regions[k] = neighbour
                    queue.append(neighbour)
                else:
                    rejected.add(k)
            if not any(i.key() in regions for i in neighbours if i != region.indicator):
                errors.append(f"region {region.indicator.compact()} facet {j}: no valid "
                              "region continues the level set there")
    return result()


def enumerate_level_set(net: ReluNetwork, cfg: VerifierConfig = DEFAULT_CONFIG
                        ) -> EnumerationResult:
    """The valid regions of one level-set component: the seed search, then
    boundary propagation.  The result's ``search`` holds the seed search's
    {"attempts"}.

    Raises SearchExhausted at once when interval bound propagation shows
    that h keeps one sign on the domain box the seed search draws from,
    since no sign change can turn up there; also when the search fails.
    """
    lo, hi = net.ibp_bounds(cfg.domain(net.input_dim))
    if lo > cfg.tol_feas or hi < -cfg.tol_feas:
        raise SearchExhausted(f"h keeps one sign on the domain box: interval bound "
                              f"propagation encloses it in [{lo:.6g}, {hi:.6g}]")
    seed, meta = find_initial_region(net, cfg)
    result = boundary_propagation(net, seed, cfg)
    result.search = meta
    return result


# -- exhaustive oracle ------------------------------------------------------------

def brute_force_valid_regions(net: ReluNetwork,
                              cfg: VerifierConfig = DEFAULT_CONFIG
                              ) -> list[ActivationIndicator]:
    """Every valid indicator by exhaustive enumeration, in canonical order.

    Exponential in the neuron count; refuses networks above ORACLE_CAP neurons.
    """
    total = net.num_neurons
    if total > ORACLE_CAP:
        raise ValueError(f"{total} neurons exceed the oracle cap {ORACLE_CAP}")
    sizes = net.layer_sizes
    out = []
    for flat in itertools.product((0, 1), repeat=total):
        layers = []
        pos = 0
        for m in sizes:
            layers.append(tuple(flat[pos:pos + m]))
            pos += m
        ind = ActivationIndicator(tuple(layers))
        if valid_test(*net.piece(ind), cfg):
            out.append(ind)
    return out


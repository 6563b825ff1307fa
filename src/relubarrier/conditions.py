"""Deciding the certificate conditions region by region.

Every per-region question is phrased as "is min g(x) over the region's
level-set patch >= -tol_margin?", with g one expression built by
`expressions.weighted_sum`:

* invariance: g = w . f   (the piece's gradient against the field)
* initial set:  g = -h_I  (the set function must stay <= 0 on the patch)
* unsafe set:   g = -h_U

All three go through one ladder, `_decide`, cheapest sound rung first, and
every rung reads g with the expression module's own routes.  Whether g is
affine depends on the flow and the set function, never on the region, so
each check takes the affine forms (`_linear_form`) once: of each flow
component (w.f is affine where every component of nonzero weight is) or of
the set function.  A g with an affine form is decided exactly off the
patch's vertices and rays (`regions.ValidRegion`); otherwise interval
branch-and-bound (BaB) over simplices cut from the patch's vertices,
enclosing g with `interval_evaluate`, verifies or finds a witness, and a
falsification search, one batched check of the patch's vertices and of
points out along its rays, runs only when BaB leaves the patch open:
`unknown`, or `verified` only on the part of an unbounded patch inside the
domain box.  A BaB witness ends the ladder wherever it lies.  No rung
solves an LP: every simplex lies in the patch, and every search point is
checked against the patch's rows.
`verify_certificate` takes its regions from `regions.enumerate_level_set`,
the route the SMT export and the plots take as well.  Every witness,
whichever route produced it (a least vertex, a point out along a
descending ray, a search or BaB point), passes the one check
`_checked_witness`, which takes candidates as rows, a batch per call: a
witness lies on the slice within tol_feas and g evaluated there directly
(`evaluate`) is finite and below -max(tol_margin, FALSIFY_GATE).  A point
that fails the check yields `unknown`, never an unchecked `falsified`;
a condition verified over a partial enumeration is `unknown` too.  Set
conditions additionally probe sampled points of the set against the sign
of h (membership side of the containment/disjointness arguments); the
probe is one more status in the same aggregation as the region verdicts,
`unknown` when its draws run out.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import BAB_MIN_WIDTH, DEFAULT_CONFIG, FALSIFY_GATE, VerifierConfig
from .errors import DomainError, NoRegions, NumericalFailure, SearchExhausted
from .expressions import (DynamicsSystem, Expr, evaluate, interval_evaluate,
                          weighted_sum, _linear_form)
from .geometry import bounding_box, frame, triangulate
from .regions import EnumerationResult, ValidRegion, enumerate_level_set

VERIFIED = "verified"
FALSIFIED = "falsified"
UNKNOWN = "unknown"


@dataclass
class RegionVerdict:
    """One region's answer to one condition.  ``domain_restricted`` means
    the verdict covers only the part of the patch inside the domain box
    (an unbounded patch clamped to it); a falsified verdict never carries
    it, since its checked witness is a violation wherever it lies."""

    indicator: object
    status: str
    method: str
    bound: float | None = None
    witness: np.ndarray | None = None
    witness_value: float | None = None
    vacuous: bool = False
    domain_restricted: bool = False
    note: str = ""


@dataclass
class MembershipProbe:
    point: np.ndarray
    set_value: float
    h_value: float
    ok: bool
    samples: int


@dataclass
class ConditionResult:
    status: str
    region_verdicts: list[RegionVerdict]
    probe: MembershipProbe | None = None
    note: str = ""


@dataclass
class CertificateVerdict:
    """The three condition results (None after a failure, read as
    `unknown`), the enumeration they ran over, caveats, the failure record
    and timings; the statuses and the overall verdict derive from the results."""

    invariance_result: ConditionResult | None = None
    initial_result: ConditionResult | None = None
    unsafe_result: ConditionResult | None = None
    enumeration: EnumerationResult | None = None
    caveats: list[str] = field(default_factory=list)
    failure: dict | None = None
    timings: dict = field(default_factory=dict)

    @property
    def invariance(self) -> str:
        return getattr(self.invariance_result, "status", UNKNOWN)

    @property
    def initial_condition(self) -> str:
        return getattr(self.initial_result, "status", UNKNOWN)

    @property
    def unsafe_condition(self) -> str:
        return getattr(self.unsafe_result, "status", UNKNOWN)

    @property
    def overall(self) -> str:
        return _aggregate([self.invariance, self.initial_condition, self.unsafe_condition])


# -- shared by every route ------------------------------------------------------

def _gate(cfg) -> float:
    """A witness's value must lie below this."""
    return -max(cfg.tol_margin, FALSIFY_GATE)


def _status_from_value(value, cfg):
    """Margin semantics shared by every route."""
    if value >= -cfg.tol_margin:
        return VERIFIED
    if value < _gate(cfg):
        return FALSIFIED
    return UNKNOWN  # inside the float-noise band


def _checked_witness(sl, points, g: Expr, cfg) -> np.ndarray:
    """g at each row of points, evaluated directly (not the value a solver
    or a bound reports); NaN where the row is off the slice by more than
    tol_feas, or g is undefined or not finite there (overflow: a value no
    report can carry).

    Every route takes its witnesses from here: a witness is a row whose
    value is below `_gate`.
    """
    points = np.reshape(points, (-1, sl.dim))
    values = evaluate(g, points)
    values[~(sl.contains(points, cfg.tol_feas) & np.isfinite(values))] = np.nan
    return values


def _first_witness(region, method, points, values, cfg) -> RegionVerdict | None:
    """A falsified verdict at the first of points whose checked value is
    below `_gate`, or None."""
    hits = np.flatnonzero(values < _gate(cfg))
    if not hits.size:
        return None
    return RegionVerdict(region.indicator, FALSIFIED, method,
                         witness=np.array(points[hits[0]], dtype=float),
                         witness_value=float(values[hits[0]]))


# -- LP route: affine objectives, read off the frame ------------------------------

def _decide_affine(region: ValidRegion, g: Expr, form, cfg) -> RegionVerdict:
    """Exact min of g = coeffs.x + const (form) over the patch: its least
    vertex value, or -inf when a ray descends; a witness candidate then goes
    from the least vertex v along the steepest ray r to v + s r, where
    s = 1 + 2 max(0, g(v) - gate) / -coeffs.r puts g past the gate."""
    coeffs, const = form
    values = region.vertices @ coeffs + const
    x = region.vertices[int(np.argmin(values))]
    slopes = region.rays @ coeffs
    if slopes.min(initial=0.0) < -1e-12 * np.linalg.norm(coeffs):
        r = int(np.argmin(slopes))
        x = x + (1.0 + 2.0 * max(0.0, values.min() - _gate(cfg)) / -slopes[r]) * region.rays[r]
        verdict = RegionVerdict(region.indicator, FALSIFIED, "lp",
                                note="objective unbounded below")
    else:
        value = float(values.min())
        verdict = RegionVerdict(region.indicator, _status_from_value(value, cfg), "lp",
                                bound=value)
        if verdict.status == UNKNOWN:
            verdict.note = "optimum inside the float-noise band"
    if verdict.status == FALSIFIED:
        value = _checked_witness(region.slice, x, g, cfg)[0]
        if value < _gate(cfg):
            verdict.witness, verdict.witness_value = np.array(x), float(value)
        else:
            verdict.status = UNKNOWN
            verdict.note = "; ".join(filter(None, [verdict.note,
                                                   "LP point failed the witness check"]))
    return verdict


# -- falsification search ----------------------------------------------------------

def _falsify(region: ValidRegion, g: Expr, cfg) -> RegionVerdict | None:
    """Hunt for a slice point with g < -max(tol_margin, FALSIFY_GATE).

    One batch, with no LP: the patch's vertices and the points out along
    each ray from each vertex at 1, 2, 4, 8 and 16 domain-box widths,
    checked in one `_checked_witness` call.  Returns a falsified verdict at
    the first witness among them, or None when there is none (which proves
    nothing).
    """
    vertices = region.vertices
    width = float(np.max(np.ptp(cfg.domain(region.slice.dim), axis=1)))
    points = np.vstack([vertices] + [vertices + width * 2.0 ** k * ray
                                     for k in range(5) for ray in region.rays])
    return _first_witness(region, "search", points,
                          _checked_witness(region.slice, points, g, cfg), cfg)


# -- interval branch-and-bound over simplices of the patch ---------------------------

def _axis_bounds(p) -> np.ndarray:
    """(n, 2) bounds that rows with a single nonzero coefficient put on their
    coordinate; every point of p obeys them exactly (quotients are rounded
    outward).  Coordinates without such a row are unbounded."""
    bounds = np.tile([-np.inf, np.inf], (p.dim, 1))
    for a, d in zip(p.A, p.d):
        nonzero = np.flatnonzero(a)
        if nonzero.size != 1:
            continue
        j = int(nonzero[0])
        q = d / a[j]
        if a[j] > 0.0:
            bounds[j, 1] = min(bounds[j, 1], q if d == 0.0 else np.nextafter(q, np.inf))
        else:
            bounds[j, 0] = max(bounds[j, 0], q if d == 0.0 else np.nextafter(q, -np.inf))
    return bounds


def _simplices(region: ValidRegion, cfg):
    """(simplices (s, d + 1, n), restricted): a triangulation of the patch
    (`triangulate`), or of an unbounded patch cut to its box
    (`bounding_box`), whose sides along its rays are the domain box's;
    ``restricted`` says which.  None for the simplices when the cut is
    empty.  The cut's frame starts from a patch vertex inside the box, if
    one is; its NumericalFailure is re-raised naming the cut."""
    sl, vertices, tight = region.slice, region.vertices, region.tight
    box, restricted = bounding_box(vertices, region.rays, cfg.domain(sl.dim))
    if restricted:
        inside = vertices[np.all((vertices >= box[:, 0]) & (vertices <= box[:, 1]), axis=1)]
        try:
            vertices, _, tight = frame(sl.within(box), cfg.tol_feas, inside[0] if len(inside) else None)
        except NumericalFailure as exc:
            raise NumericalFailure(f"no frame for the patch cut to the domain box: {exc}") from exc
        if not len(vertices):
            return None, True
    return triangulate(vertices, tight, cfg.tol_feas), restricted


def _bab(region: ValidRegion, g: Expr, cfg) -> RegionVerdict:
    """Certify min g >= -tol_margin over the patch, or find a witness.

    The patch's own vertices are checked first, as witness seeds.  Then
    each simplex of the patch (`_simplices`) is enclosed by
    `interval_evaluate` over its vertex box; a simplex that the enclosure
    does not certify has its vertices and centroid checked as witnesses,
    then its longest edge bisected.  No LP is solved: every simplex lies in
    the patch, up to rounding.  A witness may sit tol_feas off the slice,
    so the enclosure is taken over the box widened by tol_feas on every
    side, but not past a bound that a single-coordinate row of the region
    puts on its coordinate exactly (`_axis_bounds`).  An unbounded patch is
    cut to the domain box first; a verified or unknown verdict then speaks
    for the part of the patch inside the domain box only
    (``domain_restricted``), while a witness is a violation wherever it
    lies.  ``bab_max_boxes`` counts simplices.
    """
    sl = region.slice
    hit = _first_witness(region, "interval", region.vertices,
                         _checked_witness(sl, region.vertices, g, cfg), cfg)
    if hit is not None:
        return hit
    simplices, restricted = _simplices(region, cfg)
    if simplices is None:
        return RegionVerdict(region.indicator, VERIFIED, "interval", vacuous=True,
                             domain_restricted=True,
                             note="slice leaves the domain box entirely")

    pad = np.array([-cfg.tol_feas, cfg.tol_feas])
    exact = _axis_bounds(sl)
    queue = deque(simplices)
    certified = np.inf
    stalled = False
    processed = 0
    while queue:
        processed += 1
        if processed > cfg.bab_max_boxes:
            return RegionVerdict(region.indicator, UNKNOWN, "interval",
                                 domain_restricted=restricted,
                                 note=f"box budget {cfg.bab_max_boxes} exhausted")
        simplex = queue.popleft()
        box = np.column_stack([simplex.min(axis=0), simplex.max(axis=0)])
        lo = interval_evaluate(g, np.clip(box + pad, exact[:, :1], exact[:, 1:])).lo
        if lo >= -cfg.tol_margin:
            certified = min(certified, lo)
            continue
        points = np.vstack([simplex, simplex.mean(axis=0)])
        hit = _first_witness(region, "interval", points,
                             _checked_witness(sl, points, g, cfg), cfg)
        if hit is not None:
            return hit
        edges = np.linalg.norm(simplex[:, None] - simplex[None], axis=2)
        i, j = np.unravel_index(np.argmax(edges), edges.shape)
        if edges[i, j] < BAB_MIN_WIDTH:
            stalled = True
            continue
        left, right = simplex.copy(), simplex.copy()
        left[j] = right[i] = 0.5 * (simplex[i] + simplex[j])
        queue.extend([left, right])

    if stalled:
        return RegionVerdict(region.indicator, UNKNOWN, "interval",
                             domain_restricted=restricted,
                             note="interval refinement stalled at the width floor")
    bound = None if not np.isfinite(certified) else float(certified)
    return RegionVerdict(region.indicator, VERIFIED, "interval", bound=bound,
                         domain_restricted=restricted)


# -- the ladder, and assembling the three conditions ---------------------------------

def _decide(region: ValidRegion, g: Expr, form, cfg) -> RegionVerdict:
    """One region's verdict: off the patch's frame when the caller hands
    over g's affine form = (coeffs, const), else BaB, then the falsification
    search only when BaB leaves the patch open.  No rung solves an LP.

    BaB decides both ways and is the cheaper rung on almost every patch.
    Its witness ends the ladder.  It leaves the patch open when it ends
    `unknown` (simplex budget spent, the width floor reached, g undefined
    somewhere in a box it encloses, or a NumericalFailure of its simplices,
    domain-restricted when the patch has rays), and when it verifies an
    unbounded patch only inside the domain box, since the search's ray
    points reach past that box.  A witness the search finds replaces BaB's
    verdict; otherwise BaB's verdict and its note stand, a domain-restricted
    `verified` speaking for the part of the patch inside the box only.
    """
    if form is not None:
        return _decide_affine(region, g, form, cfg)
    try:
        verdict = _bab(region, g, cfg)
    except DomainError as exc:
        verdict = RegionVerdict(region.indicator, UNKNOWN, "interval",
                                note=f"interval enclosure failed: {exc}")
    except NumericalFailure as exc:
        verdict = RegionVerdict(region.indicator, UNKNOWN, "interval",
                                domain_restricted=bool(len(region.rays)), note=str(exc))
    if verdict.status != UNKNOWN and not verdict.domain_restricted:
        return verdict
    found = _falsify(region, g, cfg)
    return found if found is not None else verdict


def _decide_regions(regions, objective_of, cfg) -> list[RegionVerdict]:
    """`_decide` on every region, with (g, form) = objective_of(region)."""
    return [_decide(region, *objective_of(region), cfg) for region in regions]


def _aggregate(statuses) -> str:
    """falsified when any status is, verified when all are, else unknown."""
    if FALSIFIED in statuses:
        return FALSIFIED
    if all(s == VERIFIED for s in statuses):
        return VERIFIED
    return UNKNOWN


def check_invariance(net, regions, sys: DynamicsSystem,
                     cfg: VerifierConfig = DEFAULT_CONFIG) -> ConditionResult:
    """Positive invariance over every enumerated region: g = w.f, affine
    with form (w F, w c) where every component f_i with w_i != 0 is."""
    if not regions:
        raise NoRegions("invariance check over an empty region list")
    forms = [_linear_form(e, sys.dim) for e in sys.exprs]
    affine = np.array([f is not None for f in forms])
    F = np.array([np.zeros(sys.dim) if f is None else f[0] for f in forms])
    c = np.array([0.0 if f is None else f[1] for f in forms])

    def objective(region):
        w = region.slice.w
        form = (w @ F, float(w @ c)) if np.all(affine | (w == 0.0)) else None
        return weighted_sum(w, sys.exprs), form

    verdicts = _decide_regions(regions, objective, cfg)
    return ConditionResult(_aggregate([v.status for v in verdicts]), verdicts)


def _membership_probe(net, set_expr, cfg, rng, want_inside: bool) -> MembershipProbe | None:
    """Rejection-sampled points of {set_expr > 0}, checked against sign(h);
    None when no draw lands in the set.

    Every set point of the first batch that holds any is checked.
    want_inside demands h > 0 strictly at each; otherwise h < 0 strictly.
    Equality with zero never passes: a sample on the boundary is evidence
    against the condition, not for it.  The probe reports the first failing
    point, or else the first set point.
    """
    domain = cfg.domain(net.input_dim)
    n = net.input_dim
    batch = 2048
    seen = 0
    while seen < cfg.membership_samples:
        k = min(batch, cfg.membership_samples - seen)
        xs = rng.uniform(domain[:, 0], domain[:, 1], size=(k, n))
        values = evaluate(set_expr, xs)   # NaN where set_expr is undefined
        idx = np.flatnonzero(values > 0.0)
        if idx.size:
            h = net.forward_many(xs[idx])
            good = h > 0.0 if want_inside else h < 0.0
            j = int(np.argmin(good))      # the first failing point, else 0
            i = int(idx[j])
            return MembershipProbe(point=xs[i], set_value=float(values[i]),
                                   h_value=float(h[j]), ok=bool(good.all()),
                                   samples=seen + i + 1)
        seen += k
    return None


def _check_set_condition(net, regions, set_expr: Expr, cfg, want_inside: bool,
                         salt: int) -> ConditionResult:
    """Shared body of the initial-set and unsafe-set conditions.

    Part one: the set must not meet any level-set patch (sup of the set
    function over each patch <= 0, decided like an invariance objective
    with g = -set_expr).  Part two: sampled set points must land strictly
    inside (initial) or strictly outside (unsafe) the sublevel region of h.
    The probe's status joins the region verdicts' in `_aggregate`: verified,
    falsified, or unknown when its draws run out (the reason goes in the
    note).
    """
    if not regions:
        raise NoRegions("set condition over an empty region list")
    g = weighted_sum([-1.0], [set_expr])
    objective = (g, _linear_form(g, net.input_dim))
    verdicts = _decide_regions(regions, lambda _region: objective, cfg)
    rng = np.random.default_rng([cfg.seed, salt, 7919])
    probe = _membership_probe(net, set_expr, cfg, rng, want_inside)
    if probe is None:
        probe_status = UNKNOWN
        note = (f"no point with a positive set function in {cfg.membership_samples} "
                "draws; the set may be empty or outside the domain box")
    else:
        probe_status, note = (VERIFIED if probe.ok else FALSIFIED), ""
    status = _aggregate([v.status for v in verdicts] + [probe_status])
    return ConditionResult(status, verdicts, probe=probe, note=note)


def check_initial_condition(net, regions, h_init: Expr,
                            cfg: VerifierConfig = DEFAULT_CONFIG) -> ConditionResult:
    """S_I must sit inside the h > 0 side: no patch contact plus an inside
    sample."""
    return _check_set_condition(net, regions, h_init, cfg, want_inside=True, salt=211)


def check_unsafe_condition(net, regions, h_unsafe: Expr,
                           cfg: VerifierConfig = DEFAULT_CONFIG) -> ConditionResult:
    """S_U must avoid the closed h >= 0 side: no patch contact plus an
    outside sample."""
    return _check_set_condition(net, regions, h_unsafe, cfg, want_inside=False, salt=223)


# -- end-to-end -----------------------------------------------------------------------

def verify_certificate(net, sys: DynamicsSystem, h_init: Expr, h_unsafe: Expr,
                       cfg: VerifierConfig = DEFAULT_CONFIG) -> CertificateVerdict:
    """Enumerate the level-set component and decide all three conditions."""
    timings = {}
    caveats = [
        "verdicts concern the enumerated level-set component only",
        "enumeration is complete only if the level set is connected (assumed, not verified)",
    ]
    t0 = time.perf_counter()
    try:
        enum = enumerate_level_set(net, cfg)
    except SearchExhausted as exc:
        timings["enumeration_s"] = timings["total_s"] = time.perf_counter() - t0
        return CertificateVerdict(
            caveats=caveats, failure={"kind": "search-exhausted", "detail": str(exc)},
            timings=timings)
    timings["enumeration_s"] = time.perf_counter() - t0
    if enum.partial:
        caveats.append("enumeration returned partial results: " + "; ".join(enum.errors))

    # the checks are looked up here, at call time, so that rebinding them
    # (as instrumentation does) takes effect
    results = {}
    for label, check, target in (("invariance", check_invariance, sys),
                                 ("initial", check_initial_condition, h_init),
                                 ("unsafe", check_unsafe_condition, h_unsafe)):
        t = time.perf_counter()
        if target is None and label != "invariance":
            results[label] = ConditionResult(
                VERIFIED, [], note=f"no {label} set given; condition vacuous")
        else:
            results[label] = check(net, enum.regions, target, cfg)
            if enum.partial and results[label].status == VERIFIED:   # regions may be missing
                results[label].status = UNKNOWN
                results[label].note = "enumeration partial: " + "; ".join(enum.errors)
            if label != "invariance" and results[label].probe is None:
                caveats.append(f"{label}-set sampling exhausted: {results[label].note}")
        timings[f"{label}_s"] = time.perf_counter() - t
    timings["total_s"] = time.perf_counter() - t0

    verdicts = [v for res in results.values() for v in res.region_verdicts]
    if any(v.domain_restricted for v in verdicts):
        caveats.append("some patches were analyzed within the domain box only")
    if any(v.bound is not None and abs(v.bound) <= 10 * cfg.tol_feas for v in verdicts):
        caveats.append("a certified bound lies within tolerance noise of zero")
    if any(res.probe is not None for res in results.values()):
        caveats.append("set membership is probed at sampled points; full-set "
                       "containment in this component is not separately certified")

    return CertificateVerdict(*results.values(), enumeration=enum, caveats=caveats,
                              timings=timings)

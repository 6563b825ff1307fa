"""Deciding the certificate conditions region by region.

Every per-region question is phrased as "is min g(x) over the region's
level-set patch >= -tol_margin?", with g = weighted_sum(coefs, exprs) from
the condition's expressions and the region's row of coefficients:

* invariance: g = w . f   (the flow's components, weighted by the piece's w)
* initial set:  g = -h_I  (the set function must stay <= 0 on the patch)
* unsafe set:   g = -h_U

All three go through one ladder, `_decide_regions`, of two rungs, and
every rung reads g with the expression module's own routes.  Whether g is
affine depends on the flow and the set function, never on the region, so
each check takes the affine forms (`_linear_form`) once: of each flow
component (w.f is affine where every component of nonzero weight is) or of
the set function.  A g with an affine form is decided exactly off the
patch's vertices and rays (`regions.ValidRegion`); otherwise interval
branch-and-bound (BaB) decides it, run over all such patches at once: it
first checks each patch's vertices and points out along its rays as
witness seeds, then, a level at a time over simplices cut from the patch's
vertices, encloses each expression once per level with
`interval_evaluate`, and verifies or finds a witness.  Its verdict stands.
No rung solves an LP: every simplex lies in the patch, and every seed is
checked against the patch's rows.
`verify_certificate` takes its regions from `regions.enumerate_level_set`,
the route the SMT export and the plots take as well.  Every witness,
whichever route produced it (a least vertex, a point out along a
descending ray, a BaB seed or simplex point), passes the one check
`_checked_witness`, which takes candidates as rows, a batch per call: a
witness lies on the slice within tol_feas and g evaluated there directly
(`evaluate`; BaB combines each expression's values into the same floats)
is finite and below -max(tol_margin, FALSIFY_GATE).  A point
that fails the check yields `unknown`, never an unchecked `falsified`;
a condition verified over a partial enumeration is `unknown` too.  Set
conditions additionally probe sampled points of the set against the sign
of h (membership side of the containment/disjointness arguments); the
probe is one more status in the same aggregation as the region verdicts,
`unknown` when its draws run out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import BAB_MIN_WIDTH, DEFAULT_CONFIG, FALSIFY_GATE, VerifierConfig
from .errors import NoRegions, NumericalFailure, SearchExhausted
from .expressions import (DynamicsSystem, Expr, evaluate, interval_evaluate,
                          weighted_sum, _linear_form, _weighted_enclosure)
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


def _checked_witness(sl, points, values, cfg) -> np.ndarray:
    """values, g at each row of points evaluated directly (not a solver's or
    a bound's number), NaN where the row is off the slice by more than
    tol_feas or the value is not finite (overflow: no report can carry it).
    Every route takes its witnesses from here: rows with values below `_gate`.
    """
    points = np.reshape(points, (-1, sl.dim))
    values = np.array(values, dtype=float).reshape(-1)
    values[~(sl.contains(points, cfg.tol_feas) & np.isfinite(values))] = np.nan
    return values


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
        value = _checked_witness(region.slice, x, evaluate(g, x), cfg)[0]
        if value < _gate(cfg):
            verdict.witness, verdict.witness_value = np.array(x), float(value)
        else:
            verdict.status = UNKNOWN
            verdict.note = "; ".join(filter(None, [verdict.note,
                                                   "LP point failed the witness check"]))
    return verdict


# -- interval branch-and-bound over simplices of the patch ---------------------------

def _axis_bounds(p) -> np.ndarray:
    """(n, 2) bounds that rows with a single nonzero coefficient put on their
    coordinate; every point of p obeys them exactly (quotients are rounded
    outward).  Coordinates without such a row are unbounded."""
    bounds = np.tile([-np.inf, np.inf], (p.dim, 1))
    single = np.count_nonzero(p.A, axis=1) == 1
    for a, d in zip(p.A[single], p.d[single]):
        j = int(np.flatnonzero(a)[0])
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


def _first_witnesses(regions, coefs, points, exprs, cfg) -> list:
    """Per region, a falsified verdict at the first of its points (one array
    and one row of coefs each) whose checked value is below `_gate`, or
    None.  Each expression is evaluated once over all the points; only a
    region with a value below `_gate` has its points checked."""
    counts, rows = [len(p) for p in points], np.concatenate(points)
    parts = np.stack([evaluate(e, rows) for e in exprs], axis=1)
    values = _weighted_enclosure(np.repeat(coefs, counts, axis=0),
                                 np.stack([parts, parts], axis=2))[:, 0]
    verdicts = []
    for region, p, v in zip(regions, points, np.split(values, np.cumsum(counts)[:-1])):
        if (v < _gate(cfg)).any():
            v = _checked_witness(region.slice, p, v, cfg)
        hits = np.flatnonzero(v < _gate(cfg))
        verdicts.append(RegionVerdict(region.indicator, FALSIFIED, "interval",
                                      witness=np.array(p[hits[0]], dtype=float),
                                      witness_value=float(v[hits[0]])) if hits.size else None)
    return verdicts


def _split(simplices):
    """(children, stalled): each simplex cut at the midpoint of its longest
    edge into [left, right], in order, but for one whose longest edge is
    below BAB_MIN_WIDTH, which ``stalled`` reports."""
    m, k, n = simplices.shape
    if not m:
        return simplices, False
    edges = np.linalg.norm(simplices[:, :, None] - simplices[:, None], axis=3).reshape(m, k * k)
    longest = edges.argmax(axis=1)
    cut = edges[np.arange(m), longest] >= BAB_MIN_WIDTH
    (i, j), kept = np.divmod(longest[cut], k), simplices[cut]
    left, right, rows = kept.copy(), kept.copy(), np.arange(len(kept))
    left[rows, j] = right[rows, i] = 0.5 * (kept[rows, i] + kept[rows, j])
    return np.stack([left, right], axis=1).reshape(-1, k, n), not cut.all()


@dataclass
class _Run:
    """A patch under BaB: regions[index], its current level of simplices."""
    index: int
    queue: np.ndarray
    restricted: bool
    exact: np.ndarray
    processed: int = 0
    certified: float = np.inf
    stalled: bool = False


def _bab(regions, exprs, coefs, cfg) -> list[RegionVerdict]:
    """Certify min g >= -tol_margin over each patch, g = weighted_sum(coefs[i],
    exprs) on regions[i], or find a witness.

    Witness seeds are checked first, in one batch over all patches: each
    patch's vertices, then the points out along each ray from each vertex
    at 1, 2, 4, 8 and 16 domain-box widths.  Each patch with no witness
    among them is cut into simplices (`_simplices`; a NumericalFailure
    leaves it unknown) and all run in lockstep a level at a time, each in
    its queue order: each expression is enclosed once over all the level's
    simplex vertex boxes; a simplex whose enclosure of g does not certify
    has its vertices and centroid checked as witnesses, then its longest
    edge bisected.  In a patch the first witness, up to and including the
    first simplex whose enclosure fails, ends the run; failing that, such a
    simplex ends it unknown.  No LP is solved.  Each box is widened by
    tol_feas, where a witness may sit, but not past a single-coordinate
    row's exact bound (`_axis_bounds`).  An unbounded patch is cut to the
    domain box first; a verified or unknown verdict then speaks only for its
    part inside (``domain_restricted``), while a witness, a ray point's
    too, is a violation wherever it lies.  ``bab_max_boxes`` counts each
    patch's simplices.
    """
    if not regions:
        return []
    coefs = np.array(coefs, dtype=float)
    interval = lambda i, status, **kw: RegionVerdict(regions[i].indicator, status, "interval", **kw)
    width = float(np.max(np.ptp(cfg.domain(regions[0].slice.dim), axis=1)))
    verdicts = _first_witnesses(regions, coefs, [
        np.vstack([r.vertices] + [r.vertices + width * 2.0 ** k * ray
                                  for k in range(5) for ray in r.rays]) for r in regions],
        exprs, cfg)
    runs = []
    for i, region in enumerate(regions):
        if verdicts[i] is not None:
            continue
        try:
            simplices, restricted = _simplices(region, cfg)
        except NumericalFailure as exc:
            verdicts[i] = interval(i, UNKNOWN, domain_restricted=bool(len(region.rays)),
                                   note=str(exc))
            continue
        if simplices is None:
            verdicts[i] = interval(i, VERIFIED, vacuous=True, domain_restricted=True,
                                   note="slice leaves the domain box entirely")
        else:
            runs.append(_Run(i, simplices, restricted, _axis_bounds(region.slice)))

    pad = np.array([-cfg.tol_feas, cfg.tol_feas])
    while runs:
        levels = [run.queue[:cfg.bab_max_boxes - run.processed] for run in runs]
        counts, run_coefs = [len(level) for level in levels], coefs[[run.index for run in runs]]
        exact = np.repeat([run.exact for run in runs], counts, axis=0)
        boxes = np.stack([np.concatenate([level.min(axis=1) for level in levels]),
                          np.concatenate([level.max(axis=1) for level in levels])], axis=2)
        boxes = np.clip(boxes + pad, exact[..., :1], exact[..., 1:])
        lows = np.split(_weighted_enclosure(
            np.repeat(run_coefs, counts, axis=0),
            np.stack([interval_evaluate(e, boxes) for e in exprs], axis=1))[:, 0],
            np.cumsum(counts)[:-1])
        open_ = [~(lo >= -cfg.tol_margin) for lo in lows]
        opened = [r for r, o in enumerate(open_) if o.any()]
        checked = [levels[r][open_[r] & (np.cumsum(np.isnan(lows[r])) <= np.isnan(lows[r]))]
                   for r in opened]      # up to and including the first failed enclosure
        hits = dict(zip(opened, _first_witnesses(
            [regions[runs[r].index] for r in opened], run_coefs[opened],
            [np.concatenate([c, c.mean(axis=1, keepdims=True)], axis=1).reshape(-1, c.shape[2])
             for c in checked], exprs, cfg) if opened else []))
        unfinished = []
        for r, (run, level, lo, o) in enumerate(zip(runs, levels, lows, open_)):
            verdict = hits.get(r)
            if verdict is None and r in hits and np.isnan(lo).any():
                verdict = interval(run.index, UNKNOWN, note="interval enclosure failed: overflow "
                                   "or NaN in the enclosure, or g undefined on a box")
            elif verdict is None:
                run.processed += len(level)
                run.certified = min([run.certified, *lo[~o].tolist()])
                children, stalled = _split(level[o])
                over = len(run.queue) > len(level) or len(children)
                run.queue, run.stalled = children, run.stalled or stalled
                if over and run.processed == cfg.bab_max_boxes:
                    verdict = interval(run.index, UNKNOWN, domain_restricted=run.restricted,
                                       note=f"box budget {cfg.bab_max_boxes} exhausted")
                elif len(children):
                    unfinished.append(run)
                    continue
                elif run.stalled:
                    verdict = interval(run.index, UNKNOWN, domain_restricted=run.restricted,
                                       note="interval refinement stalled at the width floor")
                else:
                    verdict = interval(run.index, VERIFIED, domain_restricted=run.restricted,
                                       bound=run.certified if np.isfinite(run.certified) else None)
            verdicts[run.index] = verdict
        runs = unfinished
    return verdicts


# -- the ladder, and assembling the three conditions ---------------------------------

def _decide_regions(regions, exprs, objective_of, cfg) -> list[RegionVerdict]:
    """Each region's verdict on g = weighted_sum(coefs, exprs), with
    (coefs, form) = objective_of(region): off the patch's frame when g's
    affine form (coeffs, const) is given, else BaB over all such patches at
    once.  No rung solves an LP."""
    objectives = [objective_of(region) for region in regions]
    verdicts = [None if form is None else
                _decide_affine(region, weighted_sum(coefs, exprs), form, cfg)
                for region, (coefs, form) in zip(regions, objectives)]
    rest = [i for i, v in enumerate(verdicts) if v is None]
    bab = _bab([regions[i] for i in rest], exprs, [objectives[i][0] for i in rest], cfg)
    for i, verdict in zip(rest, bab):
        verdicts[i] = verdict
    return verdicts


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
        return w, (w @ F, float(w @ c)) if np.all(affine | (w == 0.0)) else None

    verdicts = _decide_regions(regions, sys.exprs, objective, cfg)
    return ConditionResult(_aggregate([v.status for v in verdicts]), verdicts)


def _membership_probe(net, set_expr, cfg, rng, want_inside: bool) -> MembershipProbe | None:
    """Rejection-sampled points of {set_expr > 0}, checked against sign(h);
    None when no draw lands in the set.

    Every set point of the first batch of 2048 draws that holds any is
    checked.  want_inside demands h > 0 strictly at each; otherwise h < 0
    strictly.  Equality with zero never passes: a sample on the boundary is
    evidence against the condition, not for it.  The probe reports the
    first failing point, or else the first set point.  The draws are those
    of `rng.uniform` over the domain box, made 2048 rows first and 8192 at a
    time after that, in one buffer scaled in place.
    """
    domain = cfg.domain(net.input_dim)
    buffer = np.empty((8192, net.input_dim))
    seen = 0
    while seen < cfg.membership_samples:
        xs = buffer[:min(8192 if seen else 2048, cfg.membership_samples - seen)]
        rng.random(out=xs)
        xs *= domain[:, 1] - domain[:, 0]
        xs += domain[:, 0]
        values = evaluate(set_expr, xs)   # NaN where set_expr is undefined
        idx = np.flatnonzero(values > 0.0)
        if idx.size:
            idx = idx[idx < idx[0] // 2048 * 2048 + 2048]   # its batch of 2048 draws
            h = net.forward_many(xs[idx])
            good = h > 0.0 if want_inside else h < 0.0
            j = int(np.argmin(good))      # the first failing point, else 0
            i = int(idx[j])
            return MembershipProbe(point=xs[i].copy(), set_value=float(values[i]),
                                   h_value=float(h[j]), ok=bool(good.all()),
                                   samples=seen + i + 1)
        seen += len(xs)
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
    objective = ([-1.0], _linear_form(weighted_sum([-1.0], [set_expr]), net.input_dim))
    verdicts = _decide_regions(regions, [set_expr], lambda _region: objective, cfg)
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

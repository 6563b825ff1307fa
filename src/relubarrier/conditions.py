"""Deciding the certificate conditions region by region.

`CONDITIONS` names the three, in the order of every table keyed by them
(a verdict's `results`, the report's rows, the SMT export).  All three are
decided in one pass over (region, condition) pairs, each asking "is min
g(x) over the region's level-set patch >= -tol_margin?" with g = coefs .
exprs over the flow's components and the set functions, the pair's
coefficients zero outside its condition:

* invariance: g = w . f   (the flow's components, weighted by the piece's w)
* initial:    g = -h_I    (the set function must stay <= 0 on the patch)
* unsafe:     g = -h_U

Whether g is affine depends on the flow and the set function, never on the
region, so the pass takes the affine forms (`_linear_form`) once per flow
component and set function (a set condition's is the set function's,
negated).  A g with an affine form is decided exactly off the patch's
vertices and rays (`regions.ValidRegion`); all other pairs go through one
interval branch-and-bound (BaB) run, which checks each patch's vertices and
points out along its rays as witness seeds, cuts each patch into simplices
once for all its pairs, and steps all pairs a level at a time over flat
arrays, enclosing each expression once per level.  Its verdict stands.  No
rung solves an LP.  `verify_certificate` takes its regions from
`regions.enumerate_level_set`, as the SMT export and the plots do.  One
weighted-sum step, `expressions._weighted`, gives g at points and over
boxes, a coefficient row per row, each expression evaluated once over the
rows that weigh it.  Every witness passes the one check `_checked_witness`
in `_first_witnesses`, which takes g per batch of points (BaB's seeds, each
BaB level, all of the affine route's candidates; a segment of rows per pair,
checked on its own rows) as the floats `evaluate` gives for it: the point
lies on the slice within tol_feas and g there is finite and below
-max(tol_margin, FALSIFY_GATE); a point that fails yields `unknown`, never
an unchecked `falsified`.  A condition verified over a partial enumeration
is `unknown` too.  Set conditions also probe sampled set points against the
sign of h, one more status in the same aggregation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import BAB_MIN_WIDTH, DEFAULT_CONFIG, FALSIFY_GATE, VerifierConfig
from .errors import NumericalFailure, SearchExhausted
from .expressions import (DynamicsSystem, Expr, evaluate, interval_evaluate,
                          _linear_form, _weighted)
from .geometry import bounding_box, frame, triangulate
from .regions import EnumerationResult, ValidRegion, enumerate_level_set

VERIFIED = "verified"
FALSIFIED = "falsified"
UNKNOWN = "unknown"
CONDITIONS = ("invariance", "initial", "unsafe")
_SETS = {"initial": (True, 211), "unsafe": (False, 223)}   # (want_inside, probe salt)


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
    """The condition results by name, in `CONDITIONS` order (empty after a
    failure, each status then read as `unknown`), the enumeration they ran
    over, caveats, the failure record and timings; the statuses and the
    overall verdict derive from the results."""

    results: dict[str, ConditionResult] = field(default_factory=dict)
    enumeration: EnumerationResult | None = None
    caveats: list[str] = field(default_factory=list)
    failure: dict | None = None
    timings: dict = field(default_factory=dict)

    def status(self, name: str) -> str:
        return getattr(self.results.get(name), "status", UNKNOWN)

    @property
    def overall(self) -> str:
        return _aggregate([self.status(name) for name in CONDITIONS])


# -- shared by every route ------------------------------------------------------

def _gate(cfg) -> float:
    """A witness's value must lie below this."""
    return -max(cfg.tol_margin, FALSIFY_GATE)


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

def _status_from_value(value, cfg):
    """The status of an exact minimum of g over a patch: verified at or above
    -tol_margin, falsified below the witness gate, else unknown."""
    if value >= -cfg.tol_margin:
        return VERIFIED
    if value < _gate(cfg):
        return FALSIFIED
    return UNKNOWN  # inside the float-noise band


def _decide_affine(region: ValidRegion, form, cfg):
    """(verdict, candidate) for the exact min of g = coeffs.x + const (form)
    over the patch: its least vertex value, or -inf when a ray descends.
    The candidate, a falsified verdict's witness once `_decide_regions` has
    checked it, is the least vertex v, or v + s r along the steepest ray r,
    s = 1 + 2 max(0, g(v) - gate) / -coeffs.r putting g past the gate."""
    coeffs, const = form
    values = region.vertices @ coeffs + const
    x = region.vertices[int(np.argmin(values))]
    slopes = region.rays @ coeffs
    if slopes.min(initial=0.0) < -1e-12 * np.linalg.norm(coeffs):
        r = int(np.argmin(slopes))
        x = x + (1.0 + 2.0 * max(0.0, values.min() - _gate(cfg)) / -slopes[r]) * region.rays[r]
        return RegionVerdict(region.indicator, FALSIFIED, "lp", note="objective unbounded below"), x
    value = float(values.min())
    verdict = RegionVerdict(region.indicator, _status_from_value(value, cfg), "lp", bound=value)
    if verdict.status == UNKNOWN:
        verdict.note = "optimum inside the float-noise band"
    return verdict, x


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


def _first_witnesses(regions, coefs, points, seg, exprs, cfg) -> dict:
    """{s: (point, value)} for each segment s (regions[s], coefs[s] and the
    rows of points where the sorted seg holds s) with a point whose checked
    value is below `_gate`: its first such point.  The values of g come
    from one `_weighted` call, each expression evaluated once over the
    rows that weigh it; only a segment with a value below `_gate` is
    checked, over its own rows."""
    values = _weighted(evaluate, exprs, coefs[seg], points)[:, 0]
    hits = {}
    for s in set(seg[values < _gate(cfg)].tolist()):   # (np.unique would import numpy.ma)
        rows = slice(*np.searchsorted(seg, [s, s + 1]))
        first = np.flatnonzero(_checked_witness(regions[s].slice, points[rows],
                                                values[rows], cfg) < _gate(cfg))
        if first.size:
            at = rows.start + first[0]
            hits[s] = (np.array(points[at], dtype=float), float(values[at]))
    return hits


def _split(simplices):
    """(children, cut): each simplex cut at the midpoint of its longest edge
    into [left, right], in order, but for one whose longest edge is below
    BAB_MIN_WIDTH, which ``cut`` marks False."""
    m, k, n = simplices.shape
    edges = np.linalg.norm(simplices[:, :, None] - simplices[:, None], axis=3).reshape(m, k * k)
    longest = edges.argmax(axis=1)
    cut = edges[np.arange(m), longest] >= BAB_MIN_WIDTH
    (i, j), kept = np.divmod(longest[cut], k), simplices[cut]
    left, right, rows = kept.copy(), kept.copy(), np.arange(len(kept))
    left[rows, j] = right[rows, i] = 0.5 * (kept[rows, i] + kept[rows, j])
    return np.stack([left, right], axis=1).reshape(-1, k, n), cut


def _bab(regions, exprs, coefs, cfg) -> list[RegionVerdict]:
    """Certify min g >= -tol_margin over each pair's patch, g =
    coefs[i] . exprs on regions[i], or find a witness; pairs
    sharing a region share its seeds, simplices and `_axis_bounds`.

    Seeds are checked first, in one batch: each patch's vertices, then the
    points out along each ray from each vertex at 1, 2, 4, 8 and 16
    domain-box widths.  A pair with no witness among them runs on its
    patch's simplices (`_simplices`; a NumericalFailure leaves it unknown),
    all pairs in lockstep a level at a time, each in its own order, over
    one array of simplices per simplex shape, each tagged with its pair (a
    level is a fixed number of array operations): each expression is
    enclosed once over the level's boxes of the pairs that weigh it; a
    simplex whose enclosure of g does not certify has its vertices and
    centroid checked, then its longest edge bisected.  The first witness, up
    to and including the first simplex whose enclosure fails, ends the
    pair's run; failing that, such a simplex ends it unknown.  Each box, a
    simplex's vertex box, is widened by tol_feas, but not past a
    single-coordinate row's exact bound.  An unbounded patch is cut to the
    domain box; a verdict without a witness then speaks only for its part
    inside (``domain_restricted``).  ``bab_max_boxes`` counts each pair's
    simplices.  No LP is solved.
    """
    if not regions:
        return []
    coefs = np.array(coefs, dtype=float)
    interval = lambda i, status, **kw: RegionVerdict(regions[i].indicator, status, "interval", **kw)
    falsified = lambda i, hit: interval(i, FALSIFIED, witness=hit[0], witness_value=hit[1])
    n = regions[0].slice.dim
    width = float(np.max(np.ptp(cfg.domain(n), axis=1)))
    seeds = {key: np.vstack([r.vertices] + [r.vertices + width * 2.0 ** k * ray
                                            for k in range(5) for ray in r.rays])
             for key, r in {id(r): r for r in regions}.items()}   # one array per region
    hits = _first_witnesses(regions, coefs, np.concatenate([seeds[id(r)] for r in regions]),
                            np.repeat(np.arange(len(regions)), [len(seeds[id(r)]) for r in regions]),
                            exprs, cfg)
    verdicts, cuts = [falsified(i, hits[i]) if i in hits else None for i in range(len(regions))], {}
    for i, region in enumerate(regions):
        if verdicts[i] is not None:
            continue
        if id(region) not in cuts:
            try:
                cuts[id(region)] = (*_simplices(region, cfg), _axis_bounds(region.slice))
            except NumericalFailure as exc:
                cuts[id(region)] = exc
        cut = cuts[id(region)]
        if isinstance(cut, NumericalFailure):
            verdicts[i] = interval(i, UNKNOWN, domain_restricted=bool(len(region.rays)),
                                   note=str(cut))
        elif cut[0] is None:
            verdicts[i] = interval(i, VERIFIED, vacuous=True, domain_restricted=True,
                                   note="slice leaves the domain box entirely")
    runs = sorted((i for i, v in enumerate(verdicts) if v is None),   # run r is pair runs[r]
                  key=lambda i: cuts[id(regions[i])][0].shape[1])
    run_regions, run_coefs = [regions[i] for i in runs], coefs[runs]
    cut_of = [cuts[id(r)] for r in run_regions]
    exact = np.array([c[2] for c in cut_of])
    owner = np.repeat(np.arange(len(runs)), [len(c[0]) for c in cut_of])
    shapes = np.repeat([c[0].shape[1] for c in cut_of], [len(c[0]) for c in cut_of])
    queues = [(np.concatenate([c[0] for c in cut_of if c[0].shape[1] == k]), owner[shapes == k])
              for k in sorted(set(shapes.tolist()))]   # one per shape; end to end sorted by run
    processed, certified = np.zeros(len(runs), dtype=int), np.full(len(runs), np.inf)
    stalled, pad = np.zeros(len(runs), dtype=bool), np.array([-cfg.tol_feas, cfg.tol_feas])
    while queues:
        over = np.zeros(len(runs), dtype=bool)
        for g, (q, o) in enumerate(queues):   # each run's first bab_max_boxes - processed
            take = np.arange(len(o)) - np.searchsorted(o, o) < cfg.bab_max_boxes - processed[o]
            over[o[~take]] = True
            queues[g] = q[take], o[take]
        by_queue = lambda mask: zip(queues, np.split(mask, np.cumsum([len(o) for _q, o in queues])))
        owner = np.concatenate([o for _q, o in queues])
        boxes = np.concatenate([np.stack([q.min(axis=1), q.max(axis=1)], axis=2) for q, _o in queues])
        lo = _weighted(interval_evaluate, exprs, run_coefs[owner],
                       np.clip(boxes + pad, exact[owner, :, :1], exact[owner, :, 1:]))[:, 0]
        open_, nan = ~(lo >= -cfg.tol_margin), np.isnan(lo)
        seen = np.cumsum(nan)   # up to and including each run's first failed enclosure:
        batch = [(q[c], o[c]) for (q, o), c in
                 by_queue(open_ & (seen - (seen - nan)[np.searchsorted(owner, owner)] <= nan))]
        hits = _first_witnesses(run_regions, run_coefs, np.concatenate(
            [np.concatenate([q, q.mean(axis=1, keepdims=True)], axis=1).reshape(-1, n)
             for q, _o in batch]), np.concatenate([np.repeat(o, q.shape[1] + 1) for q, o in batch]),
            exprs, cfg)
        ended = np.bincount(owner[nan], minlength=len(runs)) > 0
        ended[list(hits)] = True
        count = np.bincount(owner, minlength=len(runs))
        processed += count
        ok = np.lexsort((lo, owner, open_))[:np.count_nonzero(~open_)]   # certified, by run and low
        ok = ok[(np.diff(owner[ok], prepend=-1) != 0) & (lo[ok] < certified[owner[ok]])]
        certified[owner[ok]] = lo[ok]   # each run's least low, the first of equals as min() takes it
        children = []
        for (q, o), c in by_queue(open_ & ~ended[owner]):
            halves, cut = _split(q[c])
            stalled[o[c][~cut]] = True
            children.append((halves, np.repeat(o[c][cut], 2)))
        grown = np.bincount(np.concatenate([o for _h, o in children]), minlength=len(runs)) > 0
        exhausted = (over | grown) & (processed == cfg.bab_max_boxes)
        for r in np.flatnonzero((count > 0) & ~(grown & ~exhausted)).tolist():
            i = runs[r]
            if r in hits:
                verdicts[i] = falsified(i, hits[r])
            elif ended[r]:
                verdicts[i] = interval(i, UNKNOWN, note="interval enclosure failed: overflow "
                                       "or NaN in the enclosure, or g undefined on a box")
            else:
                note = (f"box budget {cfg.bab_max_boxes} exhausted" if exhausted[r] else
                        "interval refinement stalled at the width floor" if stalled[r] else "")
                bound = float(certified[r]) if np.isfinite(certified[r]) and not note else None
                verdicts[i] = interval(i, UNKNOWN if note else VERIFIED, bound=bound, note=note,
                                       domain_restricted=cut_of[r][1])
        queues = [(h[going], o[going]) for h, o in children
                  for going in [grown[o] & ~exhausted[o]] if going.any()]
    return verdicts


# -- the ladder, and the one pass over all three conditions ----------------------------

def _decide_regions(pairs, exprs, cfg) -> list[RegionVerdict]:
    """Each (region, coefs, form) pair's verdict on g = coefs . exprs over
    its region's patch: off the patch's frame when g's affine form (coeffs,
    const) is given, its falsified candidates checked in one
    `_first_witnesses` call, else by one BaB run over all the other pairs.
    No rung solves an LP."""
    rest = [i for i, (_region, _coefs, form) in enumerate(pairs) if form is None]
    bab = dict(zip(rest, _bab([pairs[i][0] for i in rest], exprs, [pairs[i][1] for i in rest], cfg)))
    affine = {i: _decide_affine(region, form, cfg)
              for i, (region, _coefs, form) in enumerate(pairs) if form is not None}
    checked = [i for i, (verdict, _x) in affine.items() if verdict.status == FALSIFIED]
    hits = _first_witnesses([pairs[i][0] for i in checked], np.array([pairs[i][1] for i in checked]),
                            np.array([affine[i][1] for i in checked]), np.arange(len(checked)),
                            exprs, cfg)
    for s, i in enumerate(checked):
        verdict, hit = affine[i][0], hits.get(s)
        if hit is None:
            verdict.status = UNKNOWN
            verdict.note = "; ".join(filter(None, [verdict.note, "LP point failed the witness check"]))
        else:
            verdict.witness, verdict.witness_value = hit
    return [bab[i] if i in bab else affine[i][0] for i in range(len(pairs))]


def _aggregate(statuses) -> str:
    """falsified when any status is, verified when all are, else unknown."""
    if FALSIFIED in statuses:
        return FALSIFIED
    if all(s == VERIFIED for s in statuses):
        return VERIFIED
    return UNKNOWN


def _membership_probe(net, set_expr, cfg, rng, want_inside: bool) -> MembershipProbe | None:
    """Rejection-sampled points of {set_expr > 0}, checked against sign(h);
    None when no draw lands in the set.

    Every set point of the first batch of 2048 draws that holds any is
    checked.  want_inside demands h > 0 strictly at each; otherwise h < 0
    strictly.  Equality with zero never passes: a sample on the boundary is
    evidence against the condition, not for it.  The probe reports the
    first failing point, or else the first set point.  The draws are those
    of `rng.uniform` over the domain box, 2048 rows and then 8192 at a time,
    each batch scaled in place in one contiguous pass by tiled widths and offsets.
    """
    domain, n = cfg.domain(net.input_dim), net.input_dim
    buffer, seen = np.empty((0, n)), 0
    while seen < cfg.membership_samples:
        m = min(8192 if seen else 2048, cfg.membership_samples - seen)
        if m > len(buffer):   # sized to the longest batch so far: every row is drawn
            buffer = np.empty((m, n))
            scale, offset = np.tile(domain[:, 1] - domain[:, 0], (m, 1)), np.tile(domain[:, 0], (m, 1))
        xs = buffer[:m]
        rng.random(out=xs)
        xs *= scale[:m]
        xs += offset[:m]
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


def _check_conditions(net, regions, targets, cfg) -> dict[str, ConditionResult]:
    """{name: ConditionResult} in `CONDITIONS` order for targets {name:
    target} (the DynamicsSystem for invariance, the set function for a set
    condition; None skips it), from one `_decide_regions` over all (region,
    condition) pairs.  Invariance weighs the flow columns by w (affine, with
    form (w F, w c), where every component of nonzero weight is); a set
    condition puts -1 on its own column, and its probe's status joins its
    rows' (unknown when the draws run out: see the note)."""
    if not regions:
        raise ValueError("condition check over an empty region list")
    names = [name for name in CONDITIONS if targets.get(name) is not None]
    sys, sets = targets.get("invariance"), [name for name in names if name in _SETS]
    flow = list(sys.exprs) if sys is not None else []
    exprs = flow + [targets[name] for name in sets]
    pairs = []
    if sys is not None:
        forms = [_linear_form(e, sys.dim) for e in flow]
        affine = np.array([f is not None for f in forms])
        F = np.array([np.zeros(sys.dim) if f is None else f[0] for f in forms])
        c = np.array([0.0 if f is None else f[1] for f in forms])
        for region in regions:
            w = region.slice.w
            pairs.append((region, np.append(w, np.zeros(len(sets))),
                          (w @ F, float(w @ c)) if np.all(affine | (w == 0.0)) else None))
    for j, name in enumerate(sets, len(flow)):
        coefs = np.where(np.arange(len(exprs)) == j, -1.0, 0.0)
        form = _linear_form(targets[name], net.input_dim)
        form = None if form is None else (-form[0], -form[1])
        pairs += [(region, coefs, form) for region in regions]
    verdicts = _decide_regions(pairs, exprs, cfg)
    results = {}
    for k, name in enumerate(names):
        rows = verdicts[k * len(regions):(k + 1) * len(regions)]
        statuses = [v.status for v in rows]
        probe, note = None, ""
        if name in _SETS:
            want_inside, salt = _SETS[name]
            probe = _membership_probe(net, targets[name], cfg,
                                      np.random.default_rng([cfg.seed, salt, 7919]), want_inside)
            note = "" if probe else (f"no point with a positive set function in {cfg.membership_samples} "
                                     "draws; the set may be empty or outside the domain box")
            statuses.append(UNKNOWN if probe is None else VERIFIED if probe.ok else FALSIFIED)
        results[name] = ConditionResult(_aggregate(statuses), rows, probe=probe, note=note)
    return results


def check_invariance(net, regions, sys: DynamicsSystem,
                     cfg: VerifierConfig = DEFAULT_CONFIG) -> ConditionResult:
    """Positive invariance over every region: g = w.f (`_check_conditions`)."""
    return _check_conditions(net, regions, {"invariance": sys}, cfg)["invariance"]


def check_initial_condition(net, regions, h_init: Expr,
                            cfg: VerifierConfig = DEFAULT_CONFIG) -> ConditionResult:
    """S_I inside the h > 0 side: no patch contact, an inside sample."""
    return _check_conditions(net, regions, {"initial": h_init}, cfg)["initial"]


def check_unsafe_condition(net, regions, h_unsafe: Expr,
                           cfg: VerifierConfig = DEFAULT_CONFIG) -> ConditionResult:
    """S_U outside the closed h >= 0 side: no patch contact, an outside sample."""
    return _check_conditions(net, regions, {"unsafe": h_unsafe}, cfg)["unsafe"]


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

    t = time.perf_counter()
    targets = dict(zip(CONDITIONS, (sys, h_init, h_unsafe)))
    decided = _check_conditions(net, enum.regions, targets, cfg)
    results = {}
    for name, target in targets.items():
        if target is None:
            results[name] = ConditionResult(VERIFIED, [], note=f"no {name} set given; condition vacuous")
            continue
        results[name] = result = decided[name]
        if enum.partial and result.status == VERIFIED:   # regions may be missing
            result.status = UNKNOWN
            result.note = "enumeration partial: " + "; ".join(enum.errors)
        if name in _SETS and result.probe is None:
            caveats.append(f"{name}-set sampling exhausted: {result.note}")
    timings["conditions_s"] = time.perf_counter() - t
    timings["total_s"] = time.perf_counter() - t0

    verdicts = [v for res in results.values() for v in res.region_verdicts]
    if any(v.domain_restricted for v in verdicts):
        caveats.append("some patches were analyzed within the domain box only")
    if any(v.bound is not None and abs(v.bound) <= 10 * cfg.tol_feas for v in verdicts):
        caveats.append("a certified bound lies within tolerance noise of zero")
    if any(res.probe is not None for res in results.values()):
        caveats.append("set membership is probed at sampled points; full-set "
                       "containment in this component is not separately certified")

    return CertificateVerdict(results, enumeration=enum, caveats=caveats, timings=timings)

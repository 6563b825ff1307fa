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
the set function.  A g with an affine form is decided exactly by one LP;
otherwise interval branch-and-bound (BaB) over the patch's bounding box,
enclosing g with `interval_evaluate`, verifies or finds a witness, and a
derivative-free falsification search runs only when BaB leaves the patch
open: `unknown`, or `verified` only on the part of an unbounded patch
inside the domain box.  A BaB witness ends the ladder wherever it lies.
A BaB box that may miss the patch costs one batched LP (its 2n coordinate
bounds share one phase one); the two halves of an LP-contracted box both
meet the patch and are only tightened by the hyperplane equation.
Each search solves one batched LP too.  `verify_certificate` takes its
regions from `regions.enumerate_level_set`, the route the SMT export and
the plots take as well.  Every witness, whichever route produced it (the LP
optimum, a point of an unbounded LP, a search point, a BaB point), passes
the one check `_checked_witness`, which takes candidates as rows, a batch
per call: a witness lies on the slice within tol_feas and g evaluated there
directly (`evaluate`) is finite and below -max(tol_margin, FALSIFY_GATE).
An LP point that fails the check yields `unknown`, never an unchecked
`falsified`.  Set conditions additionally
probe sampled points of the set against the sign of h (membership side of
the containment/disjointness arguments); the probe is one more status in
the same aggregation as the region verdicts, `unknown` when its draws run out.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import (BAB_MIN_WIDTH, DEFAULT_CONFIG, FALSIFY_BUDGET, FALSIFY_GATE,
                     VerifierConfig)
from .errors import DomainError, NoRegions, SearchExhausted
from .expressions import (DynamicsSystem, Expr, evaluate, interval_evaluate,
                          weighted_sum, _linear_form)
from .geometry import bounding_box
from .linprog import INFEASIBLE, UNBOUNDED
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
    points = np.reshape(points, (-1, sl.base.dim))
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


# -- LP route (affine objectives) --------------------------------------------------

def _decide_affine(region: ValidRegion, g: Expr, form, cfg) -> RegionVerdict:
    """Exact decision of min g over the slice by one LP, where
    form = (coeffs, const) is g's affine form coeffs.x + const."""
    sl = region.slice
    coeffs, const = form
    outcome = sl.minimize(coeffs, cfg.tol_feas)
    if outcome.status == INFEASIBLE:
        return RegionVerdict(region.indicator, VERIFIED, "lp", vacuous=True,
                             note="slice empty")
    if outcome.status == UNBOUNDED:
        # g decreases without bound along the slice; exhibit a point in a big box
        big = np.tile([-1e6, 1e6], (sl.base.dim, 1))
        outcome = sl.within(big).minimize(coeffs, cfg.tol_feas)
        verdict = RegionVerdict(region.indicator, FALSIFIED, "lp",
                                note="objective unbounded below")
    else:
        value = outcome.value + const
        verdict = RegionVerdict(region.indicator, _status_from_value(value, cfg), "lp",
                                bound=value)
        if verdict.status == UNKNOWN:
            verdict.note = "optimum inside the float-noise band"
    if verdict.status == FALSIFIED:
        x = outcome.point if outcome.optimal else np.full(sl.base.dim, np.nan)  # fails
        value = _checked_witness(sl, x, g, cfg)[0]
        if value < _gate(cfg):
            verdict.witness, verdict.witness_value = x, float(value)
        else:
            verdict.status = UNKNOWN
            verdict.note = "; ".join(filter(None, [verdict.note,
                                                   "LP point failed the witness check"]))
    return verdict


# -- falsification search ----------------------------------------------------------

def _falsify(region: ValidRegion, g: Expr, cfg, rng) -> RegionVerdict | None:
    """Hunt for a slice point with g < -max(tol_margin, FALSIFY_GATE).

    Two stages: a point of the patch and vertices from random objectives,
    all from one batched LP (one phase one; the rng draws only these
    directions); then a coordinate pattern search from the lowest checked
    of those points, projected back onto the hyperplane, where a move that
    leaves the region is dropped, so the vertex stage's LP is the only one.
    Each stage checks its candidates in batches (`_checked_witness`): a
    round of the pattern search checks its remaining moves at once, takes
    the first that is a witness or improves, and goes on from there with
    the moves after it, the same path as checking one move at a time.
    Returns a falsified verdict, or None when the search found nothing
    (which proves nothing).
    """
    sl = region.slice
    n = sl.base.dim
    w, b = sl.w, sl.b
    wnorm2 = float(w @ w)
    gate = _gate(cfg)

    # one batched LP: row 0 (zeros) gives the phase-one point, the others vertices
    directions = np.vstack([np.zeros(n), rng.standard_normal((max(4, FALSIFY_BUDGET // 5), n))])
    outcomes = sl.minimize(directions, cfg.tol_feas)
    if not outcomes[0].optimal:
        return None   # the slice is empty
    points = np.array([out.point for out in outcomes if out.optimal])
    values = _checked_witness(sl, points, g, cfg)
    found = _first_witness(region, "search", points, values, cfg)
    if found is not None or np.isnan(values).all():
        return found

    best = int(np.nanargmin(values))
    x, gx = points[best], values[best]
    spread = float(np.max(np.ptp(points, axis=0))) if len(points) > 1 else 1.0
    if spread == 0.0:   # every vertex LP ended at one point, such as a ray's apex
        spread = float(np.max(np.ptp(cfg.domain(n), axis=1)))
    step = max(spread / 4.0, 1e-3)
    moves = np.kron(np.eye(n), [[1.0], [-1.0]]) + 0.0   # e_1, -e_1, ...; + 0.0 clears -0.0
    if wnorm2 > 0.0:
        moves -= np.outer(moves @ w, w) / wnorm2   # within the hyperplane
    moves = moves[moves.any(axis=1)]
    for _ in range(FALSIFY_BUDGET):
        improved = False
        rest = moves
        while len(rest):
            ys = x + step * rest
            if wnorm2 > 0.0:
                ys -= np.outer(ys @ w + b, w) / wnorm2   # exact projection back
            values = _checked_witness(sl, ys, g, cfg)   # NaN: the move left the region
            better = np.flatnonzero((values < gate) | (values < gx - 1e-15))
            if not better.size:
                break
            j = int(better[0])
            if values[j] < gate:
                return _first_witness(region, "search", ys[j:j + 1], values[j:j + 1], cfg)
            x, gx, rest, improved = ys[j], values[j], rest[j + 1:], True
        if not improved:
            step /= 2.0
            if step < 1e-9:
                break
    return None


# -- interval branch-and-bound ------------------------------------------------------

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


def _tighten(box, w, b) -> np.ndarray:
    """The box cut down by one interval propagation of ``w.x + b = 0``:
    coordinate j (w_j != 0) keeps only -(b + sum_{k != j} w_k x_k) / w_j
    over the box.  Every point of the box on the hyperplane stays inside
    (the sums are widened by their rounding-error bound and the quotients
    rounded outward), and the result is never empty; in 2-D it is the
    bounding box of the line cut to the box."""
    terms = np.sort(w[:, None] * box, axis=1)            # w_k x_k over [lo_k, hi_k]
    err = (w.size + 2) * np.finfo(float).eps * (abs(b) + np.abs(terms).sum())
    rest = b + terms.sum(axis=0) - terms                 # b + sum over k != j
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.sort(-(rest + [-err, err]) / w[:, None], axis=1)
    q = np.where(w[:, None] != 0.0, np.nextafter(q, [-np.inf, np.inf]), [-np.inf, np.inf])
    out = np.column_stack([np.maximum(box[:, 0], q[:, 0]), np.minimum(box[:, 1], q[:, 1])])
    # a box that misses the hyperplane (a half of an LP-contracted box can,
    # by the LP's rounding only) is kept whole rather than emptied
    return box if np.any(out[:, 0] > out[:, 1]) else out


def _bab(region: ValidRegion, g: Expr, cfg) -> RegionVerdict:
    """Certify min g >= -tol_margin over the patch, or find a witness.

    A box is contracted to the bounding box of the patch inside it by one
    batched LP over 2n coordinate objectives, sharing one phase one; boxes
    without slice points are pruned, and the LP optima are witness
    candidates.  The patch is convex and reaches both ends of such a box's
    split coordinate, so both halves meet it: an LP could shrink a half but
    never prune it, and a half is only tightened by interval propagation of
    the hyperplane equation (`_tighten`; in 2-D that is the LP's box).  Its
    own halves may miss the patch and take the LP again.  LP optima are
    only accurate to tol_feas, and a witness may sit tol_feas off the
    slice, so the interval enclosure is taken over the contracted box
    widened by tol_feas on every side, but not past a bound that a
    single-coordinate row of the region puts on its coordinate exactly
    (`_axis_bounds`).  Unbounded coordinates of the patch are clamped to
    the domain box; a verified or unknown verdict then speaks for the part
    of the patch inside it only (``domain_restricted``), while a witness is
    a violation wherever it lies.
    """
    sl = region.slice
    n = sl.base.dim

    root = bounding_box(sl, cfg.domain(n), cfg.tol_feas)
    if root is None:
        return RegionVerdict(region.indicator, VERIFIED, "interval", vacuous=True,
                             note="slice empty")
    box0, seeds, restricted = root
    if np.any(box0[:, 0] > box0[:, 1]):
        return RegionVerdict(region.indicator, VERIFIED, "interval", vacuous=True,
                             domain_restricted=True,
                             note="slice leaves the domain box entirely")

    hit = _first_witness(region, "interval", seeds, _checked_witness(sl, seeds, g, cfg), cfg)
    pad = np.array([-cfg.tol_feas, cfg.tol_feas])
    exact = _axis_bounds(sl.base)
    # (box, how it is contracted): "lp" by the batched LP, "tighten" by the
    # hyperplane equation, None when it already is the patch's bounding box
    # (a bounded root; a domain-clamped one takes the LP inside the domain box)
    queue = deque([(box0, "lp" if restricted else None)])
    certified = np.inf
    stalled = False
    processed = 0
    while queue and hit is None:
        processed += 1
        if processed > cfg.bab_max_boxes:
            return RegionVerdict(region.indicator, UNKNOWN, "interval",
                                 domain_restricted=restricted,
                                 note=f"box budget {cfg.bab_max_boxes} exhausted")
        cbox, how = queue.popleft()
        if how == "lp":
            sub = bounding_box(sl.within(cbox), tol_feas=cfg.tol_feas)
            if sub is None:
                continue  # the patch does not enter this box
            cbox, cpts, _ = sub
            hit = _first_witness(region, "interval", cpts,
                                 _checked_witness(sl, cpts, g, cfg), cfg)
            if hit is not None:
                break
        elif how == "tighten":
            cbox = _tighten(cbox, sl.w, sl.b)
        lo = interval_evaluate(g, np.clip(cbox + pad, exact[:, :1], exact[:, 1:])).lo
        if lo >= -cfg.tol_margin:
            certified = min(certified, lo)
            continue
        widths = cbox[:, 1] - cbox[:, 0]
        widest = int(np.argmax(widths))
        if widths[widest] < BAB_MIN_WIDTH:
            stalled = True
            continue
        mid = 0.5 * (cbox[widest, 0] + cbox[widest, 1])
        left = cbox.copy()
        left[widest, 1] = mid
        right = cbox.copy()
        right[widest, 0] = mid
        # the patch spans an LP-contracted box, so both its halves meet the
        # patch and need no LP; their own halves may miss it
        child = "lp" if how == "tighten" else "tighten"
        queue.append((left, child))
        queue.append((right, child))

    if hit is not None:
        return hit
    if stalled:
        return RegionVerdict(region.indicator, UNKNOWN, "interval",
                             domain_restricted=restricted,
                             note="interval refinement stalled at the width floor")
    bound = None if not np.isfinite(certified) else float(certified)
    return RegionVerdict(region.indicator, VERIFIED, "interval", bound=bound,
                         domain_restricted=restricted)


# -- the ladder, and assembling the three conditions ---------------------------------

def _decide(region: ValidRegion, g: Expr, form, cfg, seed) -> RegionVerdict:
    """One region's verdict: one LP when the caller hands over g's affine
    form = (coeffs, const), else BaB, then the falsification search (rng
    ``default_rng(seed)``) only when BaB leaves the patch open.

    BaB decides both ways and is the cheaper rung on almost every patch.
    Its witness ends the ladder.  It leaves the patch open when it ends
    `unknown` (box budget spent, the width floor reached, or g undefined
    somewhere in a box it encloses), and when it verifies an unbounded
    patch only inside the domain box (``domain_restricted``), since the
    search is not bound to that box.  A witness the search finds replaces
    BaB's verdict; otherwise BaB's verdict and its note stand.
    """
    if form is not None:
        return _decide_affine(region, g, form, cfg)
    try:
        verdict = _bab(region, g, cfg)
    except DomainError as exc:
        verdict = RegionVerdict(region.indicator, UNKNOWN, "interval",
                                note=f"interval enclosure failed: {exc}")
    if verdict.status != UNKNOWN and not verdict.domain_restricted:
        return verdict
    found = _falsify(region, g, cfg, np.random.default_rng(seed))
    return found if found is not None else verdict


def _decide_regions(regions, objective_of, cfg, salt: int) -> list[RegionVerdict]:
    """`_decide` on every region, with (g, form) = objective_of(region);
    region i searches with seed (cfg.seed, salt, i)."""
    return [_decide(region, *objective_of(region), cfg, [cfg.seed, salt, i])
            for i, region in enumerate(regions)]


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

    verdicts = _decide_regions(regions, objective, cfg, salt=101)
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
    verdicts = _decide_regions(regions, lambda _region: objective, cfg, salt)
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

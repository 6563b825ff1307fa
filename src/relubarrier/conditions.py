"""Deciding the certificate conditions region by region.

Every per-region question is phrased as "is min g(x) over the region's
level-set patch >= -tol_margin?":

* invariance: g = w . f   (the piece's gradient against the field)
* initial set:  g = -h_I  (the set function must stay <= 0 on the patch)
* unsafe set:   g = -h_U

All three go through one ladder, `_decide`, cheapest sound rung first: an
affine objective is decided exactly by one LP; otherwise interval
branch-and-bound (BaB) over the patch's bounding box verifies or finds a
witness, and a derivative-free falsification search runs only when BaB
leaves the patch undecided (`unknown`, or an unbounded patch seen only
inside the domain box).  Each BaB box costs one batched LP: its 2n
coordinate bounds share one phase one.  Every witness, whichever route
produced it (the LP optimum, a point of an unbounded LP, a search point, a
BaB point), passes the one check `_checked_witness`: it lies on the slice
within tol_feas and g evaluated there directly is below
-max(tol_margin, falsify_gate).  An LP point that fails the check yields
`unknown`, never an unchecked `falsified`.  Set conditions additionally
probe one sample of the set against the sign of h (membership side of the
containment/disjointness arguments).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULT_CONFIG, VerifierConfig
from .errors import NoRegions, SamplerExhausted, SearchExhausted
from .expressions import (DynamicsSystem, Expr, evaluate, interval_evaluate,
                          is_affine, _linear_form)
from .geometry import SlicePolyhedron, bounding_box
from .linprog import LpProblem, lp_solve, INFEASIBLE, UNBOUNDED
from .regions import (EnumerationResult, ValidRegion, boundary_propagation,
                      find_initial_region, set_guided_sampler)

VERIFIED = "verified"
FALSIFIED = "falsified"
UNKNOWN = "unknown"


@dataclass
class RegionVerdict:
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
    invariance: str
    initial_condition: str
    unsafe_condition: str
    overall: str
    invariance_result: ConditionResult | None = None
    initial_result: ConditionResult | None = None
    unsafe_result: ConditionResult | None = None
    enumeration: EnumerationResult | None = None
    search_meta: dict = field(default_factory=dict)
    caveats: list[str] = field(default_factory=list)
    failure: dict | None = None
    timings: dict = field(default_factory=dict)


# -- objective plumbing ----------------------------------------------------------

class _Objective(NamedTuple):
    """g over a patch: direct and interval evaluation, and (coeffs, const)
    when g(x) = coeffs.x + const is affine."""
    point: Callable
    interval: Callable | None
    affine: tuple | None = None


def _weighted_objective(coefs, exprs, affine=None) -> _Objective:
    """g(x) = sum_i coefs[i] * exprs[i](x) as point and interval callables."""
    coefs = np.asarray(coefs, dtype=float)

    def g_point(x):
        return float(sum(c * evaluate(e, x) for c, e in zip(coefs, exprs) if c != 0.0))

    def g_interval(box):
        lo = hi = 0.0
        for c, e in zip(coefs, exprs):
            if c == 0.0:
                continue
            iv = interval_evaluate(e, box)
            lo += min(c * iv.lo, c * iv.hi)
            hi += max(c * iv.lo, c * iv.hi)
        return lo, hi

    return _Objective(g_point, g_interval, affine)


def _invariance_objective(w, sys: DynamicsSystem | None, aff=None) -> _Objective:
    """g = w.f for the flow sys; aff = (F, c) when f(x) = F x + c.

    Without sys (only F and c known), g is evaluated as w.(F x + c).
    """
    if aff is None:
        return _weighted_objective(w, sys.exprs)
    F, c = np.asarray(aff[0], dtype=float), np.asarray(aff[1], dtype=float)
    affine = (F.T @ w, float(w @ c))
    if sys is None:
        return _Objective(lambda x: float(w @ (F @ x + c)), None, affine)
    return _weighted_objective(w, sys.exprs, affine)


def _status_from_value(value, cfg):
    """Margin semantics shared by every route."""
    if value >= -cfg.tol_margin:
        return VERIFIED
    if value < -max(cfg.tol_margin, cfg.falsify_gate):
        return FALSIFIED
    return UNKNOWN  # inside the float-noise band


class _Checked(NamedTuple):
    x: np.ndarray
    value: float      # g(x), evaluated directly
    witness: bool     # value < -max(tol_margin, falsify_gate)


def _checked_witness(sl, x, g_point, cfg) -> _Checked | None:
    """Check a candidate point; None when it is not on the slice.

    Every route takes its witnesses from here: a witness lies on the slice
    within tol_feas, and g evaluated at it directly (not the value a solver
    or a bound reports) is below -max(tol_margin, falsify_gate).
    """
    if x is None or not sl.contains(x, cfg.tol_feas):
        return None
    x = np.array(x, dtype=float)
    value = g_point(x)
    return _Checked(x, value, _status_from_value(value, cfg) == FALSIFIED)


# -- LP route (affine objectives) --------------------------------------------------

def _decide_affine(region: ValidRegion, objective: _Objective, cfg) -> RegionVerdict:
    """Exact decision of min (coeffs.x + const) over the slice by one LP."""
    sl = region.slice
    coeffs, const = objective.affine
    coeffs = np.asarray(coeffs, dtype=float)
    outcome = sl.minimize(coeffs, cfg.tol_feas)
    if outcome.status == INFEASIBLE:
        return RegionVerdict(region.indicator, VERIFIED, "lp", vacuous=True,
                             note="slice empty")
    if outcome.status == UNBOUNDED:
        # g decreases without bound along the slice; exhibit a point in a big box
        n = sl.base.dim
        boxed = SlicePolyhedron(sl.base.with_rows(np.vstack([np.eye(n), -np.eye(n)]),
                                                  np.full(2 * n, 1e6)), sl.w, sl.b)
        outcome = boxed.minimize(coeffs, cfg.tol_feas)
        verdict = RegionVerdict(region.indicator, FALSIFIED, "lp",
                                note="objective unbounded below")
    else:
        value = outcome.value + const
        verdict = RegionVerdict(region.indicator, _status_from_value(value, cfg), "lp",
                                bound=value)
        if verdict.status == UNKNOWN:
            verdict.note = "optimum inside the float-noise band"
    if verdict.status == FALSIFIED:
        hit = _checked_witness(sl, outcome.point, objective.point, cfg)
        if hit is not None and hit.witness:
            verdict.witness, verdict.witness_value = hit.x, hit.value
        else:
            verdict.status = UNKNOWN
            verdict.note = "; ".join(filter(None, [verdict.note,
                                                   "LP point failed the witness check"]))
    return verdict


def check_region_affine(region: ValidRegion, F, c,
                        cfg: VerifierConfig = DEFAULT_CONFIG) -> RegionVerdict:
    """Invariance of one region for affine dynamics f(x) = F x + c."""
    return _decide_affine(region, _invariance_objective(region.affine.w, None, (F, c)), cfg)


# -- falsification search ----------------------------------------------------------

def _repair_onto_slice(sl, target, cfg):
    """Closest (Chebyshev) slice point to target, via one LP."""
    n = sl.base.dim
    m = sl.base.num_rows
    a_ub = np.zeros((m + 2 * n, n + 1))
    a_ub[:m, :n] = sl.base.A
    a_ub[m:m + n, :n] = np.eye(n)
    a_ub[m:m + n, n] = -1.0
    a_ub[m + n:, :n] = -np.eye(n)
    a_ub[m + n:, n] = -1.0
    b_ub = np.concatenate([sl.base.d, target, -target])
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = sl.w
    c = np.zeros(n + 1)
    c[n] = 1.0
    out = lp_solve(LpProblem(c, a_ub, b_ub, a_eq, np.array([-sl.b])), tol_feas=cfg.tol_feas)
    return out.point[:n] if out.optimal else None


def _falsify(region: ValidRegion, objective: _Objective, cfg, rng,
             budget) -> RegionVerdict | None:
    """Hunt for a slice point with g < -max(tol_margin, falsify_gate).

    Three stages: vertices of the patch from random-objective LPs, random
    convex combinations of those, and a coordinate pattern search projected
    back onto the hyperplane (with an LP repair step when a move leaves the
    region).  Returns a falsified verdict, or None when the search found
    nothing (which proves nothing).
    """
    sl = region.slice
    n = sl.base.dim
    w, b = sl.w, sl.b
    wnorm2 = float(w @ w)
    best = None   # the lowest checked point so far

    def consider(x):
        nonlocal best
        checked = _checked_witness(sl, x, objective.point, cfg)
        if checked is not None and (best is None or checked.value < best.value):
            best = checked
        return checked

    def found(hit):
        return RegionVerdict(region.indicator, FALSIFIED, "search",
                             witness=hit.x, witness_value=hit.value)

    base = sl.feasible_point(cfg.tol_feas)
    if base is None:
        return None
    hit = consider(base)
    if hit and hit.witness:
        return found(hit)

    points = [base]
    for _ in range(max(4, budget // 5)):
        direction = rng.standard_normal(n)
        out = sl.minimize(direction, cfg.tol_feas)
        if out.optimal:
            points.append(out.point)
            hit = consider(out.point)
            if hit and hit.witness:
                return found(hit)

    arr = np.array(points)
    for _ in range(max(4, budget // 3)):
        weights = rng.random(len(points))
        weights /= weights.sum()
        hit = consider(weights @ arr)
        if hit and hit.witness:
            return found(hit)

    if best is None:
        return None
    x, gx = best.x, best.value
    spread = float(np.max(np.ptp(arr, axis=0))) if len(points) > 1 else 1.0
    step = max(spread / 4.0, 1e-3)
    for _ in range(budget):
        improved = False
        for i in range(n):
            for sign in (1.0, -1.0):
                d = np.zeros(n)
                d[i] = sign
                if wnorm2 > 0.0:
                    d -= w * (w @ d) / wnorm2      # move within the hyperplane
                if not d.any():
                    continue
                y = x + step * d
                if wnorm2 > 0.0:
                    y = y - w * ((w @ y) + b) / wnorm2   # exact projection back
                if not sl.base.contains(y, cfg.tol_feas):
                    y = _repair_onto_slice(sl, y, cfg)
                    if y is None:
                        continue
                hit = consider(y)
                if hit is None:
                    continue
                if hit.witness:
                    return found(hit)
                if hit.value < gx - 1e-15:
                    x, gx = hit.x, hit.value
                    improved = True
        if not improved:
            step /= 2.0
            if step < 1e-9:
                break
    return None


def falsify_region(region: ValidRegion, sys: DynamicsSystem,
                   cfg: VerifierConfig = DEFAULT_CONFIG,
                   rng: np.random.Generator | None = None,
                   budget: int | None = None) -> RegionVerdict | None:
    """Search for an invariance counterexample on one region.

    Returns a falsified RegionVerdict with a re-validated witness, or None
    when the search found nothing (which proves nothing).
    """
    return _falsify(region, _invariance_objective(region.affine.w, sys), cfg,
                    rng if rng is not None else np.random.default_rng(cfg.seed),
                    budget or cfg.falsify_budget)


# -- interval branch-and-bound ------------------------------------------------------

def _first_witness(sl, points, g_point, cfg) -> _Checked | None:
    """The first of points that passes the witness check, or None."""
    for x in points:
        hit = _checked_witness(sl, x, g_point, cfg)
        if hit and hit.witness:
            return hit
    return None


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


def _bab(region: ValidRegion, objective: _Objective, cfg) -> RegionVerdict:
    """Certify min g >= -tol_margin over the patch, or find a witness.

    Each box is contracted to the bounding box of the patch inside it (one
    batched LP over 2n coordinate objectives, sharing one phase one); boxes
    without slice points are pruned, and the contracted box's LP optima are
    witness candidates.  LP optima are only accurate to tol_feas, and a
    witness may sit tol_feas off the slice, so the interval enclosure is
    taken over the contracted box widened by tol_feas on every side, but
    not past a bound that a single-coordinate row of the region puts on its
    coordinate exactly (`_axis_bounds`).  Unbounded coordinates of the
    patch are clamped to the domain box; the verdict then speaks for the
    part of the patch inside it only (``domain_restricted``).
    """
    sl = region.slice
    n = sl.base.dim

    root = bounding_box(sl.base.A, sl.base.d, sl.w[None, :], np.array([-sl.b]),
                        dim=n, domain=cfg.domain(n), tol_feas=cfg.tol_feas)
    if root is None:
        return RegionVerdict(region.indicator, VERIFIED, "interval", vacuous=True,
                             note="slice empty")
    box0, seeds, restricted = root
    if np.any(box0[:, 0] > box0[:, 1]):
        return RegionVerdict(region.indicator, VERIFIED, "interval", vacuous=True,
                             domain_restricted=True,
                             note="slice leaves the domain box entirely")

    hit = _first_witness(sl, seeds, objective.point, cfg)
    pad = np.array([-cfg.tol_feas, cfg.tol_feas])
    exact = _axis_bounds(sl.base)
    queue = deque([box0])
    certified = np.inf
    stalled = False
    processed = 0
    while queue and hit is None:
        processed += 1
        if processed > cfg.bab_max_boxes:
            return RegionVerdict(region.indicator, UNKNOWN, "interval",
                                 domain_restricted=restricted,
                                 note=f"box budget {cfg.bab_max_boxes} exhausted")
        box = queue.popleft()
        sub = bounding_box(
            np.vstack([sl.base.A, np.eye(n), -np.eye(n)]),
            np.concatenate([sl.base.d, box[:, 1], -box[:, 0]]),
            sl.w[None, :], np.array([-sl.b]),
            dim=n, domain=None, tol_feas=cfg.tol_feas)
        if sub is None:
            continue  # the patch does not enter this box
        cbox, cpts, _ = sub
        hit = _first_witness(sl, cpts, objective.point, cfg)
        if hit is not None:
            break
        lo, _ = objective.interval(np.clip(cbox + pad, exact[:, :1], exact[:, 1:]))
        if lo >= -cfg.tol_margin:
            certified = min(certified, lo)
            continue
        widths = cbox[:, 1] - cbox[:, 0]
        widest = int(np.argmax(widths))
        if widths[widest] < cfg.bab_min_width:
            stalled = True
            continue
        mid = 0.5 * (cbox[widest, 0] + cbox[widest, 1])
        left = cbox.copy()
        left[widest, 1] = mid
        right = cbox.copy()
        right[widest, 0] = mid
        queue.append(left)
        queue.append(right)

    if hit is not None:
        return RegionVerdict(region.indicator, FALSIFIED, "interval",
                             witness=hit.x, witness_value=hit.value,
                             domain_restricted=restricted)
    if stalled:
        return RegionVerdict(region.indicator, UNKNOWN, "interval",
                             domain_restricted=restricted,
                             note="interval refinement stalled at the width floor")
    bound = None if not np.isfinite(certified) else float(certified)
    return RegionVerdict(region.indicator, VERIFIED, "interval", bound=bound,
                         domain_restricted=restricted)


def verify_region_bab(region: ValidRegion, sys: DynamicsSystem,
                      cfg: VerifierConfig = DEFAULT_CONFIG) -> RegionVerdict:
    """Interval branch-and-bound for the invariance objective w.f."""
    return _bab(region, _invariance_objective(region.affine.w, sys), cfg)


# -- the ladder, and assembling the three conditions ---------------------------------

def _decide(region: ValidRegion, objective: _Objective, cfg,
            rng: np.random.Generator) -> RegionVerdict:
    """One region's verdict: one LP for an affine g, else BaB, then the
    falsification search only when BaB leaves the patch undecided.

    BaB decides both ways and is the cheaper rung on almost every patch.
    It leaves the patch undecided when it ends `unknown` (box budget spent,
    or the width floor reached), and when the patch is unbounded, since it
    then looks only inside the domain box and the search does not.  A
    witness the search finds replaces BaB's verdict; otherwise BaB's
    verdict and its note stand.
    """
    if objective.affine is not None:
        return _decide_affine(region, objective, cfg)
    verdict = _bab(region, objective, cfg)
    if verdict.status != UNKNOWN and not verdict.domain_restricted:
        return verdict
    found = _falsify(region, objective, cfg, rng, cfg.falsify_budget)
    return found if found is not None else verdict


def _decide_regions(regions, objective_of, cfg, salt: int) -> list[RegionVerdict]:
    """`_decide` on every region; region i searches with rng (seed, salt, i)."""
    def decide(item):
        i, region = item
        return _decide(region, objective_of(region), cfg,
                       np.random.default_rng([cfg.seed, salt, i]))

    items = list(enumerate(regions))
    if cfg.threads and cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(decide, items))
    return [decide(it) for it in items]


def _aggregate(verdicts, extra_falsified=False, extra_ok=True):
    statuses = [v.status for v in verdicts]
    if extra_falsified or FALSIFIED in statuses:
        return FALSIFIED
    if all(s == VERIFIED for s in statuses) and extra_ok:
        return VERIFIED
    return UNKNOWN


def check_invariance(net, regions, sys: DynamicsSystem,
                     cfg: VerifierConfig = DEFAULT_CONFIG) -> ConditionResult:
    """Positive invariance over every enumerated region."""
    if not regions:
        raise NoRegions("invariance check over an empty region list")
    aff = is_affine(sys)
    verdicts = _decide_regions(
        regions, lambda region: _invariance_objective(region.affine.w, sys, aff), cfg, salt=101)
    return ConditionResult(_aggregate(verdicts), verdicts)


def _eval_positive_mask(expr, xs):
    """Boolean mask of rows where expr > 0, tolerating domain errors."""
    try:
        return np.asarray(evaluate(expr, xs)) > 0.0
    except Exception:
        mask = np.zeros(len(xs), dtype=bool)
        for i, x in enumerate(xs):
            try:
                mask[i] = evaluate(expr, x) > 0.0
            except Exception:
                mask[i] = False
        return mask


def _membership_probe(net, set_expr, cfg, rng, want_inside: bool) -> MembershipProbe:
    """One rejection-sampled point of {set_expr > 0}, checked against sign(h).

    want_inside demands h > 0 strictly at the sample; otherwise h < 0
    strictly.  Equality with zero never passes: a sample on the boundary is
    evidence against the condition, not for it.
    """
    domain = cfg.domain(net.input_dim)
    n = net.input_dim
    batch = 2048
    seen = 0
    while seen < cfg.membership_samples:
        k = min(batch, cfg.membership_samples - seen)
        xs = rng.uniform(domain[:, 0], domain[:, 1], size=(k, n))
        mask = _eval_positive_mask(set_expr, xs)
        idx = np.flatnonzero(mask)
        if idx.size:
            x = xs[idx[0]]
            h = net.forward(x)
            ok = h > 0.0 if want_inside else h < 0.0
            return MembershipProbe(point=x, set_value=float(evaluate(set_expr, x)),
                                   h_value=h, ok=ok, samples=seen + int(idx[0]) + 1)
        seen += k
    raise SamplerExhausted(
        f"no point with a positive set function in {cfg.membership_samples} draws; "
        "the set may be empty or outside the domain box")


def _check_set_condition(net, regions, set_expr: Expr, cfg, want_inside: bool,
                         salt: int) -> ConditionResult:
    """Shared body of the initial-set and unsafe-set conditions.

    Part one: the set must not meet any level-set patch (sup of the set
    function over each patch <= 0, decided like an invariance objective
    with g = -set_expr).  Part two: one sampled set point must land
    strictly inside (initial) or strictly outside (unsafe) the sublevel
    region of h.
    """
    if not regions:
        raise NoRegions("set condition over an empty region list")
    lin = _linear_form(set_expr, net.input_dim)
    objective = _weighted_objective([-1.0], [set_expr],
                                    None if lin is None else (-lin[0], -lin[1]))
    verdicts = _decide_regions(regions, lambda _region: objective, cfg, salt)
    rng = np.random.default_rng([cfg.seed, salt, 7919])
    probe = _membership_probe(net, set_expr, cfg, rng, want_inside)
    status = _aggregate(verdicts, extra_falsified=not probe.ok, extra_ok=probe.ok)
    return ConditionResult(status, verdicts, probe=probe)


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
    sampler = set_guided_sampler(net, h_init, h_unsafe, cfg.domain(net.input_dim))
    try:
        seed_region, search_meta = find_initial_region(
            net, sampler, cfg, np.random.default_rng(cfg.seed))
    except SearchExhausted as exc:
        timings["search_s"] = time.perf_counter() - t0
        timings["total_s"] = timings["search_s"]
        return CertificateVerdict(
            invariance=UNKNOWN, initial_condition=UNKNOWN, unsafe_condition=UNKNOWN,
            overall=UNKNOWN, caveats=caveats,
            failure={"kind": "search-exhausted", "detail": str(exc)}, timings=timings)
    timings["search_s"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    enum = boundary_propagation(net, seed_region, cfg)
    timings["enumeration_s"] = time.perf_counter() - t1
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
            try:
                results[label] = check(net, enum.regions, target, cfg)
            except SamplerExhausted as exc:
                results[label] = ConditionResult(UNKNOWN, [], note=str(exc))
                caveats.append(f"{label}-set sampling exhausted: {exc}")
        timings[f"{label}_s"] = time.perf_counter() - t
    timings["total_s"] = time.perf_counter() - t0

    verdicts = [v for res in results.values() for v in res.region_verdicts]
    if any(v.domain_restricted for v in verdicts):
        caveats.append("some patches were analyzed within the domain box only")
    if any(v.bound is not None and abs(v.bound) <= 10 * cfg.tol_feas for v in verdicts):
        caveats.append("a certified bound lies within tolerance noise of zero")
    inv, init_res, unsafe_res = results.values()
    if init_res.probe is not None or unsafe_res.probe is not None:
        caveats.append("set membership is probed at one sample point; full-set "
                       "containment in this component is not separately certified")

    return CertificateVerdict(
        invariance=inv.status, initial_condition=init_res.status,
        unsafe_condition=unsafe_res.status, overall=_aggregate(results.values()),
        invariance_result=inv, initial_result=init_res, unsafe_result=unsafe_res,
        enumeration=enum, search_meta=search_meta, caveats=caveats, timings=timings)

"""Polyhedra in inequality form and the operations the region tests need.

`Polyhedron` is the one feasible-set type: ``{x : A x <= d}``, on the
hyperplane ``w.x + b = 0`` when w is given, and `Polyhedron.minimize` is the
one place an LP is solved, one objective per call.  All work on a
hyperplane is done in its ``chart`` x = x0 + N t: the LPs of ``minimize``,
the region test's largest inscribed ball (``inscribed_ball``) and
``frame``, the one vertex routine: a slice's vertices, rays and the rows
each vertex meets, off which enumeration reads the rows touching it
(`regions`), the plot its polygons and lines (`svgplot`), the affine route
its minima and branch-and-bound its box (``bounding_box``) and simplices
(``triangulate``, `conditions`), with no LP unless ``frame`` needs a start.
``implicit_equalities`` and ``remove_redundant`` are references for them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import TOL_EQ
from .errors import NumericalFailure
from .linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, LpOutcome, lp_solve


@dataclass
class Polyhedron:
    """{x : A x <= d}, on the hyperplane ``w.x + b = 0`` when w is given;
    rows may be redundant or duplicated."""

    A: np.ndarray
    d: np.ndarray
    w: np.ndarray | None = None
    b: float = 0.0

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.d = np.atleast_1d(np.asarray(self.d, dtype=float))
        if self.A.shape[0] != self.d.shape[0]:
            raise ValueError(f"row mismatch: A has {self.A.shape[0]} rows, d has {self.d.shape[0]}")
        self.b = float(self.b)
        if self.w is not None:
            self.w = np.atleast_1d(np.asarray(self.w, dtype=float))
            if self.w.shape[0] != self.dim:
                raise ValueError("hyperplane normal does not match the polyhedron dimension")

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    def contains(self, x, tol: float = 1e-7):
        """Whether each row of x, (m, n) -> (m,), obeys every row within tol,
        and lies on the hyperplane within tol when there is one; a point (n,)
        is a one-row batch and gives a bool."""
        x = np.asarray(x, dtype=float)
        rows = np.atleast_2d(x)
        inside = np.all(rows @ self.A.T <= self.d + tol, axis=1)
        if self.w is not None:
            inside &= np.abs(rows @ self.w + self.b) <= tol
        return inside if x.ndim == 2 else bool(inside[0])

    def within(self, box) -> "Polyhedron":
        """The polyhedron cut to an (n, 2) box: rows ``x <= hi``, then
        ``-x <= -lo``, on the same hyperplane."""
        eye = np.eye(self.dim)
        return Polyhedron(np.vstack([self.A, eye, -eye]),
                          np.concatenate([self.d, box[:, 1], -box[:, 0]]), self.w, self.b)

    def chart(self):
        """(x0, N): x = x0 + N t maps R^k onto the hyperplane, N (n, k) with
        orthonormal columns spanning w's null space; (0, I) with no
        hyperplane (N is I for w = 0 too)."""
        x0, N = _charts([self])
        return x0[0], N[0]

    def minimize(self, objective, tol_feas: float = 1e-7):
        """min objective.x over the polyhedron for an ``(n,)`` objective, as
        one LpOutcome: solved over t in its `chart`, the point mapped back to
        x and its value taken there.  ``0 = b != 0`` (w = 0) is infeasible."""
        if self.w is not None and not self.w.any() and self.b != 0.0:
            return LpOutcome(INFEASIBLE)
        (x0, N), c = self.chart(), np.asarray(objective, dtype=float)
        out = lp_solve(c @ N, self.A @ N, self.d - self.A @ x0, tol_feas)
        x = x0 + N @ out.point if out.optimal else None
        return out if x is None else LpOutcome(OPTIMAL, float(c @ x), x)


def inscribed_ball(p: Polyhedron, tol_feas: float = 1e-7):
    """(centre, radius) of the largest ball inside p, its radius capped at 1,
    or None when p is empty.  On p's hyperplane the ball lies in it: one
    Chebyshev-centre LP over (t, r) in p's `chart` x = x0 + N t, max r s.t.
    ``(a_i N/|a_i|).t + |a_i N|/|a_i| r <= (d_i - a_i.x0)/|a_i|``, 0 <= r <= 1."""
    if p.w is not None and not p.w.any() and p.b != 0.0:
        return None
    x0, N = p.chart()
    scale = np.linalg.norm(p.A, axis=1)
    scale[scale == 0.0] = 1.0
    M, e_r = p.A @ N, np.eye(N.shape[1] + 1)[-1]
    rows = np.column_stack([M, np.linalg.norm(M, axis=1)]) / scale[:, None]
    ball = Polyhedron(np.vstack([rows, e_r, -e_r]), np.append((p.d - p.A @ x0) / scale, [1.0, 0.0]))
    out = ball.minimize(-e_r, tol_feas)   # max r
    return (x0 + N @ out.point[:-1], -out.value) if out.optimal else None


def _charts(ps):   # `Polyhedron.chart` of polyhedra of one kind (no w, w = 0, w != 0), stacked
    if ps[0].w is None:
        return np.zeros((len(ps), ps[0].dim)), np.eye(ps[0].dim)[None]
    W, b = _stack([p.w for p in ps]), np.array([p.b for p in ps])
    _, s, vt = np.linalg.svd(W[:, None, :])
    x0 = -b[:, None] * W / (W[:, None, :] @ W[..., None])[..., 0] if s[0, 0] > 0.0 else 0.0 * W
    return x0, vt[:, int(s[0, 0] > 0.0):].transpose(0, 2, 1)


def _stack(xs) -> np.ndarray:   # the arrays xs along a new first axis (one: a view of it)
    return xs[0][None] if len(xs) == 1 else np.stack(xs)


def _groups(keys) -> list[list[int]]:   # the indices of keys by key, in order of first appearance
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def frame(p: Polyhedron, tol_feas: float = 1e-7, near=None):
    """(vertices, rays, tight) of p, its entry of `frames`; raises its NumericalFailure."""
    out = frames([p], tol_feas, [near])[0]
    if isinstance(out, NumericalFailure):
        raise out
    return out


def frames(ps, tol_feas: float = 1e-7, nears=None) -> list:
    """Per polyhedron p of ps (one dimension) and its start near (nears),
    (vertices, rays, tight) of p on its hyperplane, as rows: the hull of
    the vertices plus the cone of the unit rays, and per vertex the mask of
    the rows of p it meets within tol_feas (rows scaled to unit norm), or
    the NumericalFailure that ends it.  In p's `chart` x = x0 + N t, a row
    with under 1e-12 of its norm along the hyperplane is constant and
    defines no vertex; the other rows span k dimensions, and what they
    leave is lineality (two opposite rays each).  A basis is k rows whose
    solution keeps every unit-scaled row within tol_feas.  One batch gives
    every basis when it holds all k-subsets (at most 512).  Otherwise the
    first is met in k straight steps (each along the rows met so far, to
    the next row) from near, or from the centre of `inscribed_ball` (one
    LP; none: p is empty) without near or when its steps end off p, and off
    p from there too, or a failed LP, is a NumericalFailure; the rest come
    from walking edges to the next row they meet, edges that meet none
    being rays.  Bases meeting the same rows are one vertex, kept once.
    Polyhedra of one shape (rows, rows along the hyperplane, k) whose
    subsets one batch holds take each step as one stacked numpy call, which
    runs the one-polyhedron call's kernel on each slice, so each frame is
    bit-identical to its own (`_ragged`); the edge walk takes one at a time."""
    nears, split = nears or [None] * len(ps), [[0]] if len(ps) == 1 else _groups(
        [(p.A.shape, None if p.w is None else bool(p.w.any())) for p in ps])
    if len(split) == 1:
        (x0, N), K = _charts(ps), len(ps)
        A, d = _stack([p.A for p in ps]), _stack([p.d for p in ps])
        M = A @ N
        scale, mn = np.linalg.norm(A, axis=2), np.linalg.norm(M, axis=2)
        live = mn > 1e-12 * scale
        split = _groups(rs := live.sum(1).tolist())
    if len(split) == 1:
        r, n = rs[0], A.shape[2]
        Ml, norms = M[live].reshape(K, r, M.shape[2]), mn[live].reshape(K, r, 1)
        _, s, vt = np.linalg.svd(Ml / norms)
        split = _groups(ks := (s > 1e-12).sum(1).tolist())
        if K > 1 and len(split) == 1 and math.comb(r, ks[0]) > 512:
            split = [[i] for i in range(K)]
    if len(split) != 1:   # each shape, and each edge walk, on its own
        out = [None] * len(ps)
        for g in split:
            for i, f in zip(g, frames([ps[i] for i in g], tol_feas, [nears[i] for i in g])):
                out[i] = f
        return out
    k, V = ks[0], vt.transpose(0, 2, 1)
    B, lineal, rows = N @ V[..., :k], N @ V[..., k:], Ml @ V[..., :k] / norms
    rhs = (d[live].reshape(K, r) - (A[live].reshape(K, r, n) @ x0[..., None])[..., 0]) / norms[..., 0]
    chart = (x0, B, rows, rhs, (A / scale[..., None], d / scale))

    def steps(x):      # the basis met in k straight steps from x, if any (one polyhedron)
        met, u = [], None if x is None else B[0].T @ (x - x0[0])
        while u is not None and len(met) < k:
            e = np.linalg.svd(np.vstack([rows[0][met], np.zeros(k)]))[2][-1]   # along the rows met
            e = e if (rows[0] @ e > 1e-12).any() else -e
            t = _reach(u @ rows[0].T, e[None] @ rows[0].T, rhs[0])[0]
            met.append(int(np.argmin(t)))
            u = u + t[met[-1]] * e if np.isfinite(t[met[-1]]) else None
        return _bases(np.array([] if u is None else [sorted(met)], dtype=int).reshape(-1, k),
                      chart, tol_feas)[0]

    if whole := math.comb(r, k) <= 512:   # one batch holds every k-subset
        front, owner = _bases(_subsets(r, k), chart, tol_feas)
    else:
        try:
            if not len(front := steps(nears[0])) and (ball := inscribed_ball(ps[0], tol_feas)) \
                    is not None and not len(front := steps(ball[0])):
                raise NumericalFailure("the steps from the centre of the polyhedron's largest "
                                       "ball end off it")
        except NumericalFailure as exc:   # the LP's too
            return [exc]
        owner = np.zeros(len(front), dtype=int)
    seen, found = set(), ([], [])
    while True:   # each step takes every basis found so far and not yet taken
        u, vertices, edges, t = _corners(front, owner, chart)
        miss = np.nonzero(~(meets := np.isfinite(t)))[0]
        found[0].append((owner, vertices))
        found[1].append((owner[miss], _ragged(edges[~meets], owner[miss], B.transpose(0, 2, 1))))
        if whole:
            break
        seen.update(map(tuple, front.tolist()))
        ends = u[np.nonzero(meets)[0]] + t[meets][:, None] * edges[meets]
        on_rows = ends @ rows[0].T >= rhs[0] - tol_feas   # the rows at each end
        front, owner = _bases(np.array(sorted({S for on in on_rows for S in itertools.combinations(
            np.flatnonzero(on).tolist(), k)} - seen), dtype=int).reshape(-1, k), chart, tol_feas)
        if not len(front):
            break
    (owner, vertices), (at, rays) = (part[0] if len(part) == 1 else map(np.concatenate, zip(*part))
                                     for part in found)
    unit_A, unit_d = chart[4]
    tight = _ragged(vertices, owner, unit_A.transpose(0, 2, 1)) >= _of(unit_d - tol_feas, owner)
    out = []
    for c, (v, w) in enumerate(zip(_blocks(owner, K), _blocks(at, K))):
        if (tight[v].sum(axis=1) > k).any():   # two bases meet only at a point on more than k rows
            v = v.start + np.sort(np.unique(tight[v], axis=0, return_index=True)[1])
        out.append((vertices[v], np.vstack([lineal[c].T, -lineal[c].T, rays[w]]), tight[v]))
    return out


def _blocks(owner, K) -> list[slice]:   # per polyhedron, the slice of its rows (owner sorted)
    ends = np.cumsum(np.bincount(owner, minlength=K)).tolist() if K > 1 else [len(owner)]
    return [slice(a, e) for a, e in zip([0] + ends, ends)]


def _ragged(X, owner, Y) -> np.ndarray:
    """Each row of X times Y[o], o its entry of owner (sorted), as each o
    alone gets it: one stacked product when every o owns as many rows,
    else one product per o (numpy sends a one-row product to gemv, not gemm)."""
    if len(Y) == 1:
        return X @ Y[0]
    counts = np.bincount(owner, minlength=len(Y))
    if (counts == counts[0]).all():
        return (X.reshape(len(Y), counts[0], X.shape[1]) @ Y).reshape(len(X), Y.shape[2])
    return np.concatenate([X[rows] @ y for rows, y in zip(_blocks(owner, len(Y)), Y)])


def _reach(uR, slope, rhs):   # per direction and row, how far it goes to meet the row; uR = u @ rows.T
    return np.divide(np.maximum(rhs - uR, 0.0)[..., None, :], slope,
                     out=np.full(slope.shape, np.inf), where=slope > 1e-12)


def _bases(S, chart, tol_feas):
    """(S, owner): the k-subsets S (rows of indices) that are bases of each
    polyhedron of chart (`frames`), and whose they are, by polyhedron."""
    x0, B, rows, rhs, (A, d) = chart
    owner, j = np.nonzero(ok := np.abs(np.linalg.det(R := rows[:, S])) > 1e-12)
    u = np.linalg.solve(R[ok], rhs[:, S][ok][..., None])[..., 0]
    x = _of(x0, owner) + _ragged(u, owner, B.transpose(0, 2, 1))
    inside = np.all(_ragged(x, owner, A.transpose(0, 2, 1)) <= _of(d + tol_feas, owner), axis=1)
    return S[j][inside], owner[inside]


def _of(a, owner):   # each owner's entry of a; of one polyhedron, a itself (it broadcasts)
    return a if len(a) == 1 else a[owner]


def _corners(front, owner, chart):
    """At each basis of front (`_bases`): its u, vertex, unit edges (edge i
    leaves row i) and how far each goes to meet the next row (inf: a ray)."""
    x0, B, rows, rhs, _ = chart
    inv = np.linalg.inv(rows[owner[:, None], front])
    u = (inv @ rhs[owner[:, None], front][..., None])[..., 0]
    edges = -inv.transpose(0, 2, 1)
    edges /= np.linalg.norm(edges, axis=2, keepdims=True)
    t = _reach(_ragged(u, owner, rows.transpose(0, 2, 1)), edges @ _of(rows, owner).transpose(0, 2, 1),
               _of(rhs, owner)).min(axis=2, initial=np.inf)
    return u, _of(x0, owner) + _ragged(u, owner, B.transpose(0, 2, 1)), edges, t


@functools.cache   # one array per (m, k), shared by every call: index it, never write it
def _subsets(m: int, k: int) -> np.ndarray:   # every k-subset of range(m) in order, as rows
    return np.array(list(itertools.combinations(range(m), k)), dtype=int).reshape(math.comb(m, k), k)


def implicit_equalities(p: Polyhedron, tol_eq: float = TOL_EQ,
                        tol_feas: float = 1e-7) -> list[int]:
    """Indices of rows j where A(j).x is constant over p.

    Decided by the min/max LP pair per row; a row is implicit when both
    optima exist and coincide within tol_eq (relative to the row's magnitude).
    """
    if not p.minimize(np.zeros(p.dim), tol_feas).optimal:
        raise ValueError("implicit equalities of an empty polyhedron")
    implicit = []
    for j in range(p.num_rows):
        row = p.A[j]
        lo, neg_hi = p.minimize(row, tol_feas), p.minimize(-row, tol_feas)
        scale = max(1.0, float(np.max(np.abs(row))))
        if lo.optimal and neg_hi.optimal and -neg_hi.value - lo.value <= tol_eq * scale:
            implicit.append(j)
    return implicit


def remove_redundant(p: Polyhedron, tol_feas: float = 1e-7) -> Polyhedron:
    """Drop rows that cannot be active: row j goes when max A(j).x over the
    remaining rows stays below d(j).  One LP per row; a reference only.

    Rows are scanned in ascending index order against the shrinking system,
    so of k duplicate rows exactly one (the last) survives.
    """
    if not p.minimize(np.zeros(p.dim), tol_feas).optimal:
        raise ValueError("cannot reduce an empty polyhedron")
    keep = list(range(p.num_rows))
    for j in range(p.num_rows):
        others = [k for k in keep if k != j]
        outcome = Polyhedron(p.A[others], p.d[others]).minimize(-p.A[j], tol_feas)
        if outcome.status == UNBOUNDED:
            continue
        if not outcome.optimal or -outcome.value <= p.d[j] + tol_feas:
            keep.remove(j)
    return Polyhedron(p.A[keep], p.d[keep])


def bounding_box(vertices: np.ndarray, rays: np.ndarray, domain: np.ndarray):
    """(box (n, 2), restricted) of a patch given by its vertices and unit
    rays (`frame`), with no LP: each coordinate runs from the vertices' min
    to their max, and a side along which a ray has a component above 1e-12
    is clamped to the domain box instead, which sets ``restricted``."""
    box = np.column_stack([vertices.min(axis=0), vertices.max(axis=0)])
    clamped = np.column_stack([(rays < -1e-12).any(axis=0), (rays > 1e-12).any(axis=0)])
    box[clamped] = domain[clamped]
    return box, bool(clamped.any())


def triangulate(vertices: np.ndarray, tight: np.ndarray, tol_feas: float = 1e-7) -> np.ndarray:
    """A pulling triangulation of a bounded polyhedron from its vertices and
    their tight rows (`frame`, which gives each point once): an (s, d + 1, n)
    array of simplices, d the dimension of the polyhedron (on its
    hyperplane), or NumericalFailure when there is none.  A face is
    triangulated by coning its first vertex over the triangulations of its
    facets that do not hold it; a facet is the set of the face's vertices
    tight on one row, of one dimension less."""
    def dim(face):
        if len(face) <= 2:
            return len(face) - 1
        spread = np.linalg.svd(vertices[face[1:]] - vertices[face[0]], compute_uv=False)
        return int(np.sum(spread > tol_feas))

    def pull(face, d):
        if len(face) == d + 1:
            return [face]
        facets = np.unique(tight[face][:, ~tight[face[0]]], axis=1).T   # rows off the apex
        return [[face[0], *s] for on in facets if dim(face[on]) == d - 1
                for s in pull(face[on], d - 1)]

    face = np.arange(len(vertices))
    if not (simplices := pull(face, dim(face))):
        raise NumericalFailure(f"no simplex in the pulling triangulation of {len(vertices)} vertices")
    return vertices[np.array(simplices)]

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
        if self.w is None:
            return np.zeros(self.dim), np.eye(self.dim)
        x0 = -self.b * self.w / (self.w @ self.w) if self.w.any() else 0.0 * self.w
        _, s, vt = np.linalg.svd(self.w[None, :])
        return x0, vt[int(s[0] > 0.0):].T

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


def frame(p: Polyhedron, tol_feas: float = 1e-7, near=None):
    """(vertices, rays, tight) of p on its hyperplane, as rows: the hull of
    the vertices plus the cone of the unit rays, and per vertex the mask of
    the rows of p it meets within tol_feas (rows scaled to unit norm).  In
    p's `chart` x = x0 + N t, a row with under 1e-12 of its norm along the
    hyperplane is constant and defines no vertex; the other rows span k
    dimensions, and what they leave is lineality (two opposite rays each).
    A basis is k rows whose solution keeps every unit-scaled row within
    tol_feas.  One batch gives every basis when it holds all k-subsets (at
    most 512).  Otherwise the first is met in k straight steps (each along
    the rows met so far, to the next row) from near, or from the centre of
    `inscribed_ball` (one LP; none: p is empty) without near or when its
    steps end off p, and off p from there too raises NumericalFailure; the
    rest come from walking edges to the next row they meet, edges that meet
    none being rays.  Bases meeting the same rows are one vertex, kept once."""
    x0, N = p.chart()
    M = p.A @ N
    scale = np.linalg.norm(p.A, axis=1)
    live = np.linalg.norm(M, axis=1) > 1e-12 * scale
    norms = np.linalg.norm(M[live], axis=1)[:, None]
    _, s, vt = np.linalg.svd(M[live] / norms)
    k = int(np.sum(s > 1e-12))
    B, lineal = N @ vt[:k].T, N @ vt[k:].T    # the pointed part's axes, the lineality
    rows = M[live] @ vt[:k].T / norms         # unit rows over u, x = x0 + B u
    rhs = (p.d[live] - p.A[live] @ x0) / norms[:, 0]
    unit = Polyhedron(p.A / scale[:, None], p.d / scale)

    def reach(u, D):   # per direction in D and row: how far from u it goes to meet the row
        slope = D @ rows.T
        return np.divide(np.maximum(rhs - u @ rows.T, 0.0)[..., None, :], slope,
                         out=np.full(slope.shape, np.inf), where=slope > 1e-12)

    def bases_of(S):   # the k-subsets in S, rows of indices, that are bases
        S = S[np.abs(np.linalg.det(rows[S])) > 1e-12]
        u = np.linalg.solve(rows[S], rhs[S][..., None])[..., 0]
        return S[unit.contains(x0 + u @ B.T, tol_feas)]

    def steps(x):      # the basis met in k straight steps from x, if any
        met, u = [], None if x is None else B.T @ (x - x0)
        while u is not None and len(met) < k:
            d = np.linalg.svd(np.vstack([rows[met], np.zeros(k)]))[2][-1]   # along the rows met
            t = reach(u, (d := d if (rows @ d > 1e-12).any() else -d)[None])[0]
            met.append(int(np.argmin(t)))
            u = u + t[met[-1]] * d if np.isfinite(t[met[-1]]) else None
        return bases_of(np.array([] if u is None else [sorted(met)], dtype=int).reshape(-1, k))

    whole = math.comb(len(rows), k) <= 512    # one batch holds every k-subset
    front = bases_of(_subsets(len(rows), k)) if whole else steps(near)
    if not (whole or len(front)) and (ball := inscribed_ball(p, tol_feas)) is not None \
            and not len(front := steps(ball[0])):
        raise NumericalFailure("the steps from the centre of the polyhedron's largest ball "
                               "end off it")
    seen, rays, vertices = set(), [lineal.T, -lineal.T], [np.empty((0, p.dim))]
    while len(front):
        inv = np.linalg.inv(rows[front])
        u = (inv @ rhs[front][..., None])[..., 0]
        vertices.append(x0 + u @ B.T)
        edges = -inv.transpose(0, 2, 1)       # edge i leaves row i
        edges /= np.linalg.norm(edges, axis=2, keepdims=True)
        meets = np.isfinite(t := reach(u, edges).min(axis=2, initial=np.inf))
        rays.append(edges[~meets] @ B.T)
        if whole:
            break
        seen.update(map(tuple, front))
        ends = u[np.nonzero(meets)[0]] + t[meets][:, None] * edges[meets]
        on_rows = np.unique(ends @ rows.T >= rhs - tol_feas, axis=0)   # the rows at each end
        front = bases_of(np.array(sorted({S for on in on_rows for S in itertools.combinations(
            np.flatnonzero(on).tolist(), k)} - seen), dtype=int).reshape(-1, k))
    vertices = np.vstack(vertices)
    tight = vertices @ unit.A.T >= unit.d - tol_feas
    if (tight.sum(axis=1) > k).any():   # two bases meet only at a point on more than k rows
        once = np.sort(np.unique(tight, axis=0, return_index=True)[1])
        vertices, tight = vertices[once], tight[once]
    return vertices, np.vstack(rays), tight


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

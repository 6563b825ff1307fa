"""Polyhedra in inequality form and the operations the region tests need.

A polyhedron is ``{x : A x <= d}``.  The region test measures dimension by
the largest inscribed ball (``inscribed_radius``); the implicit-equality
analysis (``implicit_equalities``, ``dimension``) is now only a reference
for it, reading a slice through ``SlicePolyhedron.full``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasiblePolyhedron
from .linprog import (LpProblem, lp_feasible, lp_solve, matrix_rank, INFEASIBLE, OPTIMAL,
                      UNBOUNDED)


@dataclass
class Polyhedron:
    """{x : A x <= d}; rows may be redundant or duplicated."""

    A: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.d = np.atleast_1d(np.asarray(self.d, dtype=float))
        if self.A.shape[0] != self.d.shape[0]:
            raise ValueError(f"row mismatch: A has {self.A.shape[0]} rows, d has {self.d.shape[0]}")

    @classmethod
    def whole_space(cls, dim: int) -> "Polyhedron":
        return cls(np.zeros((0, dim)), np.zeros(0))

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    def contains(self, x, tol: float = 1e-7) -> bool:
        if self.num_rows == 0:
            return True
        return bool(np.all(self.A @ np.asarray(x, dtype=float) <= self.d + tol))

    def feasible_point(self, tol_feas: float = 1e-7):
        """A point of the polyhedron, or None when it is empty."""
        return lp_feasible(self.A, self.d, num_vars=self.dim, tol_feas=tol_feas)

    def with_rows(self, extra_a, extra_d) -> "Polyhedron":
        extra_a = np.atleast_2d(np.asarray(extra_a, dtype=float))
        extra_d = np.atleast_1d(np.asarray(extra_d, dtype=float))
        return Polyhedron(np.vstack([self.A, extra_a]), np.concatenate([self.d, extra_d]))


@dataclass
class SlicePolyhedron:
    """A polyhedron intersected with the hyperplane ``w.x + b = 0``."""

    base: Polyhedron
    w: np.ndarray
    b: float

    def __post_init__(self):
        self.w = np.atleast_1d(np.asarray(self.w, dtype=float))
        self.b = float(self.b)
        if self.w.shape[0] != self.base.dim:
            raise ValueError("hyperplane normal does not match the polyhedron dimension")

    def full(self) -> Polyhedron:
        """Pure-inequality form: base rows then ``w.x <= -b`` then ``-w.x <= b``."""
        return self.base.with_rows(np.vstack([self.w, -self.w]),
                                   np.array([-self.b, self.b]))

    def feasible_point(self, tol_feas: float = 1e-7):
        return lp_feasible(self.base.A, self.base.d,
                           self.w[None, :], np.array([-self.b]),
                           num_vars=self.base.dim, tol_feas=tol_feas)

    def contains(self, x, tol: float = 1e-7) -> bool:
        x = np.asarray(x, dtype=float)
        return self.base.contains(x, tol) and abs(float(self.w @ x) + self.b) <= tol

    def minimize(self, objective, tol_feas: float = 1e-7):
        """min objective.x over the slice (equality handled natively)."""
        problem = LpProblem(objective, self.base.A, self.base.d,
                            self.w[None, :], np.array([-self.b]))
        return lp_solve(problem, tol_feas=tol_feas)


def inscribed_radius(p: Polyhedron, w=None, b: float = 0.0,
                     tol_feas: float = 1e-7) -> float | None:
    """Radius (capped at 1) of the largest ball inside p; None when p is empty.

    Given a hyperplane ``w.x + b = 0``, the ball is centred on it and only
    its part within the hyperplane must fit, so each unit row normal is
    charged just its component along the hyperplane.  One Chebyshev-centre
    LP over (x, r): max r s.t. ``(a_i/|a_i|).x + c_i r <= d_i/|a_i|``, 0 <= r <= 1.
    """
    norms = np.linalg.norm(p.A, axis=1)
    scale = np.where(norms > 0.0, norms, 1.0)
    rows = p.A / scale[:, None]
    c, eq_a, eq_d = (norms > 0.0).astype(float), None, None
    if w is not None:
        u = np.asarray(w, dtype=float) / np.linalg.norm(w)
        c = np.linalg.norm(rows - np.outer(rows @ u, u), axis=1)
        eq_a, eq_d = np.append(w, 0.0)[None, :], np.array([-float(b)])
    e_r = np.eye(p.dim + 1)[-1]
    a_ub = np.vstack([np.column_stack([rows, c]), e_r, -e_r])
    b_ub = np.concatenate([p.d / scale, [1.0, 0.0]])
    outcome = lp_solve(LpProblem(e_r, a_ub, b_ub, eq_a, eq_d, sense="max"),
                       tol_feas=tol_feas)
    return outcome.value if outcome.optimal else None


def implicit_equalities(p: Polyhedron, tol_eq: float = 1e-7,
                        tol_feas: float = 1e-7) -> list[int]:
    """Indices of rows j where A(j).x is constant over p.

    Decided by the min/max LP pair per row; a row is implicit when both
    optima exist and coincide within tol_eq (relative to the row's magnitude).
    """
    if p.feasible_point(tol_feas) is None:
        raise InfeasiblePolyhedron("implicit equalities of an empty polyhedron")
    implicit = []
    for j in range(p.num_rows):
        row = p.A[j]
        lo = lp_solve(LpProblem(row, p.A, p.d, sense="min"), tol_feas=tol_feas)
        hi = lp_solve(LpProblem(row, p.A, p.d, sense="max"), tol_feas=tol_feas)
        scale = max(1.0, float(np.max(np.abs(row))))
        if lo.optimal and hi.optimal and hi.value - lo.value <= tol_eq * scale:
            implicit.append(j)
    return implicit


def dimension(p: Polyhedron, tol_eq: float = 1e-7, tol_rank: float = 1e-8,
              tol_feas: float = 1e-7) -> int:
    """Affine dimension of a nonempty polyhedron: n minus the rank of its
    implicit-equality rows."""
    implicit = implicit_equalities(p, tol_eq=tol_eq, tol_feas=tol_feas)
    if not implicit:
        return p.dim
    return p.dim - matrix_rank(p.A[implicit], tol_rank=tol_rank)


def remove_redundant(p: Polyhedron, tol_feas: float = 1e-7) -> Polyhedron:
    """Drop rows that cannot be active: row j goes when max A(j).x over the
    remaining rows stays below d(j).

    Rows are scanned in ascending index order against the shrinking system,
    so of k duplicate rows exactly one (the last) survives.
    """
    if p.feasible_point(tol_feas) is None:
        raise InfeasiblePolyhedron("cannot reduce an empty polyhedron")
    keep = list(range(p.num_rows))
    for j in range(p.num_rows):
        if j not in keep:
            continue
        others = [k for k in keep if k != j]
        outcome = lp_solve(LpProblem(p.A[j], p.A[others], p.d[others], sense="max"),
                           tol_feas=tol_feas)
        if outcome.status == UNBOUNDED:
            continue
        if outcome.status != OPTIMAL or outcome.value <= p.d[j] + tol_feas:
            keep.remove(j)
    return Polyhedron(p.A[keep], p.d[keep])


def bounding_box(region_a, region_d, eq_a=None, eq_d=None, *, dim: int,
                 domain: np.ndarray | None = None, tol_feas: float = 1e-7):
    """Coordinate-wise bounds of a constraint system: the min and max of each
    coordinate, 2n objectives solved by one batched `lp_solve` (one phase
    one, each phase two warm-started from the previous optimum).

    Returns (box (n,2), sample points, restricted) or None when infeasible;
    ``restricted`` is set when an unbounded coordinate was clamped to the
    supplied domain box.
    """
    # objectives x1, -x1, x2, -x2, ...: minimising -x_i gives max x_i
    signs = np.tile([1.0, -1.0], dim)
    objectives = np.repeat(np.eye(dim), 2, axis=0) * signs[:, None]
    outcomes = lp_solve(LpProblem(objectives, region_a, region_d, eq_a, eq_d),
                        tol_feas=tol_feas)
    if outcomes.status == INFEASIBLE:
        return None
    box = np.empty((dim, 2))
    points = []
    restricted = False
    for k, outcome in enumerate(outcomes):
        i, side = divmod(k, 2)
        if outcome.optimal:
            box[i, side] = signs[k] * outcome.value
            points.append(outcome.point)
        elif domain is None:
            raise InfeasiblePolyhedron("unbounded slice and no domain box to restrict to")
        else:
            box[i, side] = domain[i, side]
            restricted = True
    return box, points, restricted

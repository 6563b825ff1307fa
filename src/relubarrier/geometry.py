"""Polyhedra in inequality form and the operations the region tests need.

A polyhedron is ``{x : A x <= d}``; `SlicePolyhedron.minimize` is where a
level-set slice becomes an LP, all on one phase one.  The region test measures
dimension by the largest inscribed ball (``inscribed_radius``), and enumeration
finds the rows touching a slice with one batched `lp_solve` (`regions`);
``implicit_equalities`` and ``remove_redundant`` are references for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TOL_EQ
from .errors import InfeasiblePolyhedron
from .linprog import INFEASIBLE, UNBOUNDED, LpProblem, lp_solve


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

    def contains(self, x, tol: float = 1e-7):
        """Whether each row of x, (m, n) -> (m,), obeys every row within tol;
        a point (n,) is a one-row batch and gives a bool."""
        x = np.asarray(x, dtype=float)
        inside = np.all(np.atleast_2d(x) @ self.A.T <= self.d + tol, axis=1)
        return inside if x.ndim == 2 else bool(inside[0])

    def with_rows(self, extra_a, extra_d) -> "Polyhedron":
        extra_a = np.atleast_2d(np.asarray(extra_a, dtype=float))
        extra_d = np.atleast_1d(np.asarray(extra_d, dtype=float))
        return Polyhedron(np.vstack([self.A, extra_a]), np.concatenate([self.d, extra_d]))

    def within(self, box) -> "Polyhedron":
        """The polyhedron cut to an (n, 2) box: rows ``x <= hi``, then ``-x <= -lo``."""
        return self.with_rows(np.vstack([np.eye(self.dim), -np.eye(self.dim)]),
                              np.concatenate([box[:, 1], -box[:, 0]]))


@dataclass
class SlicePolyhedron:
    """A polyhedron on the hyperplane ``w.x + b = 0``; its LPs share a phase one (``memo``)."""

    base: Polyhedron
    w: np.ndarray
    b: float
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.w = np.atleast_1d(np.asarray(self.w, dtype=float))
        self.b = float(self.b)
        if self.w.shape[0] != self.base.dim:
            raise ValueError("hyperplane normal does not match the polyhedron dimension")

    def contains(self, x, tol: float = 1e-7):
        """`Polyhedron.contains`, and on the hyperplane within tol."""
        x = np.asarray(x, dtype=float)
        rows = np.atleast_2d(x)
        inside = self.base.contains(rows, tol) & (np.abs(rows @ self.w + self.b) <= tol)
        return inside if x.ndim == 2 else bool(inside[0])

    def within(self, box) -> "SlicePolyhedron":
        """The slice cut to an (n, 2) box (see `Polyhedron.within`)."""
        return SlicePolyhedron(self.base.within(box), self.w, self.b)

    def minimize(self, objective, tol_feas: float = 1e-7):
        """min objective.x over the slice (equality handled natively); a
        ``(k, n)`` objective is k LPs sharing one phase one."""
        problem = LpProblem(objective, self.base.A, self.base.d,
                            self.w[None, :], np.array([-self.b]))
        return lp_solve(problem, tol_feas=tol_feas, memo=self.memo)


def slice_charges(A: np.ndarray, w) -> np.ndarray:
    """Per row, the norm of its unit normal's component along ``w.x = 0`` (0
    for a zero row): what a ball centred on that hyperplane is charged."""
    norms = np.linalg.norm(A, axis=1)
    rows = A / np.where(norms > 0.0, norms, 1.0)[:, None]
    u = np.asarray(w, dtype=float) / np.linalg.norm(w)
    return np.linalg.norm(rows - np.outer(rows @ u, u), axis=1)


def inscribed_radius(p: Polyhedron, w=None, b: float = 0.0,
                     tol_feas: float = 1e-7) -> float | None:
    """Radius (capped at 1) of the largest ball inside p; None when p is empty.

    Given a hyperplane ``w.x + b = 0``, the ball is centred on it and only
    its part within the hyperplane must fit, so each unit row normal is charged
    just its component along the hyperplane (`slice_charges`).  One Chebyshev-centre
    LP over (x, r): max r s.t. ``(a_i/|a_i|).x + c_i r <= d_i/|a_i|``, 0 <= r <= 1.
    """
    norms = np.linalg.norm(p.A, axis=1)
    scale = np.where(norms > 0.0, norms, 1.0)
    rows = p.A / scale[:, None]
    c, eq_a, eq_d = (norms > 0.0).astype(float), None, None
    if w is not None:
        c = slice_charges(p.A, w)
        eq_a, eq_d = np.append(w, 0.0)[None, :], np.array([-float(b)])
    e_r = np.eye(p.dim + 1)[-1]
    a_ub = np.vstack([np.column_stack([rows, c]), e_r, -e_r])
    b_ub = np.concatenate([p.d / scale, [1.0, 0.0]])
    outcome = lp_solve(LpProblem(e_r, a_ub, b_ub, eq_a, eq_d, sense="max"),
                       tol_feas=tol_feas)
    return outcome.value if outcome.optimal else None


def implicit_equalities(p: Polyhedron, tol_eq: float = TOL_EQ,
                        tol_feas: float = 1e-7) -> list[int]:
    """Indices of rows j where A(j).x is constant over p.

    Decided by the min/max LP pair per row; a row is implicit when both
    optima exist and coincide within tol_eq (relative to the row's magnitude).
    """
    if not lp_solve(LpProblem(np.zeros(p.dim), p.A, p.d), tol_feas=tol_feas).optimal:
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


def remove_redundant(p: Polyhedron, tol_feas: float = 1e-7) -> Polyhedron:
    """Drop rows that cannot be active: row j goes when max A(j).x over the
    remaining rows stays below d(j).  One LP per row; a reference only.

    Rows are scanned in ascending index order against the shrinking system,
    so of k duplicate rows exactly one (the last) survives.
    """
    if not lp_solve(LpProblem(np.zeros(p.dim), p.A, p.d), tol_feas=tol_feas).optimal:
        raise InfeasiblePolyhedron("cannot reduce an empty polyhedron")
    keep = list(range(p.num_rows))
    for j in range(p.num_rows):
        others = [k for k in keep if k != j]
        outcome = lp_solve(LpProblem(p.A[j], p.A[others], p.d[others], sense="max"),
                           tol_feas=tol_feas)
        if outcome.status == UNBOUNDED:
            continue
        if not outcome.optimal or outcome.value <= p.d[j] + tol_feas:
            keep.remove(j)
    return Polyhedron(p.A[keep], p.d[keep])


def bounding_box(sl: SlicePolyhedron, domain: np.ndarray | None = None,
                 tol_feas: float = 1e-7):
    """Coordinate-wise bounds of a slice: the min and max of each
    coordinate, 2n objectives solved by one batched `lp_solve` (one phase
    one, each phase two warm-started from the previous optimum).

    Returns (box (n,2), sample points, restricted) or None when infeasible;
    ``restricted`` is set when an unbounded coordinate was clamped to the
    supplied domain box.
    """
    dim = sl.base.dim
    # objectives x1, -x1, x2, -x2, ...: minimising -x_i gives max x_i
    signs = np.tile([1.0, -1.0], dim)
    outcomes = sl.minimize(np.repeat(np.eye(dim), 2, axis=0) * signs[:, None], tol_feas)
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

"""Dense two-phase primal simplex.

The solver is deliberately self-contained: the rest of the toolkit leans on
linear programs whose outcomes (including legitimate unboundedness and
infeasibility) feed geometric decisions, so we want full control over
tolerances and determinism rather than whatever an external solver's
defaults happen to be.

Free variables are split into positive/negative parts, every row gets a
slack, and phase one introduces artificial variables for the rows with a
negative right-hand side (their slack cannot start basic).  Every pivot
follows Bland's rule (Bland 1977), which rules out cycling on degenerate
vertices in exact arithmetic; `_MAX_ITER` bounds each phase under round-off.

`lp_solve` takes one LP in inequality form as arrays, always minimises (a
maximum is the negated minimum of the negated objective) and returns one
`LpOutcome`: one tableau, one phase one, then phase two on the same
tableau.  It has no equality rows: an LP on a hyperplane is solved in the
hyperplane's own coordinates (`geometry.Polyhedron.minimize`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# pivot eligibility threshold; smaller entries are treated as zero
_PIVOT_TOL = 1e-11
# reduced-cost threshold for entering-variable selection
_COST_TOL = 1e-9
_MAX_ITER = 20_000


@dataclass
class LpOutcome:
    """status is one of OPTIMAL / INFEASIBLE / UNBOUNDED; value and point
    are populated only for OPTIMAL."""

    status: str
    value: float | None = None
    point: np.ndarray | None = None

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _normalize_system(a, b, n):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.shape[0], n):
        raise ValueError(f"system shapes {a.shape}/{b.shape} do not fit {n} variables")
    return a, b


def _pivot(T, basis, row, col):
    prow = T[row]
    prow /= prow[col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * prow
    # remove roundoff drift in the pivot column
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_simplex(T, basis):
    """Minimize the objective encoded in the last tableau row by Bland's
    rule: the first column of negative reduced cost enters, and of the rows
    tied for the least ratio the one with the smallest basic index leaves.

    Returns "optimal" or "unbounded"; raises NumericalFailure if the
    iteration budget is exhausted.
    """
    for _ in range(_MAX_ITER):
        candidates = (T[-1, :-1] < -_COST_TOL).nonzero()[0]
        if candidates.size == 0:
            return OPTIMAL
        col = int(candidates[0])
        column = T[:-1, col]
        eligible = (column > _PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            return UNBOUNDED
        ratios = T[:-1, -1][eligible] / column[eligible]
        best = ratios.min()
        ties = eligible[ratios <= best + 1e-9 * max(1.0, abs(best))]
        row = int(ties[0]) if ties.size == 1 else int(ties[np.argmin(basis[ties])])
        _pivot(T, basis, row, col)
    raise NumericalFailure("simplex iteration budget exhausted")


def _build_tableau(a_ub, b_ub):
    """Standard-form tableau with rhs >= 0 plus bookkeeping indices."""
    m, n = a_ub.shape
    flip = b_ub < 0
    a = np.where(flip[:, None], -a_ub, a_ub)
    b = np.where(flip, -b_ub, b_ub)

    n_split = 2 * n
    n_struct = n_split + m
    # a flipped row's slack is -1, so it needs an artificial
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.size

    T = np.zeros((m + 1, n_struct + n_art + 1))
    T[:m, :n] = a
    T[:m, n:n_split] = -a
    rows = np.arange(m)
    T[rows, n_split + rows] = np.where(flip, -1.0, 1.0)
    art_cols = n_struct + np.arange(n_art)
    T[art_rows, art_cols] = 1.0
    T[:m, -1] = b

    # a row's slack is basic, or its artificial where it needs one
    basis = n_split + rows
    basis[art_rows] = art_cols
    return T, basis, n_struct, art_cols


def _price(T, basis, cols, costs):
    """Set the cost row to costs on cols (zero elsewhere) and price out the
    basic columns."""
    T[-1, :] = 0.0
    T[-1, cols] = costs
    for i in np.flatnonzero(T[-1, basis]):
        T[-1] -= T[i] * T[-1, basis[i]]


def _phase_one(T, basis, art_cols, tol_feas) -> bool:
    """Minimize the sum of artificials; whether the LP is feasible.

    Every row keeps its slack among the structural columns, so an
    artificial left basic at zero can always be pivoted out; a row whose
    structural entries all round to zero raises NumericalFailure.
    """
    if art_cols.size == 0:
        return True
    _price(T, basis, art_cols, 1.0)
    status = _run_simplex(T, basis)
    if status != OPTIMAL:  # bounded below in exact arithmetic, not under round-off
        raise NumericalFailure("phase one terminated abnormally")
    residual = -T[-1, -1]
    scale = max(1.0, float(np.max(np.abs(T[:-1, -1]))) if len(basis) else 1.0)
    if residual > tol_feas * scale:
        return False
    struct_end = int(art_cols.min())
    for i in np.flatnonzero(basis >= struct_end):
        row = T[i, :struct_end]
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) <= _PIVOT_TOL:
            raise NumericalFailure("phase one left an artificial it cannot pivot out")
        _pivot(T, basis, i, j)
    return True


def lp_solve(objective, a_ub, b_ub, tol_feas: float = 1e-7) -> LpOutcome:
    """min ``objective . x`` s.t. ``a_ub x <= b_ub``, over free variables,
    for an ``(n,)`` objective, ``(m, n)`` rows and ``(m,)`` bounds (m = 0
    for no rows); unboundedness and infeasibility are ordinary outcomes,
    not errors.  A maximum is the negated minimum of the negated
    objective.
    """
    c = np.asarray(objective, dtype=float)
    if c.ndim != 1:
        raise ValueError(f"objective must be a vector, not of shape {c.shape}")
    n = c.shape[0]
    a_ub, b_ub = _normalize_system(a_ub, b_ub, n)
    for arr in (c, a_ub, b_ub):
        if not np.isfinite(arr).all():
            raise ValueError("problem data must be finite")

    T, basis, n_struct, art_cols = _build_tableau(a_ub, b_ub)
    if not _phase_one(T, basis, art_cols, tol_feas):
        return LpOutcome(INFEASIBLE)
    # drop artificial columns (they sit at the end, so basis indices survive)
    T = np.delete(T, np.s_[n_struct:-1], axis=1)
    _price(T, basis, np.s_[:2 * n], np.concatenate([c, -c]))   # x = x+ - x-
    if _run_simplex(T, basis) == UNBOUNDED:
        return LpOutcome(UNBOUNDED)

    x_std = np.zeros(n_struct)
    x_std[basis] = T[:-1, -1]
    x = x_std[:n] - x_std[n:2 * n]
    _check_feasible(a_ub, b_ub, x, tol_feas)
    return LpOutcome(OPTIMAL, value=float(c @ x), point=x)


def _check_feasible(a_ub, b_ub, x, tol_feas):
    scale = max(1.0, float(np.abs(x).max()) if x.size else 1.0)
    viol = float((a_ub @ x - b_ub).max(initial=-np.inf))
    if viol > 100 * tol_feas * scale:
        raise NumericalFailure(f"solver returned infeasible point (ub slack {viol:.3g})")

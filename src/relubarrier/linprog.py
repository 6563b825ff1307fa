"""Dense two-phase primal simplex and numerical rank.

The solver is deliberately self-contained: the rest of the toolkit leans on
linear programs whose outcomes (including legitimate unboundedness and
infeasibility) feed geometric decisions, so we want full control over
tolerances and determinism rather than whatever an external solver's
defaults happen to be.

Free variables are split into positive/negative parts, inequality rows get
slacks, and phase one introduces artificial variables for rows without an
obvious basic column.  Pivoting uses Dantzig's rule until a run of
degenerate pivots is detected, then falls back to Bland's rule, which
guarantees termination.

Several objectives over one feasible set (a ``(k, n)`` objective) share one
tableau and one phase one; each phase two starts from the basis the previous
one ended in.  A single objective is the k = 1 case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedProblem, NumericalFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# pivot eligibility threshold; smaller entries are treated as zero
_PIVOT_TOL = 1e-11
# reduced-cost threshold for entering-variable selection
_COST_TOL = 1e-9
# consecutive degenerate pivots tolerated before switching to Bland's rule
_DEGENERATE_LIMIT = 40
_MAX_ITER = 20_000


@dataclass
class LpProblem:
    """min/max ``objective . x`` s.t. ``a_ub x <= b_ub`` and ``a_eq x = b_eq``.

    Variables are free (the solver handles the sign split internally).  A
    ``(k, n)`` objective stands for k problems over the same constraints.
    """

    objective: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    sense: str = "min"

    def __post_init__(self):
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = self.objective.shape[-1]
        if self.objective.ndim > 2:
            raise MalformedProblem("objective must be a vector or a matrix of row vectors")
        if self.sense not in ("min", "max"):
            raise MalformedProblem(f"sense must be 'min' or 'max', got {self.sense!r}")
        self.a_ub, self.b_ub = _normalize_system(self.a_ub, self.b_ub, n, "ub")
        self.a_eq, self.b_eq = _normalize_system(self.a_eq, self.b_eq, n, "eq")
        for arr in (self.objective, self.a_ub, self.b_ub, self.a_eq, self.b_eq):
            if not np.all(np.isfinite(arr)):
                raise MalformedProblem("problem data must be finite")

    @property
    def num_vars(self) -> int:
        return self.objective.shape[-1]


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


class LpOutcomes(list):
    """The outcomes of one solve over several objectives, in objective order."""

    @property
    def status(self) -> str:
        """INFEASIBLE when the shared feasible set is empty, UNBOUNDED when
        some objective is unbounded, OPTIMAL when every optimum exists."""
        statuses = {o.status for o in self}
        for status in (INFEASIBLE, UNBOUNDED):
            if status in statuses:
                return status
        return OPTIMAL


def _normalize_system(a, b, n, tag):
    if a is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    if a is None or b is None:
        raise MalformedProblem(f"a_{tag} and b_{tag} must be given together")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.shape[0], n):
        raise MalformedProblem(
            f"{tag} system shapes {a.shape}/{b.shape} do not fit {n} variables")
    return a, b


def _pivot(T, basis, row, col):
    piv = T[row, col]
    T[row] = T[row] / piv
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    # remove roundoff drift in the pivot column
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_simplex(T, basis, max_iter=None):
    """Minimize the objective encoded in the last tableau row.

    Returns "optimal" or "unbounded"; raises NumericalFailure if the
    iteration budget is exhausted even under Bland's rule.
    """
    if max_iter is None:
        max_iter = _MAX_ITER
    bland = False
    degenerate_streak = 0
    for _ in range(max_iter):
        costs = T[-1, :-1]
        if bland:
            candidates = np.flatnonzero(costs < -_COST_TOL)
            if candidates.size == 0:
                return OPTIMAL
            col = int(candidates[0])
        else:
            col = int(np.argmin(costs))
            if costs[col] >= -_COST_TOL:
                return OPTIMAL
        column = T[:-1, col]
        eligible = np.flatnonzero(column > _PIVOT_TOL)
        if eligible.size == 0:
            return UNBOUNDED
        ratios = T[:-1, -1][eligible] / column[eligible]
        best = np.min(ratios)
        ties = eligible[ratios <= best + 1e-9 * max(1.0, abs(best))]
        if bland:
            # smallest basis index among ties (termination guarantee)
            row = int(ties[np.argmin(basis[ties])])
        else:
            # largest pivot magnitude among ties (stability)
            row = int(ties[np.argmax(column[ties])])
        before = T[-1, -1]
        _pivot(T, basis, row, col)
        if abs(T[-1, -1] - before) <= 1e-12 * max(1.0, abs(before)):
            degenerate_streak += 1
            if degenerate_streak > _DEGENERATE_LIMIT:
                bland = True
        else:
            degenerate_streak = 0
    raise NumericalFailure("simplex iteration budget exhausted")


def _build_tableau(problem):
    """Standard-form tableau with rhs >= 0 plus bookkeeping indices."""
    n = problem.num_vars
    m_ub = problem.a_ub.shape[0]
    m_eq = problem.a_eq.shape[0]
    m = m_ub + m_eq
    a = np.vstack([problem.a_ub, problem.a_eq])
    b = np.concatenate([problem.b_ub, problem.b_eq])
    flip = b < 0
    a = np.where(flip[:, None], -a, a)
    b = np.where(flip, -b, b)
    slack_sign = np.where(flip[:m_ub], -1.0, 1.0)

    n_split = 2 * n
    n_struct = n_split + m_ub
    # rows needing an artificial: flipped ub rows (slack is -1) and all eq rows
    need_art = np.concatenate([flip[:m_ub], np.ones(m_eq, dtype=bool)])
    art_rows = np.flatnonzero(need_art)
    n_art = art_rows.size

    T = np.zeros((m + 1, n_struct + n_art + 1))
    T[:m, :n] = a
    T[:m, n:n_split] = -a
    for i in range(m_ub):
        T[i, n_split + i] = slack_sign[i]
    for k, i in enumerate(art_rows):
        T[i, n_struct + k] = 1.0
    T[:m, -1] = b

    basis = np.empty(m, dtype=int)
    art_cols = []
    k = 0
    for i in range(m):
        if need_art[i]:
            basis[i] = n_struct + k
            art_cols.append(n_struct + k)
            k += 1
        else:
            basis[i] = n_split + i
    return T, basis, n, n_struct, np.array(art_cols, dtype=int)


def _phase_one(T, basis, art_cols, tol_feas):
    """Minimize the sum of artificials.

    Returns (feasible, T, basis); rows whose artificial cannot be pivoted
    out are redundant and get dropped.
    """
    if art_cols.size == 0:
        return True, T, basis
    T[-1, :] = 0.0
    T[-1, art_cols] = 1.0
    for i in range(len(basis)):
        if T[-1, basis[i]] != 0.0:
            T[-1] -= T[i] * T[-1, basis[i]]
    status = _run_simplex(T, basis)
    if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded below
        raise NumericalFailure("phase one terminated abnormally")
    residual = -T[-1, -1]
    scale = max(1.0, float(np.max(np.abs(T[:-1, -1]))) if len(basis) else 1.0)
    if residual > tol_feas * scale:
        return False, T, basis
    # pivot remaining artificials out of the basis where possible
    art_set = set(int(c) for c in art_cols)
    struct_end = int(art_cols.min())
    drop_rows = []
    for i in range(len(basis)):
        if int(basis[i]) in art_set:
            row = T[i, :struct_end]
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > _PIVOT_TOL:
                _pivot(T, basis, i, j)
            else:
                drop_rows.append(i)  # redundant constraint row
    if drop_rows:
        keep = [i for i in range(len(basis)) if i not in set(drop_rows)]
        T = T[keep + [-1], :]
        basis = basis[keep]
    return True, T, basis


def lp_solve(problem: LpProblem, tol_feas: float = 1e-7) -> LpOutcome | LpOutcomes:
    """Solve a small dense LP; unboundedness and infeasibility are ordinary
    outcomes, not errors.

    A ``(k, n)`` objective is solved as k LPs over one feasible set: one
    tableau and one phase one, then one phase two per objective, each
    starting from the basis the previous one ended in (optimal, or still
    feasible where it proved unboundedness).  It returns LpOutcomes, one per
    row; a vector objective returns its single LpOutcome.
    """
    objectives = np.atleast_2d(problem.objective)
    sign = 1.0 if problem.sense == "min" else -1.0

    T, basis, _, n_struct, art_cols = _build_tableau(problem)
    feasible, T, basis = _phase_one(T, basis, art_cols, tol_feas)
    if not feasible:
        outcomes = [LpOutcome(INFEASIBLE) for _ in objectives]
    else:
        # drop artificial columns (they sit at the end, so basis indices survive)
        T = np.delete(T, np.s_[n_struct:-1], axis=1)
        outcomes = [_phase_two(problem, T, basis, objective, sign, n_struct, tol_feas)
                    for objective in objectives]
    return outcomes[0] if problem.objective.ndim == 1 else LpOutcomes(outcomes)


def _phase_two(problem, T, basis, objective, sign, n_struct, tol_feas) -> LpOutcome:
    """min ``sign * objective . x`` from the feasible basis in (T, basis),
    pivoting T and basis in place."""
    n = problem.num_vars
    c = sign * objective
    c_std = np.zeros(n_struct)
    c_std[:n] = c
    c_std[n:2 * n] = -c
    T[-1, :] = 0.0
    T[-1, :n_struct] = c_std
    for i in range(len(basis)):
        coef = T[-1, basis[i]]
        if coef != 0.0:
            T[-1] -= T[i] * coef
    status = _run_simplex(T, basis)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)

    x_std = np.zeros(n_struct)
    x_std[basis] = T[:-1, -1]
    x = x_std[:n] - x_std[n:2 * n]
    value = float(objective @ x)
    _check_feasible(problem, x, tol_feas)
    return LpOutcome(OPTIMAL, value=value, point=x)


def _check_feasible(problem, x, tol_feas):
    scale = max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    if problem.a_ub.shape[0]:
        viol = float(np.max(problem.a_ub @ x - problem.b_ub))
        if viol > 100 * tol_feas * scale:
            raise NumericalFailure(f"solver returned infeasible point (ub slack {viol:.3g})")
    if problem.a_eq.shape[0]:
        viol = float(np.max(np.abs(problem.a_eq @ x - problem.b_eq)))
        if viol > 100 * tol_feas * scale:
            raise NumericalFailure(f"solver returned infeasible point (eq residual {viol:.3g})")


def lp_feasible(a_ub=None, b_ub=None, a_eq=None, b_eq=None, *, num_vars=None,
                tol_feas: float = 1e-7):
    """Phase-one feasibility check.

    Returns a feasible point, or None when the system is infeasible.
    """
    if num_vars is None:
        if a_ub is not None:
            num_vars = np.atleast_2d(np.asarray(a_ub)).shape[1]
        elif a_eq is not None:
            num_vars = np.atleast_2d(np.asarray(a_eq)).shape[1]
        else:
            raise MalformedProblem("cannot infer the number of variables")
    problem = LpProblem(np.zeros(num_vars), a_ub, b_ub, a_eq, b_eq)
    outcome = lp_solve(problem, tol_feas=tol_feas)
    return outcome.point if outcome.optimal else None


def matrix_rank(mat, tol_rank: float = 1e-8) -> int:
    """Numerical rank by row reduction with a pivot threshold.

    Rows are pre-normalized by their largest entry so the result is
    invariant under row scaling.
    """
    a = np.atleast_2d(np.asarray(mat, dtype=float)).copy()
    if a.size == 0:
        return 0
    norms = np.max(np.abs(a), axis=1)
    nonzero = norms > 0.0
    a[nonzero] = a[nonzero] / norms[nonzero, None]
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        piv = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[piv, col]) <= tol_rank:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] / a[rank, col]
        below = a[rank + 1:, col].copy()
        a[rank + 1:] -= np.outer(below, a[rank])
        rank += 1
    return rank

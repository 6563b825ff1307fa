"""Simplex solver tests against frozen values and a vertex-enumeration oracle."""

import numpy as np
import pytest

from relubarrier import NumericalFailure
from relubarrier.linprog import (INFEASIBLE, OPTIMAL, UNBOUNDED, LpOutcomes, LpProblem,
                                 lp_feasible, lp_solve, matrix_rank)

from helpers import vertex_minimum


def test_box_minimum():
    # min x1 subject to 0 <= x1 <= 1
    out = lp_solve(LpProblem(np.array([1.0]),
                             a_ub=np.array([[1.0], [-1.0]]),
                             b_ub=np.array([1.0, 0.0])))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(0.0, abs=1e-9)
    assert out.point[0] == pytest.approx(0.0, abs=1e-9)


def test_contradictory_bounds_infeasible():
    # x1 <= 0 and x1 >= 1 cannot hold together
    out = lp_solve(LpProblem(np.array([1.0]),
                             a_ub=np.array([[1.0], [-1.0]]),
                             b_ub=np.array([0.0, -1.0])))
    assert out.status == INFEASIBLE
    assert out.point is None


def test_unbounded_ray():
    out = lp_solve(LpProblem(np.array([1.0]),
                             a_ub=np.array([[1.0]]),
                             b_ub=np.array([0.0])))
    assert out.status == UNBOUNDED


def test_segment_optimum():
    # min x1 + x2 on the segment x1 + x2 = 1, x >= 0: constant value 1
    out = lp_solve(LpProblem(np.array([1.0, 1.0]),
                             a_ub=-np.eye(2), b_ub=np.zeros(2),
                             a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0])))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)


def test_maximize_sense():
    out = lp_solve(LpProblem(np.array([1.0]),
                             a_ub=np.array([[1.0], [-1.0]]),
                             b_ub=np.array([2.0, 0.0]), sense="max"))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(2.0, abs=1e-9)


def test_optimal_point_satisfies_constraints():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        a = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        d = a @ x0 + rng.uniform(0.1, 1.0, size=m)  # x0 strictly feasible
        box_a = np.vstack([np.eye(n), -np.eye(n)])
        box_d = np.full(2 * n, 10.0 + np.abs(x0).max())
        prob = LpProblem(rng.normal(size=n),
                         a_ub=np.vstack([a, box_a]),
                         b_ub=np.concatenate([d, box_d]))
        out = lp_solve(prob)
        assert out.status == OPTIMAL
        slack = prob.a_ub @ out.point - prob.b_ub
        assert slack.max() <= 1e-7


def test_vertex_oracle_equivalence():
    """Optimal values match a numpy-only vertex enumeration on boxed LPs."""
    rng = np.random.default_rng(12345)
    checked = 0
    while checked < 60:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        a = rng.normal(size=(m, n))
        d = rng.normal(size=m) + 1.0
        box_a = np.vstack([np.eye(n), -np.eye(n)])
        box_d = np.full(2 * n, 5.0)
        a_all = np.vstack([a, box_a])
        d_all = np.concatenate([d, box_d])
        oracle = vertex_minimum(rng.normal(size=n), a_all, d_all)
        prob = LpProblem(rng.normal(size=n), a_ub=a_all, b_ub=d_all)
        # reuse the same objective for both routes
        prob = LpProblem(prob.objective, a_ub=a_all, b_ub=d_all)
        oracle = vertex_minimum(prob.objective, a_all, d_all)
        out = lp_solve(prob)
        if oracle is None:
            assert out.status == INFEASIBLE
        else:
            assert out.status == OPTIMAL
            assert out.value == pytest.approx(oracle[0], abs=1e-6)
        checked += 1


def test_vertex_oracle_with_equalities():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = 3
        a_ub = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(2, n))])
        b_ub = np.concatenate([np.full(2 * n, 3.0), rng.normal(size=2) + 2.0])
        a_eq = rng.normal(size=(1, n))
        b_eq = np.array([rng.normal() * 0.5])
        c = rng.normal(size=n)
        oracle = vertex_minimum(c, a_ub, b_ub, a_eq, b_eq)
        out = lp_solve(LpProblem(c, a_ub, b_ub, a_eq, b_eq))
        if oracle is None:
            assert out.status == INFEASIBLE
        else:
            assert out.status == OPTIMAL
            assert out.value == pytest.approx(oracle[0], abs=1e-6)


def test_degenerate_lp_terminates():
    # many redundant rows through one vertex: cycling guard must kick in
    n = 2
    angles = np.linspace(0.0, np.pi, 12)[1:-1]
    a = np.stack([-np.cos(angles), -np.sin(angles)], axis=1)
    d = np.zeros(a.shape[0])  # all rows tight at the origin
    out = lp_solve(LpProblem(np.array([0.0, 1.0]),
                             a_ub=np.vstack([a, -np.eye(n)]),
                             b_ub=np.concatenate([d, np.ones(n)])))
    assert out.status in (OPTIMAL, UNBOUNDED)


# -- several objectives over one feasible set -----------------------------------------

def assert_batch_matches_single(objectives, a_ub, b_ub, a_eq=None, b_eq=None, sense="min"):
    """Each objective of one batched solve agrees with its own lp_solve."""
    batch = lp_solve(LpProblem(objectives, a_ub, b_ub, a_eq, b_eq, sense=sense))
    assert isinstance(batch, LpOutcomes) and len(batch) == len(objectives)
    for c, got in zip(objectives, batch):
        want = lp_solve(LpProblem(c, a_ub, b_ub, a_eq, b_eq, sense=sense))
        assert got.status == want.status
        if want.optimal:
            assert got.value == pytest.approx(want.value, abs=1e-7)
            assert got.value == pytest.approx(c @ got.point, abs=1e-12)
            assert (a_ub @ got.point - b_ub).max() <= 1e-7
    return batch


def test_batched_objectives_match_single_solves():
    """Random systems, bounded or not, feasible or not, with and without an
    equality row: every status occurs, and each batched objective agrees
    with a one-at-a-time solve."""
    rng = np.random.default_rng(2024)
    seen = set()
    for trial in range(120):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 7))
        a = rng.normal(size=(m, n))
        d = rng.normal(size=m)
        eq = (rng.normal(size=(1, n)), rng.normal(size=1)) if trial % 3 == 0 else (None, None)
        objectives = rng.normal(size=(int(rng.integers(1, 6)), n))
        batch = assert_batch_matches_single(objectives, a, d, *eq,
                                            sense="max" if trial % 2 else "min")
        statuses = {o.status for o in batch}
        assert batch.status == next(st for st in (INFEASIBLE, UNBOUNDED, OPTIMAL)
                                    if st in statuses)
        seen |= statuses
    assert seen == {OPTIMAL, UNBOUNDED, INFEASIBLE}


def test_batched_solve_warm_starts_after_an_unbounded_objective():
    # x1 <= 0, 0 <= x2 <= 1: min x1 is unbounded, the rest are attained
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    d = np.array([0.0, 1.0, 0.0])
    objectives = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 0.0]])
    batch = assert_batch_matches_single(objectives, a, d)
    assert [o.status for o in batch] == [UNBOUNDED, OPTIMAL, OPTIMAL, OPTIMAL, UNBOUNDED]
    assert [o.value for o in batch[1:4]] == pytest.approx([0.0, 0.0, -1.0], abs=1e-12)
    assert batch.status == UNBOUNDED


def test_lp_feasible_segment():
    x = lp_feasible(a_ub=-np.eye(2), b_ub=np.zeros(2),
                    a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
    assert x is not None
    assert x.min() >= -1e-9
    assert x.sum() == pytest.approx(1.0, abs=1e-9)


def test_lp_feasible_contradiction():
    x = lp_feasible(a_ub=np.array([[1.0]]), b_ub=np.array([0.0]),
                    a_eq=np.array([[1.0]]), b_eq=np.array([1.0]))
    assert x is None


def test_lp_feasible_unconstrained():
    x = lp_feasible(num_vars=2)
    assert x is not None and x.shape == (2,)


def test_rank_identity():
    assert matrix_rank(np.eye(2)) == 2


def test_rank_proportional_rows():
    assert matrix_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


def test_rank_opposite_hyperplane_rows():
    assert matrix_rank(np.array([[-1.0, -1.0], [1.0, 1.0]])) == 1


def test_rank_empty_and_zero():
    assert matrix_rank(np.zeros((0, 3))) == 0
    assert matrix_rank(np.zeros((2, 2))) == 0


def test_rank_invariances():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        mat = rng.normal(size=(m, n))
        if rng.random() < 0.4 and m >= 2:  # plant a dependent row
            mat[-1] = mat[0] * rng.normal()
        r = matrix_rank(mat)
        perm = rng.permutation(m)
        assert matrix_rank(mat[perm]) == r
        scales = np.where(rng.random(m) < 0.5, -1.0, 1.0) * rng.uniform(0.5, 100.0, m)
        assert matrix_rank(mat * scales[:, None]) == r
        assert r == np.linalg.matrix_rank(mat)


def test_iteration_cap_raises():
    # a tiny LP cannot hit the cap; force it by shrinking the limit
    import relubarrier.linprog as lpmod
    old = lpmod._MAX_ITER
    lpmod._MAX_ITER = 0
    try:
        with pytest.raises(NumericalFailure):
            lp_solve(LpProblem(np.array([1.0, 1.0]),
                               a_ub=-np.eye(2), b_ub=-np.ones(2)))
    finally:
        lpmod._MAX_ITER = old

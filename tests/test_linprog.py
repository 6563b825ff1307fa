"""Simplex solver tests against frozen values and a vertex-enumeration oracle."""

import ast
import pathlib

import numpy as np
import pytest

from relubarrier import MalformedProblem, NumericalFailure
from relubarrier.geometry import Polyhedron
from relubarrier.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, LpOutcome, lp_solve

from helpers import matrix_rank, vertex_minimum


def test_box_minimum():
    # min x1 subject to 0 <= x1 <= 1
    out = lp_solve(np.array([1.0]), a_ub=np.array([[1.0], [-1.0]]),
                   b_ub=np.array([1.0, 0.0]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(0.0, abs=1e-9)
    assert out.point[0] == pytest.approx(0.0, abs=1e-9)


def test_contradictory_bounds_infeasible():
    # x1 <= 0 and x1 >= 1 cannot hold together
    out = lp_solve(np.array([1.0]), a_ub=np.array([[1.0], [-1.0]]),
                   b_ub=np.array([0.0, -1.0]))
    assert out.status == INFEASIBLE
    assert out.point is None


def test_unbounded_ray():
    out = lp_solve(np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([0.0]))
    assert out.status == UNBOUNDED


def test_segment_optimum():
    # min x1 + x2 on the segment x1 + x2 = 1, x >= 0: constant value 1
    c, w = np.array([1.0, 1.0]), np.array([1.0, 1.0])
    out = Polyhedron(-np.eye(2), np.zeros(2), w, -1.0).minimize(c)
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert out.value == pytest.approx(vertex_minimum(c, -np.eye(2), np.zeros(2), w[None, :],
                                                     np.array([1.0]))[0], abs=1e-9)


def test_maximum_is_the_negated_minimum_of_the_negated_objective():
    out = lp_solve(-np.array([1.0]), a_ub=np.array([[1.0], [-1.0]]),
                   b_ub=np.array([2.0, 0.0]))
    assert out.status == OPTIMAL
    assert -out.value == pytest.approx(2.0, abs=1e-9)


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
        a_ub, b_ub = np.vstack([a, box_a]), np.concatenate([d, box_d])
        out = lp_solve(rng.normal(size=n), a_ub, b_ub)
        assert out.status == OPTIMAL
        slack = a_ub @ out.point - b_ub
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
        # reuse the same objective for both routes
        c = rng.normal(size=n)
        oracle = vertex_minimum(c, a_all, d_all)
        out = lp_solve(c, a_all, d_all)
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
        out = Polyhedron(a_ub, b_ub, a_eq[0], -b_eq[0]).minimize(c)
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
    out = lp_solve(np.array([0.0, 1.0]), a_ub=np.vstack([a, -np.eye(n)]),
                   b_ub=np.concatenate([d, np.ones(n)]))
    assert out.status in (OPTIMAL, UNBOUNDED)


def test_one_objective_gives_one_outcome_and_a_matrix_objective_is_malformed():
    a, d = np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
    out = lp_solve(np.array([1.0, -1.0]), a, d)
    assert isinstance(out, LpOutcome) and not isinstance(out, list)
    assert out.value == pytest.approx(-2.0, abs=1e-9)
    for objective in (np.eye(2), np.array([[1.0, -1.0]])):   # (2, n) and (1, n)
        with pytest.raises(MalformedProblem):
            lp_solve(objective, a, d)


def test_zero_objective_lp_finds_a_segment_point():
    out = Polyhedron(-np.eye(2), np.zeros(2), np.array([1.0, 1.0]), -1.0).minimize(np.zeros(2))
    assert out.optimal
    assert out.point.min() >= -1e-9
    assert out.point.sum() == pytest.approx(1.0, abs=1e-9)
    assert out.value == vertex_minimum(np.zeros(2), -np.eye(2), np.zeros(2),
                                       np.array([[1.0, 1.0]]), np.array([1.0]))[0]


def test_zero_objective_lp_detects_a_contradiction():
    out = Polyhedron(np.array([[1.0]]), np.array([0.0]), np.array([1.0]), -1.0).minimize(np.zeros(1))
    assert out.status == INFEASIBLE
    assert vertex_minimum(np.zeros(1), np.array([[1.0]]), np.array([0.0]),
                          np.array([[1.0]]), np.array([1.0])) is None


def test_a_zero_normal_with_a_nonzero_offset_is_infeasible():
    """w = 0 puts the polyhedron on 0 = -b: empty for b != 0, the whole
    region for b = 0."""
    a, d = np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
    assert Polyhedron(a, d, np.zeros(2), 0.5).minimize(np.zeros(2)).status == INFEASIBLE
    whole = Polyhedron(a, d, np.zeros(2), 0.0).minimize(np.array([1.0, 1.0]))
    assert whole.value == pytest.approx(-2.0, abs=1e-9)


def test_zero_objective_lp_unconstrained():
    out = lp_solve(np.zeros(2), np.zeros((0, 2)), np.zeros(0))
    assert out.optimal and out.point.shape == (2,)


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
            lp_solve(np.array([1.0, 1.0]), a_ub=-np.eye(2), b_ub=-np.ones(2))
    finally:
        lpmod._MAX_ITER = old


def _lp_solve_readers(tree, scope=""):
    """The qualified names of the functions of tree that read lp_solve."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield from _lp_solve_readers(node, f"{scope}{node.name}.")
        elif any(isinstance(n, ast.Name) and n.id == "lp_solve"
                 or isinstance(n, ast.Attribute) and n.attr == "lp_solve"
                 for n in ast.walk(node)):
            yield scope.rstrip(".")


def test_polyhedron_minimize_is_the_one_caller_of_lp_solve():
    """Outside linprog, src/ solves every LP through `Polyhedron.minimize`."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "relubarrier"
    readers = {(path.name, reader) for path in src.glob("*.py") if path.name != "linprog.py"
               for reader in _lp_solve_readers(ast.parse(path.read_text()))}
    assert readers == {("geometry.py", "Polyhedron.minimize")}

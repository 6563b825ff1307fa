"""Simplex solver tests against frozen values and a vertex-enumeration oracle."""

import ast
import pathlib

import numpy as np
import pytest

from relubarrier import NumericalFailure, brute_force_valid_regions, geometry
from relubarrier.geometry import Polyhedron
from relubarrier.linprog import (INFEASIBLE, OPTIMAL, UNBOUNDED, LpOutcome, _run_simplex,
                                 lp_solve)

from helpers import matrix_rank, random_hidden_net, vertex_minimum


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
    # many redundant rows through one vertex
    n = 2
    angles = np.linspace(0.0, np.pi, 12)[1:-1]
    a = np.stack([-np.cos(angles), -np.sin(angles)], axis=1)
    d = np.zeros(a.shape[0])  # all rows tight at the origin
    out = lp_solve(np.array([0.0, 1.0]), a_ub=np.vstack([a, -np.eye(n)]),
                   b_ub=np.concatenate([d, np.ones(n)]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(0.0, abs=1e-9)
    assert out.point == pytest.approx(np.zeros(n), abs=1e-9)


def test_beales_cycling_lp():
    """Beale's LP, as rows and as its textbook tableau (x >= 0, slacks
    basic), on which the largest-coefficient rule with ties left to the
    smallest index cycles; the simplex reaches the optimum from both."""
    c = np.array([-3 / 4, 150.0, -1 / 50, 6.0])
    rows = np.array([[1 / 4, -60.0, -1 / 25, 9.0], [1 / 2, -90.0, -1 / 50, 3.0],
                     [0.0, 0.0, 1.0, 0.0]])
    rhs = np.array([0.0, 0.0, 1.0])
    out = lp_solve(c, np.vstack([rows, -np.eye(4)]), np.concatenate([rhs, np.zeros(4)]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(-0.05, abs=1e-9)
    assert out.point == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-9)

    T = np.block([[rows, np.eye(3), rhs[:, None]], [c, np.zeros(4)]])
    basis = np.arange(4, 7)
    assert _run_simplex(T, basis) == OPTIMAL
    assert -T[-1, -1] == pytest.approx(-0.05, abs=1e-9)
    assert sorted(basis) == [0, 2, 4]


def test_one_objective_gives_one_outcome_and_a_matrix_objective_is_malformed():
    a, d = np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
    out = lp_solve(np.array([1.0, -1.0]), a, d)
    assert isinstance(out, LpOutcome) and not isinstance(out, list)
    assert out.value == pytest.approx(-2.0, abs=1e-9)
    for objective in (np.eye(2), np.array([[1.0, -1.0]])):   # (2, n) and (1, n)
        with pytest.raises(ValueError, match="objective must be a vector"):
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


def _degenerate_lps(rng):
    """Random LPs with rows through one point, duplicated rows,
    contradictory pairs or open directions."""
    for kind in range(4):
        for _ in range(40):
            n = int(rng.integers(2, 5))
            a = rng.normal(size=(int(rng.integers(n, 3 * n)), n))
            if kind == 0:     # every row tight at one point
                b = a @ rng.normal(size=n)
            elif kind == 1:   # each row repeated, some scaled
                b = a @ rng.normal(size=n) + rng.uniform(0.0, 1.0, len(a))
                scale = rng.uniform(0.5, 2.0, len(a))[:, None]
                a, b = np.vstack([a, a * scale]), np.concatenate([b, b * scale[:, 0]])
            elif kind == 2:   # a row and its negation a unit apart
                b = a @ rng.normal(size=n) + rng.uniform(0.0, 1.0, len(a))
                a, b = np.vstack([a, -a[:1]]), np.concatenate([b, -b[:1] - 1.0])
            else:             # rows that all leave the direction u open
                u = rng.normal(size=n)
                a -= np.outer(np.maximum(a @ u, 0.0) + rng.uniform(0.0, 1.0, len(a)), u) / (u @ u)
                b = rng.uniform(-1.0, 1.0, len(a))
            yield rng.normal(size=n), a, b, 1e-7


def test_outcomes_match_highs_on_validity_lps_and_degenerate_lps(monkeypatch):
    """Every LP the oracle enumeration solves on seeded random 2-D and 3-D
    nets, and random degenerate LPs, get HiGHS's status (presolve off) and,
    when optimal, its value."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    lps = []

    def spy(c, a, b, tol_feas=1e-7):
        lps.append((c, a, b, tol_feas))
        return lp_solve(c, a, b, tol_feas)

    monkeypatch.setattr(geometry, "lp_solve", spy)
    for n in (2, 3):
        for s in range(2):
            brute_force_valid_regions(random_hidden_net(np.random.default_rng([5, n, s]), n_in=n))
    assert len(lps) > 100
    lps += _degenerate_lps(np.random.default_rng(17))
    statuses = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
    for c, a, b, tol_feas in lps:
        out = lp_solve(c, a, b, tol_feas)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=(None, None), method="highs",
                      options={"presolve": False})
        assert out.status == statuses[ref.status]
        if out.optimal:
            assert abs(out.value - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))


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

"""Polyhedron analysis tests: implicit equalities, dimension, redundancy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relubarrier import InfeasiblePolyhedron
from relubarrier.geometry import (Polyhedron, SlicePolyhedron, bounding_box,
                                  dimension, implicit_equalities,
                                  inscribed_radius, remove_redundant)
from relubarrier.linprog import INFEASIBLE, OPTIMAL, LpProblem, lp_solve

QUADRANT = Polyhedron(-np.eye(2), np.zeros(2))
DIAMOND_SLICE = Polyhedron(np.array([[-1.0, 0.0], [0.0, -1.0],
                                     [1.0, 1.0], [-1.0, -1.0]]),
                           np.array([0.0, 0.0, 1.0, -1.0]))


def test_implicit_forced_value():
    p = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                   np.array([1.0, -1.0, 2.0]))
    assert implicit_equalities(p) == [0, 1]


def test_implicit_full_dimensional_empty():
    assert implicit_equalities(QUADRANT) == []


def test_implicit_diamond_segment():
    assert implicit_equalities(DIAMOND_SLICE) == [2, 3]


def test_implicit_infeasible_raises():
    p = Polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
    with pytest.raises(InfeasiblePolyhedron):
        implicit_equalities(p)


def test_implicit_added_pair_detected():
    """Conjoining {w.x <= c, -w.x <= -c} through an interior point makes
    both new rows implicit."""
    w = np.array([1.0, 2.0])
    c = float(w @ np.array([0.5, 0.5]))
    p = QUADRANT.with_rows(np.stack([w, -w]), np.array([c, -c]))
    implicit = implicit_equalities(p)
    assert 2 in implicit and 3 in implicit


def test_dimension_quadrant():
    assert dimension(QUADRANT) == 2


def test_dimension_diamond_slice():
    assert dimension(DIAMOND_SLICE) == 1


def test_dimension_point():
    p = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                   np.zeros(4))
    assert dimension(p) == 0


def test_dimension_whole_space():
    assert dimension(Polyhedron.whole_space(3)) == 3


def test_remove_redundant_duplicates():
    p = Polyhedron(np.array([[-1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, -1.0]]),
                   np.zeros(4))
    reduced = remove_redundant(p)
    assert reduced.num_rows == 2


def test_remove_redundant_dominated():
    p = Polyhedron(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
    reduced = remove_redundant(p)
    assert reduced.num_rows == 1
    assert reduced.d[0] == pytest.approx(1.0)


def test_remove_redundant_slack_row_dropped():
    # first quadrant plus x1 + x2 >= -1: the extra row cannot bind
    p = QUADRANT.with_rows(np.array([[-1.0, -1.0]]), np.array([1.0]))
    reduced = remove_redundant(p)
    assert reduced.num_rows == 2


def test_remove_redundant_keeps_unbounded_rows():
    # half-plane x1 <= 0: removing the only row would change the set
    p = Polyhedron(np.array([[1.0, 0.0]]), np.array([0.0]))
    reduced = remove_redundant(p)
    assert reduced.num_rows == 1


def test_inscribed_radius_region_and_slice():
    square = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.array([2.0, 2.0, 0.0, 0.0]))
    assert inscribed_radius(square) == pytest.approx(1.0)      # capped at 1
    assert inscribed_radius(Polyhedron(2 * square.A, square.d)) == pytest.approx(0.5)
    assert inscribed_radius(QUADRANT) == pytest.approx(1.0)    # unbounded
    # the segment x1 + x2 = 1 in the quadrant has length sqrt(2)
    assert inscribed_radius(QUADRANT, np.array([-1.0, -1.0]), 1.0) == pytest.approx(0.5 ** 0.5)
    # a row parallel to the hyperplane carries no radius term
    assert inscribed_radius(DIAMOND_SLICE, np.array([1.0, 1.0]), -1.0) == pytest.approx(0.5 ** 0.5)
    assert inscribed_radius(Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                       np.array([0.0, -1.0]))) is None


def test_slice_of_diamond_quadrant():
    sl = SlicePolyhedron(QUADRANT, np.array([-1.0, -1.0]), 1.0)
    full = sl.full()
    assert full.num_rows == 4
    assert implicit_equalities(full) == [2, 3]
    assert dimension(full) == 1


def test_slice_of_whole_space_is_axis():
    sl = SlicePolyhedron(Polyhedron.whole_space(2), np.array([1.0, 0.0]), 0.0)
    assert dimension(sl.full()) == 1
    x = sl.feasible_point()
    assert x is not None
    assert x[0] == pytest.approx(0.0, abs=1e-9)


def test_slice_of_empty_base_infeasible():
    base = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]))
    sl = SlicePolyhedron(base, np.array([0.0, 1.0]), 0.0)
    assert sl.feasible_point() is None


def test_slice_minimize():
    sl = SlicePolyhedron(QUADRANT, np.array([-1.0, -1.0]), 1.0)
    out = sl.minimize(np.array([1.0, 0.0]))
    assert out.status == "optimal"
    assert out.value == pytest.approx(0.0, abs=1e-9)


def test_bounding_box_segment():
    box, samples, restricted = bounding_box(
        QUADRANT.A, QUADRANT.d,
        np.array([[-1.0, -1.0]]), np.array([-1.0]),
        dim=2, domain=np.array([[-3.0, 3.0], [-3.0, 3.0]]))
    assert not restricted
    assert box[:, 0] == pytest.approx([0.0, 0.0], abs=1e-7)
    assert box[:, 1] == pytest.approx([1.0, 1.0], abs=1e-7)
    assert len(samples) >= 1


def test_bounding_box_unbounded_sides_clamp_to_domain():
    # half-plane x1 <= 0 with no other bounds: x2 sides come from the domain
    box, _samples, restricted = bounding_box(
        np.array([[1.0, 0.0]]), np.array([0.0]),
        dim=2, domain=np.array([[-3.0, 3.0], [-3.0, 3.0]]))
    assert restricted
    assert box[0, 0] == pytest.approx(-3.0)
    assert box[0, 1] == pytest.approx(0.0, abs=1e-7)
    assert box[1] == pytest.approx([-3.0, 3.0])


def test_bounding_box_infeasible_returns_none():
    out = bounding_box(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                       np.array([0.0, -1.0]),
                       dim=2, domain=np.array([[-3.0, 3.0], [-3.0, 3.0]]))
    assert out is None


def test_bounded_sides_never_clamped():
    # the set [5, 7] x {0} lies outside a [-3,3] domain; its true bounds
    # must be reported so the caller can detect the empty intersection
    a = np.array([[1.0, 0.0], [-1.0, 0.0]])
    d = np.array([7.0, -5.0])
    box, _samples, _restricted = bounding_box(
        a, d, np.array([[0.0, 1.0]]), np.array([0.0]),
        dim=2, domain=np.array([[-3.0, 3.0], [-3.0, 3.0]]))
    assert box[0, 0] == pytest.approx(5.0, abs=1e-7)
    assert box[0, 1] == pytest.approx(7.0, abs=1e-7)


def test_bounding_box_matches_per_coordinate_lps():
    """One batched solve per box gives the optima of 2n separate LPs, on
    random bounded, unbounded (clamped to the domain) and empty slices."""
    rng = np.random.default_rng(31)
    domain = np.array([[-9.0, 9.0]] * 3)
    outcomes = set()
    for trial in range(60):
        n = int(rng.integers(2, 4))
        a = rng.normal(size=(int(rng.integers(2, 8)), n))
        d = rng.normal(size=a.shape[0]) + (1.0 if trial % 4 else -1.0)
        w = rng.normal(size=(1, n))
        b = rng.normal(size=1)
        out = bounding_box(a, d, w, b, dim=n, domain=domain[:n])
        singles = [lp_solve(LpProblem(unit, a, d, w, b, sense=sense))
                   for unit in np.eye(n) for sense in ("min", "max")]
        if out is None:
            assert all(o.status == INFEASIBLE for o in singles)
            outcomes.add("empty")
            continue
        box, points, restricted = out
        optima = [o for o in singles if o.status == OPTIMAL]
        assert restricted == (len(optima) < 2 * n)
        assert len(points) == len(optima)
        for k, single in enumerate(singles):
            i, side = divmod(k, 2)
            want = single.value if single.status == OPTIMAL else domain[i, side]
            assert box[i, side] == pytest.approx(want, abs=1e-7)
        for x in points:
            assert SlicePolyhedron(Polyhedron(a, d), w[0], -b[0]).contains(x, 1e-7)
        outcomes.add("clamped" if restricted else "bounded")
    assert outcomes == {"empty", "clamped", "bounded"}


@st.composite
def random_polyhedron(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    d = a @ x0 + rng.uniform(0.0, 1.0, size=m)  # x0 feasible
    box = np.vstack([np.eye(n), -np.eye(n)])
    box_d = np.full(2 * n, 4.0 + float(np.abs(x0).max()))
    return Polyhedron(np.vstack([a, box]), np.concatenate([d, box_d])), seed


@settings(max_examples=60, deadline=None)
@given(random_polyhedron())
def test_remove_redundant_preserves_membership(case):
    p, seed = case
    reduced = remove_redundant(p)
    rng = np.random.default_rng(seed + 1)
    pts = rng.uniform(-5.0, 5.0, size=(500, p.dim))
    in_full = (p.A @ pts.T <= p.d[:, None] + 1e-9).all(axis=0)
    in_reduced = (reduced.A @ pts.T <= reduced.d[:, None] + 1e-9).all(axis=0)
    assert (in_full == in_reduced).all()


@settings(max_examples=40, deadline=None)
@given(random_polyhedron())
def test_dimension_stable_under_reduction_and_redundant_rows(case):
    p, seed = case
    dim_before = dimension(p)
    assert dimension(remove_redundant(p)) == dim_before
    # append a row implied by an existing one (relaxed copy of row 0)
    extra = p.with_rows(p.A[[0]], p.d[[0]] + 1.0)
    assert dimension(extra) == dim_before

"""Polyhedron analysis tests: implicit equalities, dimension, redundancy."""

import itertools
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relubarrier import brute_force_valid_regions, build_valid_region
from relubarrier import NumericalFailure
from relubarrier.geometry import (Polyhedron, bounding_box, frame, frames, implicit_equalities,
                                  inscribed_ball, remove_redundant)
from relubarrier.linprog import INFEASIBLE, OPTIMAL

from helpers import (dimension, frame_nets, lp_bounding_box, random_hidden_net,
                     slice_feasible_point, slice_full, whole_space)

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
    with pytest.raises(ValueError, match="empty polyhedron"):
        implicit_equalities(p)


def test_implicit_added_pair_detected():
    """Conjoining {w.x <= c, -w.x <= -c} through an interior point makes
    both new rows implicit."""
    w = np.array([1.0, 2.0])
    c = float(w @ np.array([0.5, 0.5]))
    p = Polyhedron(np.vstack([QUADRANT.A, w, -w]), np.concatenate([QUADRANT.d, [c, -c]]))
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
    assert dimension(whole_space(3)) == 3


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
    p = Polyhedron(np.vstack([QUADRANT.A, [-1.0, -1.0]]), np.append(QUADRANT.d, 1.0))
    reduced = remove_redundant(p)
    assert reduced.num_rows == 2


def test_remove_redundant_keeps_unbounded_rows():
    # half-plane x1 <= 0: removing the only row would change the set
    p = Polyhedron(np.array([[1.0, 0.0]]), np.array([0.0]))
    reduced = remove_redundant(p)
    assert reduced.num_rows == 1


def radius(p):
    ball = inscribed_ball(p)
    return None if ball is None else ball[1]


def test_inscribed_ball_region_and_slice():
    square = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.array([2.0, 2.0, 0.0, 0.0]))
    assert radius(square) == pytest.approx(1.0)      # capped at 1
    assert radius(Polyhedron(2 * square.A, square.d)) == pytest.approx(0.5)
    assert inscribed_ball(Polyhedron(2 * square.A, square.d))[0] == pytest.approx([0.5, 0.5])
    assert radius(QUADRANT) == pytest.approx(1.0)    # unbounded
    # the segment x1 + x2 = 1 in the quadrant has length sqrt(2)
    centre, r = inscribed_ball(Polyhedron(QUADRANT.A, QUADRANT.d, np.array([-1.0, -1.0]), 1.0))
    assert r == pytest.approx(0.5 ** 0.5) and centre == pytest.approx([0.5, 0.5])
    # a row parallel to the hyperplane carries no radius term
    assert radius(Polyhedron(DIAMOND_SLICE.A, DIAMOND_SLICE.d, np.array([1.0, 1.0]), -1.0)
                  ) == pytest.approx(0.5 ** 0.5)
    assert radius(Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]))) is None
    # on 0 = b != 0 there is no slice; on 0 = 0 the slice is the region
    assert radius(Polyhedron(square.A, square.d, np.zeros(2), 1.0)) is None
    assert radius(Polyhedron(square.A, square.d, np.zeros(2), 0.0)) == pytest.approx(1.0)


def test_slice_of_diamond_quadrant():
    sl = Polyhedron(QUADRANT.A, QUADRANT.d, np.array([-1.0, -1.0]), 1.0)
    full = slice_full(sl)
    assert full.num_rows == 4
    assert implicit_equalities(full) == [2, 3]
    assert dimension(full) == 1


def test_slice_of_whole_space_is_axis():
    sl = whole_space(2, np.array([1.0, 0.0]), 0.0)
    assert dimension(slice_full(sl)) == 1
    x = slice_feasible_point(sl)
    assert x is not None
    assert x[0] == pytest.approx(0.0, abs=1e-9)


def test_slice_of_empty_base_infeasible():
    sl = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]),
                    np.array([0.0, 1.0]), 0.0)
    assert slice_feasible_point(sl) is None


def test_slice_minimize():
    sl = Polyhedron(QUADRANT.A, QUADRANT.d, np.array([-1.0, -1.0]), 1.0)
    out = sl.minimize(np.array([1.0, 0.0]))
    assert out.status == "optimal"
    assert out.value == pytest.approx(0.0, abs=1e-9)


def test_a_hyperplane_adds_one_test_to_contains_and_survives_within():
    sl = Polyhedron(QUADRANT.A, QUADRANT.d, np.array([-1.0, -1.0]), 1.0)
    xs = np.array([[0.5, 0.5], [0.25, 0.25], [-0.5, 1.5]])
    assert QUADRANT.contains(xs).tolist() == [True, True, False]
    assert sl.contains(xs).tolist() == [True, False, False]
    cut = sl.within(np.array([[0.0, 0.25], [0.0, 1.0]]))
    assert np.array_equal(cut.w, sl.w) and cut.b == sl.b
    assert cut.minimize(np.array([0.0, 1.0])).value == pytest.approx(0.75)


def test_bounding_box_segment():
    sl = Polyhedron(QUADRANT.A, QUADRANT.d, np.array([-1.0, -1.0]), 1.0)
    vertices, rays, _tight = frame(sl)
    box, restricted = bounding_box(vertices, rays, np.array([[-3.0, 3.0], [-3.0, 3.0]]))
    assert not restricted
    assert box[:, 0] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert box[:, 1] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_bounding_box_unbounded_sides_clamp_to_domain():
    # half-plane x1 <= 0 with no other bounds (a zero hyperplane normal cuts
    # nothing): its ray -e1 and lineality +-e2 take those sides from the domain
    vertices, rays, _tight = frame(Polyhedron(np.array([[1.0, 0.0]]), np.array([0.0]),
                                              np.zeros(2), 0.0))
    box, restricted = bounding_box(vertices, rays, np.array([[-3.0, 3.0], [-3.0, 3.0]]))
    assert restricted
    assert box.tolist() == [[-3.0, 0.0], [-3.0, 3.0]]


def test_bounding_box_infeasible_returns_none():
    """The LP reference of `bounding_box` reports an empty slice as None."""
    empty = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]))
    out = lp_bounding_box(Polyhedron(empty.A, empty.d, np.zeros(2), 0.0),
                          domain=np.array([[-3.0, 3.0], [-3.0, 3.0]]))
    assert out is None


def test_bounded_sides_never_clamped():
    # the set [5, 7] x {0} lies outside a [-3,3] domain; its true bounds
    # must be reported so the caller can detect the empty intersection
    a = np.array([[1.0, 0.0], [-1.0, 0.0]])
    d = np.array([7.0, -5.0])
    vertices, rays, _tight = frame(Polyhedron(a, d, np.array([0.0, 1.0]), 0.0))
    box, restricted = bounding_box(vertices, rays, np.array([[-3.0, 3.0], [-3.0, 3.0]]))
    assert not restricted
    assert box.tolist() == [[5.0, 7.0], [0.0, 0.0]]


def test_bounding_box_off_the_frame_matches_the_lp_reference():
    """On bounded and unbounded patches of random 2-D to 4-D nets, the box
    read off the vertices and rays equals the LP reference's within 1e-9,
    with the same ``restricted`` flag."""
    rng = np.random.default_rng(12)
    kinds = set()
    for n in (2, 3, 4):
        domain = np.array([[-3.0, 3.0]] * n)
        for _ in range(3):
            net = random_hidden_net(rng, n_in=n, neurons=6)
            for ind in brute_force_valid_regions(net):
                region = build_valid_region(net, ind)
                box, restricted = bounding_box(region.vertices, region.rays, domain)
                lp_box, _points, lp_restricted = lp_bounding_box(region.slice, domain)
                assert restricted == lp_restricted
                np.testing.assert_allclose(box, lp_box, rtol=0.0, atol=1e-9)
                kinds.add(restricted)
    assert kinds == {False, True}


def test_bounding_box_matches_per_coordinate_lps():
    """The LP reference's one batched solve per box gives the optima of 2n
    separate LPs, on random bounded, unbounded (clamped to the domain) and
    empty slices."""
    rng = np.random.default_rng(31)
    domain = np.array([[-9.0, 9.0]] * 3)
    outcomes = set()
    for trial in range(60):
        n = int(rng.integers(2, 4))
        a = rng.normal(size=(int(rng.integers(2, 8)), n))
        d = rng.normal(size=a.shape[0]) + (1.0 if trial % 4 else -1.0)
        w = rng.normal(size=(1, n))
        b = rng.normal(size=1)
        out = lp_bounding_box(Polyhedron(a, d, w[0], -b[0]), domain=domain[:n])
        singles = [Polyhedron(a, d, w[0], -b[0]).minimize(sign * unit)
                   for unit in np.eye(n) for sign in (1, -1)]
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
            want = (1, -1)[side] * single.value if single.status == OPTIMAL else domain[i, side]
            assert box[i, side] == pytest.approx(want, abs=1e-7)
        for x in points:
            assert Polyhedron(a, d, w[0], -b[0]).contains(x, 1e-7)
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
    extra = Polyhedron(np.vstack([p.A, p.A[0]]), np.append(p.d, p.d[0] + 1.0))
    assert dimension(extra) == dim_before


def _scanned_bases(p: Polyhedron, tol: float = 1e-7) -> set:
    """Every k-subset of p's rows (k = dim, p full-dimensional, no
    hyperplane) whose solution keeps every unit-scaled row within tol."""
    unit = Polyhedron(p.A / np.linalg.norm(p.A, axis=1)[:, None],
                      p.d / np.linalg.norm(p.A, axis=1))
    found = set()
    for S in itertools.combinations(range(p.num_rows), p.dim):
        if abs(np.linalg.det(unit.A[list(S)])) > 1e-12:
            x = np.linalg.solve(unit.A[list(S)], unit.d[list(S)])
            found.update([S] if unit.contains(x, tol) else [])
    return found


PYRAMID = (np.array([[0, 0, -1], [1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]], dtype=float),
           np.array([0, 1, 1, 1, 1], dtype=float))       # apex (0, 0, 1) on four rows
OCTAHEDRON = (np.array(list(itertools.product([-1.0, 1.0], repeat=3))), np.ones(8))


@pytest.mark.parametrize("start", ["none", "inside", "vertex", "outside"])
@pytest.mark.parametrize("shape", [PYRAMID, OCTAHEDRON], ids=["pyramid", "octahedron"])
def test_frame_walk_finds_every_basis_a_full_scan_finds(shape, start, monkeypatch):
    """Degenerate vertices (the pyramid's apex, each octahedron vertex on
    four rows) and 30 redundant rows after them, so C(35, 3) > 512 and
    frame walks.  The first basis comes from k steps from a point inside
    or from the vertex (0, 0, 1), or, with no point or from a point
    outside (whose steps end off the polytope), from the centre of its
    largest ball, the one LP; the walk finds the rest.  Every way, the
    vertices are the distinct points of the bases a scan of every 3-subset
    keeps, once each, and each is tight on every basis at its point."""
    balls = []
    monkeypatch.setattr("relubarrier.geometry.inscribed_ball",
                        lambda *args: balls.append(1) or inscribed_ball(*args))
    rng = np.random.default_rng(3)
    normals = rng.normal(size=(30, 3))
    A = np.vstack([shape[0], normals])
    d = np.concatenate([shape[1], 5.0 * np.linalg.norm(normals, axis=1)])
    p = Polyhedron(A, d, np.zeros(3), 0.0)
    near = {"none": None, "inside": np.array([0.1, -0.05, 0.2]),
            "vertex": np.array([0.0, 0.0, 1.0]), "outside": np.full(3, 7.0)}[start]
    vertices, rays, tight = frame(p, near=near)
    assert len(balls) == (start in ("none", "outside"))
    bases = sorted(_scanned_bases(Polyhedron(A, d)))
    scanned = np.array([np.linalg.solve(A[list(S)], d[list(S)]) for S in bases])
    points = np.unique(scanned.round(9), axis=0)
    assert len(bases) > len(points) == len(vertices)
    np.testing.assert_allclose(sorted(map(tuple, vertices.round(9))),
                               sorted(map(tuple, points)), atol=1e-12)
    assert not len(rays) and p.contains(vertices).all()
    for S, x in zip(bases, scanned):
        assert any(np.allclose(v, x, atol=1e-12) and on[list(S)].all()
                   for v, on in zip(vertices, tight))


def test_frames_of_walked_polyhedra_each_match_frame_alone(monkeypatch):
    """Shifted copies of the pyramid with 30 redundant rows (C(35, 3) > 512
    subsets, so the edge walk), framed in one `frames` call from different
    starts: each gives `frame`'s arrays alone, bit for bit.  When the ball
    LP of one fails, it alone ends in that NumericalFailure."""
    rng = np.random.default_rng(3)
    normals = rng.normal(size=(30, 3))
    A = np.vstack([PYRAMID[0], normals])
    d = np.concatenate([PYRAMID[1], 5.0 * np.linalg.norm(normals, axis=1)])
    shifts = [np.zeros(3), np.array([0.5, -0.25, 0.125]), np.array([-1.0, 2.0, 0.5])]
    ps = [Polyhedron(A, d + A @ s, np.zeros(3), 0.0) for s in shifts]
    nears = [None, shifts[1] + np.array([0.1, -0.05, 0.2]), shifts[2] + np.full(3, 7.0)]
    alone = [frame(p, near=near) for p, near in zip(ps, nears)]
    for together, want in zip(frames(ps, nears=nears), alone):
        assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(together, want))

    def failing(p, *args):
        if p is ps[0]:
            raise NumericalFailure("injected LP failure")
        return inscribed_ball(p, *args)

    monkeypatch.setattr("relubarrier.geometry.inscribed_ball", failing)
    got = frames(ps, nears=nears)
    assert isinstance(got[0], NumericalFailure) and str(got[0]) == "injected LP failure"
    for together, want in zip(got[1:], alone[1:]):
        assert all(np.array_equal(a, b) for a, b in zip(together, want))


def golden_frames(net):
    """The frames of the net's first two valid regions in key order, each as
    {"vertices", "rays", "tight"} lists (tight rows as 0/1 strings): per
    region, its patch, its slice cut to [-3, 3]^n and its rows cut so."""
    box, out = np.array([[-3.0, 3.0]] * net.input_dim), []
    for ind in brute_force_valid_regions(net)[:2]:
        region = build_valid_region(net, ind)
        patch = Polyhedron(region.constraints.A, region.constraints.d, region.slice.w,
                           region.slice.b)
        for p in (patch, region.slice.within(box), region.constraints.within(box)):
            vertices, rays, tight = frame(p)
            out.append({"vertices": vertices.tolist(), "rays": rays.tolist(),
                        "tight": ["".join(map(str, row.astype(int))) for row in tight]})
    return out


def test_frames_of_the_seeded_nets_match_the_golden_file():
    """`golden_frames` of each of `frame_nets`' nets as golden/frames.json
    records them, one list per net, written with the `frame` before its
    one-batch rewrite: 294 frames, 16 of them walked.  The touching masks
    match exactly, vertices and rays to 1e-12, so a rewrite that keeps
    frame's arithmetic passes on any BLAS and one that moves a vertex fails."""
    golden = json.loads((pathlib.Path(__file__).parent / "golden" / "frames.json").read_text())
    nets = frame_nets()
    assert len(golden) == len(nets)
    for net, want in zip(nets, golden):
        got = golden_frames(net)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g["tight"] == w["tight"]
            for key in ("vertices", "rays"):
                a, b = (np.array(x, dtype=float).reshape(-1, net.input_dim) for x in (g[key], w[key]))
                assert a.shape == b.shape and np.allclose(a, b, rtol=1e-12, atol=1e-12)

"""Expression grammar, evaluation, interval enclosure, and affine forms."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relubarrier import (ActivationIndicator, DynamicsSystem,
                         ExpressionSyntaxError,
                         boundary_propagation, build_valid_region, evaluate,
                         interval_evaluate, parse_expression)
from relubarrier import smtlib
from relubarrier.expressions import (FUNCTIONS, Binary, Const, Expr, Pow, Unary, Var,
                                     _linear_form, _weighted)

from helpers import (CUBIC2D, TRANSCENDENTAL3D, DECAY6D, CASCADE4D, ALL_SYSTEMS, diamond_net,
                     reference_enclosure, weighted_sum)


# -- parsing ------------------------------------------------------------------------

def test_parse_cubic_polynomial_and_value():
    e = parse_expression(CUBIC2D[0], 2)
    assert evaluate(e, np.array([1.0, 1.0])) == pytest.approx(0.0)


def test_parse_transcendental_component():
    e = parse_expression(TRANSCENDENTAL3D[0], 3)
    x = np.array([1.0, 0.0, 0.0])
    # -1 * (1 + 0 + 1) = -2
    assert evaluate(e, x) == pytest.approx(-2.0)


def test_dangling_operator_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x1 +", 2)
    assert err.value.position == 4


def test_unknown_identifier():
    with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
        parse_expression("y1 + 1", 2)
    with pytest.raises(ExpressionSyntaxError, match="unknown function"):
        parse_expression("sinh(x1)", 2)


def test_variable_out_of_range():
    with pytest.raises(ExpressionSyntaxError, match="outside x1..x2"):
        parse_expression("x3", 2)
    with pytest.raises(ExpressionSyntaxError, match="outside x1..x2"):
        parse_expression("x0", 2)


def test_non_integer_exponent_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x1^2.5", 1)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x1^(-2)", 1)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x1^x1", 1)


def test_precedence_and_associativity():
    assert evaluate(parse_expression("2 + 3 * 4", 1), np.zeros(1)) == 14.0
    assert evaluate(parse_expression("2 - 3 - 4", 1), np.zeros(1)) == -5.0
    assert evaluate(parse_expression("12 / 3 / 2", 1), np.zeros(1)) == 2.0
    # unary minus binds looser than the power
    assert evaluate(parse_expression("-x1^2", 1), np.array([2.0])) == -4.0
    assert evaluate(parse_expression("(-x1)^2", 1), np.array([2.0])) == 4.0


def test_scientific_notation():
    e = parse_expression("1e-3 + 2.5E2", 1)
    assert evaluate(e, np.zeros(1)) == pytest.approx(250.001)


# -- evaluation ---------------------------------------------------------------------

def test_reference_values():
    assert evaluate(parse_expression(CUBIC2D[0], 2), np.zeros(2)) == 0.0
    decay1 = parse_expression(DECAY6D[0], 6)
    x = np.array([1.0, 0, 0, 0, 0, 0])
    assert evaluate(decay1, x) == pytest.approx(-2.0)
    lin2 = parse_expression(CASCADE4D[1], 4)
    assert evaluate(lin2, np.array([1.0, 1.0, 0.0, 0.0])) == pytest.approx(-1.0)


def test_batch_evaluation_matches_pointwise():
    e = parse_expression(CUBIC2D[1], 2)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2, 2, size=(64, 2))
    batch = evaluate(e, xs)
    single = np.array([evaluate(e, x) for x in xs])
    assert np.allclose(batch, single)


def test_evaluate_returns_a_fresh_array_never_a_view_of_the_rows():
    """A caller may write to the values (the witness check marks rows NaN)
    without changing the rows it passed in."""
    xs = np.array([[1.0, 2.0], [3.0, 4.0]])
    values = evaluate(parse_expression("x1", 2), xs)
    assert not np.shares_memory(values, xs)
    values[:] = np.nan
    assert xs.tolist() == [[1.0, 2.0], [3.0, 4.0]]


NAN_ROWS = {   # the rows x1 = -1, -0, 0, 0.5, 1, 2 where text is undefined
    "1/x1": [0, 1, 1, 0, 0, 0],
    "ln(x1)": [1, 1, 1, 0, 0, 0],
    "1/ln(x1)": [1, 1, 1, 0, 1, 0],
    "ln(x1)^0": [1, 1, 1, 0, 0, 0],   # the trap: NaN**0 is 1
    "exp(1000*x1)": [0, 0, 0, 0, 0, 0],   # overflows to inf from x1 = 0.5 on
}


@pytest.mark.parametrize("text", list(NAN_ROWS))
def test_a_point_is_its_one_row_batch(text):
    """A point evaluates to its one-row batch bit for bit, NaN included;
    the rows of a batch are NaN exactly where the expression is undefined;
    and no warning escapes, on overflow either."""
    e = parse_expression(text, 2)
    xs = np.column_stack([[-1.0, -0.0, 0.0, 0.5, 1.0, 2.0], np.ones(6)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = np.array([evaluate(e, x) for x in xs])
        rows = np.concatenate([evaluate(e, x[None]) for x in xs])
        batch = evaluate(e, xs)
    assert points.tobytes() == rows.tobytes()
    np.testing.assert_array_equal(points, batch)   # NaN where NaN
    assert np.isnan(batch).tolist() == [bool(v) for v in NAN_ROWS[text]]


# -- interval enclosure ---------------------------------------------------------------

def enclose(e, box):
    """(lo, hi) of e over one (n, 2) box: a batch of one."""
    return tuple(interval_evaluate(e, np.asarray(box, dtype=float)[None])[0])


@pytest.mark.parametrize("text, good", [
    ("-x1*exp(1000*x1)", (1e-3, 2e-3)),                                # exp overflows
    ("-x1 + 1e200*x1*x1*x2*1e200 - 1e200*x1*x1*x2*1e200", (-1e-300, 1e-300)),  # inf - inf
    ("tanh(exp(1000*x1))", (1e-3, 2e-3)),                   # tanh would hide the overflow
    ("1/exp(1000*x1)", (1e-3, 2e-3)),                       # so would the division
    ("1e200^2 + x1", None),                                 # a constant's power overflows
    ("1/x1", (1e-3, 2e-3)),                                 # division across zero
    ("ln(x1 - 0.75)", (1.0, 2.0)),                          # ln reaching <= 0
], ids=["exp-overflow", "inf-minus-inf", "tanh-of-overflow", "division-by-overflow",
        "constant-power-overflow", "division-across-zero", "ln-reaching-zero"])
def test_a_failing_enclosure_is_nan_at_its_box_only(text, good):
    """Where a node's enclosure overflows, turns NaN or leaves its
    function's domain on a box (x1 in [-1, 1]), that box's enclosure is
    NaN, even when a later node would hide the failure; another box of the
    batch keeps its enclosure, and no warning escapes."""
    e = parse_expression(text, 2)
    boxes = np.array([[[-1.0, 1.0], [0.5, 1.0]], [good or (1.0, 2.0), [0.5, 1.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (flo, fhi), (glo, ghi) = interval_evaluate(e, boxes)
    assert np.isnan(flo) and np.isnan(fhi)
    if good is None:
        assert np.isnan(glo) and np.isnan(ghi)
    else:
        assert np.isfinite(glo) and glo <= ghi


def test_batched_enclosures_match_the_scalar_reference():
    """On 400 random boxes in [-3, 4]^n for each component of the reference
    systems, and for 2-D expressions that fail on some boxes, the batched
    enclosure is NaN exactly where the scalar natural interval extension
    (`helpers.reference_enclosure`) fails, and elsewhere agrees with it to
    1e-12 relative: they differ only in how numpy's array kernels and the
    C library round exp, tanh, ln and powers."""
    rng = np.random.default_rng(5)
    cases = [(dim, text) for dim, comps in ALL_SYSTEMS.items() for text in comps]
    cases += [(2, text) for text in ("1/(x1 - 0.5)", "ln(x1 + x2)", "tanh(exp(300*x1))",
                                     "exp(200*x1)^2 - x2", "sin(x1)/cos(x2) + x1^4")]
    failed = 0
    for dim, text in cases:
        e = parse_expression(text, dim)
        lo = rng.uniform(-3.0, 3.0, size=(400, dim))
        boxes = np.stack([lo, lo + rng.uniform(0.0, 1.0, size=(400, dim))], axis=2)
        for box, got in zip(boxes, interval_evaluate(e, boxes)):
            want = reference_enclosure(e, box)
            if want is None:
                assert np.isnan(got).all(), (text, box)
                failed += 1
            else:
                slack = 1e-12 * max(1.0, abs(want[0]), abs(want[1]))
                assert np.abs(got - want).max() <= slack, (text, box, got, want)
    assert failed > 500


def test_interval_even_power_straddle():
    lo, hi = enclose(parse_expression("x1^2", 1), [[-1.0, 2.0]])
    assert (lo, hi) == (0.0, 4.0)


def test_interval_sin_quadrant():
    lo, hi = enclose(parse_expression("sin(x1)", 1), [[0.0, np.pi]])
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == 1.0


def test_interval_cos_contains_minimum():
    lo, hi = enclose(parse_expression("cos(x1)", 1), [[1.0, 4.0]])   # pi inside
    assert lo == -1.0
    assert hi == pytest.approx(np.cos(1.0))


def test_interval_constant():
    assert enclose(parse_expression("3", 2), [[-5.0, 5.0], [-5.0, 5.0]]) == (3.0, 3.0)


def test_interval_monotone_functions_exact():
    lo, hi = enclose(parse_expression("exp(x1)", 1), [[0.0, 1.0]])
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(np.e)
    lo, hi = enclose(parse_expression("tanh(x1)", 1), [[-1.0, 2.0]])
    assert lo == pytest.approx(np.tanh(-1.0))
    assert hi == pytest.approx(np.tanh(2.0))


def trees(dim):
    """Random expression trees over x1..x<dim> of the five node kinds."""
    leaves = st.one_of(st.builds(Var, st.integers(0, dim - 1)),
                       st.builds(Const, st.floats(-3.0, 3.0)))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Unary, st.sampled_from(("-",) + FUNCTIONS), kids),
        st.builds(Binary, st.sampled_from("+-*/"), kids, kids),
        st.builds(Pow, kids, st.integers(0, 4))), max_leaves=8)


def box_batches(dim):
    """(s, dim, 2) batches of boxes inside [-3, 3]^dim, some of them flat."""
    corner = st.floats(-3.0, 3.0)
    width = st.sampled_from([0.0, 1e-3, 0.1, 0.5, 2.0])
    box = st.lists(st.tuples(corner, width), min_size=dim, max_size=dim)
    return st.lists(box, min_size=1, max_size=6).map(
        lambda b: np.array([[[lo, lo + w] for lo, w in row] for row in b]))


@settings(max_examples=300, deadline=None)
@given(trees(2), box_batches(2), st.integers(0, 2**32 - 1))
def test_every_sampled_point_lies_in_its_boxs_enclosure(e, boxes, seed):
    """Wherever both are defined, the value `evaluate` gives at a point of a
    box lies in that box's enclosure (up to round-to-nearest: the
    enclosure is not rounded outward)."""
    rng = np.random.default_rng(seed)
    enclosures = interval_evaluate(e, boxes)
    for box, (lo, hi) in zip(boxes, enclosures):
        points = np.vstack([box.T, rng.uniform(box[:, 0], box[:, 1], size=(30, len(box)))])
        values = evaluate(e, points)
        values = values[np.isfinite(values)]
        if np.isnan(lo) or not values.size:
            continue
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        assert lo <= hi
        assert values.min() >= lo - slack and values.max() <= hi + slack


@settings(max_examples=300, deadline=None)
@given(trees(2), box_batches(2))
def test_each_box_of_a_batch_is_enclosed_as_it_is_alone(e, boxes):
    """A box's enclosure in a batch is its enclosure as a batch of one,
    byte for byte: NaN, and the sign of a zero, included."""
    batch = interval_evaluate(e, boxes)
    for j in range(len(boxes)):
        assert batch[j].tobytes() == interval_evaluate(e, boxes[j:j + 1])[0].tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(trees(2), min_size=1, max_size=3), box_batches(2), st.data())
def test_weighted_is_the_enclosure_of_the_weighted_sum(exprs, boxes, data):
    """Split into batches (of several rows, and of one row each), each with
    its own row of coefficients given to each of its rows, boxes get from
    one `_weighted` call, float for float, the enclosure of
    weighted_sum(row, exprs), NaN where that fails; at points, `evaluate`'s
    values of the sum where they are finite, entered as [v, v], and NaN
    elsewhere."""
    weights = st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.5, 1e300])
    cuts = sorted(data.draw(st.sets(st.integers(1, len(boxes) - 1))) if len(boxes) > 1 else [])
    points = boxes[:, :, 0]
    for splits in (cuts, range(1, len(boxes))):
        coefs = np.array(data.draw(st.lists(st.lists(weights, min_size=len(exprs),
                                                     max_size=len(exprs)),
                                            min_size=len(splits) + 1, max_size=len(splits) + 1)))
        per_row = np.repeat(coefs, np.diff([0, *splits, len(boxes)]), axis=0)
        got = np.split(_weighted(interval_evaluate, exprs, per_row, boxes), splits)
        at_points = np.split(_weighted(evaluate, exprs, per_row, points), splits)
        for row, box_batch, point_batch, encl, vals in zip(
                coefs, np.split(boxes, splits), np.split(points, splits), got, at_points):
            g = weighted_sum(row, exprs)
            assert encl.tobytes() == interval_evaluate(g, box_batch).tobytes()
            for want, v in zip(evaluate(g, point_batch), vals):
                if np.isfinite(want):
                    assert v.tobytes() == np.array([want, want]).tobytes()
                else:
                    assert np.isnan(v).all()


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_enclosure_property_on_reference_systems(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([2, 3, 4, 6]))
    text = ALL_SYSTEMS[dim][int(rng.integers(len(ALL_SYSTEMS[dim])))]
    e = parse_expression(text, dim)
    lo = rng.uniform(-3.0, 2.5, size=dim)
    hi = lo + rng.uniform(0.0, 0.5, size=dim)
    box = np.stack([lo, hi], axis=1)
    ilo, ihi = enclose(e, box)
    pts = rng.uniform(box[:, 0], box[:, 1], size=(100, dim))
    vals = evaluate(e, pts)
    slack = 1e-9 * max(1.0, abs(ilo), abs(ihi))
    assert vals.min() >= ilo - slack
    assert vals.max() <= ihi + slack


def test_enclosure_never_widens_when_halving():
    rng = np.random.default_rng(42)
    for dim, comps in ALL_SYSTEMS.items():
        for text in comps:
            e = parse_expression(text, dim)
            lo = rng.uniform(-2.0, 1.0, size=dim)
            hi = lo + rng.uniform(0.5, 1.0, size=dim)
            mid = 0.5 * (lo + hi)
            (wlo, whi), left, right = interval_evaluate(e, np.array([
                np.stack([lo, hi], axis=1), np.stack([lo, mid], axis=1),
                np.stack([mid, hi], axis=1)]))
            for plo, phi in (left, right):
                assert plo >= wlo - 1e-12
                assert phi <= whi + 1e-12


def test_enclosure_width_shrinks_towards_zero():
    e = parse_expression(CUBIC2D[0], 2)
    center = np.array([0.7, -0.4])
    boxes = np.array([np.stack([center - w, center + w], axis=1)
                      for w in (0.5, 0.25, 0.125, 0.0625)])
    widths = np.diff(interval_evaluate(e, boxes), axis=1)[:, 0]
    assert all(widths[i + 1] < widths[i] for i in range(len(widths) - 1))
    assert widths[-1] < 0.3 * widths[0]


# -- node kinds ---------------------------------------------------------------------

X1, X2 = Var(0), Var(1)
NODES = ([X1, Const(2.5)] + [Unary(name, X1) for name in ("-",) + FUNCTIONS]
         + [Binary(op, X1, X2) for op in "+-*/"] + [Pow(X1, k) for k in (0, 1, 2)])
POINT = np.array([1.5, 0.5])
VALUES = [1.5, 2.5, -1.5, np.sin(1.5), np.cos(1.5), np.tanh(1.5), np.exp(1.5), np.log(1.5),
          2.0, 1.0, 0.75, 3.0, 1.0, 1.5, 2.25]
SMT = ["x1", "(/ 5 2)", "(- x1)", "(sin x1)", "(cos x1)", "(tanh x1)", "(exp x1)", "(ln x1)",
       "(+ x1 x2)", "(- x1 x2)", "(* x1 x2)", "(/ x1 x2)", "(^ x1 0)", "(^ x1 1)", "(^ x1 2)"]
AFFINE = [([1, 0], 0), ([0, 0], 2.5), ([-1, 0], 0)] + [None] * 5 + [
    ([1, 1], 0), ([1, -1], 0), None, None, ([0, 0], 1), ([1, 0], 0), None]


@pytest.mark.parametrize("e, value, smt, form", zip(NODES, VALUES, SMT, AFFINE),
                         ids=SMT)
def test_every_walker_handles_every_node_kind(e, value, smt, form):
    assert evaluate(e, POINT) == pytest.approx(value, rel=1e-15)
    lo, hi = enclose(e, [[1.0, 2.0], [0.25, 1.0]])
    assert lo <= value <= hi
    got = _linear_form(e, 2)
    if form is None:
        assert got is None
    else:
        assert np.array_equal(got[0], form[0]) and got[1] == form[1]
    assert smtlib.expr_to_smt(e) == smt
    transcendental = isinstance(e, Unary) and e.name != "-"
    assert smtlib._has_transcendental(e) == transcendental


def test_node_kinds_are_the_five_the_walkers_cover():
    assert set(Expr.__subclasses__()) == {type(e) for e in NODES} == {
        Var, Const, Unary, Binary, Pow}


def test_negation_is_not_transcendental_and_a_negated_function_is():
    net = diamond_net()
    seed = build_valid_region(net, ActivationIndicator(((1, 0, 1, 0),)))
    regions = boundary_propagation(net, seed).regions
    for text, tag in (("-x1", "QF_NRA"), ("-sin(x1)", "QF_NRA+transcendental")):
        e = parse_expression(text, 2)
        assert smtlib._has_transcendental(e) == (tag != "QF_NRA")
        query, = smtlib.export_set_condition(regions, e, "initial", 2, mode="monolithic")
        assert query.logic_tag == tag
        assert ("(set-logic QF_NRA)" in query.text) == (tag == "QF_NRA")


# -- affine detection -----------------------------------------------------------------

def test_weighted_sum_drops_zero_weights_and_nests_from_the_left():
    f = [parse_expression(t, 2) for t in ("x1", "x2^3", "sin(x1)")]
    g = weighted_sum([2.0, 0.0, -1.0], f)
    assert g == Binary("+", Binary("*", Const(2.0), f[0]), Binary("*", Const(-1.0), f[2]))
    assert weighted_sum(np.array([1.0, 0.5, 3.0]), f) == Binary(
        "+", Binary("+", Binary("*", Const(1.0), f[0]), Binary("*", Const(0.5), f[1])),
        Binary("*", Const(3.0), f[2]))
    assert weighted_sum([0.0, 0.0], f[:2]) == Const(0.0)
    assert weighted_sum([], []) == Const(0.0)


@pytest.mark.parametrize("flow, dim, F, c", [
    (CASCADE4D, 4, [[-1.0, 0, 0, 0], [1.0, -2.0, 0, 0], [1.0, 0, -4.0, 0], [1.0, 0, 0, -3.0]],
     [0.0, 0.0, 0.0, 0.0]),
    (CUBIC2D, 2, None, None),
    (["x1 + 1"], 1, [[1.0]], [1.0]),
    (["sin(2) * x1"], 1, [[np.sin(2.0)]], [0.0]),
    (["(x1 + 1)^0"], 1, [[0.0]], [1.0]),
    (["ln(x1)^0"], 1, None, None),
    (["ln(x1 - x1)^0"], 1, None, None),
    (["(1/(x1 - x1))^0"], 1, None, None),
    (["x1*2 - 1", "(x1 + x2)*0.5"], 2, [[2.0, 0.0], [0.5, 0.5]], [-1.0, 0.0]),
], ids=["linear-system", "cubic", "scalar-offset", "constant-call", "zero-power",
        "zero-power-of-a-call", "zero-power-of-ln-0", "zero-power-of-1-over-0",
        "constant-on-the-right"])
def test_linear_form_of_flow_components(flow, dim, F, c):
    """Each component's affine form (coeffs, const), or None where some
    component is not affine: the cubic system, and a zero power whose base
    has no finite form (evaluate gives NaN where the base is undefined).
    sin(2) folds to a constant, on either side of a product."""
    forms = [_linear_form(e, dim) for e in DynamicsSystem.parse(flow, dim=dim).exprs]
    if F is None:
        assert None in forms
        return
    assert np.allclose([f[0] for f in forms], F)
    assert np.allclose([f[1] for f in forms], c)


def test_dynamics_system_shape_checks():
    sys = DynamicsSystem.parse(CUBIC2D, dim=2)
    assert sys.dim == 2
    val = sys(np.array([1.0, 1.0]))
    assert val.shape == (2,)
    assert val[0] == pytest.approx(0.0)

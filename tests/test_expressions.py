"""Expression grammar, evaluation, interval enclosure, and affine forms."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relubarrier import (ActivationIndicator, DomainError, DynamicsSystem,
                         ExpressionSyntaxError, UnknownIdentifier, VariableOutOfRange,
                         boundary_propagation, build_valid_region, evaluate,
                         interval_evaluate, parse_expression)
from relubarrier import smtlib
from relubarrier.expressions import (FUNCTIONS, Binary, Const, Expr, Pow, Unary, Var,
                                     weighted_sum, _linear_form)

from helpers import CUBIC2D, TRANSCENDENTAL3D, DECAY6D, CASCADE4D, ALL_SYSTEMS, diamond_net


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
    with pytest.raises(UnknownIdentifier):
        parse_expression("y1 + 1", 2)
    with pytest.raises(UnknownIdentifier):
        parse_expression("sinh(x1)", 2)


def test_variable_out_of_range():
    with pytest.raises(VariableOutOfRange):
        parse_expression("x3", 2)
    with pytest.raises(VariableOutOfRange):
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

@pytest.mark.parametrize("text", [
    "-x1*exp(1000*x1)",                                       # math.exp overflows
    "-x1 + 1e200*x1*x1*x2*1e200 - 1e200*x1*x1*x2*1e200",      # inf - inf is NaN
])
def test_interval_overflow_raises_domain_error(text):
    box = np.array([[0.5, 1.0], [0.5, 1.0]])
    with pytest.raises(DomainError):
        interval_evaluate(parse_expression(text, 2), box)


def test_interval_even_power_straddle():
    iv = interval_evaluate(parse_expression("x1^2", 1), np.array([[-1.0, 2.0]]))
    assert iv.lo == pytest.approx(0.0)
    assert iv.hi == pytest.approx(4.0)


def test_interval_sin_quadrant():
    iv = interval_evaluate(parse_expression("sin(x1)", 1),
                           np.array([[0.0, np.pi]]))
    assert iv.lo == pytest.approx(0.0, abs=1e-12)
    assert iv.hi == pytest.approx(1.0)


def test_interval_cos_contains_minimum():
    iv = interval_evaluate(parse_expression("cos(x1)", 1),
                           np.array([[1.0, 4.0]]))  # pi inside
    assert iv.lo == pytest.approx(-1.0)
    assert iv.hi == pytest.approx(np.cos(1.0))


def test_interval_constant():
    iv = interval_evaluate(parse_expression("3", 2),
                           np.array([[-5.0, 5.0], [-5.0, 5.0]]))
    assert (iv.lo, iv.hi) == (3.0, 3.0)


def test_interval_division_across_zero_raises():
    e = parse_expression("1 / x1", 1)
    with pytest.raises(DomainError):
        interval_evaluate(e, np.array([[-1.0, 1.0]]))


def test_interval_monotone_functions_exact():
    e = parse_expression("exp(x1)", 1)
    iv = interval_evaluate(e, np.array([[0.0, 1.0]]))
    assert iv.lo == pytest.approx(1.0)
    assert iv.hi == pytest.approx(np.e)
    e = parse_expression("tanh(x1)", 1)
    iv = interval_evaluate(e, np.array([[-1.0, 2.0]]))
    assert iv.lo == pytest.approx(np.tanh(-1.0))
    assert iv.hi == pytest.approx(np.tanh(2.0))


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
    iv = interval_evaluate(e, box)
    pts = rng.uniform(box[:, 0], box[:, 1], size=(100, dim))
    vals = evaluate(e, pts)
    slack = 1e-9 * max(1.0, abs(iv.lo), abs(iv.hi))
    assert vals.min() >= iv.lo - slack
    assert vals.max() <= iv.hi + slack


def test_enclosure_never_widens_when_halving():
    rng = np.random.default_rng(42)
    for dim, comps in ALL_SYSTEMS.items():
        for text in comps:
            e = parse_expression(text, dim)
            lo = rng.uniform(-2.0, 1.0, size=dim)
            hi = lo + rng.uniform(0.5, 1.0, size=dim)
            box = np.stack([lo, hi], axis=1)
            whole = interval_evaluate(e, box)
            mid = 0.5 * (lo + hi)
            left = np.stack([lo, mid], axis=1)
            right = np.stack([mid, hi], axis=1)
            for half in (left, right):
                part = interval_evaluate(e, half)
                assert part.lo >= whole.lo - 1e-12
                assert part.hi <= whole.hi + 1e-12


def test_enclosure_width_shrinks_towards_zero():
    e = parse_expression(CUBIC2D[0], 2)
    center = np.array([0.7, -0.4])
    widths = []
    for half_w in (0.5, 0.25, 0.125, 0.0625):
        box = np.stack([center - half_w, center + half_w], axis=1)
        iv = interval_evaluate(e, box)
        widths.append(iv.hi - iv.lo)
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
    iv = interval_evaluate(e, np.array([[1.0, 2.0], [0.25, 1.0]]))
    assert iv.lo <= value <= iv.hi
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
], ids=["linear-system", "cubic", "scalar-offset", "constant-call", "zero-power",
        "zero-power-of-a-call", "zero-power-of-ln-0", "zero-power-of-1-over-0"])
def test_linear_form_of_flow_components(flow, dim, F, c):
    """Each component's affine form (coeffs, const), or None where some
    component is not affine: the cubic system, and a zero power whose base
    has no finite form (evaluate gives NaN where the base is undefined).
    sin(2) folds to a constant."""
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

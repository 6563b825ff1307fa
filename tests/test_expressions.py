"""Expression grammar, evaluation, interval enclosure, and affine detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relubarrier import (DomainError, DynamicsSystem, ExpressionSyntaxError,
                         UnknownIdentifier, VariableOutOfRange, evaluate,
                         interval_evaluate, is_affine, parse_expression,
                         to_text)

from helpers import CUBIC2D, TRANSCENDENTAL3D, DECAY6D, CASCADE4D, ALL_SYSTEMS


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


def test_division_by_zero_raises():
    e = parse_expression("1 / x1", 1)
    with pytest.raises(DomainError):
        evaluate(e, np.zeros(1))


def test_log_domain_error():
    e = parse_expression("ln(x1)", 1)
    with pytest.raises(DomainError):
        evaluate(e, np.array([-1.0]))
    with pytest.raises(DomainError):
        evaluate(e, np.array([0.0]))


# -- interval enclosure ---------------------------------------------------------------

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


# -- affine detection -----------------------------------------------------------------

def test_is_affine_linear_system():
    sys = DynamicsSystem.parse(CASCADE4D, dim=4)
    out = is_affine(sys)
    assert out is not None
    F, c = out
    expected = np.array([[-1.0, 0, 0, 0],
                         [1.0, -2.0, 0, 0],
                         [1.0, 0, -4.0, 0],
                         [1.0, 0, 0, -3.0]])
    assert np.allclose(F, expected)
    assert np.allclose(c, 0.0)


def test_is_affine_rejects_cubic():
    assert is_affine(DynamicsSystem.parse(CUBIC2D, dim=2)) is None


def test_is_affine_scalar_offset():
    sys = DynamicsSystem.parse(["x1 + 1"], dim=1)
    F, c = is_affine(sys)
    assert np.allclose(F, [[1.0]])
    assert np.allclose(c, [1.0])


def test_is_affine_folds_constant_calls():
    sys = DynamicsSystem.parse(["sin(2) * x1"], dim=1)
    out = is_affine(sys)
    assert out is not None
    assert out[0][0, 0] == pytest.approx(np.sin(2.0))


# -- canonical printing ----------------------------------------------------------------

@pytest.mark.parametrize("text,dim", [
    (CUBIC2D[0], 2), (CUBIC2D[1], 2),
    (TRANSCENDENTAL3D[0], 3), (TRANSCENDENTAL3D[1], 3), (TRANSCENDENTAL3D[2], 3),
    (CASCADE4D[2], 4), (DECAY6D[0], 6),
    ("-x1^2 - (x1 - x2)^3", 2),
    ("1 / (x1 + 2) - 4 * x2 / 7", 2),
    ("exp(-x1^2) * sin(x2)^2", 2),
])
def test_print_parse_round_trip(text, dim):
    e = parse_expression(text, dim)
    printed = to_text(e)
    again = parse_expression(printed, dim)
    assert again == e
    assert to_text(again) == printed


def test_dynamics_system_shape_checks():
    sys = DynamicsSystem.parse(CUBIC2D, dim=2)
    assert sys.dim == 2
    val = sys(np.array([1.0, 1.0]))
    assert val.shape == (2,)
    assert val[0] == pytest.approx(0.0)

"""Marching squares over the whole grid against the cell-by-cell loop."""

import numpy as np
import pytest

from relubarrier import evaluate, parse_expression, svgplot
from relubarrier.svgplot import _grid_values, _marching_squares

from helpers import marching_squares_reference

DOMAIN = np.array([[-3.0, 3.0], [-3.0, 3.0]])


@pytest.mark.parametrize("text, grid", [
    ("x1 - 1.5", 256),             # a line
    ("1 - x1^2 - x2^2", 256),      # a circle
    ("x1*x2", 4),                  # the middle cell is a saddle
    ("ln(x1 + 0.5) - 0.5", 64),    # NaN where ln is undefined
])
def test_marching_squares_matches_the_cell_loop(text, grid):
    expr = parse_expression(text, 2)
    reference = marching_squares_reference(expr, DOMAIN, grid)
    segments = _marching_squares(expr, DOMAIN, grid)
    assert segments.shape == (len(reference), 2, 2) and len(reference) > 0
    assert segments.tobytes() == np.array(reference).tobytes()


def test_marching_squares_cases_cover_a_saddle_and_nan_cells():
    """x1*x2 on a 4 x 4 grid changes sign across every edge of the middle
    cell, which gives two segments; the ln case has undefined grid points."""
    saddle = _marching_squares(parse_expression("x1*x2", 2), DOMAIN, 4)
    middle = np.all((saddle >= -1.0) & (saddle <= 1.0), axis=(1, 2))
    assert middle.sum() == 2
    _xs, _ys, vals = _grid_values(parse_expression("ln(x1 + 0.5) - 0.5", 2), DOMAIN, 64)
    assert np.isnan(vals).any() and not np.isnan(vals).all()


def test_grid_values_evaluate_the_grid_once(monkeypatch):
    """Undefined grid points come back NaN from one batched evaluation,
    not from a per-point fallback."""
    calls = []
    monkeypatch.setattr(svgplot, "evaluate", lambda e, x: calls.append(1) or evaluate(e, x))
    xs, _ys, vals = _grid_values(parse_expression("ln(x1 + 0.5) - 0.5", 2), DOMAIN, 256)
    assert calls == [1]
    assert np.array_equal(np.isnan(vals).any(axis=1), xs <= -0.5)
    assert np.array_equal(np.isnan(vals).all(axis=1), xs <= -0.5)

"""Marching squares over the whole grid against the cell-by-cell loop, and
region outlines and level-set lines against their regions."""

import warnings

import numpy as np
import pytest

from relubarrier import enumerate_level_set, evaluate, network_from_json, parse_expression, svgplot
from relubarrier.svgplot import _grid_values, _marching_squares

from helpers import diamond_net, load_bench_module, marching_squares_reference

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


def _plot_case(name):
    """(net, domain box) of the diamond or of the benchmark's 2-D affine-2d-16-0."""
    if name == "diamond":
        return diamond_net(), DOMAIN
    spec = next(p for p in load_bench_module("problems").build_workload("enum-affine", 3)
                if p.name == name)
    return network_from_json(spec.net), np.array([[-spec.half_width, spec.half_width]] * 2)


@pytest.mark.parametrize("name", ["diamond", "affine-2d-16-0"])
def test_plotted_outlines_lie_on_their_regions(name):
    """Each region's polygon (its frame cut to the domain box) has every
    vertex in the region and the box within 1e-9, counter-clockwise, and
    both ends of each level-set line lie on the region's slice; the SVG
    draws exactly these."""
    net, domain = _plot_case(name)
    regions = enumerate_level_set(net).regions
    polygons = lines = 0
    for region in regions:
        poly = svgplot._polygon(region, domain)
        assert region.constraints.within(domain).contains(poly, tol=1e-9).all()
        if len(poly) >= 3:
            polygons += 1
            x, y = poly.T
            assert np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y) > 0.0
        ends = svgplot._level_line(region, domain)
        if ends is not None:
            lines += 1
            assert region.slice.contains(np.array(ends), tol=1e-9).all()
    assert polygons == len(regions) and lines > 0
    svg = svgplot.render_plot(net, regions, None, None, [], domain)
    assert svg.count('class="region"') == polygons and svg.count('class="level-set"') == lines


def test_a_region_that_misses_the_box_draws_nothing():
    """With the box [10, 11]^2 three of the diamond's quadrants miss it and
    the level set does too: one polygon, no line, and an empty frame takes
    no mean (no RuntimeWarning)."""
    net = diamond_net()
    regions = enumerate_level_set(net).regions
    domain = np.array([[10.0, 11.0], [10.0, 11.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        polygons = [svgplot._polygon(region, domain) for region in regions]
        svg = svgplot.render_plot(net, regions, None, None, [], domain)
    assert sorted(map(len, polygons)) == [0, 0, 0, 4]
    assert svg.count('class="region"') == 1 and 'class="level-set"' not in svg

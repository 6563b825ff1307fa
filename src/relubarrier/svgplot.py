"""Hand-rolled SVG rendering of a 2-D verification run.

Draws the domain box, every valid region clipped to it, the zero-level
slice segments, marching-squares contours of the initial/unsafe set
functions, and any falsification witnesses.  Output is plain SVG 1.1 text
with deterministic coordinates and colors.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import UnsupportedDimension
from .expressions import evaluate

_SIZE = 640.0
_MARGIN = 48.0
_GRID = 256  # marching-squares sample resolution per axis


def _region_color(index: int) -> str:
    hue = (index * 137.508) % 360.0
    return f"hsl({hue:.1f}, 62%, 82%)"


def _region_edge(index: int) -> str:
    hue = (index * 137.508) % 360.0
    return f"hsl({hue:.1f}, 55%, 42%)"


class _Frame:
    """Domain-box-to-pixels mapping with a flipped y axis."""

    def __init__(self, domain):
        self.x0, self.x1 = float(domain[0, 0]), float(domain[0, 1])
        self.y0, self.y1 = float(domain[1, 0]), float(domain[1, 1])
        self.inner = _SIZE - 2 * _MARGIN

    def px(self, x, y):
        u = _MARGIN + (x - self.x0) / (self.x1 - self.x0) * self.inner
        v = _MARGIN + (self.y1 - y) / (self.y1 - self.y0) * self.inner
        return u, v

    def pt(self, x, y):
        u, v = self.px(x, y)
        return f"{u:.2f},{v:.2f}"


def _crossings(poly, s):
    """Per edge of poly (vertex i to i + 1): the point where s, affine along
    it, is 0, and whether the edge changes side (s <= 0 is one side)."""
    nxt, s_nxt = np.roll(poly, -1, axis=0), np.roll(s, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = poly + (s / (s - s_nxt))[:, None] * (nxt - poly)
    return cut, (s <= 0.0) != (s_nxt <= 0.0)


def _clip_polygon(region, domain) -> np.ndarray:
    """Vertices of the region inside the domain box, counter-clockwise: the
    box's corners clipped by one half-plane per region row."""
    (x0, x1), (y0, y1) = domain
    poly = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    for a, d in zip(region.constraints.A, region.constraints.d):
        s = poly @ a - d
        cut, crosses = _crossings(poly, s)
        poly = np.stack([poly, cut], axis=1)[np.column_stack([s <= 0.0, crosses])]
    return poly


def _slice_segment(region, polygon):
    """Endpoints of the level-set segment inside the clipped polygon: of the
    points where w.x + b changes sign around it, the two extreme along it."""
    w, b = region.slice.w, region.slice.b
    cut, crosses = _crossings(polygon, polygon @ w + b)
    pts = cut[crosses]
    if len(pts) == 0:
        return None
    along = pts @ np.array([-w[1], w[0]])
    return [pts[np.argmin(along)], pts[np.argmax(along)]]


def _grid_values(expr, domain, grid):
    """(xs, ys, vals) with vals[i, j] = expr at (xs[i], ys[j]); NaN where
    expr is undefined."""
    xs = np.linspace(domain[0, 0], domain[0, 1], grid)
    ys = np.linspace(domain[1, 0], domain[1, 1], grid)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return xs, ys, evaluate(expr, pts).reshape(grid, grid)


def _marching_squares(expr, domain, grid=_GRID):
    """Zero-level segments of expr over the domain box, an (s, 2, 2) array.

    Cells come in row-major order; a cell's crossings come in edge order,
    the first two joined, then (a saddle cell) the other two.  Cells with
    a NaN corner are skipped.
    """
    xs, ys, vals = _grid_values(expr, domain, grid)
    # corner k of cell (i, j) is grid point (i + di[k], j + dj[k]); edge k
    # runs from corner k to corner k + 1 (mod 4)
    di, dj = np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1])
    m = grid - 1
    corners = np.stack([vals[a:a + m, b:b + m] for a, b in zip(di, dj)], axis=-1)
    positive = corners > 0
    crosses = positive != np.roll(positive, -1, axis=-1)
    crosses &= ~np.isnan(corners).any(axis=-1, keepdims=True)
    i, j, k = crosses.nonzero()
    k1 = (k + 1) % 4
    va, vb = corners[i, j, k], corners[i, j, k1]
    t = va / (va - vb)
    xa, xb = xs[i + di[k]], xs[i + di[k1]]
    ya, yb = ys[j + dj[k]], ys[j + dj[k1]]
    # every cell crosses 0, 2 or 4 edges, so consecutive crossings pair up
    return np.column_stack([xa + t * (xb - xa), ya + t * (yb - ya)]).reshape(-1, 2, 2)


def check_plane(network) -> None:
    """Raise UnsupportedDimension unless the network has a 2-D input space."""
    if network.input_dim != 2:
        raise UnsupportedDimension(f"plotting needs a 2-D input space, "
                                   f"got {network.input_dim}")


def render_plot(network, regions, h_init, h_unsafe, witnesses,
                domain=None) -> str:
    """SVG text for one run; regions in canonical order fix the palette."""
    check_plane(network)
    if domain is None:
        domain = DEFAULT_CONFIG.domain(2)
    domain = np.asarray(domain, dtype=float)
    frame = _Frame(domain)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE:.0f}" height="{_SIZE:.0f}" '
        f'viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">',
        f'<rect x="0" y="0" width="{_SIZE:.0f}" height="{_SIZE:.0f}" fill="white"/>',
    ]

    # region polygons clipped to the domain box
    polygons = [_clip_polygon(region, domain) for region in regions]
    for idx, verts in enumerate(polygons):
        if len(verts) < 3:
            continue
        points = " ".join(frame.pt(p[0], p[1]) for p in verts)
        parts.append(f'<polygon class="region" points="{points}" '
                     f'fill="{_region_color(idx)}" stroke="{_region_edge(idx)}" '
                     f'stroke-width="1"/>')

    # zero-level segments
    for region, verts in zip(regions, polygons):
        seg = _slice_segment(region, verts)
        if seg is None:
            continue
        (xa, ya), (xb, yb) = seg[0], seg[1]
        ax, ay = frame.px(xa, ya)
        bx, by = frame.px(xb, yb)
        parts.append(f'<line class="level-set" x1="{ax:.2f}" y1="{ay:.2f}" '
                     f'x2="{bx:.2f}" y2="{by:.2f}" stroke="#1a1a1a" stroke-width="2.2"/>')

    # initial / unsafe contours
    for expr, klass, color in ((h_init, "initial-contour", "#1f8a4c"),
                               (h_unsafe, "unsafe-contour", "#c0392b")):
        if expr is None:
            continue
        for pa, pb in _marching_squares(expr, domain):
            ax, ay = frame.px(pa[0], pa[1])
            bx, by = frame.px(pb[0], pb[1])
            parts.append(f'<line class="{klass}" x1="{ax:.2f}" y1="{ay:.2f}" '
                         f'x2="{bx:.2f}" y2="{by:.2f}" stroke="{color}" '
                         f'stroke-width="1.4" stroke-dasharray="5,3"/>')

    # domain box on top
    corners = [(domain[0, 0], domain[1, 0]), (domain[0, 1], domain[1, 0]),
               (domain[0, 1], domain[1, 1]), (domain[0, 0], domain[1, 1])]
    points = " ".join(frame.pt(x, y) for x, y in corners)
    parts.append(f'<polygon class="domain" points="{points}" fill="none" '
                 f'stroke="#444" stroke-width="1.5"/>')

    # witnesses
    for wit in witnesses or []:
        p = wit.get("point")
        if p is None or len(p) != 2:
            continue
        ux, uy = frame.px(float(p[0]), float(p[1]))
        parts.append(f'<circle class="witness-marker" cx="{ux:.2f}" cy="{uy:.2f}" '
                     f'r="5" fill="#c0392b" stroke="white" stroke-width="1.5"/>')

    parts.append(f'<text x="{_MARGIN:.0f}" y="{_SIZE - 14:.0f}" '
                 f'font-family="sans-serif" font-size="13" fill="#333">'
                 f'regions: {len(regions)}; level set in black; initial set dashed '
                 f'green; unsafe set dashed red</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

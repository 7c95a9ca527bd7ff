"""Static SVG diagrams of bijection traces: one panel per surgery step.

Panel 1 shows the intermediate path F = F1·F2 with the F1/F2 boundary and the
marked points u, v', x, y; panel 2 shows the output Dyck path with x and the
lowered point y'.  Geometry and colors are fixed constants, so the output is
byte-identical for a given trace (tests/test_svg.py pins the bytes).

The vertical grid of a panel is one <path> with one subpath per point: a
move to the top of the next column and a vertical line down to level 0.  Each
subpath is stroked like its own <line> (butt caps, no overlap), so the
drawing is that of one line per point at about a quarter of the bytes, and
the whole grid is one repeated string.  The polyline still has one point per
point, so its work is done in bulk: the "x," strings of the points are
formatted once per document, one list shared by both panels, which have the
same length; the y coordinates once per level of a panel, and the points are
one join of "x," strings with the y strings looked up by level.  Every other
x coordinate (a panel's right edge, the boundary, the markers) is computed
where it is drawn.
"""

from __future__ import annotations

from operator import add

from .bijection import BijectionTrace
from .lattice_paths import Path

UNIT = 28
MARGIN = 46
TITLE_SPACE = 26
GRID_COLOR = "#dddddd"
BASELINE_COLOR = "#888888"
PATH_COLORS = ("#1f5fbf", "#bf3f2f")
BOUNDARY_COLOR = "#777777"
MARKER_COLOR = "#111111"
MARKER_RADIUS = 4


def _panel(path: Path, markers: dict[str, int], boundary: int | None,
           title: str, color: str, y_top: int,
           xs_comma: list[str]) -> tuple[list[str], int, int]:
    """Render one path panel at vertical offset y_top.

    xs_comma[i] is the x coordinate of point i as a string followed by a
    comma; it covers at least len(path) + 1 points.
    Returns (svg elements, width, height).
    """
    top = path.height
    steps = len(path)
    rise = top * UNIT  # px from level 0 up to the top level
    width = 2 * MARGIN + steps * UNIT
    height = TITLE_SPACE + rise + MARGIN
    floor = y_top + TITLE_SPACE + rise  # y of level 0
    ys = [str(floor - level * UNIT) for level in range(top + 1)]

    parts = [f'<text x="{MARGIN}" y="{y_top + 18}" font-size="14" '
             f'font-family="monospace">{title}</text>']
    for level, y in enumerate(ys):
        stroke = BASELINE_COLOR if level == 0 else GRID_COLOR
        parts.append(f'<line x1="{MARGIN}" y1="{y}" x2="{MARGIN + steps * UNIT}" '
                     f'y2="{y}" stroke="{stroke}" stroke-width="1"/>')
    grid = f"m{UNIT} -{rise}v{rise}" * steps
    parts.append(f'<path d="M{MARGIN} {ys[top]}v{rise}{grid}" fill="none" '
                 f'stroke="{GRID_COLOR}" stroke-width="1"/>')
    if boundary is not None:
        bx = MARGIN + boundary * UNIT
        parts.append(f'<line x1="{bx}" y1="{floor - rise - 10}" '
                     f'x2="{bx}" y2="{floor + 10}" '
                     f'stroke="{BOUNDARY_COLOR}" stroke-width="1" '
                     'stroke-dasharray="5,3"/>')
    points = " ".join(map(add, xs_comma, map(ys.__getitem__, path.levels)))
    parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                 'stroke-width="2"/>')

    by_index: dict[int, list[str]] = {}
    for label, index in markers.items():
        by_index.setdefault(index, []).append(label)
    for index in sorted(by_index):
        label = ", ".join(by_index[index])
        cx, cy = MARGIN + index * UNIT, floor - path.levels[index] * UNIT
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{MARKER_RADIUS}" '
                     f'fill="{MARKER_COLOR}"/>')
        parts.append(f'<text x="{cx + 7}" y="{cy - 7}" font-size="13" '
                     f'font-family="monospace">{label}</text>')
    return parts, width, height


def render_trace(trace: BijectionTrace) -> str:
    """Two-panel SVG document for one application of the pair-to-path map.

    Raises ValueError if a panel path goes below level 0, which has no row
    in the drawing; the check reads the level range the paths already keep.
    """
    f = trace.intermediate.path
    if not (f.is_ballot() and trace.output.is_ballot()):
        raise ValueError("a panel path goes below level 0")
    # F and the output both have 2n steps, so the panels share the x strings
    steps = max(len(f), len(trace.output))
    xs_comma = [f"{x}," for x in range(MARGIN, MARGIN + (steps + 1) * UNIT, UNIT)]
    panel1, w1, h1 = _panel(
        f,
        {"u": trace.u, "v'": trace.v_prime, "x": trace.x, "y": trace.y},
        trace.intermediate.boundary,
        "surgery 1: F = F1 F2 (dashed line marks the F1/F2 boundary)",
        PATH_COLORS[0],
        0,
        xs_comma,
    )
    panel2, w2, h2 = _panel(
        trace.output,
        {"x": trace.x, "y'": trace.y_prime},
        None,
        "surgery 2: the step into y is flipped and the tail drops two levels",
        PATH_COLORS[1],
        h1,
        xs_comma,
    )
    width = max(w1, w2)
    height = h1 + h2
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    parts.extend(panel1)
    parts.extend(panel2)
    parts.append("</svg>\n")
    return "\n".join(parts)

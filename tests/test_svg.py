"""SVG trace documents: pinned bytes and panel structure.

Claims covered:
    - render_trace's bytes are pinned by sha256 for a one-step pair, a pair
      with q empty (coinciding markers join their labels), a tall narrow pair
      and a seeded semilength-1000 path through inverse; the digests were
      recorded when the vertical grid became one <path> per panel
    - each document has two polylines with one point per path point, the
      panel 2 polyline below panel 1, and exactly one dashed line, the F1/F2
      boundary of panel 1
    - each panel's vertical grid is one unfilled <path> of grid colour and
      width 1 whose subpaths are exactly the segments of one vertical line
      per point, from the top level down to level 0; it comes after the
      panel's horizontal lines and before its boundary and polyline, at any
      length, and a semilength-10^4 document stays under 1.1 MB
    - render_trace refuses a panel path that goes below level 0 before it
      draws anything
"""

import hashlib
import random
import re
import xml.etree.ElementTree as ET

import pytest

from supercat import Path, RestrictedPair, inverse, trace
from supercat import svg
from supercat.svg import GRID_COLOR, MARGIN, TITLE_SPACE, UNIT, render_trace
from test_string_cores import random_dyck

NS = "{http://www.w3.org/2000/svg}"


def _pair(name: str) -> RestrictedPair:
    if name == "seeded-1000":
        return inverse(Path(random_dyck(random.Random(1000), 1000)))
    p, q = {"unit": ("UD", "UD"),
            "q-empty": ("UDUD", ""),
            "tall-narrow": ("UUUUUDDDDD", "UUUUDDDD")}[name]
    return RestrictedPair(Path(p), Path(q))


# sha256 of the UTF-8 document, with the vertical grid as one path per panel
DIGESTS = {
    "unit": "411201231d0cf55d2a1f4422382b017464bda7b9db2bba0370ac001b2a23d4b1",
    "q-empty": "f34e667bfb47f70c32794fbf773f1681e1dfeccbb5253750d4fbfcfdc8d36abe",
    "tall-narrow": "538f2e93c7cc0ed755a539ca6792b561f5d9347f4aa803556d7dcaa34faacc88",
    "seeded-1000": "0f717b3b7b49516e176aa3feb8a0b6f6647c1f6bc2b09ffa343bcc2c2372fa71",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_document_bytes_are_pinned(name):
    body = render_trace(trace(_pair(name)))
    assert hashlib.sha256(body.encode()).hexdigest() == DIGESTS[name]


def test_coinciding_markers_share_one_label():
    texts = [el.text for el in ET.fromstring(render_trace(trace(_pair("q-empty"))))
             if el.tag == NS + "text"]
    # panel 1: title, then one label per marked point; panel 2 likewise
    assert texts[1:3] == ["u, x", "v', y"] and texts[4:] == ["x", "y'"]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_panel_structure(name):
    record = trace(_pair(name))
    root = ET.fromstring(render_trace(record))
    steps = len(record.output)
    lines = root.findall(NS + "polyline")
    assert len(lines) == 2
    ys_by_panel = []
    for line in lines:
        points = [tuple(map(int, point.split(","))) for point in line.get("points").split()]
        assert [x for x, _ in points] == [MARGIN + i * UNIT for i in range(steps + 1)]
        ys_by_panel.append([y for _, y in points])
    assert min(ys_by_panel[1]) > max(ys_by_panel[0])  # panel 2 lies below panel 1
    dashed = [el for el in root.iter(NS + "line") if el.get("stroke-dasharray")]
    assert len(dashed) == 1
    boundary = dashed[0]
    assert boundary.get("x1") == boundary.get("x2") == str(
        MARGIN + record.intermediate.boundary * UNIT)
    assert int(boundary.get("y2")) < min(ys_by_panel[1])


def _panels(root: ET.Element) -> list[list[ET.Element]]:
    """The document's elements split into panels, each from its title on."""
    panels = []
    for el in root:
        if el.tag == NS + "text" and el.get("font-size") == "14":
            panels.append([])
        panels[-1].append(el)
    return panels


def _segments(d: str) -> list[tuple[int, int, int, int]]:
    """The (x1, y1, x2, y2) of each vertical line of a path of M, m and v."""
    assert re.fullmatch(r"(?:[Mm]-?\d+ -?\d+|v-?\d+)*", d), d
    segments, x, y = [], 0, 0
    for command, a, b in re.findall(r"([Mmv])(-?\d+)(?: (-?\d+))?", d):
        if command == "M":
            x, y = int(a), int(b)
        elif command == "m":
            x, y = x + int(a), y + int(b)
        else:
            segments.append((x, y, x, y + int(a)))
            y += int(a)
    return segments


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_grid_path_draws_one_vertical_line_per_point(name):
    record = trace(_pair(name))
    steps = len(record.output)
    panels = _panels(ET.fromstring(render_trace(record)))
    assert len(panels) == 2
    y_top = 0
    for panel, path in zip(panels, (record.intermediate.path, record.output)):
        top = path.height
        floor = y_top + TITLE_SPACE + top * UNIT  # y of level 0
        (grid,) = [el for el in panel if el.tag == NS + "path"]
        assert (grid.get("fill"), grid.get("stroke"), grid.get("stroke-width")) == (
            "none", GRID_COLOR, "1")
        assert _segments(grid.get("d")) == [
            (MARGIN + i * UNIT, floor - top * UNIT, MARGIN + i * UNIT, floor)
            for i in range(steps + 1)]
        y_top = floor + MARGIN


@pytest.mark.parametrize("semilength", [1, 2, 7, 100, 10_000])
def test_one_grid_path_per_panel_after_the_horizontal_lines(semilength):
    record = trace(inverse(Path(random_dyck(random.Random(semilength), semilength))))
    body = render_trace(record)
    assert len(body) <= 1_100_000  # 1.05 MB at semilength 10^4
    panels = _panels(ET.fromstring(body))
    assert len(panels) == 2
    for panel, path, boundary in zip(panels, (record.intermediate.path, record.output),
                                     (True, False)):
        tags = [el.tag[len(NS):] for el in panel]
        rows = path.height + 1
        assert tags[:rows + 2] == ["text"] + ["line"] * rows + ["path"]
        assert all(el.get("y1") == el.get("y2") for el in panel[1:rows + 1])
        assert tags[rows + 2:rows + 3 + boundary] == ["line"] * boundary + ["polyline"]
        assert tags.count("path") == 1 and tags.count("line") == rows + boundary


def test_render_trace_refuses_a_path_below_level_0(monkeypatch):
    record = trace(RestrictedPair(Path("UD"), Path("UUDD")))._replace(
        output=Path("UDDUUD"))

    def no_panel(*args):
        raise AssertionError("a panel was drawn")

    monkeypatch.setattr(svg, "_panel", no_panel)
    with pytest.raises(ValueError, match="below level 0"):
        render_trace(record)

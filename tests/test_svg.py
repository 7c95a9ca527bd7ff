"""SVG trace documents: pinned bytes and panel structure.

Claims covered:
    - render_trace gives the same bytes as the per-element renderer it
      replaced, pinned by sha256 for a one-step pair, a pair with q empty
      (coinciding markers join their labels), a tall narrow pair and a
      seeded semilength-1000 path through inverse
    - each document has two polylines with one point per path point, the
      panel 2 polyline below panel 1, and exactly one dashed line, the F1/F2
      boundary of panel 1
"""

import hashlib
import random
import xml.etree.ElementTree as ET

import pytest

from supercat import Path, RestrictedPair, inverse, trace
from supercat.svg import MARGIN, UNIT, render_trace
from test_string_cores import random_dyck

NS = "{http://www.w3.org/2000/svg}"


def _pair(name: str) -> RestrictedPair:
    if name == "seeded-1000":
        return inverse(Path(random_dyck(random.Random(1000), 1000)))
    p, q = {"unit": ("UD", "UD"),
            "q-empty": ("UDUD", ""),
            "tall-narrow": ("UUUUUDDDDD", "UUUUDDDD")}[name]
    return RestrictedPair(Path(p), Path(q))


# sha256 of the UTF-8 document, recorded from the per-element renderer
DIGESTS = {
    "unit": "6f4b83e26969297150cd1b94f9570ec8d51f616d53bf2bae4b947f36b4494109",
    "q-empty": "3b7c6076f369a72e4aa29c54b889a21872d13b2e47f6a2516e545b875d5ed581",
    "tall-narrow": "a6a989345c96acd5f5b371ab0ab2b5cb3416a4e6cdcfcd1cfff9001ab8ff9476",
    "seeded-1000": "a4acdee0a89639f16cb1ab6ac6132cd08050624cc66ab91e76369c3f70246294",
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

"""Pinned `verify all` reports: the JSON and text bytes, apart from the timings.

Claims covered:
    - `verify all --format json` prints the same bytes, with each
      `elapsed_ms` line removed, at the default orders and at --order 1, 3,
      60 and 200; the sha256 digests below pin them, so a change that alters
      any report, note or mismatch fails here and re-pins on purpose
    - `verify all --format text` prints the same bytes, with the time of
      each report's head line blanked, at the default orders and at --order
      1 and 60
"""

import hashlib
import re
from contextlib import redirect_stdout
from io import StringIO

import pytest

from supercat import IDENTITIES
from supercat.cli import main

# sha256 of the UTF-8 JSON report of `verify all`, elapsed_ms lines removed
DIGESTS = {
    None: "3a90f08ce0fead8f96d3737b30e44672fb5e4897cc6f5bb20cda51fc16838886",
    1: "527ed42f0a6c56ee7d637af7bbf4ffb41296915f196ca442486db16bd5613ef7",
    3: "25fe8652f78ea5191acc7f87897b1e4b77f8c6392af64f102d798cecde912feb",
    60: "3ec10d0a3fdb0377334c7a63bbb59a867ee7798d0f2d9d5fc8897bd13ed67bc2",
    200: "30686086c872418ef0483be602664a8b553a69a26aab85041c4e7691525d5897",
}
# sha256 of the UTF-8 text report of `verify all`, the milliseconds that end
# each report's head line replaced by the letter N
TEXT_DIGESTS = {
    None: "30c722027cbfb95f98ba9b7a1d23e54bd5e0acc5720497a6a0c2f29cd71be43d",
    1: "dc706dbb2c201ce2327f65dd49eb3f8d99be4dc19b2916ea3275bd042ad5479b",
    60: "048c1d0d8d8762304e8d1cdd162e1b6a7ac5465ee9fcce546ba5ea24b1c178cb",
}


def _order_id(order):
    return f"order-{order or 'default'}"


def _verify_all(fmt, order) -> str:
    argv = ["verify", "all", "--format", fmt]
    if order is not None:
        argv += ["--order", str(order)]
    out = StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("order", DIGESTS, ids=_order_id)
def test_verify_all_json_is_pinned(order):
    body, timings = re.subn(r'^ *"elapsed_ms": \d+,\n', "",
                            _verify_all("json", order), flags=re.M)
    assert timings == len(IDENTITIES) and "elapsed_ms" not in body
    assert hashlib.sha256(body.encode()).hexdigest() == DIGESTS[order]


@pytest.mark.parametrize("order", TEXT_DIGESTS, ids=_order_id)
def test_verify_all_text_is_pinned(order):
    body, timings = re.subn(r", \d+ ms\)$", ", N ms)",
                            _verify_all("text", order), flags=re.M)
    assert timings == len(IDENTITIES) == 11
    assert hashlib.sha256(body.encode()).hexdigest() == TEXT_DIGESTS[order]

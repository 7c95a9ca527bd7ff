"""Pinned `verify all` reports: the JSON bytes, apart from the timings.

Claims covered:
    - `verify all --format json` prints the same bytes, with each
      `elapsed_ms` line removed, at the default orders and at --order 1, 3,
      60 and 200; the sha256 digests below pin them, so a change that alters
      any report, note or mismatch fails here and re-pins on purpose
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


@pytest.mark.parametrize("order", DIGESTS, ids=lambda order: f"order-{order or 'default'}")
def test_verify_all_json_is_pinned(order, monkeypatch):
    monkeypatch.delenv("SUPERCAT_ORDER", raising=False)
    argv = ["verify", "all", "--format", "json"]
    if order is not None:
        argv += ["--order", str(order)]
    out = StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    body, timings = re.subn(r'^ *"elapsed_ms": \d+,\n', "", out.getvalue(), flags=re.M)
    assert timings == len(IDENTITIES) and "elapsed_ms" not in body
    assert hashlib.sha256(body.encode()).hexdigest() == DIGESTS[order]

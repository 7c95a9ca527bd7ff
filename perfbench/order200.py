"""Reference-only timing of each identity at the CLI ceiling, --order 200.

Not a benchmark workload: several checks do not finish in practical time at
this order, so each runs in its own interpreter under a timeout.

    python3 perfbench/order200.py

Prints one line per identity and, last, a JSON object mapping each id to its
wall time in seconds, or to "timeout".
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from workloads import IDENTITIES, SRC, require_source

ORDER = 200
TIMEOUT_S = 110


def main() -> int:
    require_source()
    env = dict(os.environ, PYTHONPATH=SRC)
    results = {}
    for ident in IDENTITIES:
        code = ("import sys, supercat.cli; "
                f"sys.exit(supercat.cli.main(['verify', {ident!r}, "
                f"'--order', '{ORDER}']))")
        start = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            results[ident] = "timeout"
        else:
            elapsed = time.perf_counter() - start
            results[ident] = round(elapsed, 3) if done.returncode == 0 else "failed"
        print(f"{ident:12s} {results[ident]}", file=sys.stderr, flush=True)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

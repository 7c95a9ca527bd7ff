"""Runtime checks that must hold under `python -O`, which strips asserts.

Claims covered:
    - t3-main and bijection round trips run and pass with optimization on
    - a planted drift in the t3-main triple-product valuation still raises
    - a planted wrong start value of super_catalan_row still raises at its
      first inexact division
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCRIPT = """
import sys
from math import comb
from supercat import (counting, enumerate_dyck, enumerate_restricted_pairs,
                      forward, height_gf, identities, inverse, run_identity)

print("optimize", sys.flags.optimize)
print("t3-main", run_identity("t3-main", 6).passed)
paths_ok = all(forward(inverse(d)) == d
               for n in range(1, 8) for d in enumerate_dyck(n))
pairs_ok = all(inverse(forward(pair)) == pair
               for n in range(1, 8) for pair in enumerate_restricted_pairs(n))
print("roundtrips", paths_ok and pairs_ok)
real = height_gf.PolyQuotient.min_t_degree
height_gf.PolyQuotient.min_t_degree = lambda self: real(self) + 1
try:
    identities._t3_triple_sum(12)
    print("planted valuation passed")
except RuntimeError as exc:
    print("planted valuation raised:", exc)
counting.comb = lambda n, k: comb(n, k) + 1
try:
    counting.super_catalan_row(2, 5)
    print("planted start value passed")
except RuntimeError as exc:
    print("planted start value raised:", exc)
"""


def test_checks_survive_optimize_flag():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-O", "-c", SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "optimize 1",
        "t3-main True",
        "roundtrips True",
        "planted valuation raised: triple-product valuation drifted",
        "planted start value raised: 2T(2,1) is not an integer",
    ]

"""The benchmark's workloads: operations on supercat and their checks.

Each workload is a list of operations that one round runs in order.  An
operation goes through a public entry point, `supercat.cli.main` or a
function of the package, and returns what the program printed or built;
its check compares that against the independent oracles and returns a
message on a mismatch.  Inputs come only from the seed.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import oracles
import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# The README catalogue with its default orders.  Written out here, not read
# from the program, so a change that drops or weakens a check fails.
DEFAULT_ORDERS = {
    "e2": 30, "t3-closed": 30, "e8": 10, "e-mo": 12, "firstsum": 30,
    "pairsum": 30, "e52": 30, "t3-main": 20, "g-forms": 30, "p-bridge": 30,
    "lemma-main": 8,
}
IDENTITIES = tuple(DEFAULT_ORDERS)
DEEP_ORDER = 60

BALLOT_STEPS = 3000
PAIR_N = 11
TABLE_M, TABLE_NMAX = 50, 2000
# (semilength, how many) of the random Dyck paths for round trips
PATHS_ROUNDTRIPS = ((100, 300), (1000, 100), (10_000, 30))
# a deep round is 5 times longer and runs 5 times fewer rounds, so its
# round-trip phase is 5 times longer to be timed as steadily
CATALOGUE_ROUNDTRIPS = {"catalogue-default": ((100, 300),),
                        "catalogue-deep": ((100, 1500),)}
# semilengths of the round trips through the CLI that also draw both SVGs
SVG_SEMILENGTHS = (100, 1000, 10_000)

WORKLOADS = ("catalogue-default", "catalogue-deep", "paths")


class ProgramMissing(RuntimeError):
    pass


def require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "supercat", "cli.py")):
        raise ProgramMissing(f"supercat sources not found under {SRC}")


def load_program():
    """Import supercat from this checkout's sources, never an installed copy."""
    require_source()
    sys.path.insert(0, SRC)
    import supercat
    import supercat.cli
    if not os.path.abspath(supercat.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"imported supercat from {supercat.__file__}")
    return supercat


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    roundtrips: int = 0  # round trips the op completes (the bijection phase)
    # the probe kernel whose work is most like the op's (see probe.py)
    kind: str = probe.INT


class OpFailed(RuntimeError):
    pass


def _cli(sc, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = sc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()[:200]}")
    text = out.getvalue()
    if not text.strip():
        raise OpFailed("empty output")
    return text


def _expect(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {str(got)[:80]}, want {str(want)[:80]}"


# --- catalogue -------------------------------------------------------------

def _check_catalogue(requested: dict[str, int]):
    def check(text: str) -> str | None:
        data = json.loads(text)
        if json.dumps(data, indent=2) + "\n" != text:
            return "report does not re-serialise byte for byte"
        if data.get("passed") is not True:
            return "verify all did not pass"
        reports = data["reports"]
        ids = [r["identity"] for r in reports]
        if sorted(ids) != sorted(IDENTITIES):
            return f"reported ids {ids} differ from the catalogue"
        for r in reports:
            ident, order = r["identity"], r["order"]
            if r["passed"] is not True or r["first_mismatch"] is not None:
                return f"{ident} failed at {r['first_mismatch']}"
            if order == requested[ident]:
                continue
            clamped = any("clamped to" in note and str(order) in note
                          for note in r["notes"])
            if order > requested[ident] or not clamped:
                return f"{ident} checked to order {order}, asked {requested[ident]}"
        return None
    return check


# --- bijection -------------------------------------------------------------

def _roundtrip(sc, d: str):
    pair = sc.inverse(sc.Path(d))
    return pair.p.steps, pair.q.steps, sc.forward(pair).steps


def _check_pair(d: str, p: str, q: str) -> str | None:
    if len(p) + len(q) != len(d) or not oracles.is_restricted_pair(p, q):
        return f"inverse of a path of length {len(d)} is not a restricted pair"
    return None


def _check_roundtrip(d: str):
    def check(result) -> str | None:
        p, q, back = result
        return _check_pair(d, p, q) or (None if back == d else "round trip changed the path")
    return check


def _svg_roundtrip(sc, d: str, tag: str):
    inv_svg = os.path.join(OUT, f"inverse-{tag}.svg")
    fwd_svg = os.path.join(OUT, f"forward-{tag}.svg")
    text = _cli(sc, ["bijection", "--inverse", d, "--svg", inv_svg])
    p, _, q = text.strip()[1:-1].partition(", ")
    back = _cli(sc, ["bijection", "--forward", p, q, "--svg", fwd_svg]).strip()
    return p, q, back, inv_svg, fwd_svg


def _check_svg(path: str, points: int) -> str | None:
    root = ET.parse(path).getroot()
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    if len(lines) != 2:
        return f"{os.path.basename(path)} has {len(lines)} polylines, want 2"
    for line in lines:
        if len(line.get("points").split()) != points:
            return f"{os.path.basename(path)}: a polyline lacks points"
    return None


def _check_svg_roundtrip(d: str):
    def check(result) -> str | None:
        p, q, back, inv_svg, fwd_svg = result
        return (_check_pair(d, p, q)
                or (None if back == d else "CLI round trip changed the path")
                or _check_svg(inv_svg, len(d) + 1)
                or _check_svg(fwd_svg, len(d) + 1))
    return check


def _roundtrip_ops(sc, rng: random.Random, plan) -> list[Op]:
    ops = []
    for semilength, count in plan:
        for _ in range(count):
            d = oracles.random_dyck(rng, semilength)
            ops.append(Op(f"roundtrip n={semilength}", lambda d=d: _roundtrip(sc, d),
                          _check_roundtrip(d), roundtrips=1))
    return ops


# --- workloads -------------------------------------------------------------

def _catalogue(sc, rng, workload, argv, requested) -> list[Op]:
    verify = Op(" ".join(argv), lambda: _cli(sc, argv), _check_catalogue(requested),
                kind=probe.FRACTION)
    return [verify] + _roundtrip_ops(sc, rng, CATALOGUE_ROUNDTRIPS[workload])


def _count_op(sc, argv: list[str], want: int) -> Op:
    return Op(" ".join(argv), lambda: _cli(sc, argv),
              lambda text: _expect(" ".join(argv), text.strip(), str(want)))


def _paths(sc, rng) -> list[Op]:
    steps = str(BALLOT_STEPS)
    cap, cap_end = rng.randrange(30, 91), 2 * rng.randrange(0, 6)
    exact, exact_end = rng.randrange(30, 91), 2 * rng.randrange(0, 6)
    row = oracles.super_catalan_row(TABLE_M, TABLE_NMAX)
    table = ["table", "--m", str(TABLE_M), "--nmax", str(TABLE_NMAX)]
    ops = [
        _count_op(sc, ["count", "ballot", "--steps", steps],
                  oracles.strip_count(BALLOT_STEPS, 0)),
        _count_op(sc, ["count", "ballot", "--steps", steps, "--end-level",
                       str(cap_end), "--max-height", str(cap)],
                  oracles.strip_count(BALLOT_STEPS, cap_end, cap)),
        _count_op(sc, ["count", "ballot", "--steps", steps, "--end-level",
                       str(exact_end), "--exact-height", str(exact)],
                  oracles.exact_height_count(BALLOT_STEPS, exact_end, exact)),
        _count_op(sc, ["count", "pairs", "--n", str(PAIR_N), "--diff", "1"],
                  oracles.pair_count(PAIR_N, 1)),
        _count_op(sc, ["count", "pairs", "--n", str(PAIR_N), "--diff", str(PAIR_N)],
                  oracles.pair_count(PAIR_N, PAIR_N)),
        Op(" ".join(table), lambda: _cli(sc, table),
           lambda text: _expect("table row", [int(v) for v in text.split()], row)),
    ]
    ops += _roundtrip_ops(sc, rng, PATHS_ROUNDTRIPS)
    for semilength in SVG_SEMILENGTHS:
        d = oracles.random_dyck(rng, semilength)
        ops.append(Op(f"bijection CLI with SVG n={semilength}",
                      lambda d=d, n=semilength: _svg_roundtrip(sc, d, str(n)),
                      _check_svg_roundtrip(d), roundtrips=1))
    return ops


def build(workload: str, seed: int, sc) -> list[Op]:
    """The operations of one round of `workload`, with inputs from `seed`."""
    rng = random.Random(seed)
    os.makedirs(OUT, exist_ok=True)
    if workload == "catalogue-default":
        return _catalogue(sc, rng, workload, ["verify", "all", "--format", "json"],
                          DEFAULT_ORDERS)
    if workload == "catalogue-deep":
        return _catalogue(sc, rng, workload, ["verify", "all", "--order", str(DEEP_ORDER),
                                    "--format", "json"],
                          dict.fromkeys(IDENTITIES, DEEP_ORDER))
    if workload == "paths":
        return _paths(sc, rng)
    raise ValueError(f"unknown workload {workload!r}")


def spot_checks(sc) -> list[str]:
    """Untimed checks of library functions at sample points."""
    problems = []
    for k in (0, 1, 2, 4, 7):
        series = sc.dyck_gf(k).expand(40)
        for s in range(41):
            want = oracles.strip_count(s, 0, k)
            if series.coefficient(s) != want:
                problems.append(f"dyck_gf({k}) at t^{s}: {series.coefficient(s)} != {want}")
    cat = sc.catalan_series(30)
    for n in range(31):
        if cat.x_coefficient(n) != oracles.catalan(n):
            problems.append(f"catalan_series at x^{n}")
    for m in (0, 1, 2, 3, 10, 50):
        row = oracles.super_catalan_row(m, 60)
        for n in (0, 1, 2, 7, 30, 60):
            if m == n == 0:
                continue
            got = sc.super_catalan(m, n) * (2 if m == 0 else 1)
            if got != row[n]:
                problems.append(f"super_catalan({m}, {n})")
    return problems

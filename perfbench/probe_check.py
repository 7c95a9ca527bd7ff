"""Checks that times rescaled by the speed probe follow the program.

    python3 perfbench/probe_check.py

Runs from the root of a checkout, in one process under the probe, as run.py
measures.  Two checks:

1. Planted slowdown.  Takes the operations of `catalogue-default`
   (seed 1) and alternates running them as they are and with a plant:
   `verify all` runs twice in its operation, and one round trip in four
   runs twice.  The planted verify time must read 2 times the plain one,
   and the planted `roundtrips_per_s` 0.8 times.  The verify operation and
   the 300 round trips are timed in separate rounds: the round trips take
   only about 30 ms, and pairs of them must be many to be timed steadily.
2. Working set.  Alternates quarter-second phases that read a list of
   4 M distinct ints at random places (about 150 MB, far beyond the
   caches) and a list of 2000 of them.  A probe that ran slower after
   cache-cold program work would make a program with a larger working set
   read faster, and one with a smaller working set slower; the probe's
   loop time must read the same in both phases.

Each figure is the median over pairs of adjacent phases of the planted (or
large) one over the plain (or small) one, so that the host's slow spells,
which last seconds, mostly cancel; the raw ratio is printed for comparison.
Exits 1 if a median ratio is off by more than TOLERANCE.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import statistics
import sys
from time import perf_counter

import probe
import workloads
from run import run_round

VERIFY_PAIRS, ROUNDTRIP_PAIRS = 6, 100
TOLERANCE = 0.05
WS_INTS, WS_SMALL, WS_READS, WS_PHASE_S, WS_PAIRS = 4_000_000, 2000, 100_000, 0.25, 24


def _twice(run):
    def planted():
        run()
        return run()
    return planted


def _plant(ops):
    verify, *roundtrips = ops
    return [dataclasses.replace(verify, run=_twice(verify.run))] + [
        dataclasses.replace(op, run=_twice(op.run)) if i % 4 == 0 else op
        for i, op in enumerate(roundtrips)]


def _summary(label: str, ratios: list[float], want: float,
             raw: list[float] | None = None) -> bool:
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    ok = abs(median / want - 1) <= TOLERANCE
    print(f"{label:34s} want {want:.3f}  got {median:.3f} "
          f"(quartiles {q1:.3f}..{q3:.3f})"
          + (f"  raw {statistics.median(raw):.3f}" if raw else "")
          + f"  {'ok' if ok else 'OFF'}")
    return ok


def _pairs(ops, planted, pairs: int, speed: probe.SpeedProbe):
    """(plain round, planted round) for each pair, run in alternating order."""
    for pair in range(pairs):
        rounds = {}
        for round_ops in ((ops, planted) if pair % 2 == 0 else (planted, ops)):
            gc.collect()
            result = run_round(round_ops, speed, None)
            if result.failed or result.problems:
                raise SystemExit(f"a round failed: {result.problems[:3]}")
            rounds[round_ops is planted] = result
        yield rounds[False], rounds[True]


def planted_slowdown(sc, speed: probe.SpeedProbe) -> bool:
    ops = workloads.build("catalogue-default", 1, sc)
    planted = _plant(ops)
    verify = list(_pairs(ops[:1], planted[:1], VERIFY_PAIRS, speed))
    trips = list(_pairs(ops[1:], planted[1:], ROUNDTRIP_PAIRS, speed))
    return (_summary("verify time, verify run twice",
                     [slow.main_scaled / plain.main_scaled for plain, slow in verify], 2.0,
                     [slow.main_time / plain.main_time for plain, slow in verify])
            & _summary("roundtrips_per_s, 1 in 4 twice",
                       [slow.roundtrip_rate / plain.roundtrip_rate for plain, slow in trips],
                       0.8, [slow.raw_roundtrip_rate / plain.raw_roundtrip_rate
                             for plain, slow in trips]))


def _read(data: list[int], places: list[int]) -> int:
    total = 0
    for i in places:
        total += data[i]
    return total


def working_set(speed: probe.SpeedProbe) -> bool:
    rng = random.Random(1)
    large = [10**12 + 7919 * i for i in range(WS_INTS)]
    small = large[:WS_SMALL]
    places = [rng.randrange(WS_INTS) for _ in range(WS_READS)]
    phases = ((large, places), (small, [i % WS_SMALL for i in places]))
    ratios: dict[str, list[float]] = {kernel: [] for kernel in probe.KERNELS}
    raw = []
    for _ in range(WS_PAIRS):
        means, reads = [], []
        for data, where in phases:
            first = {kernel: len(taken) for kernel, taken in speed.samples.items()}
            start, count = perf_counter(), 0
            while perf_counter() - start < WS_PHASE_S:
                _read(data, where)
                count += 1
            means.append({kernel: probe.trimmed_mean(taken[first[kernel]:])
                          for kernel, taken in speed.samples.items()})
            reads.append(count)
        for kernel in probe.KERNELS:
            ratios[kernel].append(means[0][kernel] / means[1][kernel])
        raw.append(reads[1] / reads[0])
    print(f"(the program's own reads ran {statistics.median(raw):.2f} times "
          "slower in the large phase)")
    ok = True
    for kernel, values in ratios.items():
        ok &= _summary(f"{kernel} loop time, large/small set", values, 1.0)
    return ok


def main() -> int:
    workloads.require_source()
    sc = workloads.load_program()
    with probe.SpeedProbe() as speed:
        ok = planted_slowdown(sc, speed)
        ok &= working_set(speed)
    print("probe follows the program" if ok else "probe does NOT follow the program")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""supercat benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paths --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports supercat from its `src/`.  It
repeats whole rounds of the workload's operations until `--seconds` have
passed, timing each operation from outside and checking its output against
the oracles.  Before and after the rounds it times a batch of fresh
interpreters until `supercat.cli` is imported (`setup_s`).  Times are
rescaled to the host's reference speed by the in-process probe of probe.py.  The last line of output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics of a traced round with
`--trace 1`.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ast
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import probe
import workloads
from tracer import Tracer

# interpreter starts timed for setup_s in each of the two batches
SETUP_BATCH = 16
READY = "supercat.cli ready"


MIN_SAMPLES = 10
WINDOW_TICKS = 32


@dataclass
class Round:
    """One pass over a workload's operations.

    `*_time` are raw wall seconds with the probe's own time taken out;
    `*_scaled` are the same times rescaled by the probe.  The bijection
    phase holds the operations that complete round trips.
    """
    main_time: float = 0.0
    roundtrip_time: float = 0.0
    main_scaled: float = 0.0
    roundtrip_scaled: float = 0.0
    roundtrips: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None

    @property
    def raw_wall(self) -> float:
        return self.main_time + self.roundtrip_time

    @property
    def wall(self) -> float:
        return self.main_scaled + self.roundtrip_scaled

    @property
    def roundtrip_rate(self) -> float:
        return self.roundtrips / self.roundtrip_scaled

    @property
    def raw_roundtrip_rate(self) -> float:
        return self.roundtrips / self.roundtrip_time


def measure_setup() -> list[float]:
    """Times from starting an interpreter to supercat.cli imported, each
    rescaled by probe loops the child runs just after."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([workloads.SRC, workloads.HERE]))
    code = (f"import supercat.cli; print({READY!r}, flush=True); import probe; "
            "print(repr([probe.time_kernel(probe.INT) for _ in range(200)]))")
    times = []
    for _ in range(SETUP_BATCH + 1):  # the first one may compile bytecode
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=workloads.ROOT,
                              env=env, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            elapsed = perf_counter() - start
            rest = child.stdout.read()
        if child.returncode != 0 or line != READY:
            raise workloads.ProgramMissing("a fresh interpreter could not import supercat.cli")
        times.append(elapsed * probe.scale(probe.INT, ast.literal_eval(rest)))
    return times[1:]


def rescale(speed: probe.SpeedProbe, kernel: str, first: int, last: int,
            seconds: float) -> float:
    """`seconds` spent over probe ticks first..last-1, rescaled window by
    window of WINDOW_TICKS ticks.  An interval with fewer than MIN_SAMPLES
    ticks uses the latest MIN_SAMPLES samples instead."""
    taken = speed.samples[kernel]
    if last - first < MIN_SAMPLES:
        recent = taken[max(0, last - MIN_SAMPLES):last]
        if not recent:  # nothing sampled yet in this run
            recent = [probe.time_kernel(kernel) for _ in range(MIN_SAMPLES)]
        return seconds * probe.scale(kernel, recent)
    starts = list(range(first, last, WINDOW_TICKS))
    if len(starts) > 1 and last - starts[-1] < WINDOW_TICKS // 2:
        starts.pop()  # fold a short tail into the window before it
    bounds = starts + [last]
    return sum(seconds * (b - a) / (last - first) * probe.scale(kernel, taken[a:b])
               for a, b in zip(bounds, bounds[1:]))


def run_round(ops, speed: probe.SpeedProbe, tracer: Tracer | None) -> Round:
    result = Round()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        result.attempted += 1
        first = len(speed.cost)
        start = perf_counter()
        try:
            output, error = op.run(), None
        except (Exception, SystemExit) as exc:
            output, error = None, exc
        elapsed = perf_counter() - start
        last = len(speed.cost)
        elapsed -= sum(speed.cost[first:last])
        scaled = rescale(speed, op.kind, first, last, elapsed)
        if error is not None:
            result.failed += 1
            result.problems.append(f"{op.label}: failed: {error!r}"[:300])
        else:
            try:
                problem = op.check(output)
            except Exception as exc:  # malformed output is a wrong output
                problem = f"unreadable output: {exc!r}"[:300]
            if problem:
                result.problems.append(f"{op.label}: {problem}")
        if op.roundtrips:
            result.roundtrip_time += elapsed
            result.roundtrip_scaled += scaled
            result.roundtrips += op.roundtrips
        else:
            result.main_time += elapsed
            result.main_scaled += scaled
    return result


def layer_metrics(tracer: Tracer, scale: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced round, by name, with units; times
    are rescaled by the round's overall scale."""
    agg = tracer.aggregate()
    calls, total, self_s = agg["calls"], agg["total"], agg["self"]
    counters = tracer.counters
    metrics = {f"identities.{ident}.s": (total[f"identities.{ident}"], "s")
               for ident in workloads.IDENTITIES}
    for name in ("series.mul", "series.invert", "height_gf.expand",
                 "counting.count_table", "counting.super_catalan",
                 "lattice_paths.enumerate"):
        metrics[f"{name}.calls"] = (calls[name], "count")
    for name in ("series.mul", "series.invert", "series.sqrt",
                 "series.bitrunc.mul", "series.bitrunc.invert",
                 "height_gf.expand", "height_gf.quotient_arith",
                 "counting.count_table", "counting.super_catalan",
                 "counting.pair_count", "bijection.forward", "bijection.inverse",
                 "bijection.trace", "bijection.restricted_pairs", "svg.render",
                 "cli.main"):
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics["lattice_paths.enumerate.self_s"] = (
        self_s["lattice_paths.enumerate"] + self_s["lattice_paths.enumerate_dyck"], "s")
    for name in ("series.coeffs.out", "series.coeffs.boxed_int",
                 "counting.count_table.cells", "lattice_paths.enumerate.paths"):
        metrics[name] = (counters[name], "count")
    metrics["series.coeff_bits.max"] = (counters["series.coeff_bits.max"], "bit")
    return {name: (value * scale if unit == "s" else value, unit)
            for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="supercat benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads.require_source()
        setup_times = measure_setup()
        sc = workloads.load_program()
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, sc)
    try:
        problems = workloads.spot_checks(sc)
    except Exception as exc:  # a library function that raises is a wrong output
        problems = [f"spot checks raised {exc!r}"]

    rounds: list[Round] = []
    tracer = None
    start = perf_counter()
    with probe.SpeedProbe() as speed:
        while True:
            # every round starts from the same heap, as a fresh CLI process
            # would; without this the peak RSS of catalogue-deep settled at
            # 39.8 or 44.5 MB depending on where the collector had got to
            gc.collect()
            if args.trace and len(rounds) % 2 == 1:
                tracer = Tracer()
                tracer.install(sc)
                round_start = perf_counter()
                try:
                    result = run_round(ops, speed, tracer)
                finally:
                    tracer.uninstall()
                result.layers = layer_metrics(tracer, result.wall / result.raw_wall)
            else:
                result = run_round(ops, speed, None)
            rounds.append(result)
            if perf_counter() - start >= args.seconds and (
                    not args.trace or tracer is not None):
                break

    for r in rounds:
        problems.extend(r.problems)
    print("rounds (raw s / rescaled s / round trips per rescaled s, * traced): "
          + " ".join(f"{r.raw_wall:.3f}/{r.wall:.3f}/{r.roundtrip_rate:.0f}"
                     f"{'*' if r.layers else ''}" for r in rounds), file=sys.stderr)
    for problem in dict.fromkeys(problems):
        print(f"check: {problem}", file=sys.stderr)
    if tracer is not None:
        for error, calls in tracer.hook_errors.items():
            print(f"tracer: counting hook failed {calls} times: {error}", file=sys.stderr)

    plain = [r for r in rounds if r.layers is None]
    if args.trace:
        traced = [r for r in rounds if r.layers is not None]
        metrics = {name: {"value": statistics.median(r.layers[name][0] for r in traced),
                          "unit": unit}
                   for name, (_, unit) in traced[0].layers.items()}
        metrics["trace.overhead_s"] = {
            "value": (statistics.median(r.wall for r in traced)
                      - statistics.median(r.wall for r in plain)), "unit": "s"}
        metrics["raw.wall_s"] = {
            "value": statistics.median(r.raw_wall for r in plain), "unit": "s"}
        tracer.write(os.path.join(workloads.OUT, f"spans-{args.workload}.json"), round_start)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # a second batch, some seconds after the first, so that one slow
        # spell of the host does not move the whole median
        setup_times += measure_setup()
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
            "roundtrips_per_s": {
                "value": statistics.median(r.roundtrip_rate for r in plain), "unit": "1/s"},
        }
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    if not args.trace:  # the same medians without rescaling, for comparison
        print(f"{'raw wall_s':36s} {statistics.median(r.raw_wall for r in plain):.6g} s\n"
              f"{'raw roundtrips_per_s':36s} "
              f"{statistics.median(r.raw_roundtrip_rate for r in plain):.6g} 1/s",
              file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

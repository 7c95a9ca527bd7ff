"""Steadiness check: run the benchmark over several seeds and report spreads.

    python3 perfbench/steady.py [--workloads paths ...] [--seeds 10] [--first-seed 1]

Runs `run.py --trace 0` once per seed on each workload, one run at a time, and
prints, for every end-to-end metric, the median of the runs and the spread:
the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median.  A spread is
steady when it is below a third of the metric's bound in BENCHMARK.json.  The
share of failed operations must be the same in every run.  The raw results go
to out/steady-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import OUT, ROOT


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    raw: dict[str, list] = {}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)
        raw[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            steady = False
        print(f"\n{workload}: failed shares {sorted(shares)}, "
              f"all correct {all(r['correct'] for r in runs)}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            ok = spread < metric["bound"] / 3
            steady = steady and ok
            print(f"  {metric['name']:18s} median {statistics.median(values):10.5g} "
                  f"{metric['unit']:4s} spread {spread:6.3f}  bound {metric['bound']}"
                  f"  {'ok' if ok else 'TOO WIDE'}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"steady-{args.first_seed}.json"), "w") as handle:
        json.dump(raw, handle, indent=1)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

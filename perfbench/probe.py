"""In-process speed probe: rescales measured times to a reference speed.

The benchmark's host runs the same code up to 1.7 times slower for seconds
at a time (a busy neighbour on the same core, as far as can be seen from
inside), which moves raw wall times by far more than any bound worth having.
`SpeedProbe` runs two fixed loops from a SIGALRM timer every 3 ms in the
measuring thread itself, so each sample shows the speed of the core the
program is on at that moment.  Dividing a loop's reference time by the
trimmed mean of its samples over an interval gives that interval's scale:
a time multiplied by it reads as if the host ran at the speed at which the
loop takes its reference time, this host's speed when nothing else runs on
the core.  Program changes do not move the scale, because the probe runs
none of the program's code.

How much a slow spell slows code depends on what the code does, so each
operation names the loop whose work is most like its own: `FRACTION`
(Fraction products of 64-bit integers: allocation, gcd, big-int products)
for the series-heavy identity checks, `INT` (a small-int loop) for the
path, counting and bijection commands.  In tests on this host, rescaling
with the other loop left up to five times more spread.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.003

_OPERANDS = [Fraction(3 ** 40 + i) for i in range(8)]


def _fraction_loop() -> Fraction:
    acc = Fraction(0)
    for a in _OPERANDS:
        acc += a * _OPERANDS[1]
    return acc


def _int_loop() -> int:
    x = 0
    for i in range(300):
        x += i * i
    return x


# kernel name: (loop, reference time in seconds)
KERNELS = {"fraction": (_fraction_loop, 25e-6), "int": (_int_loop, 13e-6)}
FRACTION, INT = "fraction", "int"


def time_kernel(kernel: str) -> float:
    loop = KERNELS[kernel][0]
    start = perf_counter()
    loop()
    return perf_counter() - start


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values between the 10th and 90th percentile."""
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


def scale(kernel: str, samples: list[float]) -> float:
    return KERNELS[kernel][1] / trimmed_mean(samples)


class SpeedProbe:
    """Collects, while installed, one sample of each kernel per tick:
    `samples[kernel]` lists the durations, `cost` their sum, in tick order."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {kernel: [] for kernel in KERNELS}
        self.cost: list[float] = []

    def _tick(self, signum, frame) -> None:
        total = 0.0
        for kernel, taken in self.samples.items():
            duration = time_kernel(kernel)
            taken.append(duration)
            total += duration
        self.cost.append(total)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

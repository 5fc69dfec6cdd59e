"""Machine-speed calibration for the benchmark's timings.

On the 2-vCPU VM this benchmark was built on, a fixed pure-Python loop
runs up to 1.8 times slower for minutes at a time, and CPU time slows as
much as wall time, so raw wall times from two runs cannot be compared.
Every timed call is therefore bracketed by two speed samples of the loop
below, and its time is reported at reference speed: scaled as if the loop
had taken ``REFERENCE_S``. On a machine whose speed holds still, that is
the wall time times a constant.

The loop uses only the interpreter and small integers, so nothing in the
package under test can change its speed.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.0025  # the loop's time on the VM in its faster phases
_ITERATIONS = 30_000
_REPEATS = 3


def _loop() -> int:
    s = 0
    for i in range(_ITERATIONS):
        s += i * i % 7
    return s


def speed_sample() -> float:
    """Median time of a few runs of the loop: the machine's current speed."""
    times = []
    for _ in range(_REPEATS):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two samples to reference speed."""
    return REFERENCE_S / ((before + after) / 2)

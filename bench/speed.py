"""Machine-speed calibration for the time metrics.

On a shared machine the speed of one process drifts by 10-20 % over
tens of seconds.  On the 2-core machine the benchmark was tuned on,
repeating one seed gave pass wall times 20 % apart between quartiles,
so differences between commits would be lost in the drift.

So a fixed piece of pure-Python work, which never touches the package,
runs right before and right after each timed piece (an instance, a
command, a set-up round).  Each duration is scaled by ``REF_S`` over
the mean of the two calibrations: the result is seconds at the speed
of a machine on which the calibration takes ``REF_S``.  A change to
the package moves these figures as it moves wall time; a change in the
machine's speed does not.  The raw wall times are kept in each run's
record.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.001  # calibration time on the 2-core machine the benchmark was tuned on


def _work_s() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(7000):
        acc += i * i
    table = {}
    for i in range(1300):
        table[i] = (i, acc & i)
    wide = (1 << 65536) - 1
    for shift in range(0, 320, 4):
        acc |= wide << shift
    return time.perf_counter() - start


def calibration_s() -> float:
    """Seconds taken by the calibration work: an interpreter loop, small
    allocations, and shifts of 8 KiB integers, like the solvers do.

    The fastest of three rounds, so that a page fault or an interrupt
    in one round does not count as a slow machine.
    """
    return min(_work_s() for _ in range(3))


def to_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two calibrations, at reference speed."""
    return seconds * 2.0 * REF_S / (before + after)


def rounds_to_reference(raw: list, calibrations: list) -> list:
    """Set-up rounds at reference speed, all scaled by the median of the
    calibrations around them.  There are only a few rounds, so one pair
    of calibrations per round would leave its own jitter in the median."""
    scale = REF_S / statistics.median(calibrations)
    return [seconds * scale for seconds in raw]

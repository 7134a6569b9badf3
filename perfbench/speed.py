"""The machine-speed reference that the operation times are scaled by.

The shared 2-core host this benchmark was tuned on changes speed by up to
40% over minutes: one `mlpoly verify` process took 1.3 s in one minute and
2.3 s a few minutes later, its CPU time moving alike, and no statistic of
wall time taken within a 40 s run (median, p90, mean or minimum) spread less
than 13-25% between runs.  So every run also times a fixed kernel between
its operations: exact `fractions.Fraction` and big-integer arithmetic, the
kind of work that takes most of mlpoly's time, but none of mlpoly's code.
A run's operation times are reported at reference speed:

    reported = measured * REFERENCE_S / median(kernel times of the run)

Over 25 runs of `verify-default` the median verify time followed the
kernel's median with a correlation of 0.80, and this scaling halved the
spread of the median latency between runs.  A change to mlpoly cannot move
the kernel, so its gain or loss shows in full.  The measured values are
printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# median kernel time on the machine the benchmark was tuned on (a 2-core
# virtual machine reporting an "Intel(R) Xeon(R) Processor", Python 3.11.7)
REFERENCE_S = 0.055


def kernel_s() -> float:
    """Wall time of one pass of the fixed kernel."""
    start = perf_counter()
    acc = Fraction(0)
    for k in range(1, 2200):
        acc += Fraction(k, k * k + 1) * Fraction(3, k + 2)
    x = 1
    for k in range(3000):
        x = (x * 3 + k) % (1 << 4000) * 7
    return perf_counter() - start


def factor(samples: list[float]) -> float:
    """What a run's timings are multiplied by: REFERENCE_S over the median
    kernel time."""
    return REFERENCE_S / statistics.median(samples)

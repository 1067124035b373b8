"""CPU-time clock and machine-speed calibration.

Every time the benchmark reports is CPU time, read by `clock`: the benchmark
process's own plus that of the child processes it has waited for.  Wall time
would also count the time spent waiting for a CPU.

CPU time alone still moves with the machine.  On a VM whose cores are shared
with other tenants, the same batch can cost up to half as much CPU time
again in a busy minute as in a quiet one.  So each run also times a fixed
reference job, which uses no code of the program, between its batches.  A
reported time is the measured CPU time scaled by REFERENCE_S / (median
reference time measured alongside it): CPU time at the speed at which the
reference job takes REFERENCE_S.  A change to the program moves the figure
in proportion; a slower minute of the machine moves both the measurement and
the reference, and mostly cancels.
"""

from __future__ import annotations

import resource
import statistics
from fractions import Fraction
from time import process_time

# CPU seconds of one `reference_job` on the machine the first baseline was
# taken on (2-core x86_64 VM, 2.1 GHz, Python 3.11.7), typical over its runs.
REFERENCE_S = 0.009
# Reference jobs timed before each measured stretch (set-up pass or batch).
REFERENCE_REPEATS = 2


def clock() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def reference_job() -> dict:
    """A fixed pure-Python job like the program's inner loops: a 12 x 12
    product of rationals, with the residues of each entry kept in a dict."""
    rows = [[Fraction(7 * i + j, j + 1) for j in range(12)] for i in range(12)]
    seen = {}
    for r in range(12):
        for c in range(12):
            x = sum((rows[r][k] * rows[k][c] for k in range(12)), Fraction(0))
            seen[(r, c)] = (x.numerator % 101, x.denominator % 101)
    return seen


def time_reference(samples: list[float]) -> None:
    """Time REFERENCE_REPEATS reference jobs and append their CPU seconds."""
    for _ in range(REFERENCE_REPEATS):
        start = clock()
        reference_job()
        samples.append(clock() - start)


def scale(samples: list[float]) -> float:
    """Factor that turns CPU time measured alongside `samples` into CPU time
    at the reference speed."""
    return REFERENCE_S / statistics.median(samples)

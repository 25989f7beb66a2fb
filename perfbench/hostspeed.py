"""Host-speed reference for the benchmark's timings.

The hosts this benchmark runs on share their cores: the same job, repeated
back to back, runs up to 1.7 times slower in phases that last from seconds
to minutes, so a 30 s run can sit wholly inside a slow phase.  Each timing
is therefore paired with the time of a fixed reference computation taken
next to it, and reported at the reference's nominal speed:

    corrected = measured * REFERENCE_S / reference time

The reference is pure-Python big-integer and Fraction arithmetic, like most
of what the jobs do, and shares no code with cpmoments, so a change to the
package moves the corrected time exactly as it moves the measured one.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Median time of one reference_work() call on the host the figures in
# README.md come from (2-vCPU KVM guest, Python 3.11.7).
REFERENCE_S = 0.0034


def reference_work() -> Fraction:
    """The harmonic number H_800 as an exact Fraction."""
    return sum((Fraction(1, k) for k in range(1, 801)), Fraction(0))


def reference_time() -> float:
    """Wall seconds of one reference_work() call."""
    start = perf_counter()
    reference_work()
    return perf_counter() - start


class Brackets:
    """Reference timings between consecutive jobs.

    Create it just before the first job and call ``scale()`` right after each
    job: it times the reference once more and returns REFERENCE_S over the
    mean of the reference times just before and just after that job.
    """

    def __init__(self) -> None:
        self._before = reference_time()

    def scale(self) -> float:
        after = reference_time()
        mean, self._before = (self._before + after) / 2, after
        return REFERENCE_S / mean

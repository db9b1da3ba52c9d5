"""Calibrated time: take the host's speed swings out of a measurement.

On a shared host the same Python work can run 1.5x slower for seconds
at a time while a neighbour loads the core, so raw wall times of
identical runs spread by 20-30%.  :class:`SpeedProbe` measures that
swing while the benchmark runs: every ``INTERVAL_S`` a timer signal runs
:func:`kernel`, a fixed slice of interpreter work, in the main thread and
records the thread CPU time it took.  CPU time leaves out waits for a
core, so what is left is how fast the core ran.  Over a pass, the mean
kernel time, with the fastest and slowest ``TRIM`` of the samples left
out, divided by ``REF_KERNEL_S`` is the pass's slowdown; wall time
divided by the slowdown is the pass's time at the reference speed.

A mean, not a median: while the host swings, kernel times split into a
fast and a slow group, and a median reports one of them where the pass
ran at both.  Trimming keeps a few disturbed samples from moving it.
The kernel allocates nothing the garbage collector tracks, so a
collection the program has made due never runs inside a sample.  Its
cost, about 0.5% of a core, is the same on every run.
``test_selftest.py`` checks that work added to the program shows in
calibrated time in full.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

#: Unrecorded kernel runs on entry, so the interpreter has specialised
#: the kernel's bytecode before the first sample.
WARMUP = 20
#: Seconds between kernel samples.
INTERVAL_S = 0.02
#: Share of the samples left out at each end of the sorted kernel times.
TRIM = 0.1
#: One kernel's CPU time on an uncontended core of the reference host
#: (2-vCPU x86_64 VM, CPython 3.11).  Only a scale: calibrated times
#: stay comparable across runs on any one host whatever its value.
REF_KERNEL_S = 8.5e-5

_clock = time.perf_counter
_cpu = time.thread_time


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


#: The one object the kernel touches, made once so a sample allocates
#: nothing.
_CELL = _Cell()


def kernel() -> int:
    """A fixed slice of interpreter dispatch: attribute loads and stores.

    It touches one object, so the program's memory traffic cannot evict
    its data; it runs the interpreter's dispatch loop, which is where the
    program spends its time too.
    """
    cell = _CELL
    total = 0
    for i in range(2000):
        total += cell.value
        cell.value = i & 7
    return total


class SpeedProbe:
    """Sample the kernel's speed on a timer while active.

    Use as a context manager around a measurement, then ask
    :meth:`slowdown` for any interval inside it.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous: object = None

    def _sample(self, signum: int, frame: object) -> None:
        start = _clock()
        cpu = _cpu()
        kernel()
        self.samples.append((start, _cpu() - cpu))

    def __enter__(self) -> "SpeedProbe":
        for _ in range(WARMUP):
            kernel()
        self._sample(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Trimmed mean kernel time over ``[start, end]``, relative to the
        reference.

        Raises ``ValueError`` if no sample fell inside the interval.
        """
        # The sample taken on entry counts for an interval starting
        # right after it.
        start = min(start, self.samples[0][0])
        inside = sorted(d for t, d in self.samples if start <= t <= end)
        if not inside:
            raise ValueError("no speed sample inside the interval")
        cut = int(len(inside) * TRIM)
        kept = inside[cut:len(inside) - cut]
        return statistics.fmean(kept) / REF_KERNEL_S

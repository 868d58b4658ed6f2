"""Speed of the benchmark's CPU, sampled while operations run.

On a shared host the same work runs up to about twice as slow in stretches
of a fraction of a second to minutes, as the host's other tenants load it,
and each CPU of the machine has its own stretches.  Whole runs then
land in fast or slow stretches, and their wall times spread far more than
any change to the program would move them.

So the harness pins itself and its child processes to one CPU
(``pin_to_one_cpu``) and a ``SpeedSampler`` thread runs a fixed loop on that
CPU every ``INTERVAL_S``.  The loop makes small numpy calls from Python, as
the program's per-day loops do: of the loops tried (pure-Python arithmetic,
float formatting, large-array sums, small numpy calls), it tracked the
operations' times best.  The sampler records the loop's thread CPU time,
which leaves out the time the thread waits while an operation runs: a sample
says how fast the core is at that moment, not how busy it is.  An
operation's calibrated wall time is its wall time times ``REF_LOOP_S`` over
the mean loop time during the operation: the time it would take on a core
that runs the loop in ``REF_LOOP_S``.  The samples take about 2% of the CPU.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

# Loop time of the reference core that calibrated wall times refer to.
REF_LOOP_S = 1.0e-3
INTERVAL_S = 0.05
LOOP_ITERATIONS = 300
_MATRIX = np.eye(3)
_VECTOR = np.ones(3)


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and so every thread and child it starts later,
    to the highest-numbered CPU it may use."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _loop() -> float:
    x, total = _VECTOR, 0.0
    for _ in range(LOOP_ITERATIONS):
        x = _MATRIX @ x + 0.5 * _VECTOR
        total += float(x[0])
    return total


def sample() -> tuple:
    """(perf_counter at the start, thread CPU seconds) of one loop."""
    start, cpu = time.perf_counter(), time.thread_time()
    _loop()
    return start, time.thread_time() - cpu


class SpeedSampler:
    """Samples the loop every ``interval`` seconds between enter and exit."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.samples.append(sample())

    def loop_s(self, start: float, end: float) -> float:
        """Mean loop time of the samples taken from ``start`` to ``end``
        (perf_counter seconds); of all samples if none fell in that window."""
        within = [s for t, s in self.samples if start <= t <= end]
        return statistics.fmean(within or [s for _, s in self.samples] or [sample()[1]])


def calibrated(wall_s: float, loop_s: float) -> float:
    return wall_s * REF_LOOP_S / loop_s

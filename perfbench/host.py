"""Host speed, sampled with a fixed pure-Python loop.

On a shared machine the processor itself speeds up and slows down: the
same cold sweep round took 3.2 s and 5.4 s minutes apart, with CPU time
equal to wall time in both.  A fixed loop slows in step with the
program, so :class:`HostSpeed` samples it between ops and scales each
stretch of wall time to a *nominal host*, one on which a pass of the loop
takes :data:`NOMINAL_PASS_MS`.  The loop runs no code of the program, so
a change to the program moves the scaled times exactly as it moves the
wall times.
"""

from __future__ import annotations

import statistics
import time

#: One pass of the reference loop on the nominal host, in ms: about the
#: median pass on the 2-vCPU, 2.1 GHz x86-64 machine (CPython 3.11) the
#: bounds in BENCHMARK.json were set on.
NOMINAL_PASS_MS = 1.5
#: Sample the host between ops at most this often.
SAMPLE_EVERY_S = 0.2


def ref_pass_ms() -> float:
    """One pass of a fixed pure-Python loop, in ms."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1000.0


class HostSpeed:
    """Reference-loop samples, grouped into segments.

    A segment runs from :meth:`start` to :meth:`scale`; its factor is the
    nominal pass time over the median pass sampled in it.  Callers call
    :meth:`tick` between ops, never inside one.
    """

    def __init__(self) -> None:
        self._passes: list[float] = []
        self._first = 0
        self._last_s = float("-inf")
        #: Seconds spent sampling, for timings that span several ops.
        self.sampling_s = 0.0

    def _sample(self) -> None:
        t0 = time.perf_counter()
        self._passes.append(ref_pass_ms())
        self._last_s = time.perf_counter()
        self.sampling_s += self._last_s - t0

    def tick(self) -> None:
        """Sample the host unless it was sampled within ``SAMPLE_EVERY_S``."""
        if time.perf_counter() - self._last_s >= SAMPLE_EVERY_S:
            self._sample()

    def start(self) -> None:
        """Begin a segment."""
        self._sample()
        self._first = len(self._passes) - 1

    def scale(self) -> float:
        """End the segment; returns the factor from its wall times to the
        nominal host's."""
        self._sample()
        return NOMINAL_PASS_MS / statistics.median(self._passes[self._first:])

    def seconds(self, work) -> float:
        """Scaled seconds of ``work()``, which may :meth:`tick` between its
        steps; the sampling time is left out."""
        self.start()
        sampled = self.sampling_s
        t0 = time.perf_counter()
        work()
        elapsed = time.perf_counter() - t0 - (self.sampling_s - sampled)
        return elapsed * self.scale()

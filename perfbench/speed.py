"""Machine-speed calibration: time spent in the program, scaled to a nominal speed.

The benchmark runs on shared machines whose speed drifts by up to a factor of
two within seconds.  A `Meter` times a fixed pure-Python reference unit (it
never calls the program) on a CPU-time interval timer, so samples are taken
between inputs and also inside long ones.  Each input's time is then scaled
by the mean of NOMINAL_S / (unit time) over the samples taken while it ran
and the NEAR nearest on either side: the time it would have taken at the speed
at which the unit takes NOMINAL_S.  Time spent in the unit is excluded from
`Meter.clock`, which the measured loop and the span tracer both read.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_S = 0.003  # the unit's time at nominal speed (about its median on a 2-CPU Xeon)
PERIOD_S = 0.025  # CPU seconds between samples; the speed changes within 0.1 s
NEAR = 3  # samples on either side of an input that also set its factor


def unit() -> int:
    """The reference work: bitmask closure, linear extensions, dict churn."""
    n = 8
    up = [0] * n
    x = 2654435761
    for i in range(n):
        for j in range(i + 1, n):
            x = (x * 1103515245 + 12345) % 2**31
            if x % 10 < 3:
                up[i] |= 1 << j
    for i in reversed(range(n)):
        m = up[i]
        for j in range(n):
            if m >> j & 1:
                m |= up[j]
        up[i] = m
    count = 0

    def extend(mask: int) -> None:
        nonlocal count
        if mask == (1 << n) - 1:
            count += 1
            return
        for v in range(n):
            if not mask >> v & 1 and all(
                not up[u] >> v & 1 or mask >> u & 1 for u in range(n)
            ):
                extend(mask | 1 << v)

    extend(0)
    seen: dict[int, int] = {}
    for k in range(500):
        seen[k * 7 % 311] = seen.get(k * 7 % 311, 0) + 1
    return count + len(set(seen.values()))


class Meter:
    """Samples of the unit's time, taken on SIGPROF every PERIOD_S of CPU time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds spent in the unit so far
        self._busy = False

    def clock(self) -> float:
        """perf_counter minus the time spent in the unit; safe against a sample landing mid-read."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            unit()
        finally:
            # a deadline raised inside the unit drops the sample but keeps the clock right
            elapsed = time.perf_counter() - t0
            self.spent += elapsed
            self._busy = False
        self.samples.append(elapsed)

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()

    def mark(self) -> int:
        """The index the next sample will get; take one before and one after an input."""
        return len(self.samples)

    def recent_factor(self) -> float:
        """Nominal over actual speed over the last few samples."""
        return statistics.fmean(NOMINAL_S / s for s in self.samples[-2 * NEAR:])

    def factor(self, first: int, end: int) -> float:
        """Nominal over actual speed for an input that ran while samples [first, end) were taken."""
        near = self.samples[max(0, first - NEAR): end + NEAR]
        return statistics.fmean(NOMINAL_S / s for s in near)

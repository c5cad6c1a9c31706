"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds and minutes; CPU time drifts with wall time, so the
machine executes more slowly, not less often.  To take that drift out of
the figures, the worker samples the machine's speed all through a pass by
timing ``reference()``, a fixed pure-Python loop that never touches
necsurf: once just before every op, once after the last, and, in an
untraced pass, once every ``TICK_S`` of wall time from a timer signal, so
that long ops are sampled from inside.  Each latency is then scaled to a
machine on which ``reference()`` takes exactly ``REFERENCE_S``, using the
median of the samples taken during and around that op.

Standard library only; ``run.py`` uses it for set-up times and
``worker.py`` for op latencies.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time

# nominal time of one reference() call: scaled timings read as if the
# machine ran reference() in exactly this time
REFERENCE_S = 1e-3
# wall time between two samples taken from a timer signal
TICK_S = 0.05
# samples on either side of an op that join those taken during it
WINDOW = 9
# untimed calls that warm the loop up before the first timed one
WARMUP = 20


def reference() -> int:
    """Fixed interpreter work: tuple keys, dict updates, int arithmetic,
    a sort.  Never change it: scaled timings are only comparable between
    runs of the same loop."""
    seen: dict[tuple[int, int], int] = {}
    items = []
    acc = 0
    for i in range(1500):
        key = (i % 89, (i * 7) % 61)
        seen[key] = seen.get(key, 0) + 1
        acc += math.gcd(i, 720) * (i & 7)
        items.append(key)
    items.sort()
    return acc + len(seen) + len(items)


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def warm_up() -> None:
    for _ in range(WARMUP):
        reference()


class SpeedLog:
    """The reference samples of one pass, as (start, seconds), in time order."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._busy = False

    def take(self) -> None:
        if self._busy:  # a tick that interrupts a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        reference()
        self.samples.append((t0, time.perf_counter() - t0))
        self._starts.append(t0)
        self._busy = False

    def within(self, t0: float, t1: float) -> float:
        """Seconds spent in samples that started between t0 and t1.  A
        sample runs to its end before the interrupted code goes on, so it
        lies wholly inside or wholly outside such an interval."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_right(self._starts, t1)
        return sum(d for _, d in self.samples[lo:hi])

    @contextlib.contextmanager
    def ticking(self):
        """Also take a sample every TICK_S of wall time, from SIGALRM."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.take())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def scale(latencies: list[float], intervals: list, samples: list) -> list[float]:
    """Latencies at reference speed.

    ``intervals[i]`` is the (start, end) of op ``i`` and ``samples`` the
    pass's (start, seconds) reference samples in time order.  The local
    speed of op ``i`` is the median of the samples taken during it and of
    the WINDOW samples on either side.
    """
    starts = [t for t, _ in samples]
    out = []
    for x, (t0, t1) in zip(latencies, intervals, strict=True):
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(starts, t1)
        near = samples[max(0, lo - WINDOW) : hi + WINDOW]
        if not near:
            raise ValueError("no reference sample near an op")
        out.append(x * REFERENCE_S / statistics.median(d for _, d in near))
    return out

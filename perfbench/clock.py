"""A clock that reads reference-speed seconds instead of wall seconds.

On a shared host the speed of one core swings by up to 2x within a second, as
other tenants come and go, and that swing shows in process CPU time as much
as in wall time.  It is far more than the bounds the benchmark must hold.
:class:`ReferenceClock` takes it out of the pass timings: while it runs, a
``SIGALRM`` every ``INTERVAL_S`` times a fixed pure-Python probe loop on the
interrupted thread, and the clock advances between two probes by the wall
time that passed (less the probe's own time) multiplied by
``PROBE_REF_S / probe_s``.  A pass that takes 2 s while the core runs at
half speed thus reads about 1 s.

The probe is timed in thread CPU time, so a process of the benchmark that
shares the CPU (the fleet stepping workers, the serve daemon) cannot inflate
it by preempting the probe.  It touches nothing of the program under test,
so no change to the program can move it.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between two probes.
INTERVAL_S = 0.05
#: Iterations of the probe loop, about 2.5 ms of work.
PROBE_ITERATIONS = 10_000
#: What one probe takes at the reference speed, in seconds.
PROBE_REF_S = 0.0025


def probe() -> float:
    """Thread CPU seconds that a fixed pure-Python loop takes right now."""
    start = time.thread_time()
    table: dict[int, int] = {}
    total = 0
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0) % 13
    return time.thread_time() - start


class ReferenceClock:
    """Reference-speed seconds since :meth:`start`, read by calling the clock.

    Only the main thread of a process can run it (it owns ``SIGALRM``), and
    only one at a time.  Readings are meaningful as differences.
    """

    def __init__(self) -> None:
        self.probes_s: list[float] = []
        # (reference seconds, wall seconds, rate): reference seconds up to
        # that wall time, and reference seconds per wall second after it.
        # One tuple, so a reading between two bytecodes of the handler never
        # mixes old and new values.
        self._state = (0.0, time.perf_counter(), 1.0)
        self._previous_handler = None

    def start(self) -> None:
        self._state = (0.0, time.perf_counter(), 1.0)
        self._tick()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def __call__(self) -> float:
        ref, wall, rate = self._state
        return ref + (time.perf_counter() - wall) * rate

    def _tick(self, *_signal) -> None:
        # Up to now at the rate of the last probe; the probe's own time
        # does not count.
        ref = self()
        probe_s = probe()
        self.probes_s.append(probe_s)
        self._state = (ref, time.perf_counter(), PROBE_REF_S / probe_s)

    def summary(self) -> dict[str, float]:
        """Median and quartiles of the probe times, for the detail line."""
        q1, median, q3 = statistics.quantiles(self.probes_s, n=4)
        return {"probes": len(self.probes_s), "q1_s": q1, "median_s": median, "q3_s": q3}

"""Reference seconds: wall time with the machine's slow periods discounted.

A shared machine runs the same code at different speeds from one second
to the next (the one that defined this benchmark switches between a fast
state and one 1.4-2x slower, for seconds and sometimes for minutes).  A
``Meter`` times a fixed loop of the benchmark's own, the probe, and
divides each stretch of wall time by how much slower the probe ran at its
two ends than its nominal time (to the power ``SLOWDOWN_EXPONENT``).
The result, reference seconds, is the time the same work takes while the
machine runs the probe at nominal speed.  The probe is not library code,
so a change to the library never changes it.

Ticks are taken on demand (around each item) and, between them, from a
``SIGPROF`` handler every ``SAMPLE_PERIOD_S`` of CPU time, so items that
run for seconds are followed through the speed changes inside them.
"""

import signal
import time

PROBE_ROUNDS = 4000
# the probe's time on the machine that defined the benchmark, fast state
PROBE_NOMINAL_S = 0.0006
SAMPLE_PERIOD_S = 0.02
# Library code slows by about this power of the probe's slowdown.  On the
# defining machine, fits over windows of a few seconds put it between 0.6
# and 1.1; whole runs read about right at 0.8 for the theorem checks and
# above 1 for the residue checks.
SLOWDOWN_EXPONENT = 0.9

_TABLE = {i: (i * 7919) & 1023 for i in range(4096)}


def discount(wall_s: float, slowdown: float) -> float:
    """Reference seconds for ``wall_s`` run at the given probe slowdown."""
    return wall_s / slowdown ** SLOWDOWN_EXPONENT


def probe() -> int:
    """The reference loop: integer arithmetic and dict lookups, no allocation."""
    table = _TABLE
    total = 0
    k = 1
    for _ in range(PROBE_ROUNDS):
        k = (k * 1103515245 + 12345) & 4095
        total += table[k]
    return total


class Meter:
    """Running count of reference seconds since the meter was made."""

    def __init__(self):
        self.reference_s = 0.0
        self.probe_s = 0.0  # wall time spent in the probe itself
        self._last_end = None
        self.slowdown = None  # at the latest tick
        self._ticking = False
        self.tick()

    def tick(self) -> float:
        """Probe the speed now; return the reference seconds so far.

        The stretch since the previous tick, probe times excluded, is
        discounted by the mean of the slowdowns measured at its two ends.
        """
        if self._ticking:  # the sampling signal arrived inside a tick
            return self.reference_s
        self._ticking = True
        try:
            start = time.perf_counter()
            probe()
            end = time.perf_counter()
            slowdown = (end - start) / PROBE_NOMINAL_S
            if self._last_end is not None:
                self.reference_s += discount(start - self._last_end,
                                             (self.slowdown + slowdown) / 2)
            self.probe_s += end - start
            self._last_end, self.slowdown = end, slowdown
        finally:
            self._ticking = False
        return self.reference_s

    def start_sampling(self) -> None:
        signal.signal(signal.SIGPROF, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

"""Simulated wall clock.

All timing results in the paper (file scans taking 30 s – 38 min, registry
scans 18–63 s, process scans 1–5 s, WinPE boot adding 1.5–3 min) are
reproduced against a simulated clock rather than the host's wall clock: scan
code *charges* time to the clock according to a cost model parameterized by
the machine profile.  This keeps every experiment deterministic and lets a
laptop reproduce the timing shape of a 95 GB workstation scan.

The clock epoch is an arbitrary "machine power-on" instant; values are
seconds as floats.
"""

from __future__ import annotations

import threading


class SimClock:
    """A monotonically advancing simulated clock.

    Thread-safe: machines scanned on different threads may share one
    clock, and ``advance`` is a read-modify-write that would lose
    charges if two scan threads raced it.

    >>> clock = SimClock()
    >>> clock.now()
    0.0
    >>> clock.advance(12.5)
    >>> clock.now()
    12.5
    """

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError("clock cannot start before the epoch")
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        """Return the current simulated time in seconds since the epoch."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward.  Negative advances are rejected."""
        if seconds < 0:
            raise ValueError(f"cannot move the clock backwards ({seconds})")
        with self._lock:
            self._now += seconds

    def stopwatch(self) -> "Stopwatch":
        """Return a stopwatch anchored at the current instant."""
        return Stopwatch(self)


class Stopwatch:
    """Measures simulated elapsed time from its creation instant."""

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._start = clock.now()

    def elapsed(self) -> float:
        """Seconds of simulated time since this stopwatch was created."""
        return self._clock.now() - self._start

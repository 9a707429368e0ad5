"""How fast the host runs Python right now, for scaling CPU times.

The host is shared: a neighbour's load can make the same CPU-bound work
take half again as long for minutes at a time, in CPU time as well as in
wall time.  A fixed probe, written here and independent of gibbskit, is
timed while the work runs, so it sees the same slow and fast periods: in
this process every PERIOD_S of wall time while armed, inside a long
operation as well as between short ones; for work done by a child
process, between children, in proportion to the child's CPU time.

End-to-end times are reported scaled by REFERENCE_NS / mean(probe): the
time they would take on a host where the probe takes exactly REFERENCE_NS.
The mean, not the median, because the host's speed flips between two
levels and the mean follows the share of time spent at each.
A change to gibbskit cannot move the probe, so it moves the scaled times
as it moves the raw ones.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import fmean

REFERENCE_NS = 1_000_000
PERIOD_S = 0.01
CHILD_WORK_PER_PROBE_NS = 10_000_000


@dataclass(frozen=True)
class _Terms:
    terms: tuple

    def __post_init__(self):
        merged: dict = {}
        for powers, coeff in self.terms:
            merged[powers] = merged.get(powers, 0.0) + float(coeff)
        canon = tuple(sorted((p, c) for p, c in merged.items() if c != 0.0))
        object.__setattr__(self, "terms", canon)


_BASE = tuple(((i % 3, i % 5, i % 2), 0.5 + i) for i in range(24))


def probe_ns() -> int:
    """CPU time of a fixed mix of object construction, dict merging, sorting
    and float sums -- the kind of work the library spends its time on."""
    # Collecting garbage an interrupted operation made would be timed as the probe's.
    collecting = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time_ns()
        acc = 0.0
        for _ in range(56):
            t = _Terms(_BASE)
            acc += sum(c * 1.5 for _, c in t.terms)
            acc += len({p: c for p, c in t.terms})
        return time.process_time_ns() - c0
    finally:
        if collecting:
            gc.enable()


class Speed:
    """Probe timings gathered while armed."""

    def __init__(self):
        self.samples: list[int] = []
        self.probe_cpu_ns = 0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t = probe_ns()
            self.samples.append(t)
            self.probe_cpu_ns += t
        finally:
            self._busy = False

    def after_child(self, child_cpu_ns: int):
        """Probe once per CHILD_WORK_PER_PROBE_NS of a child's CPU time."""
        for _ in range(max(1, child_cpu_ns // CHILD_WORK_PER_PROBE_NS)):
            self._tick(None, None)

    @contextmanager
    def paused(self):
        """No probe runs beside a child process: it would share the CPU with it."""
        self._busy = True
        try:
            yield
        finally:
            self._busy = False

    @contextmanager
    def armed(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if not self.samples:
                self._tick(None, None)

    def work_clock(self) -> int:
        """Process CPU time in ns, less the time spent in probes."""
        return time.process_time_ns() - self.probe_cpu_ns

    def scale(self) -> float:
        """Multiply a raw CPU time by this to get it at reference speed."""
        return REFERENCE_NS / fmean(self.samples)

"""Host-speed probe: scales measured CPU time to a fixed host speed.

On a shared host the same call can take twice the CPU time from one
second to the next: other tenants slow the vCPU itself, in spells that
last from seconds to minutes.  Nothing about how CPU time is read
removes that, so the benchmark measures the host's speed while it
measures the program, and scales the program's CPU time to the speed
of a reference host.

The probe is a small fixed pure-Python kernel (:func:`kernel`: method
calls, attribute and list access, dict updates, integer arithmetic, the
instruction mix of a simulator tick) that lives in the benchmark and so
never changes with the program.  :class:`SpeedProbe` times it a few
times on entry, every :data:`PROBE_INTERVAL_S` of wall time while the
measured code runs (from a ``SIGALRM`` handler), and a few times on
exit.  The measured code's CPU time, minus the probes' own, is then
scaled by the mean of ``NOMINAL_PROBE_S / probe time`` over the probes:
a call that took 0.9 s while the probe ran at half its nominal speed
reports 0.45 s.  Each probe stands for the stretch of the call around
it, and the call's work is the sum over stretches of their CPU divided
by their slowdown; with probes at equal intervals that is the CPU time
times the mean of the reciprocals.  A mean of reciprocals also keeps
one probe slowed by a page-fault burst from rescaling a whole call.
Code that a co-tenant slows less than the probe is scaled by a power
of the factor below 1 (``child.OPERATION_ELASTICITY`` and
``child.SETUP_ELASTICITY``).

Sampling inside the call is what makes this work: host speed changes
within a call that lasts a second, so probes taken only before and
after it track a long call poorly (see README.md, "Host-speed
scaling").

The alarm is a wall-clock timer (``ITIMER_REAL``) on purpose: arming a
CPU-time timer (``ITIMER_PROF``) makes Linux read the process CPU clock
at scheduler-tick resolution, which would blur every timing taken here.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Any, List, Optional

clock = time.process_time

#: kernel cycles of one probe: ~1.2 ms of CPU on the reference host
PROBE_CYCLES = 1000
#: wall seconds between probes inside the measured code (~3 % of CPU)
PROBE_INTERVAL_S = 0.04
#: probes taken on entry and again on exit, so a call shorter than
#: PROBE_INTERVAL_S still has samples from just before and just after
EDGE_PROBES = 3
#: about the CPU seconds of one probe on the reference host (the host
#: named in README.md).  It only fixes the scale of the reported times
#: and must never change, or the benchmark's history stops comparing.
NOMINAL_PROBE_S = 0.0012


class _Port:
    """A credit-limited queue, ticked like a network interface."""

    __slots__ = ("ring", "head", "tail", "credit", "sent")

    def __init__(self) -> None:
        self.ring = [0] * 8
        self.reset()

    def reset(self) -> None:
        self.head = self.tail = self.sent = 0
        self.credit = 3

    def tick(self, cycle: int, stats: dict) -> None:
        if cycle % 7 == 0 and self.tail - self.head < 8:
            self.ring[self.tail & 7] = cycle
            self.tail += 1
        if self.head < self.tail and self.credit > 0:
            stamp = self.ring[self.head & 7]
            self.head += 1
            self.credit -= 1
            self.sent += 1
            stats[stamp & 15] = stats.get(stamp & 15, 0) + 1
        elif self.credit < 3:
            self.credit += 1


_PORTS = tuple(_Port() for _ in range(8))
_STATS = {key: 0 for key in range(16)}


def kernel(cycles: int = PROBE_CYCLES) -> int:
    """The probe's fixed work; returns a checksum of it.  It allocates
    no container, so running it leaves the program's garbage-collector
    counts where they were."""
    for port in _PORTS:
        port.reset()
    for key in _STATS:
        _STATS[key] = 0
    for cycle in range(cycles):
        for port in _PORTS:
            port.tick(cycle, _STATS)
    return sum(port.sent for port in _PORTS)


class SpeedProbe:
    """Samples the probe on entry, periodically inside the ``with``
    block, and on exit.

    ``samples`` holds the CPU seconds of every probe run and
    ``probe_s`` their sum, which the caller subtracts from the CPU time
    it measured around the block.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.probe_s = 0.0
        self._previous: Any = None
        self._sampling = False

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = clock()
        kernel()
        dt = clock() - t0
        if enabled:
            gc.enable()
        self.samples.append(dt)
        self.probe_s += dt

    def _on_alarm(self, _signum: int, _frame: Any) -> None:
        # an alarm that lands inside a probe (the process waited for a
        # CPU longer than the interval) would time a probe within a probe
        if not self._sampling:
            self._sampling = True
            try:
                self.sample()
            finally:
                self._sampling = False

    def __enter__(self) -> "SpeedProbe":
        for _ in range(EDGE_PROBES):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> Optional[bool]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_PROBES):
            self.sample()
        return None

    def factor(self) -> float:
        """Reference-host seconds per CPU second measured here: below 1
        when this host ran slower than the reference host."""
        return NOMINAL_PROBE_S * statistics.fmean(
            1.0 / s for s in self.samples)

"""Traffic generators: clocked components injecting through ArchPorts."""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.base import ArchPort, Message
from repro.sim import SLEEP, Component, Simulator


class TrafficGenerator(Component):
    """Base class: tracks every message it injected and supports a
    [start, stop) activity window."""

    def __init__(self, name: str, port: ArchPort,
                 start: int = 0, stop: Optional[int] = None):
        super().__init__(name)
        self.port = port
        self.start = start
        self.stop = stop
        self.sent: List[Message] = []
        self._settled = 0  # sent[:_settled] are all delivered

    # ------------------------------------------------------------------
    def active(self, cycle: int) -> bool:
        return cycle >= self.start and (self.stop is None or cycle < self.stop)

    def _inject(self, dst: str, payload_bytes: int, tag: str = "") -> Message:
        msg = self.port.send(dst, payload_bytes, tag=tag)
        self.sent.append(msg)
        return msg

    def all_delivered(self) -> bool:
        """Every injected message has arrived (a dropped one never does).

        ``run_until`` predicates call this every simulated cycle, so it
        resumes at the first message outstanding at the last call:
        ``sent`` only grows, and delivery is final.
        """
        sent = self.sent
        i = self._settled
        while i < len(sent) and sent[i].delivered:
            i += 1
        self._settled = i
        return i == len(sent)

    def latencies(self) -> List[int]:
        return [m.latency for m in self.sent if m.delivered]

    def tick(self, sim: Simulator):
        cycle = sim.cycle
        if self.stop is not None and cycle >= self.stop:
            return SLEEP  # window closed for good
        if cycle < self.start:
            return self.start  # doze until the window opens
        self.generate(cycle)
        return self.next_activity(cycle)

    def generate(self, cycle: int) -> None:
        raise NotImplementedError

    def next_activity(self, cycle: int):
        """Quiescence hint after generating at ``cycle``: the next cycle
        this generator could possibly inject.  The default (None) keeps
        the generator ticking every active cycle; deterministic
        subclasses override it with their next firing cycle."""
        return None


class RandomTraffic(TrafficGenerator):
    """Bernoulli open-loop injection: each cycle, with probability
    ``rate``, send ``payload_bytes`` to ``chooser()``.

    The trial of the generator's i-th active cycle is the i-th double of
    ``rng``, as if it drew one per cycle, but the doubles come in blocks
    of :attr:`BLOCK` (``Generator.random(n)`` returns the same doubles as
    ``n`` scalar calls) and the generator sleeps from one hit to the
    next, or to the end of the block.  A block never reaches past
    ``stop``, so once the window closes ``rng`` stands where per-cycle
    draws leave it.  ``stop`` is read at every wake.  Lowered, it ends
    injection before the new stop, and ``rng`` is wound back to the new
    stop (where per-cycle draws leave it too, if the new stop was not
    yet reached when it was set).  Raised before the window closed,
    drawing goes on.  With ``rate`` 0 and no ``stop`` the generator
    sleeps for good at once.

    ``rng`` runs up to one block ahead of the cycle, so it must be this
    generator's own stream: a chooser or another consumer drawing from
    it would see different numbers (use ``make_rng(seed, ..., "r")``
    next to the chooser's ``"c"`` stream, or a dedicated
    ``default_rng``).
    """

    #: Bernoulli trials drawn per block
    BLOCK = 256

    def __init__(self, name: str, port: ArchPort,
                 chooser: Callable[[], str], rng: np.random.Generator,
                 rate: float, payload_bytes: int = 64,
                 start: int = 0, stop: Optional[int] = None):
        super().__init__(name, port, start, stop)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate {rate} outside [0, 1]")
        if payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        self.chooser = chooser
        self.rng = rng
        self.rate = rate
        self.payload_bytes = payload_bytes
        # the current block: its first cycle, its end, the cycles whose
        # trial hits, the next of them, and rng's state before the draw
        self._base = 0
        self._end = 0
        self._hits: List[int] = []
        self._next = 0
        self._state: Optional[dict] = None

    def tick(self, sim: Simulator):
        cycle = sim.cycle
        stop = self.stop
        if stop is not None and cycle >= stop:
            self._rewind(stop)
            return SLEEP  # window closed for good
        if cycle < self.start:
            return self.start  # doze until the window opens
        if cycle >= self._end:
            if self.rate == 0 and stop is None:
                return SLEEP  # no trial can hit, and no window end to reach
            self._draw(cycle, stop)
        hits = self._hits
        i = bisect_left(hits, cycle, self._next)
        if i < len(hits) and hits[i] == cycle:
            self._inject(self.chooser(), self.payload_bytes)
            i += 1
        self._next = i
        return hits[i] if i < len(hits) else self._end

    def _draw(self, cycle: int, stop: Optional[int]) -> None:
        """Draw the trials of the block starting at ``cycle``."""
        n = self.BLOCK if stop is None else min(self.BLOCK, stop - cycle)
        self._state = self.rng.bit_generator.state
        hits = np.flatnonzero(self.rng.random(n) < self.rate)
        self._base = cycle
        self._end = cycle + n
        self._hits = (hits + cycle).tolist()
        self._next = 0

    def _rewind(self, stop: int) -> None:
        """Give back the trials of a block that reaches past ``stop``."""
        if self._end > stop:
            self.rng.bit_generator.state = self._state
            if stop > self._base:
                self.rng.random(stop - self._base)
            self._end = stop


class PeriodicStream(TrafficGenerator):
    """Fixed-rate stream: every ``period`` cycles, one ``payload_bytes``
    message to a fixed destination — a pipeline stage's output."""

    def __init__(self, name: str, port: ArchPort, dst: str,
                 period: int, payload_bytes: int,
                 phase: int = 0, start: int = 0, stop: Optional[int] = None,
                 deadline: Optional[int] = None):
        super().__init__(name, port, start, stop)
        if period < 1:
            raise ValueError("period must be >= 1")
        if payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        self.dst = dst
        self.period = period
        self.payload_bytes = payload_bytes
        self.phase = phase % period
        self.deadline = deadline

    def generate(self, cycle: int) -> None:
        if (cycle - self.start) % self.period == self.phase:
            self._inject(self.dst, self.payload_bytes, tag="stream")

    def next_activity(self, cycle: int):
        gap = (self.phase - (cycle - self.start)) % self.period
        nxt = cycle + (gap or self.period)
        if self.stop is not None and nxt >= self.stop:
            return SLEEP
        return nxt

    # -- real-time accounting -------------------------------------------
    def deadline_misses(self) -> int:
        """Messages whose latency exceeded the deadline (requires one)."""
        if self.deadline is None:
            raise ValueError(f"{self.name}: no deadline configured")
        return sum(
            1 for m in self.sent if m.delivered and m.latency > self.deadline
        )

    def deadline_met_ratio(self) -> float:
        if self.deadline is None:
            raise ValueError(f"{self.name}: no deadline configured")
        done = [m for m in self.sent if m.delivered]
        if not done:
            return 1.0
        return 1.0 - self.deadline_misses() / len(done)


class BurstyGenerator(TrafficGenerator):
    """Two-state on/off (Markov-modulated) source: in ON state, inject
    one packet per ``slot_cycles``; dwell times are geometric in slots.

    ``slot_cycles`` decimates the generator's clock so the offered load
    (duty_cycle / slot_cycles packets per cycle) can be matched to the
    serialization time of a packet instead of overrunning the network.
    """

    def __init__(self, name: str, port: ArchPort,
                 chooser: Callable[[], str], rng: np.random.Generator,
                 p_on: float, p_off: float, payload_bytes: int = 64,
                 slot_cycles: int = 1,
                 start: int = 0, stop: Optional[int] = None):
        super().__init__(name, port, start, stop)
        for label, p in (("p_on", p_on), ("p_off", p_off)):
            if not 0.0 < p <= 1.0:
                raise ValueError(f"{label} {p} outside (0, 1]")
        if slot_cycles < 1:
            raise ValueError(f"slot_cycles must be >= 1, got {slot_cycles}")
        self.chooser = chooser
        self.rng = rng
        self.p_on = p_on      # OFF -> ON transition probability
        self.p_off = p_off    # ON -> OFF transition probability
        self.payload_bytes = payload_bytes
        self.slot_cycles = slot_cycles
        self._on = False

    def generate(self, cycle: int) -> None:
        if (cycle - self.start) % self.slot_cycles:
            return
        if self._on:
            self._inject(self.chooser(), self.payload_bytes, tag="burst")
            if self.rng.random() < self.p_off:
                self._on = False
        elif self.rng.random() < self.p_on:
            self._on = True

    def next_activity(self, cycle: int):
        # RNG draws happen only at slot boundaries, so sleeping between
        # them consumes the random stream identically to ticking through
        gap = (self.start - cycle) % self.slot_cycles
        nxt = cycle + (gap or self.slot_cycles)
        if self.stop is not None and nxt >= self.stop:
            return SLEEP
        return nxt

    @property
    def duty_cycle(self) -> float:
        """Long-run ON fraction: p_on / (p_on + p_off)."""
        return self.p_on / (self.p_on + self.p_off)

    @property
    def offered_packets_per_cycle(self) -> float:
        return self.duty_cycle / self.slot_cycles


class TraceReplay(TrafficGenerator):
    """Replay an explicit (cycle, dst, payload_bytes) trace."""

    def __init__(self, name: str, port: ArchPort,
                 trace: Sequence[Tuple[int, str, int]],
                 start: int = 0, stop: Optional[int] = None):
        super().__init__(name, port, start, stop)
        self.trace = sorted(trace)
        self._idx = 0

    def generate(self, cycle: int) -> None:
        while self._idx < len(self.trace) and self.trace[self._idx][0] <= cycle:
            _, dst, nbytes = self.trace[self._idx]
            self._inject(dst, nbytes, tag="trace")
            self._idx += 1

    def next_activity(self, cycle: int):
        if self._idx >= len(self.trace):
            return SLEEP  # trace exhausted: nothing left to inject
        return max(self.trace[self._idx][0], cycle + 1)

    def exhausted(self) -> bool:
        return self._idx >= len(self.trace)

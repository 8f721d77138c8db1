"""The packet transport the NoC models share.

DyNoC (and staticmesh, which inherits it) and CoNoChi route and
fragment differently but move packets alike: a header claims each
output port in FIFO order after a fixed per-hop latency, and the body
streams behind it.  :class:`TransportHorizon` holds that transport:
the tick, the idle test and the port reservation.

The in-flight state is of two kinds: timed items — header arrivals
awaiting routing and packets awaiting delivery — and link-occupancy
intervals, which the parallelism probe counts every busy cycle (the
paper's d_max, "independent data transfers").  Both structures here
make a tick cost what falls due in it, not what is in flight:

* :class:`DueQueue` pops the items whose ready cycle has come, in
  insertion order, from a heap.
* :class:`LinkOccupancy` activates intervals as they start and retires
  them as they end, keeping a per-packet count of live intervals, so
  the distinct-packet count changes only where an interval starts or
  ends.

A busy link changes no protocol state, so the fabrics sleep to their
event horizon, the next due item (:meth:`TransportHorizon._horizon`),
and :meth:`TransportHorizon._skipped` replays the busy cycles they
skipped: one parallelism sample per busy cycle
(:meth:`LinkOccupancy.replay`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.arch.base import CommArchitecture
from repro.sim import SLEEP, Simulator

_SEQ = itemgetter(1)


class DueQueue:
    """Timed items popped once their ready cycle has come.

    :meth:`pop_due` returns every item with ``ready <= now`` in
    insertion order, like a scan of a plain list in append order.  That
    is not (ready, insertion) order: a late pop that takes items of
    several ready cycles at once returns them as they were pushed.
    ``len()`` and iteration (also in insertion order) cover the items
    still pending.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Any]] = []
        self._seq = 0

    def push(self, ready: int, item: Any) -> None:
        heappush(self._heap, (ready, self._seq, item))
        self._seq += 1

    def pop_due(self, now: int) -> List[Any]:
        """Remove and return the items with ``ready <= now``."""
        heap = self._heap
        if not heap or heap[0][0] > now:
            return []
        due = [heappop(heap)]
        while heap and heap[0][0] <= now:
            due.append(heappop(heap))
        if len(due) > 1:
            due.sort(key=_SEQ)
        return [entry[2] for entry in due]

    def next_ready(self) -> Optional[int]:
        """The earliest ready cycle pending, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[Any]:
        return (entry[2] for entry in sorted(self._heap, key=_SEQ))


class LinkOccupancy:
    """Link-occupancy intervals ``[start, end)``, ``end > start``, each
    tagged with the id of the packet on the link.

    :meth:`active` advances to cycle ``now`` and returns the number of
    distinct ids with an interval covering it.  It pops only the
    intervals that start or end by ``now``: pending ones wait in a heap
    of starts, live ones in a heap of ends, and a per-id count of live
    intervals gives the distinct count.  ``now`` never decreases, and
    every interval starts after the last ``now`` (a port reservation
    starts after the cycle that makes it).  Under those conditions the
    answers equal scans of a plain list holding every interval added.
    """

    __slots__ = ("_now", "_pending", "_ends", "_live")

    def __init__(self) -> None:
        self._now = -1
        #: (start, end, id) of intervals that start after _now
        self._pending: List[Tuple[int, int, int]] = []
        #: (end, id) of intervals live at _now
        self._ends: List[Tuple[int, int]] = []
        #: id -> live intervals carrying it
        self._live: Dict[int, int] = {}

    def add(self, start: int, end: int, ident: int) -> None:
        heappush(self._pending, (start, end, ident))

    def active(self, now: int) -> int:
        """Distinct ids on a link at cycle ``now``."""
        self._now = now
        pending, ends, live = self._pending, self._ends, self._live
        while pending and pending[0][0] <= now:
            _, end, ident = heappop(pending)
            if end > now:
                heappush(ends, (end, ident))
                live[ident] = live.get(ident, 0) + 1
        while ends and ends[0][0] <= now:
            ident = heappop(ends)[1]
            left = live[ident] - 1
            if left:
                live[ident] = left
            else:
                del live[ident]
        return len(live)

    def replay(self, first: int, last: int) -> List[Tuple[int, int]]:
        """Advance through cycles ``first`` .. ``last`` (after the last
        :meth:`active` call) and return the runs ``(count, cycles)`` of
        the nonzero counts :meth:`active` would have returned on each,
        in cycle order, adjacent equal counts merged."""
        runs: List[Tuple[int, int]] = []
        pending, ends = self._pending, self._ends
        cycle = first
        while cycle <= last:
            count = self.active(cycle)
            nxt = last + 1
            if pending and pending[0][0] < nxt:
                nxt = pending[0][0]
            if ends and ends[0][0] < nxt:
                nxt = ends[0][0]
            if count:
                if runs and runs[-1][0] == count:
                    runs[-1] = (count, runs[-1][1] + nxt - cycle)
                else:
                    runs.append((count, nxt - cycle))
            cycle = nxt
        return runs


class TransportHorizon(CommArchitecture):
    """Event horizon, replay and port reservation shared by the NoC
    models.  A fabric supplies ``_route(pkt, at, now)``, which routes a
    header that arrived at node ``at``, ``_submit`` and
    ``_port_name(key)``, the telemetry name of an output port.

    A tick routes the headers that arrived, lands the packets whose
    tails cleared their ejection port and records one parallelism
    sample.  Only the pops change protocol state, so the fabric sleeps
    to the next due item; the busy-link cycles in between, on which the
    same fabric would otherwise tick, are replayed by :meth:`_skipped`.
    With telemetry on, the depth of the header queue
    (:attr:`FABRIC_QUEUE`) is recorded where it changes: after an
    injection and after a tick that routed arrivals
    (:meth:`_note_depth`).
    """

    #: telemetry name of the header-arrival queue
    FABRIC_QUEUE = ""

    def __init__(self, sim: Simulator, width: int, name: str,
                 hop_latency: int):
        super().__init__(sim, width, name)
        #: cycles a header spends in a router or switch before it may
        #: claim an output port
        self._hop_latency = hop_latency
        # (packet, node) header arrivals awaiting routing
        self._arrivals = DueQueue()
        # output-port reservations: (node, next node|"local") -> free_at
        self._port_free: Dict[Tuple[object, object], int] = {}
        # messages whose tail leaves the ejection port
        self._deliveries = DueQueue()
        # inter-node link occupancy by message id: the parallelism probe
        # counts distinct packets on wires per cycle, the paper's
        # "independent data transfers"
        self._links = LinkOccupancy()
        #: the <name>.port_wait histogram, bound at the first
        #: reservation: created earlier, a fabric that never routes
        #: would list it in its stats snapshot
        self._port_wait: Optional[Any] = None
        #: output port -> its telemetry name (:meth:`_port_name`)
        self._port_names: Dict[Tuple[object, object], str] = {}

    def idle(self) -> bool:
        return not self._arrivals and not self._deliveries

    def tick(self, sim: Simulator):
        now = sim.cycle
        if self._settled < now - 1:
            self.settle(now - 1)
        self._settled = now
        self._note_parallelism(self._links.active(now))
        for msg in self._deliveries.pop_due(now):
            self._deliver(msg)
        arrived = self._arrivals.pop_due(now)
        for pkt, at in arrived:
            self._route(pkt, at, now)
        if arrived and sim.telemetering:
            # headers awaiting routing = the fabric's input queue
            self._note_depth()
        return self._horizon()

    def _reserve(self, key: Tuple[object, object], now: int, words: int,
                 mid: int) -> int:
        """FIFO-reserve the output port ``key``, (node, next node or
        ``"local"``), for a packet of ``words`` words whose header
        arrived at ``now``; returns the cycle its transmission starts."""
        earliest = now + self._hop_latency
        start = max(earliest, self._port_free.get(key, 0))
        sim = self._sim
        # contention observability: cycles spent waiting for the port
        port_wait = self._port_wait
        if port_wait is None:
            port_wait = self._port_wait = sim.stats.histogram(
                f"{self.name}.port_wait")
        port_wait.add(start - earliest)
        if sim.telemetering:
            tel = sim.telemetry
            name = self._port_names.get(key)
            if name is None:
                name = self._port_names[key] = self._port_name(key)
            tel.link_busy(now, name, words)
            tel.backpressure(now, name, start - earliest)
        self._port_free[key] = start + words
        if key[1] != "local":
            # the parallelism probe counts inter-node links only — the
            # paper's d_max is "limited by the number of links"
            self._links.add(start, start + words, mid)
        return start

    def _wake_by(self, cycle: int) -> None:
        """New traffic falls due first at ``cycle``: move a sleeping
        fabric's timed wake to it (:meth:`Simulator.wake_at`), never to
        a cycle later than the wake it has.  Its ticks before ``cycle``
        would pop nothing."""
        if self._asleep and (self._wake_at is None
                             or cycle < self._wake_at):
            self._sim.wake_at(self, cycle)

    def _skipped(self, first: int, through: int) -> None:
        """Replay the busy-link cycles skipped from ``first`` through
        ``through``."""
        runs = self._links.replay(first, through)
        if not runs:
            return
        note = self._note_parallelism_run
        for count, cycles in runs:
            note(count, cycles)

    def _horizon(self):
        """The hint at the end of a tick: the next due item, or SLEEP
        when nothing is due."""
        nxt = self._arrivals.next_ready()
        ready = self._deliveries.next_ready()
        if ready is not None and (nxt is None or ready < nxt):
            nxt = ready
        return SLEEP if nxt is None else nxt

    def _note_depth(self) -> None:
        """Telemetry: the header queue's depth changed."""
        self.sim.telemetry.queue_depth(self.sim.cycle, self.FABRIC_QUEUE,
                                       len(self._arrivals))

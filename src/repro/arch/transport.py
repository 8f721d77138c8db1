"""Time-ordered packet transport state shared by the NoC models.

DyNoC (and staticmesh, which inherits it) and CoNoChi keep two kinds of
in-flight state: timed items — header arrivals awaiting routing and
packets awaiting delivery — and link-occupancy intervals, which the
parallelism probe counts every busy cycle (the paper's d_max,
"independent data transfers").  Both structures here make a tick cost
what falls due in it, not what is in flight:

* :class:`DueQueue` pops the items whose ready cycle has come, in
  insertion order, from a heap.
* :class:`LinkOccupancy` activates intervals as they start and retires
  them as they end, keeping a per-packet count of live intervals, so
  the distinct-packet count changes only where an interval starts or
  ends.

:func:`quiescence` turns both into the models' wake hint.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sim import SLEEP

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

    __slots__ = ("_now", "_pending", "_ends", "_live", "_max_end")

    def __init__(self) -> None:
        self._now = -1
        #: (start, end, id) of intervals that start after _now
        self._pending: List[Tuple[int, int, int]] = []
        #: (end, id) of intervals live at _now
        self._ends: List[Tuple[int, int]] = []
        #: id -> live intervals carrying it
        self._live: Dict[int, int] = {}
        #: the latest end of any interval that went live
        self._max_end = -1

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
                if end > self._max_end:
                    self._max_end = end
        while ends and ends[0][0] <= now:
            ident = heappop(ends)[1]
            left = live[ident] - 1
            if left:
                live[ident] = left
            else:
                del live[ident]
        return len(live)

    def busy_after(self) -> bool:
        """Does an interval cover the cycle after the last
        :meth:`active` call?  A live one does exactly when the latest
        live end lies beyond that cycle (the interval holding it is
        still live); a pending one when it starts there."""
        nxt = self._now + 1
        return self._max_end > nxt or bool(
            self._pending and self._pending[0][0] <= nxt)

    def next_start(self) -> Optional[int]:
        """The earliest start after the last :meth:`active` call."""
        return self._pending[0][0] if self._pending else None


def quiescence(links: LinkOccupancy, *queues: DueQueue):
    """Quiescence hint at the end of a tick: stay hot while a link
    carries data next cycle (the parallelism probe samples every busy
    cycle), else wake for the next interval start or due item, else
    sleep until new traffic wakes the fabric."""
    if links.busy_after():
        return None
    nxt = links.next_start()
    for queue in queues:
        ready = queue.next_ready()
        if ready is not None and (nxt is None or ready < nxt):
            nxt = ready
    return SLEEP if nxt is None else nxt

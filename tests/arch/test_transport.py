"""Property tests: the time-ordered transport structures answer exactly
what scans of plain lists answered.

DyNoC, staticmesh and CoNoChi once kept header arrivals, deliveries and
link-occupancy intervals in lists that every tick scanned in full.  The
references below are those scans; random interleavings of appends,
pops and queries must give the same answers, late pops (several ready
cycles at once) included.  The fabrics now sleep across busy-link
cycles, so the replay of a skipped stretch must equal per-cycle
``active()`` calls.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.transport import DueQueue, LinkOccupancy, TransportHorizon
from repro.sim import SLEEP


# ----------------------------------------------------------------------
# DueQueue
# ----------------------------------------------------------------------
def _scan_pop(items, now):
    """The old due scan: collect in list order, then remove each."""
    due = [a for a in items if a[0] <= now]
    for item in due:
        items.remove(item)
    return [a[1] for a in due]


@st.composite
def queue_scripts(draw):
    """(pushes before the pop, clock step) per round; ready cycles
    spread both sides of the pop cycle, and a step above 1 makes pops
    late, taking items of several ready cycles at once."""
    rounds = []
    for _ in range(draw(st.integers(1, 25))):
        pushes = draw(st.lists(st.integers(-3, 12), max_size=6))
        rounds.append((pushes, draw(st.integers(1, 6))))
    return rounds


@given(script=queue_scripts())
@settings(max_examples=200, deadline=None)
def test_due_batches_match_list_scan(script):
    queue, items = DueQueue(), []
    now, label = 0, 0
    for pushes, step in script:
        for offset in pushes:
            queue.push(now + offset, label)
            items.append((now + offset, label))
            label += 1
        assert queue.pop_due(now) == _scan_pop(items, now)
        assert len(queue) == len(items)
        assert list(queue) == [a[1] for a in items]
        expect = min((a[0] for a in items), default=None)
        assert queue.next_ready() == expect
        now += step


def test_late_pop_keeps_insertion_order():
    """Not (ready, insertion) order: a pop that comes late returns the
    items as they were pushed."""
    queue = DueQueue()
    for ready, item in ((9, "c"), (3, "a"), (9, "d"), (5, "b")):
        queue.push(ready, item)
    assert queue.pop_due(2) == []
    assert queue.pop_due(9) == ["c", "a", "d", "b"]
    assert not queue and queue.next_ready() is None


# ----------------------------------------------------------------------
# LinkOccupancy
# ----------------------------------------------------------------------
def _scan_active(intervals, now):
    """The old probe: prune finished intervals, count distinct ids."""
    intervals[:] = [t for t in intervals if t[1] > now]
    return len({m for s, e, m in intervals if s <= now < e})


def _scan_runs(intervals, first, last):
    """Per-cycle scans of ``first`` .. ``last`` as (count, cycles) runs,
    zeros dropped and equal neighbours merged."""
    runs = []
    for cycle in range(first, last + 1):
        count = _scan_active(list(intervals), cycle)
        if not count:
            continue
        if runs and runs[-1][0] == count and runs[-1][2] == cycle - 1:
            runs[-1] = (count, runs[-1][1] + 1, cycle)
        else:
            runs.append((count, 1, cycle))
    return runs


@st.composite
def link_scripts(draw):
    """Rounds of (intervals added after the query, clock step).  Starts
    lie after the query cycle, as port reservations do; ids repeat, as
    a packet streams over several links."""
    rounds = []
    for _ in range(draw(st.integers(1, 30))):
        adds = draw(st.lists(
            st.tuples(st.integers(1, 10), st.integers(1, 12),
                      st.integers(0, 5)),
            max_size=5))
        rounds.append((adds, draw(st.integers(1, 5))))
    return rounds


@given(script=link_scripts())
@settings(max_examples=200, deadline=None)
def test_occupancy_matches_list_scans(script):
    """After each query the cycles up to the next one are skipped: the
    replayed runs match per-cycle scans (a replay merges equal counts
    only across busy cycles, so the scan runs split at idle gaps are
    merged the same way before comparing)."""
    links, intervals = LinkOccupancy(), []
    now = 0
    for adds, step in script:
        assert links.active(now) == _scan_active(intervals, now)
        for offset, length, ident in adds:
            start = now + offset
            links.add(start, start + length, ident)
            intervals.append((start, start + length, ident))
        expect = []
        for count, cycles, _ in _scan_runs(intervals, now + 1,
                                           now + step - 1):
            if expect and expect[-1][0] == count:
                expect[-1] = (count, expect[-1][1] + cycles)
            else:
                expect.append((count, cycles))
        assert links.replay(now + 1, now + step - 1) == expect
        now += step


def test_one_packet_on_two_links_counts_once():
    links = LinkOccupancy()
    for start, end, ident in ((0, 5, 7), (5, 10, 7), (3, 6, 8)):
        links.add(start, end, ident)
    assert [links.active(t) for t in (2, 4, 5, 8, 10)] == [1, 2, 2, 1, 0]


class _Fabric(TransportHorizon):
    FABRIC_QUEUE = "test.fabric"

    def __init__(self):
        self._links = LinkOccupancy()
        self._arrivals = DueQueue()
        self._deliveries = DueQueue()


def test_quiescence_wakes_for_the_next_due_item_only():
    """A busy link alone keeps nobody awake: the fabric wakes for the
    next due arrival or delivery."""
    fabric = _Fabric()
    links = fabric._links
    links.active(10)
    assert fabric._horizon() == SLEEP
    links.add(11, 13, 2)
    links.add(20, 24, 1)
    assert fabric._horizon() == SLEEP
    fabric._arrivals.push(35, "header")
    fabric._deliveries.push(30, "msg")
    assert fabric._horizon() == 30
    fabric._deliveries.pop_due(30)
    assert fabric._horizon() == 35

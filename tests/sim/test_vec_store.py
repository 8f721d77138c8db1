"""SoA timed structures: they must stay list-compatible while their
bulk operations match the sequential semantics they replace."""

import numpy as np

from repro.sim.vec.store import EventQueue, IntervalSet


# ----------------------------------------------------------------------
# IntervalSet
# ----------------------------------------------------------------------
class TestIntervalSet:
    def test_list_compatibility(self):
        s = IntervalSet("links")
        assert not s and len(s) == 0
        s.append((2, 5, 1))
        s.append((3, 8, 2))
        assert s and len(s) == 2
        assert list(s) == [(2, 5, 1), (3, 8, 2)]

    def test_prune_drops_finished_intervals(self):
        s = IntervalSet("links", [(0, 4, 1), (2, 10, 2), (5, 6, 3)])
        s.prune(5)
        assert list(s) == [(2, 10, 2), (5, 6, 3)]
        s.prune(10)
        assert not s

    def test_distinct_ids_count_once(self):
        # one message streaming over two successive links: one id,
        # counted once per cycle exactly like the object kernel
        s = IntervalSet("links", [(0, 5, 7), (5, 10, 7), (3, 6, 8)])
        assert s.count_distinct_at(4) == 2
        assert s.count_distinct_at(5) == 2
        assert s.count_distinct_at(8) == 1

    def test_active_counts_matches_per_cycle_scan(self):
        rng = np.random.default_rng(42)
        s = IntervalSet("links")
        for _ in range(60):
            start = int(rng.integers(0, 50))
            s.append((start, start + int(rng.integers(1, 12)),
                      int(rng.integers(0, 9))))
        t0, t1 = 5, 58
        bulk = s.active_counts(t0, t1)
        scan = [s.count_distinct_at(t) for t in range(t0, t1)]
        assert bulk.tolist() == scan

    def test_active_counts_empty_span(self):
        s = IntervalSet("links", [(0, 4, 1)])
        assert s.active_counts(7, 7).tolist() == []
        assert s.max_end() == 4
        assert IntervalSet("empty").max_end() is None


# ----------------------------------------------------------------------
# EventQueue
# ----------------------------------------------------------------------
class TestEventQueue:
    def test_pop_due_keeps_insertion_order(self):
        q = EventQueue("ctrl")
        q.append((9, "c"))
        q.append((3, "a"))
        q.append((9, "d"))
        q.append((5, "b"))
        assert q.min_ready() == 3
        assert q.pop_due(9) == [(9, "c"), (3, "a"), (9, "d"), (5, "b")]
        assert not q and q.min_ready() is None

    def test_pop_due_partial(self):
        q = EventQueue("ctrl", [(4, "x"), (10, "y"), (6, "z")])
        assert q.pop_due(3) == []
        assert q.pop_due(6) == [(4, "x"), (6, "z")]
        assert list(q) == [(10, "y")]

    def test_remove(self):
        q = EventQueue("ctrl", [(4, "x"), (10, "y")])
        q.remove((4, "x"))
        assert list(q) == [(10, "y")]
        assert q.min_ready() == 10

"""Kernel self-metrics: wake reasons, fast-forward, tick counts.

These are scheduler *introspection* numbers (``sim.kmetrics``), kept
deliberately outside ``StatsRegistry.snapshot()`` — the fast and slow
paths schedule differently by design, so kernel metrics may differ
between them while every model-visible statistic stays bit-identical.
"""

import pytest

from repro.sim import SLEEP, Component, KernelMetrics, Simulator
from repro.sim.engine import WAKE_REASONS


class Sleeper(Component):
    """Returns a fixed quiescence hint every tick."""

    def __init__(self, name="sleeper", hint=SLEEP):
        super().__init__(name)
        self.hint = hint

    def tick(self, sim):
        return self.hint


class Napper(Component):
    """Sleeps ``period`` cycles at a time (timed wakes)."""

    def __init__(self, name="napper", period=5):
        super().__init__(name)
        self.period = period

    def tick(self, sim):
        return sim.cycle + self.period


class TestWakeReasons:
    def test_timed_wakes(self):
        sim = Simulator(fast_path=True)
        sim.add(Napper(period=5))
        sim.run(21)
        # sleeps at 0,5,10,15,20; wakes at 5,10,15,20
        assert sim.kmetrics.wakes_by_reason()["timed"] == 4
        assert sim.kmetrics.sleeps == 5

    def test_explicit_wake(self):
        sim = Simulator(fast_path=True)
        c = sim.add(Sleeper())
        sim.run(3)
        assert c._asleep
        sim.wake(c)
        assert sim.kmetrics.wakes_by_reason()["explicit"] == 1
        sim.wake(c)  # already awake: not double-counted
        assert sim.kmetrics.wakes_by_reason()["explicit"] == 1

    def test_reason_names_stable(self):
        assert WAKE_REASONS == ("timed", "channel", "explicit", "pending")
        m = KernelMetrics()
        assert set(m.wakes_by_reason()) == set(WAKE_REASONS)


class TestFastForward:
    def test_jumps_and_skipped_cycles_accounted(self):
        sim = Simulator(fast_path=True)
        sim.add(Sleeper())
        fired = []
        sim.at(50, lambda s: fired.append(s.cycle))
        sim.run(100)
        assert fired == [50]
        m = sim.kmetrics
        assert m.ff_jumps == 2  # 1->50 and 51->100
        assert m.ff_cycles_skipped + m.cycles_stepped == 100

    def test_slow_path_never_jumps(self):
        sim = Simulator(fast_path=False)
        sim.add(Sleeper())
        sim.run(100)
        assert sim.kmetrics.ff_jumps == 0
        assert sim.kmetrics.cycles_stepped == 100


class TestTickCounts:
    def test_live_components_counted(self):
        sim = Simulator(fast_path=True)
        sim.add(Sleeper("a"))
        sim.add(Napper("b", period=3))
        sim.run(10)
        counts = sim.tick_counts()
        assert counts["a"] == 1  # slept immediately
        assert counts["b"] > 1
        assert sim.kmetrics.ticks_total == sum(counts.values())

    def test_removed_component_ticks_retired(self):
        sim = Simulator(fast_path=True)
        n = Napper("n", period=2)
        sim.add(n)
        sim.run(5)
        before = sim.tick_counts()["n"]
        sim.remove(n)
        assert sim.kmetrics.retired_ticks["n"] == before
        assert sim.tick_counts()["n"] == before

    def test_retired_ticks_merge_with_same_name(self):
        sim = Simulator(fast_path=False)
        a = sim.add(Sleeper("x"))
        sim.run(2)
        sim.remove(a)
        sim.add(Sleeper("x"))
        sim.run(3)
        assert sim.tick_counts()["x"] == 2 + 3


class TestIsolationFromSnapshot:
    def test_kernel_metrics_not_in_stats_snapshot(self):
        sim = Simulator(fast_path=True)
        sim.add(Napper(period=3))
        sim.stats.counter("model.x").inc()
        sim.run(20)
        snap = sim.stats.snapshot()
        assert set(snap) == {"counters", "histograms", "series"}
        assert all("kernel" not in name for name in snap["counters"])

    def test_as_dict_keys(self):
        m = KernelMetrics()
        d = m.as_dict()
        for key in ("cycles_stepped", "ticks_total", "sleeps",
                    "wakes_total", "ff_jumps", "ff_cycles_skipped",
                    "commit_batches", "commit_elements", "commit_max"):
            assert key in d
        for reason in WAKE_REASONS:
            assert f"wakes_{reason}" in d

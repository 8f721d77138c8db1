"""Wall-clock profiler tests: bucket accounting and kernel integration."""

import pytest

from repro.obs import Profiler
from repro.sim import Component, Simulator


class Ticker(Component):
    def tick(self, sim):
        pass


class TestProfiler:
    def test_add_accumulates(self):
        p = Profiler()
        p.add("a", 0.5)
        p.add("a", 0.25)
        p.add("b", 1.0)
        assert p.seconds["a"] == 0.75
        assert p.calls == {"a": 2, "b": 1}
        assert p.total_seconds == 1.75

    def test_top_ranked_by_seconds(self):
        p = Profiler()
        p.add("cold", 0.1)
        p.add("hot", 9.0)
        assert [name for name, _, _ in p.top(2)] == ["hot", "cold"]
        assert len(p.top(1)) == 1

    def test_merge(self):
        a, b = Profiler(), Profiler()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.seconds == {"x": 3.0, "y": 3.0}
        assert a.calls == {"x": 2, "y": 1}

    def test_as_dict_sorted(self):
        p = Profiler()
        p.add("b", 1.0)
        p.add("a", 2.0)
        assert list(p.as_dict()) == ["a", "b"]
        assert p.as_dict()["a"] == {"seconds": 2.0, "calls": 1}

    def test_render_top_handles_empty(self):
        assert "total" in Profiler().render_top()


class TestKernelIntegration:
    def test_off_by_default(self):
        assert Simulator().profiler is None

    def test_component_buckets_collected(self):
        sim = Simulator()
        sim.profiler = Profiler()
        sim.add(Ticker("worker"))
        sim.after(2, lambda s: None)
        sim.run(5)
        p = sim.profiler
        assert p.calls["worker"] == 5
        assert p.calls["kernel.events"] == 1
        assert set(p.calls) == {"worker", "kernel.events"}
        assert all(v >= 0 for v in p.seconds.values())

    @pytest.mark.parametrize("fast", (True, False))
    def test_profiling_does_not_change_results(self, fast):
        def fingerprint(profile):
            sim = Simulator(fast_path=fast)
            if profile:
                sim.profiler = Profiler()
            sim.add(Ticker("t"))
            sim.stats.counter("c").inc()
            sim.run(20)
            return (sim.cycle, sim.stats.snapshot(), sim.tick_counts())

        assert fingerprint(True) == fingerprint(False)

"""Unit tests for the simulation kernel's engine."""

import pytest

from repro.sim import Component, SimError, Simulator


class Ticker(Component):
    """Counts its own ticks; optionally runs a callback."""

    def __init__(self, name="ticker", on_tick=None):
        super().__init__(name)
        self.ticks = 0
        self.on_tick = on_tick

    def tick(self, sim):
        self.ticks += 1
        if self.on_tick:
            self.on_tick(sim)


class TestSimulatorBasics:
    def test_starts_at_cycle_zero(self):
        assert Simulator().cycle == 0

    def test_run_advances_cycles(self):
        sim = Simulator()
        sim.run(10)
        assert sim.cycle == 10

    def test_step_advances_one_cycle(self):
        sim = Simulator()
        sim.step()
        assert sim.cycle == 1

    def test_components_tick_every_cycle(self):
        sim = Simulator()
        t = sim.add(Ticker())
        sim.run(7)
        assert t.ticks == 7

    def test_add_returns_component(self):
        sim = Simulator()
        t = Ticker()
        assert sim.add(t) is t

    def test_add_rejects_non_component(self):
        with pytest.raises(SimError):
            Simulator().add(object())

    def test_add_all(self):
        sim = Simulator()
        sim.add_all([Ticker("a"), Ticker("b")])
        assert len(sim.components) == 2

    def test_removed_component_stops_ticking(self):
        sim = Simulator()
        t = sim.add(Ticker())
        sim.run(3)
        sim.remove(t)
        sim.run(3)
        assert t.ticks == 3

    def test_remove_unknown_raises(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.remove(Ticker())

    def test_component_rebind_to_other_sim_raises(self):
        t = Ticker()
        Simulator().add(t)
        with pytest.raises(SimError):
            Simulator().add(t)

    def test_unbound_component_sim_raises(self):
        with pytest.raises(SimError):
            Ticker().sim

    def test_component_now(self):
        sim = Simulator()
        seen = []
        t = sim.add(Ticker(on_tick=lambda s: seen.append(t.now)))
        sim.run(3)
        assert seen == [0, 1, 2]


class TestEvents:
    def test_event_fires_at_cycle(self):
        sim = Simulator()
        fired = []
        sim.at(5, lambda s: fired.append(s.cycle))
        sim.run(10)
        assert fired == [5]

    def test_after_is_relative(self):
        sim = Simulator()
        sim.run(3)
        fired = []
        sim.after(4, lambda s: fired.append(s.cycle))
        sim.run(10)
        assert fired == [7]

    def test_event_in_past_raises(self):
        sim = Simulator()
        sim.run(5)
        with pytest.raises(SimError):
            sim.at(2, lambda s: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimError):
            Simulator().after(-1, lambda s: None)

    def test_events_fire_before_ticks(self):
        sim = Simulator()
        order = []
        sim.add(Ticker(on_tick=lambda s: order.append("tick")))
        sim.at(0, lambda s: order.append("event"))
        sim.step()
        assert order == ["event", "tick"]

    def test_events_same_cycle_fifo(self):
        sim = Simulator()
        order = []
        sim.at(1, lambda s: order.append("a"))
        sim.at(1, lambda s: order.append("b"))
        sim.run(2)
        assert order == ["a", "b"]

    def test_event_scheduling_event(self):
        sim = Simulator()
        fired = []
        sim.at(1, lambda s: s.after(2, lambda s2: fired.append(s2.cycle)))
        sim.run(5)
        assert fired == [3]


class TestRunUntil:
    def test_run_until_predicate(self):
        """The predicate reads simulated state only: the quiescent
        stretch before the event that changes it is jumped."""
        sim = Simulator()
        done = []
        sim.at(11, lambda s: done.append(s.cycle))
        cycle = sim.run_until(lambda s: bool(done))
        assert cycle == 12  # the event ran in cycle 11
        assert done == [11]
        if sim.fast_path:
            assert sim.kmetrics.cycles_stepped == 1

    def test_run_until_raises_on_bound(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.run_until(lambda s: False, max_cycles=50)

    def test_run_until_immediate(self):
        sim = Simulator()
        assert sim.run_until(lambda s: True) == 0

    def test_stop_breaks_run(self):
        sim = Simulator()
        sim.at(4, lambda s: s.stop())
        sim.run(100)
        assert sim.cycle == 5  # the stopping cycle completes

    def test_reentrant_step_raises(self):
        sim = Simulator()

        def reenter(s):
            with pytest.raises(SimError):
                s.step()

        sim.add(Ticker(on_tick=reenter))
        sim.step()


class TestSequentials:
    def test_register_requires_commit_method(self):
        with pytest.raises(SimError):
            Simulator().register_sequential(object())

    def test_unregister_unknown_is_noop(self):
        Simulator().unregister_sequential(object())  # must not raise

    def test_component_added_during_tick_starts_next_cycle(self):
        sim = Simulator()
        late = Ticker("late")

        def add_late(s):
            if s.cycle == 2 and late._sim is None:
                s.add(late)

        sim.add(Ticker(on_tick=add_late))
        sim.run(5)
        # added during cycle 2's tick phase; first tick at cycle 3
        assert late.ticks == 2


class TestRunForTime:
    def test_converts_seconds_to_cycles(self):
        sim = Simulator()
        cycles = sim.run_for_time(1e-6, clock_hz=100e6)  # 1 us @ 100 MHz
        assert cycles == 100
        assert sim.cycle == 100

    def test_invalid_args_raise(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.run_for_time(-1.0, 1e6)
        with pytest.raises(SimError):
            sim.run_for_time(1.0, 0)

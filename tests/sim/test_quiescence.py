"""Unit tests for the activity-driven kernel: sleep/wake scheduling,
fast-forward, the wake rule, and the quiescence-hint protocol."""

import pytest

from repro.sim import SLEEP, Component, Simulator
from repro.sim.engine import FASTPATH_ENV, SimError, fastpath_default


class Recorder(Component):
    """Ticks forever, recording each cycle it runs (control sample)."""

    def __init__(self, name="rec"):
        super().__init__(name)
        self.ticks = []

    def tick(self, sim):
        self.ticks.append(sim.cycle)


class Sleeper(Recorder):
    """Ticks once, then sleeps until woken."""

    def tick(self, sim):
        self.ticks.append(sim.cycle)
        return SLEEP


class Periodic(Recorder):
    def __init__(self, period, name="periodic"):
        super().__init__(name)
        self.period = period

    def tick(self, sim):
        self.ticks.append(sim.cycle)
        return sim.cycle + self.period


# ----------------------------------------------------------------------
# sleep / wake basics
# ----------------------------------------------------------------------
def test_sleep_stops_ticking_and_wake_resumes():
    sim = Simulator(fast_path=True)
    s = sim.add(Sleeper())
    sim.run(5)
    assert s.ticks == [0]
    assert s.asleep
    s.wake()
    assert not s.asleep
    sim.run(1)
    assert s.ticks == [0, 5]


def test_timed_wake_fires_on_the_exact_cycle():
    sim = Simulator(fast_path=True)
    p = sim.add(Periodic(7))
    sim.run(30)
    assert p.ticks == [0, 7, 14, 21, 28]


def test_sleeping_component_costs_no_ticks():
    sim = Simulator(fast_path=True)
    s = sim.add(Sleeper())
    r = sim.add(Recorder())
    sim.run(100)
    assert s.ticks == [0]
    assert len(r.ticks) == 100


def test_fast_forward_jumps_over_quiescence():
    sim = Simulator(fast_path=True)
    p = sim.add(Periodic(1000))
    sim.run(5000)
    assert p.ticks == [0, 1000, 2000, 3000, 4000]
    assert sim.cycle == 5000


def test_fast_forward_respects_scheduled_events():
    sim = Simulator(fast_path=True)
    sim.add(Sleeper())
    fired = []
    sim.at(137, lambda s: fired.append(s.cycle))
    sim.run(500)
    assert fired == [137]
    assert sim.cycle == 500


def test_events_do_not_wake_sleepers_implicitly():
    sim = Simulator(fast_path=True)
    s = sim.add(Sleeper())
    sim.at(10, lambda _s: None)
    sim.run(20)
    assert s.ticks == [0]
    # ...but an event may wake one explicitly
    sim.at(25, lambda _s: s.wake())
    sim.run(10)
    assert s.ticks == [0, 25]


# ----------------------------------------------------------------------
# the wake rule: a method call, then wake()
# ----------------------------------------------------------------------
class Consumer(Component):
    """Serves one queued item per tick; sleeps while the queue is empty."""

    def __init__(self):
        super().__init__("consumer")
        self.queue = []
        self.log = []

    def push(self, item):
        self.queue.append(item)
        self.wake()

    def tick(self, sim):
        if not self.queue:
            return SLEEP
        self.log.append((sim.cycle, self.queue.pop(0)))
        return None


class Producer(Component):
    """Hands numbered items to the consumer at fixed cycles."""

    def __init__(self, consumer, schedule):
        super().__init__("producer")
        self.consumer = consumer
        self.schedule = list(schedule)
        self.handed = 0

    def tick(self, sim):
        while self.schedule and self.schedule[0] <= sim.cycle:
            self.schedule.pop(0)
            self.consumer.push(self.handed)
            self.handed += 1
        return self.schedule[0] if self.schedule else SLEEP


HANDOVERS = [3, 3, 4, 10, 11, 11, 11, 30]


def handover_log(fast_path, producer_first=False):
    sim = Simulator(fast_path=fast_path)
    consumer = Consumer()
    producer = Producer(consumer, HANDOVERS)
    for component in ((producer, consumer) if producer_first
                      else (consumer, producer)):
        sim.add(component)
    sim.run(50)
    return consumer.log, sim.tick_counts()["consumer"]


def test_call_then_wake_gives_both_kernels_one_log():
    """A component changes what a sleeper's tick will do only by a
    method call followed by its wake().  Registered after the sleeper,
    the caller gets the same (cycle, item) log from both kernels."""
    fast, fast_ticks = handover_log(True)
    assert fast == handover_log(False)[0]
    assert [item for _, item in fast] == list(range(len(HANDOVERS)))
    assert fast[0] == (4, 0)  # handed over in cycle 3, served in 4
    assert fast_ticks < 50  # the consumer really slept between bursts


def test_caller_registered_first_splits_the_kernels():
    """Why builders register the architecture before its generators:
    a caller registered first hands over before the sleeper's slot in
    the same cycle, and only the stepped kernel still ticks it then."""
    fast, _ = handover_log(True, producer_first=True)
    stepped, _ = handover_log(False, producer_first=True)
    assert fast == handover_log(True)[0]
    assert [(cycle + 1, item) for cycle, item in stepped] == fast


# ----------------------------------------------------------------------
# protocol edges
# ----------------------------------------------------------------------
def test_invalid_hint_raises():
    sim = Simulator(fast_path=True)

    class Bad(Component):
        def tick(self, sim):
            return "tomorrow"  # simlint: disable=QL005 (the point)

    sim.add(Bad("bad"))
    with pytest.raises(SimError, match="hint"):
        sim.run(1)


def test_bool_hint_rejected():
    sim = Simulator(fast_path=True)

    class Bad(Component):
        def tick(self, sim):
            return True  # simlint: disable=QL005 (the point)

    sim.add(Bad("bad"))
    with pytest.raises(SimError):
        sim.run(1)


def test_past_hint_keeps_component_runnable():
    sim = Simulator(fast_path=True)

    class Eager(Recorder):
        def tick(self, sim):
            self.ticks.append(sim.cycle)
            return sim.cycle  # hint in the past: stay hot

    e = sim.add(Eager())
    sim.run(5)
    assert e.ticks == [0, 1, 2, 3, 4]


def test_removed_component_does_not_resurrect():
    sim = Simulator(fast_path=True)
    s = sim.add(Periodic(5))
    sim.run(3)
    sim.remove(s)
    sim.run(20)
    assert s.ticks == [0]


def test_slow_path_ignores_hints():
    sim = Simulator(fast_path=False)
    s = sim.add(Sleeper())
    sim.run(10)
    assert s.ticks == list(range(10))
    assert not s.asleep


def test_fastpath_env_toggle(monkeypatch):
    monkeypatch.setenv(FASTPATH_ENV, "0")
    assert fastpath_default() is False
    assert Simulator().fast_path is False
    monkeypatch.setenv(FASTPATH_ENV, "1")
    assert fastpath_default() is True
    monkeypatch.delenv(FASTPATH_ENV)
    assert fastpath_default() is True


# ----------------------------------------------------------------------
# run_until: stop and bound
# ----------------------------------------------------------------------
def test_run_until_returns_cleanly_on_stop():
    sim = Simulator(fast_path=True)
    sim.add(Recorder())
    sim.at(5, lambda s: s.stop())
    cycle = sim.run_until(lambda s: False, max_cycles=1000)
    # the stop lands during cycle 5's step; run_until returns right after
    assert cycle == sim.cycle == 6
    assert sim.stopped


def test_run_until_still_raises_on_bound_exhaustion():
    sim = Simulator(fast_path=True)
    sim.add(Recorder())
    with pytest.raises(SimError, match="exceeded"):
        sim.run_until(lambda s: False, max_cycles=50)
    assert not sim.stopped


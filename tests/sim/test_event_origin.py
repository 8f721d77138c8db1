"""One cycle's events run in the order they were scheduled, by the
point they were scheduled from (``Simulator.origin``), and a component
settling a skipped tick can schedule from that tick's origin
(``Simulator.at_from``) and ask whether such an event would have run
by now (``Simulator.passed``)."""

from repro.sim import SLEEP, Component, Simulator


class _Scheduler(Component):
    """Schedules ``fn`` for ``cycle`` from its tick on ``at``."""

    def __init__(self, name, at, cycle, fn):
        super().__init__(name)
        self.at, self.cycle, self.fn = at, cycle, fn

    def tick(self, sim):
        if sim.cycle == self.at:
            sim.at(self.cycle, self.fn)
        return SLEEP if sim.cycle >= self.at else self.at


def _log(sim):
    ran = []
    sim.at(10, lambda s: ran.append("setup"))
    first = sim.add(_Scheduler("first", 5, 10, lambda s: ran.append("tick")))
    sim.at(5, lambda s: s.at(10, lambda s: ran.append("event at 5")))
    # where `first`'s tick on cycle 3 would have scheduled it
    sim.at(7, lambda s: s.at_from(10, lambda s: ran.append("skipped"),
                                  (3, first._order)))
    sim.run(12)
    return ran


def test_events_run_by_origin():
    for fast_path in (False, True):
        ran = _log(Simulator(fast_path=fast_path))
        assert ran == ["setup", "skipped", "event at 5", "tick"]


def test_passed_follows_the_cycle_phases():
    sim = Simulator(fast_path=True)
    seen = []
    probe = (6, 0)  # an event for 8 scheduled from a tick on cycle 6

    class _Ask(Component):
        def tick(self, sim):
            seen.append(("tick", sim.cycle, sim.passed(8, probe)))

    sim.add(_Ask("ask"))
    sim.at(8, lambda s: seen.append(("early", 8, s.passed(8, probe))))
    sim.run(7)
    sim.at(8, lambda s: seen.append(("late", 8, s.passed(8, probe))))
    seen.append(("between", sim.cycle, sim.passed(8, probe)))
    sim.run(2)
    assert seen == [("tick", c, False) for c in range(7)] + [
        ("between", 7, False), ("tick", 7, False),
        ("early", 8, False),  # scheduled before the origin
        ("late", 8, True),    # scheduled after it
        ("tick", 8, True)]

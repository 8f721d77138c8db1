"""The last cycle a settler owes, read from a component's tick.

During the tick phase of cycle ``c`` the every-cycle kernel has
already ticked every component ordered before the one that ticks now,
and none ordered after it.  A read of replayed state from that tick
must therefore see a fabric ordered before the reader through ``c``,
even when the fast kernel let the fabric sleep through ``c``, and a
fabric ordered after the reader through ``c - 1``.
"""

import pytest

from repro.arch import build_architecture
from repro.sim import Component, Simulator

FABRICS = ("rmboc", "buscom", "dynoc", "conochi", "sharedbus",
           "staticmesh")


class _Reader(Component):
    """Reads the stats snapshot (and BUS-COM's utilization) from its
    tick, every cycle."""

    def __init__(self, arch):
        super().__init__("reader")
        self.arch = arch
        self.reads = []

    def tick(self, sim):
        read = [sim.cycle, sim.stats.snapshot()]
        if hasattr(self.arch, "bus_utilization"):
            read.append(self.arch.bus_utilization())
        self.reads.append(read)


def _reads(key: str, fast_path: bool):
    sim = Simulator(name=key, fast_path=fast_path)
    arch = build_architecture(key, num_modules=4, sim=sim)
    mods = list(arch.modules)
    for t in range(3, 601, 37):
        for i, src in enumerate(mods):
            dst = mods[(i + 1) % len(mods)]
            sim.at(t, lambda _s, s=src, d=dst: arch.ports[s].send(d, 700))
    reader = _Reader(arch)
    sim.add(reader)
    sim.run(800)
    return reader.reads, sim.stats.snapshot()


@pytest.mark.parametrize("key", FABRICS)
def test_reads_from_a_later_tick_match_the_stepped_kernel(key):
    stepped = _reads(key, fast_path=False)
    fast = _reads(key, fast_path=True)
    assert len(fast[0]) == len(stepped[0]) == 800
    for got, want in zip(fast[0], stepped[0]):
        assert got == want, f"cycle {want[0]}"
    assert fast[1] == stepped[1]


class _Owes(Component):
    """Records ``sim.owed(target)`` from its tick."""

    def __init__(self, name, target):
        super().__init__(name)
        self.target = target
        self.seen = []

    def tick(self, sim):
        self.seen.append(sim.owed(self.target))


def test_owed_follows_the_tick_order():
    sim = Simulator(fast_path=True)
    first = _Owes("first", None)
    sim.add(first)
    fabric = build_architecture("sharedbus", num_modules=2, sim=sim)
    last = _Owes("last", fabric)
    first.target = fabric
    sim.add(last)
    sim.run(3)
    assert first.seen == [-1, 0, 1]   # the fabric ticks after it
    assert last.seen == [0, 1, 2]     # the fabric has ticked or slept
    assert sim.owed(fabric) == 2      # between cycles: the last one run
    # from the event phase, after a tick phase that passed the fabric
    events = []
    sim.at(3, lambda s: events.append(s.owed(fabric)))
    sim.run(1)
    assert events == [2]

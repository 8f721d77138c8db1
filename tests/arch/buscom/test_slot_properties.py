"""Property tests: BUS-COM slot starts replayed while the fabric sleeps
give what ticking every cycle gives.

A busy BUS-COM sleeps through every slot start that launches nothing,
and ``settle`` replays those slots arithmetically.
``Simulator(fast_path=False)`` ticks the fabric on every cycle and is
the reference.  Hypothesis draws busy runs: bus, slot and module
counts, the static share of the round, the dynamic-segment budget, a
short custom table, real-time and bulk traffic, and every hook that
changes who may send (attach and detach, ``set_priorities``,
``freeze_module`` and ``unfreeze_module``, ``purge_message``,
``reassign_slot``, a bus fault with slot migration and restore) at
drawn cycles, from events or from a component that ticks after the
fabric, with reads from both, and telemetry that is absent or runs
alert rules on a 16- or 48-cycle grid.  Both kernels must deliver the
same messages at the same cycles and end with the same statistics,
telemetry, evaluation count, bus utilization and reads.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.buscom.arch import build_buscom
from repro.arch.buscom.schedule import SlotTable
from repro.obs.alerts import AlertEngine, AlertRule, default_rules
from repro.obs.flows import FlowTelemetry
from repro.sim import SLEEP, Component, Simulator


class _Actor(Component):
    """Runs hooks and reads from its tick, registered after the fabric."""

    def __init__(self, steps):
        super().__init__("actor")
        self.steps = sorted(steps, key=lambda step: step[0])
        self._next = 0

    def tick(self, sim):
        steps = self.steps
        while self._next < len(steps) and steps[self._next][0] <= sim.cycle:
            steps[self._next][1]()
            self._next += 1
        if self._next < len(steps):
            return max(steps[self._next][0], sim.cycle + 1)
        return SLEEP


HOOKS = ("freeze", "priorities", "purge", "reassign", "detach", "fault")


@st.composite
def rounds(draw):
    modules = draw(st.integers(2, 5))
    buses = draw(st.integers(1, 3))
    slots = draw(st.integers(2, 12))
    cfg = dict(num_modules=modules, num_buses=buses, slots_per_bus=slots,
               static_slots=draw(st.integers(0, slots)),
               dynamic_segment_cycles=draw(st.integers(0, 80)),
               reassign_latency=draw(st.integers(0, 30)))
    custom = draw(st.booleans())
    traffic = (draw(st.integers(0, 2 ** 16)), draw(st.integers(20, 300)))
    hooks = [(draw(st.sampled_from(HOOKS)), draw(st.integers(1, 1_500)),
              draw(st.integers(0, 2 ** 16)))
             for _ in range(draw(st.integers(0, 4)))]
    reads = draw(st.lists(st.integers(1, 1_800), max_size=4))
    from_tick = draw(st.booleans())
    grid = draw(st.sampled_from((None, 16, 48)))
    cycles = draw(st.integers(400, 2_000))
    return cfg, custom, traffic, hooks, reads, from_tick, grid, cycles


def _hook(arch, kind, salt):
    rng = random.Random(salt)
    cfg = arch.cfg

    def act():
        mods = list(arch.modules)
        if kind == "freeze":
            module = rng.choice(mods)
            arch.freeze_module(module)
            arch.sim.after(rng.randrange(1, 200),
                           lambda _s: module in arch.modules
                           and arch.unfreeze_module(module))
        elif kind == "priorities":
            rng.shuffle(mods)
            arch.set_priorities(mods)
        elif kind == "purge":
            queue = arch._bulk[rng.choice(mods)]
            if queue:
                msg = queue[0].msg
                msg.dropped = True
                arch.purge_message(msg)
        elif kind == "reassign":
            owner = rng.choice(mods + [None])
            arch.reassign_slot(rng.randrange(cfg.num_buses),
                               rng.randrange(arch.table.slots_per_bus),
                               owner)
        elif kind == "detach":
            # a module that sends nothing leaves and comes back
            if "x" in arch.modules:
                arch.detach("x")
            else:
                arch.attach("x")
        else:
            bus = rng.randrange(cfg.num_buses)
            if bus in arch._dead_buses:
                return
            for msg in arch.fail_bus(bus):
                msg.dropped = True
                arch.purge_message(msg)
            plan = arch.migrate_slots_off_bus(bus)
            delay = rng.randrange(cfg.reassign_latency + 1, 400)
            arch.sim.after(delay, lambda _s: (arch.repair_bus(bus),
                                              arch.restore_slots(plan)))
    return act


def _run(case, fast_path: bool):
    cfg, custom, (seed, gap), hooks, read_at, from_tick, grid, cycles = case
    sim = Simulator(name="buscom-slots", fast_path=fast_path)
    if grid is not None:
        tel = FlowTelemetry(eval_interval=grid, window=128)
        tel.engine = AlertEngine(rules=default_rules(
            flow_p99_cycles=200, flow_p99_for=grid, link_utilization=0.4,
            link_utilization_for=grid, slot_overruns=2, storm_window=128)
            + [AlertRule("fabric-pressure", "queue_current", 2,
                         kind="sustained", for_cycles=grid)])
        tel.attach(sim)
    table = None
    if custom:
        # a sparse hand-made table: one static slot per bus, the rest
        # dynamic
        table = SlotTable(cfg["num_buses"], cfg["slots_per_bus"])
        for bus in range(cfg["num_buses"]):
            table.set_static(bus, bus % cfg["slots_per_bus"],
                             f"m{bus % cfg['num_modules']}")
    arch = build_buscom(sim=sim, table=table, **cfg)
    mods = list(arch.modules)
    rng = random.Random(seed)
    t = 0
    while t < cycles - 100:
        t += rng.randrange(1, gap)
        src, dst = rng.sample(mods, 2)
        dst = "x" if rng.random() < 0.1 else dst
        sim.at(t, lambda _s, s=src, d=dst, p=rng.choice((8, 72, 300, 900)),
               g=rng.choice(("rt", "", "stream", "bulk")):
               arch.ports[s].send(d, p, tag=g))
    reads = []

    def read():
        tel = sim.telemetry
        reads.append((sim.cycle, sim.stats.snapshot(), arch.idle(),
                      arch.bus_utilization(), arch.total_backlog(),
                      tel.snapshot(sim.cycle) if tel is not None else None))

    steps = [(at, read) for at in read_at]
    steps += [(at, _hook(arch, kind, salt)) for kind, at, salt in hooks]
    if from_tick:
        sim.add(_Actor(steps))
    else:
        for at, act in steps:
            sim.at(at, lambda _s, act=act: act())
    sim.run(cycles)
    tel = sim.telemetry
    return {
        "messages": [(m.mid, m.src, m.dst, m.accepted_cycle,
                      m.delivered_cycle, m.dropped)
                     for m in arch.log.messages],
        "stats": sim.stats.snapshot(),
        "utilization": arch.bus_utilization(),
        "telemetry": tel.snapshot(sim.cycle) if tel is not None else None,
        "evaluations": tel.engine.evaluations if tel is not None else 0,
        "reads": reads,
    }


#: the default round shape on two buses, every hook from a tick
DEFAULT = (dict(num_modules=4, num_buses=2, slots_per_bus=12,
                static_slots=8, dynamic_segment_cycles=30,
                reassign_latency=12),
           False, (3, 150),
           [("freeze", 200, 1), ("priorities", 350, 2), ("purge", 500, 3),
            ("reassign", 650, 4), ("detach", 700, 5), ("fault", 800, 6),
            ("detach", 1_100, 7)],
           [90, 420, 990], True, 16, 1_500)

#: a custom table, no dynamic budget, events only
CUSTOM = (dict(num_modules=3, num_buses=3, slots_per_bus=4,
               static_slots=0, dynamic_segment_cycles=0,
               reassign_latency=5),
          True, (9, 60),
          [("reassign", 300, 1), ("freeze", 600, 2), ("fault", 900, 3)],
          [250, 777], False, 48, 1_400)


@example(case=DEFAULT)
@example(case=CUSTOM)
@given(case=rounds())
@settings(max_examples=25, deadline=None)
def test_slot_replay_matches_ticking_every_cycle(case):
    stepped = _run(case, fast_path=False)
    fast = _run(case, fast_path=True)
    for part in ("messages", "stats", "utilization", "telemetry",
                 "evaluations", "reads"):
        assert fast[part] == stepped[part], part

"""Golden fixture: BUS-COM runs its TDMA rounds to fixed records while
most slots start empty.

Each bus runs FlexRay-like rounds of static and dynamic slots (paper
§3.2).  A static slot sends only if its owner can send; a dynamic slot
grants the highest-priority module that can, within the round's
dynamic-segment budget.  Whether a module can send changes only with
its queues, its frozen flag, the attachment of its head message's
destination, the priority order and the slot table.  The scenarios
keep the buses busy while most slot starts carry nothing, and fire
every hook that changes who may send in the middle of such a stretch,
from events and from a component that ticks after the fabric:

* ``empty``: the default 32-slot round; one bulk sender while the
  others' static slots pass empty, a sender whose destination is
  detached, ``attach``/``detach``, ``set_priorities``,
  ``freeze_module``/``unfreeze_module``, ``purge_message``,
  ``reassign_slot``, and a bus fault whose detection migrates the dead
  bus's static slots and whose repair restores them;
* ``overrun``: a 24-cycle dynamic segment that bulk traffic overruns;
* ``short``: a custom three-slot table on two buses, rewritten mid-run.

Every scenario reads ``sim.stats.snapshot()``, ``idle()``,
``bus_utilization()``, ``observed_dmax`` and ``total_backlog()`` from
events, and runs in several ``run`` calls.  Each runs in three variants:
``unobserved``, ``telemetry`` (telemetry with alert rules on a 64-cycle
grid, and journeys) and ``observed`` (the same with a tracer); the
telemetry-bearing variants also read the telemetry snapshot and run
the rules off the grid (``evaluate_now``) at each read.  The digests
were recorded with a fabric that woke at every slot start while any
frame was queued or on a wire; the every-cycle kernel
(``REPRO_SIM_FASTPATH=0``) reproduces every digest.

Regenerate only for an intended behaviour change::

    PYTHONPATH=src python -m tests.arch.buscom.test_slot_order
"""

import hashlib
import json
import random

import pytest

from repro.arch.buscom.arch import BusCom, build_buscom
from repro.arch.buscom.schedule import SlotTable
from repro.faults import FaultKind, FaultSchedule, inject
from repro.obs.alerts import AlertEngine, AlertRule, default_rules
from repro.obs.flows import FlowTelemetry
from repro.obs.journey import JourneyRecorder
from repro.sim import SLEEP, Component, Simulator, Tracer
from repro.traffic.generators import PeriodicStream

SCENARIOS = ("empty", "overrun", "short")
VARIANTS = ("unobserved", "telemetry", "observed")

GOLDEN = {
    "empty-unobserved": {
        "messages": "59a6f08eaa9c1623c60bf39280c58814e8d71f5677609a1bd7976a8489bdbc4c",
        "stats": "4024f033dd86cd4483d9e25726962fda7d7992b16e623141215bbd7026ac94af",
        "utilization": "32dda69b73b1a92ee40f080720fac7a3d8d53f4b7b4aff40ce9f7a38abcb891d",
        "reads": "298a447f85678da73a3be44321f62d350bc45cd148c3e57880f910674289714b",
    },
    "empty-telemetry": {
        "messages": "59a6f08eaa9c1623c60bf39280c58814e8d71f5677609a1bd7976a8489bdbc4c",
        "stats": "4024f033dd86cd4483d9e25726962fda7d7992b16e623141215bbd7026ac94af",
        "utilization": "32dda69b73b1a92ee40f080720fac7a3d8d53f4b7b4aff40ce9f7a38abcb891d",
        "reads": "8bb4eaebac5e263779e74a890e8f9aad60fe2ccccc2fdc4eea39b36043945d14",
        "telemetry": "6a5c8b997af1cf1d009066448dad52d3981db8f040c8ffeb88015525b8a1f458",
        "journeys": "a62b18cff598965d605b9e6701d9cd6f4bd04d62108065ffd3dd1c47f86f0c72",
    },
    "empty-observed": {
        "messages": "59a6f08eaa9c1623c60bf39280c58814e8d71f5677609a1bd7976a8489bdbc4c",
        "stats": "4024f033dd86cd4483d9e25726962fda7d7992b16e623141215bbd7026ac94af",
        "utilization": "32dda69b73b1a92ee40f080720fac7a3d8d53f4b7b4aff40ce9f7a38abcb891d",
        "reads": "8bb4eaebac5e263779e74a890e8f9aad60fe2ccccc2fdc4eea39b36043945d14",
        "telemetry": "6a5c8b997af1cf1d009066448dad52d3981db8f040c8ffeb88015525b8a1f458",
        "journeys": "a62b18cff598965d605b9e6701d9cd6f4bd04d62108065ffd3dd1c47f86f0c72",
        "trace": "33b807851f3484724a9381cc1f997f2c0894fd315782c5eee7fd649813c8a5b4",
    },
    "overrun-unobserved": {
        "messages": "c6b44b675cf225b5ed320abb3d7bf6f047af231867dbebaecdf71a9a1693c5d6",
        "stats": "e11e45d773ee30d5a5ffb160479d3c56711353acea274f62125f6594fa429587",
        "utilization": "a2dd26cec887b94fdfae1f334741357f5d1ee5b837d7c7b2b553fb29cd9d82c7",
        "reads": "61e7ccfa5eebeb1dd3e3bbf0c8510426c886ad37fc3b00c2527f6cf7edcc8dd4",
    },
    "overrun-telemetry": {
        "messages": "c6b44b675cf225b5ed320abb3d7bf6f047af231867dbebaecdf71a9a1693c5d6",
        "stats": "e11e45d773ee30d5a5ffb160479d3c56711353acea274f62125f6594fa429587",
        "utilization": "a2dd26cec887b94fdfae1f334741357f5d1ee5b837d7c7b2b553fb29cd9d82c7",
        "reads": "eb66fe39c953305736a63f732e7cae4dae2ddd56592ab99410a525fad7e18cb9",
        "telemetry": "b4ae6e78fb8a2281d2b5d791a8a1edc2b373541cfa10d80a4acbad87ada014a0",
        "journeys": "42071d5a8d0b4f46c6dc37268480c5b349d5c31a93baa2384a9a146901904c9d",
    },
    "overrun-observed": {
        "messages": "c6b44b675cf225b5ed320abb3d7bf6f047af231867dbebaecdf71a9a1693c5d6",
        "stats": "e11e45d773ee30d5a5ffb160479d3c56711353acea274f62125f6594fa429587",
        "utilization": "a2dd26cec887b94fdfae1f334741357f5d1ee5b837d7c7b2b553fb29cd9d82c7",
        "reads": "eb66fe39c953305736a63f732e7cae4dae2ddd56592ab99410a525fad7e18cb9",
        "telemetry": "b4ae6e78fb8a2281d2b5d791a8a1edc2b373541cfa10d80a4acbad87ada014a0",
        "journeys": "42071d5a8d0b4f46c6dc37268480c5b349d5c31a93baa2384a9a146901904c9d",
        "trace": "630e17c59cc6583f99df9d3ca73ca010fbe5366807efca7502cfd71165e80bfd",
    },
    "short-unobserved": {
        "messages": "2f845dbdc554e55af57ca23d7652818eaecb7f78e4068934152e71e719148741",
        "stats": "9e57f7aa87f52a8817772dbe4842b657d4bf7acc2413fca512a280cf206e9d74",
        "utilization": "61d747fa4c6c10ce93686c9b7cdcf59a9af589f6f2ded6045fae0e7463ad4e78",
        "reads": "87380d27547c2cb6001a95c78d59f1c8ee5e5b23a79850bcf86118bad4b509b0",
    },
    "short-telemetry": {
        "messages": "2f845dbdc554e55af57ca23d7652818eaecb7f78e4068934152e71e719148741",
        "stats": "9e57f7aa87f52a8817772dbe4842b657d4bf7acc2413fca512a280cf206e9d74",
        "utilization": "61d747fa4c6c10ce93686c9b7cdcf59a9af589f6f2ded6045fae0e7463ad4e78",
        "reads": "501644e4e16c3c52ae06aec7b38db4e52d15a691cd13185c06aeba0a73ff5c21",
        "telemetry": "32606755149041368e559c05777fc7ac2ceafc9efc0032d30623f3a86b7987ad",
        "journeys": "376e22eeb61ece01b2a6877d225375653a48744e370f422e34511c94f39fcf22",
    },
    "short-observed": {
        "messages": "2f845dbdc554e55af57ca23d7652818eaecb7f78e4068934152e71e719148741",
        "stats": "9e57f7aa87f52a8817772dbe4842b657d4bf7acc2413fca512a280cf206e9d74",
        "utilization": "61d747fa4c6c10ce93686c9b7cdcf59a9af589f6f2ded6045fae0e7463ad4e78",
        "reads": "501644e4e16c3c52ae06aec7b38db4e52d15a691cd13185c06aeba0a73ff5c21",
        "telemetry": "32606755149041368e559c05777fc7ac2ceafc9efc0032d30623f3a86b7987ad",
        "journeys": "376e22eeb61ece01b2a6877d225375653a48744e370f422e34511c94f39fcf22",
        "trace": "e97f56f3213083cc565577de9da590cd57cef2dbff40a98016b303a85881dd4f",
    },
}

#: event-phase read cycles, most of them inside busy stretches
READS = {
    "empty": (61, 600, 1_013, 1_450, 1_680, 2_150, 2_777, 3_777, 4_870),
    "overrun": (61, 480, 1_013, 1_777, 2_345, 3_100, 3_999, 4_870),
    "short": (61, 130, 1_013, 1_500, 2_345, 2_700, 3_750, 4_870),
}

#: run() boundaries: the scenarios stop and resume here
LEGS = (1_500, 3_333, 5_200)


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


class _Actor(Component):
    """Runs hooks from its tick, registered after the fabric."""

    def __init__(self, plan):
        super().__init__("actor")
        self.plan = sorted(plan, key=lambda step: step[0])
        self._next = 0

    def tick(self, sim):
        plan = self.plan
        while self._next < len(plan) and plan[self._next][0] <= sim.cycle:
            plan[self._next][1]()
            self._next += 1
        if self._next < len(plan):
            return max(plan[self._next][0], sim.cycle + 1)
        return SLEEP


def _sim(name: str, variant: str, fast_path=None) -> Simulator:
    sim = Simulator(name=f"buscom-slots-{name}", fast_path=fast_path)
    if variant == "unobserved":
        return sim
    if variant == "observed":
        sim.tracer = Tracer(max_events=1_000_000)
    telemetry = FlowTelemetry(eval_interval=64, window=256)
    telemetry.engine = AlertEngine(rules=default_rules(
        flow_p99_cycles=400, flow_p99_for=128, link_utilization=0.5,
        link_utilization_for=128, slot_overruns=2, storm_window=256)
        + [AlertRule("fabric-pressure", "queue_current", 2,
                     kind="sustained", for_cycles=64)])
    telemetry.attach(sim)
    sim.journey = JourneyRecorder()
    return sim


def _send(arch, src, dst, payload, tag=""):
    return lambda: arch.ports[src].send(dst, payload, tag=tag)


def _purge(arch, src):
    """Drop the message at the head of ``src``'s bulk queue, as a fault
    would, and purge its queued fragments."""
    def act():
        queue = arch._bulk[src]
        if queue:
            msg = queue[0].msg
            msg.dropped = True
            arch.purge_message(msg)
    return act


def _empty(arch):
    """(cycle, from a tick?, action) steps of the ``empty`` scenario."""
    return [
        # one bulk sender: the other owners' static slots pass empty
        (20, False, _send(arch, "m0", "m1", 1_500)),
        (30, True, _send(arch, "m1", "m2", 150, "rt")),
        # m2 queues toward m3, which detaches: nobody else can send
        (300, False, lambda: arch.detach("m3")),
        (305, False, _send(arch, "m2", "m3", 400, "rt")),
        (900, True, lambda: arch.attach("m3")),
        (1_000, False, _send(arch, "m0", "m2", 2_400)),
        (1_010, False, _send(arch, "m3", "m1", 2_000)),
        (1_200, True, lambda: arch.set_priorities(["m3", "m2", "m1",
                                                   "m0"])),
        (1_400, False, lambda: arch.freeze_module("m0")),
        (1_640, True, lambda: arch.freeze_module("m3")),
        (1_700, False, lambda: arch.unfreeze_module("m3")),
        (1_900, True, lambda: arch.unfreeze_module("m0")),
        (2_000, False, _send(arch, "m1", "m0", 3_000)),
        (2_050, False, _send(arch, "m2", "m0", 1_500)),
        (2_100, True, _purge(arch, "m1")),
        (2_200, False, _purge(arch, "m2")),
        (2_600, False, _send(arch, "m1", "m3", 2_500)),
        (2_650, False, lambda: arch.reassign_slot(0, 5, "m1")),
        (2_700, True, lambda: arch.reassign_slot(1, 20, "m1")),
        (2_800, False, lambda: arch.set_priorities(["m0", "m1", "m2",
                                                   "m3"])),
        (3_400, False, _send(arch, "m2", "m1", 2_500)),
        (3_420, True, _send(arch, "m3", "m0", 600, "stream")),
        (4_700, True, lambda: arch.detach("m3")),
        (4_320, False, _send(arch, "m0", "m2", 800)),
    ]


def _overrun(arch):
    rng = random.Random(7)
    mods = list(arch.modules)
    steps = []
    for t in (25, 1_300, 2_900, 4_100):
        for src in mods:
            dst = rng.choice([m for m in mods if m != src])
            steps.append((t + rng.randrange(20), False,
                          _send(arch, src, dst, rng.choice((300, 900)))))
    steps += [(1_350, True, lambda: arch.freeze_module("m1")),
              (1_800, False, lambda: arch.unfreeze_module("m1")),
              (3_000, True, _purge(arch, "m2"))]
    return steps


def _short(arch):
    return [(40, False, _send(arch, "m0", "m1", 700)),
            (60, True, _send(arch, "m1", "m2", 600, "rt")),
            (800, False, lambda: arch.reassign_slot(1, 2, "m2")),
            (1_100, False, _send(arch, "m2", "m0", 900)),
            (1_150, True, lambda: arch.freeze_module("m2")),
            (1_900, False, lambda: arch.unfreeze_module("m2")),
            (2_500, True, lambda: arch.reassign_slot(0, 0, None)),
            (2_600, False, _send(arch, "m0", "m2", 2_400)),
            (3_700, True, lambda: arch.set_priorities(["m2", "m0",
                                                       "m1"])),
            (3_710, False, _send(arch, "m1", "m0", 1_500))]


def _build(name: str, variant: str, fast_path=None):
    sim = _sim(name, variant, fast_path)
    if name == "empty":
        arch = build_buscom(sim=sim, reassign_latency=40,
                            dynamic_segment_cycles=48)
        # bus 2 fails; detection migrates its static slots into the
        # healthy buses' dynamic segments, repair restores them
        inject(arch, FaultSchedule(0).one_shot(
            3_500, FaultKind.NODE_DOWN, 2, duration=700))
        steps = _empty(arch)
    elif name == "overrun":
        arch = build_buscom(sim=sim, num_modules=4, num_buses=2,
                            slots_per_bus=12, static_slots=4,
                            dynamic_segment_cycles=24)
        steps = _overrun(arch)
    else:
        table = SlotTable(2, 3)
        table.set_static(0, 0, "m0")
        table.set_static(1, 1, "m1")
        arch = build_buscom(sim=sim, num_modules=3, num_buses=2,
                            slots_per_bus=3, static_slots=0,
                            reassign_latency=8, table=table)
        steps = _short(arch)
    sim.add(PeriodicStream("stream", arch.ports["m1"], dst="m0",
                           period=397, payload_bytes=64, phase=13,
                           start=100, stop=4_800))
    sim.add(_Actor([(at, act) for at, from_tick, act in steps
                    if from_tick]))
    for at, from_tick, act in steps:
        if not from_tick:
            sim.at(at, lambda _s, act=act: act())
    return sim, arch


def _reader(arch, reads):
    sim = arch.sim

    def read(_sim) -> None:
        now = sim.cycle
        entry = {"cycle": now, "stats": sim.stats.snapshot(),
                 "idle": arch.idle(), "utilization": arch.bus_utilization(),
                 "dmax": arch.observed_dmax,
                 "backlog": arch.total_backlog()}
        tel = sim.telemetry
        if tel is not None:
            entry["telemetry"] = tel.snapshot(now)
            tel.evaluate_now(now)
            entry["active"] = sorted(tel.engine.active(now))
        reads.append(entry)
    return read


def _scenario(name: str, variant: str, fast_path=None):
    sim, arch = _build(name, variant, fast_path)
    reads = []
    for t in READS[name]:
        sim.at(t, _reader(arch, reads))
    for end in LEGS:
        sim.run(end - sim.cycle)
    parts = {
        "messages": [(m.mid, m.src, m.dst, m.tag, m.accepted_cycle,
                      m.delivered_cycle, m.dropped)
                     for m in arch.log.messages],
        "stats": sim.stats.snapshot(),
        "utilization": arch.bus_utilization(),
        "reads": reads,
    }
    if variant != "unobserved":
        parts["telemetry"] = sim.telemetry.snapshot(sim.cycle)
        parts["journeys"] = sim.journey.snapshot()
    if variant == "observed":
        tracer = sim.tracer
        parts["trace"] = ([(e.cycle, e.source, e.kind, e.data)
                           for e in tracer.events],
                          [(s.begin, s.end, s.source, s.kind, s.data)
                           for s in tracer.spans])
    return arch, parts


def _digests(parts):
    return {part: _sha(value) for part, value in parts.items()}


CASES = [(name, variant) for name in SCENARIOS for variant in VARIANTS]


@pytest.fixture(scope="module", params=CASES,
                ids=[f"{n}-{v}" for n, v in CASES])
def run(request):
    return request.param + _scenario(*request.param)


def test_slot_order_matches_golden(run):
    name, variant, _, parts = run
    assert _digests(parts) == GOLDEN[f"{name}-{variant}"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_runs_empty_slots(name, monkeypatch):
    """The digests are only worth keeping if most slot starts carry
    nothing while the buses are busy, and the hooks fire inside such
    stretches.  Checked on the every-cycle kernel by counting the
    slot starts that launch a frame."""
    starts = []
    real = BusCom._start_slot

    def spy(self, bus, now):
        before = bus.frames_sent
        real(self, bus, now)
        busy = not self.idle()
        starts.append((busy, bus.frames_sent > before))
    monkeypatch.setattr(BusCom, "_start_slot", spy)
    arch, parts = _scenario(name, "observed", fast_path=False)
    counters = parts["stats"]["counters"]
    busy = [sent for was_busy, sent in starts if was_busy]
    assert len(busy) > 200
    assert sum(busy) < len(busy) // 2  # mostly empty while busy
    assert parts["telemetry"]["alerts"]["alerts"]
    assert sum(not r["idle"] for r in parts["reads"]) >= 4
    msgs = arch.log.messages
    assert sum(m.delivered for m in msgs) >= len(msgs) - 3
    if name == "empty":
        assert counters["fault.injected"] == 1
        assert counters["fault.recovered"] == 1
        assert counters["buscom.slots.reassigned"] >= 2 + 2
        assert sum(m.dropped for m in msgs) >= 2
        assert "m3" not in arch.modules
    if name == "overrun":
        assert parts["telemetry"]["counters"]["buscom.slot_overrun"] > 10
    if name == "short":
        assert counters["buscom.slots.reassigned"] == 2


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(json.dumps({f"{n}-{v}": _digests(_scenario(n, v)[1])
                      for n, v in CASES}, indent=4))

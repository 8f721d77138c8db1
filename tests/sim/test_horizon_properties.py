"""Property tests: sleeping to the event horizon and settling the
skipped cycles gives what ticking every cycle gives.

Each fabric sleeps to the next cycle on which its protocol state can
change and replays the per-cycle effects of the ticks it skipped
(``settle``).  ``Simulator(fast_path=False)`` ticks every registered
component on every cycle, so it is the reference for the replay:

* BUS-COM's idle TDMA advance (whole rounds at once) must leave every
  bus's slot position, dynamic-segment budget and cycle counters where
  per-cycle stepping leaves them, over custom static/dynamic tables,
  dead buses and idle gaps spanning several rounds;
* all six fabrics under random bursts, idle gaps, a one-shot fault,
  (where the fabric is reconfigurable) a module swap and, in some
  runs, a control loop acting on the alerts must deliver the same
  messages at the same cycles and end with the same statistics and
  the same telemetry: every flow, link, queue depth and watermark,
  counter, alert, clear, evaluation count and record call.

Telemetry compares because alert rules run on a fixed grid owned by
``FlowTelemetry`` and every telemetry record call is a protocol event,
never a per-tick sample.  ``LinkOccupancy`` replay against per-cycle
``active()`` is covered in ``tests/arch/test_transport.py``.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch import build_architecture
from repro.arch.buscom.arch import build_buscom
from repro.arch.buscom.schedule import SlotTable
from repro.fabric.bitstream import ConfigPort
from repro.fabric.device import get_device
from repro.fabric.geometry import Rect
from repro.faults import FaultKind, FaultSchedule, inject
from repro.faults.policies import make_policy
from repro.control import ControlLoop
from repro.obs.alerts import AlertEngine, AlertRule, default_rules
from repro.obs.flows import FlowTelemetry
from repro.reconfig import ModuleSpec, ReconfigurationManager
from repro.sim import Simulator

MODULES = ("m0", "m1", "m2", "m3")


# ----------------------------------------------------------------------
# BUS-COM idle TDMA advance
# ----------------------------------------------------------------------
@st.composite
def buscom_cases(draw):
    num_buses = draw(st.integers(1, 3))
    slots = draw(st.integers(1, 6))
    # per (bus, slot): a static owner or None for the dynamic segment
    kinds = [[draw(st.sampled_from(MODULES + (None,)))
              for _ in range(slots)] for _ in range(num_buses)]
    dead = draw(st.sets(st.integers(0, num_buses - 1), max_size=num_buses))
    sends = draw(st.lists(
        st.tuples(st.integers(1, 120), st.sampled_from(MODULES),
                  st.sampled_from(MODULES), st.integers(1, 300)),
        max_size=6))
    cycles = draw(st.integers(200, 2_500))
    reads = draw(st.lists(st.integers(1, cycles - 1), max_size=4))
    return num_buses, slots, kinds, dead, sends, cycles, reads


def _buscom_run(case, fast_path):
    num_buses, slots, kinds, dead, sends, cycles, reads = case
    sim = Simulator(name="buscom-idle", fast_path=fast_path)
    table = SlotTable(num_buses, slots)
    for bus, row in enumerate(kinds):
        for slot, owner in enumerate(row):
            if owner is not None:
                table.set_static(bus, slot, owner)
    arch = build_buscom(sim=sim, num_buses=num_buses, slots_per_bus=slots,
                        static_slots=0, dynamic_segment_cycles=40,
                        table=table)
    for bus in sorted(dead):
        sim.at(1, lambda _s, b=bus: arch.fail_bus(b))
    for at, src, dst, payload in sends:
        if src != dst:
            sim.at(at, lambda _s, s=src, d=dst, p=payload:
                   arch.ports[s].send(d, p))
    utilization = []
    for at in sorted(set(reads)):
        sim.at(at, lambda _s: utilization.append(arch.bus_utilization()))
    sim.run(cycles)
    state = [(b.slot_idx, b.slot_remaining, b.dyn_budget, b.total_cycles,
              b.busy_cycles) for b in arch._buses]
    return arch, state, utilization


@given(case=buscom_cases())
@settings(max_examples=60, deadline=None)
def test_buscom_idle_advance_matches_stepping(case):
    ref, ref_state, ref_reads = _buscom_run(case, False)
    arch, state, reads = _buscom_run(case, True)
    assert state == ref_state
    assert reads == ref_reads
    assert arch.sim.stats.snapshot() == ref.sim.stats.snapshot()


# ----------------------------------------------------------------------
# all six fabrics: fast path against ticking every cycle
# ----------------------------------------------------------------------
ARCHS = ("rmboc", "buscom", "dynoc", "conochi", "sharedbus", "staticmesh")
#: the fabrics the reconfiguration manager can swap a module on
SWAPPABLE = ("rmboc", "buscom", "dynoc", "conochi")


@st.composite
def traffic_cases(draw):
    bursts = draw(st.lists(
        st.tuples(st.integers(0, 6_000), st.integers(1, 12)),
        min_size=1, max_size=5))
    fault_at = draw(st.one_of(st.none(), st.integers(50, 5_000)))
    fault_for = draw(st.integers(50, 1_500))
    swap_at = draw(st.one_of(st.none(), st.integers(100, 4_000)))
    eval_interval = draw(st.sampled_from((16, 48, 200)))
    control = draw(st.booleans())
    return (draw(st.integers(0, 2**16)), bursts, fault_at, fault_for,
            swap_at, eval_interval, control)


def _rules():
    """Default rules on thresholds light traffic crosses, plus the
    pressure signals the control policies act on."""
    return default_rules(
        flow_p99_cycles=150, flow_p99_for=96, link_utilization=0.5,
        link_utilization_for=96, slot_overruns=2, detours=2,
        storm_window=256, quiesce_budget_cycles=400,
        mttr_budget_cycles=1_000) + [
        AlertRule("fabric-pressure", "queue_current", 3,
                  kind="sustained", for_cycles=64),
        AlertRule("backoff-storm", "counter:rmboc.blocked", 8,
                  kind="burn_rate", window=256),
    ]


class _CountingTelemetry(FlowTelemetry):
    """Counts record calls: a fabric that recorded a per-tick sample
    would record more often under the kernel that ticks every cycle."""

    calls = 0

    def _note(self):
        self.calls += 1
        super()._note()


def _fabric_run(key, case, fast_path):
    (seed, bursts, fault_at, fault_for, swap_at, eval_interval,
     control) = case
    sim = Simulator(name=f"{key}-horizon", fast_path=fast_path)
    tel = _CountingTelemetry(eval_interval=eval_interval, window=256)
    tel.engine = AlertEngine(rules=_rules())
    tel.attach(sim)
    arch = build_architecture(key, sim=sim, num_modules=6)
    if control:
        ControlLoop(arch, tel=tel)
    mods = list(arch.modules)
    rng = random.Random(seed)
    for start, size in bursts:
        for i in range(size):
            src, dst = rng.sample(mods[:4], 2)
            payload = rng.choice((4, 32, 128, 512, 2048))
            sim.at(start + rng.randrange(40),
                   lambda _s, s=src, d=dst, p=payload:
                   arch.ports[s].send(d, p) if s in arch.ports
                   and d in arch.ports else None)
    if fault_at is not None:
        targets = make_policy(arch, None).node_targets()
        if targets:
            inject(arch, FaultSchedule(seed).one_shot(
                fault_at, FaultKind.NODE_DOWN,
                targets[seed % len(targets)], duration=fault_for))
    if swap_at is not None and key in SWAPPABLE:
        manager = ReconfigurationManager(
            arch, get_device("XC2V1000"),
            port=ConfigPort("SelectMAP", width_bits=32, clock_hz=100e6))
        sim.at(swap_at, lambda _s: manager.swap(
            "m5", ModuleSpec("n5"), Rect(0, 0, 1, 40)))
    sim.run(9_000)
    arch.run_to_completion(max_cycles=400_000)
    return ([(m.mid, m.src, m.dst, m.accepted_cycle, m.delivered_cycle,
              m.dropped) for m in arch.log.messages],
            sim.stats.snapshot(), sim.cycle, tel.snapshot(),
            tel.engine.evaluations, tel.calls,
            [r.to_dict() for r in sim.control.actions] if control else None)


#: congested bursts under a short grid with a control loop that acts:
#: BUS-COM slot moves, DyNoC re-placements and their rollbacks, and
#: shared-bus arbiter rebalancing
ACTING = (3, [(100, 12), (140, 12), (1_500, 12), (3_000, 12)], None, 200,
          None, 16, True)

#: a DyNoC fault and swap under a control loop: a rollback finds the
#: module's old PE taken by then, and the module must stay placed
ROLLBACK = (3, [(100, 12), (140, 12), (1_500, 12), (3_000, 12)], 600, 900,
            2_000, 48, True)

#: a DyNoC swap of m5 at cycle 100 under a control loop on a 16-cycle
#: grid (one message at cycle 0): the loop acts during the swap's
#: rewrite, and its relocation must leave the PEs the swap vacated
#: free for the incoming module
RACE = (84, [(0, 1)], None, 50, 100, 16, True)


@given(key=st.sampled_from(ARCHS), case=traffic_cases())
@example(key="buscom", case=ACTING)
@example(key="dynoc", case=ACTING)
@example(key="sharedbus", case=ACTING)
@example(key="dynoc", case=ROLLBACK)
@example(key="dynoc", case=RACE)
@settings(max_examples=40, deadline=None)
def test_fast_path_matches_ticking_every_cycle(key, case):
    assert _fabric_run(key, case, True) == _fabric_run(key, case, False)


@given(key=st.sampled_from(SWAPPABLE), late=st.integers(1, 700))
@settings(max_examples=12, deadline=None)
def test_fabric_added_late_settles_from_its_add(key, late):
    """A fabric added to a simulator whose clock has advanced owes no
    ticks from before its add (the static designs attach only at
    cycle 0)."""

    def run(fast_path):
        sim = Simulator(name=f"{key}-late", fast_path=fast_path)
        sim.run(late)
        arch = build_architecture(key, sim=sim)
        sim.at(late + 5, lambda _s: arch.ports["m0"].send("m1", 64))
        sim.run(1_500)
        return ([(m.accepted_cycle, m.delivered_cycle)
                 for m in arch.log.messages], sim.stats.snapshot(),
                arch.bus_utilization() if key == "buscom" else None)

    assert run(True) == run(False)

"""Golden fixture: BUS-COM and the shared bus tick, sample and land
frames at fixed cycles, and reads between cycles see fixed values.

Both buses keep per-cycle side effects while traffic is in flight:
the d_max parallelism sample and BUS-COM's per-bus busy and total
cycle counters and TDMA position.  Their telemetry is recorded at
protocol events only: interface and arbiter queue depth at enqueue
and dequeue, a frame's or burst's busy cycles at its launch or grant.
The scenarios drive congested and idle traffic through every hook
that changes what a later cycle does:

* BUS-COM: real-time and bulk queues, dynamic-segment overruns, idle
  gaps spanning several TDMA rounds, a bus fault with slot migration
  and restore, ``reassign_slot`` to a new owner and to the dynamic
  segment, a frozen module, and an attach and detach during an idle
  stretch;
* shared bus: bursts under ``halt_bus``/``resume_bus`` and
  ``set_arbitration_order``;
* BUS-COM idle on one bus with a long ``eval_interval``, while slot
  rewrites shorten and lengthen the round between two evaluations,
  so the idle replay crosses table versions.

At event phase the scenarios read ``observed_dmax``,
``bus_utilization()`` (BUS-COM), ``FlowTelemetry.snapshot()``, and
``evaluate_now`` followed by a ``queue_current`` read (the control
loop's post-action check).  Every scenario runs in several ``run``
calls, and some calls end in the middle of a frame or burst.  A
tracer, telemetry with alert rules on a short ``eval_interval`` and
journeys are attached.  The digests were recorded with fabrics that
ticked on every cycle they carried data.  The ``telemetry``, ``trace``
and ``reads`` digests moved once, on purpose, when alert rules moved
onto ``FlowTelemetry``'s fixed evaluation grid and queue depth came
to be recorded where it changes: evaluation cycles, alert and clear
cycles, queue-depth values and, at mid-run reads, the shared bus's
busy count (a burst counts whole from its grant) changed; messages,
statistics, journeys, legs and the final utilization windows did
not.  The BUS-COM ``telemetry``, ``trace`` and ``reads`` digests moved
once more when a frame's busy cycles came to be recorded in the
windows they occupy and a bus fault took back the lost frame's
remaining cycles: per-window utilization, the link-saturation alert
cycles and bus 1's busy total (the bus that fails) changed; messages,
statistics, journeys and legs did not.  The every-cycle kernel
(``REPRO_SIM_FASTPATH=0``) reproduces every digest.

Regenerate only for an intended behaviour change::

    PYTHONPATH=src python -m tests.arch.test_horizon_order
"""

import hashlib
import json
import random

import numpy as np
import pytest

from repro.arch.baselines.sharedbus import build_sharedbus
from repro.arch.buscom.arch import build_buscom
from repro.faults import FaultKind, FaultSchedule, inject
from repro.obs.alerts import AlertEngine, AlertRule, default_rules
from repro.obs.flows import FlowTelemetry
from repro.obs.journey import JourneyRecorder
from repro.sim import Simulator, Tracer
from repro.traffic.generators import PeriodicStream, RandomTraffic

SCENARIOS = ("buscom", "buscom_idle", "sharedbus", "buscom_rewrite")

GOLDEN = {
    "buscom": {
        "messages": "1b2a40ba00f6c5b99e4976a1716331d9d51528377a8f21c9838b6c8a93221f1c",
        "stats": "7f4503995e7c6c433feb6d6e321d677f7da595b947d14ddd62337ba0877a5810",
        "trace": "9a9a97e7a2addd0cddb60d9a79ef202905430018bc698591259b3b54a664c577",
        "telemetry": "94a233c4e76124748f0f7af230c64eed93b677a896a9801416c7d079a297dcfc",
        "journeys": "db81a978594abfa6a6ecfe0205788a189bbf83a8b0a02a4d70e86ae929fc7d7e",
        "reads": "10be5cf4a80d38a2d389fdd56d5434cb17841859732957a1fffb7237b9ebbda8",
        "legs": "cef7ca03ab2101ba6bf9d6856fbd93941fd3bb88508388aecee97702414dccdd",
    },
    "buscom_idle": {
        "messages": "37ff4b5bc9d00be7476a3c1ce0fed471dded44e3a44d8829ec97917b2beaf20f",
        "stats": "5227470905441780fc6bc4777bb8480382fcf28583abda7ca1ebbe7a28be2ce5",
        "trace": "88187749176c2e4e1aece49b96ce81d65c02e17b0dc4f24ecda8f2d2b41ffa02",
        "telemetry": "662eb3ddf3aa2e763e585cf3eafddf33860bd538742bcf032051ac3ac1abd750",
        "journeys": "62114b8a5cceb5d5e0dbeb0be96c1aecb3cbc52a2136bffc86e3684332e3cdf3",
        "reads": "ef7509d93fcfd93c7f2dfb7a48f6568e1fc08bdad2d46b6e60aaa5713e489de5",
        "legs": "59e55a3d7b4b52a355cc3f72f50cacd0410be1f46b4bcf48b1c2251b64e4ff4a",
    },
    "sharedbus": {
        "messages": "4c854ee1e419730545965e49cbc080284842dd5d40170bfe0e463b413658da5b",
        "stats": "6da1243447469797521f519a426fe3059d9e1891bcf2c73230a594f192004551",
        "trace": "38db77c14881f9ffe166a9f043c74485b524da166c17edf8a189e44978a03ba9",
        "telemetry": "b735af38c3ff66bdbcce04a681d52bc3bea62585aaea0a36bdc24d71b2c46f3e",
        "journeys": "6ac24ac45f1fd956e62f71f96e332751117d9d17ec591ad0c2b84b36da1d823c",
        "reads": "1c399ca3408fe2c04cd87d3b9595aa8d3b3d439891a82bdfb151b2fb3ca2af8b",
        "legs": "972f5563281a38fc5274b992304f13a94cc2015b29998cb057f72108106490b5",
    },
    "buscom_rewrite": {
        "messages": "e1bc4187df381f56e284dcc0a61d648f4d743d1c2a26ddead467b2b9cf528f35",
        "stats": "6fdc80e459d635850fb25623a913decdf237ba24f60867e56125917746f927aa",
        "trace": "498715dd7e4bf004e73179b1f075848fe42d27de158a36489bcacadf3d157d83",
        "telemetry": "c5b5cdbff0360023627485974e914cca7ae08a87dd72af9f81dad38e784186ad",
        "journeys": "7af392cca55adb694f7b8b25f15d23f914797400efda804f649191850a18d420",
        "reads": "31e5dff2b28345228e2b9ec9d9c0e7ace22b517a558099e44e3cf44b5182a4e8",
        "legs": "96b6bcfcc919c9f21f7dc3d771740d1c6d25981b5ca70601cc0ef375028dc953",
    },
}

#: BUS-COM: a short round (4 static 20-cycle slots, 4 minislots, a
#: 30-cycle dynamic segment) so idle gaps span many rounds and bulk
#: traffic overruns the dynamic segment
BUSCOM_CFG = dict(num_modules=4, num_buses=3, slots_per_bus=8,
                  static_slots=4, dynamic_segment_cycles=30,
                  reassign_latency=16)

#: event-phase read cycles; several fall inside frames or bursts
READS = (37, 211, 700, 1_333, 2_050, 2_901, 3_777, 4_500, 5_600, 7_013)

#: run() boundaries: the scenarios stop and resume here
LEGS = (1_111, 2_345, 4_012, 6_003, 8_000)


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _observed_sim(name: str, eval_interval: int = 48) -> Simulator:
    sim = Simulator(name=name)
    sim.tracer = Tracer(max_events=1_000_000)
    telemetry = FlowTelemetry(eval_interval=eval_interval, window=256)
    telemetry.engine = AlertEngine(rules=default_rules(
        flow_p99_cycles=120, flow_p99_for=96, link_utilization=0.6,
        link_utilization_for=96, slot_overruns=2, storm_window=256)
        + [AlertRule("fabric-pressure", "queue_current", 3,
                     kind="sustained", for_cycles=64)])
    telemetry.attach(sim)
    sim.journey = JourneyRecorder()
    return sim


def _reader(arch, reads):
    sim = arch.sim
    tel = sim.telemetry

    def read(_sim) -> None:
        now = sim.cycle
        entry = {"cycle": now, "dmax": arch.observed_dmax,
                 "samples": sim.stats.histogram(
                     "parallelism.concurrent").count,
                 "snapshot": tel.snapshot(now)}
        if hasattr(arch, "bus_utilization"):
            entry["utilization"] = arch.bus_utilization()
        tel.evaluate_now(now)
        entry["pressure"] = tel.engine.current_value(
            "fabric-pressure", tel, now)
        reads.append(entry)
    return read


def _buscom(idle: bool):
    sim = _observed_sim("horizon-buscom")
    arch = build_buscom(sim=sim, **BUSCOM_CFG)
    mods = list(arch.modules)
    rng = random.Random(23)
    # bursts of real-time and bulk messages; the idle variant leaves
    # gaps of many TDMA rounds between them
    bursts = ((40, 900, 2_500, 6_400) if idle
              else (40, 420, 900, 1_700, 2_500, 3_300, 4_600, 6_400))
    for t in bursts:
        for src in mods:
            for dst in rng.sample([m for m in mods if m != src], 2):
                payload = rng.choice((8, 40, 72, 200, 600))
                tag = rng.choice(("rt", "stream", "", "bulk"))
                sim.at(t + rng.randrange(30),
                       lambda _s, s=src, d=dst, p=payload, g=tag:
                       arch.ports[s].send(d, p, tag=g))
    if not idle:
        pick = np.random.default_rng(11)
        sim.add(RandomTraffic(
            "rand", arch.ports["m0"],
            chooser=lambda: mods[1 + int(pick.integers(3))],
            rng=np.random.default_rng(12), rate=0.01, payload_bytes=48,
            start=100, stop=5_000))
        sim.add(PeriodicStream("stream", arch.ports["m3"], dst="m1",
                               period=131, payload_bytes=64, phase=7,
                               start=50, stop=6_000))
    # bus 1 fails; detection migrates its static slots, repair restores
    inject(arch, FaultSchedule(0).one_shot(
        1_000, FaultKind.NODE_DOWN, 1, duration=900))
    # slot-table rewrites: a static slot to a new owner, another to
    # the dynamic segment, then back
    sim.at(1_250, lambda _s: arch.reassign_slot(0, 1, "m3"))
    sim.at(2_200, lambda _s: arch.reassign_slot(2, 0, None))
    sim.at(3_900, lambda _s: arch.reassign_slot(2, 0, "m2"))
    # a frozen module holds its queued traffic
    sim.at(1_650, lambda _s: arch.freeze_module("m2"))
    sim.at(2_030, lambda _s: arch.unfreeze_module("m2"))
    # a module attached and detached while the buses idle
    sim.at(5_200, lambda _s: arch.attach("m4"))
    sim.at(5_350, lambda _s: arch.ports["m4"].send("m0", 300))
    sim.at(5_351, lambda _s: arch.ports["m0"].send("m4", 90, tag="rt"))
    sim.at(7_500, lambda _s: arch.detach("m4"))
    return sim, arch


def _sharedbus():
    sim = _observed_sim("horizon-sharedbus")
    arch = build_sharedbus(num_modules=4, sim=sim)
    mods = list(arch.modules)
    rng = random.Random(31)
    for t in (30, 800, 1_500, 2_600, 4_100, 6_500):
        for src in mods:
            for dst in rng.sample([m for m in mods if m != src], 2):
                payload = rng.choice((4, 64, 256, 900))
                sim.at(t + rng.randrange(20),
                       lambda _s, s=src, d=dst, p=payload:
                       arch.ports[s].send(d, p))
    sim.add(PeriodicStream("hot", arch.ports["m0"], dst="m1", period=41,
                           payload_bytes=96, phase=3, start=10,
                           stop=3_000))
    inject(arch, FaultSchedule(0).one_shot(
        1_520, FaultKind.NODE_DOWN, "bus", duration=400))
    sim.at(2_640, lambda _s: arch.set_arbitration_order(
        ["m3", "m2", "m1", "m0"]))
    sim.at(4_150, lambda _s: arch.set_arbitration_order(
        ["m1", "m3", "m0", "m2"]))
    return sim, arch


def _buscom_rewrite():
    sim = _observed_sim("horizon-buscom-rewrite", eval_interval=400)
    arch = build_buscom(sim=sim, num_modules=2, num_buses=1,
                        slots_per_bus=4, static_slots=4, reassign_latency=5)
    for t in (10, 3_100):
        sim.at(t, lambda _s: arch.ports["m0"].send("m1", 40))
    # static slots turn into one-cycle minislots and back while idle
    for t, slot, owner in ((300, 0, None), (420, 1, None), (555, 2, None),
                           (700, 3, None), (900, 0, "m1"), (1_010, 2, "m1"),
                           (2_290, 1, "m0"), (2_600, 3, "m1")):
        sim.at(t, lambda _s, sl=slot, o=owner: arch.reassign_slot(0, sl, o))
    sim.at(1_300, lambda _s: arch.attach("m9"))
    return sim, arch


def _scenario(name: str):
    if name == "sharedbus":
        sim, arch = _sharedbus()
    elif name == "buscom_rewrite":
        sim, arch = _buscom_rewrite()
    else:
        sim, arch = _buscom(idle=name == "buscom_idle")
    reads = []
    for t in READS:
        sim.at(t, _reader(arch, reads))
    legs = []
    for end in LEGS:
        sim.run(end - sim.cycle)
        # a read between run() calls, with no event in between
        legs.append({"cycle": sim.cycle, "dmax": arch.observed_dmax,
                     "stats": sim.stats.snapshot(),
                     "utilization": (arch.bus_utilization()
                                     if hasattr(arch, "bus_utilization")
                                     else None)})
    tracer = sim.tracer
    return arch, reads, legs, {
        "messages": [(m.mid, m.src, m.dst, m.accepted_cycle,
                      m.delivered_cycle, m.dropped)
                     for m in arch.log.messages],
        "stats": sim.stats.snapshot(),
        "trace": ([(e.cycle, e.source, e.kind, e.data)
                   for e in tracer.events],
                  [(s.begin, s.end, s.source, s.kind, s.data)
                   for s in tracer.spans]),
        "telemetry": sim.telemetry.snapshot(sim.cycle),
        "journeys": sim.journey.snapshot(),
        "reads": reads,
        "legs": legs,
    }


def _digests(parts):
    return {name: _sha(value) for name, value in parts.items()}


@pytest.fixture(scope="module", params=SCENARIOS)
def run(request):
    return (request.param,) + _scenario(request.param)


def test_scenario_takes_every_path(run):
    """The digests pin the tick schedule only if traffic both
    congests and idles, every hook fires, reads land inside frames
    and bursts, and alert rules fire."""
    name, arch, reads, legs, parts = run
    counters = parts["stats"]["counters"]
    if name == "buscom_rewrite":
        assert counters["buscom.slots.reassigned"] == 8
        assert "m9" in arch.modules
        assert arch.log.all_delivered()
        return
    assert counters["fault.injected"] == 1
    assert counters["fault.recovered"] == 1
    assert parts["telemetry"]["alerts"]["alerts"]
    assert len(reads) == len(READS)
    assert any(r["pressure"] for r in reads)
    if name == "sharedbus":
        assert counters["sharedbus.arbiter.rebalanced"] == 2
        in_burst = [r for r in reads
                    if any(m.accepted_cycle <= r["cycle"]
                           < m.delivered_cycle
                           for m in arch.log.messages)]
        assert in_burst
        assert arch.observed_dmax == 1
        return
    assert counters["buscom.slots.reassigned"] >= 3 + 2
    tel = parts["telemetry"]
    assert tel["counters"].get("buscom.slot_overrun", 0) > 0
    by_tag = {m.tag for m in arch.log.messages}
    assert {"rt", ""} <= by_tag
    assert any(m.src == "m4" and m.delivered for m in arch.log.messages)
    assert "m4" not in arch.modules
    frames = [(s.begin, s.end) for s in arch.sim.tracer.spans
              if s.source == "buscom" and s.kind == "frame"]
    round_len = (4 * arch.cfg.static_slot_cycles
                 + 4 * arch.cfg.empty_dynamic_slot_cycles)
    if name == "buscom":
        # a frame spans some read and some run() boundary
        assert any(b < r["cycle"] <= e for r in reads for b, e in frames)
        assert any(b < leg["cycle"] <= e for leg in legs
                   for b, e in frames)
    else:
        # some read and some run() boundary follow rounds of idle buses
        def idle_before(cycle):
            return not any(cycle - 3 * round_len <= e and b < cycle
                           for b, e in frames)
        assert any(idle_before(r["cycle"]) for r in reads)
        assert any(idle_before(leg["cycle"]) for leg in legs)
    delivered = sorted(m.delivered_cycle for m in arch.log.messages
                       if m.delivered)
    gaps = [b - a for a, b in zip(delivered, delivered[1:])]
    assert max(gaps) > 5 * round_len
    assert arch.observed_dmax >= 2


def test_horizon_order_matches_golden(run):
    name, _, _, _, parts = run
    assert _digests(parts) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(json.dumps({k: _digests(_scenario(k)[3]) for k in SCENARIOS},
                     indent=4))

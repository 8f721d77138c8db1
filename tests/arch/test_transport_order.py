"""Golden fixture: DyNoC, staticmesh and CoNoChi move packets at fixed
cycles in one fixed order.

Each tick of these fabrics routes the headers that arrived, lands the
packets whose tails cleared the ejection port and records one
link-parallelism sample; with telemetry on, the header queue's depth
is recorded where it changes.  The cycles it wakes on and the order
in which it handles several items due on one cycle fix port
reservations, delivery order and the d_max histogram.  The
scenario drives congested multi-hop bursts plus ``RandomTraffic`` and
``PeriodicStream`` injection through a router or switch fault, CoNoChi
topology changes and a module migration, with tracer, telemetry with
alerts and journeys attached.  The digests below were recorded with
transports that rescanned every in-flight packet and link interval on
each tick, the reference for time-ordered queues.  The ``telemetry``
and ``trace`` digests moved once, on purpose, when alert rules moved
onto ``FlowTelemetry``'s fixed evaluation grid (evaluation and clear
cycles changed); since then the every-cycle kernel
(``REPRO_SIM_FASTPATH=0``) reproduces every digest.

Regenerate only for an intended behaviour change::

    PYTHONPATH=src python -m tests.arch.test_transport_order
"""

import collections
import hashlib
import json
import random

import numpy as np
import pytest

from repro.arch.baselines.staticmesh import build_staticmesh
from repro.arch.conochi.arch import build_conochi, ladder_grid
from repro.arch.dynoc.arch import build_dynoc
from repro.fabric.geometry import Rect
from repro.faults import FaultKind, FaultSchedule, inject
from repro.obs.alerts import AlertEngine, default_rules
from repro.obs.flows import FlowTelemetry
from repro.obs.journey import JourneyRecorder
from repro.sim import Simulator, Tracer
from repro.traffic.generators import PeriodicStream, RandomTraffic

ARCHS = ("conochi", "dynoc", "staticmesh")

GOLDEN = {
    "conochi": {
        "messages": "3a6c23e87250154a076ceb9c17eaa4e1b5cc3961ff02e647da4281238e14847e",
        "stats": "0768f9f71994ec82c3660849627531cf6cf57cfed765eae2925e42c43837d55a",
        "trace": "f061550afafcd65eeeaeeb0fddc1d79a0893fb9bef5b5f3f0d0bde081ca992ea",
        "journeys": "e904faa8d9889db164678b2f03b02f7a6efec3804e1e921cc0127092b0562562",
        "telemetry": "468329a6973600fd2e8b70bdd8a719fbf88cf5da00a7a3f56de45f800f9501d0",
    },
    "dynoc": {
        "messages": "2ec6b529cc25092777fc2a2ca57144947517e95ededec752c5b41509d6b4149e",
        "stats": "a38789141c92131a8653e8727f35618ab05501232c1f487a70833bafee314cc4",
        "trace": "425263d8dcb1c1d6c8675255629dc9d1d0f90fbcbe63729592bb4ab9a702ec0b",
        "journeys": "daf79449e01433ea0646fecc959a189b74ca86d5ff80f0ca068db0e0997c8a27",
        "telemetry": "b62aeb67d79979f885d3792aa45afd3b0f62956fb2647a6cefa2e1793cbd6c21",
    },
    "staticmesh": {
        "messages": "2ec6b529cc25092777fc2a2ca57144947517e95ededec752c5b41509d6b4149e",
        "stats": "a38789141c92131a8653e8727f35618ab05501232c1f487a70833bafee314cc4",
        "trace": "425263d8dcb1c1d6c8675255629dc9d1d0f90fbcbe63729592bb4ab9a702ec0b",
        "journeys": "daf79449e01433ea0646fecc959a189b74ca86d5ff80f0ca068db0e0997c8a27",
        "telemetry": "b62aeb67d79979f885d3792aa45afd3b0f62956fb2647a6cefa2e1793cbd6c21",
    },
}

#: mesh architectures: 1x1 modules on the rim of a 5x5 mesh, so XY
#: paths cross the centre router the fault takes out
MESH_SITES = ((0, 0), (4, 0), (0, 4), (4, 4), (0, 2), (4, 2), (2, 0), (2, 4))
MESH_FAULT = (2, 2)
#: CoNoChi: modules at the four corners of a 4x2 switch ladder, so the
#: rails between them carry traffic and the unhomed (2, 2) can fail
CONOCHI_HOMES = (((1, 2), Rect(1, 1, 1, 1)), ((4, 2), Rect(4, 1, 1, 1)),
                 ((1, 3), Rect(1, 4, 1, 1)), ((4, 3), Rect(4, 4, 1, 1)))
CONOCHI_FAULT = (2, 2)
CONOCHI_NEW_SWITCH = (5, 2)


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _build(key: str, sim: Simulator):
    if key == "conochi":
        arch = build_conochi(num_modules=0, grid=ladder_grid(8), sim=sim)
        for i, (switch, rect) in enumerate(CONOCHI_HOMES):
            arch.attach(f"m{i}", rect=rect, switch=switch)
        return arch
    build = build_dynoc if key == "dynoc" else build_staticmesh
    arch = build(num_modules=0, mesh=(5, 5), sim=sim)
    for i, (x, y) in enumerate(MESH_SITES):
        arch.attach(f"m{i}", rect=Rect(x, y, 1, 1))
    return arch


def _reconfigure(key: str, sim: Simulator, arch) -> None:
    if key != "conochi":
        return
    sim.at(300, lambda _s: arch.add_switch(CONOCHI_NEW_SWITCH))
    sim.at(700, lambda _s: arch.migrate_module(
        "m1", CONOCHI_NEW_SWITCH, Rect(5, 1, 1, 1)))
    sim.at(1_900, lambda _s: arch.migrate_module(
        "m1", (4, 2), Rect(4, 1, 1, 1)))
    sim.at(2_400, lambda _s: arch.remove_switch(CONOCHI_NEW_SWITCH))


def _scenario(key: str):
    sim = Simulator(name=f"{key}-transport-order")
    sim.tracer = Tracer(max_events=1_000_000)
    telemetry = FlowTelemetry(eval_interval=64)
    telemetry.engine = AlertEngine(rules=default_rules(
        flow_p99_cycles=60, flow_p99_for=128, link_utilization=0.5,
        link_utilization_for=128, detours=2, storm_window=256))
    telemetry.attach(sim)
    sim.journey = JourneyRecorder()
    arch = _build(key, sim)
    mods = list(arch.modules)
    fault = CONOCHI_FAULT if key == "conochi" else MESH_FAULT
    inject(arch, FaultSchedule(0).one_shot(
        1_000, FaultKind.NODE_DOWN, fault, duration=600))
    _reconfigure(key, sim, arch)

    # every header routed, per cycle: several fall due on one cycle
    routed = collections.Counter()
    route = arch._route

    def counting_route(pkt, at, now):
        routed[now] += 1
        route(pkt, at, now)

    arch._route = counting_route

    # congested multi-hop bursts: every module sends to the far peers
    rng = random.Random(17)
    for t in (40, 450, 1_050, 1_300, 2_000, 2_450, 3_100):
        for src in mods:
            for dst in rng.sample([m for m in mods if m != src], 3):
                payload = rng.choice((16, 64, 256, 1024))
                sim.at(t + rng.randrange(4), lambda _s, s=src, d=dst, p=payload:
                       arch.ports[s].send(d, p))
    pick = np.random.default_rng(5)
    peers = mods[1:]
    sim.add(RandomTraffic("rand", arch.ports[mods[0]],
                          chooser=lambda: peers[int(pick.integers(len(peers)))],
                          rng=np.random.default_rng(3), rate=0.03,
                          payload_bytes=32, start=20, stop=3_500))
    sim.add(PeriodicStream("stream", arch.ports[mods[2]], dst=mods[1],
                           period=97, payload_bytes=128, phase=5,
                           start=60, stop=3_800))
    sim.run(6_000)
    tracer = sim.tracer
    return arch, routed, {
        "messages": [(m.mid, m.accepted_cycle, m.delivered_cycle)
                     for m in arch.log.messages],
        "stats": sim.stats.snapshot(),
        "trace": ([(e.cycle, e.source, e.kind, e.data)
                   for e in tracer.events],
                  [(s.begin, s.end, s.source, s.kind, s.data)
                   for s in tracer.spans]),
        "journeys": sim.journey.snapshot(),
        "telemetry": sim.telemetry.snapshot(sim.cycle),
    }


def _digests(parts):
    return {name: _sha(value) for name, value in parts.items()}


@pytest.fixture(scope="module", params=ARCHS)
def run(request):
    return (request.param,) + _scenario(request.param)


def test_scenario_exercises_transport(run):
    """The digests pin the due order only if several headers and
    deliveries fall due on one cycle, links carry several packets at
    once, packets detour around the fault and the fault bites."""
    key, arch, routed, parts = run
    assert max(routed.values()) > 1
    delivered = collections.Counter(
        m.delivered_cycle for m in arch.log.messages if m.delivered)
    assert max(delivered.values()) > 1
    assert arch.observed_dmax >= 4
    counters = parts["stats"]["counters"]
    assert counters["fault.injected"] == 1
    assert counters["fault.recovered"] == 1
    if key == "conochi":
        assert counters["conochi.reconfig.switch_added"] == 1
        assert counters["conochi.reconfig.switch_removed"] == 1
        assert counters["conochi.reconfig.migrations"] == 2
        # m0 -> m1 rerouted around the failed switch: 7 switches
        # instead of at most 6 on the fault-free ladder
        assert max(parts["stats"]["histograms"]["conochi.hops"]) >= 7
    else:
        assert counters["dynoc.fault.router_masked"] == 1
        assert any(s.kind == "detour" for s in arch.sim.tracer.spans)
    assert parts["telemetry"]["alerts"]["alerts"]
    assert sum(1 for m in arch.log.messages if m.delivered) > 200


def test_transport_order_matches_golden(run):
    key, _, _, parts = run
    assert _digests(parts) == GOLDEN[key]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(json.dumps({k: _digests(_scenario(k)[2]) for k in ARCHS},
                     indent=4))

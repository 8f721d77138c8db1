"""Golden fixture: the RMBoC network interfaces serve queued traffic in
one fixed order.

The NI decides, every cycle and per module, which queued message rides
which free circuit and which messages may open a new one under the
channel budget.  Those decisions fix cid numbering, the order of control
messages and hence lane allocation, so a change in the order in which
messages to *different* destinations are served shows up in latencies,
stats and traces alike.  The scenario makes every module queue bursts to
all three peers under a lowered-then-restored channel cap, a dead and
repaired cross-point and a frozen slot, with every observer attached.
The digests below were recorded with an NI that kept one queue per
module in arrival order, the reference for the per-destination FIFOs.
The ``telemetry`` digest moved once, on purpose, when NI queue depth
came to be recorded at enqueue and dequeue instead of sampled on each
tick with traffic queued: each module's final ``queue_depth`` reads 0
(its queue drained) where the last sample read 1.  It moved once
more when a transfer's lane busy cycles came to be recorded at its
acceptance, in the windows its words move in, and a dead cross-point
came to take back only the cycles its victims had still to move: each
lane's utilization series shifts, and lanes that carried a victim of
the cross-point failure at cycle 900 now count the words it moved
before the fault (``default``: ``rmboc.lane.s0b1`` 2,399 -> 2,468 busy
cycles, nine lanes in all; ``linger``: eight lanes).

Regenerate only for an intended behaviour change::

    PYTHONPATH=src python -m tests.arch.rmboc.test_ni_order
"""

import hashlib
import json
import random

import pytest

from repro.arch.rmboc import build_rmboc
from repro.obs.flows import FlowTelemetry
from repro.obs.journey import JourneyRecorder
from repro.sim import Simulator, Tracer

#: config variants: destroy-after-use (the default) and lingering
#: circuits with a budget below the bus count
VARIANTS = {
    "default": {},
    "linger": {"channel_linger": 40, "max_channels_per_module": 3},
}

GOLDEN = {
    "default": {
        "messages": "2318db5e43adf49e516dc6825e430ce5f7eb941bdae9372507d7505955abf86c",
        "stats": "43a64135bdb34b885d0ad6c0d7f9f3a7f9a3846b42662942de5de352a14f6cfe",
        "trace": "bc7ad82064e9fde8064b809ea3f9438afcb7ca79787eb9ad4e9d578daa4b8a56",
        "journeys": "7ac106430d2253a3d5568652dd418908074c57e7725d3b6abd4c932a5cddbad5",
        "telemetry": "f18d65aea1c247a8d3a827e5a2605d7939c4967d511402bb66ab97e75e4fd1ad",
    },
    "linger": {
        "messages": "dfd1d51fa5286e9095ef34f7a95de2a6cc1f234107359987e68b37d0cf0cb4e7",
        "stats": "a0fe480974dd26789f300914161d685c577fc771c84333fe8a96e6b1d38f87a4",
        "trace": "ad93c4da1b7e8a91ca1472c5d9dddca1bce6fd3eafa5fcd4d745ecd7ba2729f8",
        "journeys": "83fc4bdc9eaa94cae23b800dbf56b2f438ca45f40acbe53a811b35f49deaa4e5",
        "telemetry": "aa28abee20f45918ec9eeb1f8ca4de16f89b7997f33faa0eab80c26763f47e46",
    },
}


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _scenario(variant: str):
    sim = Simulator(name="rmboc-ni-order")
    sim.tracer = Tracer(max_events=1_000_000)
    FlowTelemetry().attach(sim)
    sim.journey = JourneyRecorder()
    arch = build_rmboc(sim=sim, **VARIANTS[variant])
    cap = arch.channel_cap
    mods = list(arch.modules)
    rng = random.Random(15)
    t = 0
    for _ in range(70):
        t += rng.randrange(5, 60)
        src = rng.choice(mods)
        peers = [m for m in mods if m != src]
        for _ in range(rng.randrange(3, 10)):
            dst = rng.choice(peers)
            payload = rng.choice((4, 32, 128, 512))
            sim.at(t, lambda _s, s=src, d=dst, p=payload:
                   arch.ports[s].send(d, p))
    sim.at(600, lambda _s: arch.set_channel_cap(1))
    sim.at(1_500, lambda _s: arch.set_channel_cap(cap))
    victims = []
    sim.at(900, lambda _s: victims.extend(arch.fail_crosspoint(2)))
    sim.at(1_250, lambda _s: arch.repair_crosspoint(2))
    sim.at(1_800, lambda _s: arch.freeze_slot(1))
    sim.at(1_950, lambda _s: arch.unfreeze_slot(1))
    sim.run(8_000)
    tracer = sim.tracer
    return arch, victims, {
        "messages": [(m.mid, m.accepted_cycle, m.delivered_cycle)
                     for m in arch.log.messages],
        "stats": sim.stats.snapshot(),
        "trace": ([(e.cycle, e.kind, e.data)
                   for e in tracer.events if e.source == "rmboc"],
                  [(s.begin, s.end, s.kind, s.data)
                   for s in tracer.spans if s.source == "rmboc"]),
        "journeys": sim.journey.snapshot(),
        "telemetry": sim.telemetry.snapshot(sim.cycle),
    }


def _digests(parts):
    return {name: _sha(value) for name, value in parts.items()}


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def run(request):
    return (request.param,) + _scenario(request.param)


def test_scenario_exercises_cross_destination_budget(run):
    """The fixture is only worth its digests if queues to several
    destinations compete for the channel budget, the cap change, the
    dead cross-point and the frozen slot actually bite."""
    _, arch, victims, _ = run
    counters = arch.sim.stats.snapshot()["counters"]
    assert counters["rmboc.channel_cap.set"] == 2
    assert counters["rmboc.cancel.dead_xp"] > 0
    assert counters["rmboc.cancel.frozen"] > 0
    assert counters["rmboc.cancel.blocked"] > 0
    assert counters["rmboc.channels.requested"] > 100
    msgs = arch.log.messages
    queued = [m for m in msgs if m.accepted_cycle - m.created_cycle > 50]
    assert len({(m.src, m.dst) for m in queued}) >= 9
    # everything but the words in flight on the dead cross-point arrives
    assert victims
    assert ({m.mid for m in msgs if not m.delivered}
            == {m.mid for m in victims})


def test_ni_order_matches_golden(run):
    variant, _, _, parts = run
    assert _digests(parts) == GOLDEN[variant]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(json.dumps({v: _digests(_scenario(v)[2]) for v in sorted(VARIANTS)},
                     indent=4))

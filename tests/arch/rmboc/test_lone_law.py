"""The zero-load law of a lone RMBoC transfer, on both kernels.

One message alone on an idle fabric (paper §3.1, Table 2;
EXPERIMENTS.md E1).  Its NI opens a circuit on the NI cycle ``t0``,
the first cycle the fabric ticks after the send: the send cycle from
an event, the next one from a component that ticks after the fabric.
The REQUEST reserves one lane per segment, two cycles per cross-point,
and the destination handshake and the REPLY take four more, so over
``d`` segments:

* the transfer is accepted at ``t0 + 2d + 6``;
* its last word is delivered ``w`` cycles later, one word per cycle;
* the idle circuit lingers ``L`` cycles and its DESTROY walks to the
  destination at one cycle per cross-point, so a drain predicate that
  reads ``idle()`` first holds at ``delivered + L + d + 2``.

The law is checked at every distance of an eight-module fabric, on
one-, eight- and 256-word payloads, with and without a linger, sent
from an event and from a component, unobserved and under telemetry
with alert rules on a 16-cycle grid and journeys.  Both kernels must
give the same statistics, telemetry, evaluation count and journey
section.  ``TICKS`` bounds the fast kernel's fabric ticks from the
send to the first idle read, on the unobserved run.
"""

import pytest

from repro.arch.rmboc import build_rmboc
from repro.obs.alerts import AlertEngine, default_rules
from repro.obs.flows import FlowTelemetry
from repro.obs.journey import JourneyRecorder
from repro.obs.ledger import journey_section
from repro.sim import SLEEP, Component, Simulator

#: the send cycle
SEND = 20

#: payload bytes -> words at the default 32-bit width
WORDS = {4: 1, 32: 8, 1024: 256}

#: linger -> the most fabric ticks one lone message may cost
TICKS = {0: 2, 3: 2}


class _Sender(Component):
    """Sends the message from its tick, registered after the fabric."""

    def __init__(self, send):
        super().__init__("sender")
        self.send = send

    def tick(self, sim):
        if sim.cycle < SEND:
            return SEND
        if sim.cycle == SEND:  # the stepped kernel ticks it every cycle
            self.send()
        return SLEEP


def _run(d, payload, linger, from_tick, fast_path, observed):
    sim = Simulator(name="rmboc-lone", fast_path=fast_path)
    tel = None
    if observed:
        tel = FlowTelemetry(eval_interval=16, window=128)
        tel.engine = AlertEngine(rules=default_rules(
            flow_p99_cycles=40, flow_p99_for=16, link_utilization=0.3,
            link_utilization_for=16, storm_window=128))
        tel.attach(sim)
        sim.journey = JourneyRecorder()
    arch = build_rmboc(sim=sim, num_modules=8, channel_linger=linger)

    def send():
        arch.ports["m0"].send(f"m{d}", payload)

    if from_tick:
        sim.add(_Sender(send))
    else:
        sim.at(SEND, lambda _s: send())
    sim.run(SEND)
    ticks = sim.tick_counts()["rmboc"]
    # a drain predicate: idle() is read every cycle the kernel steps
    sim.run_until(lambda _s: arch.log.total == 1
                  and arch.log.all_delivered() and arch.idle())
    msg, = arch.log.messages
    return {
        "law": (msg.created_cycle, msg.accepted_cycle, msg.delivered_cycle,
                sim.cycle),
        "ticks": sim.tick_counts()["rmboc"] - ticks,
        "stats": sim.stats.snapshot(),
        "telemetry": tel.snapshot(sim.cycle) if tel is not None else None,
        "evaluations": tel.engine.evaluations if tel is not None else 0,
        "journeys": journey_section([sim]),
    }


@pytest.mark.parametrize("from_tick", (False, True), ids=("event", "tick"))
@pytest.mark.parametrize("linger", (0, 3))
@pytest.mark.parametrize("payload", sorted(WORDS))
@pytest.mark.parametrize("d", range(1, 8))
def test_lone_transfer_follows_the_zero_load_law(d, payload, linger,
                                                 from_tick):
    t0 = SEND + from_tick
    accepted = t0 + 2 * d + 6
    delivered = accepted + WORDS[payload]
    law = (SEND, accepted, delivered, delivered + linger + d + 2)
    for observed in (False, True):
        stepped = _run(d, payload, linger, from_tick, False, observed)
        fast = _run(d, payload, linger, from_tick, True, observed)
        assert stepped["law"] == law
        for part in ("law", "stats", "telemetry", "evaluations",
                     "journeys"):
            assert fast[part] == stepped[part], (observed, part)
        if not observed:
            assert fast["ticks"] <= TICKS[linger]

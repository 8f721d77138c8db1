"""Golden fixture: RMBoC retry storms leave fixed records.

A REQUEST that finds every lane of a segment taken is cancelled, and
its network interface retries ``retry_backoff + src_xp`` cycles after
the cancel (paper §3.1, the A7 stagger in EXPERIMENTS.md).  Under
saturating bursts most retries meet a full first segment at the
source's own cross-point, so the cancel counters, the cid sequence,
every pair's retry time, the module's channel budget and the
``rmboc.blocked`` / ``rmboc.seg{n}`` telemetry all move once per retry.
The scenarios drive such storms through every hook that changes what a
later retry meets:

* ``source``: bursts on two buses, blocked almost always at the source;
* ``downstream``: six modules, so REQUESTs also get past their first
  segment and are cancelled further on, their CANCEL walking back;
* ``faults``: a frozen cross-point and a dead one during a storm,
  then unfreeze and repair;
* ``cap``: ``set_channel_cap`` lowered and restored mid-storm;
* ``linger``: circuits kept ``channel_linger`` cycles after use;
* ``backoff``: one bus and a dead cross-point, so pairs that crossed it
  retry with the escalated fault backoff and are then blocked at the
  source;
* ``submits``: traffic from ``sim.at`` events, from two generators
  and from a component that ticks after the fabric and also lowers
  the channel cap and freezes a slot from its tick.

Every scenario reads ``sim.stats.snapshot()``, ``idle()``,
``lanes_in_use()`` and ``channel_cap`` from events during storms, and
runs in several ``run`` calls that end mid-storm.  Each runs in three
variants: ``unobserved`` (no tracer, telemetry or journeys, as the
benchmark's ``dense`` workload runs), ``observed`` (a tracer,
telemetry with alert rules on a 32-cycle grid and journeys) and
``telemetry`` (the observed set without the tracer); the two
telemetry-bearing variants also read the telemetry snapshot and run
the rules off the grid (``evaluate_now``) at each read.  The digests
were recorded with a fabric that woke for every retry, and the
unobserved ones have not moved since.  The ``telemetry`` and ``reads``
digests of both telemetry-bearing variants, and the ``trace`` digest of
the observed one (its alert spans only), moved once, on purpose, when
a transfer's lane busy cycles came to be recorded at its acceptance, in
the windows its words move in, instead of whole at its last word: lane
utilization series and, where a transfer was still streaming at the
end of the run or lost to the dead cross-point, lane busy totals
changed, and ``link-saturation`` now fires once early (cycle 128 or
160) and stays open where it used to fire and clear with the
transfers' ends; an open episode keeps the grid running, so ``faults``
and ``cap`` evaluate 197 times instead of 183 and 182.  Messages and
statistics did not move.

Regenerate only for an intended behaviour change::

    PYTHONPATH=src python -m tests.arch.rmboc.test_storm_order
"""

import hashlib
import json
import random

import numpy as np
import pytest

from repro.arch.rmboc import build_rmboc
from repro.arch.rmboc.fabric import RMBoC
from repro.obs.alerts import AlertEngine, AlertRule, default_rules
from repro.obs.flows import FlowTelemetry
from repro.obs.journey import JourneyRecorder
from repro.sim import SLEEP, Component, Simulator, Tracer
from repro.traffic.generators import PeriodicStream, RandomTraffic

SCENARIOS = ("source", "downstream", "faults", "cap", "linger", "backoff",
             "submits")
VARIANTS = ("unobserved", "observed", "telemetry")

GOLDEN = {
    "source-unobserved": {
        "messages": "e28774aac5d5eeda3d3a17d234ac0d63360be27a11d4bafb1b994564dcb19338",
        "stats": "e381cb0d1fbb6e48de2268d591b694da453802b744857b5bc76f69ef6a268e4c",
        "reads": "16ad49dacc83346ee84f72d0b55caa9adcab062189936e2081661fc7b906475e",
    },
    "source-observed": {
        "messages": "e28774aac5d5eeda3d3a17d234ac0d63360be27a11d4bafb1b994564dcb19338",
        "stats": "e381cb0d1fbb6e48de2268d591b694da453802b744857b5bc76f69ef6a268e4c",
        "reads": "06dd999965976d7734e2ccff5e6f142193b8431da073aaf27d8cf322016669ef",
        "telemetry": "c966e048590307fb4615a25efe2a3afd519689f2c7379e4f18ff88817ef472cb",
        "journeys": "ce90419c2ac8f5682f62242e4d29004477ccb936b02837945c4424753463a615",
        "trace": "bc443611392b6ffb2dcb499c94e49dc5357a980c501ff4a98e28f05434d0b51f",
    },
    "source-telemetry": {
        "messages": "e28774aac5d5eeda3d3a17d234ac0d63360be27a11d4bafb1b994564dcb19338",
        "stats": "e381cb0d1fbb6e48de2268d591b694da453802b744857b5bc76f69ef6a268e4c",
        "reads": "06dd999965976d7734e2ccff5e6f142193b8431da073aaf27d8cf322016669ef",
        "telemetry": "c966e048590307fb4615a25efe2a3afd519689f2c7379e4f18ff88817ef472cb",
        "journeys": "ce90419c2ac8f5682f62242e4d29004477ccb936b02837945c4424753463a615",
    },
    "downstream-unobserved": {
        "messages": "09376e61d1b374c5ef24fa14f60d511dffa735f5446dcbbfebd8e6e17076c675",
        "stats": "60a9dc494ed4ff50a02c48507ae520fb4e5b797a3049084c08f117c9871f1132",
        "reads": "5b503d2f5fc3dfa0df1d7edfbbcf54478aac417eebf9aab0f7e1f4fa998db8b6",
    },
    "downstream-observed": {
        "messages": "09376e61d1b374c5ef24fa14f60d511dffa735f5446dcbbfebd8e6e17076c675",
        "stats": "60a9dc494ed4ff50a02c48507ae520fb4e5b797a3049084c08f117c9871f1132",
        "reads": "fa18b1e5328bddf4c56b5f6a6e7a64f3d09ffcc243e15eac6b6235a71830e851",
        "telemetry": "624a2363015e7ee08fe31cf366778de9f39e6b01558b8cbff52e58cd3e698654",
        "journeys": "948823b471297a0c886f5ad505927196364044930efa88abe71a225dcc718b9d",
        "trace": "88b472f890afc88847b9ee832f78c6d4e0738ead324837df6966abdc01390539",
    },
    "downstream-telemetry": {
        "messages": "09376e61d1b374c5ef24fa14f60d511dffa735f5446dcbbfebd8e6e17076c675",
        "stats": "60a9dc494ed4ff50a02c48507ae520fb4e5b797a3049084c08f117c9871f1132",
        "reads": "fa18b1e5328bddf4c56b5f6a6e7a64f3d09ffcc243e15eac6b6235a71830e851",
        "telemetry": "624a2363015e7ee08fe31cf366778de9f39e6b01558b8cbff52e58cd3e698654",
        "journeys": "948823b471297a0c886f5ad505927196364044930efa88abe71a225dcc718b9d",
    },
    "faults-unobserved": {
        "messages": "416c84ce2c57890c752704e70acc797bfd3e55a0351410b09cddbad68131d578",
        "stats": "51b159cbd7d9249e138f9c3811a3bb509053dd12632ac7314b7dffdeefcabcbf",
        "reads": "02cc84c973e213b52f89c8b420b38633e3306536d716d33012af0efc6afc9b66",
    },
    "faults-observed": {
        "messages": "416c84ce2c57890c752704e70acc797bfd3e55a0351410b09cddbad68131d578",
        "stats": "51b159cbd7d9249e138f9c3811a3bb509053dd12632ac7314b7dffdeefcabcbf",
        "reads": "8415212ab8c55b5857c8b33fb2a140cfad6fafaa79a6de9ab4fad8c7530bc8ea",
        "telemetry": "327796258fb12a85dda5d54799652a2f65b6d0dd3f40fba3941cc2850350e221",
        "journeys": "f9f0986466f20e271f62bb685853f61e49b9b264fca49765649191db0de65ac8",
        "trace": "415ab36dc4ce402fb4489b102b69b909c89c94b93d08d2ce034c63d2313847e0",
    },
    "faults-telemetry": {
        "messages": "416c84ce2c57890c752704e70acc797bfd3e55a0351410b09cddbad68131d578",
        "stats": "51b159cbd7d9249e138f9c3811a3bb509053dd12632ac7314b7dffdeefcabcbf",
        "reads": "8415212ab8c55b5857c8b33fb2a140cfad6fafaa79a6de9ab4fad8c7530bc8ea",
        "telemetry": "327796258fb12a85dda5d54799652a2f65b6d0dd3f40fba3941cc2850350e221",
        "journeys": "f9f0986466f20e271f62bb685853f61e49b9b264fca49765649191db0de65ac8",
    },
    "cap-unobserved": {
        "messages": "99c25d1e8cfbf8210c4bce64ec785491f6419644ab9b1db53d171b38b2ae35a0",
        "stats": "69628340c19a7ca161609480d076c971c95194b800632979fc992f58f8430a4c",
        "reads": "992a49b3cc10c06db45624f78fdd84ace71142351a5c39592ffa4165f02afd42",
    },
    "cap-observed": {
        "messages": "99c25d1e8cfbf8210c4bce64ec785491f6419644ab9b1db53d171b38b2ae35a0",
        "stats": "69628340c19a7ca161609480d076c971c95194b800632979fc992f58f8430a4c",
        "reads": "d83d0ed52ca161c3552fb1ce916e650bc07b1df1b1c2a4976b04d7def5ed0b3b",
        "telemetry": "913f3a6e3ef3eb9af60c7336fc00b1756af7b90a93de31b524766fe73a2f096c",
        "journeys": "39c8fbd489b8f3d72f49919b7b8768ba84ecf3d0fa17b287b96f3b5881e60ce3",
        "trace": "5d6916bd96278eff7cdb39766f3507572ac525f3a3e774a8d6d2dba514cdb048",
    },
    "cap-telemetry": {
        "messages": "99c25d1e8cfbf8210c4bce64ec785491f6419644ab9b1db53d171b38b2ae35a0",
        "stats": "69628340c19a7ca161609480d076c971c95194b800632979fc992f58f8430a4c",
        "reads": "d83d0ed52ca161c3552fb1ce916e650bc07b1df1b1c2a4976b04d7def5ed0b3b",
        "telemetry": "913f3a6e3ef3eb9af60c7336fc00b1756af7b90a93de31b524766fe73a2f096c",
        "journeys": "39c8fbd489b8f3d72f49919b7b8768ba84ecf3d0fa17b287b96f3b5881e60ce3",
    },
    "linger-unobserved": {
        "messages": "fca198bd892f10ba3e7225bc395ef095636d665cfda5f2c6509408f1f05f9add",
        "stats": "5646dafd254cfcbbc4cbc287591149c4161d5aab71e240a58723be5d5592dfc2",
        "reads": "a5e15616c9a89153579faf2e3bee8bc42e5ca10861f74a27306753485c000d9c",
    },
    "linger-observed": {
        "messages": "fca198bd892f10ba3e7225bc395ef095636d665cfda5f2c6509408f1f05f9add",
        "stats": "5646dafd254cfcbbc4cbc287591149c4161d5aab71e240a58723be5d5592dfc2",
        "reads": "3a66e7dcdfef52d89f167963360846425bab8fd72edd7bd929381adc6408531f",
        "telemetry": "7b88b189989201058bf79b5a5034103787b0522ead922d0f9ff8e7860a493c29",
        "journeys": "2a14a1a2156535d866edf8a52e06f732370dfd21c1c8f22030219daf94fa753c",
        "trace": "a501c47ebb3c749d8959a1584d9f2143ebfca8d992fda5215fd6982f5352b44e",
    },
    "linger-telemetry": {
        "messages": "fca198bd892f10ba3e7225bc395ef095636d665cfda5f2c6509408f1f05f9add",
        "stats": "5646dafd254cfcbbc4cbc287591149c4161d5aab71e240a58723be5d5592dfc2",
        "reads": "3a66e7dcdfef52d89f167963360846425bab8fd72edd7bd929381adc6408531f",
        "telemetry": "7b88b189989201058bf79b5a5034103787b0522ead922d0f9ff8e7860a493c29",
        "journeys": "2a14a1a2156535d866edf8a52e06f732370dfd21c1c8f22030219daf94fa753c",
    },
    "backoff-unobserved": {
        "messages": "08f349ee36b7de1ae8e81a56d70c214d6f27ea9f1588e269bbf5dc5d6e780882",
        "stats": "61b93f9f7a1c3082a332afc7474aeb252933c7157784793b2983fe9eda485671",
        "reads": "04306969d43fb992034b34420b97f508df49365883e9e1ba401e5f4b84309df0",
    },
    "backoff-observed": {
        "messages": "08f349ee36b7de1ae8e81a56d70c214d6f27ea9f1588e269bbf5dc5d6e780882",
        "stats": "61b93f9f7a1c3082a332afc7474aeb252933c7157784793b2983fe9eda485671",
        "reads": "3696fad58434ecb5a520b1acf5004c8d4a19f69c0b7b5e1bffe18986c2d3260a",
        "telemetry": "c243faed61024dca9db057beaf5bc7f4c4a528f77bb0e37dc86d93f45a62ecb3",
        "journeys": "9c3a5b9a8753e4206e682cad2bffd8a9d68536001867c17f6fcf1e47e81362ed",
        "trace": "7febc3014fa3bc93d43988d4ff668b83dd80a306259d896b53c212e5fa12e90a",
    },
    "backoff-telemetry": {
        "messages": "08f349ee36b7de1ae8e81a56d70c214d6f27ea9f1588e269bbf5dc5d6e780882",
        "stats": "61b93f9f7a1c3082a332afc7474aeb252933c7157784793b2983fe9eda485671",
        "reads": "3696fad58434ecb5a520b1acf5004c8d4a19f69c0b7b5e1bffe18986c2d3260a",
        "telemetry": "c243faed61024dca9db057beaf5bc7f4c4a528f77bb0e37dc86d93f45a62ecb3",
        "journeys": "9c3a5b9a8753e4206e682cad2bffd8a9d68536001867c17f6fcf1e47e81362ed",
    },
    "submits-unobserved": {
        "messages": "529d8b1d042db486c3afe6ccf6d1480154eb60b28f21cd0603a1aac61cdcd8e7",
        "stats": "dda26ec1ed660e1c0fd59f50b30f73c0a8607e206fa2e6e95e4680be836d4cfa",
        "reads": "6740b3dcf8e5ef8b106998454c813316a007c17cb3106f15581ef650c507c9fd",
    },
    "submits-observed": {
        "messages": "529d8b1d042db486c3afe6ccf6d1480154eb60b28f21cd0603a1aac61cdcd8e7",
        "stats": "dda26ec1ed660e1c0fd59f50b30f73c0a8607e206fa2e6e95e4680be836d4cfa",
        "reads": "b27c60a4c4054d2fa37738b36577da112166f20a736dd7f9a65d4c401b18c4d8",
        "telemetry": "12cdbb083af1fa6ed97aa3f4c9b3adfaa238d2a5fb776e06379dbc72ab22dc42",
        "journeys": "45ad353d384851f1b92636cff0ca0d729ed10f401d799e5bdeba97db42938d04",
        "trace": "86acfc60e773c70f5b8e484fe7cc96d0b77342666bcf688d7a82a89b2c9eed71",
    },
    "submits-telemetry": {
        "messages": "529d8b1d042db486c3afe6ccf6d1480154eb60b28f21cd0603a1aac61cdcd8e7",
        "stats": "dda26ec1ed660e1c0fd59f50b30f73c0a8607e206fa2e6e95e4680be836d4cfa",
        "reads": "b27c60a4c4054d2fa37738b36577da112166f20a736dd7f9a65d4c401b18c4d8",
        "telemetry": "12cdbb083af1fa6ed97aa3f4c9b3adfaa238d2a5fb776e06379dbc72ab22dc42",
        "journeys": "45ad353d384851f1b92636cff0ca0d729ed10f401d799e5bdeba97db42938d04",
    },
}

#: event-phase read cycles, most of them inside storms
READS = (90, 333, 777, 1_201, 1_650, 2_222, 2_950, 3_500, 4_111, 5_300)

#: run() boundaries: the scenarios stop and resume here
LEGS = (1_111, 2_499, 3_999, 6_000)

#: burst starts: every module sends to every peer within 40 cycles
BURSTS = (20, 1_400, 2_900, 4_300)

CONFIGS = {
    "source": dict(num_modules=4, num_buses=2),
    "downstream": dict(num_modules=6, num_buses=2),
    "faults": dict(num_modules=4, num_buses=2),
    "cap": dict(num_modules=4, num_buses=3),
    "linger": dict(num_modules=4, num_buses=2, channel_linger=60,
                   max_channels_per_module=2),
    "backoff": dict(num_modules=4, num_buses=1, fault_backoff_cap=96),
    "submits": dict(num_modules=4, num_buses=2),
}


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


class _Actor(Component):
    """Acts from its tick at fixed cycles: sends, channel-cap changes
    and slot freezes, as a controller component registered after the
    fabric would."""

    def __init__(self, arch, plan):
        super().__init__("actor")
        self.arch = arch
        self.plan = sorted(plan, key=lambda step: step[0])
        self._next = 0

    def tick(self, sim):
        plan = self.plan
        while self._next < len(plan) and plan[self._next][0] <= sim.cycle:
            _, act = plan[self._next]
            act(self.arch)
            self._next += 1
        if self._next < len(plan):
            return max(plan[self._next][0], sim.cycle + 1)
        return SLEEP


def _sim(name: str, variant: str) -> Simulator:
    sim = Simulator(name=f"rmboc-storm-{name}")
    if variant == "unobserved":
        return sim
    if variant == "observed":
        sim.tracer = Tracer(max_events=1_000_000)
    telemetry = FlowTelemetry(eval_interval=32, window=256)
    telemetry.engine = AlertEngine(rules=default_rules(
        flow_p99_cycles=600, flow_p99_for=96, link_utilization=0.6,
        link_utilization_for=96, storm_window=256)
        + [AlertRule("backoff-storm", "counter:rmboc.blocked", 24,
                     kind="burn_rate", window=128),
           AlertRule("sender-wait", "backpressure_p99", 4,
                     kind="sustained", for_cycles=64)])
    telemetry.attach(sim)
    sim.journey = JourneyRecorder()
    return sim


def _bursts(sim, arch, seed: int, payloads=(256, 1024, 4096),
            starts=BURSTS) -> None:
    mods = list(arch.modules)
    rng = random.Random(seed)
    for t in starts:
        for src in mods:
            for dst in mods:
                if dst == src:
                    continue
                payload = rng.choice(payloads)
                sim.at(t + rng.randrange(40),
                       lambda _s, s=src, d=dst, p=payload:
                       arch.ports[s].send(d, p))


def _reader(arch, reads):
    sim = arch.sim

    def read(_sim) -> None:
        now = sim.cycle
        # the stats snapshot first: nothing before it brings owed
        # ticks in
        entry = {"cycle": now, "stats": sim.stats.snapshot(),
                 "idle": arch.idle(), "lanes": arch.lanes_in_use(),
                 "cap": arch.channel_cap}
        tel = sim.telemetry
        if tel is not None:
            entry["telemetry"] = tel.snapshot(now)
            tel.evaluate_now(now)
            entry["active"] = sorted(tel.engine.active(now))
        reads.append(entry)
    return read


def _build(name: str, variant: str):
    sim = _sim(name, variant)
    arch = build_rmboc(sim=sim, **CONFIGS[name])
    mods = list(arch.modules)
    victims = []
    if name == "downstream":
        # long hauls hold the middle segments while short pairs and
        # bursts over every pair try to cross them
        _bursts(sim, arch, seed=5, payloads=(128, 1024, 2048))
        for t in range(60, 5_000, 700):
            sim.at(t, lambda _s: arch.ports["m0"].send("m5", 4096))
            sim.at(t + 9, lambda _s: arch.ports["m5"].send("m1", 4096))
    elif name == "backoff":
        _bursts(sim, arch, seed=9, payloads=(512, 2048))
        # seg0 busy for long stretches: m0's retries toward m3, which
        # crossed the dead cross-point before, meet it at the source
        for t in range(150, 3_400, 400):
            sim.at(t, lambda _s: arch.ports["m1"].send("m0", 4096))
            sim.at(t + 3, lambda _s: arch.ports["m0"].send("m3", 64))
        sim.at(200, lambda _s: victims.extend(arch.fail_crosspoint(2)))
        sim.at(3_300, lambda _s: arch.repair_crosspoint(2))
    else:
        _bursts(sim, arch, seed=len(name))
    if name == "faults":
        sim.at(460, lambda _s: arch.freeze_slot(1))
        sim.at(1_090, lambda _s: arch.unfreeze_slot(1))
        sim.at(1_460, lambda _s: victims.extend(arch.fail_crosspoint(2)))
        sim.at(2_350, lambda _s: arch.repair_crosspoint(2))
        sim.at(3_010, lambda _s: arch.freeze_slot(3))
        sim.at(3_260, lambda _s: arch.unfreeze_slot(3))
    elif name == "cap":
        sim.at(150, lambda _s: arch.set_channel_cap(1))
        sim.at(1_480, lambda _s: arch.set_channel_cap(2))
        sim.at(2_100, lambda _s: arch.set_channel_cap(3))
        sim.at(2_990, lambda _s: arch.set_channel_cap(1))
        sim.at(4_700, lambda _s: arch.set_channel_cap(3))
    elif name == "submits":
        pick = np.random.default_rng(3)
        sim.add(RandomTraffic(
            "rand", arch.ports["m0"],
            chooser=lambda: mods[1 + int(pick.integers(3))],
            rng=np.random.default_rng(4), rate=0.02, payload_bytes=320,
            start=10, stop=5_200))
        sim.add(PeriodicStream("stream", arch.ports["m3"], dst="m1",
                               period=97, payload_bytes=700, phase=5,
                               start=30, stop=5_500))
        sends = [(t, lambda a, s=s, d=d: a.ports[s].send(d, 1536))
                 for t, s, d in ((41, "m2", "m0"), (43, "m1", "m3"),
                                 (1_402, "m0", "m2"), (1_417, "m2", "m3"),
                                 (2_903, "m1", "m0"), (4_333, "m3", "m0"))]
        sim.add(_Actor(arch, sends + [
            (700, lambda a: a.set_channel_cap(1)),
            (1_300, lambda a: a.set_channel_cap(2)),
            (2_930, lambda a: a.freeze_slot(2)),
            (3_150, lambda a: a.unfreeze_slot(2)),
        ]))
    return sim, arch, victims


def _scenario(name: str, variant: str):
    sim, arch, victims = _build(name, variant)
    reads = []
    for t in READS:
        sim.at(t, _reader(arch, reads))
    for end in LEGS:
        sim.run(end - sim.cycle)
    parts = {
        "messages": [(m.mid, m.src, m.dst, m.accepted_cycle,
                      m.delivered_cycle, m.dropped)
                     for m in arch.log.messages],
        "stats": sim.stats.snapshot(),
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
    return arch, victims, parts


def _digests(parts):
    return {part: _sha(value) for part, value in parts.items()}


CASES = [(name, variant) for name in SCENARIOS for variant in VARIANTS]


@pytest.fixture(scope="module", params=CASES,
                ids=[f"{n}-{v}" for n, v in CASES])
def run(request):
    return request.param + _scenario(*request.param)


def test_storm_order_matches_golden(run):
    name, variant, _, _, parts = run
    assert _digests(parts) == GOLDEN[f"{name}-{variant}"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_storms(name, monkeypatch):
    """The digests are only worth keeping if the storms and the hooks
    they are meant to cover actually happen: most REQUESTs blocked,
    mostly at the source, every hook firing mid-storm.  Checked on the
    traced variant, where every REQUEST is processed where it stands."""
    # per cancel: started at the source, and the pair's fault attempts
    origin = []
    cancel = RMBoC._start_cancel

    def spy(self, ch, from_xp, now):
        pair = (ch.src_module, ch.dst_module)
        origin.append((from_xp == ch.src_xp,
                       self._fault_attempts.get(pair, 0)))
        return cancel(self, ch, from_xp, now)

    monkeypatch.setattr(RMBoC, "_start_cancel", spy)
    arch, victims, parts = _scenario(name, "observed")
    counters = parts["stats"]["counters"]
    requested = counters["rmboc.channels.requested"]
    blocked = counters["rmboc.cancel.blocked"]
    assert blocked > requested // 2
    at_source = sum(src for src, _ in origin)
    assert at_source > blocked // 2
    # storms are under way at most reads
    stormy = [r for r in parts["reads"]
              if not r["idle"] and r["lanes"] > 0]
    assert len(stormy) >= len(READS) - 3
    assert parts["telemetry"]["alerts"]["alerts"]
    msgs = arch.log.messages
    assert sum(m.delivered for m in msgs) > len(msgs) // 4
    if name == "downstream":
        assert len(origin) - at_source > 20
    if name == "faults":
        assert counters["rmboc.cancel.frozen"] > 0
        assert counters["rmboc.cancel.dead_xp"] > 0
        assert victims
    if name == "cap":
        assert counters["rmboc.channel_cap.set"] == 5
        assert {r["cap"] for r in parts["reads"]} >= {1, 2, 3}
    if name == "linger":
        assert counters["rmboc.channels.destroyed"] > 0
        assert counters["rmboc.channels.established"] < len(msgs)
    if name == "backoff":
        assert counters["rmboc.cancel.dead_xp"] > 3
        # pairs whose fault backoff escalated were blocked at the
        # source, so they retried after the escalated backoff
        assert any(src and attempts >= 2 for src, attempts in origin)
    if name == "submits":
        assert {"rand", "stream", "actor"} <= {
            c.name for c in arch.sim.components}
        assert counters["rmboc.cancel.frozen"] > 0
        assert counters["rmboc.channel_cap.set"] == 2


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(json.dumps({f"{n}-{v}": _digests(_scenario(n, v)[2])
                      for n, v in CASES}, indent=4))

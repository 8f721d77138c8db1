"""Golden fixture: RMBoC control messages walk hop by hop to fixed
records.

A circuit is set up by a REQUEST that reserves one lane per segment,
one cross-point every ``xp_proc_cycles`` (paper §3.1, setup(d) =
2d + 6), and torn down by a DESTROY, or a CANCEL after a refusal, that
releases the lanes one cross-point every ``cancel_proc_cycles``.  A
lane is held from its REQUEST until the CANCEL or DESTROY reaches that
cross-point (Ahmadinia et al., arXiv cs/0503066).  The scenarios run
long circuits on eight modules under moderate load, so that most
control messages walk several hops with nothing else due, and drive
every hook that changes what a later hop meets:

* ``walk``: destroy-after-use circuits (``channel_linger`` 0);
* ``linger``: circuits kept 40 cycles after use, under a budget of two;
* ``fail``: cross-points fail while REQUESTs and DESTROYs cross them,
  from events and from a component that ticks after the fabric, and
  are repaired;
* ``freeze``: slots frozen ahead of walking REQUESTs, then unfrozen;
* ``cap``: ``set_channel_cap`` lowered and restored;
* ``attach``: a destination detached while REQUESTs walk toward it,
  and attached again.

Every scenario reads ``sim.stats.snapshot()``, ``idle()``,
``lanes_in_use()`` and ``channel_cap`` from events, and runs in several
``run`` calls.  Each runs in three variants: ``unobserved`` (no tracer,
telemetry or journeys), ``telemetry`` (telemetry with alert rules on a
32-cycle grid, and journeys) and ``observed`` (the same with a tracer);
the two telemetry-bearing variants also read the telemetry snapshot and
run the rules off the grid (``evaluate_now``) at each read.  The
digests were recorded with a fabric that woke for every control-message
hop and stayed hot one cycle after every network-interface action; the
every-cycle kernel (``REPRO_SIM_FASTPATH=0``) reproduces every digest.

Regenerate only for an intended behaviour change::

    PYTHONPATH=src python -m tests.arch.rmboc.test_walk_order
"""

import hashlib
import json
import random

import pytest

from repro.arch.rmboc import build_rmboc
from repro.arch.rmboc.fabric import RMBoC
from repro.arch.rmboc.protocol import CtrlKind
from repro.obs.alerts import AlertEngine, AlertRule, default_rules
from repro.obs.flows import FlowTelemetry
from repro.obs.journey import JourneyRecorder
from repro.sim import SLEEP, Component, Simulator, Tracer
from repro.traffic.generators import PeriodicStream

SCENARIOS = ("walk", "linger", "fail", "freeze", "cap", "attach")
VARIANTS = ("unobserved", "telemetry", "observed")

GOLDEN = {
    "walk-unobserved": {
        "messages": "74bbc860480f85950d78d6a07061e8e2860ad93ad26e823d9dc6d8385da302db",
        "stats": "2c701d5ae7ab0f1ee9254352de48541bed00fe887fea81fe48f65120c049c81f",
        "reads": "ff9a89028cb8236b5e1280884e1802801643c92644b07f7059b2c671e25401e6",
    },
    "walk-telemetry": {
        "messages": "74bbc860480f85950d78d6a07061e8e2860ad93ad26e823d9dc6d8385da302db",
        "stats": "2c701d5ae7ab0f1ee9254352de48541bed00fe887fea81fe48f65120c049c81f",
        "reads": "2ace83a1b7a3855c2c7af722646bea48f3658fbce79887cbb4d4753aa34900a7",
        "telemetry": "9e1d61229f70fb7ad7155af355ed4e70e0841333161e0dab591c71446f01ed24",
        "journeys": "63772d230634ead78a233aa8ae76daa3b3124549365618daad9573dc4cc4bafd",
    },
    "walk-observed": {
        "messages": "74bbc860480f85950d78d6a07061e8e2860ad93ad26e823d9dc6d8385da302db",
        "stats": "2c701d5ae7ab0f1ee9254352de48541bed00fe887fea81fe48f65120c049c81f",
        "reads": "2ace83a1b7a3855c2c7af722646bea48f3658fbce79887cbb4d4753aa34900a7",
        "telemetry": "9e1d61229f70fb7ad7155af355ed4e70e0841333161e0dab591c71446f01ed24",
        "journeys": "63772d230634ead78a233aa8ae76daa3b3124549365618daad9573dc4cc4bafd",
        "trace": "75d7ad51f8e9ff7551a3f209b2c89c0ce2cd42833c1528e861bc6cfe06031483",
    },
    "linger-unobserved": {
        "messages": "c6f6a6e7dad92878633c7a28a17fa3f1ce6dc6f4b1d8e176604fd31d15819ef6",
        "stats": "45c7f7a3d9f8f945f8f80ff927f6dbe68a40907c3989a924f7c58d8c820adc04",
        "reads": "2295be81d56e819ad2a3ac995177a2d3fcc20776a853ef5da74814520c3569a5",
    },
    "linger-telemetry": {
        "messages": "c6f6a6e7dad92878633c7a28a17fa3f1ce6dc6f4b1d8e176604fd31d15819ef6",
        "stats": "45c7f7a3d9f8f945f8f80ff927f6dbe68a40907c3989a924f7c58d8c820adc04",
        "reads": "d29be01b51bfe17e387ed4c92eb19caca88e58ef85a80ae72a48151c0fa68e9d",
        "telemetry": "1ed231d799fb85f80271aa7ad972115e7b3324341e3fecbe40315b9b65d0f9be",
        "journeys": "db7ebfe4862dc4793b570806ffaa70a68874339748e4baa021b9c9cabf2bdc7b",
    },
    "linger-observed": {
        "messages": "c6f6a6e7dad92878633c7a28a17fa3f1ce6dc6f4b1d8e176604fd31d15819ef6",
        "stats": "45c7f7a3d9f8f945f8f80ff927f6dbe68a40907c3989a924f7c58d8c820adc04",
        "reads": "d29be01b51bfe17e387ed4c92eb19caca88e58ef85a80ae72a48151c0fa68e9d",
        "telemetry": "1ed231d799fb85f80271aa7ad972115e7b3324341e3fecbe40315b9b65d0f9be",
        "journeys": "db7ebfe4862dc4793b570806ffaa70a68874339748e4baa021b9c9cabf2bdc7b",
        "trace": "19b04361cbf7f0e4a4f7fdf74a30dcf1e805676f79414a56b11ff4091fbf8ceb",
    },
    "fail-unobserved": {
        "messages": "481ef13554c389d63baba2507c0109ac06e06e1a9318d0f0c90885380596291b",
        "stats": "b89c86e7b2963ebd3f792bd0d4c36fdfabaff010ad3a0f9defb2da93e65cb4e9",
        "reads": "f51ef4642cb5e89ad642814e54a24bfb8c324b723bbb80f889238adc35f38a14",
    },
    "fail-telemetry": {
        "messages": "481ef13554c389d63baba2507c0109ac06e06e1a9318d0f0c90885380596291b",
        "stats": "b89c86e7b2963ebd3f792bd0d4c36fdfabaff010ad3a0f9defb2da93e65cb4e9",
        "reads": "568d41f3bae7680139c344da28ddb2fe44a9987c8a8979971583d7e11b509a1a",
        "telemetry": "b410509f719465178ecc2bf3b54e288efa991acb71487be95166be13b8b81122",
        "journeys": "b53d20d4c84cf87c7f9efa440c1358ee649c61288e701d94b8bf45cd909e07dc",
    },
    "fail-observed": {
        "messages": "481ef13554c389d63baba2507c0109ac06e06e1a9318d0f0c90885380596291b",
        "stats": "b89c86e7b2963ebd3f792bd0d4c36fdfabaff010ad3a0f9defb2da93e65cb4e9",
        "reads": "568d41f3bae7680139c344da28ddb2fe44a9987c8a8979971583d7e11b509a1a",
        "telemetry": "b410509f719465178ecc2bf3b54e288efa991acb71487be95166be13b8b81122",
        "journeys": "b53d20d4c84cf87c7f9efa440c1358ee649c61288e701d94b8bf45cd909e07dc",
        "trace": "8dc8a77242dea27698d4b5f1b8f6ba4b227296d831606e70c248b709726d5f0b",
    },
    "freeze-unobserved": {
        "messages": "a049f2ba429a65797f87bcd5f42a185e54b9a9eed5f85a839c34d7ab0551bf97",
        "stats": "45f45990990fe23ee0c7936f5825f54ffad094048020409e2eeca2b3ea1a859b",
        "reads": "3dba20b16eb75dde33cb08c774d541535aae0d11ce229cd9c82f188e651a7036",
    },
    "freeze-telemetry": {
        "messages": "a049f2ba429a65797f87bcd5f42a185e54b9a9eed5f85a839c34d7ab0551bf97",
        "stats": "45f45990990fe23ee0c7936f5825f54ffad094048020409e2eeca2b3ea1a859b",
        "reads": "2ec04d5f851721017249f32c8afe98a099f6e365c3cc8f634830f0bc99072724",
        "telemetry": "311981403a714ed49d394a2ceeed9f479ee4d171f107d10059b7aec3c4beb272",
        "journeys": "af85ee55f03a1b78ca0acf8d0206ddfd5fd923b8193b95ed66a4854d67b4cc76",
    },
    "freeze-observed": {
        "messages": "a049f2ba429a65797f87bcd5f42a185e54b9a9eed5f85a839c34d7ab0551bf97",
        "stats": "45f45990990fe23ee0c7936f5825f54ffad094048020409e2eeca2b3ea1a859b",
        "reads": "2ec04d5f851721017249f32c8afe98a099f6e365c3cc8f634830f0bc99072724",
        "telemetry": "311981403a714ed49d394a2ceeed9f479ee4d171f107d10059b7aec3c4beb272",
        "journeys": "af85ee55f03a1b78ca0acf8d0206ddfd5fd923b8193b95ed66a4854d67b4cc76",
        "trace": "683d999b447bba893a885c92cf135fa4842810f83a242576fe22c476f15ad2e7",
    },
    "cap-unobserved": {
        "messages": "c6586f358172413047dc64e1426a48417ed29b54d9059e05f65b513d864dbb5f",
        "stats": "1615c1995efd1bc5a44ae12c921ba57c16335b9e1a0512b192bc5eaeec2a3f70",
        "reads": "ed4fcbc4abbda5ad64a8578048e0aa0bc5875ae1cc7de9e05fc0a58f78ea92da",
    },
    "cap-telemetry": {
        "messages": "c6586f358172413047dc64e1426a48417ed29b54d9059e05f65b513d864dbb5f",
        "stats": "1615c1995efd1bc5a44ae12c921ba57c16335b9e1a0512b192bc5eaeec2a3f70",
        "reads": "ff0434bb362c65c7ec96fcf0c83540ccfe227183bb60c7ddf2003f1c70fa4b4e",
        "telemetry": "b4d6220fa8c72886f80590cfc49f162348bce68124d5cccd3b9372325dd4309b",
        "journeys": "719114f8cfb1614e1594edbb6339ce1f3ca782247c09b89637ddb64e6189e172",
    },
    "cap-observed": {
        "messages": "c6586f358172413047dc64e1426a48417ed29b54d9059e05f65b513d864dbb5f",
        "stats": "1615c1995efd1bc5a44ae12c921ba57c16335b9e1a0512b192bc5eaeec2a3f70",
        "reads": "ff0434bb362c65c7ec96fcf0c83540ccfe227183bb60c7ddf2003f1c70fa4b4e",
        "telemetry": "b4d6220fa8c72886f80590cfc49f162348bce68124d5cccd3b9372325dd4309b",
        "journeys": "719114f8cfb1614e1594edbb6339ce1f3ca782247c09b89637ddb64e6189e172",
        "trace": "f153355452a942df61f6d7a6c9d0400cf8ed1bddf14426081d084a5940f870d8",
    },
    "attach-unobserved": {
        "messages": "2c6e4d8c6aacc3259d4854bb52d77722a9a16cb3db29fa2ab11b25bb409f9b90",
        "stats": "4a290bc1738d7e82555cac52fb30e567b0544c21dd531a6f53ada9b9e41b1262",
        "reads": "da49bf28850fe85c3ca038ecfbda75ecdb4e40c2e4bb46438f87236e395fabf4",
    },
    "attach-telemetry": {
        "messages": "2c6e4d8c6aacc3259d4854bb52d77722a9a16cb3db29fa2ab11b25bb409f9b90",
        "stats": "4a290bc1738d7e82555cac52fb30e567b0544c21dd531a6f53ada9b9e41b1262",
        "reads": "f8efec8122805a85480c1c6f6b35e9fac4222632664a5cd175f68b504b098f2e",
        "telemetry": "4a938098601204f28d43130e056f9b024c537bddabeeec408babe323bdb895cf",
        "journeys": "2d425492baf1e3346cfbd562ce12684dd4cfb63693b36dc1e1bfcd3e78ff9a6b",
    },
    "attach-observed": {
        "messages": "2c6e4d8c6aacc3259d4854bb52d77722a9a16cb3db29fa2ab11b25bb409f9b90",
        "stats": "4a290bc1738d7e82555cac52fb30e567b0544c21dd531a6f53ada9b9e41b1262",
        "reads": "f8efec8122805a85480c1c6f6b35e9fac4222632664a5cd175f68b504b098f2e",
        "telemetry": "4a938098601204f28d43130e056f9b024c537bddabeeec408babe323bdb895cf",
        "journeys": "2d425492baf1e3346cfbd562ce12684dd4cfb63693b36dc1e1bfcd3e78ff9a6b",
        "trace": "2e811faf13bd6a28a5c1ef12fd89dcd6df9c39e84bde70d9c7e9abc72eb78770",
    },
}

#: event-phase read cycles
READS = (75, 402, 999, 1_337, 1_801, 2_468, 3_030, 3_777)

#: run() boundaries: the scenarios stop and resume here
LEGS = (1_234, 2_500, 4_200)

CONFIGS = {
    "walk": dict(num_modules=8, num_buses=4),
    "linger": dict(num_modules=7, num_buses=3, channel_linger=40,
                   max_channels_per_module=2),
    "fail": dict(num_modules=8, num_buses=3),
    "freeze": dict(num_modules=8, num_buses=4),
    "cap": dict(num_modules=6, num_buses=3),
    "attach": dict(num_modules=8, num_buses=4),
}

#: hooks per scenario: (cycle, from a tick?, name, argument)
HOOKS = {
    "fail": ((613, False, "fail", 4), (905, False, "repair", 4),
             (1_529, True, "fail", 3), (1_830, True, "repair", 3),
             (2_741, False, "fail", 5), (2_744, True, "repair", 5)),
    "freeze": ((511, False, "freeze", 5), (740, False, "unfreeze", 5),
               (1_403, True, "freeze", 3), (1_650, True, "unfreeze", 3),
               (2_207, False, "freeze", 6), (2_210, True, "unfreeze", 6)),
    "cap": ((350, False, "cap", 1), (1_100, True, "cap", 2),
            (1_900, False, "cap", 3), (2_650, True, "cap", 1),
            (3_300, False, "cap", 3)),
    "attach": ((700, False, "detach", "m5"), (1_150, False, "attach", 5),
               (2_300, True, "detach", "m5"), (2_900, True, "attach", 5)),
}


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
    sim = Simulator(name=f"rmboc-walk-{name}", fast_path=fast_path)
    if variant == "unobserved":
        return sim
    if variant == "observed":
        sim.tracer = Tracer(max_events=1_000_000)
    telemetry = FlowTelemetry(eval_interval=32, window=256)
    telemetry.engine = AlertEngine(rules=default_rules(
        flow_p99_cycles=150, flow_p99_for=64, link_utilization=0.3,
        link_utilization_for=64, storm_window=256)
        + [AlertRule("backoff-storm", "counter:rmboc.blocked", 4,
                     kind="burn_rate", window=128)])
    telemetry.attach(sim)
    sim.journey = JourneyRecorder()
    return sim


def _hook(arch, victims, name, arg):
    if name == "fail":
        return lambda: victims.extend(arch.fail_crosspoint(arg))
    if name == "repair":
        return lambda: arch.repair_crosspoint(arg)
    if name == "freeze":
        return lambda: arch.freeze_slot(arg)
    if name == "unfreeze":
        return lambda: arch.unfreeze_slot(arg)
    if name == "cap":
        return lambda: arch.set_channel_cap(arg)
    if name == "detach":
        return lambda: arch.detach(arg)
    return lambda: arch.attach("m5", xp=arg)


def _build(name: str, variant: str, fast_path=None):
    sim = _sim(name, variant, fast_path)
    arch = build_rmboc(sim=sim, **CONFIGS[name])
    mods = list(arch.modules)
    n = len(mods)
    rng = random.Random(sum(map(ord, name)))
    # long circuits: each message crosses at least half the array
    t = 0
    while t < 3_600:
        t += rng.randrange(10, 50)
        i = rng.randrange(n)
        j = (i + rng.randrange(n // 2, n)) % n
        src, dst = mods[i], mods[j]
        if name == "attach" and src == "m5":
            continue  # m5 only receives: it detaches with empty queues
        payload = rng.choice((8, 32, 64, 200))
        sim.at(t, lambda _s, s=src, d=dst, p=payload:
               arch.ports[s].send(d, p))
    sim.add(PeriodicStream("stream", arch.ports[mods[0]], dst=mods[-1],
                           period=83, payload_bytes=96, phase=11,
                           start=20, stop=3_900))
    victims = []
    steps = []
    for at, from_tick, hook, arg in HOOKS.get(name, ()):
        # circuits set up across the hook's cross-point as it fires
        far = "m5" if name == "attach" else mods[-1]
        for src, dst, lead in ((mods[0], far, 6), (far, mods[0], 11)):
            if src != "m5" or name != "attach":
                sim.at(at - lead, lambda _s, s=src, d=dst:
                       arch.ports[s].send(d, 48))
        act = _hook(arch, victims, hook, arg)
        if from_tick:
            steps.append((at, act))
        else:
            sim.at(at, lambda _s, act=act: act())
    if steps:
        sim.add(_Actor(steps))
    return sim, arch, victims


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


def _scenario(name: str, variant: str, fast_path=None):
    sim, arch, victims = _build(name, variant, fast_path)
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


def test_walk_order_matches_golden(run):
    name, variant, _, _, parts = run
    assert _digests(parts) == GOLDEN[f"{name}-{variant}"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_walks(name, monkeypatch):
    """The digests are only worth keeping if control messages walk
    several hops, and each hook meets a walk where it bites: a failed
    cross-point on a walk's path, a frozen slot ahead of a REQUEST, a
    detached destination with REQUESTs on their way to it.  Checked
    on the every-cycle kernel, where every hop is processed where it
    stands."""
    seen = []

    def spy(method):
        real = getattr(RMBoC, method)

        def wrapped(self, *args, **kwargs):
            seen.append((method, args, self.sim.cycle,
                         [(cm.kind, cm.at_xp, cm.channel.src_xp,
                           cm.channel.dst_xp) for cm in self._ctrl]))
            return real(self, *args, **kwargs)
        monkeypatch.setattr(RMBoC, method, wrapped)

    for method in ("fail_crosspoint", "freeze_slot", "_detach_impl"):
        spy(method)
    arch, victims, parts = _scenario(name, "observed", fast_path=False)
    counters = parts["stats"]["counters"]
    msgs = arch.log.messages
    assert counters["rmboc.channels.requested"] > 150
    assert sum(m.delivered for m in msgs) > len(msgs) * 3 // 4
    assert counters["rmboc.channels.destroyed"] > 100
    assert sum(r["idle"] for r in parts["reads"]) <= 1
    assert len({r["lanes"] for r in parts["reads"]}) > 3
    assert parts["telemetry"]["alerts"]["alerts"] or name == "linger"

    def crossing(ctrl, xp, kinds):
        lo_hi = [(min(s, d), max(s, d)) for _, _, s, d in ctrl]
        return any(kind in kinds and lo <= xp <= hi
                   for (kind, _, _, _), (lo, hi) in zip(ctrl, lo_hi))

    if name == "fail":
        assert counters["rmboc.cancel.dead_xp"] > 0
        assert victims
        fails = [(args[0], ctrl) for method, args, _, ctrl in seen
                 if method == "fail_crosspoint"]
        assert len(fails) == 3
        assert all(crossing(ctrl, xp, (CtrlKind.REQUEST, CtrlKind.DESTROY))
                   for xp, ctrl in fails)
    if name == "freeze":
        assert counters["rmboc.cancel.frozen"] > 0
        freezes = [(args[0], ctrl) for method, args, _, ctrl in seen
                   if method == "freeze_slot"]
        # a REQUEST short of the frozen slot, on its way across it
        assert any(kind is CtrlKind.REQUEST and (xp - at) * (d - s) > 0
                   and (d - xp) * (d - s) >= 0
                   for xp, ctrl in freezes for kind, at, s, d in ctrl)
    if name == "cap":
        assert counters["rmboc.channel_cap.set"] == 5
        assert {r["cap"] for r in parts["reads"]} == {1, 2, 3}
    if name == "attach":
        assert counters["rmboc.cancel.no_dest"] > 0
        detaches = [ctrl for method, _, _, ctrl in seen
                    if method == "_detach_impl"]
        assert len(detaches) == 2
        assert all(any(kind is CtrlKind.REQUEST and d == 5
                       for kind, _, _, d in ctrl) for ctrl in detaches)
    if name == "linger":
        assert counters["rmboc.channels.established"] < len(msgs)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(json.dumps({f"{n}-{v}": _digests(_scenario(n, v)[2])
                      for n, v in CASES}, indent=4))

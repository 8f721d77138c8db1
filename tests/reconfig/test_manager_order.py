"""Golden fixture: the reconfiguration manager's operations leave fixed
records, counters, trace events and spans, telemetry and journeys.

Each architecture runs two scenarios with bystander traffic, tracer,
telemetry with alerts and journeys attached:

* ``swap`` — a swap with a second swap queued behind it on the
  configuration port, a swap whose first rewrite fails its integrity
  check and is retried, a swap whose every rewrite fails and that
  rolls back, a swap whose quiesce is stuck but completes, and a swap
  whose stuck quiesce runs past the deadline and aborts;
* ``install_remove`` — a :class:`~repro.reconfig.Scenario` that blanks
  one module's region and then installs a new module into it, with a
  bitstream corruption armed while the removal runs.

The swap digests were recorded with a manager that wrote the swap
sequence out separately from install and remove; they must not move.
That manager raised ``TypeError`` on a traced quiesce abort (its
``quiesce_aborted`` event passed a ``kind`` field that collides with
``Simulator.emit``'s own argument), so they were recorded with that one
call fixed to name the operation ``op``, as the manager does now.
The install/remove digests moved once, on purpose, when the three
operations came to share one phase sequence: ``reconfig.cycles`` also
counts install and removal rewrites, a removal emits ``rewrite_start``
and every rewrite span names both ``out`` and ``into``, and an install
runs the integrity check, so the armed corruption hits it.  The swap
``stats`` digests moved once, on purpose, when ``reconfig.cycles`` came
to count the rollback's rewrite too; only that counter changed (RMBoC
19,663 -> 22,472, BUS-COM 13,811 -> 15,784, DyNoC 15,484 -> 17,696,
CoNoChi 15,274 -> 17,456 cycles).  The ``telemetry`` and swap
``trace`` digests moved once, on purpose, when alert rules moved onto
``FlowTelemetry``'s fixed evaluation grid and queue depth came to be
recorded where it changes (evaluation counts, the mttr-budget and
quiesce-budget fire cycles and final queue depths changed); since then
the every-cycle kernel (``REPRO_SIM_FASTPATH=0``) reproduces every
digest.  The BUS-COM ``telemetry`` digests moved once more when a
frame's busy cycles came to be recorded in the windows they occupy:
only per-window bus utilization changed, not any bus's busy total.
The RMBoC swap ``telemetry`` digest moved once more when a transfer's
lane busy cycles came to be recorded at its acceptance, in the windows
its words move in: one transfer of ``rmboc.lane.s2b0`` now splits
across the windows at 28,672 and 29,696, whose utilization reads
0.0791 and 0.0850 instead of 0.0859 and 0.0781; the lane's busy total
did not change.

Regenerate only for an intended behaviour change::

    PYTHONPATH=src python -m tests.reconfig.test_manager_order
"""

import dataclasses
import hashlib
import json

import pytest

from repro.arch import build_architecture
from repro.fabric.bitstream import ConfigPort
from repro.fabric.device import get_device
from repro.fabric.geometry import Rect
from repro.faults import FaultKind, FaultSchedule, inject
from repro.obs.alerts import AlertEngine, default_rules
from repro.obs.flows import FlowTelemetry
from repro.obs.journey import JourneyRecorder
from repro.reconfig import ModuleSpec, ReconfigurationManager, Scenario
from repro.sim import Tracer
from repro.traffic.generators import PeriodicStream

ARCHS = ("rmboc", "buscom", "dynoc", "conochi")
CASES = ("swap", "install_remove")

GOLDEN = {
    "rmboc": {
        "swap": {
            "records": "5e9bdbaff60ca3cb939b8271a31c074cfbd371424077c41a5a34d51db5cb9107",
            "messages": "eb28bec6fb486561e2da096e7a0d74001edc3340a53907dbdcdc96273fabfa49",
            "stats": "4391d87488c4a2e8f894482fd89e5227dfdba12647babedc965cdc2d18918f4b",
            "trace": "e1aea8d6e3646436b7772881a528f95178701f52fad55aa29460475442a0ee9b",
            "telemetry": "646638164184f3f2668abc88baf9c2bfabd6bcfa040562b5398edcc09e5f5326",
            "journeys": "19a5655cdccf415ff121cba10b21bcf714038194958e9a613391f1c81d0c28bb",
        },
        "install_remove": {
            "records": "29d61f4f39acce7df22d4ecdf46d39d239fd403d1210d20c66d33bc6c74f9c16",
            "messages": "296719d01871574a492c5f31211264c529a30d425e1f7b77ce695e6b8e768148",
            "stats": "9c3dd489eff6c8ddeb22132be9ab30c2a9330e2c29510bc5186f35a59b4f11e8",
            "trace": "74163c68da52f800e4741b5f0ffa677a87f69091fb83c476e80e6c0c1caaf51e",
            "telemetry": "569434ccb038db00ffeb081160496f33ce502a9e99b31faf631b6c8845250363",
            "journeys": "1d7b478220ee19da4e7ca9315bfac2313a53e68b2109c9443f1671e211fd35d5",
        },
    },
    "buscom": {
        "swap": {
            "records": "ef35ea6ac6beacc57a696ecdf07620eb8bbdb61354072513b12cdad54a0d60f0",
            "messages": "a3500d918d31e2882f1bda073276e6297fd410b9b6d907b8de3b2b0c0f83eae6",
            "stats": "68d1abdc6507e9153187c27125b2c76635e142ec6e07c26f4537666ba779f904",
            "trace": "40cfcce2a0102eee78b108c4d35b2973905cac0e2a87bc0a27e4703f9f83c3a4",
            "telemetry": "77f14977a657d3c3b04c4b7c9d91b2a859932c6bd51489680f00970031637543",
            "journeys": "3b267789d4b00a12a930b6d8f43c38812b38f1f4a36461e1f578e194b4959011",
        },
        "install_remove": {
            "records": "6b53cdb76bf85ef348f092c6a0918e982ddd686b46edc57826f1ae35c014ec3c",
            "messages": "dadb98d6f6aa9515dd61805b9b9519b32979aa44496c9174de657069f1187a35",
            "stats": "d66a47236c263e6f997ae3a4c8331099e551ab9fe40cff6ae0757c0f477539c7",
            "trace": "e9f53f197be95af1cbe0d2ab77a9e7839919cddf6d0af2942306a152eaec385e",
            "telemetry": "838476cbd195fc7d2e325905163ca6d5313806bf287cee491332a4e1049be45c",
            "journeys": "c9e6c9d890b8d59a52680c73d2917d107c86215c3647f0e159603c24be60de2a",
        },
    },
    "dynoc": {
        "swap": {
            "records": "abcdd2ba591367f43077ab884d8b87baf581dd163cb56d3644aa16835afd61a1",
            "messages": "bdd86f2e5c3d6e79630cf97a7fdecc47c39499986045a6307b1e8e07bfe78dad",
            "stats": "24e5edb76bef3b9d215a37c82fe4394af58ccbdcd5d4b0897872ef13a70d6029",
            "trace": "7cae0755b7724ea2842977c8548812cce61639c68678183ebea793583e799050",
            "telemetry": "804915b11cdb867ce9215ae046c686a689a265843bfeba4b074148d3de5ab770",
            "journeys": "4f80638d15a9e38f7b1a21cab2e5301b5a1ec1d99165f3b116f84add52a9c3a9",
        },
        "install_remove": {
            "records": "d87f8c7cf2a17b87ff43f75aa71a6aa76af55c05f5ef9025ecbc2601faeecb8f",
            "messages": "60768fcf9509e7a435b2973d9716334b620b76f97875f5e876703831b0e51fff",
            "stats": "08122553e3fce765d7f3c3f32edaecf0e93410603978e3fcdad771ae70641169",
            "trace": "7d578f98354af71d3bd7524a587228e7b59619f45614f42b636a6dffd1c10277",
            "telemetry": "b14c0af733d1f14ee794d7f690ce5805469b6f93b9e89924863d3694cb4d6c78",
            "journeys": "1073be742c48daae9164fcc6738cce1b6775a302b5630611a49d5c33cc990af1",
        },
    },
    "conochi": {
        "swap": {
            "records": "2a4669928803fd89d4572a74bd00fedfc84a8cc954d3718bd220df54492f90ad",
            "messages": "9fa07272bc4704d25be81a1b36804f12536d744a26410722696be065f422ad1a",
            "stats": "d908cd24867dd64312b8a38a13f9355ae262bad0031be88e5cf491d55cdb2f30",
            "trace": "1da1219bdce4922bade5ea225100facf901ddd2f936e6efa05535e0c42eb4caf",
            "telemetry": "780f35404b008314f852d3a4deb84f5b432321d8e787327362850beeac8bc7d1",
            "journeys": "7196a144b2845b2f33f55b5a0da395c2f6572deb883ae20746fbc53c1329ab56",
        },
        "install_remove": {
            "records": "49302b797f4db0d0f3487abbe59f403491ca998850d41f6a9a60f9ffb048e478",
            "messages": "5b2791d2d39b1db6370f6aa1703b457f794e1bd7d9ac5ae223a3274994782183",
            "stats": "a60ae326933882d0d195fabe90636fea9a370473f9a6c04741b3680196531f58",
            "trace": "dbc8ebef43b81ece344ffbd1508dbb9a87b699099338df2afa4609bad9b0495f",
            "telemetry": "f9ddaba626cdd111ad02060e6374abcee2f9421dba14e1a34726e3c33c6e5d03",
            "journeys": "e92de121101a431da77e29afcf4f38dcfbd5e1e1c0163d9c69305cc0dfe2c116",
        },
    },
}

#: one configuration column of a small device over a 32-bit SelectMAP
#: port: a rewrite takes 2-3k cycles, long enough for bystander traffic
DEVICE = "XC2V1000"
PORT = ConfigPort("SelectMAP", width_bits=32, clock_hz=100e6)
REGION = Rect(0, 0, 1, 40)
#: small enough that the abort case reaches the deadline quickly
QUIESCE_TIMEOUT = 3_000
#: one retry, so the second corrupt rewrite already rolls back
MAX_RETRIES = 1
#: request cycles of the swap scenario, each well after the previous
#: operation finished on the slowest fabric (RMBoC: 2,809-cycle rewrite)
T_PAIR, T_RETRY, T_ROLLBACK, T_STUCK, T_ABORT = (
    100, 8_000, 16_000, 27_000, 32_000)
STUCK_CYCLES = 700


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _observed(key: str):
    arch = build_architecture(key)
    sim = arch.sim
    sim.tracer = Tracer(max_events=1_000_000)
    telemetry = FlowTelemetry(eval_interval=64)
    telemetry.engine = AlertEngine(rules=default_rules(
        flow_p99_cycles=400, flow_p99_for=256, quiesce_budget_cycles=500,
        mttr_budget_cycles=2_000))
    telemetry.attach(sim)
    sim.journey = JourneyRecorder()
    manager = ReconfigurationManager(arch, get_device(DEVICE), port=PORT,
                                     quiesce_timeout=QUIESCE_TIMEOUT,
                                     max_retries=MAX_RETRIES)
    return arch, manager


def _send(arch, src: str, dst: str, payload: int):
    return lambda _s: arch.ports[src].send(dst, payload)


def _swap_scenario(key: str):
    arch, manager = _observed(key)
    sim = arch.sim
    sim.add(PeriodicStream("bystander", arch.ports["m2"], "m3", period=97,
                           payload_bytes=32, phase=3, stop=T_ABORT + 4_000))
    inject(arch, FaultSchedule(0)
           .one_shot(T_RETRY, FaultKind.BITSTREAM_CORRUPT, "a")
           .one_shot(T_STUCK, FaultKind.STUCK_QUIESCE, "b",
                     extra_cycles=STUCK_CYCLES), manager=manager)
    records = []
    done = []

    def swap(module_out: str, module_in: str):
        def request(_s) -> None:
            records.append(manager.swap(module_out, ModuleSpec(module_in),
                                        REGION, on_done=done.append))
        return request

    # each outgoing module is mid-transfer when its swap is requested
    for t, src in ((T_PAIR, "m0"), (T_PAIR, "m1"), (T_RETRY, "a"),
                   (T_ROLLBACK, "c"), (T_STUCK, "b"), (T_ABORT, "e")):
        sim.at(t - 20, _send(arch, src, "m2", 512))
    sim.at(T_PAIR, swap("m0", "a"))
    sim.at(T_PAIR, swap("m1", "b"))      # queued behind m0 -> a
    sim.at(T_RETRY, swap("a", "c"))
    sim.at(T_ROLLBACK, lambda _s: manager.fault_corrupt_next(
        count=MAX_RETRIES + 1))
    sim.at(T_ROLLBACK, swap("c", "d"))
    sim.at(T_STUCK, swap("b", "e"))
    sim.at(T_ABORT, lambda _s: manager.fault_stick_quiesce(
        QUIESCE_TIMEOUT + 1_000))
    sim.at(T_ABORT, swap("e", "f"))
    sim.run_until(lambda s: len(done) == 6, max_cycles=200_000)
    # the new modules are reachable, the rolled-back one is not there
    sim.after(10, _send(arch, "m3", "c", 64))
    sim.after(10, _send(arch, "e", "m3", 64))
    arch.run_to_completion(max_cycles=200_000)
    return arch, records, done


def _install_remove_scenario(key: str):
    arch, manager = _observed(key)
    sim = arch.sim
    kwargs = {}
    if key == "rmboc":
        kwargs = {"xp": arch.xp_of("m3")}
    elif key == "dynoc":
        kwargs = {"rect": arch.placement_of("m3").rect}
    elif key == "conochi":
        kwargs = {"rect": arch.grid.modules["m3"]}
    sim.add(PeriodicStream("bystander", arch.ports["m1"], "m2", period=97,
                           payload_bytes=32, phase=3, stop=12_000))
    sim.at(80, _send(arch, "m3", "m0", 512))
    sim.at(90, _send(arch, "m0", "m3", 256))
    scenario = (Scenario(manager)
                .remove(100, "m3", REGION)
                .install(150, ModuleSpec("n"), REGION, **kwargs))
    # armed while the removal runs, before the install's rewrite ends
    sim.at(200, lambda _s: manager.fault_corrupt_next())
    scenario.run_to_completion(max_cycles=200_000)
    sim.after(10, _send(arch, "m0", "n", 64))
    sim.after(10, _send(arch, "n", "m1", 64))
    arch.run_to_completion(max_cycles=200_000)
    return arch, scenario.records, None


def _parts(arch, records):
    sim = arch.sim
    tracer = sim.tracer
    return {
        "records": [dataclasses.asdict(r) for r in records],
        "messages": [(m.mid, m.src, m.dst, m.accepted_cycle,
                      m.delivered_cycle) for m in arch.log.messages],
        "stats": sim.stats.snapshot(),
        "trace": ([(e.cycle, e.source, e.kind, e.data)
                   for e in tracer.events],
                  [(s.begin, s.end, s.source, s.kind, s.data)
                   for s in tracer.spans]),
        "telemetry": sim.telemetry.snapshot(sim.cycle),
        "journeys": sim.journey.snapshot(),
    }


def _scenario(key: str, case: str):
    build = _swap_scenario if case == "swap" else _install_remove_scenario
    arch, records, done = build(key)
    return arch, records, done, _parts(arch, records)


def _digests(parts):
    return {name: _sha(value) for name, value in parts.items()}


@pytest.fixture(scope="module", params=ARCHS)
def swap_run(request):
    return (request.param,) + _scenario(request.param, "swap")


@pytest.fixture(scope="module", params=ARCHS)
def install_remove_run(request):
    return (request.param,) + _scenario(request.param, "install_remove")


def test_swap_scenario_reaches_every_path(swap_run):
    """The swap digests pin the pipeline only if the queued swap waits
    for the first to attach and every exit is taken: attach after a
    retry, rollback, a stuck quiesce that completes, and an abort."""
    key, arch, records, done, parts = swap_run
    pair, queued, retried, rolled, stuck, aborted = records
    assert [r.module_in for r in done] == ["a", "b", "c", "d", "e", "f"]
    spans = arch.sim.tracer.spans
    queued_quiesce = [s for s in spans if s.kind == "quiesce"
                      and s.data.get("out") == "m1"]
    assert queued_quiesce[0].begin == pair.attach_cycle
    assert queued.requested_cycle < pair.attach_cycle <= queued.freeze_cycle
    assert retried.retries >= 1 and retried.done and not retried.rolled_back
    assert rolled.rolled_back and rolled.retries == MAX_RETRIES
    assert stuck.done and stuck.detach_cycle >= T_STUCK + STUCK_CYCLES
    assert aborted.aborted and not aborted.done
    for prev, nxt in zip(records[1:], records[2:]):
        assert prev.attach_cycle < nxt.requested_cycle
    assert set(arch.modules) == {"c", "e", "m2", "m3"}
    counters = parts["stats"]["counters"]
    assert counters["reconfig.rollbacks"] == 1
    assert counters["reconfig.quiesce_aborted"] == 1
    assert counters["fault.recovered"] == 2
    assert parts["telemetry"]["alerts"]["alerts"]
    assert all(m.delivered for m in arch.log.messages)


def test_swap_counts_every_rewrite(swap_run):
    """``reconfig.cycles`` counts every rewrite the records account
    for: the retried rewrite and the rollback's rewrite included."""
    key, arch, records, _, parts = swap_run
    counted = parts["stats"]["counters"]["reconfig.cycles"]
    assert counted == sum(r.reconfig_cycles for r in records)
    if key == "rmboc":
        assert counted == 22_472


def test_install_remove_scenario_runs(install_remove_run):
    """Install and remove run the swap's phases: the install's rewrite
    is integrity-checked, and every rewrite is counted and traced."""
    key, arch, records, _, parts = install_remove_run
    removed, installed = records
    assert removed.done and installed.done
    assert removed.detach_cycle > 100   # waited for m3's transfers
    assert installed.freeze_cycle >= removed.attach_cycle
    assert installed.retries == 1 and not removed.retries
    assert parts["stats"]["counters"]["reconfig.cycles"] == (
        removed.reconfig_cycles + installed.reconfig_cycles)
    starts = arch.sim.tracer.query(kind="rewrite_start")
    assert [(e.data["out"], e.data["into"]) for e in starts] == [
        ("m3", ""), ("", "n"), ("", "n")]
    assert "m3" not in arch.modules and "n" in arch.modules
    assert all(m.delivered for m in arch.log.messages)


def test_swap_matches_golden(swap_run):
    key, *_, parts = swap_run
    assert _digests(parts) == GOLDEN[key]["swap"]


def test_install_remove_matches_golden(install_remove_run):
    key, *_, parts = install_remove_run
    assert _digests(parts) == GOLDEN[key]["install_remove"]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(json.dumps({k: {c: _digests(_scenario(k, c)[-1]) for c in CASES}
                      for k in ARCHS}, indent=4))

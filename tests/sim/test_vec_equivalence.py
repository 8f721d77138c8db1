"""The benchmark's engine entry point: ``build_architecture(engine=)``.

There is one simulator.  ``build_architecture`` still accepts
``engine="object"`` and ``engine="vec"`` because the benchmark's
``dense`` workload runs every fabric under both names; ``"vec"``
builds a :class:`~repro.arch.VecSimulator`, the same kernel flagged
``vectorized``.  For every architecture, workload, observation setting
and fault script the two names must give exactly the same statistics,
telemetry, traces and journeys.
"""

import json
import random

import pytest

from repro.arch import VecSimulator, build_architecture
from repro.obs.session import ObservationSession
from repro.sim import SimError, Simulator
from repro.sim.engine import FASTPATH_ENV

ALL_ARCHS = ("sharedbus", "rmboc", "buscom", "conochi", "dynoc",
             "staticmesh")


def _fingerprint(sim):
    parts = [json.dumps(sim.stats.snapshot(), sort_keys=True, default=str)]
    if sim.telemetering:
        parts.append(json.dumps(sim.telemetry.snapshot(sim.cycle),
                                sort_keys=True, default=str))
    if sim.tracing:
        parts.append(json.dumps([repr(e) for e in sim.tracer.events],
                                default=str))
    if sim.journeying:
        parts.append(json.dumps(sim.journey.snapshot(), sort_keys=True))
    return parts


def _mask_one_router(arch):
    """Fail the first maskable router (deterministic pick)."""
    accesses = {pl.access for pl in arch._placements.values()}
    for coord in arch._router_active:
        if arch.is_active(coord) and coord not in accesses:
            arch.fail_router(coord)
            return


_FAULT_SCRIPTS = {
    "dynoc": lambda sim, arch: (
        sim.at(400, lambda _s: _mask_one_router(arch)),
        sim.at(1400, lambda _s: [arch.repair_router(c)
                                 for c in list(arch._failed_routers)]),
    ),
    "staticmesh": lambda sim, arch: (
        sim.at(400, lambda _s: _mask_one_router(arch)),
        sim.at(1400, lambda _s: [arch.repair_router(c)
                                 for c in list(arch._failed_routers)]),
    ),
    "sharedbus": lambda sim, arch: (
        sim.at(400, lambda _s: arch.halt_bus()),
        sim.at(700, lambda _s: arch.resume_bus()),
    ),
    "buscom": lambda sim, arch: (
        sim.at(400, lambda _s: arch.fail_bus(0)),
        sim.at(900, lambda _s: arch.repair_bus(0)),
    ),
    "rmboc": lambda sim, arch: (
        sim.at(400, lambda _s: arch.fail_crosspoint(1)),
        sim.at(900, lambda _s: arch.repair_crosspoint(1)),
        sim.at(1200, lambda _s: arch.freeze_slot(2)),
        sim.at(1500, lambda _s: arch.unfreeze_slot(2)),
    ),
}


def _drive(key, engine, telemetry=False, faults=False, tracing=False,
           journeys=False, seed=7, sends=150, cycles=2_500):
    with ObservationSession(trace=tracing, telemetry=telemetry,
                            journeys=journeys, max_events=1_000_000):
        arch = build_architecture(key, engine=engine, seed=seed)
    sim = arch.sim
    assert getattr(sim, "vectorized", False) is (engine == "vec")
    mods = list(arch.modules)
    rng = random.Random(seed)
    t = 0
    for _ in range(sends):
        t += rng.randrange(1, 25)
        src, dst = rng.sample(mods, 2)
        payload = rng.choice([4, 16, 64, 256])
        sim.at(t, lambda _s, a=arch, s=src, d=dst, p=payload:
               a.ports[s].send(d, p))
    if faults:
        _FAULT_SCRIPTS[key](sim, arch)
    sim.run(cycles)
    return _fingerprint(sim)


@pytest.mark.parametrize("telemetry", (False, True),
                         ids=("plain", "telemetry"))
@pytest.mark.parametrize("key", ALL_ARCHS)
def test_engines_bit_identical(key, telemetry):
    obj = _drive(key, "object", telemetry=telemetry)
    vec = _drive(key, "vec", telemetry=telemetry)
    assert obj == vec


@pytest.mark.parametrize("key", ALL_ARCHS)
def test_engines_bit_identical_observed(key):
    """Telemetry with the default alert rules, a tracer and journeys."""
    obj = _drive(key, "object", telemetry=True, tracing=True,
                 journeys=True)
    vec = _drive(key, "vec", telemetry=True, tracing=True, journeys=True)
    assert len(obj) == 4
    assert obj == vec


@pytest.mark.parametrize("key", sorted(_FAULT_SCRIPTS))
def test_engines_bit_identical_under_faults(key):
    obj = _drive(key, "object", faults=True)
    vec = _drive(key, "vec", faults=True)
    assert obj == vec


@pytest.mark.parametrize("key", ("rmboc", "dynoc"))
def test_engines_bit_identical_with_tracing(key):
    obj = _drive(key, "object", telemetry=True, faults=True, tracing=True)
    vec = _drive(key, "vec", telemetry=True, faults=True, tracing=True)
    assert obj == vec


def test_rmboc_reconfiguration_mid_run_equivalent():
    """Detach/attach during traffic, with messages queued for the
    unattached destination (attach does not wake the fabric), runs the
    same under both engine names."""

    def drive(engine):
        arch = build_architecture("rmboc", engine=engine, seed=3,
                                  num_modules=6)
        sim = arch.sim
        rng = random.Random(3)
        mods = list(arch.modules)
        t = 0
        for _ in range(120):
            t += rng.randrange(1, 30)
            src, dst = rng.sample(mods, 2)
            sim.at(t, lambda _s, a=arch, s=src, d=dst:
                   a.ports[s].send(d, 128) if s in a._module_xp else None)

        def try_detach(s, a=arch):
            if "m5" not in a._module_xp:
                return
            try:
                a.detach("m5")
            except RuntimeError:
                s.at(s.cycle + 50, try_detach)

        sim.at(1_500, try_detach)
        sim.at(2_100, lambda _s, a=arch: a.attach("m6", xp=5))
        # traffic aimed at the detached slot, then at its replacement
        for i in range(15):
            at = 1_550 + i * 40
            dst = "m5" if at < 2_000 else "m6"
            sim.at(at, lambda _s, a=arch, d=dst: a.ports["m0"].send(d, 64))
        sim.run(4_000)
        return _fingerprint(sim)

    assert drive("object") == drive("vec")


def test_buscom_utilization_read_mid_sleep_equivalent(monkeypatch):
    """``bus_utilization`` read at event phase while BUS-COM sleeps
    between slot starts replays the slept cycles first, so every read
    matches a run that ticked every cycle, under both engine names."""
    # the reads must land inside sleep stretches, so the simulators the
    # engine names build take the fast path whatever the environment says
    monkeypatch.setenv(FASTPATH_ENV, "1")

    def drive(arch):
        sim = arch.sim
        for t, (src, dst, payload) in enumerate(
                [("m0", "m1", 64), ("m2", "m3", 256), ("m1", "m0", 16)]):
            sim.at(1 + 5 * t, lambda _s, s=src, d=dst, p=payload:
                   arch.ports[s].send(d, p))
        reads, slept = [], []

        def read(s):
            slept.append(arch._settled < s.cycle - 1)
            reads.append(arch.bus_utilization())

        for at in range(400, 1_400, 7):
            sim.at(at, read)
        sim.run(1_500)
        return reads, any(slept)

    reference, _ = drive(build_architecture(
        "buscom", sim=Simulator(fast_path=False), seed=5))
    for engine in ("object", "vec"):
        reads, slept = drive(build_architecture("buscom", engine=engine,
                                                seed=5))
        assert slept, "no read landed inside a sleep stretch"
        assert reads == reference


def test_engine_is_chosen_per_call():
    """``engine="vec"`` builds a vectorized simulator and
    ``engine="object"`` a plain one, both named after the architecture;
    without ``engine`` the builder keeps its own simulator."""
    arch = build_architecture("sharedbus", engine="vec")
    assert isinstance(arch.sim, VecSimulator) and arch.sim.vectorized
    assert arch.sim.name == "sharedbus"
    arch = build_architecture("sharedbus", engine="object")
    assert type(arch.sim) is Simulator and arch.sim.name == "sharedbus"
    assert not hasattr(arch.sim, "vectorized")
    arch = build_architecture("sharedbus")
    assert not isinstance(arch.sim, VecSimulator)


def test_misspelled_engine_raises():
    with pytest.raises(SimError) as info:
        build_architecture("sharedbus", engine="vce")
    message = str(info.value)
    assert "'vce'" in message
    assert "object" in message and "vec" in message


def test_explicit_engine_conflicts_with_sim():
    with pytest.raises(ValueError):
        build_architecture("sharedbus", sim=Simulator(name="x"),
                           engine="vec")

"""Golden fixture: the default run ledger writes fixed records.

Each scenario runs through :func:`~repro.obs.ledger.ledgered_call`, so
telemetry, the default alert rules and journeys are attached exactly as
for ``repro experiment``, and the record is built and stored by the
ledger's own code.  Per scenario the fixture pins:

* ``run_id`` — the content address returned by the store;
* ``canonical`` — ``canonical_bytes`` of the in-memory record;
* ``stored`` — the parsed stored file, wall-clock section removed;
* ``simulated`` — the same without the ``kernel`` section, whose
  scheduler self-metrics (cycles stepped, sleeps, wakes, fast-forward
  jumps) describe how the kernel ran, not what it simulated;
* ``stats`` — ``stats.snapshot()`` of every simulator the run built.

The scenarios drive the paths whose cost the ledger pays:

* ``overload`` — a shared bus fed faster than it drains: the hot
  flow's latency histogram passes its 512-sample exact cap while alert
  rules keep reading its p99, the latency and saturation alerts fire,
  and the per-cycle parallelism histogram passes its 4,096-sample cap
  while ``observed_dmax`` is read mid-run;
* ``mesh`` — DyNoC under random all-to-all traffic: twelve flows with
  interpolated exact percentiles and a parallelism histogram spread
  over several values.

The ``run_id``, ``canonical`` and ``stored`` digests moved once, on
purpose, when alert rules moved onto ``FlowTelemetry``'s fixed
evaluation grid: fabrics stopped waking for alert evaluations, which
lowers the ``kernel`` section's tick, sleep and wake counts.  The
``simulated`` digest and statistics did not move.  Every digest but
``stats`` moved once more when records stopped carrying an ``engine``
key; nothing else in the stored records changed.

Each result also carries the value types the record encoder treats
specially (dataclasses, enums, numpy scalars, tuples, non-finite
floats, non-string keys).  The versions block is pinned, so the
digests do not depend on the checkout.

Regenerate only for an intended behaviour change::

    PYTHONPATH=src python -m tests.obs.test_ledger_order
"""

import dataclasses
import enum
import hashlib
import json
import math
import tempfile
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest

import repro.obs.ledger as ledger_mod
from repro.arch import build_architecture
from repro.obs.ledger import canonical_bytes, ledgered_call
from repro.sim.rng import make_rng
from repro.traffic.generators import PeriodicStream, RandomTraffic

SCENARIOS = ("overload", "mesh")

GOLDEN: Dict[str, Dict[str, str]] = {
    "overload": {
        "run_id": "fe8a2aca1fbf40de",
        "canonical": "fe8a2aca1fbf40deaed2d1736fdcc7e9d342d0a42544ca95a39237aee0d64d1f",
        "stored": "35d134a656b0beb422feead276cacd8d73c59af48243bc132e77ff2df11be85a",
        "simulated": "f0fe65be1772738fe60402372715b80c25d245d5bf933f4e3141cae2f2fc82ef",
        "stats": "297abd4dba055a6cde79cc3e66e3d8016a80e1c344d5c82e05664b6203ae1a02",
    },
    "mesh": {
        "run_id": "3c0ebc133addc710",
        "canonical": "3c0ebc133addc710dffd7800bbf31d960abd62d1f52e5da4e9b558b38b45b286",
        "stored": "ae2b78a19c5c3d3415e2b5ba4c5c2b97184793193368d64b769623f471ae1e1f",
        "simulated": "298467beda4e87d743c9aa9352c6386aeb9544b804fb19be67d5d266e6892f83",
        "stats": "bea8b0d8b8b61ec913dba782df08a804ad0b3bd5665ff0d40a66dafd216ad48f",
    },
}

#: stands in for the package / python / git identity of the checkout
VERSIONS = {"package": "golden", "python": "3", "git": None, "record": 1}

#: overload: a 64-byte message every 16 cycles outruns the shared bus
HOT_PERIOD, HOT_STOP = 16, 20_000
#: mesh: per-module Bernoulli injection rate and window
MESH_RATE, MESH_STOP = 0.05, 8_000


class Kind(enum.Enum):
    OVERLOAD = "overload"
    MESH = "mesh"


@dataclasses.dataclass
class Probe:
    cycle: int
    dmax: int
    samples: int


@dataclasses.dataclass
class Result:
    kind: Kind
    probes: List[Probe]
    latency: Dict[str, float]
    extremes: Tuple[Any, ...] = (math.nan, math.inf, -math.inf,
                                 np.float64(0.25), np.int64(3), True, None)
    keyed: Dict[Any, str] = dataclasses.field(
        default_factory=lambda: {1: "int", (2, 3): "tuple", "s": "str"})


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _probe(arch, probes: List[Probe]):
    hist = arch.sim.stats.get_histogram("parallelism.concurrent")

    def read(sim) -> None:
        probes.append(Probe(sim.cycle, arch.observed_dmax, hist.count))
    return read


def _spy_evaluations(sim, seen: List[bool]) -> None:
    """Note, at every alert evaluation, whether some flow's latency
    histogram has left its exact regime."""
    engine = sim.telemetry.engine
    evaluate = engine.evaluate

    def spy(tel, now):
        seen.append(any(not f.latency.exact for f in tel.flows.values()))
        return evaluate(tel, now)
    engine.evaluate = spy


def _overload(built, seen):
    arch = build_architecture("sharedbus")
    sim = arch.sim
    _spy_evaluations(sim, seen)
    sim.add(PeriodicStream("hot", arch.ports["m0"], "m1", period=HOT_PERIOD,
                           payload_bytes=64, stop=HOT_STOP))
    sim.add(PeriodicStream("cold", arch.ports["m2"], "m3", period=97,
                           payload_bytes=32, stop=HOT_STOP))
    probes: List[Probe] = []
    for t in range(1_000, HOT_STOP + 20_000, 3_000):
        sim.at(t, _probe(arch, probes))
    sim.run(HOT_STOP)
    arch.run_to_completion(max_cycles=500_000)
    built.append(arch)
    return Result(Kind.OVERLOAD, probes,
                  sim.stats.histogram("latency.message").summary())


def _mesh(built, seen):
    arch = build_architecture("dynoc")
    sim = arch.sim
    _spy_evaluations(sim, seen)
    names = sorted(arch.ports)
    for src in names:
        others = [n for n in names if n != src]
        pick = make_rng(7, "mesh", src, "c")
        sim.add(RandomTraffic(
            f"rt-{src}", arch.ports[src],
            lambda o=others, r=pick: o[int(r.integers(len(o)))],
            make_rng(7, "mesh", src, "r"), rate=MESH_RATE,
            payload_bytes=64, stop=MESH_STOP))
    probes: List[Probe] = []
    for t in range(500, MESH_STOP, 1_500):
        sim.at(t, _probe(arch, probes))
    sim.run(MESH_STOP)
    arch.run_to_completion(max_cycles=500_000)
    built.append(arch)
    return Result(Kind.MESH, probes,
                  sim.stats.histogram("latency.message").summary())


def _run(name: str, root: str):
    """Run one scenario under the ledger; returns (record, run id,
    stored document, simulators, evaluation spy notes)."""
    built: list = []
    seen: List[bool] = []
    records: list = []
    build = ledger_mod.build_run_record

    def capture(*args, **kwargs):
        record = build(*args, **kwargs)
        records.append(record)
        return record

    if name == "mesh":
        fn = lambda: _mesh(built, seen)  # noqa: E731
        config = {"rate": MESH_RATE, "stop": MESH_STOP}
    else:
        fn = lambda: _overload(built, seen)  # noqa: E731
        config = {"period": HOT_PERIOD, "stop": HOT_STOP}
    saved = (ledger_mod.build_run_record, ledger_mod.versions_block)
    ledger_mod.build_run_record = capture
    ledger_mod.versions_block = lambda: dict(VERSIONS)
    try:
        _, run_id = ledgered_call(fn, kind="experiment", name=name,
                                  config=config, seed=7, ledger=root)
    finally:
        ledger_mod.build_run_record, ledger_mod.versions_block = saved
    (record,) = records
    with open(ledger_mod.RunLedger(root).path_for(run_id),
              encoding="utf-8") as fh:
        stored = json.load(fh)
    return record, run_id, stored, [a.sim for a in built], seen


def _digests(record, run_id, stored, sims) -> Dict[str, str]:
    body = {k: v for k, v in stored.items() if k != "wall"}
    return {
        "run_id": run_id,
        "canonical": hashlib.sha256(canonical_bytes(record)).hexdigest(),
        "stored": _sha(body),
        "simulated": _sha({k: v for k, v in body.items() if k != "kernel"}),
        "stats": _sha([s.stats.snapshot() for s in sims]),
    }


@pytest.fixture(scope="module", params=SCENARIOS)
def run(request):
    with tempfile.TemporaryDirectory() as root:
        yield (request.param,) + _run(request.param, root)


def test_scenarios_take_every_path(run):
    """The digests pin the ledger's statistics only if the record
    reads bucketed flow percentiles in fired alerts, carries journeys,
    and the parallelism histogram is read past its exact cap."""
    name, record, run_id, stored, sims, seen = run
    (sim,) = sims
    assert set(stored["wall"]) == {"seconds", "recorded_at"}
    assert record["journeys"]["simulators"][0]["records"] > 0
    hist = sim.stats.get_histogram("parallelism.concurrent")
    assert hist.count > 4_096 and len(hist.samples) == 4_096
    probes = record["stats"]["probes"]
    assert any(p["samples"] > 4_096 for p in probes)
    assert probes[-1]["dmax"] == int(hist.max)
    if name == "mesh":
        assert hist.max > 1
        assert len(record["telemetry"][0]["flows"]) == 12
    else:
        rules = {a["rule"] for a in record["alerts"]}
        assert {"flow-latency-p99", "link-saturation"} <= rules
        # alert rules read the hot flow's p99 after it passed the cap
        assert any(seen) and not all(seen)
        hot = sim.telemetry.flows[("m0", "m1")]
        assert hot.latency.count > 512 and not hot.latency.exact


def test_ledger_records_match_golden(run):
    name, record, run_id, stored, sims, _ = run
    assert _digests(record, run_id, stored, sims) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    out = {}
    for scenario in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            out[scenario] = _digests(*_run(scenario, tmp)[:4])
    print(json.dumps(out, indent=4))

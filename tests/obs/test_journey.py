"""Message journeys: attribution, determinism and fast-path equivalence.

The load-bearing contracts from ``docs/observability.md``:

* journey records are **bit-identical** with the simulation engine's
  fast path on and off (every cycle ticked) under the same seed: every
  stamp is a protocol event, stamped at the cycle it happens whether
  the fabric ticked through the cycles before it or slept;
* a journeys-off run is bit-identical to a pre-journey run (the stats
  fingerprint must not move when a recorder attaches);
* sampling is a pure function of ``(seed, mid)`` — same records on
  every rerun, lower rates sample subsets of higher rates;
* ``repro explain`` attributes >= 95% of measured per-flow latency to
  named segments on every architecture, residual always explicit.
"""

import json
import random

import pytest

from repro.arch import build_architecture
from repro.obs import (
    explain_experiment,
    to_chrome_trace,
    validate_journey,
)
from repro.obs.flows import FlowTelemetry
from repro.obs.journey import (
    JOURNEY_SCHEMA,
    JourneyRecorder,
    SEGMENT_KINDS,
    aggregate_flows,
    critical_path,
    flow_slowest_segments,
    sampled,
)
from repro.sim import Simulator, Tracer
from tests.faults.scenarios import fault_scenario
from tests.tampering import tampered

ALL_ARCHS = ("dynoc", "staticmesh", "sharedbus", "buscom", "rmboc",
             "conochi")


def _drive(key, journeys=True, telemetry=False, rate=1.0, jseed=0, seed=7,
           sends=150, cycles=2_500, fast_path=None):
    """The golden-equivalence workload with a journey recorder attached."""
    sim = Simulator(name=key, fast_path=fast_path)
    if telemetry:
        FlowTelemetry().attach(sim)
    if journeys:
        sim.journey = JourneyRecorder(seed=jseed, rate=rate)
    arch = build_architecture(key, sim=sim, seed=seed)
    mods = list(arch.modules)
    rng = random.Random(seed)
    t = 0
    for _ in range(sends):
        t += rng.randrange(1, 25)
        src, dst = rng.sample(mods, 2)
        payload = rng.choice([4, 16, 64, 256])
        sim.at(t, lambda _s, a=arch, s=src, d=dst, p=payload:
               a.ports[s].send(d, p))
    sim.run(cycles)
    return sim


def _journey_fp(sim):
    return json.dumps(sim.journey.snapshot(), sort_keys=True)


def _stats_fp(sim):
    return json.dumps(sim.stats.snapshot(), sort_keys=True, default=str)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------
class TestSampling:
    def test_pure_function_of_seed_and_mid(self):
        picks = [sampled(3, mid, 0.4) for mid in range(200)]
        assert picks == [sampled(3, mid, 0.4) for mid in range(200)]
        assert any(picks) and not all(picks)

    def test_rate_extremes(self):
        assert all(sampled(0, mid, 1.0) for mid in range(50))
        assert not any(sampled(0, mid, 0.0) for mid in range(50))

    def test_lower_rate_samples_subset(self):
        lo = {mid for mid in range(500) if sampled(9, mid, 0.2)}
        hi = {mid for mid in range(500) if sampled(9, mid, 0.7)}
        assert lo and lo < hi

    def test_recorder_rejects_bad_config(self):
        with pytest.raises(ValueError):
            JourneyRecorder(rate=1.5)
        with pytest.raises(ValueError):
            JourneyRecorder(max_records=0)

    def test_max_records_cap_keeps_first(self):
        class _Msg:
            def __init__(self, mid):
                self.mid = mid
                self.src, self.dst, self.payload_bytes = "a", "b", 4

        jr = JourneyRecorder(max_records=3)
        for mid in range(5):
            jr.start(_Msg(mid), cycle=mid)
        assert sorted(jr.records) == [0, 1, 2]
        assert jr.capped == 2


# ----------------------------------------------------------------------
# cursor stamping semantics
# ----------------------------------------------------------------------
class TestStamping:
    def _one_record(self):
        class _Msg:
            mid, src, dst, payload_bytes = 1, "a", "b", 64

        jr = JourneyRecorder()
        jr.start(_Msg, cycle=10)
        return jr

    def test_segments_contiguous_and_clipped(self):
        jr = self._one_record()
        jr.stamp_to(1, "arbitration_wait", 15)
        jr.stamp_to(1, "link_transit", 25)
        jr.stamp_to(1, "link_transit", 20)   # behind cursor: no-op
        jr.stamp_to(1, "delivery", 27)
        rec = jr.records[1]
        assert rec.segments == [["arbitration_wait", 10, 15],
                                ["link_transit", 15, 25],
                                ["delivery", 25, 27]]
        assert rec.attributed == 17

    def test_adjacent_same_kind_merges(self):
        jr = self._one_record()
        jr.stamp_to(1, "link_transit", 14)
        jr.stamp_to(1, "link_transit", 22)
        assert jr.records[1].segments == [["link_transit", 10, 22]]

    def test_residual_explicit(self):
        class _Msg:
            mid, src, dst, payload_bytes = 1, "a", "b", 64

        jr = self._one_record()
        jr.stamp_to(1, "link_transit", 20)
        jr.finalize(_Msg, cycle=23)
        rec = jr.records[1]
        assert rec.latency == 13
        assert rec.attributed == 10
        assert rec.residual == 3

    def test_unsampled_mid_ignored_everywhere(self):
        jr = JourneyRecorder()
        jr.stamp_to(99, "link_transit", 5)   # never started: no-op
        assert len(jr) == 0


# ----------------------------------------------------------------------
# fast-path equivalence + determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", ALL_ARCHS)
def test_journey_records_identical_across_engines(key):
    """The engine's fast path stamps what ticking every cycle stamps."""
    fast = _drive(key, fast_path=True)
    stepped = _drive(key, fast_path=False)
    assert _journey_fp(fast) == _journey_fp(stepped)
    assert _stats_fp(fast) == _stats_fp(stepped)


@pytest.mark.parametrize("key", ("dynoc", "rmboc"))
def test_equivalence_with_journeys_and_telemetry(key):
    """Journeys + telemetry together must not split the fast path from
    the every-cycle reference."""
    fast = _drive(key, telemetry=True, fast_path=True)
    stepped = _drive(key, telemetry=True, fast_path=False)
    assert _journey_fp(fast) == _journey_fp(stepped)
    assert (json.dumps(fast.telemetry.snapshot(fast.cycle),
                       sort_keys=True, default=str)
            == json.dumps(stepped.telemetry.snapshot(stepped.cycle),
                          sort_keys=True, default=str))


@pytest.mark.parametrize("key", ("sharedbus", "conochi"))
def test_same_seed_rerun_is_deterministic(key):
    assert _journey_fp(_drive(key)) \
        == _journey_fp(_drive(key))


@pytest.mark.parametrize("key", ALL_ARCHS)
def test_journeys_off_stats_bit_identical(key):
    """Attaching a recorder must not perturb the simulation; not
    attaching one must cost nothing but a dead boolean test."""
    on = _drive(key, journeys=True)
    off = _drive(key, journeys=False)
    assert _stats_fp(on) == _stats_fp(off)


def test_sampled_run_records_subset_of_full_run():
    full = _drive("dynoc", rate=1.0)
    part = _drive("dynoc", rate=0.3)
    full_recs = full.journey.snapshot()["records"]
    part_recs = part.journey.snapshot()["records"]
    assert 0 < len(part_recs) < len(full_recs)
    for mid, rec in part_recs.items():
        assert full_recs[mid] == rec


# ----------------------------------------------------------------------
# attribution coverage (acceptance: >= 95% on every architecture)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", ALL_ARCHS)
def test_attribution_coverage_at_least_95_percent(key):
    sim = _drive(key)
    rows = aggregate_flows(sim.journey)
    assert rows, f"{key}: no delivered journeys"
    total = sum(r["latency"]["total"] for r in rows)
    attributed = sum(r["attributed"] for r in rows)
    assert attributed / total >= 0.95, (
        f"{key}: only {attributed}/{total} cycles attributed")
    for row in rows:
        # residual is explicit, never silently dropped
        assert row["attributed"] + row["residual"] \
            == row["latency"]["total"]
        assert set(row["segments"]) <= set(SEGMENT_KINDS)
        assert row["slowest_segment"] in SEGMENT_KINDS


def test_critical_path_chain_in_time_order():
    sim = _drive("dynoc")
    rec = max(sim.journey.delivered_records(), key=lambda r: r.latency)
    cp = critical_path(rec)
    assert cp["latency"] == rec.latency
    starts = [seg["start"] for seg in cp["chain"]]
    assert starts == sorted(starts)
    assert cp["dominant"] in SEGMENT_KINDS
    assert sum(s["cycles"] for s in cp["chain"]) + cp["residual"] \
        == cp["latency"]


def test_flow_slowest_segments_for_watch():
    sim = _drive("sharedbus")
    slowest = flow_slowest_segments(sim.journey)
    assert slowest
    assert all(kind in SEGMENT_KINDS for kind in slowest.values())


# ----------------------------------------------------------------------
# fault linkage: drop -> retransmission chains
# ----------------------------------------------------------------------
def test_fault_drop_and_retransmission_linked():
    sim, arch, injector = fault_scenario("sharedbus")
    sim.tracer = Tracer()
    sim.journey = JourneyRecorder()
    sim.run(3_000)
    recs = sim.journey.records.values()
    dropped = [r for r in recs if r.dropped]
    copies = [r for r in recs if r.retrans_of is not None]
    assert dropped and copies
    for copy in copies:
        orig = sim.journey.records[copy.retrans_of]
        assert orig.dropped
        assert copy.fault is not None
        assert copy.fault["kind"] == "node_down"
        # the fault index is the shared key with the injector's records
        assert injector.records[copy.fault["index"]].kind.value \
            == "node_down"
    # every copy delivered its payload after the outage
    assert all(c.delivered >= 0 for c in copies)


def test_perfetto_export_links_journeys_and_faults():
    sim, arch, injector = fault_scenario("sharedbus")
    sim.tracer = Tracer()
    sim.journey = JourneyRecorder()
    sim.run(3_000)
    doc = to_chrome_trace(sim)
    evs = doc["traceEvents"]
    json.dumps(doc)  # must be JSON-serializable as exported

    flows = [e for e in evs if e.get("name") == "journey"
             and e["ph"] in ("s", "t", "f")]
    opened = {e["id"] for e in flows if e["ph"] == "s"}
    closed = {e["id"] for e in flows if e["ph"] == "f"}
    assert opened and opened == closed

    # a retransmission chain rides one arc: the copy reuses the
    # dropped original's flow id
    copy = next(r for r in sim.journey.records.values()
                if r.retrans_of is not None)
    arc = f"j1-{copy.retrans_of}"
    phases = [e["ph"] for e in flows if e["id"] == arc]
    assert phases[0] == "s" and phases[-1] == "f" and "t" in phases

    # the fault incident is one arc too: inject -> detect -> recover
    fault_arcs = [e for e in evs if e.get("name") == "fault-arc"]
    assert [e["ph"] for e in fault_arcs] == ["s", "t", "f"]
    outage = next(e for e in evs
                  if e.get("cat") == "faults" and e.get("ph") == "X"
                  and e["name"] == "outage")
    assert fault_arcs[0]["ts"] == outage["ts"]
    assert fault_arcs[-1]["ts"] == outage["ts"] + outage["dur"]


def test_journey_meta_in_trace_export():
    sim = _drive("dynoc", rate=0.5)
    doc = to_chrome_trace(sim)
    meta = doc["otherData"]["simulators"][0]["journeys"]
    assert meta["records"] == len(sim.journey)
    assert meta["sampled_out"] == sim.journey.sampled_out


# ----------------------------------------------------------------------
# the repro.journey/1 document
# ----------------------------------------------------------------------
class TestJourneyDocument:
    def test_explain_experiment_validates(self):
        doc = explain_experiment("e1")
        assert doc["schema"] == JOURNEY_SCHEMA
        assert validate_journey(doc) == doc["total_flows"] > 0
        assert doc["coverage"] >= 0.95

    def test_validator_rejects_broken_documents(self):
        doc = explain_experiment("e1")
        with pytest.raises(ValueError):
            validate_journey({**doc, "schema": "repro.journey/0"})
        bad = json.loads(json.dumps(doc))
        row = bad["simulators"][0]["flows"][0]
        row["segments"]["teleport"] = {"cycles": 1, "share": 0.1}
        with pytest.raises(ValueError):
            validate_journey(bad)
        bad2 = json.loads(json.dumps(doc))
        bad2["simulators"][0]["flows"][0]["residual"] += 1
        with pytest.raises(ValueError):
            validate_journey(bad2)

    @pytest.mark.parametrize("path, shown", [
        ("", "document"),
        ("simulators", "simulators"),
        ("simulators[0]", "simulators[0]"),
        ("simulators[0].sampling", "simulators[0].sampling"),
        ("simulators[0].flows", "simulators[0].flows"),
        ("simulators[0].flows[0]", "simulators[0].flows[0]"),
        ("simulators[0].flows[0].latency",
         "simulators[0].flows[0].latency"),
        ("simulators[0].flows[0].segments",
         "simulators[0].flows[0].segments"),
        ("simulators[0].flows[0].critical_paths.p99",
         "simulators[0].flows[0].critical_paths.p99"),
        ("simulators[0].flows[0].critical_paths.p99.chain",
         "simulators[0].flows[0].critical_paths.p99.chain"),
    ])
    def test_a_scalar_for_any_object_or_list_names_its_path(self, path,
                                                           shown):
        doc = explain_experiment("e1")
        with pytest.raises(ValueError) as info:
            validate_journey(tampered(doc, path, 1))
        assert str(info.value).startswith(
            f"invalid journey document: {shown} is not ")

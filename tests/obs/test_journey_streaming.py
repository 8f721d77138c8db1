"""Streaming journey recorders report what retaining ones report.

:meth:`~repro.obs.journey.JourneyRecorder.finalize` folds each
delivered record into its flow's aggregate, and a recorder built with
``retain=False`` then releases the record.  The run ledger's journeys
section, ``repro explain``'s document and ``repro watch``'s slowest
segments read only the folds, so a streaming recorder must give them
exactly what a retaining one gives:

* on all six fabrics, under the scenarios of
  ``tests/sim/test_horizon_properties.py`` (bursts, a one-shot fault
  with drops and retransmissions, a module swap, the control loop), on
  both kernels, with and without sampling and the keep-first cap;
* the retaining recorder's records, aggregated record by record as
  before the folds, give the same rows, and its counts of delivered,
  dropped and pending records are the document's.

The fold sees a record once, at its delivery, so no stamp, drop or
retransmission link may reach a message after it: every run here goes
through :class:`GuardedRecorder`, which fails such a call.
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.journey import (
    JourneyRecorder,
    aggregate_flows,
    build_journey_document,
    flow_slowest_segments,
)
from repro.obs.ledger import journey_section
from repro.obs.perfetto import to_chrome_trace
from repro.obs.session import observe_named
from repro.sim.engine import set_new_sim_hook
from tests.obs.test_record_paths import reference_aggregate_flows
from tests.sim.test_horizon_properties import (
    ACTING,
    ARCHS,
    ROLLBACK,
    _fabric_run,
    traffic_cases,
)


class GuardedRecorder(JourneyRecorder):
    """Fails any stamp, drop, retransmission link or second delivery
    that reaches a sampled message after its delivery."""

    def __init__(self, **options):
        super().__init__(**options)
        self.finalized = set()

    def _guard(self, mid: int, call: str) -> None:
        assert mid not in self.finalized, \
            f"{call} reached mid {mid} after its finalize"

    def stamp_to(self, mid, kind, end):
        self._guard(mid, "stamp_to")
        super().stamp_to(mid, kind, end)

    def drop(self, msg, cycle, why="fault", fault=None):
        self._guard(msg.mid, "drop")
        super().drop(msg, cycle, why, fault)

    def link_retransmission(self, copy_mid, orig_mid, fault=None):
        self._guard(copy_mid, "link_retransmission")
        super().link_retransmission(copy_mid, orig_mid, fault)

    def finalize(self, msg, cycle):
        self._guard(msg.mid, "finalize")
        if msg.mid in self.records:
            self.finalized.add(msg.mid)
        super().finalize(msg, cycle)


def _observed(key, case, fast_path, **options):
    """The scenario's simulator, run with a guarded recorder."""
    sims = []

    def attach(sim):
        sim.journey = GuardedRecorder(seed=7, **options)
        sims.append(sim)

    previous = set_new_sim_hook(attach)
    try:
        _fabric_run(key, case, fast_path)
    finally:
        set_new_sim_hook(previous)
    (sim,) = sims
    return sim


def _reports(sim):
    """What the ledger, ``repro explain`` and ``repro watch`` read."""
    return (journey_section([sim]),
            build_journey_document(SimpleNamespace(sims=[sim]), "case"),
            flow_slowest_segments(sim.journey))


#: an RMBoC node fault drops two sampled messages, and both are resent
DROPS = (5, [(100, 12), (300, 12)], 120, 900, None, 48, False)


@given(key=st.sampled_from(ARCHS), case=traffic_cases(),
       rate=st.sampled_from((1.0, 0.5)),
       max_records=st.sampled_from((100_000, 7)))
@example(key="rmboc", case=DROPS, rate=1.0, max_records=100_000)
@example(key="sharedbus", case=ACTING, rate=1.0, max_records=100_000)
@example(key="dynoc", case=ROLLBACK, rate=0.5, max_records=7)
@settings(max_examples=40, deadline=None)
def test_streaming_matches_retaining(key, case, rate, max_records):
    sims = {(fast_path, retain): _observed(key, case, fast_path, rate=rate,
                                           max_records=max_records,
                                           retain=retain)
            for fast_path in (True, False) for retain in (True, False)}
    reports = {run: _reports(sim) for run, sim in sims.items()}
    expected = reports[(True, True)]
    for run, report in reports.items():
        assert report == expected, run

    retaining = sims[(True, True)].journey
    assert aggregate_flows(retaining) == reference_aggregate_flows(retaining)
    (entry,) = expected[1]["simulators"]
    held = list(retaining.records.values())
    assert entry["records"] == len(held)
    assert entry["delivered"] == len(retaining.delivered_records())
    assert entry["dropped"] == sum(1 for r in held if r.dropped)
    assert entry["pending"] == sum(1 for r in held
                                   if r.delivered < 0 and not r.dropped)
    assert not sims[(True, False)].journey.delivered_records()


def test_the_drops_example_drops_and_resends():
    """``DROPS`` keeps the fault path in every run of the property."""
    recorder = _observed("rmboc", DROPS, True, retain=True).journey
    assert recorder.dropped == 2
    assert sum(1 for r in recorder.records.values()
               if r.retrans_of is not None) == 2


def test_only_a_traced_session_retains():
    """``repro trace --journeys`` exports each message's arc, so a
    traced session keeps the records; the ledger, ``repro explain`` and
    ``repro watch`` observe untraced and release them at delivery."""
    _, traced = observe_named("e1", trace=True, journeys=True)
    _, untraced = observe_named("e1", trace=False, journeys=True)
    for sim in traced.sims:
        assert len(sim.journey.records) == len(sim.journey) > 0
    events = to_chrome_trace(traced.sims)["traceEvents"]
    arcs = [e for e in events
            if e.get("name") == "journey" and e["ph"] in ("s", "t", "f")]
    opened = {e["id"] for e in arcs if e["ph"] == "s"}
    assert opened and opened == {e["id"] for e in arcs if e["ph"] == "f"}
    for sim in untraced.sims:
        assert len(sim.journey) > 0 and not sim.journey.records
    assert journey_section(traced.sims) == journey_section(untraced.sims)


# ----------------------------------------------------------------------
# one flow, by hand
# ----------------------------------------------------------------------
def _message(mid: int) -> SimpleNamespace:
    return SimpleNamespace(mid=mid, src="a", dst="b", payload_bytes=8)


def _send(recorder: JourneyRecorder, count: int) -> JourneyRecorder:
    """``count`` messages on one flow, each 9 cycles end to end; every
    fifth is dropped and every seventh still in flight at the end."""
    for mid in range(count):
        msg = _message(mid)
        recorder.start(msg, 10 * mid)
        recorder.stamp_to(mid, "arbitration_wait", 10 * mid + 2)
        recorder.stamp_to(mid, "link_transit", 10 * mid + 7)
        if mid % 5 == 4:
            recorder.drop(msg, 10 * mid + 7)
        elif mid % 7 != 6:
            recorder.finalize(msg, 10 * mid + 9)
    return recorder


def test_one_latency_folds_into_one_chain():
    recorder = JourneyRecorder(retain=False)
    for mid in range(200):
        msg = _message(mid)
        recorder.start(msg, 10 * mid)
        recorder.stamp_to(mid, "link_transit", 10 * mid + 7)
        recorder.finalize(msg, 10 * mid + 9)
    assert recorder.records == {}
    assert len(recorder) == 200
    (flow,) = recorder.flows.values()
    assert flow.counts == {9: 200}
    assert flow.segments == {"link_transit": 1_400}
    assert flow.residual == 400
    assert list(flow.paths) == [9]
    assert flow.paths[9].mid == 0


@pytest.mark.parametrize("rate, max_records", [
    (1.0, 100_000), (1.0, 13), (0.4, 100_000), (0.4, 6)])
def test_cap_and_sampling_count_as_retaining(rate, max_records):
    recorders = [_send(JourneyRecorder(seed=3, rate=rate,
                                       max_records=max_records,
                                       retain=retain), 40)
                 for retain in (True, False)]
    retaining, streaming = recorders
    for name in ("sampled_out", "capped", "dropped"):
        assert getattr(streaming, name) == getattr(retaining, name), name
    assert len(streaming) == len(retaining) == len(retaining.records)
    assert retaining.capped == max(0, 40 - retaining.sampled_out
                                   - max_records)
    sims = [SimpleNamespace(name="s", cycle=400, journey=r)
            for r in recorders]
    assert journey_section(sims[:1]) == journey_section(sims[1:])
    assert (build_journey_document(SimpleNamespace(sims=sims[:1]), "x")
            == build_journey_document(SimpleNamespace(sims=sims[1:]), "x"))
    # the streaming recorder holds only the dropped and in-flight ones
    assert all(r.delivered < 0 for r in streaming.records.values())

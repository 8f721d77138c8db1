"""The ledger's cheap record paths against their straightforward forms.

The default run ledger pays for journey aggregation and for the
telemetry record calls of every hop, frame and enqueue, so both have
cheap forms.  This file keeps a reference copy of the straightforward
code each replaced and checks, on inputs Hypothesis draws, that the
two give the same results:

* :func:`~repro.obs.journey.aggregate_flows` sums each flow's segment
  cycles and residuals in one pass; the reference builds a per-record
  ``by_kind`` dict.  Drawn recorders hold merged and zero-length
  segments, residuals, stamps past the delivery cycle, undelivered and
  dropped records, and many equal latencies, so the lowest-mid pick of
  the p50 and p99 critical paths matters.
* :class:`~repro.obs.flows.FlowTelemetry`'s ``link_busy``,
  ``queue_depth`` and ``backpressure`` look their link up once, skip
  the no-op wait of a zero backpressure and arm the alert grid inline;
  the reference resolves the link through :meth:`FlowTelemetry.link`
  and calls ``_note`` on every record.  On drawn call sequences with an
  alert engine attached, both must end with the same links, watermarks,
  stalls and ``_recorded`` flag, schedule the grid at the same cycles
  and fire the same alerts.
"""

from typing import Any, Dict, List, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.flows import FlowTelemetry
from repro.obs.journey import (
    SEGMENT_KINDS,
    JourneyRecord,
    JourneyRecorder,
    _pct,
    aggregate_flows,
    critical_path,
)
from repro.sim import Simulator


# ----------------------------------------------------------------------
# aggregate_flows
# ----------------------------------------------------------------------
def _by_kind(rec: JourneyRecord) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for kind, start, end in rec.segments:
        out[kind] = out.get(kind, 0) + (end - start)
    return out


def reference_aggregate_flows(recorder: JourneyRecorder
                              ) -> List[Dict[str, Any]]:
    """``aggregate_flows`` as it was before the one-pass sums."""
    flows: Dict[Tuple[str, str], List[JourneyRecord]] = {}
    for rec in recorder.delivered_records():
        flows.setdefault((rec.src, rec.dst), []).append(rec)
    rows: List[Dict[str, Any]] = []
    for (src, dst) in sorted(flows):
        recs = flows[(src, dst)]
        lats = sorted(r.latency for r in recs)
        total = sum(lats)
        by_kind: Dict[str, int] = {}
        residual = 0
        for r in recs:
            for kind, cycles in _by_kind(r).items():
                by_kind[kind] = by_kind.get(kind, 0) + cycles
            residual += r.residual or 0
        attributed = sum(by_kind.values())
        coverage = attributed / total if total else 1.0
        segments = {
            kind: {"cycles": cycles,
                   "share": cycles / total if total else 0.0}
            for kind, cycles in sorted(by_kind.items())
        }
        slowest = (sorted(by_kind.items(), key=lambda kv: (-kv[1], kv[0]))
                   [0][0] if by_kind else None)
        p50, p99 = _pct(lats, 0.50), _pct(lats, 0.99)

        def _at(lat_target: int) -> Dict[str, Any]:
            pick = min((r for r in recs if r.latency == lat_target),
                       key=lambda r: r.mid)
            return critical_path(pick)

        rows.append({
            "src": src,
            "dst": dst,
            "sampled": len(recs),
            "latency": {"total": total, "mean": total / len(recs),
                        "p50": p50, "p99": p99,
                        "max": lats[-1], "min": lats[0]},
            "segments": segments,
            "attributed": attributed,
            "residual": residual,
            "coverage": coverage,
            "slowest_segment": slowest,
            "critical_paths": {"p50": _at(p50), "p99": _at(p99)},
        })
    return rows


#: one segment: its kind, its length (0 appends a zero-length segment
#: directly, as no stamp site does), and whether it goes through
#: stamp_to, which merges it into an adjacent segment of the same kind
_SEGMENT = st.tuples(st.sampled_from(SEGMENT_KINDS[:4]), st.integers(0, 6),
                     st.booleans())

#: one message: flow, creation cycle, segments, cycles between the
#: cursor and delivery (negative: stamped past it; None: undelivered),
#: and whether a fault dropped it
_MESSAGE = st.tuples(st.sampled_from((("a", "b"), ("a", "c"), ("b", "a"))),
                     st.integers(0, 5), st.lists(_SEGMENT, max_size=5),
                     st.one_of(st.none(), st.integers(-3, 4)),
                     st.booleans())


@st.composite
def recorders(draw) -> JourneyRecorder:
    messages = draw(st.lists(_MESSAGE, max_size=24))
    # mids in drawn order, not creation order: the lowest-mid pick
    # among equal latencies must not follow insertion order
    mids = draw(st.permutations(range(len(messages))))
    recorder = JourneyRecorder()
    for mid, ((src, dst), created, segments, gap, dropped) in zip(
            mids, messages):
        rec = recorder.records[mid] = JourneyRecord(mid, src, dst, 64,
                                                    created)
        for kind, cycles, stamped in segments:
            if stamped and cycles:
                recorder.stamp_to(mid, kind, rec.cursor + cycles)
            else:
                rec.segments.append([kind, rec.cursor, rec.cursor + cycles])
                rec.cursor += cycles
        if gap is not None:
            rec.delivered = max(created, rec.cursor + gap)
        rec.dropped = dropped
    return recorder


@example(recorder=JourneyRecorder())
@given(recorder=recorders())
@settings(max_examples=200, deadline=None)
def test_aggregate_flows_matches_the_reference(recorder):
    assert aggregate_flows(recorder) == reference_aggregate_flows(recorder)


def test_ties_pick_the_lowest_mid():
    """Two records share the p50 and p99 latency: both forms pick the
    lower mid, whichever was recorded first."""
    recorder = JourneyRecorder()
    for mid in (5, 2):
        rec = recorder.records[mid] = JourneyRecord(mid, "a", "b", 8, 0)
        recorder.stamp_to(mid, "link_transit", 3 if mid == 5 else 2)
        rec.delivered = 4
    (row,) = aggregate_flows(recorder)
    assert row["critical_paths"]["p50"]["mid"] == 2
    assert row["critical_paths"]["p99"]["mid"] == 2
    assert row["residual"] == 3
    assert [row] == reference_aggregate_flows(recorder)


# ----------------------------------------------------------------------
# FlowTelemetry link record paths
# ----------------------------------------------------------------------
class ReferenceTelemetry(FlowTelemetry):
    """The link record paths as they were: resolve the link by
    :meth:`link`, call the LinkStats method, then ``_note``."""

    def link_busy(self, now, name, cycles=1, first=None):
        self.link(name).note_busy(now, cycles, first)
        self._note()

    def queue_depth(self, now, name, depth):
        self.link(name).note_queue_depth(depth)
        self._note()

    def backpressure(self, now, name, wait_cycles):
        self.link(name).note_wait(now, wait_cycles)
        self._note()


#: one record call: cycle, method, link, value and, for link_busy, the
#: offset of the busy run's first cycle (None: counted at the call)
_CALL = st.tuples(st.integers(0, 400),
                  st.sampled_from(("link_busy", "queue_depth",
                                   "backpressure", "count")),
                  st.sampled_from(("l0", "l1", "l2")),
                  st.integers(0, 12),
                  st.one_of(st.none(), st.integers(0, 80)))


def _drive(cls, calls, interval: int) -> Dict[str, Any]:
    sim = Simulator(name="tel")
    tel = cls(eval_interval=interval, window=32).attach(sim)
    tel.engine = AlertEngine(rules=[
        AlertRule("util", "link_utilization", 0.5, kind="sustained",
                  for_cycles=interval),
        AlertRule("queue", "queue_current", 6, kind="sustained",
                  for_cycles=2 * interval),
        AlertRule("wait", "backpressure_p99", 8),
    ])
    after: List[Tuple[int, bool, bool]] = []

    def call(sim, method, name, value, offset):
        now = sim.cycle
        if method == "link_busy":
            tel.link_busy(now, name, value,
                          None if offset is None else now + offset)
        elif method == "count":
            tel.count(now, name)
        else:
            getattr(tel, method)(now, name, value)
        after.append((now, tel._recorded, tel._armed))

    for at, method, name, value, offset in calls:
        sim.at(at, lambda s, m=method, n=name, v=value, o=offset:
               call(s, m, n, v, o))
    # every grid event scheduled from here on, with the cycle it runs at
    grid: List[Tuple[int, int]] = []
    schedule = sim.at

    def at(cycle, fn):
        grid.append((sim.cycle, cycle))
        schedule(cycle, fn)

    sim.at = at
    sim.run(600)
    end = sim.cycle
    return {
        "order": list(tel.links),
        "links": {name: (stats.as_dict(end), stats.queue_watermark,
                         stats.stalls, stats.wait.count)
                  for name, stats in tel.links.items()},
        "counters": tel.counters,
        "recorded": tel._recorded,
        "armed": tel._armed,
        "after": after,
        "grid": grid,
        "evaluations": tel.engine.evaluations,
        "alerts": [a.to_dict() for a in tel.engine.alerts],
        "clears": [c.to_dict() for c in tel.engine.clears],
    }


@example(calls=[(7, "backpressure", "l2", 0, None)], interval=16)
@example(calls=[(3, "link_busy", "l0", 4, 30), (3, "queue_depth", "l1", 9,
                                                None),
                (20, "backpressure", "l1", 0, None),
                (40, "backpressure", "l1", 11, None)], interval=8)
@given(calls=st.lists(_CALL, max_size=30),
       interval=st.sampled_from((8, 16, 50)))
@settings(max_examples=100, deadline=None)
def test_link_record_paths_match_the_reference(calls, interval):
    assert (_drive(FlowTelemetry, calls, interval)
            == _drive(ReferenceTelemetry, calls, interval))


def test_zero_backpressure_creates_the_link_and_arms_the_grid():
    sim = Simulator(name="tel")
    tel = FlowTelemetry(eval_interval=10).attach(sim)
    tel.engine = AlertEngine(rules=[])
    sim.at(3, lambda s: tel.backpressure(s.cycle, "unseen", 0))
    sim.run(50)
    stats = tel.links["unseen"]
    assert (stats.stalls, stats.wait.count) == (0, 0)
    # the grid ran at 10 for the record, and once more at 20 because
    # the interval before 10 recorded something
    assert tel.engine.evaluations == 2
    assert not tel._armed and not tel._recorded

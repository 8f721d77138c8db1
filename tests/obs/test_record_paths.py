"""The ledger's cheap record paths against their straightforward forms.

The default run ledger pays for journey aggregation and for the
telemetry record calls of every hop, frame and enqueue, so both have
cheap forms.  This file keeps a reference copy of the straightforward
code each replaced and checks, on inputs Hypothesis draws, that the
two give the same results:

* :func:`~repro.obs.journey.aggregate_flows` reads the per-flow folds
  that :meth:`~repro.obs.journey.JourneyRecorder.finalize` builds; the
  reference groups a retaining recorder's delivered records by flow and
  sums their segments record by record.  Drawn messages go through
  ``start``, ``stamp_to``, ``drop`` and ``finalize`` as the fabrics
  call them, into a retaining and a streaming recorder: zero-length
  stamps, merged segments, residuals, stamps past the delivery cycle,
  undelivered and dropped messages, deliveries in any order and many
  equal latencies, so the lowest-mid pick of the p50 and p99 critical
  paths matters.
* :class:`~repro.obs.flows.FlowTelemetry`'s ``link_busy``,
  ``queue_depth`` and ``backpressure`` look their link up once, skip
  the no-op wait of a zero backpressure and arm the alert grid inline;
  the reference resolves the link through :meth:`FlowTelemetry.link`
  and calls ``_note`` on every record.  On drawn call sequences with an
  alert engine attached, both must end with the same links, watermarks,
  stalls and ``_recorded`` flag, schedule the grid at the same cycles
  and fire the same alerts.
"""

from types import SimpleNamespace
from typing import Any, Dict, List, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.flows import FlowTelemetry
from repro.obs.journey import (
    SEGMENT_KINDS,
    JourneyRecord,
    JourneyRecorder,
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


def _pct(sorted_vals: List[int], q: float) -> int:
    """Nearest-rank percentile on a pre-sorted non-empty list."""
    n = len(sorted_vals)
    rank = max(1, -(-int(q * n * 1000) // 1000))
    idx = min(n - 1, max(0, rank - 1))
    return sorted_vals[idx]


def reference_aggregate_flows(recorder: JourneyRecorder
                              ) -> List[Dict[str, Any]]:
    """``aggregate_flows`` as it was before the one-pass sums and the
    per-flow folds, over a retaining recorder's delivered records."""
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


def _message(mid: int, src: str = "a", dst: str = "b") -> SimpleNamespace:
    return SimpleNamespace(mid=mid, src=src, dst=dst, payload_bytes=64)


#: one stamp: its kind and how far past the previous stamp it ends (0
#: is a zero-length stamp, which ``stamp_to`` ignores; adjacent stamps
#: of one kind merge)
_STAMP = st.tuples(st.sampled_from(SEGMENT_KINDS[:4]), st.integers(0, 6))

#: one message: flow, creation cycle, stamps, cycles between the last
#: stamp and delivery (negative: stamped past it; None: undelivered),
#: and whether a fault drops it first
_MESSAGE = st.tuples(st.sampled_from((("a", "b"), ("a", "c"), ("b", "a"))),
                     st.integers(0, 5), st.lists(_STAMP, max_size=5),
                     st.one_of(st.none(), st.integers(-3, 4)),
                     st.booleans())


@st.composite
def journeys(draw) -> Tuple[List[Tuple[int, Any]], List[int]]:
    messages = draw(st.lists(_MESSAGE, max_size=24))
    # mids in drawn order, not creation order, and deliveries in a
    # third order: the lowest-mid pick among equal latencies must
    # follow neither
    mids = draw(st.permutations(range(len(messages))))
    order = draw(st.permutations(range(len(messages))))
    return list(zip(mids, messages)), order


def record(recorder: JourneyRecorder,
           case: Tuple[List[Tuple[int, Any]], List[int]]
           ) -> JourneyRecorder:
    """Send the drawn messages through ``recorder``'s record paths."""
    messages, order = case
    ends = []
    for mid, ((src, dst), created, stamps, _gap, dropped) in messages:
        msg = _message(mid, src, dst)
        recorder.start(msg, created)
        end = created
        for kind, cycles in stamps:
            end += cycles
            recorder.stamp_to(mid, kind, end)
        if dropped:
            recorder.drop(msg, end)
        ends.append(end)
    for i in order:
        mid, ((src, dst), created, _stamps, gap, _dropped) = messages[i]
        if gap is not None:
            recorder.finalize(_message(mid, src, dst),
                              max(created, ends[i] + gap))
    return recorder


@example(case=([], []))
@given(case=journeys())
@settings(max_examples=200, deadline=None)
def test_aggregate_flows_matches_the_reference(case):
    retaining = record(JourneyRecorder(), case)
    streaming = record(JourneyRecorder(retain=False), case)
    expected = reference_aggregate_flows(retaining)
    assert aggregate_flows(retaining) == expected
    assert aggregate_flows(streaming) == expected
    assert not streaming.delivered_records()


def test_ties_pick_the_lowest_mid():
    """Two records share the p50 and p99 latency: the folds and the
    reference pick the lower mid, whichever was delivered first."""
    retaining, streaming = JourneyRecorder(), JourneyRecorder(retain=False)
    for recorder in (retaining, streaming):
        for mid in (5, 2):
            msg = _message(mid)
            recorder.start(msg, 0)
            recorder.stamp_to(mid, "link_transit", 3 if mid == 5 else 2)
            recorder.finalize(msg, 4)
    (row,) = aggregate_flows(streaming)
    assert row["critical_paths"]["p50"]["mid"] == 2
    assert row["critical_paths"]["p99"]["mid"] == 2
    assert row["residual"] == 3
    assert [row] == aggregate_flows(retaining)
    assert [row] == reference_aggregate_flows(retaining)


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

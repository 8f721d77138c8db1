"""Per-message journey records with hop-level latency attribution.

A :class:`JourneyRecorder` attaches a lightweight provenance record to
each in-flight :class:`~repro.arch.base.Message` and stamps *segments*
— source enqueue, arbitration/slot wait, link transit, router detour,
NI/fabric queueing, delivery — as the message moves through the fabric.
The stamp sites live in the architectures' object-code paths next to
the existing telemetry hooks, guarded by the cheap ``sim.journeying``
boolean, so a journeys-off run executes one dead boolean test per site
and stays bit-identical to pre-journey traces.

Stamping is *cursor-based*: every record keeps the last stamped cycle
(initially the creation cycle) and :meth:`JourneyRecorder.stamp_to`
appends ``(kind, cursor, end)`` and advances the cursor.  Segments are
therefore contiguous by construction — the attributed cycles of a
delivered message sum to ``delivered - created`` minus an explicit
residual, which is reported, never silently dropped.

Sampling is deterministic: the keep/skip decision for message ``mid``
is a pure function of ``(seed, mid)`` (a CRC32 threshold test), so the
same seed samples the same messages on every rerun, with the kernel's
fast path on or off.  ``max_records`` additionally caps how many
messages are recorded (keep-first; the overflow count is reported).

At delivery (:meth:`JourneyRecorder.finalize`) each record is folded
into its flow's aggregate: the count of each distinct latency, the
segment-cycle and residual sums, and the lowest-mid record at each
distinct latency (the candidates for the p50/p99 critical paths).  A
recorder built with ``retain=False`` then releases the record, so its
memory grows with flows and distinct latencies, not with messages; the
run ledger, ``repro explain`` and ``repro watch`` record that way.  A
retaining recorder (the default) keeps every record for the consumers
that read them one by one: the Perfetto journey arcs and
:meth:`JourneyRecorder.snapshot`.

On top of the per-flow aggregates:

* :func:`aggregate_flows` decomposes per-flow latency into per-segment
  attributions;
* :func:`critical_path` reports the segment chain of one record, the
  p50/p99 chains of a flow among them;
* :func:`build_journey_document` / :func:`explain_experiment` produce
  the stable ``repro.journey/1`` document behind ``repro explain``;
* :func:`validate_journey` structurally checks such a document (CI);
* :func:`render_explain` renders it for the terminal.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.schema import NUMBER, check

#: stable schema tag for ``repro explain --json`` documents
JOURNEY_SCHEMA = "repro.journey/1"

#: every segment kind a stamp site may emit (closed vocabulary: the
#: validator rejects anything else, so a typo at a stamp site fails CI
#: instead of minting a new latency category)
SEGMENT_KINDS = (
    "source_enqueue",    # waiting in the sender's NI / injection queue
    "arbitration_wait",  # bus grant / router port / switch arbitration
    "slot_wait",         # TDMA slot alignment (BUS-COM)
    "setup_wait",        # circuit establishment (RMBoC channels)
    "ni_queue",          # network-interface serialization queues
    "link_transit",      # occupying a wire / bus / lane
    "router_detour",     # S-XY deviation hops around an obstacle (DyNoC)
    "delivery",          # final-hop ejection into the destination port
)

_CRC_DENOM = float(2 ** 32)


def sampled(seed: int, mid: int, rate: float) -> bool:
    """Pure keep/skip decision for message ``mid`` — identical across
    reruns because it depends only on ``(seed, mid)``."""
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    h = zlib.crc32(f"{seed}/{mid}".encode("ascii")) & 0xFFFFFFFF
    return h / _CRC_DENOM < rate


class JourneyRecord:
    """Provenance of one sampled message."""

    __slots__ = ("mid", "src", "dst", "payload_bytes", "created",
                 "cursor", "segments", "delivered", "dropped",
                 "drop_why", "fault", "retrans_of")

    def __init__(self, mid: int, src: str, dst: str,
                 payload_bytes: int, created: int) -> None:
        self.mid = mid
        self.src = src
        self.dst = dst
        self.payload_bytes = payload_bytes
        self.created = created
        #: last stamped cycle — stamps always extend from here
        self.cursor = created
        #: contiguous ``[kind, start, end]`` triples (end exclusive of
        #: nothing: a segment covers cycles ``start .. end``)
        self.segments: List[List[Any]] = []
        self.delivered = -1
        self.dropped = False
        self.drop_why: Optional[str] = None
        #: causing fault, when a fault dropped this message or triggered
        #: it as a retransmission: {"index", "kind", "target", "injected"}
        self.fault: Optional[Dict[str, Any]] = None
        #: mid of the dropped original this message retransmits
        self.retrans_of: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def latency(self) -> Optional[int]:
        return self.delivered - self.created if self.delivered >= 0 else None

    @property
    def attributed(self) -> int:
        """Cycles covered by named segments (contiguous from created)."""
        return self.cursor - self.created

    @property
    def residual(self) -> Optional[int]:
        """Delivered cycles no stamp site claimed (explicit, reported)."""
        if self.delivered < 0:
            return None
        return max(0, self.delivered - self.cursor)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mid": self.mid,
            "src": self.src,
            "dst": self.dst,
            "bytes": self.payload_bytes,
            "created": self.created,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "drop_why": self.drop_why,
            "fault": self.fault,
            "retrans_of": self.retrans_of,
            "segments": [[k, s, e] for k, s, e in self.segments],
            "residual": self.residual,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("delivered" if self.delivered >= 0
                 else "dropped" if self.dropped else "pending")
        return (f"JourneyRecord(mid={self.mid}, {self.src}->{self.dst}, "
                f"{state}, segments={len(self.segments)})")


class FlowJourneys:
    """The delivered records of one (src, dst) flow, folded.

    Holds what :func:`aggregate_flows` reports and nothing per message:
    the number of records at each distinct latency, the cycles each
    segment kind covered, the residual cycles, and the lowest-mid
    record at each distinct latency, whose chain is the flow's p50 or
    p99 critical path when that latency is."""

    __slots__ = ("counts", "segments", "residual", "paths")

    def __init__(self) -> None:
        #: latency -> number of delivered records
        self.counts: Dict[int, int] = {}
        #: segment kind -> cycles, summed over the delivered records
        self.segments: Dict[str, int] = {}
        self.residual = 0
        #: latency -> the lowest-mid delivered record at that latency
        self.paths: Dict[int, JourneyRecord] = {}

    def fold(self, rec: JourneyRecord) -> None:
        lat = rec.delivered - rec.created
        n = self.counts.get(lat)
        if n is None:
            # the path first: repro watch reads the folds from another
            # thread, and a latency it finds in counts must have a path
            self.paths[lat] = rec
            self.counts[lat] = 1
        else:
            self.counts[lat] = n + 1
            if rec.mid < self.paths[lat].mid:
                self.paths[lat] = rec
        segments = self.segments
        for kind, start, end in rec.segments:
            segments[kind] = segments.get(kind, 0) + (end - start)
        if rec.delivered > rec.cursor:
            self.residual += rec.delivered - rec.cursor


class JourneyRecorder:
    """Per-simulator journey store (attach via ``sim.journey = ...``).

    All hot-path methods tolerate unsampled mids (dict miss, return) so
    stamp sites never need their own sampling test.

    ``records`` holds the records of the messages in flight and of the
    dropped ones; with ``retain`` (the default) it keeps the delivered
    ones too.  Every delivered record is folded into ``flows`` at
    :meth:`finalize`, whatever ``retain`` says, and the aggregates read
    only ``flows``.  The fold relies on no stamp, drop or
    retransmission link reaching a message after its delivery.
    """

    def __init__(self, seed: int = 0, rate: float = 1.0,
                 max_records: int = 100_000, retain: bool = True) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self.seed = int(seed)
        self.rate = float(rate)
        self.max_records = int(max_records)
        #: keep delivered records in ``records`` after folding them
        self.retain = bool(retain)
        self.records: Dict[int, JourneyRecord] = {}
        #: (src, dst) -> the flow's folded delivered records
        self.flows: Dict[Tuple[str, str], FlowJourneys] = {}
        #: records opened (the keep-first cap counts these)
        self.opened = 0
        #: records a fault flagged dropped (delivered later or not)
        self.dropped = 0
        #: messages skipped by the sampling decision
        self.sampled_out = 0
        #: messages skipped by the max_records cap (keep-first)
        self.capped = 0

    # ------------------------------------------------------------------
    # hot path — every method behind ``sim.journeying``
    # ------------------------------------------------------------------
    def start(self, msg, cycle: int) -> None:
        """Open a record for a freshly injected message (sampling and
        cap decisions happen here, once per message)."""
        if not sampled(self.seed, msg.mid, self.rate):
            self.sampled_out += 1
            return
        if self.opened >= self.max_records:
            self.capped += 1
            return
        self.opened += 1
        self.records[msg.mid] = JourneyRecord(
            msg.mid, msg.src, msg.dst, msg.payload_bytes, cycle)

    def stamp_to(self, mid: int, kind: str, end: int) -> None:
        """Append segment ``(kind, cursor, end)`` and advance the
        cursor.  ``end <= cursor`` is a no-op (zero-length wait), and
        an adjacent same-kind segment is extended in place — so
        fragment-level stamps of one message merge into contiguous
        coverage instead of overlapping."""
        rec = self.records.get(mid)
        if rec is None or end <= rec.cursor:
            return
        segs = rec.segments
        if segs and segs[-1][0] == kind:
            segs[-1][2] = end
        else:
            segs.append([kind, rec.cursor, end])
        rec.cursor = end

    def finalize(self, msg, cycle: int) -> None:
        """The message was delivered at ``cycle``: fold its record into
        its flow, and release it unless the recorder retains."""
        mid = msg.mid
        rec = self.records.get(mid)
        if rec is None:
            return
        rec.delivered = cycle
        if not self.retain:
            del self.records[mid]
        key = (rec.src, rec.dst)
        flow = self.flows.get(key)
        if flow is None:
            flow = self.flows[key] = FlowJourneys()
        flow.fold(rec)

    def drop(self, msg, cycle: int, why: str = "fault",
             fault: Optional[Dict[str, Any]] = None) -> None:
        """The message was consumed by a fault at ``cycle``."""
        rec = self.records.get(msg.mid)
        if rec is not None:
            if not rec.dropped:
                self.dropped += 1
            rec.dropped = True
            rec.drop_why = why
            if fault is not None:
                rec.fault = fault

    def link_retransmission(self, copy_mid: int, orig_mid: int,
                            fault: Optional[Dict[str, Any]] = None) -> None:
        """Chain a retransmit copy back to its dropped original and the
        causing fault (the copy's record was opened by the normal send
        path; the original stays flagged dropped)."""
        rec = self.records.get(copy_mid)
        if rec is not None:
            rec.retrans_of = orig_mid
            if fault is not None:
                rec.fault = fault

    # ------------------------------------------------------------------
    def delivered_records(self) -> List[JourneyRecord]:
        """The delivered records still held (none unless ``retain``)."""
        return [r for r in self.records.values() if r.delivered >= 0]

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic dump of every record held, keyed by mid — the
        golden tests compare these directly, on retaining recorders."""
        return {
            "sampling": {"seed": self.seed, "rate": self.rate,
                         "max_records": self.max_records},
            "sampled_out": self.sampled_out,
            "capped": self.capped,
            "records": {str(mid): self.records[mid].as_dict()
                        for mid in sorted(self.records)},
        }

    def __len__(self) -> int:
        """Records opened, held or released."""
        return self.opened

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"JourneyRecorder(records={self.opened}, "
                f"flows={len(self.flows)}, rate={self.rate}, "
                f"seed={self.seed})")


# ----------------------------------------------------------------------
# aggregation / critical-path analysis
# ----------------------------------------------------------------------
def _pct(counted: List[Tuple[int, int]], n: int, q: float) -> int:
    """Nearest-rank percentile of ``n`` values given as ``(value,
    count)`` pairs sorted by value."""
    rank = max(1, -(-int(q * n * 1000) // 1000))  # ceil without floats drift
    idx = min(n - 1, max(0, rank - 1))
    seen = 0
    for value, count in counted:
        seen += count
        if seen > idx:
            break
    return value


def critical_path(rec: JourneyRecord) -> Dict[str, Any]:
    """The segment chain of one delivered record, in time order, with
    the residual appended explicitly when non-zero."""
    chain = [{"kind": k, "start": s, "end": e, "cycles": e - s}
             for k, s, e in rec.segments]
    residual = rec.residual or 0
    return {
        "mid": rec.mid,
        "latency": rec.latency,
        "chain": chain,
        "residual": residual,
        "dominant": (max(chain, key=lambda seg: (seg["cycles"],
                                                 -chain.index(seg)))["kind"]
                     if chain else None),
    }


def aggregate_flows(recorder: JourneyRecorder) -> List[Dict[str, Any]]:
    """Decompose each flow's sampled latency into per-segment
    attributions, with the unattributed residual reported explicitly.

    Returns one row per (src, dst) flow, sorted for determinism, from
    the recorder's folded flows (:class:`FlowJourneys`).  Percentiles
    are nearest-rank; each critical path is the chain of the lowest-mid
    record at that latency.
    """
    rows: List[Dict[str, Any]] = []
    flows = recorder.flows
    for (src, dst) in sorted(flows):
        flow = flows[(src, dst)]
        counted = sorted(flow.counts.items())
        n = sum(count for _, count in counted)
        total = sum(lat * count for lat, count in counted)
        by_kind = flow.segments
        attributed = sum(by_kind.values())
        coverage = attributed / total if total else 1.0
        segments = {
            kind: {"cycles": cycles,
                   "share": cycles / total if total else 0.0}
            for kind, cycles in sorted(by_kind.items())
        }
        slowest = (sorted(by_kind.items(), key=lambda kv: (-kv[1], kv[0]))
                   [0][0] if by_kind else None)
        p50, p99 = _pct(counted, n, 0.50), _pct(counted, n, 0.99)
        rows.append({
            "src": src,
            "dst": dst,
            "sampled": n,
            "latency": {"total": total, "mean": total / n,
                        "p50": p50, "p99": p99,
                        "max": counted[-1][0], "min": counted[0][0]},
            "segments": segments,
            "attributed": attributed,
            "residual": flow.residual,
            "coverage": coverage,
            "slowest_segment": slowest,
            "critical_paths": {"p50": critical_path(flow.paths[p50]),
                               "p99": critical_path(flow.paths[p99])},
        })
    return rows


def flow_slowest_segments(recorder) -> Dict[Tuple[str, str], str]:
    """(src, dst) -> dominant segment kind, for the watch dashboard."""
    out: Dict[Tuple[str, str], str] = {}
    for row in aggregate_flows(recorder):
        if row["slowest_segment"] is not None:
            out[(row["src"], row["dst"])] = row["slowest_segment"]
    return out


# ----------------------------------------------------------------------
# repro.journey/1 document
# ----------------------------------------------------------------------
def build_journey_document(session, experiment: str) -> Dict[str, Any]:
    """Assemble the stable ``repro.journey/1`` document from an
    :class:`~repro.obs.session.ObservationSession` whose simulators
    carry journey recorders."""
    sims = []
    total_records = 0
    total_attributed = 0
    total_latency = 0
    for sim in session.sims:
        jr = sim.journey
        if jr is None:
            continue
        flows = aggregate_flows(jr)
        attributed = sum(row["attributed"] for row in flows)
        latency = sum(row["latency"]["total"] for row in flows)
        total_records += len(jr)
        total_attributed += attributed
        total_latency += latency
        sims.append({
            "sim": sim.name,
            "cycle": sim.cycle,
            "sampling": {"seed": jr.seed, "rate": jr.rate,
                         "max_records": jr.max_records},
            "records": len(jr),
            "delivered": sum(row["sampled"] for row in flows),
            "dropped": jr.dropped,
            "pending": sum(1 for r in jr.records.values()
                           if r.delivered < 0 and not r.dropped),
            "sampled_out": jr.sampled_out,
            "capped": jr.capped,
            "attributed": attributed,
            "residual": latency - attributed,
            "coverage": attributed / latency if latency else 1.0,
            "flows": flows,
        })
    return {
        "schema": JOURNEY_SCHEMA,
        "experiment": experiment,
        "simulators": sims,
        "total_records": total_records,
        "total_flows": sum(len(s["flows"]) for s in sims),
        "coverage": (total_attributed / total_latency
                     if total_latency else 1.0),
    }


def explain_experiment(name: str, rate: float = 1.0, seed: int = 0,
                       max_records: int = 100_000) -> Dict[str, Any]:
    """Run a registered experiment with journeys enabled and return the
    ``repro.journey/1`` latency-attribution document."""
    from repro.obs.session import observe_named

    _, session = observe_named(
        name, trace=False, journeys=True, journey_rate=rate,
        journey_seed=seed, journey_max_records=max_records)
    return build_journey_document(session, name)


#: a segment kind (see :data:`SEGMENT_KINDS`)
_KIND = frozenset(SEGMENT_KINDS)

#: one critical path (:func:`critical_path`)
_PATH = {"mid": int, "latency": NUMBER, "chain": [{"kind": _KIND}],
         "residual": NUMBER, "dominant": object}

#: one row of :func:`aggregate_flows`, in the journey document and in
#: a run record's ``journeys`` section
FLOW_ROW = {
    "src": str, "dst": str, "sampled": int,
    "latency": dict.fromkeys(("total", "mean", "p50", "p99", "max",
                              "min"), NUMBER),
    "segments": {_KIND: {"cycles": NUMBER, "share": NUMBER}},
    "attributed": NUMBER, "residual": NUMBER, "coverage": NUMBER,
    "slowest_segment": object,
    "critical_paths": {"p50": _PATH, "p99": _PATH},
}

_JOURNEY = {
    "schema": frozenset({JOURNEY_SCHEMA}),
    "experiment": str,
    "simulators": [{
        "sim": str, "cycle": int,
        "sampling": {"seed": int, "rate": NUMBER, "max_records": int},
        "records": int, "delivered": int, "dropped": int,
        "pending": int, "sampled_out": int, "capped": int,
        "attributed": NUMBER, "residual": NUMBER, "coverage": NUMBER,
        "flows": [FLOW_ROW],
    }],
    "total_records": int, "total_flows": int, "coverage": NUMBER,
}


def _journey_rules(doc: Dict[str, Any]) -> Iterator[str]:
    """Residuals are explicit, never dropped, and the sums add up."""
    for i, s in enumerate(doc["simulators"]):
        if s["residual"] < 0:
            yield f"simulators[{i}].residual is negative"
        for j, row in enumerate(s["flows"]):
            where = f"simulators[{i}].flows[{j}]"
            attributed = sum(seg["cycles"]
                             for seg in row["segments"].values())
            if attributed != row["attributed"]:
                yield (f"{where}: segment sum {attributed} != "
                       f"attributed {row['attributed']}")
            if row["attributed"] + row["residual"] \
                    != row["latency"]["total"]:
                yield (f"{where}: attributed + residual != total "
                       f"latency (residual must be explicit, never "
                       f"dropped)")
    counted = sum(len(s["flows"]) for s in doc["simulators"])
    if doc["total_flows"] != counted:
        yield f"total_flows {doc['total_flows']} != counted {counted}"


def validate_journey(doc: Dict[str, Any]) -> int:
    """Structurally validate a ``repro.journey/1`` document; returns
    the number of flow rows.  Raises :class:`ValueError` naming the
    path of any problem — used by the CI obs-smoke job."""
    check(doc, _JOURNEY, "invalid journey document: ", _journey_rules)
    return doc["total_flows"]


# ----------------------------------------------------------------------
# terminal rendering
# ----------------------------------------------------------------------
def render_explain(doc: Dict[str, Any], top: int = 10) -> str:
    """Human-readable latency attribution report for ``repro explain``."""
    lines: List[str] = []
    lines.append(f"experiment {doc['experiment']}")
    lines.append(f"{doc['total_records']} sampled journeys, "
                 f"{doc['total_flows']} flows, "
                 f"{doc['coverage']:.1%} of latency attributed")
    for s in doc["simulators"]:
        lines.append("")
        lines.append(f"[{s['sim']}] cycle {s['cycle']}: "
                     f"{s['delivered']} delivered / {s['dropped']} dropped "
                     f"/ {s['pending']} pending sampled journeys "
                     f"(coverage {s['coverage']:.1%}, "
                     f"residual {s['residual']} cyc)")
        flows = sorted(s["flows"],
                       key=lambda r: -r["latency"]["total"])[:top]
        if not flows:
            continue
        lines.append(f"  {'flow':<20} {'n':>5} {'p50':>7} {'p99':>7} "
                     f"{'slowest segment':<18} {'cover':>6}")
        for row in flows:
            lines.append(
                f"  {row['src'] + '->' + row['dst']:<20} "
                f"{row['sampled']:>5} "
                f"{row['latency']['p50']:>7} "
                f"{row['latency']['p99']:>7} "
                f"{(row['slowest_segment'] or '-'):<18} "
                f"{row['coverage']:>6.1%}")
            cp = row["critical_paths"]["p99"]
            chain = " + ".join(f"{seg['kind']}:{seg['cycles']}"
                               for seg in cp["chain"])
            if cp["residual"]:
                chain += f" + residual:{cp['residual']}"
            lines.append(f"      p99 path (mid {cp['mid']}, "
                         f"{cp['latency']} cyc): {chain}")
        hidden = len(s["flows"]) - len(flows)
        if hidden > 0:
            lines.append(f"  ... {hidden} more flow(s); --top to widen")
    return "\n".join(lines)

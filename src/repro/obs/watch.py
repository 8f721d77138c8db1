"""Live fabric watch: stream telemetry snapshots from a running run.

``repro watch <experiment>`` runs a registered harness with telemetry
attached (via :class:`~repro.obs.session.ObservationSession`) and
refreshes a terminal dashboard of per-flow latencies, per-link
utilization and fired SLO alerts while the experiment executes.  Two
CI-friendly modes bypass the live loop:

* ``--once`` runs the experiment to completion and emits exactly one
  final snapshot;
* ``--json`` replaces the rendered dashboard with the machine-readable
  snapshot document (one JSON object per refresh; pretty-printed when
  combined with ``--once``).

The snapshot document is a stable schema (:data:`SNAPSHOT_SCHEMA`)
checked by :func:`validate_snapshot` — the CI smoke job feeds the
``--once --json`` output straight through it.

With journeys enabled (the default) each flow row additionally carries
``slowest_segment`` — the dominant latency segment from the journey
aggregator (:func:`repro.obs.journey.flow_slowest_segments`) — shown as
its own dashboard column.  The key is *additive*: ``repro.watch/1``
consumers that predate it ignore it, and :func:`validate_snapshot`
checks it only when present.

The live loop reads telemetry that the experiment thread is still
writing.  All telemetry stores are append-only dicts and bounded
deques, so a concurrent reader sees a slightly stale but well-formed
view; the rare ``RuntimeError`` from a dict growing mid-iteration is
caught and that refresh skipped.  The final snapshot is always taken
after the run completes, so ``--once`` output is deterministic.
"""

from __future__ import annotations

import json
import sys
import threading
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple

from repro.obs.flows import merge_snapshots
from repro.obs.journey import SEGMENT_KINDS, flow_slowest_segments
from repro.obs.session import ObservationSession
from repro.schema import NUMBER, Named, check

#: watch snapshot document version; bump on breaking shape changes
SNAPSHOT_SCHEMA = "repro.watch/1"

_CLEAR = "\x1b[2J\x1b[H"


# ----------------------------------------------------------------------
# snapshot document
# ----------------------------------------------------------------------
def collect_snapshot(session: ObservationSession, experiment: str = "",
                     done: bool = True) -> Dict[str, Any]:
    """Merge every observed simulator's telemetry into one document."""
    snaps: List[Dict[str, Any]] = []
    for sim in list(session.sims):
        tel = sim.telemetry
        if tel is None:
            continue
        snap = tel.snapshot()
        snap["sim"] = sim.name
        jr = sim.journey
        if jr is not None and len(jr):
            # additive repro.watch/1 key: dominant latency segment per
            # flow, from the sampled journey records
            slowest = flow_slowest_segments(jr)
            for flow in snap.get("flows", ()):
                seg = slowest.get((flow["src"], flow["dst"]))
                if seg is not None:
                    flow["slowest_segment"] = seg
        snaps.append(snap)
    doc = merge_snapshots(snaps)
    doc["schema"] = SNAPSHOT_SCHEMA
    doc["experiment"] = experiment
    doc["done"] = bool(done)
    controls = [sim.control for sim in list(session.sims)
                if getattr(sim, "control", None) is not None]
    if controls:
        # versioned extension: control-plane decisions, rendered as
        # their own pane.  Pre-controller consumers ignore both keys.
        counts: Dict[str, int] = {}
        recent: List[Dict[str, Any]] = []
        for loop in controls:
            for status, n in loop.status_counts().items():
                counts[status] = counts.get(status, 0) + n
            for record in loop.actions[-8:]:
                recent.append(dict(record.to_dict(), sim=loop.sim.name))
        recent.sort(key=lambda r: (r["cycle"], r["sim"], r["aid"]))
        doc["extensions"] = sorted(
            set(doc.get("extensions", ())) | {"actions/1"})
        doc["actions"] = {
            "counts": dict(sorted(counts.items())),
            "recent": recent[-16:],
            "observe_only": any(l.observe_only for l in controls),
        }
    return doc


_SNAPSHOT = {
    "schema": frozenset({SNAPSHOT_SCHEMA}),
    "experiment": str,
    "done": bool,
    "simulators": [{
        "sim": str, "cycle": int, "counters": dict, "quiesce": dict,
        "flows?": [{
            "src": str, "dst": str, "messages": int, "bytes": int,
            "latency": dict.fromkeys(("count", "mean", "p50", "p95",
                                      "p99", "max"), NUMBER),
            "jitter": dict,
            # additive; absent pre-journey
            "slowest_segment?": frozenset(SEGMENT_KINDS),
        }],
        "links?": [{"name": str, "utilization": NUMBER,
                    "queue_watermark": int, "stalls": int,
                    "wait": dict}],
    }],
    "total_flows": int, "total_links": int, "total_alerts": int,
    "alerts": [Named("alert", {"rule": str, "cycle": int,
                               "severity": str, "message": str})],
    # the actions/1 extension; absent pre-controller
    "extensions?": [str],
    "actions?": {"counts": dict, "observe_only": bool,
                 "recent": [{"aid": str, "rule": str, "kind": str,
                             "status": str, "cycle": int, "sim": str}]},
}


def _snapshot_rules(doc: Dict[str, Any]) -> Iterator[str]:
    if "actions" in doc and "actions/1" not in doc.get("extensions", ()):
        yield ("actions key present without the actions/1 extension "
               "marker")
    if doc["total_alerts"] < 0:
        yield "total_alerts is negative"
    for i, entry in enumerate(doc["simulators"]):
        if entry["cycle"] < 0:
            yield f"simulators[{i}].cycle is negative"
        for j, link in enumerate(entry.get("links", ())):
            if not 0.0 <= link["utilization"] <= 1.0:
                yield (f"simulators[{i}].links[{j}].utilization "
                       f"{link['utilization']!r} is out of range")
    for key in ("flows", "links"):
        if doc[f"total_{key}"] != sum(len(e.get(key, ()))
                                      for e in doc["simulators"]):
            yield f"total_{key} does not match simulator entries"


def validate_snapshot(doc: Dict[str, Any]) -> int:
    """Schema check for a watch snapshot document; returns the number
    of simulator entries.  Raises :class:`ValueError` naming the path
    of the first violation — this is the CI contract for ``--once
    --json`` output.
    """
    check(doc, _SNAPSHOT, "watch snapshot: ", _snapshot_rules)
    return len(doc["simulators"])


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_cycles(v: float) -> str:
    return f"{v:,.0f}" if v == v else "-"  # NaN-safe


def render_dashboard(doc: Dict[str, Any], max_rows: int = 8) -> str:
    """One refresh of the watch dashboard as plain text."""
    lines: List[str] = []
    state = "done" if doc.get("done") else "running"
    cycle = max((e["cycle"] for e in doc["simulators"]), default=0)
    lines.append(
        f"repro watch — {doc.get('experiment') or '(unnamed)'}  [{state}]  "
        f"cycle {cycle:,}  sims {len(doc['simulators'])}  "
        f"flows {doc['total_flows']}  links {doc['total_links']}  "
        f"alerts {doc['total_alerts']}"
    )
    flows = [
        dict(f, sim=e["sim"])
        for e in doc["simulators"] for f in e.get("flows", ())
    ]
    if flows:
        flows.sort(key=lambda f: -f["latency"]["p99"])
        lines.append("")
        lines.append(f"  {'flow':<26} {'msgs':>7} {'p50':>9} "
                     f"{'p99':>9} {'max':>9} {'slowest seg':<16}")
        for f in flows[:max_rows]:
            lat = f["latency"]
            name = f"{f['sim']}:{f['src']}->{f['dst']}"
            lines.append(
                f"  {name:<26} {f['messages']:>7} "
                f"{_fmt_cycles(lat['p50']):>9} {_fmt_cycles(lat['p99']):>9} "
                f"{_fmt_cycles(lat['max']):>9} "
                f"{f.get('slowest_segment') or '-':<16}"
            )
        if len(flows) > max_rows:
            lines.append(f"  ... {len(flows) - max_rows} more flows")
    links = [
        dict(ln, sim=e["sim"])
        for e in doc["simulators"] for ln in e.get("links", ())
    ]
    if links:
        links.sort(key=lambda ln: -ln["utilization"])
        lines.append("")
        lines.append(f"  {'link':<34} {'util':>6} {'queue^':>7} "
                     f"{'stalls':>7} {'wait p99':>9}")
        for ln in links[:max_rows]:
            name = f"{ln['sim']}:{ln['name']}"
            wait = ln["wait"]["p99"] if ln["wait"]["count"] else 0
            lines.append(
                f"  {name:<34} {ln['utilization']:>5.0%} "
                f"{ln['queue_watermark']:>7} {ln['stalls']:>7} "
                f"{_fmt_cycles(wait):>9}"
            )
        if len(links) > max_rows:
            lines.append(f"  ... {len(links) - max_rows} more links")
    if doc.get("actions"):
        actions = doc["actions"]
        counts = actions["counts"]
        summary = "  ".join(f"{k} {v}" for k, v in counts.items())
        mode = "  [OBSERVE-ONLY]" if actions["observe_only"] else ""
        lines.append("")
        lines.append(f"  actions: {summary or 'none'}{mode}")
        for record in actions["recent"][-max_rows:]:
            what = record["detail"] or record["reason"] or record["rule"]
            lines.append(
                f"  > cycle {record['cycle']:>9,}  "
                f"[{record['status']}] {record['kind']} "
                f"{record['target']}: {what}"
            )
    if doc["alerts"]:
        lines.append("")
        lines.append("  alerts:")
        for alert in doc["alerts"][-max_rows:]:
            lines.append(
                f"  ! cycle {alert['cycle']:>9,}  [{alert['severity']}] "
                f"{alert['rule']}: {alert['message']}"
            )
        if len(doc["alerts"]) > max_rows:
            lines.append(
                f"  ... {len(doc['alerts']) - max_rows} earlier alerts"
            )
    elif doc.get("done"):
        lines.append("")
        lines.append("  no alerts fired")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the watch loop
# ----------------------------------------------------------------------
def _emit(doc: Dict[str, Any], stream: TextIO, json_out: bool,
          pretty: bool, max_rows: int, clear: bool) -> None:
    if json_out:
        text = json.dumps(doc, indent=2 if pretty else None,
                          sort_keys=True, default=str)
        print(text, file=stream, flush=True)
        return
    if clear and stream.isatty():
        stream.write(_CLEAR)
    print(render_dashboard(doc, max_rows=max_rows), file=stream, flush=True)
    if not clear or not stream.isatty():
        print("-" * 72, file=stream, flush=True)


def watch_experiment(
    name: str,
    interval: float = 1.0,
    once: bool = False,
    json_out: bool = False,
    max_rows: int = 8,
    stream: Optional[TextIO] = None,
    rules: Optional[List[Any]] = None,
    clear: bool = True,
    journeys: bool = True,
) -> Tuple[Any, Dict[str, Any]]:
    """Run a registered harness under telemetry and stream snapshots.

    ``journeys`` additionally attaches journey recorders so flow rows
    carry their ``slowest_segment``.  Returns ``(result,
    final_snapshot)``.  Raises :class:`KeyError` for an unknown
    experiment name (the CLI maps that to exit code 2).
    """
    from repro.analysis.parallel import registry

    harnesses = registry()
    if name not in harnesses:
        raise KeyError(
            f"unknown experiment {name!r}; known: "
            f"{', '.join(sorted(harnesses))}"
        )
    out = stream if stream is not None else sys.stdout
    session = ObservationSession(trace=False, telemetry=True, rules=rules,
                                 journeys=journeys)

    if once:
        with session:
            result = harnesses[name]()
        session.flush_alerts()
        doc = collect_snapshot(session, name, done=True)
        _emit(doc, out, json_out, pretty=True, max_rows=max_rows,
              clear=False)
        return result, doc

    box: Dict[str, Any] = {}

    def _run() -> None:
        try:
            box["result"] = harnesses[name]()
        except BaseException as exc:  # surfaced after the loop
            box["error"] = exc

    with session:
        worker = threading.Thread(target=_run, name=f"watch-{name}",
                                  daemon=True)
        worker.start()
        while worker.is_alive():
            worker.join(timeout=max(interval, 0.05))
            if not worker.is_alive():
                break
            try:
                doc = collect_snapshot(session, name, done=False)
            except RuntimeError:
                continue  # telemetry grew mid-read; next refresh catches up
            _emit(doc, out, json_out, pretty=False, max_rows=max_rows,
                  clear=clear)
    if "error" in box:
        raise box["error"]
    session.flush_alerts()
    doc = collect_snapshot(session, name, done=True)
    _emit(doc, out, json_out, pretty=False, max_rows=max_rows, clear=clear)
    return box.get("result"), doc


__all__ = [
    "SNAPSHOT_SCHEMA",
    "collect_snapshot",
    "validate_snapshot",
    "render_dashboard",
    "watch_experiment",
]

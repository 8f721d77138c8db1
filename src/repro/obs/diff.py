"""Differential run analysis: align, compare, attribute, gate.

``repro diff <a> <b>`` takes two ledger records
(:mod:`repro.obs.ledger`) and answers "what changed, is it real, and
*where did it come from*":

* **align** — classify the pair: same config re-run (``identical``),
  same config under a different seed (``seed``) or a different
  package/commit (``version``), or the same seed under a different
  config (``config``).  The alignment picks the noise model: an
  identical pair must be bit-identical, a seed pair is compared
  against the across-seed spread, a config pair is an intentional
  comparison.  The ``engine`` field of records written before the
  engine name was retired plays no part: the simulator was the same.
* **compare** — flatten both records to dotted metric paths and
  compute deltas with *noise-aware significance*: a delta only counts
  when it clears a floor combining an absolute slack, a relative
  fraction of the metric, and a multiple of the across-seed standard
  deviation (``seed_stats``) when the records carry one.  The
  floor-plus-slack shape is the ``bench_kernel_perf`` paired-timing
  noise guard (:func:`within_noise`), reused here verbatim — sub-noise
  deltas are never flagged.
* **attribute** — every significant latency regression is pushed down
  the observability stack: journey segment aggregates say *what kind*
  of wait grew (arbitration, NI queueing, setup, detour...), per-flow
  rows say *which traffic* pays it, and link telemetry says *which
  resource* congested — "p99 +14%: +9% arbitration_wait (m0->m3);
  link bus0 busy +12%".
* **gate** — :func:`regress` re-runs the fleet configurations recorded
  in a checked-in baseline ledger and applies per-metric budgets;
  ``repro regress`` exits 0 (clean) / 1 (regression) / 2 (error), so
  CI gates on observability data, not just test pass/fail.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.ledger import (LedgerError, RunLedger, run_id_of,
                              validate_run)

#: schema tag of the document :func:`diff_runs` emits
DIFF_SCHEMA = "repro.diff/1"

#: paired-measurement noise envelope (factor, slack) — the
#: ``bench_kernel_perf`` journey-overhead guard, shared via
#: :func:`within_noise`
NOISE_FACTOR = 2.0
NOISE_SLACK = 0.05

#: flattened metric paths where *larger* is worse (costs); everything
#: matching ``_WORSE_DOWN`` instead treats *smaller* as worse (goods)
_WORSE_DOWN = (
    "*delivered*", "*availability*", "*coverage*", "*recovered*",
    "*survived*", "*ff_cycles_skipped*", "*ff_jumps*",
)

#: never compared at all: unbounded raw series and identifiers
_SKIP_KEYS = ("series", "critical_paths", "records", "alerts", "seed",
              "seeds", "target", "arch")


def within_noise(candidate: float, reference: float,
                 factor: float = NOISE_FACTOR,
                 slack: float = NOISE_SLACK) -> bool:
    """True when ``candidate`` is within the paired-measurement noise
    envelope of ``reference`` — the ``bench_kernel_perf`` overhead
    guard (``candidate <= reference * factor + slack``).  Used for
    wall-clock comparisons, where only a multiplicative blow-up plus
    an absolute allowance is meaningful."""
    return candidate <= reference * factor + slack


# ----------------------------------------------------------------------
# alignment
# ----------------------------------------------------------------------
def align(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Classify how two run records relate; see the module docstring.

    Returns ``{"mode": ..., "notes": [...]}``.  ``mixed`` means the
    records share neither config nor seed — deltas are reported but
    significance is advisory at best.
    """
    notes: List[str] = []
    same_config = (a.get("kind") == b.get("kind")
                   and a.get("name") == b.get("name")
                   and a.get("config_hash") == b.get("config_hash"))
    # the seed identity covers a fleet's seed *list* too (excluded
    # from the config hash exactly so seed-shifted fleets align here)
    same_seed = (a.get("seed") == b.get("seed")
                 and (a.get("config") or {}).get("seeds")
                 == (b.get("config") or {}).get("seeds"))
    va, vb = a.get("versions", {}), b.get("versions", {})
    same_version = (va.get("package") == vb.get("package")
                    and va.get("git") == vb.get("git"))
    if not same_version:
        notes.append(f"versions differ: {va.get('package')}@"
                     f"{(va.get('git') or '?')[:10]} vs "
                     f"{vb.get('package')}@{(vb.get('git') or '?')[:10]}")
    if same_config:
        if not same_seed:
            mode = "seed"
        elif same_version:
            mode = "identical"
        else:
            mode = "version"
    elif same_seed and a.get("kind") == b.get("kind"):
        mode = "config"
        notes.append(f"configs differ: {a.get('name')}/"
                     f"{a.get('config_hash')[:8]} vs {b.get('name')}/"
                     f"{b.get('config_hash')[:8]}")
    else:
        mode = "mixed"
        notes.append("records share neither config nor seed; "
                     "significance is advisory")
    return {"mode": mode, "notes": notes}


# ----------------------------------------------------------------------
# flattening
# ----------------------------------------------------------------------
def _flatten(value: Any, path: str, out: Dict[str, float]) -> None:
    if isinstance(value, bool):
        out[path] = float(value)
    elif isinstance(value, (int, float)):
        out[path] = float(value)
    elif isinstance(value, dict):
        for key, sub in value.items():
            if key in _SKIP_KEYS:
                continue
            _flatten(sub, f"{path}.{key}" if path else str(key), out)
    elif isinstance(value, list) and len(value) <= 64:
        for i, sub in enumerate(value):
            _flatten(sub, f"{path}.{i}", out)


def flatten_metrics(doc: Dict[str, Any]) -> Dict[str, float]:
    """Every comparable numeric metric of a record as dotted paths.

    Stats flatten in full; telemetry flattens per flow/link keyed by
    identity (src->dst / link name), not list position, so records
    whose flow sets differ still match where they overlap; journeys
    flatten to per-flow per-segment cycle totals.
    """
    out: Dict[str, float] = {}
    _flatten(doc.get("stats"), "stats", out)
    _flatten(doc.get("kernel"), "kernel", out)
    _flatten(doc.get("resilience"), "resilience", out)
    _flatten(doc.get("seed_stats"), "seed_stats", out)
    for entry in doc.get("telemetry", ()):
        base = f"telemetry.{entry.get('index', 0)}"
        for flow in entry.get("flows", ()):
            fbase = f"{base}.flow.{flow['src']}->{flow['dst']}"
            out[f"{fbase}.messages"] = _num(flow["messages"])
            out[f"{fbase}.bytes"] = _num(flow.get("bytes", 0))
            for stat in ("mean", "p50", "p99", "max"):
                out[f"{fbase}.latency.{stat}"] = \
                    _num(flow["latency"][stat])
            out[f"{fbase}.jitter.mean"] = _num(flow["jitter"]["mean"])
        for link in entry.get("links", ()):
            lbase = f"{base}.link.{link['name']}"
            out[f"{lbase}.busy_cycles"] = _num(link["busy_cycles"])
            out[f"{lbase}.overall_utilization"] = \
                _num(link.get("overall_utilization", 0.0))
            out[f"{lbase}.stalls"] = _num(link.get("stalls", 0))
            out[f"{lbase}.wait.mean"] = \
                _num(link.get("wait", {}).get("mean", 0.0))
            out[f"{lbase}.queue_watermark"] = \
                _num(link.get("queue_watermark", 0))
        for key, value in entry.get("counters", {}).items():
            out[f"{base}.counter.{key}"] = _num(value)
    j = doc.get("journeys")
    if j:
        out["journeys.coverage"] = _num(j.get("coverage", 0.0))
        for entry in j.get("simulators", ()):
            base = f"journeys.{entry.get('index', 0)}"
            for row in entry.get("flows", ()):
                fbase = f"{base}.flow.{row['src']}->{row['dst']}"
                out[f"{fbase}.latency.mean"] = \
                    _num(row["latency"]["mean"])
                out[f"{fbase}.latency.p99"] = \
                    _num(row["latency"]["p99"])
                for kind, seg in row.get("segments", {}).items():
                    out[f"{fbase}.segment.{kind}"] = \
                        _num(seg["cycles"])
    return out


# ----------------------------------------------------------------------
# budgets & significance
# ----------------------------------------------------------------------
@dataclass
class Budget:
    """Noise/regression budget for metric paths matching ``pattern``.

    The significance floor for a matched metric is::

        max(abs, rel * max(|a|, |b|), sigma * seed_std)

    with ``seed_std`` from the records' ``seed_stats`` spread when
    available.  ``ignore=True`` makes matched metrics informational
    (reported, never significant) — e.g. kernel self-metrics under the
    regression gate, where a kernel change legitimately counts
    different work.
    """

    pattern: str
    rel: float = 0.0
    abs: float = 0.0
    sigma: float = 0.0
    ignore: bool = False

    def matches(self, path: str) -> bool:
        return fnmatchcase(path, self.pattern)


#: per-alignment default budgets, first match wins.  ``identical``
#: pairs are produced by a deterministic simulator, so any stats delta
#: is significant; ``seed`` pairs only flag when a metric
#: more than doubles past the across-seed spread (the never-flag-noise
#: contract); ``config`` pairs are intentional comparisons with a
#: moderate floor.
DEFAULT_BUDGETS: Dict[str, List[Budget]] = {
    "identical": [Budget("*")],
    "version": [Budget("kernel.*", rel=0.25, abs=64.0),
                Budget("*")],
    "seed": [Budget("*", rel=1.0, abs=4.0, sigma=6.0)],
    "config": [Budget("*", rel=0.25, abs=4.0, sigma=4.0)],
    "mixed": [Budget("*", rel=0.25, abs=4.0, sigma=4.0)],
}


def _seed_std(path: str, *docs: Dict[str, Any]) -> float:
    """Across-seed std for a metric path, from either record's
    ``seed_stats`` spread (matched on the path's metric basename)."""
    best = 0.0
    for doc in docs:
        for metric, spread in (doc.get("seed_stats") or {}).items():
            if path == f"stats.{metric}" or path.endswith(f".{metric}"):
                best = max(best, float(spread.get("std", 0.0)))
    return best


def _is_worse(path: str, delta: float) -> bool:
    """Whether a significant delta moves the metric the bad way."""
    if any(fnmatchcase(path, pat) for pat in _WORSE_DOWN):
        return delta < 0
    return delta > 0


def compare_metrics(a: Dict[str, Any], b: Dict[str, Any],
                    budgets: List[Budget]) -> List[Dict[str, Any]]:
    """Delta rows for every metric path present in both records."""
    ma, mb = flatten_metrics(a), flatten_metrics(b)
    rows: List[Dict[str, Any]] = []
    for path in sorted(set(ma) & set(mb)):
        va, vb = ma[path], mb[path]
        delta = vb - va
        budget = next((bud for bud in budgets if bud.matches(path)),
                      None)
        if budget is None or budget.ignore:
            floor = None
            significant = False
        else:
            floor = max(budget.abs,
                        budget.rel * max(abs(va), abs(vb)),
                        budget.sigma * _seed_std(path, a, b))
            significant = abs(delta) > floor
        if delta == 0 and not significant:
            continue
        rows.append({
            "metric": path,
            "a": va,
            "b": vb,
            "delta": delta,
            "rel": delta / abs(va) if va else None,
            "floor": floor,
            "significant": significant,
            "regression": significant and _is_worse(path, delta),
        })
    return rows


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def _num(value: Any, default: float = 0.0) -> float:
    """Numeric or ``default`` — empty-histogram summaries serialize
    non-finite floats as strings ("nan"), which must not poison
    arithmetic."""
    return float(value) if isinstance(value, (int, float)) \
        and not isinstance(value, bool) else default


def _journey_rows(doc: Dict[str, Any]
                  ) -> Dict[Tuple[int, str, str], Dict[str, Any]]:
    out: Dict[Tuple[int, str, str], Dict[str, Any]] = {}
    for entry in (doc.get("journeys") or {}).get("simulators", ()):
        for row in entry.get("flows", ()):
            out[(entry.get("index", 0), row["src"], row["dst"])] = row
    return out


def _link_rows(doc: Dict[str, Any]
               ) -> Dict[Tuple[int, str], Dict[str, Any]]:
    out: Dict[Tuple[int, str], Dict[str, Any]] = {}
    for entry in doc.get("telemetry", ()):
        for link in entry.get("links", ()):
            out[(entry.get("index", 0), link["name"])] = link
    return out


def attribute_latency(a: Dict[str, Any], b: Dict[str, Any]
                      ) -> Dict[str, Any]:
    """Where latency growth between two records comes from.

    Per matched flow, the per-segment cycle deltas (journey
    aggregates) expressed as a share of the flow's baseline latency;
    per matched link, the busy/backpressure deltas.  Sorted by
    contribution, largest first.
    """
    segments: List[Dict[str, Any]] = []
    ja, jb = _journey_rows(a), _journey_rows(b)
    for key in sorted(set(ja) & set(jb)):
        row_a, row_b = ja[key], jb[key]
        base = max(row_a["latency"]["total"], 1)
        kinds = set(row_a.get("segments", {})) \
            | set(row_b.get("segments", {}))
        for kind in sorted(kinds):
            ca = row_a.get("segments", {}).get(kind, {}) \
                .get("cycles", 0)
            cb = row_b.get("segments", {}).get(kind, {}) \
                .get("cycles", 0)
            if cb == ca:
                continue
            segments.append({
                "sim": key[0],
                "flow": f"{key[1]}->{key[2]}",
                "segment": kind,
                "a_cycles": ca,
                "b_cycles": cb,
                "delta_cycles": cb - ca,
                "share": (cb - ca) / base,
            })
    segments.sort(key=lambda s: -abs(s["delta_cycles"]))

    links: List[Dict[str, Any]] = []
    la, lb = _link_rows(a), _link_rows(b)
    for key in sorted(set(la) & set(lb)):
        link_a, link_b = la[key], lb[key]
        busy_delta = _num(link_b["busy_cycles"]) \
            - _num(link_a["busy_cycles"])
        wait_delta = _num(link_b.get("wait", {}).get("mean")) \
            - _num(link_a.get("wait", {}).get("mean"))
        stall_delta = _num(link_b.get("stalls", 0)) \
            - _num(link_a.get("stalls", 0))
        if not (busy_delta or wait_delta or stall_delta):
            continue
        links.append({
            "sim": key[0],
            "link": key[1],
            "busy_delta": busy_delta,
            "busy_rel": (busy_delta / link_a["busy_cycles"]
                         if link_a["busy_cycles"] else None),
            "wait_mean_delta": wait_delta,
            "stalls_delta": stall_delta,
        })
    links.sort(key=lambda l: -abs(l["busy_delta"]))
    return {"segments": segments, "links": links}


#: extracts the ``src->dst`` flow out of a dotted metric path
_FLOW_RE = re.compile(r"\.flow\.([^.]+)\.")


def _attribution_summary(attribution: Dict[str, Any],
                         top: int = 3,
                         flow: Optional[str] = None) -> str:
    """One human line: the top segment and link contributors.

    For a per-flow metric, ``flow`` narrows the segment contributors
    to that flow's own journey — the answer to "where did *this*
    flow's regression come from", not a repeat of the global picture.
    """
    segments = attribution["segments"]
    if flow is not None:
        own = [s for s in segments if s["flow"] == flow]
        if own:
            segments = own
    parts = []
    for seg in segments[:top]:
        parts.append(f"{seg['share']:+.0%} {seg['segment']} "
                     f"({seg['flow']})")
    for link in attribution["links"][:top]:
        if link["busy_rel"] is not None:
            parts.append(f"link {link['link']} busy "
                         f"{link['busy_rel']:+.0%}")
        else:
            parts.append(f"link {link['link']} busy "
                         f"{link['busy_delta']:+.0f} cycles")
    return "; ".join(parts) if parts else "no attribution overlap"


# ----------------------------------------------------------------------
# the diff document
# ----------------------------------------------------------------------
def _side(doc: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "run_id": run_id_of(doc),
        "kind": doc.get("kind"),
        "name": doc.get("name"),
        "seed": doc.get("seed"),
        "config_hash": doc.get("config_hash"),
        "versions": doc.get("versions"),
    }


def diff_runs(a: Dict[str, Any], b: Dict[str, Any],
              budgets: Optional[List[Budget]] = None
              ) -> Dict[str, Any]:
    """The ``repro.diff/1`` document comparing two run records."""
    for side, doc in (("a", a), ("b", b)):
        try:
            validate_run(doc)
        except ValueError as exc:
            raise LedgerError(f"record {side}: {exc}") from None
    alignment = align(a, b)
    if budgets is None:
        budgets = DEFAULT_BUDGETS[alignment["mode"]]
    rows = compare_metrics(a, b, budgets)
    significant = [r for r in rows if r["significant"]]
    regressions = [r for r in significant if r["regression"]]
    doc: Dict[str, Any] = {
        "schema": DIFF_SCHEMA,
        "a": _side(a),
        "b": _side(b),
        "alignment": alignment,
        "compared": len(set(flatten_metrics(a))
                        & set(flatten_metrics(b))),
        "deltas": rows[:500],
        "significant": len(significant),
        "regressions": [r["metric"] for r in regressions],
    }
    latency_regressions = [
        r for r in regressions
        if "latency" in r["metric"] or "wait" in r["metric"]
        or "quiesce" in r["metric"]
    ]
    if latency_regressions:
        attribution = attribute_latency(a, b)
        doc["attribution"] = attribution
        summary: Dict[str, str] = {}
        for r in latency_regressions:
            m = _FLOW_RE.search(r["metric"])
            prefix = (f"{r['metric'].rsplit('.', 1)[-1]} "
                      f"{r['rel']:+.0%}: "
                      if r["rel"] is not None else "")
            summary[r["metric"]] = prefix + _attribution_summary(
                attribution, flow=m.group(1) if m else None)
        doc["attribution_summary"] = summary
    return doc


def render_diff(doc: Dict[str, Any], top: int = 20) -> str:
    """Terminal rendering of a diff document."""
    a, b = doc["a"], doc["b"]
    lines = [
        f"diff         : {a['run_id']} -> {b['run_id']}",
        f"a            : [{a['kind']}] {a['name']} seed={a['seed']}",
        f"b            : [{b['kind']}] {b['name']} seed={b['seed']}",
        f"alignment    : {doc['alignment']['mode']}",
    ]
    for note in doc["alignment"]["notes"]:
        lines.append(f"               {note}")
    lines.append(f"metrics      : {doc['compared']} compared, "
                 f"{len(doc['deltas'])} changed, "
                 f"{doc['significant']} significant, "
                 f"{len(doc['regressions'])} regression(s)")
    shown = sorted(doc["deltas"],
                   key=lambda r: (not r["significant"],
                                  -abs(r["delta"])))[:top]
    if shown:
        lines.append("")
        lines.append(f"{'metric':<52}{'a':>12}{'b':>12}{'delta':>12}  "
                     f"flag")
        for r in shown:
            flag = ("REGRESSION" if r["regression"]
                    else "significant" if r["significant"] else "")
            lines.append(f"{r['metric'][:52]:<52}{r['a']:>12.4g}"
                         f"{r['b']:>12.4g}{r['delta']:>+12.4g}  {flag}")
    summaries = list(doc.get("attribution_summary", {}).items())
    for metric, summary in summaries[:8]:
        lines.append("")
        lines.append(f"attribution  : {metric}")
        lines.append(f"               {summary}")
    if len(summaries) > 8:
        lines.append(f"               ... {len(summaries) - 8} more "
                     f"attributed metric(s); see --json")
    if not doc["regressions"]:
        lines.append("")
        lines.append("verdict      : no significant regressions")
    else:
        lines.append("")
        lines.append(f"verdict      : "
                     f"{len(doc['regressions'])} REGRESSION(S): "
                     + ", ".join(doc["regressions"][:8]))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the regression gate
# ----------------------------------------------------------------------
#: budgets for baseline gating: the simulator is deterministic, so the
#: paper-table stats get tight bounds (latency may drift 5% before the
#: gate trips; deliveries must not drop at all); wall-clock and
#: kernel internals are not gated here
REGRESS_BUDGETS: List[Budget] = [
    Budget("stats.per_seed.*", rel=0.05, abs=2.0),
    Budget("stats.mean_latency", rel=0.05, abs=1.0),
    Budget("stats.*latency*", rel=0.10, abs=2.0),
    Budget("stats.delivered_total"),
    Budget("stats.sent"),
    Budget("seed_stats.*latency*", rel=0.10, abs=2.0),
    Budget("seed_stats.*", rel=0.05, abs=1.0),
    Budget("kernel.*", ignore=True),
    Budget("*", rel=0.10, abs=2.0),
]


@dataclass
class RegressReport:
    """Outcome of one ``repro regress`` invocation."""

    baseline_dir: str
    checked: int = 0
    regressions: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    diffs: List[Dict[str, Any]] = field(default_factory=list)
    written: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """The contract CI gates on: 0 clean, 1 regression, 2 error."""
        if self.errors:
            return 2
        if self.regressions:
            return 1
        return 0

    def render(self) -> str:
        lines = [f"baseline     : {self.baseline_dir} "
                 f"({self.checked} configuration(s) checked)"]
        for d in self.diffs:
            b = d["b"]
            verdict = ("CLEAN" if not d["regressions"]
                       else f"{len(d['regressions'])} REGRESSION(S)")
            lines.append(f"  [{b['kind']}] {b['name']} "
                         f"seed(s)={b['seed'] if b['seed'] is not None else 'fleet'}: "
                         f"{d['significant']} significant of "
                         f"{d['compared']} -> {verdict}")
            for metric in d["regressions"]:
                lines.append(f"      {metric}")
            for metric, summary in d.get("attribution_summary",
                                         {}).items():
                lines.append(f"      {metric}: {summary}")
        for err in self.errors:
            lines.append(f"  ERROR: {err}")
        if self.written:
            lines.append(f"wrote baseline record(s): "
                         + ", ".join(self.written))
        lines.append(f"verdict      : exit {self.exit_code} "
                     + {0: "(clean)", 1: "(regression)",
                        2: "(error)"}[self.exit_code])
        return "\n".join(lines)


def _rebuild_fleet(record: Dict[str, Any]) -> Optional[str]:
    """Re-run the fleet configuration a baseline record describes;
    returns the fresh record's run id (None when the ledger is off)."""
    from repro.analysis.batch import run_seed_fleet

    config = dict(record.get("config") or {})
    seeds = config.pop("seeds", None)
    if not seeds:
        raise LedgerError(f"baseline fleet record for "
                          f"{record.get('name')!r} lists no seeds")
    fleet = run_seed_fleet(record["name"], seeds, **config)
    return fleet.run_id


def regress(baseline_dir: str,
            budgets: Optional[List[Budget]] = None,
            names: Optional[Iterable[str]] = None,
            write_baseline: bool = False) -> RegressReport:
    """Compare fresh runs against a checked-in baseline ledger.

    Every ``fleet`` record in ``baseline_dir`` names a configuration
    (architecture, workload, seeds); each is re-run fresh and
    diffed against its baseline with :data:`REGRESS_BUDGETS`.  With
    ``write_baseline=True`` the fresh records replace the baseline
    instead of being gated (use after an intentional change).
    """
    from repro.obs.ledger import ledger_enabled

    report = RegressReport(baseline_dir=baseline_dir)
    if budgets is None:
        budgets = REGRESS_BUDGETS
    if not ledger_enabled():
        report.errors.append("the run ledger is disabled "
                             "(REPRO_LEDGER=0); regress needs fresh "
                             "records to compare")
        return report
    baseline = RunLedger(baseline_dir)
    records = []
    try:
        for rid in baseline.ids():
            rec = baseline.load(rid)
            if rec.get("kind") != "fleet":
                continue
            if names and rec.get("name") not in set(names):
                continue
            validate_run(rec)
            records.append((rid, rec))
    except (LedgerError, ValueError) as exc:
        report.errors.append(str(exc))
        return report
    if not records:
        report.errors.append(
            f"no baseline fleet records in {baseline.runs_dir} "
            f"(populate with --write-baseline)")
        return report

    fresh_ledger = RunLedger()
    for rid, rec in records:
        try:
            fresh_id = _rebuild_fleet(rec)
            if fresh_id is None:
                raise LedgerError("fleet run produced no ledger record")
            fresh = fresh_ledger.load(fresh_id)
            validate_run(fresh)
        except (LedgerError, ValueError, KeyError) as exc:
            report.errors.append(f"{rec.get('name')}: {exc}")
            continue
        report.checked += 1
        if write_baseline:
            os.makedirs(baseline.runs_dir, exist_ok=True)
            try:
                os.unlink(baseline.path_for(rid))
            except OSError:
                pass
            report.written.append(baseline.store(fresh))
            continue
        d = diff_runs(rec, fresh, budgets=budgets)
        report.diffs.append(d)
        report.regressions.extend(
            f"{rec.get('name')}: {metric}"
            for metric in d["regressions"])
    return report


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def load_record(ref: str, ledger: Optional[RunLedger] = None
                ) -> Dict[str, Any]:
    """A run record from a path (``*.json`` file) or a ledger run-id
    prefix."""
    if os.path.sep in ref or ref.endswith(".json") \
            or os.path.isfile(ref):
        with open(ref, encoding="utf-8") as fh:
            return json.load(fh)
    ledger = ledger or RunLedger()
    return ledger.load(ledger.resolve(ref))

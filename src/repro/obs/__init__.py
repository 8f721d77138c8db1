"""Observability layer: spans, kernel self-metrics, exporters, profiling.

This package unifies the kernel's measurement probes
(:mod:`repro.sim.stats`), the protocol event/span tracer
(:mod:`repro.sim.trace`) and the scheduler's own metrics
(:class:`~repro.sim.engine.KernelMetrics`) behind exporters and a
capture harness:

* :mod:`repro.obs.perfetto` — Chrome trace-event / Perfetto JSON;
* :mod:`repro.obs.prom` — Prometheus exposition text + JSON snapshots;
* :mod:`repro.obs.profile` — the opt-in wall-clock profiler
  (a :class:`Profiler` attached as ``sim.profiler``);
* :mod:`repro.obs.session` — :class:`ObservationSession`, which hooks
  simulator construction so whole experiment harnesses can be traced
  or profiled without plumbing (the ``repro trace`` / ``repro
  profile`` CLI);
* :mod:`repro.obs.flows` — per-flow/per-link fabric telemetry with
  bounded memory (:class:`FlowTelemetry`);
* :mod:`repro.obs.alerts` — declarative SLO rules over telemetry
  (:class:`AlertEngine`), emitted into traces and Prometheus;
* :mod:`repro.obs.watch` — the live ``repro watch`` dashboard and its
  CI snapshot schema;
* :mod:`repro.obs.journey` — per-message journey records with
  hop-level latency attribution (``repro explain``, sampled via a
  deterministic seed, exported under ``repro.journey/1``);
* :mod:`repro.obs.ledger` — the persistent run ledger: every
  experiment/sweep/chaos run leaves a content-addressed
  ``repro.run/1`` record in a prefix-sharded store (``repro runs``);
* :mod:`repro.obs.diff` — cross-run differential analysis with
  noise-aware significance and latency attribution (``repro diff``)
  plus the baseline regression gate (``repro regress``).

Everything the exporters emit except profiler wall time is
simulation-derived and deterministic; see ``docs/observability.md``.
"""

from repro.sim.engine import WAKE_REASONS, KernelMetrics
from repro.sim.stats import Counter, Histogram, StatsRegistry, \
    StreamingHistogram, TimeSeries
from repro.sim.trace import SpanEvent, TraceEvent, Tracer

from repro.obs.alerts import Alert, AlertEngine, AlertRule, default_rules
from repro.obs.diff import (
    DIFF_SCHEMA,
    Budget,
    diff_runs,
    regress,
    render_diff,
    within_noise,
)
from repro.obs.flows import (
    FlowStats,
    FlowTelemetry,
    LinkStats,
    merge_snapshots,
)
from repro.obs.journey import (
    JOURNEY_SCHEMA,
    JourneyRecord,
    JourneyRecorder,
    aggregate_flows,
    build_journey_document,
    explain_experiment,
    render_explain,
    validate_journey,
)
from repro.obs.ledger import (
    RUN_SCHEMA,
    RunLedger,
    build_run_record,
    ledgered_call,
    render_run,
    validate_run,
)
from repro.obs.perfetto import (
    summarize_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.profile import Profiler
from repro.obs.prom import (
    sanitize_metric_name,
    to_json_snapshot,
    to_prometheus_text,
    validate_exposition,
)
from repro.obs.session import ObservationSession, observe_named
from repro.obs.watch import (
    SNAPSHOT_SCHEMA,
    collect_snapshot,
    render_dashboard,
    validate_snapshot,
    watch_experiment,
)

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertRule",
    "Budget",
    "Counter",
    "DIFF_SCHEMA",
    "FlowStats",
    "FlowTelemetry",
    "Histogram",
    "JOURNEY_SCHEMA",
    "JourneyRecord",
    "JourneyRecorder",
    "KernelMetrics",
    "LinkStats",
    "ObservationSession",
    "Profiler",
    "RUN_SCHEMA",
    "RunLedger",
    "SNAPSHOT_SCHEMA",
    "SpanEvent",
    "StatsRegistry",
    "StreamingHistogram",
    "TimeSeries",
    "TraceEvent",
    "Tracer",
    "WAKE_REASONS",
    "aggregate_flows",
    "build_journey_document",
    "build_run_record",
    "collect_snapshot",
    "default_rules",
    "diff_runs",
    "explain_experiment",
    "ledgered_call",
    "merge_snapshots",
    "observe_named",
    "regress",
    "render_diff",
    "render_explain",
    "render_run",
    "validate_journey",
    "validate_run",
    "within_noise",
    "render_dashboard",
    "sanitize_metric_name",
    "summarize_trace",
    "to_chrome_trace",
    "to_json_snapshot",
    "to_prometheus_text",
    "validate_exposition",
    "validate_snapshot",
    "watch_experiment",
    "write_chrome_trace",
]

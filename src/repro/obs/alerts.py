"""Declarative SLO rules over fabric telemetry.

An :class:`AlertRule` names a metric selector over a
:class:`~repro.obs.flows.FlowTelemetry` snapshot and one of three
evaluation kinds:

``threshold``
    Fire when the metric first exceeds ``threshold`` (edge-triggered:
    one alert per excursion above the threshold).
``sustained``
    Fire when the metric stays above ``threshold`` for at least
    ``for_cycles`` consecutive evaluation cycles (one alert per
    sustained episode).
``burn_rate``
    For ``counter:<name>`` metrics: fire when the counter grew by more
    than ``threshold`` within the trailing ``window`` cycles (one
    alert per storm).

Metric selectors:

=====================  ==================================================
``flow_p99_latency``   max over flows of latency p99 (cycles)
``flow_p50_latency``   max over flows of latency p50 (cycles)
``flow_jitter_p99``    max over flows of jitter p99 (cycles)
``link_utilization``   max over links of recent-window utilization [0,1]
``queue_depth``        max over links of the queue-depth watermark
``queue_current``      max over links of the *instantaneous* queue depth
``backpressure_p99``   max over links of sender-wait p99 (cycles)
``quiesce_max``        longest reconfiguration quiesce seen (cycles)
``fault_mttr_max``     longest fault recovery (injection->recovered)
``gauge:<name>``       a telemetry gauge's latest value
``counter:<name>``     a telemetry counter's running total
=====================  ==================================================

Rules run on the collector's fixed evaluation grid (the multiples of
:attr:`FlowTelemetry.eval_interval`, see :mod:`repro.obs.flows`),
armed by telemetry activity, so a quiescent fabric costs nothing and
the kernel's fast-forward is preserved.  Fired alerts are kept on the
engine, emitted as span events (source ``"alerts"``) into an attached
tracer — so they land on the Perfetto timeline — and exported as
``repro_alert_*`` series by :mod:`repro.obs.prom`.

Every fired episode also gets an explicit edge-down **clear** event
when its metric drops back under the threshold (``Alert.event ==
"clear"``, kept on :attr:`AlertEngine.clears`), so consumers — the
``repro watch`` feed and the :mod:`repro.control` control plane — can
distinguish "resolved" from "still burning".  Subscribers registered
with :meth:`AlertEngine.subscribe` see both edges as ``listener(event,
alert)`` callbacks, and per-rule SLO burn (breach cycles of fired
episodes) is accounted in :meth:`AlertEngine.burn_cycles`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Tuple)

KINDS = ("threshold", "sustained", "burn_rate")

SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class AlertRule:
    """One declarative SLO rule (see module docstring for semantics)."""

    name: str
    metric: str
    threshold: float
    kind: str = "threshold"
    #: sustained: how long the breach must hold before firing
    for_cycles: int = 0
    #: burn_rate: trailing window the counter delta is measured over
    window: int = 1024
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {KINDS})"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"rule {self.name!r}: unknown severity {self.severity!r}"
            )
        if self.kind == "sustained" and self.for_cycles <= 0:
            raise ValueError(
                f"rule {self.name!r}: sustained rules need for_cycles > 0"
            )
        if self.kind == "burn_rate":
            if not self.metric.startswith("counter:"):
                raise ValueError(
                    f"rule {self.name!r}: burn_rate rules need a "
                    f"'counter:<name>' metric, got {self.metric!r}"
                )
            if self.window <= 0:
                raise ValueError(
                    f"rule {self.name!r}: burn_rate rules need window > 0"
                )


@dataclass
class Alert:
    """One fired rule instance."""

    rule: str
    metric: str
    cycle: int
    value: float
    threshold: float
    severity: str
    kind: str
    #: cycle the breach began (== cycle for plain threshold rules)
    since: int = -1
    message: str = ""
    #: the argmax entity behind the metric value — a link name, a
    #: "src->dst" flow, or a counter/gauge key ("" when the metric has
    #: no natural subject, e.g. quiesce_max)
    subject: str = ""
    #: "fire" on edge-up, "clear" on edge-down of a fired episode
    event: str = "fire"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "metric": self.metric,
            "cycle": self.cycle,
            "since": self.since,
            "value": self.value,
            "threshold": self.threshold,
            "severity": self.severity,
            "kind": self.kind,
            "message": self.message,
            "subject": self.subject,
            "event": self.event,
        }


def default_rules(
    flow_p99_cycles: float = 2_000,
    flow_p99_for: int = 2_048,
    link_utilization: float = 0.95,
    link_utilization_for: int = 2_048,
    slot_overruns: float = 8,
    detours: float = 16,
    storm_window: int = 1_024,
    quiesce_budget_cycles: float = 10_000,
    fault_storm: float = 4,
    mttr_budget_cycles: float = 20_000,
    undelivered: float = 0,
) -> List[AlertRule]:
    """The canonical rule set the watch dashboard ships with.

    Covers the five phenomena the ISSUE calls out: flow-latency SLO
    breaches, link saturation, TDMA slot overruns (BUS-COM), DyNoC
    detour storms, and reconfiguration quiesce overruns — plus the
    resilience SLOs the chaos harness watches: fault storms, recovery
    time (MTTR) over budget, and traffic left undelivered after every
    fault in a schedule recovered.
    """
    return [
        AlertRule("flow-latency-p99", "flow_p99_latency",
                  flow_p99_cycles, kind="sustained",
                  for_cycles=flow_p99_for, severity="critical",
                  description="p99 flow latency above SLO, sustained"),
        AlertRule("link-saturation", "link_utilization",
                  link_utilization, kind="sustained",
                  for_cycles=link_utilization_for,
                  description="link utilization above 95%, sustained"),
        AlertRule("tdma-slot-overrun", "counter:buscom.slot_overrun",
                  slot_overruns, kind="burn_rate", window=storm_window,
                  description="BUS-COM dynamic slots starved while "
                              "traffic queued"),
        AlertRule("detour-storm", "counter:dynoc.detour",
                  detours, kind="burn_rate", window=storm_window,
                  description="DyNoC routers entering detour mode "
                              "faster than the obstacle churn explains"),
        AlertRule("quiesce-budget", "quiesce_max",
                  quiesce_budget_cycles, severity="critical",
                  description="a reconfiguration quiesce exceeded its "
                              "cycle budget"),
        AlertRule("fault-storm", "counter:fault.injected",
                  fault_storm, kind="burn_rate", window=storm_window,
                  description="faults injected faster than the chaos "
                              "schedule's steady state"),
        AlertRule("mttr-budget", "fault_mttr_max",
                  mttr_budget_cycles, severity="critical",
                  description="a fault recovery (detect + reroute/"
                              "reconfigure) exceeded its cycle budget"),
        AlertRule("undelivered-traffic", "gauge:fault.undelivered",
                  undelivered, kind="sustained", for_cycles=2_048,
                  severity="critical",
                  description="messages still undelivered well after "
                              "recovery — resilience SLO broken"),
    ]


class AlertEngine:
    """Evaluates :class:`AlertRule`\\ s against telemetry snapshots."""

    def __init__(self, rules: Optional[Iterable[AlertRule]] = None,
                 max_alerts: int = 1_000, cooldown: int = 0):
        self.rules: List[AlertRule] = list(
            default_rules() if rules is None else rules
        )
        seen = set()
        for rule in self.rules:
            if rule.name in seen:
                raise ValueError(f"duplicate rule name {rule.name!r}")
            seen.add(rule.name)
        self.max_alerts = max_alerts
        #: suppress a refire of the same rule within this many cycles
        #: of its previous fire (0 = every episode fires, the
        #: pre-cooldown behaviour); suppressed fires are counted in
        #: :attr:`deduped` so flap storms stay visible as a number
        #: instead of a feed full of identical lines
        self.cooldown = cooldown
        self.alerts: List[Alert] = []
        #: explicit edge-down events for fired episodes (see clears())
        self.clears: List[Alert] = []
        self.dropped = 0
        self.deduped = 0
        self.evaluations = 0
        #: rule name -> cycle the current breach episode began
        self._breach_since: Dict[str, int] = {}
        #: rule names that already fired during the current episode
        self._fired_episode: set = set()
        #: rule name -> (cycle, counter value) ring for burn rates
        self._rate_state: Dict[str, Deque[Tuple[int, float]]] = {}
        self.fired_counts: Dict[str, int] = {}
        self.last_fired: Dict[str, int] = {}
        self.cleared_counts: Dict[str, int] = {}
        self.last_cleared: Dict[str, int] = {}
        self.deduped_counts: Dict[str, int] = {}
        #: rule name -> breach cycles accumulated by *closed* fired
        #: episodes (open episodes are added by burn_cycles())
        self._burn: Dict[str, int] = {}
        self._listeners: List[Callable[[str, Alert], None]] = []

    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[[str, Alert], None]) -> None:
        """Register ``listener(event, alert)`` for ``"fire"``/``"clear"``
        edges.

        Listeners run inside the evaluation pass, in subscription
        order — this is how the control plane closes the loop without
        any eager per-cycle walk.  Cooldown-deduped refires are *not*
        delivered: the episode is still burning and the listener
        already saw its edge-up.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    @staticmethod
    def _argmax(pairs: List[Tuple[float, str]],
                ) -> Tuple[Optional[float], str]:
        """(max value, subject) — ties pick the lexically first subject."""
        if not pairs:
            return None, ""
        value = max(v for v, _ in pairs)
        subject = min(s for v, s in pairs if v == value)
        return value, subject

    def _metric(self, rule: AlertRule, tel,
                now: int) -> Tuple[Optional[float], str]:
        """The rule's current metric value and its argmax subject."""
        metric = rule.metric
        if metric.startswith("counter:"):
            key = metric[len("counter:"):]
            return float(tel.counters.get(key, 0)), key
        if metric == "flow_p99_latency":
            return self._argmax(
                [(f.latency.percentile(99), f"{f.src}->{f.dst}")
                 for f in tel.flows.values() if f.latency.count])
        if metric == "flow_p50_latency":
            return self._argmax(
                [(f.latency.percentile(50), f"{f.src}->{f.dst}")
                 for f in tel.flows.values() if f.latency.count])
        if metric == "flow_jitter_p99":
            return self._argmax(
                [(f.jitter.percentile(99), f"{f.src}->{f.dst}")
                 for f in tel.flows.values() if f.jitter.count])
        if metric == "link_utilization":
            return self._argmax(
                [(ls.utilization(now), name)
                 for name, ls in tel.links.items()])
        if metric == "queue_depth":
            return self._argmax(
                [(float(ls.queue_watermark), name)
                 for name, ls in tel.links.items()])
        if metric == "queue_current":
            return self._argmax(
                [(float(ls.queue_depth), name)
                 for name, ls in tel.links.items()])
        if metric == "backpressure_p99":
            return self._argmax(
                [(ls.wait.percentile(99), name)
                 for name, ls in tel.links.items() if ls.wait.count])
        if metric == "quiesce_max":
            return (tel.quiesce.max if tel.quiesce.count else None), ""
        if metric == "fault_mttr_max":
            return (tel.mttr.max if tel.mttr.count else None), ""
        if metric.startswith("gauge:"):
            key = metric[len("gauge:"):]
            return tel.gauges.get(key), key
        raise ValueError(f"rule {rule.name!r}: unknown metric {metric!r}")

    def _metric_value(self, rule: AlertRule, tel,
                      now: int) -> Optional[float]:
        return self._metric(rule, tel, now)[0]

    # ------------------------------------------------------------------
    def evaluate(self, tel, now: int) -> List[Alert]:
        """Evaluate every rule; returns alerts fired by this call.

        Edge-down ``clear`` events for previously fired episodes are
        recorded on :attr:`clears` (and delivered to subscribers) but
        are *not* part of the return value, which keeps the historical
        "fired alerts only" contract.
        """
        self.evaluations += 1
        fired: List[Alert] = []
        for rule in self.rules:
            value, subject = self._metric(rule, tel, now)
            if value is None:
                continue
            if rule.kind == "burn_rate":
                alert = self._eval_burn_rate(rule, value, now)
            elif rule.kind == "sustained":
                alert = self._eval_sustained(rule, value, now)
            else:
                alert = self._eval_threshold(rule, value, now)
            if alert is None:
                continue
            alert.subject = subject
            if alert.event == "clear":
                self._record_clear(alert, tel)
                continue
            last = self.last_fired.get(rule.name)
            if (self.cooldown and last is not None
                    and alert.cycle - last < self.cooldown):
                # flap dedupe: the episode state machine already
                # re-armed, but an identical alert this soon after the
                # previous fire is feed spam, not new signal
                self.deduped += 1
                self.deduped_counts[rule.name] = (
                    self.deduped_counts.get(rule.name, 0) + 1
                )
                continue
            fired.append(alert)
            self._record(alert, tel)
        return fired

    def _eval_threshold(self, rule: AlertRule, value: float,
                        now: int) -> Optional[Alert]:
        if value <= rule.threshold:
            return self._close_episode(rule, value, now)
        since = self._breach_since.setdefault(rule.name, now)
        if rule.name in self._fired_episode:
            return None
        self._fired_episode.add(rule.name)
        return self._alert(rule, value, now, since)

    def _eval_sustained(self, rule: AlertRule, value: float,
                        now: int) -> Optional[Alert]:
        if value <= rule.threshold:
            return self._close_episode(rule, value, now)
        since = self._breach_since.setdefault(rule.name, now)
        if now - since < rule.for_cycles:
            return None
        if rule.name in self._fired_episode:
            return None
        self._fired_episode.add(rule.name)
        return self._alert(rule, value, now, since)

    def _eval_burn_rate(self, rule: AlertRule, total: float,
                        now: int) -> Optional[Alert]:
        ring = self._rate_state.get(rule.name)
        if ring is None:
            # the counter starts from zero: growth before the rule's
            # first evaluation falls in the window that ends there
            ring = self._rate_state[rule.name] = deque(
                [(max(now - rule.window, 0), 0.0)])
        ring.append((now, total))
        horizon = now - rule.window
        while len(ring) > 1 and ring[1][0] <= horizon:
            ring.popleft()
        base_cycle, base_value = ring[0]
        delta = total - base_value
        if delta <= rule.threshold:
            return self._close_episode(rule, delta, now)
        since = self._breach_since.setdefault(rule.name, base_cycle)
        if rule.name in self._fired_episode:
            return None
        self._fired_episode.add(rule.name)
        return self._alert(rule, delta, now, since)

    def _close_episode(self, rule: AlertRule, value: float,
                       now: int) -> Optional[Alert]:
        """Edge-down: end the breach episode; a clear Alert iff it had
        fired."""
        since = self._breach_since.pop(rule.name, -1)
        if rule.name not in self._fired_episode:
            return None
        self._fired_episode.discard(rule.name)
        burned = now - since if since >= 0 else 0
        if burned > 0:
            self._burn[rule.name] = (
                self._burn.get(rule.name, 0) + burned
            )
        msg = (f"{rule.metric} recovered to {value:g} <= "
               f"{rule.threshold:g} after {burned} cycles")
        return Alert(rule=rule.name, metric=rule.metric, cycle=now,
                     value=float(value), threshold=rule.threshold,
                     severity=rule.severity, kind=rule.kind,
                     since=since, message=msg, event="clear")

    # ------------------------------------------------------------------
    def _alert(self, rule: AlertRule, value: float, now: int,
               since: int) -> Alert:
        what = (f"{rule.metric} grew {value:g} in {rule.window} cycles"
                if rule.kind == "burn_rate"
                else f"{rule.metric} = {value:g}")
        msg = (f"{what} > {rule.threshold:g}"
               + (f" since cycle {since}" if since != now else ""))
        return Alert(rule=rule.name, metric=rule.metric, cycle=now,
                     value=float(value), threshold=rule.threshold,
                     severity=rule.severity, kind=rule.kind,
                     since=since, message=msg)

    def _record(self, alert: Alert, tel) -> None:
        if len(self.alerts) >= self.max_alerts:
            self.dropped += 1
        else:
            self.alerts.append(alert)
        self.fired_counts[alert.rule] = (
            self.fired_counts.get(alert.rule, 0) + 1
        )
        self.last_fired[alert.rule] = alert.cycle
        sim = getattr(tel, "sim", None)
        if sim is not None and sim.tracer is not None:
            sim.span_event(
                "alerts", alert.rule,
                begin=alert.since if alert.since >= 0 else alert.cycle,
                end=alert.cycle, value=alert.value,
                threshold=alert.threshold, severity=alert.severity,
                metric=alert.metric, subject=alert.subject,
            )
        for listener in self._listeners:
            listener("fire", alert)

    def _record_clear(self, alert: Alert, tel) -> None:
        if len(self.clears) >= self.max_alerts:
            self.dropped += 1
        else:
            self.clears.append(alert)
        self.cleared_counts[alert.rule] = (
            self.cleared_counts.get(alert.rule, 0) + 1
        )
        self.last_cleared[alert.rule] = alert.cycle
        sim = getattr(tel, "sim", None)
        if sim is not None and sim.tracer is not None:
            sim.span_event(
                "alerts", f"{alert.rule}.clear",
                begin=alert.cycle, end=alert.cycle, value=alert.value,
                threshold=alert.threshold, severity=alert.severity,
                metric=alert.metric, subject=alert.subject,
            )
        for listener in self._listeners:
            listener("clear", alert)

    # ------------------------------------------------------------------
    def rule_named(self, name: str) -> AlertRule:
        """The rule registered under ``name`` (KeyError if absent)."""
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(f"no rule named {name!r}")

    def current_value(self, name: str, tel,
                      now: int) -> Optional[float]:
        """Re-read a rule's metric right now (post-action checks)."""
        return self._metric(self.rule_named(name), tel, now)[0]

    def inject(self, name: str, *, cycle: int, value: float = 0.0,
               threshold: float = 0.0, severity: str = "critical",
               message: str = "", subject: str = "",
               tel=None) -> Alert:
        """Record an externally produced alert (one not driven by a
        registered rule) — e.g. the control plane's
        ``controller-saturated`` signal.  Delivered to subscribers and
        kept on :attr:`alerts` like any rule-driven fire."""
        alert = Alert(rule=name, metric="external", cycle=cycle,
                      value=float(value), threshold=threshold,
                      severity=severity, kind="threshold", since=cycle,
                      message=message, subject=subject)
        self._record(alert, tel)
        return alert

    # ------------------------------------------------------------------
    @property
    def time_driven(self) -> bool:
        """Whether an evaluation with nothing newly recorded could still
        change an open breach episode: a sustained rule counting toward
        ``for_cycles``, a burn-rate window sliding past old growth, or
        a link's utilization decaying.  Every other open episode moves
        only when its metric does, which takes a record call."""
        open_ = self._breach_since
        if not open_:
            return False
        for rule in self.rules:
            if rule.name in open_ and (
                    rule.kind == "burn_rate"
                    or rule.metric == "link_utilization"
                    or (rule.kind == "sustained"
                        and rule.name not in self._fired_episode)):
                return True
        return False

    def active(self, now: int) -> List[str]:
        """Rules currently in a fired, un-cleared breach episode."""
        return sorted(self._fired_episode)

    def burn_cycles(self, now: int) -> Dict[str, int]:
        """Per-rule SLO burn: breach cycles of fired episodes.

        Closed episodes contribute their full breach span (edge-up to
        edge-down); an episode still burning contributes up to ``now``.
        """
        out = dict(self._burn)
        for name in sorted(self._fired_episode):
            since = self._breach_since.get(name)
            if since is not None and now > since:
                out[name] = out.get(name, 0) + (now - since)
        return out

    def total_burn(self, now: int) -> int:
        """Total SLO burn across rules (cycles)."""
        return sum(self.burn_cycles(now).values())

    def episodes(self, now: int) -> List[Dict[str, Any]]:
        """Fired breach episodes, closed and still open.

        The adaptive-vs-static harness reads recovery time (MTTR) off
        this: a closed episode's duration is edge-up to edge-down, an
        open one is censored at ``now``.
        """
        out: List[Dict[str, Any]] = [
            {
                "rule": a.rule,
                "since": a.since,
                "cleared": a.cycle,
                "duration": a.cycle - a.since if a.since >= 0 else 0,
                "open": False,
            }
            for a in self.clears
        ]
        for name in sorted(self._fired_episode):
            since = self._breach_since.get(name)
            if since is None:
                continue
            out.append({"rule": name, "since": since, "cleared": None,
                        "duration": max(0, now - since), "open": True})
        out.sort(key=lambda e: (e["since"], e["rule"]))
        return out

    def snapshot(self, now: int) -> Dict[str, Any]:
        burn = self.burn_cycles(now)
        return {
            "rules": [
                {"name": r.name, "metric": r.metric, "kind": r.kind,
                 "threshold": r.threshold, "severity": r.severity,
                 "fired": self.fired_counts.get(r.name, 0),
                 "last_fired": self.last_fired.get(r.name, -1),
                 "cleared": self.cleared_counts.get(r.name, 0),
                 "last_cleared": self.last_cleared.get(r.name, -1),
                 "deduped": self.deduped_counts.get(r.name, 0),
                 "burn_cycles": burn.get(r.name, 0),
                 "active": r.name in self._fired_episode}
                for r in self.rules
            ],
            "alerts": [a.to_dict() for a in self.alerts],
            "clears": [a.to_dict() for a in self.clears],
            "dropped": self.dropped,
            "deduped": self.deduped,
            "evaluations": self.evaluations,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"AlertEngine(rules={len(self.rules)}, "
                f"fired={len(self.alerts)})")

"""Unit tests for the SLO alert rules and engine."""

import pytest

from repro.obs import AlertEngine, AlertRule, FlowTelemetry, default_rules


def _engine(*rules):
    return AlertEngine(rules=list(rules))


class TestAlertRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            AlertRule("r", "queue_depth", 1, kind="windowed")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            AlertRule("r", "queue_depth", 1, severity="fatal")

    def test_sustained_needs_for_cycles(self):
        with pytest.raises(ValueError, match="for_cycles"):
            AlertRule("r", "queue_depth", 1, kind="sustained")

    def test_burn_rate_needs_counter_metric(self):
        with pytest.raises(ValueError, match="counter:"):
            AlertRule("r", "queue_depth", 1, kind="burn_rate")

    def test_default_rules_cover_issue_phenomena(self):
        rules = {r.name for r in default_rules()}
        assert rules == {"flow-latency-p99", "link-saturation",
                         "tdma-slot-overrun", "detour-storm",
                         "quiesce-budget", "fault-storm",
                         "mttr-budget", "undelivered-traffic"}

    def test_duplicate_rule_names_rejected(self):
        r = AlertRule("same", "queue_depth", 1)
        with pytest.raises(ValueError, match="duplicate"):
            AlertEngine(rules=[r, AlertRule("same", "quiesce_max", 2)])


class TestThresholdRules:
    def test_edge_triggered_once_per_excursion(self):
        eng = _engine(AlertRule("q", "queue_depth", 5))
        tel = FlowTelemetry()
        tel.queue_depth(0, "l", 3)
        assert eng.evaluate(tel, 0) == []
        tel.queue_depth(1, "l", 9)
        (alert,) = eng.evaluate(tel, 1)
        assert alert.rule == "q" and alert.value == 9
        # still breached: no refire (watermark latches, so stays 9)
        assert eng.evaluate(tel, 2) == []

    def test_quiesce_budget_threshold(self):
        eng = _engine(AlertRule("qb", "quiesce_max", 100))
        tel = FlowTelemetry()
        tel.record_quiesce(50, 40)
        assert eng.evaluate(tel, 50) == []
        tel.record_quiesce(60, 500)
        (alert,) = eng.evaluate(tel, 60)
        assert alert.value == 500

    def test_no_data_no_alert(self):
        eng = _engine(AlertRule("p", "flow_p99_latency", 10))
        assert eng.evaluate(FlowTelemetry(), 0) == []

    def test_unknown_metric_raises(self):
        eng = _engine(AlertRule("m", "made_up_metric", 1))
        tel = FlowTelemetry()
        with pytest.raises(ValueError, match="unknown metric"):
            eng.evaluate(tel, 0)


class TestSustainedRules:
    def test_fires_only_after_duration(self):
        eng = _engine(AlertRule("s", "flow_p99_latency", 100,
                                kind="sustained", for_cycles=1000))
        tel = FlowTelemetry()
        tel.record_flow(0, "a", "b", 500)
        assert eng.evaluate(tel, 0) == []       # breach starts
        assert eng.evaluate(tel, 999) == []     # not yet sustained
        (alert,) = eng.evaluate(tel, 1000)
        assert alert.since == 0
        assert eng.evaluate(tel, 2000) == []    # one per episode

    def test_episode_resets_when_cleared(self):
        eng = _engine(AlertRule("s", "link_utilization", 0.9,
                                kind="sustained", for_cycles=10))
        tel = FlowTelemetry(window=100)
        for c in range(0, 100):
            tel.link_busy(c, "l")
        assert eng.evaluate(tel, 50) == []       # breach episode opens
        assert len(eng.evaluate(tel, 70)) == 1   # sustained past for_cycles
        # utilization collapses: breach clears, a new episode can fire
        for c in range(100, 1000, 50):
            tel.link_busy(c, "l")
        assert eng.evaluate(tel, 901) == []
        for c in range(1000, 1100):
            tel.link_busy(c, "l")
        assert eng.evaluate(tel, 1050) == []     # new episode opens
        assert len(eng.evaluate(tel, 1070)) == 1


class TestBurnRateRules:
    def test_fires_on_fast_growth_only(self):
        eng = _engine(AlertRule("b", "counter:evt", 10,
                                kind="burn_rate", window=100))
        tel = FlowTelemetry()
        # slow growth: 1 per 100 cycles
        for c in range(0, 1000, 100):
            tel.count(c, "evt")
            assert eng.evaluate(tel, c) == []
        # storm: 50 events inside one window
        tel.count(1000, "evt", 50)
        (alert,) = eng.evaluate(tel, 1000)
        assert alert.kind == "burn_rate"
        assert alert.value > 10

    def test_first_evaluation_counts_from_zero(self):
        # a storm before the rule's first evaluation still fires: the
        # counter's zero is the base one window back
        eng = _engine(AlertRule("b", "counter:evt", 10,
                                kind="burn_rate", window=100))
        tel = FlowTelemetry()
        tel.count(140, "evt", 50)
        (alert,) = eng.evaluate(tel, 150)
        assert alert.value == 50 and alert.since == 50

    def test_window_slides(self):
        eng = _engine(AlertRule("b", "counter:evt", 5,
                                kind="burn_rate", window=10))
        tel = FlowTelemetry()
        tel.count(0, "evt", 4)
        assert eng.evaluate(tel, 0) == []
        # the old burst left the window; another small one stays quiet
        tel.count(100, "evt", 4)
        assert eng.evaluate(tel, 100) == []


class TestEngineBookkeeping:
    def test_alert_cap_counts_drops(self):
        eng = AlertEngine(rules=[AlertRule("q", "queue_depth", 0)],
                          max_alerts=2)
        tel = FlowTelemetry()
        for i in range(5):
            tel.queue_depth(i, f"l{i}", i + 1)  # rising watermark refires?
            eng._fired_episode.clear()  # force refire to exercise the cap
            eng.evaluate(tel, i)
        assert len(eng.alerts) == 2
        assert eng.dropped == 3

    def test_snapshot_lists_rules_and_alerts(self):
        eng = _engine(AlertRule("q", "queue_depth", 1))
        tel = FlowTelemetry()
        tel.queue_depth(7, "l", 9)
        eng.evaluate(tel, 7)
        snap = eng.snapshot(7)
        (rule,) = snap["rules"]
        assert rule["fired"] == 1 and rule["last_fired"] == 7
        assert rule["active"] is True
        assert snap["alerts"][0]["rule"] == "q"

    def test_alert_becomes_span_event_with_tracer(self):
        from repro.sim import Simulator, Tracer

        sim = Simulator(name="t")
        sim.tracer = Tracer()
        tel = FlowTelemetry().attach(sim)
        tel.engine = _engine(AlertRule("q", "queue_depth", 1,
                                       severity="critical"))
        tel.queue_depth(3, "l", 5)
        tel.evaluate_now(3)
        spans = [sp for sp in sim.tracer.spans if sp.source == "alerts"]
        assert len(spans) == 1
        assert spans[0].kind == "q"
        assert spans[0].data["severity"] == "critical"

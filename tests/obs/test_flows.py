"""Unit tests for the per-flow/per-link telemetry collector."""

import pytest

from repro.obs import FlowTelemetry, merge_snapshots
from repro.obs.flows import FlowStats, LinkStats
from repro.sim import Simulator


class TestFlowStats:
    def test_record_tracks_volume_and_latency(self):
        f = FlowStats("a", "b")
        f.record(10, payload_bytes=64)
        f.record(14, payload_bytes=64)
        assert f.messages == 2
        assert f.bytes == 128
        assert f.latency.count == 2
        assert f.latency.max == 14

    def test_jitter_needs_two_deliveries(self):
        f = FlowStats("a", "b")
        f.record(10)
        assert f.jitter.count == 0
        f.record(16)
        assert f.jitter.count == 1
        assert f.jitter.max == 6

    def test_as_dict_shape(self):
        f = FlowStats("a", "b")
        f.record(5, payload_bytes=8)
        d = f.as_dict()
        assert d["src"] == "a" and d["dst"] == "b"
        assert d["latency"]["count"] == 1
        assert "p99" in d["latency"] and "p99" in d["jitter"]


class TestLinkStats:
    def test_utilization_within_window(self):
        ln = LinkStats("l", window=100)
        for cycle in range(0, 50):
            ln.note_busy(cycle)
        assert ln.utilization(50) == 1.0
        assert ln.busy_cycles == 50

    def test_windows_close_into_bounded_series(self):
        ln = LinkStats("l", window=10, series_len=4)
        for cycle in range(0, 200, 2):  # 50% duty over 20 windows
            ln.note_busy(cycle)
        assert len(ln.series) == 4  # ring bounded
        starts = [s for s, _ in ln.series]
        assert starts == sorted(starts)
        for _, util in ln.series:
            assert util == pytest.approx(0.5)

    def test_queue_watermark_latches_peak(self):
        ln = LinkStats("l")
        ln.note_queue_depth(3)
        ln.note_queue_depth(9)
        ln.note_queue_depth(1)
        assert ln.queue_depth == 1
        assert ln.queue_watermark == 9

    def test_zero_wait_not_a_stall(self):
        ln = LinkStats("l")
        ln.note_wait(5, 0)
        assert ln.stalls == 0
        ln.note_wait(6, 4)
        assert ln.stalls == 1
        assert ln.wait.max == 4

    def test_busy_run_lands_in_the_windows_it_occupies(self):
        ln = LinkStats("l", window=10)
        ln.note_busy(7, 25, first=8)  # cycles 8..32
        assert ln.busy_cycles == 25
        ln.note_busy(45)
        assert list(ln.series) == [(0, 0.2), (10, 1.0), (20, 1.0),
                                   (30, 0.3)]
        # one busy cycle in window 40 plus half of window 30's three
        assert ln.utilization(45) == pytest.approx(0.25)

    def test_taken_back_cycles_leave_every_window(self):
        cut = LinkStats("l", window=10)
        cut.note_busy(7, 25, first=8)
        cut.note_busy(15, -18, first=15)  # the run stops after 14
        whole = LinkStats("l", window=10)
        whole.note_busy(7, 7, first=8)
        for ln in (cut, whole):
            ln.note_busy(45)
        assert cut.series == whole.series
        assert cut.busy_cycles == whole.busy_cycles == 8

    def test_an_empty_busy_run_changes_nothing(self):
        """A zero-cycle run recorded with its first cycle inside a later
        window adds nothing and carries nothing (it raised KeyError)."""
        ls = LinkStats("l", window=32)
        ls.note_busy(0, 0, first=33)
        assert (ls.busy_cycles, ls._win_busy, ls._carry) == (0, 0, {})

    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            LinkStats("l", window=0)


class TestFlowTelemetry:
    def test_attach_sets_simulator_flags(self):
        sim = Simulator(name="t")
        assert sim.telemetry is None and not sim.telemetering
        tel = FlowTelemetry().attach(sim)
        assert sim.telemetry is tel and sim.telemetering
        sim.telemetry = None
        assert not sim.telemetering

    def test_flows_and_links_created_on_demand(self):
        tel = FlowTelemetry()
        tel.record_flow(10, "a", "b", 5)
        tel.link_busy(10, "x", 2)
        tel.backpressure(11, "x", 3)
        tel.queue_depth(12, "y", 7)
        tel.count(13, "evt")
        assert ("a", "b") in tel.flows
        assert set(tel.links) == {"x", "y"}
        assert tel.counters == {"evt": 1}

    def test_telemetry_never_touches_sim_stats(self):
        sim = Simulator(name="t")
        before = sim.stats.snapshot()
        tel = FlowTelemetry().attach(sim)
        tel.record_flow(1, "a", "b", 5)
        tel.link_busy(1, "x")
        tel.record_quiesce(2, 100)
        assert sim.stats.snapshot() == before

    def test_grid_runs_rules_on_interval_multiples(self):
        from repro.obs import AlertEngine

        sim = Simulator(name="t")
        tel = FlowTelemetry(eval_interval=100).attach(sim)
        tel.engine = AlertEngine(rules=[])
        seen = []
        evaluate = tel.engine.evaluate
        tel.engine.evaluate = (
            lambda t, now: seen.append(now) or evaluate(t, now))
        sim.at(30, lambda s: tel.record_flow(s.cycle, "a", "b", 1))
        sim.at(60, lambda s: tel.record_flow(s.cycle, "a", "b", 1))
        sim.at(250, lambda s: tel.record_flow(s.cycle, "a", "b", 1))
        sim.at(260, lambda s: tel.evaluate_now())  # off the grid
        sim.run(2_000)
        # the first record arms the next multiple; the grid re-arms
        # while the interval before recorded something, so one quiet
        # evaluation follows each burst; evaluate_now moves nothing
        assert seen == [100, 200, 260, 300, 400]
        assert tel.engine.evaluations == 5

    def test_grid_runs_while_time_can_move_an_episode(self):
        from repro.obs import AlertEngine, AlertRule

        sim = Simulator(name="t")
        tel = FlowTelemetry(eval_interval=100).attach(sim)
        tel.engine = AlertEngine(rules=[AlertRule(
            "q", "queue_current", 5, kind="sustained", for_cycles=250)])
        sim.at(10, lambda s: tel.queue_depth(s.cycle, "l", 9))
        sim.at(710, lambda s: tel.queue_depth(s.cycle, "l", 0))
        sim.run(2_000)
        # nothing is recorded from cycle 11 to 709, yet the episode
        # opened at 100 fires once it has lasted for_cycles; fired, it
        # can only clear after a record, so the grid stops until 710
        (alert,) = tel.engine.alerts
        assert (alert.since, alert.cycle) == (100, 400)
        (clear,) = tel.engine.clears
        assert clear.cycle == 800
        assert tel.engine.evaluations == 6  # 100..400, 800, 900

    def test_sliding_burn_window_keeps_the_grid_running(self):
        from repro.obs import AlertEngine, AlertRule

        sim = Simulator(name="t")
        tel = FlowTelemetry(eval_interval=100).attach(sim)
        tel.engine = AlertEngine(rules=[AlertRule(
            "storm", "counter:evt", 2, kind="burn_rate", window=300)])
        for at in (10, 20, 30):
            sim.at(at, lambda s: tel.count(s.cycle, "evt"))
        sim.run(2_000)
        # fired at 100; the growth leaves the window at 400 and clears
        (alert,) = tel.engine.alerts
        assert alert.cycle == 100
        (clear,) = tel.engine.clears
        assert clear.cycle == 400
        assert tel.engine.evaluations == 4

    def test_grid_needs_an_engine_and_a_simulator(self):
        from repro.obs import AlertEngine

        sim = Simulator(name="t")
        FlowTelemetry(eval_interval=10).attach(sim).count(0, "evt")
        detached = FlowTelemetry(eval_interval=10)
        detached.engine = AlertEngine(rules=[])
        detached.count(0, "evt")
        sim.run(100)
        assert sim.kmetrics.ff_jumps == 1  # no grid event on the way
        assert detached.engine.evaluations == 0

    def test_snapshot_shape(self):
        tel = FlowTelemetry()
        tel.record_flow(5, "a", "b", 9, payload_bytes=4)
        tel.link_busy(5, "l")
        snap = tel.snapshot(now=5)
        assert snap["cycle"] == 5
        assert len(snap["flows"]) == 1 and len(snap["links"]) == 1
        assert "alerts" not in snap  # no engine attached

    def test_merge_snapshots_totals(self):
        a, b = FlowTelemetry(), FlowTelemetry()
        a.record_flow(1, "a", "b", 2)
        b.record_flow(1, "c", "d", 2)
        b.link_busy(1, "l")
        merged = merge_snapshots([a.snapshot(1), b.snapshot(1)])
        assert merged["total_flows"] == 2
        assert merged["total_links"] == 1
        assert merged["total_alerts"] == 0

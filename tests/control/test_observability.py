"""The control plane's observability surfaces: the watch dashboard's
actions pane, the ``repro_control_*`` Prometheus series, and the
``repro adapt`` / ``repro chaos --adaptive`` CLI paths."""

import json

import pytest

from repro.cli import main
from repro.control import ControlLoop
from repro.control.evaluate import ADAPT_GUARD, ADAPT_HORIZON, \
    _scenario_buscom
from repro.obs import collect_snapshot, render_dashboard, \
    validate_snapshot
from repro.obs.prom import to_prometheus_text
from repro.obs.session import ObservationSession
from repro.sim import Simulator


@pytest.fixture(scope="module")
def adaptive_session():
    session = ObservationSession(trace=False, telemetry=True)
    with session:
        sim = Simulator(name="adaptw")
        arch = _scenario_buscom(sim, 7)
        loop = ControlLoop(arch, guard=ADAPT_GUARD)
        sim.run(ADAPT_HORIZON)
    return session, sim, loop


class TestWatchActionsPane:
    def test_snapshot_carries_versioned_extension(self, adaptive_session):
        session, _sim, loop = adaptive_session
        doc = collect_snapshot(session, "unit")
        assert "actions/1" in doc["extensions"]
        assert doc["actions"]["counts"] == loop.status_counts()
        assert doc["actions"]["observe_only"] is False
        assert validate_snapshot(doc) >= 1

    def test_recent_records_name_their_sim(self, adaptive_session):
        session, sim, _loop = adaptive_session
        doc = collect_snapshot(session, "unit")
        recent = doc["actions"]["recent"]
        assert recent
        assert all(r["sim"] == sim.name for r in recent)
        cycles = [r["cycle"] for r in recent]
        assert cycles == sorted(cycles)

    def test_validate_rejects_pane_without_extension(self,
                                                     adaptive_session):
        session, _sim, _loop = adaptive_session
        doc = collect_snapshot(session, "unit")
        doc["extensions"] = [e for e in doc["extensions"]
                             if e != "actions/1"]
        with pytest.raises(ValueError, match="actions/1"):
            validate_snapshot(doc)

    def test_dashboard_renders_the_pane(self, adaptive_session):
        session, _sim, _loop = adaptive_session
        text = render_dashboard(collect_snapshot(session, "unit"))
        assert "actions:" in text
        assert "confirmed" in text

    def test_controller_free_session_has_no_pane(self):
        session = ObservationSession(trace=False, telemetry=True)
        with session:
            sim = Simulator(name="plain")
            sim.telemetry.record_flow(1, "a", "b", 5, payload_bytes=8)
            sim.run(16)
        doc = collect_snapshot(session, "unit")
        assert "actions" not in doc
        assert validate_snapshot(doc) >= 1


class TestPrometheusControlSeries:
    def test_series_present_with_controller(self, adaptive_session):
        _session, sim, loop = adaptive_session
        text = to_prometheus_text(sim)
        assert "repro_control_actions_total" in text
        for status, count in loop.status_counts().items():
            assert (f'repro_control_actions_total{{status="{status}"}} '
                    f"{count}") in text
        assert "repro_control_observe_only 0" in text
        assert "repro_control_inflight 0" in text
        assert "repro_control_burn_cycles" in text

    def test_series_absent_without_controller(self):
        sim = Simulator(name="nocontrol")
        sim.run(8)
        assert "repro_control_" not in to_prometheus_text(sim)


class TestCLI:
    def test_adapt_json_round_trip(self, monkeypatch, capsys):
        import repro.analysis.chaos as chaos

        monkeypatch.setattr(chaos, "discover_arch_keys",
                            lambda experiment: ["buscom"])
        monkeypatch.setenv("REPRO_LEDGER", "0")
        rc = main(["adapt", "e1", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["improved"] == ["buscom"]

    def test_adapt_renders_table(self, monkeypatch, capsys):
        import repro.analysis.chaos as chaos

        monkeypatch.setattr(chaos, "discover_arch_keys",
                            lambda experiment: ["buscom"])
        monkeypatch.setenv("REPRO_LEDGER", "0")
        rc = main(["adapt", "e1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "adaptive sweep" in out
        assert "buscom" in out

    def test_adapt_unknown_experiment_fails(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        rc = main(["adapt", "nonesuch"])
        assert rc == 2


class TestTracedControlLoop:
    def test_action_events_carry_their_kind(self):
        """``ControlLoop`` traces each action with a ``kind`` field,
        which must land in the event's data rather than collide with
        ``Simulator.emit``'s own ``kind`` argument."""
        from repro.control.evaluate import run_adaptive_pair
        from repro.sim import Tracer
        from repro.sim.engine import set_new_sim_hook

        sims = []

        def trace(sim):
            sim.tracer = Tracer()
            sims.append(sim)

        prev = set_new_sim_hook(trace)
        try:
            pair = run_adaptive_pair("rmboc", seed=7)
        finally:
            set_new_sim_hook(prev)
        actions = pair["adaptive"]["control"]["actions"]
        assert actions
        events = [e for sim in sims for e in sim.tracer.events
                  if e.source == "control"]
        assert ({(e.data["aid"], e.data["kind"]) for e in events}
                == {(a["aid"], a["kind"]) for a in actions})
        # each action's last event names its final status
        last = {e.data["aid"]: e.kind for e in events}
        assert last == {a["aid"]: a["status"] for a in actions}

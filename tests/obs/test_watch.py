"""Watch dashboard: snapshot schema, rendering and the CLI loop."""

import io
import json

import pytest

from repro.cli import main
from repro.obs import (
    SNAPSHOT_SCHEMA,
    FlowTelemetry,
    collect_snapshot,
    render_dashboard,
    validate_snapshot,
    watch_experiment,
)
from repro.obs.session import ObservationSession
from repro.sim import Simulator
from tests.tampering import tampered


def _session_with_traffic():
    session = ObservationSession(trace=False, telemetry=True)
    with session:
        sim = Simulator(name="w")
        tel: FlowTelemetry = sim.telemetry
        tel.record_flow(10, "a", "b", 5, payload_bytes=64)
        tel.record_flow(20, "a", "b", 9, payload_bytes=64)
        tel.link_busy(20, "l0", 3)
        tel.queue_depth(21, "l0", 4)
        sim.run(32)
    return session


class TestCollectSnapshot:
    def test_document_validates(self):
        doc = collect_snapshot(_session_with_traffic(), "unit")
        assert doc["schema"] == SNAPSHOT_SCHEMA
        assert doc["experiment"] == "unit"
        assert doc["done"] is True
        assert validate_snapshot(doc) == 1
        assert doc["total_flows"] == 1
        assert doc["total_links"] == 1

    def test_skips_sims_without_telemetry(self):
        session = _session_with_traffic()
        with session:
            Simulator(name="bare").telemetry = None
        doc = collect_snapshot(session, "unit")
        assert validate_snapshot(doc) == 1


class TestValidateSnapshot:
    def _doc(self):
        return collect_snapshot(_session_with_traffic(), "unit")

    def test_rejects_wrong_schema(self):
        doc = self._doc()
        doc["schema"] = "repro.watch/999"
        with pytest.raises(ValueError, match="schema"):
            validate_snapshot(doc)

    def test_rejects_total_mismatch(self):
        doc = self._doc()
        doc["total_flows"] += 1
        with pytest.raises(ValueError, match="total_flows"):
            validate_snapshot(doc)

    def test_rejects_out_of_range_utilization(self):
        doc = self._doc()
        doc["simulators"][0]["links"][0]["utilization"] = 1.5
        with pytest.raises(ValueError, match="utilization"):
            validate_snapshot(doc)

    def test_rejects_alert_missing_fields(self):
        doc = self._doc()
        doc["alerts"].append({"rule": "r"})
        with pytest.raises(ValueError, match="alert missing"):
            validate_snapshot(doc)

    @pytest.mark.parametrize("path, value, shown", [
        ("", [], "document"),
        ("alerts", 1, "alerts"),
        ("alerts", [1], "alerts[0]"),
        ("simulators", 1, "simulators"),
        ("simulators", [1], "simulators[0]"),
        ("simulators[0].counters", 1, "simulators[0].counters"),
        ("simulators[0].flows", 1, "simulators[0].flows"),
        ("simulators[0].flows[0]", 1, "simulators[0].flows[0]"),
        ("simulators[0].flows[0].latency", 1,
         "simulators[0].flows[0].latency"),
        ("simulators[0].links", 1, "simulators[0].links"),
        ("simulators[0].links[0]", 1, "simulators[0].links[0]"),
    ])
    def test_a_scalar_for_any_object_or_list_names_its_path(
            self, path, value, shown):
        with pytest.raises(ValueError) as info:
            validate_snapshot(tampered(self._doc(), path, value))
        assert str(info.value).startswith(
            f"watch snapshot: {shown} is not ")


class TestRenderDashboard:
    def test_shows_flows_links_and_quiet_footer(self):
        doc = collect_snapshot(_session_with_traffic(), "unit")
        text = render_dashboard(doc)
        assert "repro watch — unit" in text
        assert "w:a->b" in text
        assert "w:l0" in text
        assert "no alerts fired" in text

    def test_truncates_to_max_rows(self):
        session = ObservationSession(trace=False, telemetry=True)
        with session:
            sim = Simulator(name="w")
            for i in range(6):
                sim.telemetry.record_flow(1, f"s{i}", "d", i + 1)
        text = render_dashboard(collect_snapshot(session, "u"), max_rows=2)
        assert "... 4 more flows" in text

    def test_lists_fired_alerts(self):
        doc = collect_snapshot(_session_with_traffic(), "unit")
        doc["alerts"] = [{"rule": "r", "cycle": 7, "severity": "warning",
                          "message": "m"}]
        doc["total_alerts"] = 1
        text = render_dashboard(doc)
        assert "! cycle" in text and "[warning] r: m" in text
        assert "no alerts fired" not in text


class TestWatchExperiment:
    def test_once_mode_emits_one_valid_json_document(self):
        buf = io.StringIO()
        result, doc = watch_experiment("e1", once=True, json_out=True,
                                       stream=buf)
        assert result is not None
        assert validate_snapshot(doc) >= 1
        parsed = json.loads(buf.getvalue())
        assert parsed["schema"] == SNAPSHOT_SCHEMA
        assert parsed["done"] is True
        assert parsed["total_flows"] >= 1

    def test_live_mode_final_snapshot_matches_once(self):
        buf = io.StringIO()
        _, doc = watch_experiment("e1", interval=0.01, stream=buf,
                                  clear=False)
        assert validate_snapshot(doc) >= 1
        assert doc["done"] is True
        assert "repro watch — e1" in buf.getvalue()

    def test_unknown_experiment_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            watch_experiment("zz", once=True, stream=io.StringIO())


class TestWatchCli:
    def test_once_json_exit_zero(self, capsys):
        rc = main(["watch", "e1", "--once", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_snapshot(doc) >= 1

    def test_once_dashboard(self, capsys):
        rc = main(["watch", "e1", "--once", "--rows", "3"])
        assert rc == 0
        assert "repro watch — e1" in capsys.readouterr().out

    def test_unknown_experiment_exit_two(self, capsys):
        assert main(["watch", "zz", "--once"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestProgressCallback:
    def test_run_jobs_accepts_callable_progress(self):
        from repro.analysis.parallel import Job, run_jobs

        notes = []
        run_jobs([Job("e1")], max_workers=0, use_cache=False,
                 progress=notes.append)
        assert notes and all(isinstance(n, str) for n in notes)
        assert any("e1" in n for n in notes)

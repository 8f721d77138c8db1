"""repro regress: baseline gating with the 0/1/2 exit-code contract.

Exit 0 — every fresh run within budget of its baseline record;
exit 1 — at least one budgeted metric regressed;
exit 2 — the gate itself could not run (no baseline, ledger off...).
"""

import copy
import json
import os

import pytest

from repro.analysis.batch import run_seed_fleet
from repro.cli import main
from repro.obs.diff import REGRESS_BUDGETS, Budget, regress
from repro.obs.ledger import RunLedger, run_id_of
from tests.tampering import DROP, tampered

#: tiny fleet configuration; regress re-simulates it per check, so
#: keep it just big enough to produce nonzero latencies
WORKLOAD = dict(cycles=2_000, bursts=2, burst_size=8, burst_gap=700,
                payloads=(64,))

#: the checked-in baseline: two fleet records written with
#: ``engine: "vec"``, before the engine name was retired
CHECKED_IN = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                          "regress-baseline")


#: records that validated before the run schema typed the fields its
#: readers use, and made ``repro runs show`` or ``repro diff`` crash:
#: (record, path, value, the path the error names)
TAMPERED = [
    ("checked-in", "seed_stats", [1], "seed_stats"),
    ("checked-in", "versions.git", 5, "versions.git"),
    ("checked-in", "seed_stats['mean_latency'].std", "x",
     "seed_stats['mean_latency'].std"),
    ("e1", "telemetry[0].flows_omitted", DROP,
     "telemetry[0] missing 'flows_omitted'"),
    ("e1", "journeys.coverage", "x", "journeys.coverage"),
    ("e1", "resilience", [1], "resilience"),
    ("e1", "journeys.simulators[0].flows[0].latency", "x",
     "journeys.simulators[0].flows[0].latency"),
]
TAMPERED_IDS = ["seed-stats-list", "git-int", "std-string",
                "flows-omitted-dropped", "coverage-string",
                "resilience-list", "journey-latency-string"]


def _record(which, capsys):
    """The checked-in buscom fleet record, or a fresh ledgered
    ``repro experiment e1`` record."""
    if which == "checked-in":
        return RunLedger(CHECKED_IN).load("92f51468e74f1373")
    assert main(["experiment", "e1", "--no-cache"]) == 0
    capsys.readouterr()
    ledger = RunLedger()
    [rid] = ledger.ids()
    return ledger.load(rid)


@pytest.fixture
def baseline(tmp_path):
    """A baseline ledger holding one real buscom fleet record."""
    fleet = run_seed_fleet("buscom", [0, 1], **WORKLOAD)
    record = RunLedger().load(fleet.run_id)
    store = RunLedger(str(tmp_path / "baseline"))
    store.store(record)
    return store


def test_clean_rerun_exits_zero(baseline):
    report = regress(baseline.root)
    assert report.errors == [] and report.regressions == []
    assert report.checked == 1
    assert report.exit_code == 0
    assert "CLEAN" in report.render()


def test_doctored_baseline_exits_one(baseline):
    rid = baseline.ids()[0]
    doc = copy.deepcopy(baseline.load(rid))
    doc["stats"]["mean_latency"] /= 2.0
    for row in doc["stats"]["per_seed"]:
        row["mean_latency"] /= 2.0
    baseline.gc(max_bytes=0)
    baseline.store(doc)
    report = regress(baseline.root)
    assert report.exit_code == 1
    assert any("mean_latency" in r for r in report.regressions)
    assert "REGRESSION" in report.render()


def test_empty_baseline_exits_two(tmp_path):
    report = regress(str(tmp_path / "nothing"))
    assert report.exit_code == 2
    assert any("no baseline fleet records" in e for e in report.errors)


def test_disabled_ledger_exits_two(baseline, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER", "0")
    report = regress(baseline.root)
    assert report.exit_code == 2
    assert any("disabled" in e for e in report.errors)


def test_names_filter_skips_other_archs(baseline):
    report = regress(baseline.root, names=["dynoc"])
    assert report.exit_code == 2  # nothing left to check
    report = regress(baseline.root, names=["buscom"])
    assert report.exit_code == 0 and report.checked == 1


def test_write_baseline_replaces_records(baseline):
    rid = baseline.ids()[0]
    doc = copy.deepcopy(baseline.load(rid))
    doc["stats"]["mean_latency"] /= 2.0
    baseline.gc(max_bytes=0)
    baseline.store(doc)
    assert regress(baseline.root).exit_code == 1
    report = regress(baseline.root, write_baseline=True)
    assert report.exit_code == 0 and len(report.written) == 1
    # the doctored record is gone, the fresh one gates cleanly
    assert regress(baseline.root).exit_code == 0


def test_custom_budgets_can_tighten_the_gate(baseline):
    # an impossible budget (abs floor 0, rel 0) flags seed jitter in
    # nothing — identical reruns really are identical — so the gate
    # stays clean even at zero tolerance
    report = regress(baseline.root,
                     budgets=[Budget("stats.*"), Budget("*")])
    assert report.exit_code == 0


def test_regress_budgets_ignore_kernel_self_metrics():
    assert any(b.pattern == "kernel.*" and b.ignore
               for b in REGRESS_BUDGETS)


class TestCli:
    def test_cli_exit_codes(self, baseline, tmp_path):
        assert main(["regress", "--baseline", baseline.root]) == 0
        assert main(["regress", "--baseline",
                     str(tmp_path / "missing")]) == 2

    def test_cli_json_report(self, baseline, tmp_path, capsys):
        rc = main(["regress", "--baseline", baseline.root, "--json"])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"checked": 1' in out

    def test_cli_diff_of_ledger_prefixes(self, capsys):
        a = run_seed_fleet("buscom", [0], **WORKLOAD)
        b = run_seed_fleet("buscom", [1], **WORKLOAD)
        rc = main(["diff", a.run_id[:8], b.run_id[:8]])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed" in out and "0 significant" in out
        # --check turns significant regressions into exit 1; a quiet
        # seed pair stays 0
        assert main(["diff", a.run_id, b.run_id, "--check"]) == 0

    def test_cli_diff_unknown_run_exits_two(self):
        assert main(["diff", "doesnotexist", "alsomissing"]) == 2

    @pytest.mark.parametrize("record, path, value, shown", TAMPERED,
                             ids=TAMPERED_IDS)
    def test_cli_diff_of_a_tampered_record_exits_two(
            self, tmp_path, capsys, record, path, value, shown):
        doc = _record(record, capsys)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(doc))
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(tampered(doc, path, value)))
        assert main(["diff", str(good), str(bad)]) == 2
        assert f"record b: invalid run record: {shown}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("record, path, value, shown", TAMPERED,
                             ids=TAMPERED_IDS)
    def test_cli_runs_show_of_a_tampered_record_exits_two(
            self, tmp_path, capsys, record, path, value, shown):
        doc = tampered(_record(record, capsys), path, value)
        ledger = RunLedger(str(tmp_path / "ledger"))
        rid = run_id_of(doc)
        os.makedirs(os.path.dirname(ledger.path_for(rid)))
        with open(ledger.path_for(rid), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["runs", "show", rid[:8], "--ledger",
                     ledger.root]) == 2
        assert f"invalid run record: {shown}" in capsys.readouterr().err

    def test_cli_runs_list_show_gc(self, capsys):
        fleet = run_seed_fleet("dynoc", [0], **WORKLOAD)
        assert main(["runs", "list"]) == 0
        assert fleet.run_id[:8] in capsys.readouterr().out
        assert main(["runs", "show", fleet.run_id[:8]]) == 0
        assert "dynoc" in capsys.readouterr().out
        # gc without a bound is refused
        assert main(["runs", "gc"]) == 2
        assert main(["runs", "gc", "--max-size", "0"]) == 0
        assert len(RunLedger()) == 0

    def test_cli_lists_and_shows_records_with_an_engine(self, capsys):
        """Records that carry the retired ``engine`` key still
        validate, list and show."""
        ledger = RunLedger(CHECKED_IN)
        ids = ledger.ids()
        assert len(ids) == 2
        assert {ledger.load(rid)["engine"] for rid in ids} == {"vec"}
        assert main(["runs", "list", "--ledger", CHECKED_IN]) == 0
        out = capsys.readouterr().out
        assert all(rid in out for rid in ids)
        for rid in ids:
            assert main(["runs", "show", rid[:8], "--ledger",
                         CHECKED_IN]) == 0
            assert "[fleet]" in capsys.readouterr().out

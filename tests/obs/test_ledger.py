"""Run ledger: content addressing, determinism, validation, pruning.

The headline invariants from the paper-repro contract:

* same ``(kind, name, config, seed)`` ⇒ byte-identical canonical
  record (the wall-clock section is volatile and excluded), hence the
  same content-addressed run id;
* object vs vec engine ⇒ identical paper-table ``stats`` sections.
"""

import json
import math
import os
from dataclasses import dataclass

import pytest

from repro.analysis.batch import run_seed, run_seed_fleet
from repro.obs.ledger import (
    RUN_SCHEMA,
    LedgerError,
    RunLedger,
    build_run_record,
    canonical_bytes,
    config_hash,
    jsonable,
    ledger_enabled,
    ledgered_call,
    prune_tree,
    render_entries,
    render_run,
    run_id_of,
    validate_run,
)

#: small-but-nontrivial workload (matches tests/analysis/test_batch.py)
WORKLOAD = dict(cycles=3_000, bursts=2, burst_size=10, burst_gap=900,
                payloads=(64, 256))


def _ledgered_seed(arch="buscom", seed=0, engine="vec", **overrides):
    config = {**WORKLOAD, **overrides}
    _, rid = ledgered_call(
        lambda: run_seed(arch, seed, engine=engine, **config),
        kind="seed", name=arch, config=config, seed=seed, engine=engine)
    return rid


class TestContentAddressing:
    def test_same_seed_and_config_is_byte_identical(self):
        """Two independent runs of the same configuration produce the
        same canonical bytes — so the store collapses them to one id."""
        rid_a = _ledgered_seed(seed=3)
        rid_b = _ledgered_seed(seed=3)
        assert rid_a is not None and rid_a == rid_b
        doc = RunLedger().load(rid_a)
        assert doc["schema"] == RUN_SCHEMA
        # the run id really is the content hash of the canonical form
        assert run_id_of(doc) == rid_a
        # wall-clock is recorded but excluded from the canonical form
        assert "wall" in doc
        assert b'"wall"' not in canonical_bytes(doc)

    def test_different_seed_different_record(self):
        assert _ledgered_seed(seed=0) != _ledgered_seed(seed=1)

    def test_engine_pair_has_identical_stats_sections(self):
        obj = run_seed_fleet("dynoc", [5], engine="object", **WORKLOAD)
        vec = run_seed_fleet("dynoc", [5], engine="vec", **WORKLOAD)
        ledger = RunLedger()
        rec_o = ledger.load(obj.run_id)
        rec_v = ledger.load(vec.run_id)
        assert rec_o["config_hash"] == rec_v["config_hash"]
        stats_o = dict(rec_o["stats"], engine=None)
        stats_v = dict(rec_v["stats"], engine=None)
        assert stats_o == stats_v
        assert rec_o["seed_stats"] == rec_v["seed_stats"]

    def test_config_hash_excludes_seed_identity(self):
        base = config_hash("fleet", "buscom", {"cycles": 100})
        assert config_hash("fleet", "buscom",
                           {"cycles": 100, "seed": 7}) == base
        assert config_hash("fleet", "buscom",
                           {"cycles": 100, "seeds": [0, 1]}) == base
        assert config_hash("fleet", "buscom", {"cycles": 200}) != base


class TestStore:
    def test_sharded_layout_and_prefix_resolve(self):
        rid = _ledgered_seed()
        ledger = RunLedger()
        path = ledger.path_for(rid)
        assert os.path.isfile(path)
        assert os.path.basename(os.path.dirname(path)) == rid[:2]
        assert os.path.basename(path) == f"{rid}.json"
        assert ledger.resolve(rid[:6]) == rid
        with pytest.raises(LedgerError, match="no run matching"):
            ledger.resolve("ffffffffffffffff")
        with pytest.raises(LedgerError, match="empty"):
            ledger.resolve("")

    def test_store_is_idempotent(self):
        rec = build_run_record("experiment", "x", config={"a": 1},
                               stats={"v": 1.0})
        ledger = RunLedger()
        rid = ledger.store(rec)
        assert ledger.store(rec) == rid
        assert len(ledger) == 1

    def test_stored_file_is_the_compact_sorted_record(self):
        rec = build_run_record("experiment", "x", config={"b": 2, "a": 1},
                               stats={"v": math.nan, "w": (1, 2)})
        ledger = RunLedger()
        rid = ledger.store(rec)
        with open(ledger.path_for(rid), encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        assert doc == jsonable(rec)
        assert text == json.dumps(doc, sort_keys=True,
                                  separators=(",", ":")) + "\n"
        assert run_id_of(doc) == rid

    def test_unwritable_root_leaves_the_run_unrecorded(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        rec = build_run_record("experiment", "x", config={}, stats={})
        ledger = RunLedger(str(blocker / "ledger"))
        assert ledger.store(rec) == run_id_of(rec)
        assert len(ledger) == 0

    def test_experiment_output_ignores_an_unwritable_root(
            self, tmp_path, monkeypatch, capsys):
        """A ledger root below a regular file changes nothing a user
        sees: same stdout and exit code as with the ledger off."""
        from repro.cli import main

        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(blocker / "ledger"))
        assert main(["experiment", "e1", "--json", "--no-cache"]) == 0
        unwritable = capsys.readouterr().out
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert main(["experiment", "e1", "--json", "--no-cache"]) == 0
        assert unwritable == capsys.readouterr().out

    def test_disabled_ledger_runs_plain(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert not ledger_enabled()
        result, rid = ledgered_call(lambda: 41 + 1, kind="experiment",
                                    name="x", config={})
        assert result == 42 and rid is None
        assert len(RunLedger()) == 0

    def test_entries_newest_first_and_render(self):
        rid = _ledgered_seed()
        entries = RunLedger().entries()
        assert [e.run_id for e in entries] == [rid]
        listing = render_entries(entries)
        assert rid[:8] in listing and "seed" in listing
        assert "buscom" in render_run(RunLedger().load(rid))

    def test_gc_by_size_evicts_lru(self):
        old = _ledgered_seed(seed=0)
        new = _ledgered_seed(seed=1)
        ledger = RunLedger()
        stale = 1_000_000_000.0
        os.utime(ledger.path_for(old), (stale, stale))
        dry = ledger.gc(max_bytes=os.path.getsize(ledger.path_for(new)),
                        dry_run=True)
        assert len(dry.evicted) == 1 and len(ledger) == 2
        report = ledger.gc(
            max_bytes=os.path.getsize(ledger.path_for(new)))
        assert report.evicted == dry.evicted
        assert ledger.ids() == [new]
        assert "evicted" in report.render()

    def test_prune_tree_respects_age_and_suffix(self, tmp_path):
        root = tmp_path / "objects" / "ab"
        root.mkdir(parents=True)
        stale = 1_000_000_000.0
        victim = root / "old.pkl"
        victim.write_bytes(b"x" * 10)
        os.utime(victim, (stale, stale))
        survivor = root / "fresh.pkl"
        survivor.write_bytes(b"y" * 10)
        ignored = root / "notes.txt"
        ignored.write_text("keep")
        os.utime(ignored, (stale, stale))
        report = prune_tree([str(tmp_path / "objects")],
                            suffixes=(".pkl",), max_age_days=30)
        assert report.evicted == [str(victim)]
        assert not victim.exists()
        assert survivor.exists() and ignored.exists()


class TestValidateRun:
    def test_full_record_validates(self):
        doc = RunLedger().load(_ledgered_seed())
        assert validate_run(doc) >= 2  # kernel + telemetry at least

    def test_catches_config_tampering(self):
        doc = RunLedger().load(_ledgered_seed())
        doc["config"]["cycles"] = 999_999
        with pytest.raises(ValueError, match="config_hash"):
            validate_run(doc)

    def test_catches_missing_sections_and_bad_kind(self):
        with pytest.raises(ValueError, match="schema"):
            validate_run({"schema": "bogus/9"})
        doc = build_run_record("chaos", "c", config={}, stats={})
        doc["kind"] = "party"
        with pytest.raises(ValueError, match="kind"):
            validate_run(doc)

    def test_build_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown run kind"):
            build_run_record("party", "x", config={})


class TestJsonable:
    def test_non_finite_floats_become_strings(self):
        out = jsonable({"a": math.nan, "b": math.inf, "c": -math.inf})
        assert out == {"a": "nan", "b": "inf", "c": "-inf"}
        json.dumps(out)  # must be serializable

    def test_dataclasses_tuples_and_sets(self):
        @dataclass
        class Point:
            x: int
            y: int

        out = jsonable({"p": Point(1, 2), "t": (3, 4), "s": {5}})
        assert out == {"p": {"x": 1, "y": 2}, "t": [3, 4], "s": [5]}


class TestFleetLedgering:
    def test_fleet_record_aggregates_per_seed_records(self):
        fleet = run_seed_fleet("sharedbus", [0, 1], engine="vec",
                               **WORKLOAD)
        assert fleet.run_id is not None
        assert len(fleet.seed_run_ids) == 2
        ledger = RunLedger()
        rec = ledger.load(fleet.run_id)
        assert rec["kind"] == "fleet"
        assert rec["seed_run_ids"] == fleet.seed_run_ids
        assert rec["stats"]["delivered_total"] == fleet.delivered_total
        assert [p["seed"] for p in rec["stats"]["per_seed"]] == [0, 1]
        spread = rec["seed_stats"]["mean_latency"]
        assert spread["count"] == 2 and spread["std"] >= 0.0
        for rid in fleet.seed_run_ids:
            assert ledger.load(rid)["kind"] == "seed"

    def test_fleet_ledger_opt_out(self):
        fleet = run_seed_fleet("sharedbus", [0], engine="vec",
                               ledger=False, **WORKLOAD)
        assert fleet.run_id is None and fleet.seed_run_ids == []
        assert len(RunLedger()) == 0

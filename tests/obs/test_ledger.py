"""Run ledger: content addressing, determinism, validation, pruning.

The headline invariants from the paper-repro contract:

* same ``(kind, name, config, seed)`` ⇒ byte-identical canonical
  record (the wall-clock section is volatile and excluded), hence the
  same content-addressed run id;
* a record written under the retired ``vec`` engine name and a fresh
  run of its configuration ⇒ identical paper-table ``stats`` sections.
"""

import json
import math
import os
import re
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
from tests.tampering import tampered

#: small-but-nontrivial workload (matches tests/analysis/test_batch.py)
WORKLOAD = dict(cycles=3_000, bursts=2, burst_size=10, burst_gap=900,
                payloads=(64, 256))

BASELINE_RUNS = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                             "regress-baseline", "runs")
#: a DyNoC fleet record written with ``engine: "vec"``
VEC_FLEET_RECORD = os.path.join(BASELINE_RUNS, "d5", "d5a5ab28f3fa1718.json")


def _ledgered_seed(arch="buscom", seed=0, **overrides):
    config = {**WORKLOAD, **overrides}
    _, rid = ledgered_call(
        lambda: run_seed(arch, seed, **config),
        kind="seed", name=arch, config=config, seed=seed)
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
        """A fleet recorded under the retired ``vec`` engine name and a
        fresh run of its configuration record the same statistics; the
        stats sections differ only by the old record's ``engine`` key."""
        with open(VEC_FLEET_RECORD, encoding="utf-8") as fh:
            old = json.load(fh)
        config = dict(old["config"])
        seeds = config.pop("seeds")
        fleet = run_seed_fleet(old["name"], seeds, **config)
        fresh = RunLedger().load(fleet.run_id)
        assert old["engine"] == "vec" and "engine" not in fresh
        assert fresh["config_hash"] == old["config_hash"]
        old_stats = {k: v for k, v in old["stats"].items() if k != "engine"}
        assert fresh["stats"] == old_stats
        assert fresh["seed_stats"] == old["seed_stats"]

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

    def test_stored_file_is_the_compact_sorted_record(self, tmp_path):
        """The file is the record's compact sorted encoding, whether the
        wall-clock section sorts last (spliced into the hashed bytes),
        is absent, or has a key sorting after it."""
        rec = build_run_record("experiment", "x", config={"b": 2, "a": 1},
                               stats={"v": math.nan, "w": (1, 2)})
        no_wall = {k: v for k, v in rec.items() if k != "wall"}
        after_wall = {**rec, "wallet": [1], "zone": {"b": 1, "a": None}}
        for i, record in enumerate((rec, no_wall, after_wall,
                                    {"wall": {}})):
            # one root each: a record and its copy without the wall
            # section share a run id
            ledger = RunLedger(str(tmp_path / str(i)))
            rid = ledger.store(record)
            with open(ledger.path_for(rid), encoding="utf-8") as fh:
                text = fh.read()
            doc = json.loads(text)
            assert doc == jsonable(record)
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

    @pytest.mark.parametrize("bound", ("max_age_days", "max_bytes"))
    def test_prune_tree_rejects_a_negative_bound(self, tmp_path, bound):
        """A negative bound would evict everything; 0 stays valid."""
        entry = tmp_path / "objects" / "ab" / "x.pkl"
        entry.parent.mkdir(parents=True)
        entry.write_bytes(b"x" * 10)
        root = [str(tmp_path / "objects")]
        for value in (-1, -0.5):
            with pytest.raises(ValueError, match=f"{bound} must be >= 0"):
                prune_tree(root, suffixes=(".pkl",), **{bound: value})
        assert entry.exists()
        report = prune_tree(root, suffixes=(".pkl",), **{bound: 0},
                            dry_run=True)
        assert report.scanned == 1

    @pytest.mark.parametrize("argv", (
        ["runs", "gc", "--max-age-days", "-1"],
        ["runs", "gc", "--max-size", "-0.5"],
        ["cache", "prune", "--max-age-days", "-1"],
        ["cache", "prune", "--max-size", "-0.5"],
        ["cache", "prune", "--max-size", "-0.0000001"],
    ), ids=" ".join)
    def test_cli_refuses_a_negative_bound(self, argv, capsys):
        from repro.cli import main

        rids = {_ledgered_seed(seed=0), _ledgered_seed(seed=1)}
        cached = os.path.join(os.environ["REPRO_CACHE_DIR"], "ab", "x.pkl")
        os.makedirs(os.path.dirname(cached))
        with open(cached, "wb") as fh:
            fh.write(b"x" * 10)
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(" ".join(argv[:2]) + ": max_")
        assert set(RunLedger().ids()) == rids and os.path.exists(cached)


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

    @pytest.mark.parametrize("key, value, section", [
        ("telemetry", [1], "telemetry[0]"),
        ("versions", None, "versions"),
        ("seed_stats", [1], "seed_stats"),
        ("seed_stats", {"x": 1}, "seed_stats['x']"),
        ("versions", "package python record", "versions"),
        ("config", [], "config"),
        ("kernel", 1, "kernel"),
        ("journeys", [1], "journeys"),
        ("resilience", [1], "resilience"),
        ("wall", "x", "wall"),
    ], ids=["telemetry-entry", "versions-null", "seed-stats-list",
            "seed-stats-entry", "versions-string", "config-list",
            "kernel-int", "journeys-list", "resilience-list",
            "wall-string"])
    def test_tampered_section_gets_a_precise_error(self, key, value,
                                                   section):
        with open(os.path.join(BASELINE_RUNS, "92",
                               "92f51468e74f1373.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        validate_run(doc)
        doc[key] = value
        with pytest.raises(ValueError) as info:
            validate_run(doc)
        assert str(info.value).startswith(
            f"invalid run record: {section} is not an object")

    @pytest.mark.parametrize("path", [
        "", "versions", "kernel", "telemetry", "telemetry[0]",
        "telemetry[0].flows", "telemetry[0].flows[0]",
        "telemetry[0].flows[0].latency", "telemetry[0].flows[0].jitter",
        "telemetry[0].links", "telemetry[0].links[0]",
        "telemetry[0].counters", "alerts", "journeys",
        "journeys.simulators", "journeys.simulators[0]",
        "journeys.simulators[0].flows",
        "journeys.simulators[0].flows[0]",
        "journeys.simulators[0].flows[0].latency",
        "journeys.simulators[0].flows[0].segments",
        "journeys.simulators[0].flows[0].critical_paths",
        "wall",
    ])
    def test_a_scalar_for_any_object_or_list_names_its_path(self, path):
        doc = RunLedger().load(_ledgered_seed())
        validate_run(doc)
        with pytest.raises(ValueError) as info:
            validate_run(tampered(doc, path, 1))
        assert str(info.value).startswith(
            f"invalid run record: {path or 'document'} is not ")

    @pytest.mark.parametrize("path, value, problem", [
        ("versions.git", 5, "versions.git is not a string or null"),
        ("seed_stats['mean_latency'].std", "x",
         "seed_stats['mean_latency'].std is not a number"),
        ("name", None, "name is not a string"),
    ])
    def test_fields_the_readers_format_are_typed(self, path, value,
                                                 problem):
        with open(os.path.join(BASELINE_RUNS, "92",
                               "92f51468e74f1373.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        with pytest.raises(ValueError, match=re.escape(problem)):
            validate_run(tampered(doc, path, value))

    def test_old_records_may_name_only_the_known_engines(self):
        """Records written before the engine name was retired carry
        ``engine``; null, "object" and "vec" validate, nothing else."""
        with open(VEC_FLEET_RECORD, encoding="utf-8") as fh:
            doc = json.load(fh)
        for engine in (None, "object", "vec"):
            validate_run(dict(doc, engine=engine))
        with pytest.raises(ValueError, match="unknown engine 'gpu'"):
            validate_run(dict(doc, engine="gpu"))

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


def _unmarked(obj):
    """``obj`` with every dict and list rebuilt as a plain one, so that
    :func:`jsonable` walks all of it."""
    if isinstance(obj, dict):
        return {k: _unmarked(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_unmarked(v) for v in obj]
    return obj


class TestJsonReadySections:
    """``build_run_record`` builds the telemetry, alerts and journeys
    sections in :func:`jsonable` form, and the store writes them without
    another walk.  NaN, inf and numpy scalars in them must map as
    ``jsonable`` maps them, or run ids move."""

    @staticmethod
    def _odd_sims():
        import numpy as np

        from repro.obs.alerts import AlertEngine, AlertRule
        from repro.obs.flows import FlowTelemetry
        from repro.obs.journey import JourneyRecorder
        from repro.sim import Simulator

        sim = Simulator(name="odd")
        tel = FlowTelemetry(eval_interval=4).attach(sim)
        tel.engine = AlertEngine(rules=[AlertRule("inf", "gauge:inf", 1.0)])
        sim.journey = JourneyRecorder(retain=False)

        def record(s):
            tel.gauge(s.cycle, "nan", math.nan)
            tel.gauge(s.cycle, "inf", math.inf)
            tel.gauge(s.cycle, "np", np.float64(2.5))
            tel.gauge(s.cycle, "npi", np.int64(3))
            tel.count(s.cycle, "np.count", np.int64(3))
            tel.record_flow(s.cycle, "a", "b", np.float64(7.0),
                            np.int64(64))
            tel.link_busy(s.cycle, "l0", np.int64(3))

        sim.at(2, record)
        sim.run(20)
        return [sim]

    def test_sections_convert_as_jsonable(self, monkeypatch):
        import repro.obs.ledger as ledger

        sims = self._odd_sims()
        built = [ledger.telemetry_section(sims),
                 ledger.alerts_section(sims)]
        # the same builders without their conversions: the sections as
        # the store used to receive them
        monkeypatch.setattr(ledger, "jsonable", lambda obj: obj)
        raw = [ledger.telemetry_section(sims), ledger.alerts_section(sims)]
        monkeypatch.undo()
        assert type(raw[0][0]["counters"]["np.count"]).__name__ == "int64"
        assert math.isnan(raw[0][0]["gauges"]["nan"])
        assert built[0][0]["gauges"] == {"inf": "inf", "nan": "nan",
                                         "np": 2.5, "npi": 3}
        assert built[0][0]["flows"][0]["jitter"]["mean"] == "nan"
        assert raw[1][0]["value"] == math.inf
        assert built[1][0]["value"] == "inf"
        assert (json.dumps(built, sort_keys=True)
                == json.dumps(jsonable(raw), sort_keys=True))

    def test_store_writes_what_a_whole_conversion_gives(self, tmp_path):
        record = build_run_record("experiment", "odd", config={"r": 0.5},
                                  stats={"x": math.nan},
                                  sims=self._odd_sims())
        ledger = RunLedger(str(tmp_path))
        run_id = ledger.store(record)
        plain = _unmarked(record)
        assert run_id == run_id_of(plain)
        with open(ledger.path_for(run_id), encoding="utf-8") as fh:
            text = fh.read()
        assert text == json.dumps(jsonable(plain), sort_keys=True,
                                  separators=(",", ":")) + "\n"


class TestFleetLedgering:
    def test_fleet_record_aggregates_per_seed_records(self):
        fleet = run_seed_fleet("sharedbus", [0, 1], **WORKLOAD)
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
        fleet = run_seed_fleet("sharedbus", [0], ledger=False, **WORKLOAD)
        assert fleet.run_id is None and fleet.seed_run_ids == []
        assert len(RunLedger()) == 0

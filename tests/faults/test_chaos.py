"""Chaos harness tests: sweep document, validation, CLI."""

import json
import re

import pytest

from repro.analysis.chaos import (
    CHAOS_SCHEMA,
    discover_arch_keys,
    render_chaos,
    run_chaos_scenario,
    run_chaos_sweep,
    validate_chaos,
)
from tests.tampering import tampered


class TestDiscovery:
    @pytest.mark.parametrize("experiment, keys", [
        ("e1", ["rmboc"]),
        ("e10", ["sharedbus", "staticmesh", "rmboc", "buscom", "dynoc",
                 "conochi"]),
        ("e11", ["rmboc", "buscom", "dynoc", "conochi", "sharedbus",
                 "staticmesh"]),
    ], ids=["e1", "e10", "e11"])
    def test_e1_builds_rmboc(self, experiment, keys):
        assert discover_arch_keys(experiment) == keys

    def test_unknown_experiment_diagnosed(self):
        with pytest.raises(KeyError, match="known"):
            discover_arch_keys("e99")


class TestSweep:
    def test_e1_sweep_survives_and_validates(self):
        doc = run_chaos_sweep("e1", seed=7)
        assert doc["schema"] == CHAOS_SCHEMA
        assert doc["survived"]
        assert validate_chaos(doc) == 1
        s = doc["scenarios"][0]
        assert s["metrics"]["messages_undelivered"] == 0
        assert s["metrics"]["mttr_max"] is not None
        # the doc must round-trip through JSON for the CI smoke job
        json.loads(json.dumps(doc, default=repr))

    def test_sweep_is_seed_deterministic(self):
        a = run_chaos_sweep("e1", seed=11, telemetry=False)
        b = run_chaos_sweep("e1", seed=11, telemetry=False)
        assert a == b

    def test_rounds_use_distinct_seeds(self):
        doc = run_chaos_sweep("e1", seed=7, rounds=2, telemetry=False)
        seeds = [s["seed"] for s in doc["scenarios"]]
        assert seeds == [7, 8]

    def test_render_mentions_verdict(self):
        doc = run_chaos_sweep("e1", seed=7, telemetry=False)
        text = render_chaos(doc)
        assert "rmboc" in text
        assert "all scenarios survived" in text


class TestScenarioCoverage:
    @pytest.mark.parametrize("key", ["buscom", "dynoc", "conochi",
                                     "sharedbus", "staticmesh"])
    def test_every_architecture_has_a_surviving_scenario(self, key):
        s = run_chaos_scenario(key, seed=7, telemetry=False)
        assert s["survived"], s["metrics"]


class TestValidation:
    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            validate_chaos({"schema": "repro.chaos/0"})

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            validate_chaos({"schema": CHAOS_SCHEMA, "scenarios": []})

    def test_missing_metric_diagnosed(self):
        doc = run_chaos_sweep("e1", seed=7, telemetry=False)
        del doc["scenarios"][0]["metrics"]["mttr_max"]
        with pytest.raises(ValueError, match="mttr_max"):
            validate_chaos(doc)

    @pytest.mark.parametrize("path, value, shown", [
        ("", [], "document is not an object"),
        ("scenarios", 1, "scenarios is not a list"),
        ("scenarios", [1], "scenarios[0] is not an object"),
        ("scenarios[0].metrics", 1,
         "scenarios[0].metrics is not an object"),
        ("architectures", 1, "architectures is not a list"),
        ("scenarios[0].metrics.availability", "x",
         "scenarios[0].metrics.availability is not a number"),
    ])
    def test_malformed_document_names_the_path(self, path, value, shown):
        doc = run_chaos_sweep("e1", seed=7, telemetry=False)
        with pytest.raises(ValueError, match=re.escape(shown)):
            validate_chaos(tampered(doc, path, value))


class TestCli:
    def test_chaos_once_json(self, capsys):
        from repro.cli import main

        rc = main(["chaos", "e1", "--once", "--json", "--seed", "7"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_chaos(doc) == 1
        assert doc["survived"]

    def test_chaos_unknown_experiment_exit_2(self, capsys):
        from repro.cli import main

        assert main(["chaos", "e99", "--once"]) == 2

"""Adaptive-vs-static harness: document shape, validators, verdicts
and rendering."""

import re

import pytest

from repro.control import (ADAPT_SCHEMA, render_adapt, run_adapt,
                           run_adaptive_pair, validate_adapt,
                           validate_control)
from repro.control.loop import CONTROL_SCHEMA
from tests.tampering import tampered


@pytest.fixture(scope="module")
def buscom_pair():
    return run_adaptive_pair("buscom", seed=7)


class TestAdaptivePair:
    def test_unknown_architecture_raises(self):
        with pytest.raises(KeyError, match="nonesuch"):
            run_adaptive_pair("nonesuch")

    def test_strict_win_on_the_starved_slot_scenario(self, buscom_pair):
        s, a = buscom_pair["static"], buscom_pair["adaptive"]
        assert buscom_pair["improved"]
        assert a["slo_burn_cycles"] < s["slo_burn_cycles"]
        assert a["mttr_max"] < s["mttr_max"]
        assert a["messages_undelivered"] <= s["messages_undelivered"]
        assert buscom_pair["deltas"]["slo_burn_cycles"] < 0

    def test_static_variant_carries_no_action_log(self, buscom_pair):
        assert "control" not in buscom_pair["static"]
        assert buscom_pair["adaptive"]["control"]["schema"] == \
            CONTROL_SCHEMA

    def test_identical_traffic_both_variants(self, buscom_pair):
        assert (buscom_pair["static"]["messages_sent"]
                == buscom_pair["adaptive"]["messages_sent"])

    def test_action_log_validates(self, buscom_pair):
        n = validate_control(buscom_pair["adaptive"]["control"])
        assert n >= 1


class TestValidateControl:
    def test_rejects_wrong_schema(self, buscom_pair):
        doc = dict(buscom_pair["adaptive"]["control"], schema="bogus")
        with pytest.raises(ValueError, match="schema"):
            validate_control(doc)

    def test_rejects_missing_field(self, buscom_pair):
        doc = dict(buscom_pair["adaptive"]["control"])
        del doc["guard"]
        with pytest.raises(ValueError, match="guard"):
            validate_control(doc)

    def test_rejects_unknown_status(self, buscom_pair):
        doc = dict(buscom_pair["adaptive"]["control"])
        doc["actions"] = [dict(doc["actions"][0], status="sideways")]
        with pytest.raises(ValueError, match="unknown status"):
            validate_control(doc)

    def test_rejects_count_mismatch(self, buscom_pair):
        doc = dict(buscom_pair["adaptive"]["control"])
        doc["counts"] = {"confirmed": 99}
        with pytest.raises(ValueError, match="disagree"):
            validate_control(doc)

    @pytest.mark.parametrize("path, value, shown", [
        ("", [], "document is not an object"),
        ("actions", 1, "actions is not a list"),
        ("actions", [1], "actions[0] is not an object"),
        ("counts", 1, "counts is not an object"),
        ("guard", 1, "guard is not an object"),
    ])
    def test_malformed_log_names_the_path(self, buscom_pair, path, value,
                                          shown):
        doc = tampered(buscom_pair["adaptive"]["control"], path, value)
        with pytest.raises(ValueError, match=re.escape(shown)):
            validate_control(doc)


class TestRunAdapt:
    @pytest.fixture()
    def doc(self, monkeypatch):
        import repro.analysis.chaos as chaos

        monkeypatch.setattr(chaos, "discover_arch_keys",
                            lambda experiment: ["buscom"])
        return run_adapt("e1", seed=7, ledger=False)

    def test_document_validates(self, doc):
        assert doc["schema"] == ADAPT_SCHEMA
        assert validate_adapt(doc) == 1
        assert doc["architectures"] == ["buscom"]
        assert doc["improved"] == ["buscom"]
        assert doc["regressions"] == []

    def test_static_control_rejected(self, doc):
        bad = dict(doc)
        bad["pairs"] = [dict(doc["pairs"][0])]
        bad["pairs"][0]["static"] = dict(
            bad["pairs"][0]["static"], control={})
        with pytest.raises(ValueError, match="static"):
            validate_adapt(bad)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            validate_adapt({"schema": ADAPT_SCHEMA, "pairs": []})

    @pytest.mark.parametrize("path, value, shown", [
        ("", [], "document is not an object"),
        ("pairs", [1], "pairs[0] is not an object"),
        ("pairs[0].static", 1, "pairs[0].static is not an object"),
        ("pairs[0].adaptive", 1, "pairs[0].adaptive is not an object"),
        ("pairs[0].adaptive.control", 1,
         "pairs[0].adaptive.control is not an object"),
        ("pairs[0].adaptive.control.actions", [1],
         "pairs[0].adaptive.control.actions[0] is not an object"),
        ("pairs[0].deltas", 1, "pairs[0].deltas is not an object"),
    ])
    def test_malformed_document_names_the_path(self, doc, path, value,
                                               shown):
        with pytest.raises(ValueError, match=re.escape(shown)):
            validate_adapt(tampered(doc, path, value))

    def test_render_names_the_winner(self, doc):
        text = render_adapt(doc)
        assert "buscom" in text
        assert "improved" in text
        assert "1/1" in text

    def test_unknown_experiment_raises(self, monkeypatch):
        import repro.analysis.chaos as chaos

        monkeypatch.setattr(chaos, "discover_arch_keys",
                            lambda experiment: ["no-scenario-arch"])
        with pytest.raises(RuntimeError, match="no\\s"):
            run_adapt("e1", ledger=False)

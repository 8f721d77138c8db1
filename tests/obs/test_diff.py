"""repro diff: alignment, noise-aware significance, attribution.

Acceptance invariants: same-config different-seed pairs must report
*zero* significant regressions (sub-noise deltas are never flagged),
and an injected slowdown must be attributed to the right journey
segment and link.
"""

import json
import os
import re
import tempfile


from repro.analysis.batch import run_seed_fleet
from repro.obs.diff import (
    DEFAULT_BUDGETS,
    _journey_rows,
    DIFF_SCHEMA,
    Budget,
    align,
    attribute_latency,
    compare_metrics,
    diff_runs,
    flatten_metrics,
    render_diff,
    within_noise,
)
from repro.obs.ledger import LEDGER_DIR_ENV, RunLedger, build_run_record

WORKLOAD = dict(cycles=3_000, bursts=2, burst_size=10, burst_gap=900)

#: a DyNoC fleet record written with ``engine: "vec"``
VEC_FLEET_RECORD = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "regress-baseline",
    "runs", "d5", "d5a5ab28f3fa1718.json")

#: records built once per module run (real simulations are the slow
#: part); each entry holds the fully instrumented per-seed record
_RECORDS = {}


def _seed_record(arch, seed, payload=64):
    """The instrumented per-seed ``repro.run/1`` record for one run,
    built in a throwaway ledger and cached in memory."""
    key = (arch, seed, payload)
    if key not in _RECORDS:
        with tempfile.TemporaryDirectory() as tmp:
            saved = os.environ.get(LEDGER_DIR_ENV)
            os.environ[LEDGER_DIR_ENV] = tmp
            try:
                fleet = run_seed_fleet(arch, [seed], payloads=(payload,),
                                       **WORKLOAD)
                ledger = RunLedger()
                _RECORDS[key] = ledger.load(fleet.seed_run_ids[0])
            finally:
                if saved is None:
                    os.environ.pop(LEDGER_DIR_ENV, None)
                else:
                    os.environ[LEDGER_DIR_ENV] = saved
    import copy
    return copy.deepcopy(_RECORDS[key])


class TestWithinNoise:
    def test_envelope_is_factor_times_reference_plus_slack(self):
        assert within_noise(1.0, 1.0)
        assert within_noise(2.04, 1.0)          # 2.0 * 1.0 + 0.05
        assert not within_noise(2.06, 1.0)
        # zero reference still allows the absolute slack
        assert within_noise(0.04, 0.0)
        assert not within_noise(0.06, 0.0)

    def test_custom_factor_and_slack(self):
        assert within_noise(10.0, 2.0, factor=5.0, slack=0.0)
        assert not within_noise(10.1, 2.0, factor=5.0, slack=0.0)


class TestAlignment:
    def _rec(self, **kw):
        base = dict(config={"cycles": 100}, seed=0, stats={"v": 1.0})
        base.update(kw)
        return build_run_record("fleet", kw.pop("name", "buscom"),
                                **base)

    def test_identical(self):
        a = self._rec()
        assert align(a, self._rec())["mode"] == "identical"

    def test_seed(self):
        assert align(self._rec(seed=0), self._rec(seed=1))["mode"] \
            == "seed"

    def test_seed_shifted_fleets_align_as_seed(self):
        a = self._rec(config={"cycles": 100, "seeds": [0, 1]}, seed=None)
        b = self._rec(config={"cycles": 100, "seeds": [2, 3]}, seed=None)
        assert a["config_hash"] == b["config_hash"]
        assert align(a, b)["mode"] == "seed"

    def test_engine(self):
        """Records written before the engine name was retired carry
        one; it never splits an alignment."""
        a, b = self._rec(), self._rec()
        a["engine"], b["engine"] = "object", "vec"
        assert align(a, b)["mode"] == "identical"
        assert align(b, self._rec())["mode"] == "identical"

    def test_config(self):
        out = align(self._rec(), self._rec(config={"cycles": 999}))
        assert out["mode"] == "config"
        assert any("configs differ" in n for n in out["notes"])

    def test_mixed(self):
        out = align(self._rec(seed=0),
                    self._rec(seed=1, config={"cycles": 999}))
        assert out["mode"] == "mixed"


class TestSignificance:
    def _fleet_pair(self, latency_b, std=5.0):
        """Two hand-built seed-aligned fleet records whose only delta
        is ``stats.mean_latency`` (noise floor from ``seed_stats``)."""
        def rec(seed, latency):
            return build_run_record(
                "fleet", "buscom", config={"cycles": 100}, seed=seed,
                stats={"mean_latency": latency},
                seed_stats={"mean_latency": {
                    "count": 4, "mean": latency, "std": std,
                    "min": latency - std, "max": latency + std}})
        return rec(0, 100.0), rec(1, latency_b)

    def test_sub_noise_delta_never_flagged(self):
        a, b = self._fleet_pair(101.0)
        doc = diff_runs(a, b)
        assert doc["alignment"]["mode"] == "seed"
        assert doc["significant"] == 0 and doc["regressions"] == []

    def test_seed_budget_never_flags_any_increase(self):
        """The seed default (rel=1.0 on the larger value) can never be
        exceeded by same-sign metrics — seed pairs are informational."""
        a, b = self._fleet_pair(450.0)
        doc = diff_runs(a, b)
        assert doc["significant"] == 0 and doc["regressions"] == []
        # the delta is still *reported*, just not significant
        assert any(r["metric"] == "stats.mean_latency"
                   for r in doc["deltas"])

    def test_gross_delta_is_flagged_under_explicit_budgets(self):
        a, b = self._fleet_pair(450.0)
        doc = diff_runs(a, b, budgets=[Budget("stats.*", rel=0.25, abs=4.0),
                                 Budget("*", ignore=True)])
        assert doc["significant"] == 1
        assert doc["regressions"] == ["stats.mean_latency"]

    def test_improvement_is_significant_but_not_regression(self):
        a, b = self._fleet_pair(10.0)
        doc = diff_runs(a, b, budgets=[Budget("stats.*", rel=0.25, abs=4.0),
                                 Budget("*", ignore=True)])
        assert doc["significant"] == 1 and doc["regressions"] == []

    def test_seed_std_raises_the_floor(self):
        budgets = [Budget("stats.*", abs=4.0, sigma=6.0),
                   Budget("*", ignore=True)]
        # delta 250; 6 sigma = 300 with std=50 -> quiet
        a, b = self._fleet_pair(350.0, std=50.0)
        assert diff_runs(a, b, budgets=budgets)["significant"] == 0
        # same delta with std=5 -> 6 sigma = 30 -> flagged
        a, b = self._fleet_pair(350.0, std=5.0)
        assert diff_runs(a, b, budgets=budgets)["significant"] >= 1

    def test_budget_ignore_and_matching(self):
        budgets = [Budget("kernel.*", ignore=True), Budget("*")]
        rows = compare_metrics({"kernel": {"ticks": 10}, "stats": {}},
                               {"kernel": {"ticks": 99}, "stats": {}},
                               budgets)
        # ignored metrics stay informational: reported, never flagged
        assert [r["metric"] for r in rows] == ["kernel.ticks"]
        assert not rows[0]["significant"] and rows[0]["floor"] is None
        # every alignment mode has its budgets
        assert set(DEFAULT_BUDGETS) == {"identical", "version", "seed",
                                        "config", "mixed"}


class TestRealPairs:
    def test_seed_pair_reports_zero_regressions(self):
        a = _seed_record("buscom", 0)
        b = _seed_record("buscom", 1)
        doc = diff_runs(a, b)
        assert doc["schema"] == DIFF_SCHEMA
        assert doc["alignment"]["mode"] == "seed"
        assert doc["significant"] == 0 and doc["regressions"] == []

    def test_engine_pair_is_fully_quiet(self):
        """A fleet recorded under the retired ``vec`` engine name diffs
        against a fresh run of its configuration without a delta."""
        with open(VEC_FLEET_RECORD, encoding="utf-8") as fh:
            old = json.load(fh)
        config = dict(old["config"])
        seeds = config.pop("seeds")
        fleet = run_seed_fleet(old["name"], seeds, **config)
        fresh = RunLedger().load(fleet.run_id)
        doc = diff_runs(old, fresh)
        assert doc["alignment"]["mode"] == "version"
        assert doc["compared"] > 0
        assert doc["deltas"] == [] and doc["significant"] == 0
        assert doc["a"]["run_id"] == "d5a5ab28f3fa1718"
        assert "engine" not in doc["a"]

    def test_injected_slowdown_attributed_to_right_segment(self):
        """Fatter payloads on the shared buses must show up as bus
        slot_wait time, not some unrelated segment."""
        a = _seed_record("buscom", 3, payload=64)
        b = _seed_record("buscom", 3, payload=1024)
        doc = diff_runs(a, b)
        assert doc["alignment"]["mode"] == "config"
        assert doc["significant"] > 0
        segments = doc["attribution"]["segments"]
        assert segments, "latency regression must produce attribution"
        top_kinds = {s["segment"] for s in segments[:5]}
        assert "slot_wait" in top_kinds
        links = doc["attribution"]["links"]
        assert any(row["link"].startswith("buscom.bus")
                   and row["busy_delta"] > 0 for row in links)
        summary = " ".join(doc["attribution_summary"])
        assert "slot_wait" in summary
        rendered = render_diff(doc)
        assert "config" in rendered and "slot_wait" in rendered

    def test_a_link_idle_in_the_baseline_is_attributed_in_cycles(self):
        """``busy_rel`` is undefined for a link with no busy cycles in
        ``a``; the summary gives its growth in cycles."""
        a = _seed_record("buscom", 3, payload=64)
        b = _seed_record("buscom", 3, payload=1024)
        for link in a["telemetry"][0]["links"]:
            link["busy_cycles"] = 0
        doc = diff_runs(a, b)
        summary = " ".join(doc["attribution_summary"].values())
        assert re.search(r"link buscom\.bus\S* busy \+\d+ cycles",
                         summary), summary

    def test_segment_deltas_partition_flow_latency_delta(self):
        """Per flow, the per-segment cycle deltas must sum exactly to
        the flow's end-to-end latency delta — attribution accounts for
        every cycle of the slowdown, no leaks, no double counting."""
        a = _seed_record("buscom", 3, payload=64)
        b = _seed_record("buscom", 3, payload=1024)
        attribution = attribute_latency(a, b)
        seg_sum = {}
        for seg in attribution["segments"]:
            key = (seg["sim"], seg["flow"])
            seg_sum[key] = seg_sum.get(key, 0) + seg["delta_cycles"]
        ja, jb = _journey_rows(a), _journey_rows(b)
        checked = 0
        for key in set(ja) & set(jb):
            total = (jb[key]["latency"]["total"]
                     - ja[key]["latency"]["total"])
            flow = (key[0], f"{key[1]}->{key[2]}")
            assert seg_sum.get(flow, 0) == total
            checked += 1
        assert checked > 0


class TestFlattening:
    def test_flatten_covers_all_observability_sections(self):
        doc = _seed_record("buscom", 0)
        flat = flatten_metrics(doc)
        assert any(p.startswith("stats.") for p in flat)
        assert any(p.startswith("kernel.") for p in flat)
        assert any(".flow." in p and p.endswith("latency.mean")
                   for p in flat)
        assert any(".link." in p and p.endswith("busy_cycles")
                   for p in flat)
        assert any(p.startswith("journeys.") for p in flat)
        assert all(isinstance(v, float) for v in flat.values())

    def test_identifier_keys_are_not_metrics(self):
        doc = _seed_record("buscom", 0)
        flat = flatten_metrics(doc)
        assert "seed" not in flat and "config.seed" not in flat
        assert not any(p.endswith(".seed") for p in flat)

    def test_identical_pair_diff_is_empty(self):
        doc = _seed_record("buscom", 0)
        out = diff_runs(doc, _seed_record("buscom", 0))
        assert out["alignment"]["mode"] == "identical"
        assert out["significant"] == 0 and out["deltas"] == []


def test_diff_of_mismatched_kinds_is_mixed_not_crash():
    a = build_run_record("experiment", "e1", config={}, stats={"v": 1})
    b = build_run_record("chaos", "c", config={}, stats={"v": 2})
    doc = diff_runs(a, b)
    assert doc["alignment"]["mode"] == "mixed"

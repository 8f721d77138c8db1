"""Experiment-harness regression tests: each paper claim must hold.

These are the paper-vs-measured assertions EXPERIMENTS.md reports; they
use reduced sizes where the full benchmark sweeps would be slow.
"""

import math

import pytest

from repro.analysis import experiments as E


class TestE1RmbocSetup:
    @pytest.fixture(scope="class")
    def result(self):
        return E.e1_rmboc_setup()

    def test_min_setup_is_8(self, result):
        assert result.min_setup == 8

    def test_measured_matches_model(self, result):
        assert result.matches_paper
        for dist, measured, model in result.rows:
            assert measured == model == 2 * dist + 6

    def test_upper_bound_2m_plus_4(self, result):
        assert result.upper_bound == result.model_upper_bound == 12


class TestE2Parallelism:
    @pytest.fixture(scope="class")
    def result(self):
        return E.e2_parallelism()

    def test_rmboc_reaches_s_times_k(self, result):
        observed, theoretical = result.rows["rmboc"]
        assert theoretical == 12
        assert observed == 12

    def test_buscom_limited_to_k(self, result):
        observed, theoretical = result.rows["buscom"]
        assert theoretical == 4
        assert observed == 4

    def test_rmboc_beats_buscom(self, result):
        assert result.rmboc_beats_buscom

    def test_nocs_within_link_bound(self, result):
        for key in ("dynoc", "conochi"):
            observed, theoretical = result.rows[key]
            assert 0 < observed <= theoretical


class TestE3EffectiveBandwidth:
    @pytest.fixture(scope="class")
    def result(self):
        return E.e3_effective_bandwidth()

    def test_buscom_90pct(self, result):
        assert result.close_to_claim("buscom")

    def test_conochi_90pct(self, result):
        assert result.close_to_claim("conochi")

    def test_rmboc_negligible_overhead(self, result):
        assert result.rows["rmboc"] > 0.99

    def test_sweep_monotone_in_payload(self, result):
        effs = [e for _, e in result.conochi_sweep]
        assert effs == sorted(effs)
        assert effs[-1] > 0.98  # 1024-byte packets nearly free


class TestE4LatencyScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return E.e4_latency_scaling()

    def test_dynoc_latency_grows_with_module_size(self, result):
        assert result.dynoc_latency_grows
        hops = [h for _, h, _ in result.dynoc_rows]
        assert hops == sorted(hops)

    def test_conochi_flat(self, result):
        assert result.conochi_latency_flat

    def test_rmboc_circuit_one_cycle_per_word(self, result):
        assert result.rmboc_established_cpw == 1.0


class TestE5AreaScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return E.e5_area_scaling()

    def test_table3_point_embedded(self, result):
        by4 = {k: dict(v)[4] for k, v in result.by_modules.items()}
        assert by4 == {"rmboc": 5084, "buscom": 1294,
                       "dynoc": 1480, "conochi": 1640}

    def test_conochi_beats_dynoc_for_large_modules(self, result):
        """§4.1: 'for a larger number of modules and larger module
        sizes, the area overhead of CoNoChi will be less than for
        DyNoC'."""
        assert result.conochi_beats_dynoc_for_large_modules

    def test_dynoc_grows_with_module_size_conochi_does_not(self, result):
        dynoc = [a for _, a in result.dynoc_by_size]
        conochi = [a for _, a in result.conochi_by_size]
        assert dynoc[-1] > dynoc[0]
        assert conochi[-1] == conochi[0]

    def test_all_grow_with_module_count(self, result):
        for series in result.by_modules.values():
            areas = [a for _, a in series]
            assert areas == sorted(areas)


class TestE6Reconfiguration:
    @pytest.fixture(scope="class")
    def result(self):
        return E.e6_reconfiguration()

    def test_all_architectures_swap(self, result):
        assert set(result.rows) == {"rmboc", "buscom", "dynoc", "conochi"}
        for row in result.rows.values():
            assert row["reconfig_cycles"] > 0

    def test_bystanders_survive_everywhere(self, result):
        for key in result.rows:
            assert result.survived(key)

    def test_bystander_latency_reasonable_during_swap(self, result):
        for key, row in result.rows.items():
            assert not math.isnan(row["bystander_mean_latency_during"])
            assert row["bystander_mean_latency_during"] < 200


class TestE6bConochiTopology:
    def test_switch_add_remove_without_stall(self):
        r = E.e6b_conochi_topology_change()
        assert r.added_ok and r.removed_ok
        assert r.messages_delivered > 50
        # latency must not degrade from the insertion
        assert r.mean_latency_after_add <= r.mean_latency_before * 1.2


class TestE7Load:
    def test_latency_increases_with_load(self):
        r = E.e7_bus_vs_noc(rates=(0.002, 0.04), horizon=2000)
        for series in r.rows.values():
            assert series[-1][1] >= series[0][1] * 0.9  # no magic speedup

    def test_module_scaling_buses_degrade_most(self):
        """§2.2: bus bandwidth shared as components increase; NoCs add
        links per module."""
        r = E.e7b_module_scaling(module_counts=(4, 8), horizon=2000)
        assert r.degradation("buscom") > r.degradation("dynoc")


class TestE11Realtime:
    """BUS-COM's design goal: TDMA slots guarantee the control loops'
    deadlines under bursty interference; RMBoC's dedicated circuits
    match it, and an arbitrated shared bus does not."""

    @pytest.fixture(scope="class")
    def result(self):
        return E.e11_realtime_study()

    def test_tdma_and_circuits_meet_deadlines(self, result):
        assert result.met_ratio("buscom") >= 0.99
        assert result.met_ratio("rmboc") >= 0.99

    def test_shared_bus_misses_more_than_buscom(self, result):
        assert result.met_ratio("sharedbus") < result.met_ratio("buscom")

"""Prometheus exposition / JSON snapshot export tests."""

import pytest

from repro.arch import build_architecture
from repro.obs import (
    Profiler,
    sanitize_metric_name,
    to_json_snapshot,
    to_prometheus_text,
    validate_exposition,
)
from repro.sim import Simulator


def _measured_sim(profile=False):
    sim = Simulator(name="unit")
    if profile:
        sim.profiler = Profiler()
    sim.stats.counter("model.msgs").inc(3)
    sim.stats.histogram("model.latency").extend([1, 2, 3, 4])
    sim.stats.series("model.load").record(0, 0.5)
    sim.run(10)
    return sim


class TestSanitizeMetricName:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("rmboc.channels.requested") == \
            "rmboc_channels_requested"

    def test_leading_digit_prefixed(self):
        assert sanitize_metric_name("9lives")[0] == "_"

    def test_valid_name_unchanged(self):
        assert sanitize_metric_name("kernel_sleeps") == "kernel_sleeps"


class TestToPrometheusText:
    def test_validates_and_has_expected_families(self):
        text = to_prometheus_text(_measured_sim())
        assert validate_exposition(text) > 10
        assert "repro_model_msgs_total 3" in text
        assert "repro_model_latency_count 4" in text
        assert 'quantile="0.95"' in text
        assert "repro_sim_final_cycle 10" in text
        assert "repro_kernel_cycles_stepped" in text

    def test_series_tail_with_cycle_label(self):
        text = to_prometheus_text(_measured_sim())
        assert 'repro_model_load_last{cycle="0"} 0.5' in text

    def test_profile_only_when_enabled(self):
        assert "profile_seconds" not in to_prometheus_text(_measured_sim())
        sim = _measured_sim(profile=True)
        # a step times ticks and event callbacks; give it one callback
        sim.after(0, lambda s: None)
        sim.step()
        text = to_prometheus_text(sim)
        assert "repro_profile_seconds" in text
        validate_exposition(text)

    def test_multi_sim_label(self):
        a, b = _measured_sim(), _measured_sim()
        b.name = "other"
        text = to_prometheus_text([a, b])
        assert 'sim="unit"' in text and 'sim="other"' in text
        validate_exposition(text)

    def test_namespace_override(self):
        text = to_prometheus_text(_measured_sim(), namespace="x")
        assert text.startswith("# HELP x_") or text.startswith("# TYPE x_")


class TestValidateExposition:
    def test_rejects_garbage_line(self):
        with pytest.raises(ValueError, match="not a valid sample"):
            validate_exposition("this is } not a metric\n")

    def test_rejects_bad_value(self):
        with pytest.raises(ValueError, match="unparseable value"):
            validate_exposition("ok_name not_a_number\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no samples"):
            validate_exposition("# HELP x y\n")

    def test_accepts_special_values(self):
        assert validate_exposition("a NaN\nb +Inf\nc{d=\"e\"} 1\n") == 3

    def test_accepts_braces_inside_label_values(self):
        # a naive {[^{}]*} body match rejected this legal sample
        assert validate_exposition('a{m="q{1}"} 1\n') == 1

    def test_accepts_escaped_specials_in_label_values(self):
        assert validate_exposition(
            'a{m="x\\"y"} 1\nb{m="x\\\\y"} 2\nc{m="x\\ny"} 3\n'
        ) == 3

    def test_rejects_unescaped_quote_in_label_value(self):
        with pytest.raises(ValueError, match="labels"):
            validate_exposition('a{m="x"y"} 1\n')

    def test_rejects_unescaped_backslash_in_label_value(self):
        with pytest.raises(ValueError, match="labels"):
            validate_exposition('a{m="x\\y"} 1\n')

    def test_rejects_unterminated_labels(self):
        with pytest.raises(ValueError):
            validate_exposition('a{m="x" 1\n')

    def test_accepts_timestamps(self):
        assert validate_exposition('a{m="x"} 1 1700000000\n') == 1


class TestLabelEscaping:
    def test_nasty_names_round_trip_through_validation(self):
        # module/sim names containing ", \ and newlines must come out
        # escaped so the exposition still parses
        sims = []
        for name in ('he said "hi"', "back\\slash", "new\nline"):
            sim = Simulator(name=name)
            sim.stats.counter("m").inc()
            sims.append(sim)
        text = to_prometheus_text(sims)
        assert validate_exposition(text) > 0
        assert '\\"hi\\"' in text
        assert "back\\\\slash" in text
        assert "new\\nline" in text


class TestToJsonSnapshot:
    def test_sections(self):
        snap = to_json_snapshot(_measured_sim())
        (entry,) = snap["simulators"]
        assert set(entry) >= {"name", "final_cycle", "fast_path", "stats",
                              "kernel", "tick_counts"}
        assert "profile" not in entry

    def test_profile_section_when_enabled(self):
        sim = _measured_sim(profile=True)
        sim.step()
        (entry,) = to_json_snapshot(sim)["simulators"]
        assert "profile" in entry


class TestArchitectureExport:
    @pytest.mark.parametrize("key", ("rmboc", "buscom", "dynoc", "conochi"))
    def test_each_arch_exposition_validates(self, key):
        sim = Simulator(name=key)
        arch = build_architecture(key, sim=sim)
        mods = list(arch.modules)
        arch.ports[mods[0]].send(mods[1], 64)
        arch.run_to_completion()
        assert validate_exposition(to_prometheus_text(sim)) > 0


class TestTelemetryExport:
    @pytest.mark.parametrize(
        "key",
        ("rmboc", "buscom", "dynoc", "conochi", "sharedbus", "staticmesh"),
    )
    def test_flow_and_link_series_per_arch(self, key):
        from repro.obs import AlertEngine, FlowTelemetry

        sim = Simulator(name=key)
        arch = build_architecture(key, sim=sim)
        tel = FlowTelemetry()
        tel.engine = AlertEngine()
        tel.attach(sim)
        mods = list(arch.modules)
        for _ in range(4):
            arch.ports[mods[0]].send(mods[1], 64)
        arch.run_to_completion()
        text = to_prometheus_text(sim)
        assert validate_exposition(text) > 0
        assert "repro_flow_latency_cycles" in text
        assert f'src="{mods[0]}"' in text
        assert "repro_link_utilization" in text
        assert "repro_alert_fired_total" in text
        assert "repro_alert_evaluations_total" in text

    def test_bucketed_histogram_sum_exported(self):
        # the summary series must come from the exact aggregates, not
        # from the (dict-shaped) bucketed snapshot state
        sim = Simulator(name="b")
        h = sim.stats.histogram("long.tail", mode="bucketed", exact_cap=4)
        h.extend(range(1, 11))
        text = to_prometheus_text(sim)
        assert validate_exposition(text) > 0
        assert "repro_long_tail_count 10" in text
        assert "repro_long_tail_sum 55" in text

"""RMBoC behavioural tests: circuit establishment, streaming, teardown."""

import pytest

from repro.arch.rmboc import ChannelState, RMBoCConfig, build_rmboc
from repro.core.metrics import probe_single_message


class TestSetupLatency:
    def test_adjacent_setup_is_8_cycles(self):
        """Table 2: 8-cycle minimum setup, then 1 word/cycle."""
        arch = build_rmboc()
        probe = probe_single_message(arch, "m0", "m1", payload_bytes=64)
        assert probe.setup_cycles == 8

    def test_setup_follows_2d_plus_6(self):
        for dist in (1, 2, 3):
            arch = build_rmboc()
            probe = probe_single_message(arch, "m0", f"m{dist}", 64)
            assert probe.setup_cycles == 2 * dist + 6

    def test_data_is_one_word_per_cycle(self):
        arch = build_rmboc()
        probe = probe_single_message(arch, "m0", "m1", payload_bytes=256)
        assert probe.cycles_per_word == 1.0

    def test_total_latency_is_setup_plus_words(self):
        arch = build_rmboc()
        probe = probe_single_message(arch, "m0", "m2", payload_bytes=128)
        assert probe.total_cycles == 10 + 32

    def test_direction_symmetry(self):
        a = probe_single_message(build_rmboc(), "m3", "m2", 64)
        b = probe_single_message(build_rmboc(), "m2", "m3", 64)
        assert a.total_cycles == b.total_cycles


class TestChannelLifecycle:
    def test_channel_destroyed_after_use(self):
        arch = build_rmboc()
        arch.ports["m0"].send("m1", 32)
        arch.run_to_completion()
        stats = arch.sim.stats
        assert stats.counter("rmboc.channels.established").value == 1
        assert stats.counter("rmboc.channels.destroyed").value == 1
        assert arch.lanes_in_use() == 0

    def test_back_to_back_messages_reuse_channel(self):
        """With a one-circuit budget, queued messages for the same
        destination share the circuit — only one establishment."""
        arch = build_rmboc(max_channels_per_module=1)
        for _ in range(4):
            arch.ports["m0"].send("m1", 64)
        arch.run_to_completion()
        assert arch.sim.stats.counter("rmboc.channels.established").value == 1

    def test_queued_messages_open_parallel_circuits_by_default(self):
        """Bandwidth adaptation: with the default budget (k), queued
        messages to one destination spread over parallel circuits."""
        arch = build_rmboc()
        for _ in range(4):
            arch.ports["m0"].send("m1", 64)
        arch.run_to_completion()
        assert arch.sim.stats.counter("rmboc.channels.established").value == 4

    def test_linger_keeps_channel_briefly(self):
        arch = build_rmboc(channel_linger=50)
        port = arch.ports["m0"]
        msg = port.send("m1", 32)
        arch.sim.run_until(lambda s: msg.delivered)
        # within the linger window: a second send reuses the circuit
        port.send("m1", 32)
        arch.run_to_completion(max_cycles=10_000)
        assert arch.sim.stats.counter("rmboc.channels.established").value == 1

    def test_idle_when_done(self):
        arch = build_rmboc()
        arch.ports["m0"].send("m3", 16)
        arch.run_to_completion()
        assert arch.idle()

    def test_lanes_freed_after_teardown(self):
        arch = build_rmboc()
        arch.ports["m0"].send("m3", 512)
        arch.run_to_completion()
        assert arch.lanes_in_use() == 0


class TestContention:
    def test_blocked_request_cancels_and_retries(self):
        """With one bus, a second overlapping channel request on the
        same segment must CANCEL and succeed on retry."""
        arch = build_rmboc(num_buses=1)
        arch.ports["m0"].send("m1", 512)
        arch.ports["m1"].send("m0", 512)  # same segment, opposite way
        arch.run_to_completion(max_cycles=50_000)
        stats = arch.sim.stats
        assert stats.counter("rmboc.cancel.blocked").value >= 1
        assert stats.counter("rmboc.channels.established").value == 2
        assert arch.log.all_delivered()

    def test_parallel_channels_on_disjoint_segments(self):
        """Single-bus RMBoC still does disjoint-segment parallelism."""
        arch = build_rmboc(num_buses=1)
        arch.ports["m0"].send("m1", 512)
        arch.ports["m2"].send("m3", 512)
        arch.run_to_completion()
        assert arch.observed_dmax == 2

    def test_bandwidth_adaptation_multiple_channels_per_pair(self):
        """RMBoC's flexibility credit: k parallel circuits per pair."""
        arch = build_rmboc()
        for _ in range(4):
            arch.ports["m0"].send("m1", 512)
        arch.run_to_completion()
        assert arch.sim.stats.counter("rmboc.channels.established").value == 4
        assert arch.observed_dmax == 4

    def test_channel_budget_respected(self):
        arch = build_rmboc(max_channels_per_module=2)
        for _ in range(6):
            arch.ports["m0"].send("m1", 128)
        arch.run_to_completion()
        assert arch.observed_dmax <= 2
        assert arch.log.all_delivered()

    def test_dmax_reaches_s_times_k(self):
        """§4.2: up to s*k = 12 concurrent transfers for m=4, k=4."""
        arch = build_rmboc()
        for i in range(3):
            for _ in range(4):
                arch.ports[f"m{i}"].send(f"m{i+1}", 2048)
        arch.run_to_completion()
        assert arch.observed_dmax == 12


class TestAttachDetach:
    def test_detach_with_queued_messages_raises(self):
        arch = build_rmboc()
        arch.ports["m0"].send("m1", 32)
        with pytest.raises(RuntimeError):
            arch.detach("m0")

    def test_refused_detach_leaves_module_attached(self):
        """A detach refused for queued traffic must leave the fabric
        untouched: the module keeps sending and its queue is kept."""
        arch = build_rmboc()
        arch.freeze_slot(0)
        held = arch.ports["m0"].send("m1", 32)
        with pytest.raises(RuntimeError):
            arch.detach("m0")
        arch.unfreeze_slot(0)
        later = arch.ports["m0"].send("m2", 32)
        arch.run_to_completion()
        assert held.delivered and later.delivered
        assert arch.xp_of("m0") == 0

    def test_detach_then_attach_new_module(self):
        arch = build_rmboc()
        arch.detach("m2")
        arch.attach("fresh", xp=2)
        msg = arch.ports["m0"].send("fresh", 32)
        arch.run_to_completion()
        assert msg.delivered

    def test_message_waits_for_detached_destination(self):
        arch = build_rmboc()
        arch.detach("m3")
        msg = arch.ports["m0"].send("m3", 32)
        arch.sim.run(200)
        assert not msg.delivered
        arch.attach("m3", xp=3)
        arch.run_to_completion()
        assert msg.delivered

    def test_attach_occupied_crosspoint_raises(self):
        arch = build_rmboc()
        with pytest.raises(ValueError):
            arch.attach("extra", xp=0)

    def test_attach_out_of_range_raises(self):
        arch = build_rmboc()
        arch.detach("m0")
        with pytest.raises(ValueError):
            arch.attach("x", xp=9)

    def test_send_from_unattached_raises(self):
        arch = build_rmboc()
        port = arch.ports["m1"]
        arch.detach("m1")
        with pytest.raises(KeyError):
            port.send("m0", 8)


class TestFreeze:
    def test_frozen_crosspoint_cancels_new_requests(self):
        """§3.1: frozen cross-points serve only established channels."""
        arch = build_rmboc()
        arch.freeze_slot(1)
        msg = arch.ports["m0"].send("m2", 32)  # path crosses XP1
        arch.sim.run(100)
        assert not msg.delivered
        assert arch.sim.stats.counter("rmboc.cancel.frozen").value >= 1
        arch.unfreeze_slot(1)
        arch.run_to_completion()
        assert msg.delivered

    def test_established_channel_survives_freeze(self):
        """Traffic on an existing circuit keeps flowing through a frozen
        cross-point."""
        arch = build_rmboc(channel_linger=10_000)
        msg1 = arch.ports["m0"].send("m2", 64)
        arch.sim.run_until(lambda s: msg1.delivered)
        arch.freeze_slot(1)
        msg2 = arch.ports["m0"].send("m2", 64)  # reuses the circuit
        arch.sim.run_until(lambda s: msg2.delivered, max_cycles=5_000)
        assert msg2.latency == 16  # 64 B = 16 words, no setup

    def test_frozen_source_holds_traffic(self):
        arch = build_rmboc()
        arch.freeze_slot(0)
        msg = arch.ports["m0"].send("m1", 32)
        arch.sim.run(100)
        assert not msg.delivered
        arch.unfreeze_slot(0)
        arch.run_to_completion()
        assert msg.delivered


class TestMetadata:
    def test_descriptor_matches_table1(self):
        from repro.core.parameters import PAPER_TABLE_1

        assert build_rmboc().descriptor() == PAPER_TABLE_1["RMBoC"]

    def test_area_and_fmax(self):
        arch = build_rmboc()
        assert arch.area_slices() == 5084
        assert arch.fmax_hz() == pytest.approx(94e6)

    def test_xp_of(self):
        arch = build_rmboc()
        assert arch.xp_of("m2") == 2
        assert arch.module_at(2) == "m2"


class TestLaneTelemetry:
    def _run(self, **cfg):
        from repro.obs.flows import FlowTelemetry
        from repro.sim import Simulator

        sim = Simulator()
        FlowTelemetry().attach(sim)
        return build_rmboc(sim=sim, **cfg)

    def test_busy_cycles_land_in_the_windows_the_words_move_in(self):
        arch = self._run()
        msg = arch.ports["m0"].send("m1", 4096)
        arch.sim.run(2_100)
        assert (msg.accepted_cycle, msg.delivered_cycle) == (8, 1032)
        lane = arch.sim.telemetry.links["rmboc.lane.s0b0"]
        lane.utilization(arch.sim.cycle)  # close the window before now
        # 1,015 of the 1,024 words move in window 0, nine in the next
        assert list(lane.series) == [(0, 1015 / 1024), (1024, 9 / 1024)]
        assert lane.busy_cycles == 1024

    def test_dead_crosspoint_takes_back_the_words_never_moved(self):
        arch = self._run()
        msg = arch.ports["m0"].send("m2", 4096)
        arch.sim.run(100)
        assert arch.fail_crosspoint(1) == [msg]
        arch.sim.run(100)
        # accepted at 10, words moved on cycles 11..99 only
        for seg in (0, 1):
            lane = arch.sim.telemetry.links[f"rmboc.lane.s{seg}b0"]
            assert lane.busy_cycles == 100 - 1 - msg.accepted_cycle


class TestTracing:
    def test_fault_ends_an_established_circuits_spans_once(self):
        from repro.sim import Simulator, Tracer

        sim = Simulator()
        sim.tracer = Tracer()
        arch = build_rmboc(sim=sim, channel_linger=500)
        arch.ports["m0"].send("m2", 4096)
        sim.at(100, lambda _s: arch.fail_crosspoint(1))
        sim.run(200)
        tracer = sim.tracer
        assert tracer.unmatched_span_ends == 0
        circuit, = tracer.query_spans(kind="circuit")
        setup, = tracer.query_spans(kind="setup")
        assert setup.data["status"] == "established"
        assert circuit.data["status"] == "cancelled"
        assert circuit.end == 100

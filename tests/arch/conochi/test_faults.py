"""CoNoChi fault-injection tests: unplanned switch loss and recovery,
driven through the unified :mod:`repro.faults` injector."""

from repro.arch import build_architecture
from repro.faults import FaultKind, FaultSchedule, inject
from repro.traffic.generators import PeriodicStream


def ladder_arch():
    """Six modules on a 3+3 ladder: redundant paths exist."""
    return build_architecture("conochi", num_modules=7)


def fail_switch(arch, coord, at=0, duration=None, detection_latency=None):
    """One ``NODE_DOWN`` of the switch at ``coord``; no retransmission,
    so every loss stays explicit in the message log."""
    sched = FaultSchedule(seed=0).one_shot(at, FaultKind.NODE_DOWN, coord,
                                           duration=duration)
    return inject(arch, sched, detection_latency=detection_latency,
                  retransmit=False)


class TestInjection:
    def test_packets_dropped_before_detection(self):
        """Between failure and detection, traffic through the switch is
        lost — and accounted for."""
        arch = build_architecture("conochi", num_modules=4)  # chain
        fail_switch(arch, (2, 1), detection_latency=10_000)  # mid-chain
        msg = arch.ports["m0"].send("m3", 64)
        arch.sim.run(500)
        assert msg.dropped
        assert not msg.delivered
        assert arch.sim.stats.counter("fault.msg.dropped").value >= 1

    def test_reroute_after_detection_on_redundant_topology(self):
        """The ladder offers a second path: after detection, traffic
        between healthy modules flows again."""
        arch = ladder_arch()
        # fail a bottom-rail middle switch; the top rail bypasses it
        inj = fail_switch(arch, (2, 2), detection_latency=50)
        arch.sim.run(inj.detection_latency + 2)
        msg = arch.ports["m0"].send("m1", 32)  # (1,2) -> (1,3) via rung
        arch.sim.run_until(lambda s: msg.delivered or msg.dropped,
                           max_cycles=10_000)
        assert msg.delivered

    def test_module_at_failed_switch_unreachable(self):
        arch = ladder_arch()
        victim_switch = arch._module_switch["m1"]
        inj = fail_switch(arch, victim_switch, detection_latency=20)
        arch.sim.run(inj.detection_latency + 2)
        assert inj.node_dead(victim_switch)
        msg = arch.ports["m0"].send("m1", 32)
        arch.sim.run(2_000)
        assert msg.dropped and not msg.delivered

    def test_repair_restores_reachability(self):
        arch = ladder_arch()
        victim_switch = arch._module_switch["m1"]
        fail_switch(arch, victim_switch, duration=100, detection_latency=20)
        arch.sim.run(100 + arch.cfg.table_update_latency + 2)
        msg = arch.ports["m0"].send("m1", 32)
        arch.sim.run_until(lambda s: msg.delivered or msg.dropped,
                           max_cycles=10_000)
        assert msg.delivered


class TestContinuity:
    def test_stream_survives_transient_fault(self):
        """A stream between healthy endpoints loses packets only in the
        detection window; afterwards delivery resumes with zero loss."""
        arch = ladder_arch()
        # m0@(1,2) -> m5@(3,3): failing (2,2) leaves the top-rail path
        inj = fail_switch(arch, (2, 2), at=1000, detection_latency=100)
        stream = PeriodicStream("s", arch.ports["m0"], "m5",
                                period=50, payload_bytes=32, stop=6000)
        arch.sim.add(stream)
        arch.sim.run(1000)
        arch.sim.run(5000)
        arch.sim.run_until(
            lambda s: all(m.delivered or m.dropped for m in stream.sent),
            max_cycles=100_000,
        )
        dropped = [m for m in stream.sent if m.dropped]
        late = [m for m in stream.sent
                if m.created_cycle > 1000 + inj.detection_latency + 50]
        assert late and all(m.delivered for m in late)
        # losses confined to the detection window
        assert all(
            1000 <= m.created_cycle <= 1000 + inj.detection_latency + 50
            for m in dropped
        )

    def test_log_accounting_with_drops(self):
        arch = build_architecture("conochi", num_modules=4)
        # m3's route crosses (3,1); m0->m1 does not
        fail_switch(arch, (3, 1), detection_latency=10_000)
        arch.ports["m0"].send("m3", 64)
        ok = arch.ports["m0"].send("m1", 64)  # one hop, unaffected
        arch.sim.run(1_000)
        assert arch.log.all_delivered()  # dropped counts as resolved
        assert len(arch.log.dropped()) == 1
        assert ok.delivered

    def test_detection_latency_honored_under_fast_path(self):
        """Regression: the control unit's detection timer is a timed
        wake, so the kernel's quiescent fast-forward must not jump past
        it.  With no traffic in flight during the detection window, a
        fast-path run used to risk recovering late (or never); the
        recovery must land at exactly fail + detection_latency on both
        paths, bit-identically."""
        from repro.sim import Simulator

        def run(fast):
            sim = Simulator(name=f"cono-fp-{fast}", fast_path=fast)
            arch = build_architecture("conochi", num_modules=7, sim=sim)
            fail_switch(arch, (2, 2), at=1_000, detection_latency=100)
            # the fabric is fully quiescent over [1000, 1101): the only
            # pending work is the injector's detection wake at 1100.  A
            # message at 1101 routes m0 -> m5 over the detour tables,
            # which exist only if that wake actually fired on time.
            sim.at(1_101, lambda s: arch.ports["m0"].send("m5", 32))
            sim.run(20_000)
            return sim.stats.snapshot(), len(arch.log.delivered())

        snap_fast, delivered_fast = run(True)
        snap_slow, delivered_slow = run(False)
        assert delivered_fast == delivered_slow == 1
        assert snap_fast == snap_slow

    def test_multi_fragment_message_drop_is_clean(self):
        """Losing one fragment must not leave orphaned reassembly state
        or mis-deliver the message."""
        arch = build_architecture("conochi", num_modules=4)
        fail_switch(arch, (2, 1), detection_latency=10_000)
        msg = arch.ports["m0"].send("m3", 3000)  # 3 fragments
        arch.sim.run(2_000)
        assert msg.dropped and not msg.delivered
        assert msg.mid not in arch._landed_fragments

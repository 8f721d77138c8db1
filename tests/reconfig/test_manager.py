"""Reconfiguration-manager tests: swaps on every architecture."""

import pytest

from repro.arch import ARCHITECTURES, build_architecture
from repro.fabric.device import get_device
from repro.fabric.geometry import Rect
from repro.reconfig import ModuleSpec, ReconfigurationManager


REGION = Rect(0, 0, 4, 96)


def manager_for(arch):
    return ReconfigurationManager(arch, get_device("XC2V6000"))


@pytest.mark.parametrize("name", ARCHITECTURES)
class TestSwap:
    def test_swap_replaces_module(self, name):
        arch = build_architecture(name)
        mgr = manager_for(arch)
        record = mgr.swap("m0", ModuleSpec("m0b"), REGION)
        arch.sim.run_until(lambda s: record.done, max_cycles=2_000_000)
        assert "m0b" in arch.modules
        assert "m0" not in arch.modules

    def test_new_module_is_reachable(self, name):
        arch = build_architecture(name)
        mgr = manager_for(arch)
        record = mgr.swap("m0", ModuleSpec("m0b"), REGION)
        arch.sim.run_until(lambda s: record.done, max_cycles=2_000_000)
        msg = arch.ports["m1"].send("m0b", 16)
        arch.run_to_completion()
        assert msg.delivered

    def test_swap_waits_for_quiesce(self, name):
        """A swap requested while the module is mid-transfer must not
        detach it until the transfer drains."""
        arch = build_architecture(name)
        mgr = manager_for(arch)
        msg = arch.ports["m0"].send("m1", 512)
        record = mgr.swap("m0", ModuleSpec("m0b"), REGION)
        arch.sim.run_until(lambda s: record.done, max_cycles=2_000_000)
        assert msg.delivered
        assert record.detach_cycle >= msg.delivered_cycle

    def test_record_accounting(self, name):
        arch = build_architecture(name)
        mgr = manager_for(arch)
        record = mgr.swap("m0", ModuleSpec("m0b"), REGION)
        arch.sim.run_until(lambda s: record.done, max_cycles=2_000_000)
        assert record.reconfig_cycles > 0
        assert record.downtime_cycles >= record.reconfig_cycles
        assert record.total_cycles >= record.downtime_cycles
        assert arch.sim.stats.counter("reconfig.swaps").value == 1

    def test_bystander_traffic_survives(self, name):
        """§4: communication between unaffected modules continues."""
        arch = build_architecture(name)
        mgr = manager_for(arch)
        record = mgr.swap("m0", ModuleSpec("m0b"), REGION)
        sent = []
        # inject bystander messages periodically during the swap
        def pump(sim):
            if not record.done:
                sent.append(arch.ports["m2"].send("m3", 16))
                sim.after(200, pump)

        arch.sim.after(10, pump)
        arch.sim.run_until(lambda s: record.done, max_cycles=2_000_000)
        arch.sim.run_until(
            lambda s: all(m.delivered for m in sent) and arch.idle(),
            max_cycles=2_000_000,
        )
        assert sent and all(m.delivered for m in sent)


class TestSerialization:
    def test_two_swaps_share_the_config_port(self):
        arch = build_architecture("buscom")
        mgr = manager_for(arch)
        r1 = mgr.swap("m0", ModuleSpec("m0b"), REGION)
        r2 = mgr.swap("m1", ModuleSpec("m1b"), Rect(4, 0, 4, 96))
        arch.sim.run_until(lambda s: r1.done and r2.done,
                           max_cycles=4_000_000)
        # strictly serialized: second starts after the first finishes
        assert r2.detach_cycle >= r1.attach_cycle
        assert set(arch.modules) == {"m0b", "m1b", "m2", "m3"}

    def test_busy_flag(self):
        arch = build_architecture("buscom")
        mgr = manager_for(arch)
        assert not mgr.busy
        record = mgr.swap("m0", ModuleSpec("m0b"), REGION)
        assert mgr.busy
        arch.sim.run_until(lambda s: record.done, max_cycles=2_000_000)
        assert not mgr.busy


class TestTiming:
    def test_reconfig_cycles_match_bitstream_model(self):
        arch = build_architecture("rmboc")
        mgr = manager_for(arch)
        expected = mgr.timing.cycles(REGION, arch.fmax_hz())
        record = mgr.swap("m0", ModuleSpec("m0b"), REGION)
        arch.sim.run_until(lambda s: record.done, max_cycles=2_000_000)
        assert record.reconfig_cycles == expected

    def test_wider_region_longer_downtime(self):
        def downtime(cols):
            arch = build_architecture("buscom")
            mgr = manager_for(arch)
            record = mgr.swap("m0", ModuleSpec("m0b"),
                              Rect(0, 0, cols, 96))
            arch.sim.run_until(lambda s: record.done, max_cycles=4_000_000)
            return record.downtime_cycles

        assert downtime(8) > downtime(2)

    def test_quiesce_timeout_aborts_gracefully(self):
        """Traffic that never stops trips the deadline; the swap is
        dropped with an alert and the system keeps running on the old
        module instead of raising mid-simulation."""
        arch = build_architecture("buscom")
        mgr = ReconfigurationManager(arch, get_device("XC2V6000"),
                                     quiesce_timeout=500)

        def pump(sim):
            # large back-to-back frames keep m0's inbound traffic
            # permanently in flight
            arch.ports["m1"].send("m0", 2048)
            sim.after(10, pump)

        arch.sim.after(0, pump)
        record = mgr.swap("m0", ModuleSpec("m0b"), REGION)
        arch.sim.run(5_000)
        assert record.aborted
        assert not record.done
        assert "m0" in arch.modules          # old module still in service
        assert "m0b" not in arch.modules
        assert not mgr.busy                  # config port freed for later ops
        assert arch.sim.stats.counter(
            "reconfig.quiesce_aborted").value == 1


class TestModuleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModuleSpec("")
        with pytest.raises(ValueError):
            ModuleSpec("x", width=0)
        with pytest.raises(ValueError):
            ModuleSpec("x", slices=-1)

    def test_cells_and_fit(self):
        spec = ModuleSpec("x", width=3, height=2, slices=100)
        assert spec.cells == 6
        assert spec.fits_in_slices(100)
        assert not spec.fits_in_slices(99)

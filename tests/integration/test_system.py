"""ReconfigurableSystem facade tests."""

import pytest

from repro.reconfig import ModuleSpec
from repro.system import ReconfigurableSystem


class TestConstruction:
    @pytest.mark.parametrize("name", ["rmboc", "buscom", "dynoc", "conochi"])
    def test_builds_on_default_device(self, name):
        system = ReconfigurableSystem(name)
        assert system.device.name == "XC2V6000"
        assert len(system.arch.modules) == 4

    def test_slot_floorplan_for_buses(self):
        system = ReconfigurableSystem("rmboc")
        assert system.floorplan is not None
        assert len(system.floorplan) == 4

    def test_no_slot_floorplan_for_nocs(self):
        system = ReconfigurableSystem("conochi")
        assert system.floorplan is None


class TestRegions:
    def test_bus_regions_are_full_height_slots(self):
        system = ReconfigurableSystem("buscom")
        region = system.region_of("m0")
        assert region.h == system.device.clb_rows

    def test_bus_regions_disjoint(self):
        system = ReconfigurableSystem("rmboc")
        regions = [system.region_of(m) for m in system.arch.modules]
        for a in regions:
            for b in regions:
                if a != b:
                    assert not a.overlaps(b)

    def test_noc_regions_scale_tiles_to_clbs(self):
        system = ReconfigurableSystem("dynoc")
        region = system.region_of("m0")
        assert region.w == 4 and region.h == 4  # 1 PE = 4x4 CLBs

    def test_conochi_module_region(self):
        system = ReconfigurableSystem("conochi")
        region = system.region_of("m0")
        assert region.area_clbs == 16

    def test_unknown_module_raises(self):
        system = ReconfigurableSystem("rmboc")
        with pytest.raises(KeyError):
            system.region_of("ghost")


class TestSwap:
    @pytest.mark.parametrize("name", ["rmboc", "buscom", "dynoc", "conochi"])
    def test_one_call_swap(self, name):
        system = ReconfigurableSystem(name)
        record = system.swap("m0", ModuleSpec("m0b"))
        system.sim.run_until(lambda s: record.done, max_cycles=2_000_000)
        assert "m0b" in system.arch.modules

    def test_floorplan_tracks_occupant(self):
        system = ReconfigurableSystem("rmboc")
        record = system.swap("m1", ModuleSpec("fancy"))
        system.sim.run_until(lambda s: record.done, max_cycles=2_000_000)
        system.sim.run(128)  # bookkeeping poll
        assert system.floorplan.slot_of("fancy").index == 1

    def test_slot_frozen_during_swap(self):
        system = ReconfigurableSystem("rmboc")
        system.swap("m1", ModuleSpec("fancy"))
        assert system.floorplan.slot_of("m1").frozen


@pytest.mark.parametrize("name", ["rmboc", "buscom"])
class TestSwapOutcomes:
    """The slot bookkeeping follows what the manager actually did, and
    the caller hears about it exactly once."""

    def test_on_done_runs_once(self, name):
        system = ReconfigurableSystem(name)
        calls = []
        record = system.swap("m1", ModuleSpec("fancy"), on_done=calls.append)
        system.sim.run_until(lambda s: record.done, max_cycles=2_000_000)
        system.sim.run(1_000)
        assert calls == [record]
        slot = system.floorplan.slot_of("fancy")
        assert slot.index == 1 and not slot.frozen

    def test_rolled_back_swap_keeps_the_slot(self, name):
        system = ReconfigurableSystem(name)
        region = system.region_of("m1")
        system.manager.max_retries = 0
        system.manager.fault_corrupt_next()
        calls = []
        record = system.swap("m1", ModuleSpec("fancy"), on_done=calls.append)
        system.sim.run_until(lambda s: record.done, max_cycles=8_000_000)
        system.sim.run(1_000)
        assert record.rolled_back and calls == [record]
        assert "m1" in system.arch.modules
        assert system.region_of("m1") == region
        assert not system.floorplan.slot_of("m1").frozen
        with pytest.raises(KeyError):
            system.region_of("fancy")

    def test_aborted_swap_unfreezes_the_slot(self, name):
        system = ReconfigurableSystem(name)
        system.manager.quiesce_timeout = 500
        system.manager.fault_stick_quiesce(1_000)
        calls = []
        record = system.swap("m1", ModuleSpec("fancy"), on_done=calls.append)
        system.sim.run(2_000)
        assert record.aborted and calls == [record]
        slot = system.floorplan.slot_of("m1")
        assert not slot.frozen
        assert not system.manager.busy


class TestReporting:
    def test_module_fits(self):
        system = ReconfigurableSystem("rmboc")
        slot_slices = system.region_of("m0").area_slices
        assert system.module_fits(ModuleSpec("ok", slices=slot_slices), "m0")
        assert not system.module_fits(
            ModuleSpec("big", slices=slot_slices + 1), "m0"
        )

    def test_interconnect_utilization_in_published_range(self):
        """RMBoC's §3.1 range: 4-15 % of the XC2V6000."""
        system = ReconfigurableSystem("rmboc")
        assert 0.04 <= system.interconnect_utilization() <= 0.155

    def test_report_text(self):
        system = ReconfigurableSystem("buscom")
        text = system.report()
        assert "XC2V6000" in text
        assert "m0" in text and "m3" in text
        assert "%" in text

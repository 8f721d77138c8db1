"""Static baseline tests: shared bus and static mesh."""

from collections import Counter

import pytest

from repro.arch import build_architecture
from repro.arch.baselines import build_sharedbus, build_staticmesh
from repro.core.metrics import probe_single_message
from repro.obs.flows import FlowTelemetry


class TestSharedBus:
    def test_dmax_is_one(self):
        arch = build_sharedbus()
        assert arch.theoretical_dmax() == 1
        for i in range(4):
            arch.ports[f"m{i}"].send(f"m{(i + 1) % 4}", 256)
        arch.run_to_completion()
        assert arch.observed_dmax == 1

    def test_transfers_serialize(self):
        arch = build_sharedbus()
        a = arch.ports["m0"].send("m1", 256)
        b = arch.ports["m2"].send("m3", 256)
        arch.run_to_completion()
        # non-overlapping: the second is granted no earlier than the
        # first's final delivery cycle
        assert b.accepted_cycle >= a.delivered_cycle or \
            a.accepted_cycle >= b.delivered_cycle

    def test_latency_is_grant_addr_payload(self):
        arch = build_sharedbus()
        probe = probe_single_message(arch, "m0", "m1", 64)
        # 2 grant + 1 addr + 16 words, minus 1 (delivery on last word)
        assert probe.total_cycles == 2 + 1 + 16 - 1

    def test_telemetry_counts_the_cycles_a_halted_burst_held(self):
        arch = build_sharedbus()
        sim = arch.sim
        tel = FlowTelemetry(window=64).attach(sim)
        msg = arch.ports["m0"].send("m1", 2048)  # 515 bus cycles
        sim.at(300, lambda _s: arch.halt_bus())
        sim.run(1_000)
        link = tel.links["sharedbus.bus"]
        link.utilization(sim.cycle)  # close the windows
        # the burst held the bus from the cycle after its grant to the
        # halt; each window counts the cycles that fall in it
        held = Counter(c // 64 * 64
                       for c in range(msg.accepted_cycle + 1, 300))
        assert link.busy_cycles == sum(held.values())
        assert list(link.series) == [(w, n / 64)
                                     for w, n in sorted(held.items())]

    def test_round_robin_fairness(self):
        arch = build_sharedbus()
        msgs = [arch.ports[f"m{i}"].send(f"m{(i + 1) % 4}", 64)
                for i in range(4)]
        arch.run_to_completion()
        order = sorted(range(4), key=lambda i: msgs[i].accepted_cycle)
        assert order == [0, 1, 2, 3]

    def test_runtime_attach_raises(self):
        arch = build_sharedbus()
        arch.sim.run(1)
        with pytest.raises(RuntimeError):
            arch.attach("late")

    def test_detach_raises(self):
        arch = build_sharedbus()
        with pytest.raises(RuntimeError):
            arch.detach("m0")

    def test_cheapest_area_of_all(self):
        shared = build_sharedbus().area_slices()
        for name in ("rmboc", "buscom", "dynoc", "conochi"):
            assert shared < build_architecture(name).area_slices()

    def test_descriptor(self):
        d = build_sharedbus().descriptor()
        assert d.arch_type == "Bus"
        assert d.name == "SharedBus"


class TestStaticMesh:
    def test_transport_matches_dynoc(self):
        """Same router pipeline: identical latency on identical meshes."""
        static = build_staticmesh(num_modules=4, mesh=(4, 1))
        dynoc = build_architecture("dynoc", num_modules=4, mesh=(4, 1))
        p_static = probe_single_message(static, "m0", "m3", 64)
        p_dynoc = probe_single_message(dynoc, "m0", "m3", 64)
        assert p_static.total_cycles == p_dynoc.total_cycles

    def test_cheaper_and_faster_than_dynoc(self):
        static = build_staticmesh()
        dynoc = build_architecture("dynoc")
        assert static.area_slices() < dynoc.area_slices()
        assert static.fmax_hz() > dynoc.fmax_hz()

    def test_detach_raises(self):
        arch = build_staticmesh()
        with pytest.raises(RuntimeError):
            arch.detach("m0")

    def test_runtime_placement_raises(self):
        from repro.fabric.geometry import Rect

        arch = build_staticmesh(num_modules=2, mesh=(4, 4))
        arch.sim.run(1)
        with pytest.raises(RuntimeError):
            arch.place_module("late", Rect(3, 3, 1, 1))

    def test_multi_pe_module_raises(self):
        from repro.fabric.geometry import Rect

        arch = build_staticmesh(num_modules=0, mesh=(6, 6))
        with pytest.raises(ValueError):
            arch.place_module("big", Rect(2, 2, 2, 2))

    def test_descriptor_fixed_shape(self):
        from repro.core.parameters import ModuleShape

        d = build_staticmesh().descriptor()
        assert d.module_size is ModuleShape.FIXED


class TestE10:
    def test_reconfigurability_tax(self):
        from repro.analysis.experiments import e10_reconfigurability_tax

        result = e10_reconfigurability_tax()
        assert result.static_cannot_reconfigure
        assert result.tax("rmboc", "area_tax") > result.tax("dynoc", "area_tax")
        for arch in result.rows:
            assert result.tax(arch, "area_tax") > 1.0

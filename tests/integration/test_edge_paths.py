"""Edge-path coverage: failure modes and rarely-hit branches."""

import pytest

from repro.arch import build_architecture
from repro.sim import SimError


class TestRunToCompletionFailure:
    def test_undeliverable_traffic_fails_loudly(self):
        """A message to a permanently absent destination trips the
        cycle bound instead of hanging."""
        arch = build_architecture("buscom")
        arch.detach("m3")
        arch.ports["m0"].send("m3", 16)
        with pytest.raises(SimError):
            arch.run_to_completion(max_cycles=2_000)


class TestBuilderEdges:
    def test_dynoc_full_mesh_rejects_extra_module(self):
        arch = build_architecture("dynoc", num_modules=4)  # 2x2 full
        with pytest.raises(ValueError):
            arch.attach("extra")

    def test_conochi_standard_grid_overrides(self):
        from repro.arch.conochi.arch import standard_grid

        grid = standard_grid(3, cols=10, rows=6)
        assert grid.cols == 10 and grid.rows == 6
        assert len(grid.switches()) == 3

    def test_conochi_ladder_grid_split(self):
        from repro.arch.conochi.arch import ladder_grid

        grid = ladder_grid(9)
        assert len(grid.switches()) == 9
        assert grid.is_connected()

    def test_conochi_too_few_switches_raises(self):
        from repro.arch.conochi import build_conochi
        from repro.arch.conochi.arch import standard_grid

        with pytest.raises(ValueError):
            build_conochi(num_modules=5, grid=standard_grid(3))

    @pytest.mark.parametrize("name, shown", [
        ("rmboc", "RMBoC needs at least 2 modules"),
        ("buscom", "BUS-COM needs at least 2 modules"),
        ("sharedbus", "need at least 2 modules"),
        ("dynoc", "num_modules must be >= 0, got -2"),
        ("staticmesh", "num_modules must be >= 0, got -2"),
        ("conochi", "num_modules must be >= 0, got -2"),
    ])
    def test_negative_module_count_is_named(self, name, shown):
        with pytest.raises(ValueError, match=shown):
            build_architecture(name, num_modules=-2)

    def test_rmboc_explicit_config_object(self):
        from repro.arch.rmboc import RMBoCConfig, build_rmboc

        cfg = RMBoCConfig(num_modules=3, num_buses=2, width=16)
        arch = build_rmboc(cfg=cfg)
        assert arch.modules == ("m0", "m1", "m2")
        assert arch.width == 16


class TestPortEdges:
    def test_send_to_self_raises(self):
        arch = build_architecture("buscom")
        with pytest.raises(ValueError):
            arch.ports["m0"].send("m0", 8)

    def test_send_zero_bytes_raises(self):
        arch = build_architecture("buscom")
        with pytest.raises(ValueError):
            arch.ports["m0"].send("m1", 0)


class TestConfigEdges:
    def test_buscom_empty_minislot_with_zero_guard(self):
        from repro.arch.buscom import BusComConfig

        cfg = BusComConfig(guard_cycles=0)
        assert cfg.empty_dynamic_slot_cycles == 1  # never zero-length

    def test_dynoc_ttl_budget(self):
        from repro.arch.dynoc import DyNoCConfig

        cfg = DyNoCConfig(mesh_cols=5, mesh_rows=3)
        assert cfg.ttl_hops == 8 * 8

    def test_conochi_single_fragment_boundary(self):
        from repro.arch.conochi import CoNoChiConfig

        cfg = CoNoChiConfig()
        assert cfg.fragments(cfg.max_payload_bytes) == 1
        assert cfg.fragments(cfg.max_payload_bytes + 1) == 2

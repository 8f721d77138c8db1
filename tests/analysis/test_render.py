"""Figure-renderer tests: drawings must match live model state."""

from repro.arch import build_architecture
from repro.analysis.render import (
    render_buscom_figure,
    render_conochi_figure,
    render_dynoc_figure,
    render_rmboc_figure,
)
from repro.fabric.geometry import Rect
from repro.sim import Simulator

#: one reserved segment of Figure 1 (the legend also shows a ``#``)
RESERVED = "#" * 9


class TestFigure1:
    def test_shows_modules_and_crosspoints(self):
        text = render_rmboc_figure(build_architecture("rmboc"))
        for token in ("m0", "m3", "XP0", "XP3", "bus0", "bus3"):
            assert token in text

    def test_reserved_segments_marked(self):
        arch = build_architecture("rmboc")
        arch.ports["m0"].send("m3", 4096)
        arch.sim.run(20)  # circuit established, streaming
        text = render_rmboc_figure(arch)
        assert RESERVED in text  # reserved lanes drawn differently

    def test_lone_plan_lanes_drawn_as_on_the_stepped_kernel(self):
        # sent while the fabric sleeps, the fast kernel plans the
        # message by its zero-load law instead of reserving lanes
        frames = {}
        for fast_path in (True, False):
            arch = build_architecture(
                "rmboc", sim=Simulator(fast_path=fast_path))
            arch.sim.run(5)
            arch.ports["m0"].send("m3", 32)
            assert (arch._lone is not None) == fast_path
            frames[fast_path] = []
            for _ in range(40):
                arch.sim.run(1)
                frames[fast_path].append(render_rmboc_figure(arch))
        assert frames[True] == frames[False]
        assert any(RESERVED in text for text in frames[True])
        assert RESERVED not in frames[True][-1]

    def test_free_slot_rendered(self):
        arch = build_architecture("rmboc")
        arch.detach("m1")
        assert "(free)" in render_rmboc_figure(arch)


class TestFigure2:
    def test_shows_interfaces_and_arbiter(self):
        text = render_buscom_figure(build_architecture("buscom"))
        assert text.count("BUS-COM") == 4
        assert "Arbiter" in text
        assert "16 static / 16 dynamic" in text


class TestFigure3:
    def test_mesh_dimensions(self):
        arch = build_architecture("dynoc", num_modules=0, mesh=(5, 5))
        text = render_dynoc_figure(arch)
        assert len(text.splitlines()) == 6  # 5 rows + legend

    def test_obstacle_routers_absent(self):
        arch = build_architecture("dynoc", num_modules=0, mesh=(5, 5))
        arch.attach("a", rect=Rect(1, 1, 2, 2))
        text = render_dynoc_figure(arch)
        # module interior rendered lower-case without R
        assert "a " in text
        assert "·R" in text


class TestFigure4:
    def test_tile_symbols(self):
        text = render_conochi_figure(build_architecture("conochi"))
        assert "S" in text and "M" in text and "0" in text
        assert "m0@(1, 1)" in text

    def test_wire_tiles_after_topology_change(self):
        from repro.fabric.tiles import TileType

        arch = build_architecture("conochi")
        arch.add_switch((2, 3), wires=[((2, 2), TileType.VWIRE)])
        text = render_conochi_figure(arch)
        assert "V" in text

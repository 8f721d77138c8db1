"""CoNoChi topology-library and TileGrid.parse tests."""

from collections import deque

import pytest

from repro.arch.conochi import build_conochi
from repro.arch.conochi.topologies import chain, ring, spaced_mesh, star
from repro.fabric.tiles import TileGrid, TileType


class TestParse:
    def test_round_trip(self):
        grid = chain(3, spacing=2)
        reparsed = TileGrid.parse(grid.render())
        assert reparsed.render() == grid.render()
        assert reparsed.switches() == grid.switches()
        assert reparsed.links() == grid.links()

    def test_parse_orientation(self):
        grid = TileGrid.parse("S 0\n0 V")
        # top line is the higher row
        assert grid.get(0, 1) is TileType.SWITCH
        assert grid.get(1, 0) is TileType.VWIRE

    def test_ragged_raises(self):
        with pytest.raises(ValueError):
            TileGrid.parse("S 0\n0")

    def test_unknown_symbol_raises(self):
        with pytest.raises(ValueError):
            TileGrid.parse("S X")

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            TileGrid.parse("   ")


class TestChain:
    def test_direct_adjacency(self):
        grid = chain(4)
        assert len(grid.switches()) == 4
        assert len(grid.links()) == 3
        assert all(w == 0 for _, _, w in grid.links())

    def test_spacing_adds_wire_tiles(self):
        grid = chain(3, spacing=3)
        assert all(w == 2 for _, _, w in grid.links())

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            chain(0)


class TestRing:
    def test_ring_structure(self):
        grid = ring(6)
        assert len(grid.switches()) == 6
        # a ring has as many links as switches
        assert len(grid.links()) == 6

    def test_ring_halves_diameter(self):
        """Worst-case hop distance on ring(8) beats chain(8)."""
        def diameter(grid):
            adj = {}
            for a, b, _ in grid.links():
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
            worst = 0
            for start in adj:
                dist = {start: 0}
                queue = deque([start])
                while queue:
                    node = queue.popleft()
                    for nxt in adj[node]:
                        if nxt not in dist:
                            dist[nxt] = dist[node] + 1
                            queue.append(nxt)
                worst = max(worst, *dist.values())
            return worst

        assert diameter(ring(8)) < diameter(chain(8))

    def test_odd_raises(self):
        with pytest.raises(ValueError):
            ring(5)


class TestStar:
    def test_hub_degree(self):
        grid = star(4)
        assert len(grid.switches()) == 5
        hub_links = [l for l in grid.links() if (2, 2) in (l[0], l[1])]
        assert len(hub_links) == 4

    def test_five_leaves_raise(self):
        with pytest.raises(ValueError):
            star(5)


class TestSpacedMesh:
    def test_structure(self):
        grid = spaced_mesh(3, 2)
        assert len(grid.switches()) == 6
        # links: 2 rows x 2 horizontal + 3 vertical = 7
        assert len(grid.links()) == 7
        assert grid.is_connected()

    def test_traffic_on_mesh_topology(self):
        """Edge switches host modules; traffic crosses the mesh."""
        grid = spaced_mesh(3, 3)
        arch = build_conochi(num_modules=0, grid=grid)
        # corner switches have 2 links -> 2 free ports
        arch.attach("a", switch=(1, 1))
        arch.attach("b", switch=(5, 5))
        msg = arch.ports["a"].send("b", 64)
        arch.run_to_completion()
        assert msg.delivered

    def test_interior_switch_has_no_free_port(self):
        grid = spaced_mesh(3, 3)
        arch = build_conochi(num_modules=0, grid=grid)
        with pytest.raises(ValueError):
            arch.attach("x", switch=(3, 3))  # interior: 4 links

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            spaced_mesh(1, 2)

"""CoNoChi cycle-level model: tile grid, cut-through switches, runtime
topology reconfiguration.

Transport mirrors the DyNoC model (FIFO port reservations, virtual
cut-through) but routing is table-driven: every switch arrival consults
the *currently applied* tables, so when the global control unit rewrites
tables during a topology change, in-flight packets are transparently
redirected — the paper's "packet redirection" feature. Messages larger
than the 1024-byte maximum payload are segmented at the interface.

Topology changes follow the paper's discipline:

* **add_switch / add_wire** — the tile is swapped first; tables that
  exploit the new resource are applied ``table_update_latency`` cycles
  later. Traffic is never disturbed.
* **remove_switch** — tables avoiding the switch are applied first;
  the tile is swapped only once no packet still targets the switch.
  The rest of the NoC never stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.base import CommArchitecture, Message
from repro.arch.conochi.config import CoNoChiConfig
from repro.arch.conochi.control import GlobalControl
from repro.arch.transport import DueQueue, LinkOccupancy, TransportHorizon
from repro.core.parameters import PAPER_TABLE_1, DesignParameters
from repro.fabric.area import AreaModel
from repro.fabric.geometry import Rect
from repro.fabric.tiles import TileGrid, TileType
from repro.fabric.timing import ClockModel
from repro.sim import Component, SimError, Simulator

Coord = Tuple[int, int]


@dataclass
class _Packet:
    msg: Message
    dst_phys: int
    words: int
    fragment: int
    last_fragment: bool
    hops: int = 0


class CoNoChi(TransportHorizon, CommArchitecture, Component):
    """The CoNoChi interconnect over a tile grid."""

    KEY = "conochi"
    FABRIC_QUEUE = "conochi.fabric"

    def __init__(self, sim: Simulator, cfg: CoNoChiConfig,
                 grid: Optional[TileGrid] = None,
                 area_model: Optional[AreaModel] = None,
                 clock_model: Optional[ClockModel] = None):
        CommArchitecture.__init__(self, sim, cfg.width)
        Component.__init__(self, "conochi")
        self.cfg = cfg
        self.grid = grid or TileGrid(cfg.grid_cols, cfg.grid_rows)
        self.control = GlobalControl(self.grid)
        self.area_model = area_model or AreaModel()
        self.clock_model = clock_model or ClockModel()
        self._module_switch: Dict[str, Coord] = {}
        # (packet, switch) header arrivals awaiting routing
        self._arrivals = DueQueue()
        self._port_free: Dict[Tuple[object, object], int] = {}
        # messages whose last fragment's tail leaves the ejection port
        self._deliveries = DueQueue()
        self._landed_fragments: Dict[int, int] = {}  # msg.mid -> fragments in
        # migrations whose table update has not applied yet:
        # module -> target switch (remove_switch must respect these)
        self._pending_migrations: Dict[str, Coord] = {}
        # inter-switch link occupancy by message id: the parallelism
        # probe counts distinct messages on wires per cycle
        # (independent data transfers)
        self._links = LinkOccupancy()
        self._link_wires: Dict[frozenset, int] = {}
        self._refresh_link_cache()

    # ==================================================================
    # topology bookkeeping
    # ==================================================================
    def _refresh_link_cache(self) -> None:
        self._link_wires = {
            frozenset((a, b)): w for a, b, w in self.grid.links()
        }

    def link_cycles(self, a: Coord, b: Coord) -> int:
        """Header cycles to cross the link between adjacent switches."""
        key = frozenset((a, b))
        if key not in self._link_wires:
            raise KeyError(f"no link between switches {a} and {b}")
        return (self._link_wires[key] + 1) * self.cfg.link_latency

    def switch_port_load(self, switch: Coord) -> int:
        degree = sum(1 for key in self._link_wires if switch in key)
        return degree + self.control.attachments_at(switch)

    # ==================================================================
    # CommArchitecture interface
    # ==================================================================
    def _attach_impl(self, module: str, rect: Optional[Rect] = None,
                     switch: Optional[Coord] = None, **_: object) -> None:
        if switch is None:
            switch = self._nearest_free_switch(rect)
        if self.grid.get(*switch) is not TileType.SWITCH:
            raise ValueError(f"{switch} is not a switch tile")
        if self.switch_port_load(switch) >= self.cfg.max_ports:
            raise ValueError(
                f"switch {switch} has no free port for {module!r}"
            )
        if rect is not None:
            if not self._rect_touches(rect, switch):
                raise ValueError(
                    f"module rect {rect} is not adjacent to switch {switch}"
                )
            self.grid.place_module(module, rect)
        self._module_switch[module] = switch
        self.control.register(module, switch)
        self.control.recompute_tables()

    def placement(self, module: str) -> Dict[str, object]:
        out: Dict[str, object] = {"switch": self._module_switch[module]}
        rect = self.grid.modules.get(module)
        if rect is not None:
            out["rect"] = rect
        return out

    def _rect_touches(self, rect: Rect, switch: Coord) -> bool:
        x, y = switch
        return any(
            abs(cx - x) + abs(cy - y) == 1 for cx, cy in rect.cells()
        )

    def _nearest_free_switch(self, rect: Optional[Rect]) -> Coord:
        candidates = [
            s for s in self.grid.switches()
            if self.switch_port_load(s) < self.cfg.max_ports
            and (rect is None or self._rect_touches(rect, s))
        ]
        if not candidates:
            raise ValueError("no switch with a free port available")
        return candidates[0]

    def _detach_impl(self, module: str) -> None:
        self.control.unregister(module)
        del self._module_switch[module]
        if module in self.grid.modules:
            self.grid.remove_module(module)
        self.control.recompute_tables()

    def _submit(self, msg: Message) -> None:
        if msg.src not in self._module_switch:
            raise KeyError(f"source module {msg.src!r} is not attached")
        dst_phys = self.control.resolve(msg.dst)  # raises for unknown dst
        now = self.sim.cycle
        msg.accepted_cycle = now
        src_switch = self._module_switch[msg.src]
        nfrag = self.cfg.fragments(msg.payload_bytes)
        remaining = msg.payload_bytes
        for i in range(nfrag):
            frag_bytes = min(remaining, self.cfg.max_payload_bytes)
            remaining -= frag_bytes
            pkt = _Packet(
                msg=msg,
                dst_phys=dst_phys,
                words=self.cfg.packet_words(frag_bytes),
                fragment=i,
                last_fragment=(i == nfrag - 1),
            )
            # NI serializes fragments onto the module->switch link.
            start = max(now + 1, self._port_free.get(("ni", msg.src), 0))
            self._port_free[("ni", msg.src)] = start + pkt.words
            if self.sim.journeying:
                jr = self.sim.journey
                jr.stamp_to(msg.mid, "ni_queue", start)
                jr.stamp_to(msg.mid, "link_transit",
                            start + self.cfg.link_latency)
            self._arrivals.push(start + self.cfg.link_latency,
                                (pkt, src_switch))
        if self.sim.telemetering:
            self._note_depth()
        self.sim.stats.counter("conochi.packets").inc(nfrag)
        self.sim.stats.counter("conochi.header_words").inc(
            nfrag * self.cfg.header_words
        )
        self.wake()  # new traffic ends any quiescent stretch

    def idle(self) -> bool:
        return not self._arrivals and not self._deliveries

    def descriptor(self) -> DesignParameters:
        return PAPER_TABLE_1["CoNoChi"]

    def area_slices(self) -> int:
        return self.area_model.conochi_total(
            len(self.grid.switches()), self.cfg.width
        )

    def system_area_slices(self) -> int:
        """Whole system: switches + interfaces + global control unit."""
        n_sw = len(self.grid.switches())
        return (
            self.area_model.conochi_total(n_sw, self.cfg.width)
            + len(self._module_switch)
            * self.area_model.conochi_interface(self.cfg.width)
            + self.area_model.conochi_control_unit(n_sw)
        )

    def fmax_hz(self) -> float:
        return self.clock_model.fmax_hz("conochi", self.cfg.width)

    def theoretical_dmax(self) -> int:
        return 2 * len(self._link_wires)

    # ==================================================================
    # runtime topology reconfiguration (global control unit)
    # ==================================================================
    def add_switch(self, coord: Coord,
                   wires: Optional[List[Tuple[Coord, TileType]]] = None) -> None:
        """Swap a FREE tile to a switch (plus optional wire tiles) and
        apply exploiting tables after the table-update latency."""
        if self.grid.get(*coord) is not TileType.FREE:
            raise ValueError(f"tile {coord} is not free")
        self.grid.set(*coord, TileType.SWITCH)
        for (wc, wt) in wires or []:
            if wt not in (TileType.HWIRE, TileType.VWIRE):
                raise ValueError(f"{wt} is not a wire tile type")
            if self.grid.get(*wc) is not TileType.FREE:
                raise ValueError(f"wire tile {wc} is not free")
            self.grid.set(*wc, wt)
        self._refresh_link_cache()
        self.sim.stats.counter("conochi.reconfig.switch_added").inc()
        if self.sim.tracing:
            self.sim.emit("conochi", "switch_added", at=coord)
            # insertion window: tile swapped -> exploiting tables applied
            self.sim.span_begin("conochi", "switch_insert", key=coord,
                                at=coord)

        def apply(_sim: Simulator) -> None:
            self.control.recompute_tables()
            if self.sim.tracing:
                self.sim.span_end("conochi", "switch_insert", key=coord)

        self.sim.after(self.cfg.table_update_latency, apply)

    def remove_switch(self, coord: Coord) -> None:
        """Remove a switch without stalling the NoC: re-route first,
        drain, then swap the tile to FREE."""
        if self.grid.get(*coord) is not TileType.SWITCH:
            raise ValueError(f"{coord} is not a switch")
        if self.control.attachments_at(coord):
            raise ValueError(f"switch {coord} still has attached modules")
        if coord in self._pending_migrations.values():
            raise ValueError(
                f"switch {coord} is the target of a pending migration"
            )
        # Hypothetical tables without the switch (but keep its own rows
        # so it can forward packets already heading to it while draining).
        old_row = dict(self.control.tables.get(coord, {}))
        self.grid.set(*coord, TileType.FREE)
        if not self.grid.is_connected():
            self.grid.set(*coord, TileType.SWITCH)
            raise ValueError(
                f"removing switch {coord} would disconnect the network"
            )
        try:
            new_tables = self.control.recompute_tables()
        except Exception:
            self.grid.set(*coord, TileType.SWITCH)
            self.control.recompute_tables()
            raise
        # Restore the tile until drained; tables already avoid it.
        self.grid.set(*coord, TileType.SWITCH)
        new_tables[coord] = old_row
        self._refresh_link_cache()
        if self.sim.tracing:
            # removal window: re-route decided -> drained and swapped out
            self.sim.span_begin("conochi", "switch_remove", key=coord,
                                at=coord)

        def try_swap(sim: Simulator) -> None:
            if any(c == coord for _, c in self._arrivals):
                sim.after(1, try_swap)
                return
            self.grid.set(*coord, TileType.FREE)
            self._prune_dangling_wires()
            self._refresh_link_cache()
            self.control.recompute_tables()
            self.sim.stats.counter("conochi.reconfig.switch_removed").inc()
            if self.sim.tracing:
                self.sim.emit("conochi", "switch_removed", at=coord)
                self.sim.span_end("conochi", "switch_remove", key=coord)

        self.sim.after(self.cfg.table_update_latency, try_swap)

    def _prune_dangling_wires(self) -> None:
        for pos in self.grid.dangling_wires():
            self.grid.set(*pos, TileType.FREE)

    def migrate_module(self, module: str, new_switch: Coord,
                       new_rect: Optional[Rect] = None) -> None:
        """Move a module to another switch; peers keep its logical name."""
        if module not in self._module_switch:
            raise KeyError(f"module {module!r} is not attached")
        if self.grid.get(*new_switch) is not TileType.SWITCH:
            raise ValueError(f"{new_switch} is not a switch tile")
        if self.switch_port_load(new_switch) >= self.cfg.max_ports:
            raise ValueError(f"switch {new_switch} has no free port")
        if module in self.grid.modules:
            self.grid.remove_module(module)
        if new_rect is not None:
            if not self._rect_touches(new_rect, new_switch):
                raise ValueError(
                    f"rect {new_rect} not adjacent to switch {new_switch}"
                )
            self.grid.place_module(module, new_rect)

        self._pending_migrations[module] = new_switch

        def apply(_sim: Simulator) -> None:
            # The control unit distributes tables for the new home
            # FIRST and only then cuts the interface over — otherwise
            # packets would inject at a switch that cannot route yet.
            if self._pending_migrations.get(module) != new_switch:
                return  # superseded by a newer migration of this module
            del self._pending_migrations[module]
            if self.grid.get(*new_switch) is not TileType.SWITCH:
                # target vanished despite the pending guard (defensive):
                # abort, the module stays at its old home
                self.sim.stats.counter(
                    "conochi.reconfig.migrations_aborted").inc()
                return
            self._module_switch[module] = new_switch
            self.control.migrate(module, new_switch)
            self.control.recompute_tables()

        self.sim.after(self.cfg.table_update_latency, apply)
        self.sim.stats.counter("conochi.reconfig.migrations").inc()

    # ==================================================================
    # per-cycle behaviour
    # ==================================================================
    def tick(self, sim: Simulator):
        now = sim.cycle
        if self._settled < now - 1:
            self.settle(now - 1)
        self._settled = now
        self._note_parallelism(self._links.active(now))
        for msg in self._deliveries.pop_due(now):
            self._deliver(msg)
        arrived = self._arrivals.pop_due(now)
        for pkt, at in arrived:
            self._route(pkt, at, now)
        if arrived and sim.telemetering:
            # packets awaiting switch routing = the fabric's input queue
            self._note_depth()
        return self._horizon()

    def _reserve(self, key: Tuple[object, object], now: int, words: int,
                 mid: int) -> int:
        earliest = now + self.cfg.switch_latency
        start = max(earliest, self._port_free.get(key, 0))
        # contention observability: cycles spent waiting for the port
        self.sim.stats.histogram("conochi.port_wait").add(start - earliest)
        if self.sim.telemetering:
            tel = self.sim.telemetry
            name = f"conochi.port.{key[0]}->{key[1]}"
            tel.link_busy(now, name, words)
            tel.backpressure(now, name, start - earliest)
        self._port_free[key] = start + words
        if key[1] != "local":
            # inter-switch links only (see DyNoC._reserve_port)
            self._links.add(start, start + words, mid)
        return start

    # ------------------------------------------------------------------
    # fault hooks (repro.faults)
    # ------------------------------------------------------------------
    def route_around(self, failed) -> None:
        """Distribute routing tables avoiding every switch in ``failed``
        (empty set restores full routing) — the global control unit's
        fault response, reusing the planned table-update machinery."""
        self.control.recompute_avoiding(set(failed))
        self._refresh_link_cache()

    def _route(self, pkt: _Packet, at: Coord, now: int) -> None:
        if self.faulting and self.fault_injector.node_dead(at):
            # the switch died with this packet inside it
            self._landed_fragments.pop(pkt.msg.mid, None)
            self.fault_injector.kill_packet(pkt.msg, at,
                                            why="at_failed_switch")
            return
        pkt.hops += 1
        if pkt.hops > 4 * (self.cfg.grid_cols * self.cfg.grid_rows):
            raise SimError(
                f"CoNoChi packet looping: {pkt.msg.src}->{pkt.msg.dst} at {at}"
            )
        try:
            nxt = self.control.lookup(at, pkt.dst_phys)
        except KeyError:
            if self.faulting:
                # no route after a fault-driven table redistribution
                self._landed_fragments.pop(pkt.msg.mid, None)
                self.fault_injector.kill_packet(pkt.msg, at,
                                                why="unroutable")
                return
            raise
        if nxt == "local":
            start = self._reserve((at, "local"), now, pkt.words, pkt.msg.mid)
            if self.sim.journeying:
                jr = self.sim.journey
                jr.stamp_to(pkt.msg.mid, "arbitration_wait", start)
                jr.stamp_to(pkt.msg.mid, "delivery", start + pkt.words)
            self._land(pkt, start + pkt.words)
            self.sim.stats.histogram("conochi.hops").add(pkt.hops)
            return
        start = self._reserve((at, nxt), now, pkt.words, pkt.msg.mid)
        if self.sim.journeying:
            jr = self.sim.journey
            jr.stamp_to(pkt.msg.mid, "arbitration_wait", start)
            jr.stamp_to(pkt.msg.mid, "link_transit",
                        start + self.link_cycles(at, nxt))
        stats = self.sim.stats
        stats.counter("conochi.word_hops").inc(pkt.words)
        stats.counter("conochi.word_wire_tiles").inc(
            pkt.words * (self._link_wires[frozenset((at, nxt))] + 1)
        )
        if self.sim.tracing:
            self.sim.emit("conochi", "route", mid=pkt.msg.mid, at=at, nxt=nxt)
        self._arrivals.push(start + self.link_cycles(at, nxt), (pkt, nxt))

    def _land(self, pkt: _Packet, tail_cycle: int) -> None:
        msg = pkt.msg
        landed = self._landed_fragments.get(msg.mid, 0) + 1
        self._landed_fragments[msg.mid] = landed
        if landed >= self.cfg.fragments(msg.payload_bytes):
            del self._landed_fragments[msg.mid]
            self._deliveries.push(tail_cycle, msg)


# ----------------------------------------------------------------------
# standard topology + builder
# ----------------------------------------------------------------------
def standard_grid(num_modules: int, cols: int = 0, rows: int = 0) -> TileGrid:
    """A CoNoChi layout with one switch per module (the survey's Table 3
    assumption): switches form a chain with direct adjacency, modules
    occupy the free tiles beside their switch."""
    n = max(2, num_modules)
    cols = cols or (n + 2)
    rows = rows or 4
    grid = TileGrid(cols, rows)
    for i in range(n):
        grid.set(1 + i, 1, TileType.SWITCH)
    return grid


def ladder_grid(num_modules: int) -> TileGrid:
    """A two-row switch ladder for larger systems.

    Every interior switch uses exactly its four ports: west + east
    neighbours, the vertical rung, and one module — halving the network
    diameter relative to a chain while staying one-switch-per-module
    (the Table 3 accounting basis).
    """
    n = max(2, num_modules)
    half = -(-n // 2)
    grid = TileGrid(half + 2, 6)
    for i in range(half):
        grid.set(1 + i, 2, TileType.SWITCH)          # bottom rail
    for i in range(n - half):
        grid.set(1 + i, 3, TileType.SWITCH)          # top rail
    return grid


def _free_neighbor(grid: TileGrid, switch: Coord) -> Rect:
    """A FREE tile orthogonally adjacent to ``switch`` (module site)."""
    x, y = switch
    for dx, dy in ((0, -1), (0, 1), (-1, 0), (1, 0)):
        nx, ny = x + dx, y + dy
        if grid.in_bounds(nx, ny) and grid.get(nx, ny) is TileType.FREE:
            return Rect(nx, ny, 1, 1)
    raise ValueError(f"switch {switch} has no free neighbouring tile")


def build_conochi(
    num_modules: int = 4,
    width: int = 32,
    seed: int = 1,
    grid: Optional[TileGrid] = None,
    sim: Optional[Simulator] = None,
    cfg: Optional[CoNoChiConfig] = None,
    **cfg_overrides: object,
) -> CoNoChi:
    """Build a CoNoChi system: one switch per module, modules attached
    to the free tiles beside their switch."""
    if num_modules < 0:
        raise ValueError(f"num_modules must be >= 0, got {num_modules}")
    if grid is None:
        grid = (standard_grid(num_modules) if num_modules <= 6
                else ladder_grid(num_modules))
    if cfg is None:
        cfg = CoNoChiConfig(grid_cols=grid.cols, grid_rows=grid.rows,
                            width=width, **cfg_overrides)  # type: ignore[arg-type]
    sim = sim or Simulator(name=f"conochi[{grid.cols}x{grid.rows}]")
    arch = CoNoChi(sim, cfg, grid=grid)
    sim.add(arch)
    switches = grid.switches()
    if len(switches) < num_modules:
        raise ValueError(
            f"grid has {len(switches)} switches for {num_modules} modules"
        )
    for i in range(num_modules):
        switch = switches[i]
        rect = _free_neighbor(grid, switch)
        arch.attach(f"m{i}", rect=rect, switch=switch)
    return arch

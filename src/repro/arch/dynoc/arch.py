"""DyNoC cycle-level model: router mesh, placement, packet transport.

Transport is virtual cut-through: a packet's header claims each router's
output port in FIFO order after ``router_latency`` cycles of processing;
the payload streams behind the header, occupying the link for the
packet's full word length. Buffers are unbounded (the prototype used
small handshaked buffers; unbounded buffers keep the model deadlock-free
so the survey's latency/parallelism properties are isolated from buffer
sizing) — queueing still shows up as port-busy waiting.

Placement follows the paper's rule: a module covering more than one PE
deactivates its interior routers and must remain completely surrounded
by active routers. Every placement mutation is validated by walking
S-XY for all module pairs; an unroutable placement is rejected up front
instead of livelocking mid-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arch.base import Message
from repro.arch.dynoc.config import DyNoCConfig
from repro.arch.dynoc.routing import (
    Coord,
    NORMAL,
    RouteState,
    RoutingError,
    trace_route,
    sxy_next,
)
from repro.arch.transport import TransportHorizon
from repro.core.parameters import PAPER_TABLE_1, DesignParameters
from repro.fabric.geometry import Rect
from repro.sim import SimError, Simulator


@dataclass
class _Packet:
    msg: Message
    dst_access: Coord
    words: int
    state: RouteState
    hops: int = 0


@dataclass
class _Placement:
    rect: Rect
    access: Coord

    @property
    def is_single_pe(self) -> bool:
        return self.rect.w == 1 and self.rect.h == 1


class DyNoC(TransportHorizon):
    """The DyNoC interconnect on a ``cols x rows`` PE/router mesh."""

    KEY = "dynoc"
    FABRIC_QUEUE = "dynoc.fabric"

    def __init__(self, sim: Simulator, cfg: DyNoCConfig):
        super().__init__(sim, cfg.width, "dynoc", cfg.router_latency)
        self.cfg = cfg
        self._router_active: Dict[Coord, bool] = {
            (x, y): True
            for x in range(cfg.mesh_cols)
            for y in range(cfg.mesh_rows)
        }
        self._placements: Dict[str, _Placement] = {}
        self._pe_used: Dict[Coord, str] = {}
        # fault state: routers deactivated by failure (vs. by placement)
        self._failed_routers: set = set()

    # ==================================================================
    # activity / topology queries
    # ==================================================================
    def is_active(self, coord: Coord) -> bool:
        return self._router_active.get(coord, False)

    def _extent(self, cell: Coord) -> Optional[Tuple[int, int, int, int]]:
        for pl in self._placements.values():
            if not pl.is_single_pe and pl.rect.contains_point(*cell):
                r = pl.rect
                return (r.y, r.y2 - 1, r.x, r.x2 - 1)
        return None

    def active_routers(self) -> int:
        return sum(1 for v in self._router_active.values() if v)

    def active_links(self) -> int:
        """Unidirectional links between active routers (d_max bound)."""
        n = 0
        for (x, y), ok in self._router_active.items():
            if not ok:
                continue
            for dx, dy in ((1, 0), (0, 1)):
                if self.is_active((x + dx, y + dy)):
                    n += 2  # both directions
        return n

    # ==================================================================
    # placement
    # ==================================================================
    def place_module(self, name: str, rect: Rect,
                     access: Optional[Coord] = None) -> _Placement:
        """Place ``name`` over ``rect`` PEs, deactivating interior routers.

        Multi-PE modules must keep a one-router margin to the mesh border
        (the paper's "completely surrounded by routers" rule); their
        default access router sits immediately west of the lower-left
        corner. 1x1 modules keep and use their own router.
        """
        if name in self._placements:
            raise ValueError(f"module {name!r} already placed")
        if rect.x2 > self.cfg.mesh_cols or rect.y2 > self.cfg.mesh_rows:
            raise ValueError(f"rect {rect} outside mesh")
        for cell in rect.cells():
            if cell in self._pe_used:
                raise ValueError(
                    f"PE {cell} already used by {self._pe_used[cell]!r}"
                )
        single = rect.w == 1 and rect.h == 1
        if single:
            access = access or (rect.x, rect.y)
            if not self.is_active(access):
                raise ValueError(f"access router {access} is inactive")
        else:
            if (rect.x < 1 or rect.y < 1
                    or rect.x2 > self.cfg.mesh_cols - 1
                    or rect.y2 > self.cfg.mesh_rows - 1):
                raise ValueError(
                    f"multi-PE module {name!r} at {rect} is not completely "
                    "surrounded by routers"
                )
            if self._pending_inside(rect):
                raise SimError(
                    f"cannot place {name!r}: packets still routed through {rect}"
                )
            access = access or (rect.x - 1, rect.y)
            if rect.contains_point(*access) or not self.is_active(access):
                raise ValueError(f"access router {access} invalid for {rect}")

        placement = _Placement(rect, access)
        self._placements[name] = placement
        for cell in rect.cells():
            self._pe_used[cell] = name
        if not single:
            for cell in rect.cells():
                self._router_active[cell] = False
        try:
            self._validate_routability()
        except RoutingError:
            self._undo_place(name)
            raise
        return placement

    def _undo_place(self, name: str) -> None:
        pl = self._placements.pop(name)
        for cell in pl.rect.cells():
            self._pe_used.pop(cell, None)
            self._router_active[cell] = True

    def remove_module(self, name: str) -> Rect:
        """Remove a placed module, reactivating its interior routers."""
        if name not in self._placements:
            raise KeyError(f"module {name!r} is not placed")
        pl = self._placements.pop(name)
        for cell in pl.rect.cells():
            del self._pe_used[cell]
            self._router_active[cell] = True
        return pl.rect

    def _pending_inside(self, rect: Rect) -> bool:
        return any(
            rect.contains_point(*coord) for _, coord in self._arrivals
        )

    def _validate_routability(self) -> None:
        """Certify S-XY delivers between all module access routers."""
        accesses = [pl.access for pl in self._placements.values()]
        for a in accesses:
            for b in accesses:
                if a != b:
                    trace_route(a, b, self.is_active, self._extent,
                                max_hops=self.cfg.ttl_hops)

    def placement_of(self, name: str) -> _Placement:
        return self._placements[name]

    def placement(self, module: str) -> Dict[str, object]:
        pl = self.placement_of(module)
        return {"rect": pl.rect, "access": pl.access}

    # ==================================================================
    # fault hooks (repro.faults)
    # ==================================================================
    def detour_routable(self, coord: Coord) -> bool:
        """Would all module pairs stay routable with ``coord`` failed?
        Pure query — nothing changes."""
        if not self.is_active(coord):
            return False
        accesses = [pl.access for pl in self._placements.values()]
        if coord in accesses:
            return False

        def active(c: Coord) -> bool:
            return c != coord and self.is_active(c)

        try:
            for a in accesses:
                for b in accesses:
                    if a != b:
                        trace_route(a, b, active, self._extent,
                                    max_hops=self.cfg.ttl_hops)
        except RoutingError:
            return False
        return True

    def fail_router(self, coord: Coord) -> bool:
        """Deactivate a failed router so S-XY detours around it as an
        obstacle (DyNoC's fault response *is* its obstacle routing).

        Returns ``True`` when the mesh stays fully routable; ``False``
        (and leaves the router active as a black hole — the injector's
        dead-node guard keeps eating packets) when deactivation would
        cut a module off."""
        if coord not in self._router_active:
            raise ValueError(f"{coord} is outside the mesh")
        if not self.is_active(coord):
            raise ValueError(f"router {coord} is already inactive")
        if any(pl.access == coord for pl in self._placements.values()):
            # an access router can't be masked: the module behind it
            # would vanish from the topology
            self.sim.stats.counter("dynoc.fault.undetourable").inc()
            return False
        self._router_active[coord] = False
        try:
            self._validate_routability()
        except RoutingError:
            self._router_active[coord] = True
            self.sim.stats.counter("dynoc.fault.undetourable").inc()
            return False
        self._failed_routers.add(coord)
        self.sim.stats.counter("dynoc.fault.router_masked").inc()
        self.wake()
        return True

    def repair_router(self, coord: Coord) -> None:
        """Reactivate a router previously masked by :meth:`fail_router`
        (no-op for undetourable faults, which never deactivated it)."""
        if coord in self._failed_routers:
            self._failed_routers.discard(coord)
            self._router_active[coord] = True
            self.wake()

    # ==================================================================
    # CommArchitecture interface
    # ==================================================================
    def _attach_impl(self, module: str, rect: Optional[Rect] = None,
                     access: Optional[Coord] = None, **_: object) -> None:
        if rect is None:
            rect = self._default_rect()
        self.place_module(module, rect, access)

    def _default_rect(self) -> Rect:
        for y in range(self.cfg.mesh_rows):
            for x in range(self.cfg.mesh_cols):
                if (x, y) not in self._pe_used:
                    return Rect(x, y, 1, 1)
        raise ValueError("mesh full: no free PE")

    def _detach_impl(self, module: str) -> None:
        self.remove_module(module)

    def _submit(self, msg: Message) -> None:
        if msg.src not in self._placements:
            raise KeyError(f"source module {msg.src!r} is not placed")
        if msg.dst not in self._placements:
            raise KeyError(f"destination module {msg.dst!r} is not placed")
        src_access = self._placements[msg.src].access
        dst_access = self._placements[msg.dst].access
        pkt = _Packet(
            msg=msg,
            dst_access=dst_access,
            words=self.cfg.packet_words(msg.payload_bytes),
            state=NORMAL,
        )
        msg.accepted_cycle = self.sim.cycle
        if self.sim.journeying:
            # module -> access-router injection wire transit
            self.sim.journey.stamp_to(
                msg.mid, "link_transit",
                self.sim.cycle + self.cfg.link_latency)
        self._arrivals.push(self.sim.cycle + self.cfg.link_latency,
                            (pkt, src_access))
        if self.sim.telemetering:
            self._note_depth()
        self.sim.stats.counter("dynoc.packets").inc()
        self.sim.stats.counter("dynoc.header_words").inc(self.cfg.header_words)
        self.wake()  # new traffic ends any quiescent stretch

    def descriptor(self) -> DesignParameters:
        return PAPER_TABLE_1["DyNoC"]

    def area_slices(self) -> int:
        return self.area_model.dynoc_total(self.active_routers(), self.cfg.width)

    def fmax_hz(self) -> float:
        return self.clock_model.fmax_hz("dynoc", self.cfg.width)

    def theoretical_dmax(self) -> int:
        return self.active_links()

    # ==================================================================
    # per-cycle behaviour
    # ==================================================================
    def _port_name(self, key: Tuple[Coord, object]) -> str:
        router, target = key
        if target == "local":
            return f"dynoc.ej.{router[0]},{router[1]}"
        return (f"dynoc.link.{router[0]},{router[1]}->"
                f"{target[0]},{target[1]}")

    def _route(self, pkt: _Packet, at: Coord, now: int) -> None:
        if self.faulting and self.fault_injector.node_dead(at):
            # the router died with this packet inside (silent phase
            # before detection, or an undetourable black hole)
            if self.sim.tracing and pkt.state.mode is not NORMAL.mode:
                self.sim.span_end("dynoc", "detour", key=pkt.msg.mid,
                                  left_at=at, delivered=False)
            self.fault_injector.kill_packet(pkt.msg, at,
                                            why="at_failed_router")
            return
        if at == pkt.dst_access:
            if self.sim.tracing and pkt.state.mode is not NORMAL.mode:
                # packet arrived while still skirting an obstacle
                self.sim.span_end("dynoc", "detour", key=pkt.msg.mid,
                                  left_at=at, delivered=True)
            start = self._reserve((at, "local"), now, pkt.words,
                                  pkt.msg.mid)
            if self.sim.journeying:
                jr = self.sim.journey
                jr.stamp_to(pkt.msg.mid, "arbitration_wait", start)
                jr.stamp_to(pkt.msg.mid, "delivery", start + pkt.words)
            self._deliveries.push(start + pkt.words, pkt.msg)
            self.sim.stats.histogram("dynoc.hops").add(pkt.hops)
            return
        nxt, state = sxy_next(at, pkt.dst_access, pkt.state,
                              self.is_active, self._extent)
        if ((self.sim.tracing or self.sim.telemetering)
                and state.mode is not pkt.state.mode):
            # S-XY mode change: a surround detour starts or ends here
            if pkt.state.mode is NORMAL.mode:
                if self.sim.tracing:
                    self.sim.span_begin("dynoc", "detour", key=pkt.msg.mid,
                                        mid=pkt.msg.mid, entered_at=at,
                                        mode=state.mode.value)
                if self.sim.telemetering:
                    # detour-storm observability: entries per window
                    self.sim.telemetry.count(now, "dynoc.detour")
            elif state.mode is NORMAL.mode and self.sim.tracing:
                self.sim.span_end("dynoc", "detour", key=pkt.msg.mid,
                                  left_at=at, delivered=False)
        pkt.state = state
        pkt.hops += 1
        if pkt.hops > self.cfg.ttl_hops:
            raise SimError(
                f"DyNoC packet exceeded TTL ({self.cfg.ttl_hops} hops): "
                f"{pkt.msg.src}->{pkt.msg.dst} at {at}"
            )
        start = self._reserve((at, nxt), now, pkt.words, pkt.msg.mid)
        self.sim.stats.counter("dynoc.word_hops").inc(pkt.words)
        if self.sim.tracing:
            self.sim.emit("dynoc", "route", mid=pkt.msg.mid, at=at, nxt=nxt,
                          mode=pkt.state.mode.value)
        if self.cfg.switching == "saf":
            # store-and-forward: the next router sees the packet only
            # after the whole body crossed the link
            arrival = start + pkt.words + self.cfg.link_latency - 1
        else:
            arrival = start + self.cfg.link_latency
        if self.sim.journeying:
            jr = self.sim.journey
            jr.stamp_to(pkt.msg.mid, "arbitration_wait", start)
            # hops taken while skirting an obstacle are the detour cost
            jr.stamp_to(pkt.msg.mid,
                        ("router_detour"
                         if pkt.state.mode is not NORMAL.mode
                         else "link_transit"), arrival)
        self._arrivals.push(arrival, (pkt, nxt))


def build_dynoc(
    num_modules: int = 4,
    width: int = 32,
    seed: int = 1,
    mesh: Optional[Tuple[int, int]] = None,
    sim: Optional[Simulator] = None,
    cfg: Optional[DyNoCConfig] = None,
    **cfg_overrides: object,
) -> DyNoC:
    """Build a DyNoC with ``num_modules`` 1x1 modules placed row-major.

    The default mesh is the smallest square holding all modules — the
    survey's Table 3 assumption (one PE, hence one router, per module).
    """
    if num_modules < 0:
        raise ValueError(f"num_modules must be >= 0, got {num_modules}")
    if cfg is None:
        if mesh is not None:
            cfg = DyNoCConfig(mesh_cols=mesh[0], mesh_rows=mesh[1],
                              width=width, **cfg_overrides)  # type: ignore[arg-type]
        else:
            cfg = DyNoCConfig.for_modules(num_modules, width=width,
                                          **cfg_overrides)  # type: ignore[arg-type]
    if num_modules > cfg.num_routers:
        raise ValueError(
            f"{num_modules} modules exceed {cfg.num_routers} mesh PEs"
        )
    sim = sim or Simulator(name=f"dynoc[{cfg.mesh_cols}x{cfg.mesh_rows}]")
    arch = DyNoC(sim, cfg)
    sim.add(arch)
    for i in range(num_modules):
        arch.attach(f"m{i}")
    return arch

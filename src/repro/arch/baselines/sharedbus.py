"""A conventional single shared bus (AMBA/CoreConnect-style baseline).

One bus, one central arbiter, round-robin grants, burst transfers of a
whole message per grant. Exactly the §2.2 textbook scheme: lowest area
and lowest idle latency of anything in the repository, d_max = 1, and
*no* reconfiguration support — module attach/detach after cycle 0
raises, and the reconfiguration manager refuses to operate on it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.arch.base import CommArchitecture, Message
from repro.core.parameters import (
    DesignParameters,
    ModuleShape,
    Switching,
    Topology,
)
from repro.sim import SLEEP, Simulator

SHAREDBUS_DESCRIPTOR = DesignParameters(
    name="SharedBus",
    arch_type="Bus",
    topology=Topology.ARRAY_1D,
    module_size=ModuleShape.FIXED,
    switching=Switching.TIME_MULTIPLEXED,
    bit_width=(1, 64),
    overhead="addr phase",
    overhead_bits=None,
    max_payload_bytes=None,
    protocol_layers=1,
)


class SharedBus(CommArchitecture):
    """Single-bus baseline: static design, central round-robin arbiter."""

    KEY = "sharedbus"

    def __init__(self, sim: Simulator, num_modules: int = 4,
                 width: int = 32, grant_cycles: int = 2,
                 addr_cycles: int = 1):
        if num_modules < 2:
            raise ValueError("need at least 2 modules")
        if grant_cycles < 1 or addr_cycles < 0:
            raise ValueError("invalid bus timing")
        super().__init__(sim, width, "sharedbus")
        self.num_modules = num_modules
        self.grant_cycles = grant_cycles
        self.addr_cycles = addr_cycles
        self._queues: Dict[str, Deque[Message]] = {}
        self._rr_order: list = []
        self._rr_next = 0
        # current transfer: (message, done_at cycle)
        self._current: Optional[Message] = None
        self._done_at = -1
        # last busy cycle telemetry recorded for the burst at its grant
        self._busy_to = -1
        self._halted = False  # fault state: arbitration stopped
        # a granted burst changes nothing until _done_at, so the bus
        # sleeps through it; settle() replays the skipped cycles' d_max
        # samples if the last tick left a burst on the bus (see tick)
        self._in_burst = False

    # ------------------------------------------------------------------
    def _attach_impl(self, module: str, **_: object) -> None:
        if self.sim.cycle != 0:
            raise RuntimeError(
                "SharedBus is a static design: modules are fixed at "
                "design time (cycle 0)"
            )
        self._queues[module] = deque()
        self._rr_order.append(module)

    def _detach_impl(self, module: str) -> None:
        raise RuntimeError(
            "SharedBus is a static design: modules cannot be removed"
        )

    def _submit(self, msg: Message) -> None:
        if msg.src not in self._queues:
            raise KeyError(f"source module {msg.src!r} is not attached")
        self._queues[msg.src].append(msg)
        if self.sim.telemetering:
            self._note_depth()
        self.wake()  # new traffic ends any quiescent stretch

    def idle(self) -> bool:
        return self._current is None and all(
            not q for q in self._queues.values()
        )

    # ------------------------------------------------------------------
    def descriptor(self) -> DesignParameters:
        return SHAREDBUS_DESCRIPTOR

    def area_slices(self) -> int:
        return self.area_model.sharedbus_total(
            len(self._rr_order) or self.num_modules, self.width
        )

    def fmax_hz(self) -> float:
        return self.clock_model.fmax_hz("sharedbus", self.width)

    def theoretical_dmax(self) -> int:
        return 1  # the defining limit of a single shared bus

    # ------------------------------------------------------------------
    # fault hooks (repro.faults)
    # ------------------------------------------------------------------
    def halt_bus(self) -> List[Message]:
        """The bus fails: the in-flight burst is lost, arbitration
        stops.  Returns the victim messages for the fault injector."""
        if self._halted:
            raise RuntimeError("bus already halted")
        self._halted = True
        victims: List[Message] = []
        if self._current is not None:
            victims.append(self._current)
            if self.sim.telemetering:
                self._take_back_busy()
            self._current = None
            self._done_at = -1
        self.wake()
        return victims

    def _take_back_busy(self) -> None:
        """Telemetry: the halted burst's busy cycles from this one on,
        recorded at its grant, were never carried (a fault halts the
        bus at event phase, before this cycle's tick)."""
        now = self.sim.cycle
        if self._busy_to >= now:
            self.sim.telemetry.link_busy(
                now, "sharedbus.bus", now - self._busy_to - 1, first=now)

    def resume_bus(self) -> None:
        if not self._halted:
            raise RuntimeError("bus is not halted")
        self._halted = False
        self.wake()

    # ------------------------------------------------------------------
    # arbiter rebalancing (repro.control)
    # ------------------------------------------------------------------
    def arbitration_order(self) -> List[str]:
        """Service order as the arbiter will scan it at the next grant."""
        n = len(self._rr_order)
        return [self._rr_order[(self._rr_next + i) % n] for i in range(n)]

    def backlogs(self) -> Dict[str, int]:
        """Messages queued at each module's send port."""
        return {m: len(q) for m, q in sorted(self._queues.items())}

    def set_arbitration_order(self, order: List[str]) -> None:
        """Rebalance arbiter priority: install a new scan order.

        The only runtime adaptation a single shared bus allows — the
        control plane rotates a starved module to the front of the
        round-robin scan.  ``order`` must be a permutation of the
        attached modules; the scan restarts at its head.
        """
        if sorted(order) != sorted(self._rr_order):
            raise ValueError(
                f"order {order!r} is not a permutation of the attached "
                f"modules {sorted(self._rr_order)!r}"
            )
        self._rr_order = list(order)
        self._rr_next = 0
        self.sim.stats.counter("sharedbus.arbiter.rebalanced").inc()
        if self.sim.telemetering:
            self.sim.telemetry.count(self.sim.cycle,
                                     "sharedbus.arbiter.rebalanced")
        if self.sim.tracing:
            self.sim.emit("sharedbus", "arbiter_rebalance",
                          head=order[0] if order else "")
        self.wake()

    # ------------------------------------------------------------------
    def words(self, payload_bytes: int) -> int:
        return -(-payload_bytes * 8 // self.width)

    def _note_depth(self) -> None:
        """Telemetry: the arbiter's queued total changed."""
        self.sim.telemetry.queue_depth(
            self.sim.cycle, "sharedbus.arbiter",
            sum(len(q) for q in self._queues.values()))

    def _skipped(self, first: int, through: int) -> None:
        """Replay the in-burst cycles skipped from ``first`` through
        ``through``: one parallelism sample each.  The burst flag comes
        from the last tick: ``halt_bus`` may clear the live burst at
        event phase, but every cycle before that still carried it."""
        if self._in_burst:
            self._note_parallelism_run(1, through - first + 1)

    def tick(self, sim: Simulator):
        now = sim.cycle
        if self._settled < now - 1:
            self.settle(now - 1)
        self._settled = now
        self._in_burst = False
        if self._halted:
            return SLEEP  # dead bus: resume_bus() wakes us
        if self._current is not None:
            self._note_parallelism(1)
            if now >= self._done_at:
                self._deliver(self._current)
                self._current = None
            else:
                self._in_burst = True
                return self._done_at
        # arbitration: round-robin over modules with queued traffic
        # whose destination is attached
        n = len(self._rr_order)
        for i in range(n):
            module = self._rr_order[(self._rr_next + i) % n]
            queue = self._queues[module]
            if queue and queue[0].dst in self._queues:
                msg = queue.popleft()
                msg.accepted_cycle = now
                self._rr_next = (self._rr_next + i + 1) % n
                duration = (
                    self.grant_cycles
                    + self.addr_cycles
                    + self.words(msg.payload_bytes)
                )
                self._current = msg
                self._done_at = now + duration - 1
                if sim.journeying:
                    jr = sim.journey
                    # queued-since-creation wait ends at the grant; the
                    # burst (grant + addr phases + payload words) then
                    # occupies the bus through _done_at
                    jr.stamp_to(msg.mid, "arbitration_wait", now)
                    jr.stamp_to(msg.mid, "link_transit", self._done_at)
                self.sim.stats.counter("sharedbus.grants").inc()
                self._busy_to = -1
                if sim.telemetering:
                    tel = sim.telemetry
                    # the burst holds the bus from the cycle after its
                    # grant through its delivery
                    self._busy_to = max(self._done_at, now + 1)
                    tel.link_busy(now, "sharedbus.bus",
                                  self._busy_to - now, first=now + 1)
                    tel.backpressure(now, "sharedbus.bus",
                                     now - msg.created_cycle)
                    self._note_depth()
                self._in_burst = True
                return self._done_at
        if any(self._queues.values()):
            return None  # queued traffic waiting on a detached destination
        return SLEEP  # bus and queues empty: wait for the next submit


def build_sharedbus(num_modules: int = 4, width: int = 32, seed: int = 1,
                    sim: Optional[Simulator] = None,
                    **kwargs: object) -> SharedBus:
    sim = sim or Simulator(name=f"sharedbus[{num_modules}]")
    arch = SharedBus(sim, num_modules=num_modules, width=width,
                     **kwargs)  # type: ignore[arg-type]
    sim.add(arch)
    for i in range(num_modules):
        arch.attach(f"m{i}")
    return arch

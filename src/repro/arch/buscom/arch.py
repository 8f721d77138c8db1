"""BUS-COM cycle-level model: k TDMA buses + interface modules.

Each bus runs its own FlexRay-like schedule. A slot opens, the owner (or
— in the dynamic segment — the highest-priority module with pending
data) drives a guard cycle, a one-word 20-bit header and then payload
words; static slots always consume their full fixed duration, which is
exactly the rigidity the survey's flexibility ranking penalizes, while
dynamic slots shrink to a minislot when unclaimed.

A message larger than a slot's payload capacity is segmented into
frames; frames of one message may leave simultaneously on different
buses (every module is physically attached to all buses), which is how
BUS-COM aggregates bandwidth up to its d_max = k.

Interface queues follow the FlexRay buffer discipline: messages tagged
``"stream"``/``"rt"``/``"ctrl"`` go to a real-time queue served first by
the module's guaranteed static slots, everything else queues as bulk —
so a module's real-time frames never wait behind its own bulk backlog
(the property behind the E11 deadline guarantees).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.arch.base import CommArchitecture, Message
from repro.arch.buscom.config import BusComConfig
from repro.arch.buscom.schedule import SlotKind, SlotTable
from repro.core.parameters import PAPER_TABLE_1, DesignParameters
from repro.fabric.area import AreaModel
from repro.fabric.timing import ClockModel
from repro.sim import SLEEP, Component, Simulator


@dataclass
class _SendItem:
    """NI queue entry: a message with bytes still to be transmitted."""

    msg: Message
    bytes_left: int


@dataclass
class _BusState:
    """Runtime state of one bus."""

    index: int
    slot_idx: int = 0
    slot_remaining: int = 0     # cycles left in the current slot
    dyn_budget: int = 0         # dynamic-segment cycles left this round
    frame_msg: Optional[Message] = None
    frame_bytes: int = 0
    frame_done_at: int = -1     # cycle the frame's last word is on the bus
    frames_sent: int = 0
    busy_cycles: int = 0
    total_cycles: int = 0


class BusCom(CommArchitecture, Component):
    """The BUS-COM interconnect."""

    KEY = "buscom"

    def __init__(self, sim: Simulator, cfg: BusComConfig,
                 table: Optional[SlotTable] = None,
                 area_model: Optional[AreaModel] = None,
                 clock_model: Optional[ClockModel] = None):
        CommArchitecture.__init__(self, sim, cfg.width)
        Component.__init__(self, "buscom")
        self.cfg = cfg
        self.table = table or SlotTable(cfg.num_buses, cfg.slots_per_bus)
        self.area_model = area_model or AreaModel()
        self.clock_model = clock_model or ClockModel()
        self._buses = [_BusState(i) for i in range(cfg.num_buses)]
        # FlexRay-style split interface buffers: rt served before bulk
        self._queues: Dict[str, Deque[_SendItem]] = {}       # real-time
        self._bulk: Dict[str, Deque[_SendItem]] = {}         # best-effort
        self._priority: List[str] = []           # dynamic-segment arbitration order
        self._frozen: Dict[str, bool] = {}
        self._dead_buses: set = set()  # fault state: buses out of service
        self._delivered_bytes: Dict[int, int] = {}  # msg.mid -> bytes landed
        #: per-module telemetry names of the interface queues
        self._ni_names: Dict[str, str] = {}
        # event horizons: what the last tick stashed for settle() to
        # replay the ticks skipped after it (see _horizon)
        self._stash_busy = False
        self._stash_frames: List[bool] = []
        self._stash_active = 0
        #: (table version, idle slot durations and dynamic flags per
        #: bus, idle round length per bus, dyn_budget after a round)
        self._idle_cache: Optional[tuple] = None

    # ==================================================================
    # CommArchitecture interface
    # ==================================================================
    RT_TAGS = ("stream", "rt", "ctrl")

    def _attach_impl(self, module: str, **_: object) -> None:
        self._queues[module] = deque()
        self._bulk[module] = deque()
        self._priority.append(module)
        self._frozen[module] = False
        self._ni_names[module] = f"buscom.ni.{module}"

    def _detach_impl(self, module: str) -> None:
        q = self._queues.pop(module)
        b = self._bulk.pop(module)
        if q or b:
            self._queues[module] = q
            self._bulk[module] = b
            raise RuntimeError(
                f"detaching {module!r} with {len(q) + len(b)} queued "
                f"messages"
            )
        self._priority.remove(module)
        del self._frozen[module], self._ni_names[module]

    def _submit(self, msg: Message) -> None:
        if msg.src not in self._queues:
            raise KeyError(f"source module {msg.src!r} is not attached")
        queue = (self._queues if msg.tag in self.RT_TAGS
                 else self._bulk)[msg.src]
        queue.append(_SendItem(msg, msg.payload_bytes))
        if self.sim.telemetering:
            self._note_ni_depth(msg.src)
        self.wake()  # new traffic ends any quiescent stretch

    def idle(self) -> bool:
        return (
            all(not q for q in self._queues.values())
            and all(not q for q in self._bulk.values())
            and all(b.frame_msg is None for b in self._buses)
        )

    def descriptor(self) -> DesignParameters:
        return PAPER_TABLE_1["BUS-COM"]

    def area_slices(self) -> int:
        return self.area_model.buscom_total(
            len(self._priority) or self.cfg.num_modules,
            self.cfg.num_buses,
            self.cfg.width,
        )

    def fmax_hz(self) -> float:
        return self.clock_model.fmax_hz("buscom", self.cfg.width)

    def theoretical_dmax(self) -> int:
        return self.cfg.theoretical_dmax

    # ==================================================================
    # control / reconfiguration
    # ==================================================================
    def set_priorities(self, order: List[str]) -> None:
        """Arbitration order for the dynamic segment (first = highest)."""
        if sorted(order) != sorted(self._priority):
            raise ValueError("priority list must be a permutation of modules")
        self._priority = list(order)

    def freeze_module(self, module: str) -> None:
        """Module slot under reconfiguration: its traffic and grants pause."""
        if module not in self._frozen:
            raise KeyError(f"module {module!r} is not attached")
        self._frozen[module] = True

    def unfreeze_module(self, module: str) -> None:
        if module not in self._frozen:
            raise KeyError(f"module {module!r} is not attached")
        self._frozen[module] = False

    def freeze(self, module: str) -> None:
        # no unfreeze: a module attaches unfrozen, and the outgoing
        # module's frozen flag dies with its detach
        self.freeze_module(module)

    def reassign_slot(self, bus: int, slot: int,
                      owner: Optional[str] = None) -> None:
        """Rewrite one slot entry after the LUT-reconfiguration latency.

        ``owner=None`` converts the slot to the dynamic segment. This is
        BUS-COM's runtime topology-adaptation primitive.
        """
        def apply(_sim: Simulator) -> None:
            self._settle_now()  # idle slots skipped so far ran the old table
            if owner is None:
                self.table.set_dynamic(bus, slot)
            else:
                self.table.set_static(bus, slot, owner)
            self.sim.stats.counter("buscom.slots.reassigned").inc()

        self.sim.after(self.cfg.reassign_latency, apply)

    # ==================================================================
    # fault hooks (repro.faults)
    # ==================================================================
    def fail_bus(self, bus: int) -> List[Message]:
        """A bus goes dead: the in-flight frame (if any) is lost, its
        slots stop serving.  Returns the victim messages so the caller
        (the fault injector) can record the drops."""
        if not 0 <= bus < self.cfg.num_buses:
            raise ValueError(
                f"bus {bus} outside 0..{self.cfg.num_buses - 1}")
        if bus in self._dead_buses:
            raise ValueError(f"bus {bus} already failed")
        self._dead_buses.add(bus)
        state = self._buses[bus]
        victims: List[Message] = []
        if state.frame_msg is not None:
            victims.append(state.frame_msg)
            now = self.sim.cycle
            if self.sim.telemetering and state.frame_done_at >= now:
                # the frame's busy cycles from this one on, recorded at
                # its launch, were never carried (a fault fails the bus
                # at event phase, before this cycle's tick)
                self.sim.telemetry.link_busy(
                    now, f"buscom.bus{bus}", now - state.frame_done_at - 1,
                    first=now)
            # partial landings of the lost message are void
            self._delivered_bytes.pop(state.frame_msg.mid, None)
            state.frame_msg = None
            state.frame_bytes = 0
            state.frame_done_at = -1
        self.wake()
        return victims

    def repair_bus(self, bus: int) -> None:
        if bus not in self._dead_buses:
            raise ValueError(f"bus {bus} is not failed")
        self._dead_buses.discard(bus)
        self.wake()

    def purge_message(self, msg: Message) -> None:
        """Remove a dropped message's queued fragments from its source
        interface so they are not transmitted pointlessly."""
        purged = False
        for queues in (self._queues, self._bulk):
            q = queues.get(msg.src)
            if q is not None:
                stale = [item for item in q if item.msg.mid == msg.mid]
                for item in stale:
                    q.remove(item)
                purged = purged or bool(stale)
        if purged and self.sim.telemetering:
            self._note_ni_depth(msg.src)

    def migrate_slots_off_bus(self, bus: int):
        """Fault response at detection: move the dead bus's static slots
        into healthy dynamic slots, charged at the LUT-reconfiguration
        latency.  Returns the plan (empty if nowhere to migrate)."""
        healthy = [b for b in range(self.cfg.num_buses)
                   if b != bus and b not in self._dead_buses]
        plan = self.table.plan_migration_off_bus(bus, healthy)
        if plan:
            def apply(_sim: Simulator) -> None:
                self._settle_now()
                self.table.apply_migration(plan)
                self.sim.stats.counter("buscom.slots.reassigned").inc(
                    2 * len(plan))
                self.wake()

            self.sim.after(self.cfg.reassign_latency, apply)
        return plan

    def restore_slots(self, plan) -> None:
        """Undo a fault migration after repair (same reassign latency)."""
        def apply(_sim: Simulator) -> None:
            self._settle_now()
            self.table.undo_migration(plan)
            self.sim.stats.counter("buscom.slots.reassigned").inc(
                2 * len(plan))
            self.wake()

        self.sim.after(self.cfg.reassign_latency, apply)

    # ==================================================================
    # per-cycle behaviour
    # ==================================================================
    def tick(self, sim: Simulator):
        now = sim.cycle
        if self._settled < now - 1:
            self.settle(now - 1)
        self._settled = now
        active = 0
        for bus in self._buses:
            bus.total_cycles += 1
            if bus.slot_remaining == 0:
                self._start_slot(bus, now)
            if bus.frame_msg is not None:
                active += 1
                bus.busy_cycles += 1
                if now >= bus.frame_done_at:
                    self._land_frame(bus)
            bus.slot_remaining -= 1
            if bus.slot_remaining == 0:
                # wrap on the *table's* round length — a custom table may
                # be shorter than the config default
                bus.slot_idx = (bus.slot_idx + 1) % self.table.slots_per_bus
        self._note_parallelism(active)
        return self._horizon(now)

    # ------------------------------------------------------------------
    # event horizons
    # ------------------------------------------------------------------
    def _horizon(self, now: int):
        """The next cycle a tick changes protocol state, stashing what
        the ticks before it would record.

        With traffic queued or on a wire, every tick counts each bus's
        cycle, runs down its slot and samples parallelism; only slot
        starts and frame landings change anything else, so the fabric
        wakes for the earliest of those.  Idle, a tick can only start
        an empty slot, which :meth:`_replay_idle` replays
        arithmetically, so it sleeps.
        """
        buses = self._buses
        busy = (any(b.frame_msg is not None for b in buses)
                or any(self._queues.values()) or any(self._bulk.values()))
        self._stash_busy = busy
        if not busy:
            return SLEEP
        self._stash_frames = frames = [b.frame_msg is not None
                                       for b in buses]
        self._stash_active = sum(frames)
        nxt = now + 1 + min(b.slot_remaining for b in buses)
        for bus in buses:
            if bus.frame_msg is not None and bus.frame_done_at < nxt:
                nxt = bus.frame_done_at
        return nxt

    def settle(self, through: int) -> None:
        """Replay the ticks skipped through ``through`` from the stash
        of the last tick (see :meth:`_horizon`)."""
        first = self._settled + 1
        if through < first:
            return
        self._settled = through
        gap = through - first + 1
        if not self._stash_busy:
            self._replay_idle(first - 1, through)
            return
        slots = self.table.slots_per_bus
        for bus, framed in zip(self._buses, self._stash_frames):
            bus.total_cycles += gap
            if framed:
                bus.busy_cycles += gap
            bus.slot_remaining -= gap
            if bus.slot_remaining == 0:
                bus.slot_idx = (bus.slot_idx + 1) % slots
        self._note_parallelism_run(self._stash_active, gap)

    def _idle_schedule(self) -> tuple:
        """Per bus: idle slot durations and dynamic flags, the idle
        round length, and the dynamic-segment budget a whole idle round
        leaves; cached until the slot table changes."""
        cache = self._idle_cache
        table = self.table
        if cache is not None and cache[0] == table.version:
            return cache
        cfg = self.cfg
        durations, dynamic, rounds, budgets = [], [], [], []
        for bus in range(cfg.num_buses):
            kinds = [table.entry(bus, slot).kind is SlotKind.DYNAMIC
                     for slot in range(table.slots_per_bus)]
            durs = [cfg.empty_dynamic_slot_cycles if dyn
                    else cfg.static_slot_cycles for dyn in kinds]
            budget = cfg.dynamic_segment_cycles
            for dyn, dur in zip(kinds, durs):
                if dyn:
                    budget = max(0, budget - dur)
            durations.append(durs)
            dynamic.append(kinds)
            rounds.append(sum(durs))
            budgets.append(budget)
        cache = self._idle_cache = (table.version, durations, dynamic,
                                    rounds, budgets)
        return cache

    def _replay_idle(self, last: int, through: int) -> None:
        """Advance every bus from the end of cycle ``last`` to the end
        of ``through`` as idle ticks would: empty slots start and run
        down (whole rounds at once), nothing is sent."""
        _, durations, dynamic, rounds, budgets = self._idle_schedule()
        slots = self.table.slots_per_bus
        reset = self.cfg.dynamic_segment_cycles
        for bus in self._buses:
            bus.total_cycles += through - last
            durs, kinds, round_len = (durations[bus.index],
                                      dynamic[bus.index], rounds[bus.index])
            idx, left = bus.slot_idx, bus.slot_remaining
            cycle = last + 1
            while cycle <= through:
                if left == 0:
                    if idx == 0:
                        whole = (through - cycle + 1) // round_len
                        if whole:
                            cycle += whole * round_len
                            bus.dyn_budget = budgets[bus.index]
                            continue
                        bus.dyn_budget = reset
                    left = durs[idx]
                    if kinds[idx]:
                        bus.dyn_budget = max(0, bus.dyn_budget - left)
                step = min(left, through - cycle + 1)
                left -= step
                cycle += step
                if left == 0:
                    idx = (idx + 1) % slots
            bus.slot_idx, bus.slot_remaining = idx, left

    def _settle_now(self) -> None:
        """Replay the skipped ticks before an event-phase hook changes
        what later ones would do (the slot table)."""
        if self._sim is not None:
            self.settle(self._sim.cycle - 1)

    # ------------------------------------------------------------------
    def _note_ni_depth(self, module: str) -> None:
        """Telemetry: the module's interface queue depth changed."""
        self.sim.telemetry.queue_depth(
            self.sim.cycle, self._ni_names[module],
            len(self._queues[module]) + len(self._bulk[module]))

    def _queue_for(self, module: str) -> Optional[Deque[_SendItem]]:
        """The queue the module's next frame comes from: rt first."""
        for queues in (self._queues, self._bulk):
            q = queues.get(module)
            if q and q[0].msg.dst in self._queues:
                return q
        return None

    def _sendable(self, module: str) -> bool:
        if module not in self._queues or self._frozen.get(module, True):
            return False
        return self._queue_for(module) is not None

    def _pop_fragment(self, module: str, cap_bytes: int) -> Optional[_SendItem]:
        """Take up to ``cap_bytes`` from the head message (real-time
        queue first); returns a bookkeeping item for the fragment."""
        q = self._queue_for(module)
        assert q is not None
        item = q[0]
        frag = min(cap_bytes, item.bytes_left)
        item.bytes_left -= frag
        if item.msg.accepted_cycle < 0:
            item.msg.accepted_cycle = self.sim.cycle
        if item.bytes_left == 0:
            q.popleft()
            if self.sim.telemetering:
                self._note_ni_depth(module)
        return _SendItem(item.msg, frag)  # bytes_left field reused as size

    def _start_slot(self, bus: _BusState, now: int) -> None:
        if bus.slot_idx == 0:
            bus.dyn_budget = self.cfg.dynamic_segment_cycles
        entry = self.table.entry(bus.index, bus.slot_idx)
        bus.frame_msg = None
        if self._dead_buses and bus.index in self._dead_buses:
            # a dead bus keeps its TDMA clock (slot indices stay in sync
            # with the global round) but never carries a frame
            if entry.kind is SlotKind.STATIC:
                bus.slot_remaining = self.cfg.static_slot_cycles
            else:
                bus.slot_remaining = self.cfg.empty_dynamic_slot_cycles
                bus.dyn_budget = max(0, bus.dyn_budget - bus.slot_remaining)
            return
        if entry.kind is SlotKind.STATIC:
            bus.slot_remaining = self.cfg.static_slot_cycles
            owner = entry.owner
            if owner is not None and self._sendable(owner):
                frag = self._pop_fragment(owner, self.cfg.static_payload_bytes)
                self._launch_frame(bus, frag, now)
                # a used static slot occupies the wire for its full
                # fixed duration, used or not — the basis of the ~90 %
                # effective-bandwidth figure
                self.sim.stats.counter("buscom.busy_wire_cycles").inc(
                    self.cfg.static_slot_cycles
                )
        else:
            granted = next(
                (m for m in self._priority if self._sendable(m)), None
            )
            # FlexRay bound: a dynamic frame may only start if it fits
            # in the remaining dynamic-segment budget of this round
            fixed = self.cfg.guard_cycles + self.cfg.header_words
            budget_payload_bytes = max(
                0, (bus.dyn_budget - fixed) * self.cfg.width // 8
            )
            cap = min(self.cfg.max_dynamic_payload, budget_payload_bytes)
            if granted is None or cap < 1:
                if (granted is not None and self.sim.telemetering):
                    # TDMA slot overrun: a sender held a grant but the
                    # dynamic-segment budget could not fit even one byte
                    self.sim.telemetry.count(now, "buscom.slot_overrun")
                bus.slot_remaining = self.cfg.empty_dynamic_slot_cycles
                bus.dyn_budget = max(
                    0, bus.dyn_budget - bus.slot_remaining
                )
                return
            frag = self._pop_fragment(granted, cap)
            bus.slot_remaining = self.cfg.dynamic_slot_cycles(frag.bytes_left)
            bus.dyn_budget -= bus.slot_remaining
            self._launch_frame(bus, frag, now)
            self.sim.stats.counter("buscom.busy_wire_cycles").inc(
                bus.slot_remaining
            )

    def _launch_frame(self, bus: _BusState, frag: _SendItem, now: int) -> None:
        bus.frame_msg = frag.msg
        bus.frame_bytes = frag.bytes_left  # fragment size
        bus.frame_done_at = (
            now
            + self.cfg.guard_cycles
            + self.cfg.header_words
            + self.cfg.payload_words(frag.bytes_left)
            - 1
        )
        bus.frames_sent += 1
        if self.sim.journeying:
            jr = self.sim.journey
            # everything since the last frame (or creation) was TDMA
            # slot alignment; the frame then occupies this bus through
            # its last word — concurrent frames on other buses merge
            # through the record's cursor
            jr.stamp_to(frag.msg.mid, "slot_wait", now)
            jr.stamp_to(frag.msg.mid, "link_transit", bus.frame_done_at)
        if self.sim.telemetering:
            # the frame occupies this bus from launch to its last word,
            # in the windows those cycles fall in
            self.sim.telemetry.link_busy(
                now, f"buscom.bus{bus.index}",
                bus.frame_done_at - now + 1, first=now,
            )
        self.sim.stats.counter("buscom.frames").inc()
        self.sim.stats.counter("buscom.frame_words").inc(
            self.cfg.header_words + self.cfg.payload_words(frag.bytes_left)
        )
        if self.sim.tracing:
            self.sim.emit("buscom", "frame", bus=bus.index, slot=bus.slot_idx,
                          src=frag.msg.src, dst=frag.msg.dst,
                          bytes=frag.bytes_left)
            # the frame occupies the wire from launch to its last word
            self.sim.span_event("buscom", "frame", now, bus.frame_done_at,
                                bus=bus.index, slot=bus.slot_idx,
                                src=frag.msg.src, dst=frag.msg.dst,
                                bytes=frag.bytes_left)
        self.sim.stats.counter("buscom.header_words").inc(self.cfg.header_words)
        self.sim.stats.counter("buscom.payload_bytes").inc(frag.bytes_left)

    def _land_frame(self, bus: _BusState) -> None:
        msg = bus.frame_msg
        assert msg is not None
        if msg.dropped:
            # another bus lost a frame of this message to a fault; the
            # surviving fragments land into the void
            bus.frame_msg = None
            bus.frame_bytes = 0
            bus.frame_done_at = -1
            return
        done = self._delivered_bytes.get(msg.mid, 0) + bus.frame_bytes
        self._delivered_bytes[msg.mid] = done
        if done >= msg.payload_bytes:
            del self._delivered_bytes[msg.mid]
            self._deliver(msg)
        bus.frame_msg = None
        bus.frame_bytes = 0
        bus.frame_done_at = -1

    # ------------------------------------------------------------------
    def backlog_bytes(self, module: str) -> int:
        """Bytes queued at a module's interface (both buffers)."""
        if module not in self._queues:
            raise KeyError(f"module {module!r} is not attached")
        return (
            sum(item.bytes_left for item in self._queues[module])
            + sum(item.bytes_left for item in self._bulk[module])
        )

    def total_backlog(self) -> Dict[str, int]:
        return {m: self.backlog_bytes(m) for m in self._queues}

    # ------------------------------------------------------------------
    def bus_utilization(self) -> List[float]:
        """Fraction of cycles each bus spent carrying a frame."""
        # catch up on any cycles currently being slept through so the
        # denominator matches the wall clock
        self.settle(self.sim.cycle - 1)
        return [
            b.busy_cycles / b.total_cycles if b.total_cycles else 0.0
            for b in self._buses
        ]


def build_buscom(
    num_modules: int = 4,
    width: int = 32,
    seed: int = 1,
    num_buses: int = 4,
    sim: Optional[Simulator] = None,
    cfg: Optional[BusComConfig] = None,
    table: Optional[SlotTable] = None,
    **cfg_overrides: object,
) -> BusCom:
    """Build a BUS-COM system with a round-robin design-time slot table."""
    if cfg is None:
        cfg = BusComConfig(num_modules=num_modules, num_buses=num_buses,
                           width=width, **cfg_overrides)  # type: ignore[arg-type]
    sim = sim or Simulator(name=f"buscom[{cfg.num_modules}x{cfg.num_buses}]")
    modules = [f"m{i}" for i in range(cfg.num_modules)]
    if table is None:
        table = SlotTable.round_robin(
            cfg.num_buses, cfg.slots_per_bus, cfg.static_slots, modules
        )
    arch = BusCom(sim, cfg, table=table)
    sim.add(arch)
    for name in modules:
        arch.attach(name)
    return arch

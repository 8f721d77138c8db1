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

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Deque, Dict, List, Optional

from repro.arch.base import CommArchitecture, Message
from repro.arch.buscom.config import BusComConfig
from repro.arch.buscom.schedule import SlotKind, SlotTable
from repro.core.parameters import PAPER_TABLE_1, DesignParameters
from repro.sim import SLEEP, Simulator


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


class BusCom(CommArchitecture):
    """The BUS-COM interconnect."""

    KEY = "buscom"

    def __init__(self, sim: Simulator, cfg: BusComConfig,
                 table: Optional[SlotTable] = None):
        super().__init__(sim, cfg.width, "buscom")
        self.cfg = cfg
        self.table = table or SlotTable(cfg.num_buses, cfg.slots_per_bus)
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
        self._stash_frames: List[bool] = []
        self._stash_active = 0
        #: per-bus empty-round schedules (see _schedule), and the table
        #: version they were worked out for
        self._schedule_cache: List[tuple] = []
        self._schedule_version = -1
        #: the least dynamic-segment budget that fits one payload byte
        self._fits = cfg.guard_cycles + cfg.header_words - (-8 // cfg.width)

    # ==================================================================
    # CommArchitecture interface
    # ==================================================================
    RT_TAGS = ("stream", "rt", "ctrl")

    def _attach_impl(self, module: str, **_: object) -> None:
        self._catch_up()
        self._queues[module] = deque()
        self._bulk[module] = deque()
        self._priority.append(module)
        self._frozen[module] = False
        self._ni_names[module] = f"buscom.ni.{module}"
        self._rewake()  # frames queued for the new module may be sent

    def _detach_impl(self, module: str) -> None:
        queued = len(self._queues[module]) + len(self._bulk[module])
        if queued:
            raise RuntimeError(
                f"detaching {module!r} with {queued} queued messages")
        self._catch_up()
        del self._queues[module], self._bulk[module]
        self._priority.remove(module)
        del self._frozen[module], self._ni_names[module]
        self._rewake()  # frames toward the module are held

    def _submit(self, msg: Message) -> None:
        if msg.src not in self._queues:
            raise KeyError(f"source module {msg.src!r} is not attached")
        sender = self._sendable(msg.src)
        queue = (self._queues if msg.tag in self.RT_TAGS
                 else self._bulk)[msg.src]
        queue.append(_SendItem(msg, msg.payload_bytes))
        if self.sim.telemetering:
            self._note_ni_depth(msg.src)
        if not sender and self._asleep:
            # a new sender may use an earlier slot, unless the fabric
            # wakes before the next slot starts; the slot replay reads
            # no queue, so the catch-up may come after the append
            wake = self._wake_at
            if wake is None or wake > self._settled + 1 + min(
                    bus.slot_remaining for bus in self._buses):
                self._rewake()

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
        self._catch_up()
        self._priority = list(order)
        self._rewake()

    def freeze_module(self, module: str) -> None:
        """Module slot under reconfiguration: its traffic and grants pause."""
        if module not in self._frozen:
            raise KeyError(f"module {module!r} is not attached")
        self._catch_up()
        self._frozen[module] = True
        self._rewake()

    def unfreeze_module(self, module: str) -> None:
        if module not in self._frozen:
            raise KeyError(f"module {module!r} is not attached")
        self._catch_up()
        self._frozen[module] = False
        self._rewake()

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
            self._catch_up()  # empty slots skipped so far ran the old table
            if owner is None:
                self.table.set_dynamic(bus, slot)
            else:
                self.table.set_static(bus, slot, owner)
            self.sim.stats.counter("buscom.slots.reassigned").inc()
            self._rewake()

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
        self._catch_up()
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
        self._rewake()
        return victims

    def repair_bus(self, bus: int) -> None:
        if bus not in self._dead_buses:
            raise ValueError(f"bus {bus} is not failed")
        self._catch_up()
        self._dead_buses.discard(bus)
        self._rewake()

    def purge_message(self, msg: Message) -> None:
        """Remove a dropped message's queued fragments from its source
        interface so they are not transmitted pointlessly."""
        self._catch_up()
        purged = False
        for queues in (self._queues, self._bulk):
            q = queues.get(msg.src)
            if q is not None:
                stale = [item for item in q if item.msg.mid == msg.mid]
                for item in stale:
                    q.remove(item)
                purged = purged or bool(stale)
        if purged:
            if self.sim.telemetering:
                self._note_ni_depth(msg.src)
            self._rewake()

    def migrate_slots_off_bus(self, bus: int):
        """Fault response at detection: move the dead bus's static slots
        into healthy dynamic slots, charged at the LUT-reconfiguration
        latency.  Returns the plan (empty if nowhere to migrate)."""
        healthy = [b for b in range(self.cfg.num_buses)
                   if b != bus and b not in self._dead_buses]
        plan = self.table.plan_migration_off_bus(bus, healthy)
        if plan:
            def apply(_sim: Simulator) -> None:
                self._catch_up()
                self.table.apply_migration(plan)
                self.sim.stats.counter("buscom.slots.reassigned").inc(
                    2 * len(plan))
                self._rewake()

            self.sim.after(self.cfg.reassign_latency, apply)
        return plan

    def restore_slots(self, plan) -> None:
        """Undo a fault migration after repair (same reassign latency)."""
        def apply(_sim: Simulator) -> None:
            self._catch_up()
            self.table.undo_migration(plan)
            self.sim.stats.counter("buscom.slots.reassigned").inc(
                2 * len(plan))
            self._rewake()

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

        Every tick counts each bus's cycle, runs down its slot and,
        while frames are on the wires, samples parallelism.  Beyond
        that a tick matters only when a frame lands or a slot starts
        that launches a frame: a static slot whose owner can send, or
        a dynamic slot with some module that can send and a
        dynamic-segment budget that fits a byte.  With telemetry on,
        a dynamic slot that budget cannot fit counts a
        ``buscom.slot_overrun`` and wakes too.  Every other slot start
        is empty, and :meth:`settle` replays those arithmetically, so
        an idle fabric sleeps.  Who can send changes only with the
        interface queues, frozen flags, attachments, the priority
        order and the slot table, whose hooks replay what the fabric
        skipped and move its wake (:meth:`_rewake`).
        """
        buses = self._buses
        self._stash_frames = frames = [b.frame_msg is not None
                                       for b in buses]
        self._stash_active = sum(frames)
        nxt = None
        if self._stash_active:
            for bus in buses:
                if bus.frame_msg is not None and (
                        nxt is None or bus.frame_done_at < nxt):
                    nxt = bus.frame_done_at
            if nxt <= now + 1 + min(b.slot_remaining for b in buses):
                return nxt  # a frame lands before any slot starts
        senders = [m for m in self._priority if self._sendable(m)]
        if senders:
            schedule = self._schedule()
            overrun = self._sim.telemetering
            dead = self._dead_buses
            for bus in buses:
                if bus.index not in dead:
                    at = self._next_send(bus, now, nxt, senders,
                                         schedule[bus.index], overrun)
                    if at is not None:
                        nxt = at
        return SLEEP if nxt is None else nxt

    def _next_send(self, bus: _BusState, now: int, limit: Optional[int],
                   senders: List[str], schedule: tuple,
                   overrun: bool) -> Optional[int]:
        """The start cycle of the next slot on ``bus`` that launches a
        frame or, with ``overrun``, counts a dynamic-segment overrun
        (see :meth:`_horizon`), if it comes before ``limit``; None
        otherwise."""
        durs, kinds, owners, _, _ = schedule
        slots = len(durs)
        idx, left = bus.slot_idx, bus.slot_remaining
        at = now + 1 + left
        if left:
            idx = (idx + 1) % slots
        budget = bus.dyn_budget
        fits = self._fits
        # two rounds: the first may start with the budget spent
        for _ in range(2 * slots):
            if limit is not None and at >= limit:
                return None
            if idx == 0:
                budget = self.cfg.dynamic_segment_cycles
            if kinds[idx]:
                if budget >= fits or overrun:
                    return at
                budget = max(0, budget - durs[idx])
            elif owners[idx] in senders:
                return at
            at += durs[idx]
            idx = (idx + 1) % slots
        return None

    def _skipped(self, first: int, through: int) -> None:
        """Replay the ticks skipped from ``first`` through ``through``:
        every slot that started in them was empty (see :meth:`_horizon`),
        and frames stashed by the last tick kept their buses busy."""
        self._replay_slots(first - 1, through)
        if self._stash_active:
            gap = through - first + 1
            for bus, framed in zip(self._buses, self._stash_frames):
                if framed:
                    bus.busy_cycles += gap
            self._note_parallelism_run(self._stash_active, gap)

    def _schedule(self) -> List[tuple]:
        """Per bus, for rounds whose slots all start empty: slot
        durations, dynamic flags, static owners, each slot's start in
        the round (and the round's length last), and the dynamic-slot
        cycles before each slot (and in the whole round last); cached
        until the slot table changes."""
        table = self.table
        if self._schedule_version != table.version:
            cfg = self.cfg
            per_bus = []
            for bus in range(cfg.num_buses):
                entries = [table.entry(bus, slot)
                           for slot in range(table.slots_per_bus)]
                kinds = [entry.kind is SlotKind.DYNAMIC
                         for entry in entries]
                durs = [cfg.empty_dynamic_slot_cycles if dyn
                        else cfg.static_slot_cycles for dyn in kinds]
                per_bus.append((
                    durs, kinds, [entry.owner for entry in entries],
                    list(accumulate(durs, initial=0)),
                    list(accumulate((dur if dyn else 0
                                     for dur, dyn in zip(durs, kinds)),
                                    initial=0))))
            self._schedule_cache = per_bus
            self._schedule_version = table.version
        return self._schedule_cache

    def _replay_slots(self, last: int, through: int) -> None:
        """Advance every bus from the end of cycle ``last`` to the end
        of ``through`` as ticks that start only empty slots would:
        empty slots start and run down, nothing is sent."""
        gap = through - last
        schedule = None
        for bus in self._buses:
            bus.total_cycles += gap
            left = bus.slot_remaining
            if gap <= left:  # no slot starts: the current one runs down
                left -= gap
                if not left:
                    bus.slot_idx = (bus.slot_idx + 1) % self.table.slots_per_bus
                bus.slot_remaining = left
                continue
            if schedule is None:
                schedule = self._schedule()
            durs, _, _, starts, dyn_before = schedule[bus.index]
            slots = len(durs)
            idx = bus.slot_idx
            if left:
                idx = (idx + 1) % slots
            # the cycles of the round the next slot starts in, counted
            # from its slot 0, through ``through``
            rounds, pos = divmod(starts[idx] + through - (last + left + 1),
                                 starts[-1])
            k = bisect_right(starts, pos) - 1
            if idx == 0 or rounds:  # slot 0 started: a fresh budget
                budget = self.cfg.dynamic_segment_cycles - dyn_before[k + 1]
            else:
                budget = bus.dyn_budget - (dyn_before[k + 1]
                                           - dyn_before[idx])
            bus.dyn_budget = max(0, budget)
            left = starts[k + 1] - pos - 1
            bus.slot_idx = (k + 1) % slots if not left else k
            bus.slot_remaining = left

    def _rewake(self) -> None:
        """After a hook changed who may send: a sleeping fabric catches
        up and wakes at its new horizon instead of ticking the empty
        cycles before it."""
        if self._asleep:
            self._catch_up()
            hint = self._horizon(self._settled)
            if hint is not SLEEP:
                self._sim.wake_at(self, hint)

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
        self._catch_up()
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

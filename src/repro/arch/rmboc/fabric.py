"""RMBoC cycle-level model: cross-points, segmented lanes, circuits.

The whole interconnect is a single clocked component that advances three
planes each cycle, in a fixed order that mirrors the hardware:

1. **data plane** — every established circuit moves one word per cycle
   (path latency 1, the headline property of Table 2);
2. **control plane** — REQUEST/CANCEL/DESTROY messages whose per-cross-
   point processing delay has elapsed take their next hop;
3. **network interfaces** — each module keeps one FIFO per destination.
   Per destination, the oldest messages ride the pair's idle established
   circuits, the next ones wait for circuits already being requested,
   and later ones may send new REQUESTs within the module's channel
   budget; these actions are taken across destinations in arrival
   order.  Idle circuits are then retired.

Lane accounting is exact: a lane (segment, bus) is held from the cycle a
REQUEST reserves it until the CANCEL/DESTROY that releases it is
*processed at that segment's cross-point*, so contention timing is
faithful to hop-by-hop hardware behaviour.

Between protocol state changes the fabric sleeps (see ``_horizon``).
A control message whose next hops are certain wakes nothing: a REQUEST
short of its destination whose segments ahead have more free lanes
than there are other REQUESTs in flight, a CANCEL short of its last
hop, and a DESTROY short of its destination, or at its destination
while other work keeps the fabric busy.  Under saturating traffic most
REQUESTs are *doomed*: every lane of the source's first segment is
held, and nothing can release one before the source's cross-point
processes them, so they are cancelled there and retried
``retry_backoff + src_xp`` cycles later.  The fabric sleeps through
such retries too.  ``settle`` replays the skipped hops and retries in
cycle order, with the lanes, counters, cids, retry times, channel
budget and telemetry the ticks would have produced.

A message that finds the fabric idle is *planned alone* (``_plan``):
its whole transfer, from the REQUEST to the last DESTROY hop, is the
zero-load law, so the fabric wakes only to deliver it and for its final
DESTROY hop.  Reads record what the plan owes (``_commit``); a hook
first turns it into the state the ticks would have left
(``_materialize``).
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Collection, Deque, Dict, List, Optional, Set, Tuple

from repro.arch.base import CommArchitecture, Message
from repro.arch.rmboc.config import RMBoCConfig
from repro.arch.rmboc.protocol import Channel, ChannelState, CtrlKind, CtrlMsg, Transfer
from repro.core.parameters import PAPER_TABLE_1, DesignParameters
from repro.sim import SLEEP, Simulator
from repro.sim.backoff import bounded_backoff

#: the longest sleep over doomed retries alone: a storm on lanes that
#: nothing releases is looked at again after this many cycles
_STORM_SPAN = 4096
#: a horizon nothing bounds
_NEVER = float("inf")

_REQUEST, _CANCEL, _DESTROY = CtrlKind.REQUEST, CtrlKind.CANCEL, CtrlKind.DESTROY


class _Doomed:
    """REQUESTs of one pair, opened on one cycle, that the source's
    cross-point will cancel as blocked (see :meth:`RMBoC._replay`);
    ``msgs`` holds the control message of one that exists already, and
    is None for those the replay opens."""

    __slots__ = ("src", "dst", "opened", "backoff", "seg", "k", "msgs")

    def __init__(self, src: str, dst: str, opened: int, backoff: int,
                 seg: str) -> None:
        self.src = src
        self.dst = dst
        self.opened = opened
        self.backoff = backoff      # the pair's retry delay after the cancel
        self.seg = seg              # telemetry name of the full segment
        self.k = 0
        self.msgs: Optional[List[CtrlMsg]] = None


class _Pair:
    """A module's queue toward one destination, during a replay."""

    __slots__ = ("dst", "queue", "pending", "retry", "full", "backoff",
                 "seg")

    def __init__(self, dst: str, queue: Deque[Message], pending: int,
                 retry: int, full: bool, backoff: int, seg: str) -> None:
        self.dst = dst
        self.queue = queue
        self.pending = pending      # REQUESTING circuits of the pair
        self.retry = retry
        self.full = full            # every lane of the first segment held
        self.backoff = backoff
        self.seg = seg


class _Lone:
    """A message planned alone on an idle fabric (see
    :meth:`RMBoC._plan`), by the zero-load law.  Its NI opens the
    circuit on ``t0``; the REQUEST takes lane 0 of each segment in
    ``segs``, one cross-point every ``xp_proc_cycles``, and is
    processed at the destination's on ``hop``, whose handshake
    establishes the circuit on ``est``; the transfer starts there and
    its last word arrives on ``due``.  The idle circuit is retired on
    ``retire``, and its DESTROY frees one lane every
    ``cancel_proc_cycles`` and ends it at the destination on ``fin``.
    ``done`` is the last cycle whose records are written, and
    ``established`` whether the establish's are."""

    __slots__ = ("msg", "t0", "hop", "est", "due", "retire", "fin", "segs",
                 "done", "established")

    def __init__(self, msg: Message, t0: int, cfg: RMBoCConfig,
                 segs: range) -> None:
        self.msg = msg
        self.t0 = t0
        self.hop = t0 + (len(segs) + 1) * cfg.xp_proc_cycles
        self.est = self.hop + cfg.accept_cycles + cfg.reply_cycles
        self.due = self.est + cfg.words(msg.payload_bytes)
        self.retire = self.due + cfg.channel_linger
        self.fin = self.retire + (len(segs) + 1) * cfg.cancel_proc_cycles
        self.segs = segs
        self.done = t0 - 1
        self.established = False

    def lanes(self, through: int, cfg: RMBoCConfig) -> range:
        """The segments whose lane the circuit holds after the tick of
        ``through``: those the REQUEST has taken and the DESTROY not yet
        freed."""
        d = len(self.segs)
        taken = min(d, max(0, (through - self.t0) // cfg.xp_proc_cycles))
        freed = min(d, max(0, (through - self.retire)
                           // cfg.cancel_proc_cycles))
        return self.segs[freed:taken]


class RMBoC(CommArchitecture):
    """The RMBoC interconnect for ``cfg.num_modules`` slots."""

    KEY = "rmboc"

    def __init__(self, sim: Simulator, cfg: RMBoCConfig):
        super().__init__(sim, cfg.width, "rmboc")
        self.cfg = cfg

        # lane occupancy: lanes[segment][bus] -> channel cid or None
        self._lanes: List[List[Optional[int]]] = [
            [None] * cfg.num_buses for _ in range(cfg.num_segments)
        ]
        # free lanes per segment: 0 marks a segment with every lane held
        self._free = [cfg.num_buses] * cfg.num_segments
        self._frozen = [False] * cfg.num_modules
        # fault state: dead cross-points reject every REQUEST, and pairs
        # whose CANCEL was fault-induced back off exponentially (capped)
        self._dead_xps: set = set()
        self._fault_attempts: Dict[Tuple[str, str], int] = {}
        self._xp_module: Dict[int, str] = {}      # cross-point -> module name
        self._module_xp: Dict[str, int] = {}

        self._ctrl: List[CtrlMsg] = []
        self._transfers: List[Transfer] = []
        self._channels: Dict[int, Channel] = {}   # cid -> channel
        # per-module NI state: source -> destination -> FIFO.  A FIFO
        # is dropped when it empties, so a module's dict is non-empty
        # exactly while it has queued traffic.
        self._queues: Dict[str, Dict[str, Deque[Message]]] = {}
        # RMBoC's bandwidth adaptation: a pair may hold a *variable
        # number* of parallel circuits (Table 4 flexibility credit);
        # source -> destination -> circuits in request order
        self._chan_by_pair: Dict[str, Dict[str, List[Channel]]] = {}
        self._retry_at: Dict[Tuple[str, str], int] = {}
        self._idle_since: Dict[int, int] = {}     # cid -> cycle it went idle
        # runtime lane-allocation knob (defaults to the static config
        # cap; the control plane throttles it under backoff storms)
        self._channel_cap = cfg.channels_per_module
        # per-fabric cids keep traces of identical runs identical
        self._next_cid = 0
        #: per-module telemetry names of the NI queues
        self._ni_names: Dict[str, str] = {}
        # event horizons: whether the next tick's NI may act, and what
        # the last tick stashed for settle() to replay (see _horizon):
        # the transfers moving a word per cycle, and the modules whose
        # doomed retries run while the fabric sleeps
        self._hot = False
        self._stash_active = 0
        self._storms: Set[str] = set()
        #: modules whose NI may act at the next tick (see _tick_ni)
        self._ni_due: Set[str] = set()
        #: the message planned alone on the idle fabric (see _plan)
        self._lone: Optional[_Lone] = None

    # ==================================================================
    # CommArchitecture interface
    # ==================================================================
    def _attach_impl(self, module: str, xp: Optional[int] = None, **_: object) -> None:
        if xp is None:
            used = set(self._xp_module)
            xp = next(i for i in range(self.cfg.num_modules) if i not in used)
        if not 0 <= xp < self.cfg.num_modules:
            raise ValueError(f"cross-point {xp} outside 0..{self.cfg.num_modules - 1}")
        if xp in self._xp_module:
            raise ValueError(f"cross-point {xp} already hosts {self._xp_module[xp]!r}")
        self._catch_up()
        self._xp_module[xp] = module
        self._module_xp[module] = xp
        self._queues[module] = {}
        self._ni_names[module] = f"rmboc.ni.{module}"
        self._kick()  # queued traffic for the new module may move

    def _detach_impl(self, module: str) -> None:
        self._catch_up()  # a planned message counts as queued
        queued = sum(len(q) for q in self._queues[module].values())
        if queued:
            raise RuntimeError(
                f"detaching {module!r} with {queued} queued messages"
            )
        xp = self._module_xp.pop(module)
        del self._xp_module[xp]
        del self._queues[module], self._ni_names[module]
        self._kick()  # retries toward the module stop

    def _submit(self, msg: Message) -> None:
        if msg.src not in self._module_xp:
            raise KeyError(f"source module {msg.src!r} is not attached")
        self._catch_up()
        if self._asleep and self._plan(msg):
            return
        queues = self._queues[msg.src]
        queue = queues.get(msg.dst)
        if queue is None:
            queue = queues[msg.dst] = deque()
        queue.append(msg)
        if self.sim.telemetering:
            self._note_ni_depth(msg.src)
        self._kick(msg.src)  # new traffic ends any quiescent stretch

    def idle(self) -> bool:
        super()._catch_up()  # a read: a lone plan stays planned
        return (
            self._lone is None
            and not self._ctrl
            and not self._transfers
            and not self._channels
            and all(not q for q in self._queues.values())
        )

    def descriptor(self) -> DesignParameters:
        return PAPER_TABLE_1["RMBoC"]

    def area_slices(self) -> int:
        return self.area_model.rmboc_total(
            self.cfg.num_modules, self.cfg.num_buses, self.cfg.width
        )

    def fmax_hz(self) -> float:
        return self.clock_model.fmax_hz("rmboc", self.cfg.width)

    def theoretical_dmax(self) -> int:
        return self.cfg.theoretical_dmax

    # ==================================================================
    # reconfiguration hooks
    # ==================================================================
    def freeze_slot(self, xp: int) -> None:
        """Freeze a cross-point during slot reconfiguration: established
        circuits through it keep streaming, new REQUESTs are cancelled."""
        self._catch_up()
        self._frozen[xp] = True
        self._kick()  # REQUESTs planned as blocked there are cancelled

    def unfreeze_slot(self, xp: int) -> None:
        self._catch_up()
        self._frozen[xp] = False
        self._kick()  # held traffic may resume

    def module_at(self, xp: int) -> Optional[str]:
        return self._xp_module.get(xp)

    def xp_of(self, module: str) -> int:
        return self._module_xp[module]

    def placement(self, module: str) -> Dict[str, object]:
        return {"xp": self.xp_of(module)}

    def freeze(self, module: str) -> None:
        self.freeze_slot(self.xp_of(module))

    def unfreeze(self, module: str) -> None:
        self.unfreeze_slot(self.xp_of(module))

    # ==================================================================
    # fault hooks (repro.faults)
    # ==================================================================
    def _spans(self, ch: Channel, xp: int) -> bool:
        lo, hi = min(ch.src_xp, ch.dst_xp), max(ch.src_xp, ch.dst_xp)
        return lo <= xp <= hi

    def fail_crosspoint(self, xp: int) -> List[Message]:
        """A cross-point dies.  Circuits crossing it are torn down with
        the existing CANCEL machinery (lane release, retry bookkeeping);
        words in flight on them are lost.  Returns the victim messages
        so the caller (the fault injector) can record the drops."""
        if not 0 <= xp < self.cfg.num_modules:
            raise ValueError(
                f"cross-point {xp} outside 0..{self.cfg.num_modules - 1}")
        if xp in self._dead_xps:
            raise ValueError(f"cross-point {xp} already failed")
        self._catch_up()
        self._dead_xps.add(xp)
        now = self.sim.cycle
        victims: List[Message] = []
        for tr in [t for t in self._transfers if self._spans(t.channel, xp)]:
            self._transfers.remove(tr)
            victims.append(tr.msg)
            if self.sim.telemetering:
                # the lanes' busy cycles after the last word moved,
                # recorded at acceptance, never happen
                moved = self._settled
                left = (tr.msg.accepted_cycle
                        + self.cfg.words(tr.msg.payload_bytes) - moved)
                for seg, bus in tr.channel.lanes.items():
                    self.sim.telemetry.link_busy(
                        now, f"rmboc.lane.s{seg}b{bus}", -left,
                        first=moved + 1)
        for ch in [c for c in self._channels.values()
                   if self._spans(c, xp)]:
            # the source NI's watchdog reclaims the whole circuit: purge
            # its in-flight control messages and cancel it outright
            self._ctrl = [cm for cm in self._ctrl if cm.channel is not ch]
            self._idle_since.pop(ch.cid, None)
            ch.state = ChannelState.CANCELLED
            self._finish_cancel(ch, now)
        self._kick()
        return victims

    def repair_crosspoint(self, xp: int) -> None:
        """The cross-point is back; let backed-off pairs retry at once."""
        if xp not in self._dead_xps:
            raise ValueError(f"cross-point {xp} is not failed")
        self._catch_up()
        self._dead_xps.discard(xp)
        if not self._dead_xps and self._fault_attempts:
            now = self.sim.cycle
            for pair in self._fault_attempts:
                self._retry_at[pair] = now + 1
            self._fault_attempts.clear()
        self._kick()

    # ==================================================================
    # lane helpers
    # ==================================================================
    def _free_lane(self, segment: int) -> Optional[int]:
        for bus, owner in enumerate(self._lanes[segment]):
            if owner is None:
                return bus
        return None

    def _reserve(self, ch: Channel, segment: int, bus: int) -> None:
        assert self._lanes[segment][bus] is None
        self._lanes[segment][bus] = ch.cid
        self._free[segment] -= 1
        ch.lanes[segment] = bus

    def _release(self, ch: Channel, segment: int) -> None:
        bus = ch.lanes.pop(segment, None)
        if bus is not None and self._lanes[segment][bus] == ch.cid:
            self._lanes[segment][bus] = None
            self._free[segment] += 1

    def held_lanes(self) -> List[List[bool]]:
        """Whether each lane is held, as ``[segment][bus]``, counting
        the lanes a lone plan's circuit holds (all on bus 0)."""
        super()._catch_up()  # a read: a lone plan stays planned
        held = [[owner is not None for owner in seg] for seg in self._lanes]
        lone = self._lone
        if lone is not None:
            for seg in lone.lanes(self._sim.owed(self), self.cfg):
                held[seg][0] = True
        return held

    def lanes_in_use(self) -> int:
        return sum(map(sum, self.held_lanes()))

    @property
    def channel_cap(self) -> int:
        """Current per-module concurrent-circuit cap (lane allocation)."""
        return self._channel_cap

    def set_channel_cap(self, cap: int) -> None:
        """Re-allocate lane budget: cap concurrent circuits per module.

        The runtime counterpart of ``max_channels_per_module`` — the
        control plane lowers it during a backoff storm so competing
        REQUESTs stop re-colliding on saturated segments, and restores
        it afterwards.  Established circuits are never torn down; a
        lowered cap only gates *new* channel setup.
        """
        if not 1 <= cap <= self.cfg.num_buses:
            raise ValueError(
                f"channel cap {cap} outside 1..{self.cfg.num_buses}"
            )
        if cap == self._channel_cap:
            return
        self._catch_up()
        self._channel_cap = cap
        self.sim.stats.counter("rmboc.channel_cap.set").inc()
        if self.sim.telemetering:
            self.sim.telemetry.count(self.sim.cycle,
                                     "rmboc.channel_cap.set")
        if self.sim.tracing:
            self.sim.emit("rmboc", "channel_cap", cap=cap)
        self._kick()  # a raised cap lets queued traffic open circuits

    # ==================================================================
    # per-cycle behaviour
    # ==================================================================
    def tick(self, sim: Simulator):
        now = sim.cycle
        if self._settled < now - 1:
            self.settle(now - 1)
        self._settled = now
        if self._lone is not None:
            self._commit(now)
            return SLEEP if self._lone is None else self._lone_wake()
        if self._storms:
            self._storms = set()
        self._hot = False
        self._tick_data(now)
        self._tick_control(now)
        self._tick_ni(now)
        return self._horizon(now)

    def _kick(self, module: Optional[str] = None) -> None:
        """A hook changed what the NI of ``module`` (None: of every
        module) may do: tick at the next chance.  Called from inside
        the fabric's own tick, it keeps the fabric hot for the next
        cycle instead."""
        if module is None:
            self._ni_due.update(self._queues)
        else:
            self._ni_due.add(module)
        self._hot = True
        self.wake()

    def _horizon(self, now: int):
        """The next cycle a tick changes what anything outside the
        fabric can see, stashing what the ticks before it would record.

        While anything is in flight or queued, every tick moves each
        streaming transfer one word and samples parallelism.  Beyond
        that, a tick matters only at a transfer's last word, a queued
        pair's retry time, an idle circuit's linger deadline, or a
        control-message hop that cannot be replayed.  The NI acts again
        only after one of those or after an external hook (submit,
        establish, freeze, unfreeze, fail, repair, channel cap, attach,
        detach), which replays what the fabric skipped and wakes it.
        The fabric stays hot one more cycle only when the next tick's
        NI can act: a circuit retired this tick freed budget for a pair
        that is due (:meth:`_start_destroy`), or a hook kicked the
        fabric from its own tick.

        One pass over ``_ctrl`` walks each control message to its first
        hop that must wake the fabric; :meth:`settle` replays the hops
        before it, as :meth:`_tick_control` would, so a hop is replayed
        only when nothing outside the fabric can tell:

        * a REQUEST hop short of the destination, at a live unfrozen
          cross-point, whose segment ahead has more free lanes than
          there are other REQUESTs in flight: lanes are only taken by
          REQUESTs, so it cannot be blocked.  The hop at the
          destination schedules ``_establish`` and wakes;
        * a CANCEL hop before the last one, which finishes the cancel;
        * a DESTROY hop before the destination, and the one at the
          destination unless it emits a trace event or may leave the
          fabric idle (drain predicates read ``idle()`` every cycle):
          of those, only the last ones wake.

        While some segment has every lane held, a CANCEL or DESTROY
        hop that frees a lane there wakes, and on an untraced
        fast-kernel run doomed retries wake nothing.  A REQUEST at its
        live, unfrozen source cross-point with every lane of its first
        segment held is *doomed*: it is cancelled there, and so is
        every REQUEST the NI opens toward such a segment, because only
        the control plane and ``fail_crosspoint`` release lanes, and
        both wake the fabric first.  The passes set doomed REQUESTs and
        pairs apart; when one of them comes first, their modules become
        *storm* modules, whose retries :meth:`settle` replays.  Their
        other pairs still wake the fabric at their retry time, or, when
        one is due but the budget holds it back, when the module's
        first doomed REQUEST is cancelled.  With alert rules attached
        the fabric also wakes before the grid cycle after the first
        cancel: a grid evaluation reads what was recorded before it,
        and a replayed cancel arms the grid as of the cycle it is
        replayed in.  The stepped kernel ticks every cycle, and the
        tracer keeps every component's events in the order they were
        recorded, so neither replays storms.
        """
        transfers, ctrl = self._transfers, self._ctrl
        queued = any(self._queues.values())
        if not (ctrl or transfers or queued):
            self._stash_active = 0
            return self._quiescence(now)
        if self._hot:
            return None
        self._stash_active = len(transfers)
        # the first cycle anything but a doomed REQUEST or retry wakes
        nxt = _NEVER
        for tr in transfers:
            if now + tr.words_left < nxt:
                nxt = now + tr.words_left
        cfg = self.cfg
        for since in self._idle_since.values():
            if now < since + cfg.channel_linger < nxt:
                nxt = since + cfg.channel_linger
        proc, cproc = cfg.xp_proc_cycles, cfg.cancel_proc_cycles
        free, frozen, dead = self._free, self._frozen, self._dead_xps
        full = 0 in free
        sim = self._sim
        tracing = sim.tracing
        storms = full and sim.fast_path and not tracing
        requests = destroys = 0
        for cm in ctrl:
            if cm.kind is _REQUEST:
                requests += 1
            elif cm.kind is _DESTROY:
                destroys += 1
        # something that outlives every DESTROY keeps the fabric busy
        busy = queued or transfers or len(self._channels) > destroys
        # per storm module its first doomed cancel (-1: none), the first
        # doomed cancel and retry, the first cancel a due pair waits
        # for, and the last final DESTROY hop that may leave it idle
        cancels: Dict[str, int] = {}
        first = retry = held = _NEVER
        final = -1
        for cm in ctrl:
            ch, xp, at = cm.channel, cm.at_xp, cm.ready_at
            kind = cm.kind
            if kind is _REQUEST:
                dst = ch.dst_xp
                ahead, step = (0, 1) if dst > xp else (1, -1)
                if (storms and xp == ch.src_xp and not free[xp - ahead]
                        and not frozen[xp] and xp not in dead):
                    if cancels.get(ch.src_module, at) >= at:
                        cancels[ch.src_module] = at
                    if at < first:
                        first = at
                    continue
                while (xp != dst and free[xp - ahead] >= requests
                       and not frozen[xp] and xp not in dead):
                    at += proc
                    xp += step
            elif kind is _CANCEL:
                # every hop but the last, which finishes the cancel
                src = ch.src_xp
                back = 1 if ch.dst_xp > src else 0
                for _ in range(abs(xp - src) - 1):
                    if full and not free[xp - back]:
                        break
                    at += cproc
                    xp += 1 - 2 * back
            else:
                dst = ch.dst_xp
                ahead = 0 if dst > xp else 1
                for _ in range(abs(dst - xp)):
                    if full and not free[xp - ahead]:
                        break
                    at += cproc
                    xp += 1 - 2 * ahead
                if xp == dst and not tracing:
                    if not busy and at > final:
                        final = at
                    continue
            if at < nxt:
                nxt = at
        if 0 <= final < nxt:
            nxt = final
        module_xp, retry_at = self._module_xp, self._retry_at
        for module, queues in self._queues.items():
            if not queues:
                continue
            xp = module_xp[module]
            live = storms and not frozen[xp] and xp not in dead
            due = False
            for dst in queues:
                at = retry_at.get((module, dst), -1)
                dst_xp = module_xp.get(dst) if live else None
                if dst_xp is not None and not free[
                        xp if dst_xp > xp else xp - 1]:
                    cancels.setdefault(module, -1)
                    if now < at < retry:
                        retry = at
                elif at > now:
                    if at < nxt:
                        nxt = at
                else:
                    due = True
            if due and live and now < cancels.get(module, -1) < held:
                held = cancels[module]
        storm = first if first < retry else retry
        if storm < nxt and storm < held:
            self._storms = set(cancels)
            quiet = nxt if nxt < held else held
            end = now + _STORM_SPAN
            tel = sim.telemetry
            if sim.telemetering and tel.engine is not None:
                grid = tel.eval_interval
                cancel = first if first < retry + proc else retry + proc
                end = min(end, (cancel // grid + 1) * grid - 1)
            nxt = end if end < quiet else quiet
        elif storm < nxt:
            nxt = storm
        if nxt == _NEVER:
            return SLEEP
        return nxt if nxt > now else now + 1

    def _skipped(self, first: int, through: int) -> None:
        """Replay the ticks skipped from ``first`` through ``through``:
        each moved every transfer one word and sampled parallelism as
        the last tick left them, its control messages took their hops,
        and the storm modules retried (see :meth:`_horizon`)."""
        gap = through - first + 1
        if self._stash_active:
            for tr in self._transfers:
                tr.words_left -= gap
            self._note_parallelism_run(self._stash_active, gap)
        if self._storms or self._ctrl:
            self._replay(first, through)

    # -- lone transfers ----------------------------------------------------
    def _plan(self, msg: Message) -> bool:
        """Plan ``msg``, submitted to the sleeping fabric, alone if it
        finds the fabric idle on an untraced fast kernel with no fault
        schedule: no control message, transfer, circuit or queued
        message, both ends attached, no frozen or dead cross-point on
        its path and its pair out of backoff.  Its whole transfer then
        follows the
        zero-load law (``tests/arch/rmboc/test_lone_law.py``), and the
        fabric wakes only to deliver it, before a grid cycle and for
        the final DESTROY hop (:meth:`_lone_wake`).  A read settles
        what the plan owes (:meth:`_commit`); a hook first turns it
        into ordinary state (:meth:`_materialize`)."""
        sim = self._sim
        dst_xp = self._module_xp.get(msg.dst)
        if (self._ctrl or self._transfers or self._channels
                or not sim.fast_path or sim.tracing or self.faulting
                or dst_xp is None or any(self._queues.values())):
            return False
        src_xp = self._module_xp[msg.src]
        lo, hi = min(src_xp, dst_xp), max(src_xp, dst_xp)
        pair = (msg.src, msg.dst)
        cycle, order = sim.origin
        t0 = cycle + (order >= 0)  # the cycle its wake would tick the NI
        if (True in self._frozen[lo:hi + 1] or pair in self._fault_attempts
                or self._dead_xps and any(lo <= xp <= hi
                                          for xp in self._dead_xps)
                or self._retry_at.get(pair, -1) > t0):
            return False
        self._lone = _Lone(msg, t0, self.cfg, range(src_xp, dst_xp)
                           if dst_xp > src_xp
                           else range(src_xp - 1, dst_xp - 1, -1))
        if sim.telemetering:
            sim.telemetry.queue_depth(cycle, self._ni_names[msg.src], 1)
        sim.wake_at(self, self._lone_wake())
        return True

    def _lone_wake(self) -> int:
        """The plan's next tick: its delivery, then its final DESTROY
        hop (drain predicates read ``idle()`` every cycle).  With alert
        rules attached it also ticks the cycle before the grid cycle
        after the transfer's start, if that comes first: a grid
        evaluation reads what was recorded before it."""
        lone = self._lone
        if lone.done >= lone.due:
            return lone.fin
        sim = self._sim
        tel = sim.telemetry
        if (lone.done < lone.est and sim.telemetering
                and tel.engine is not None):
            grid = tel.eval_interval
            before = (lone.est // grid + 1) * grid - 1
            if before < lone.due:
                return before
        return lone.due

    def settle(self, through: int) -> None:
        """Settle (see :meth:`CommArchitecture.settle`), recording what
        a lone plan owes first, even through a cycle already settled: a
        read from the establish cycle's events may owe the establish
        that an earlier read through the same cycle did not."""
        if self._lone is not None:
            self._commit(through)
        super().settle(through)

    def _catch_up(self) -> None:
        """Before a hook: settle, and turn a lone plan into the state
        the hook changes."""
        super()._catch_up()
        if self._lone is not None:
            self._materialize(self._sim.owed(self))

    def _commit(self, through: int) -> None:
        """Record what the ticks through ``through`` record of the lone
        plan, from where the last commit stopped: the circuit request
        on ``t0``; the establish; the transfer's start on ``est`` (the
        NI depth, lane occupancy and journey stamps, at that cycle); a
        parallelism sample on each cycle a word moves; the delivery,
        from its own tick; and the DESTROY's end on ``fin``, which ends
        the plan.  The establish runs as an event scheduled from the
        destination hop's tick: a read from that cycle's events counts
        it once it would have run."""
        lone = self._lone
        sim = self._sim
        done, est = lone.done, lone.est
        stats = sim.stats
        if done < lone.t0 <= through:
            stats.counter("rmboc.channels.requested").inc()
        if not lone.established and (
                est <= through or est == through + 1
                and sim.passed(est, (lone.hop, self._order))):
            lone.established = True
            stats.counter("rmboc.channels.established").inc()
            stats.histogram("rmboc.setup_latency").add(est - lone.t0)
        if through <= done:
            return
        lone.done = through
        msg, due = lone.msg, lone.due
        if done < est <= through:
            msg.accepted_cycle = est
            if sim.telemetering:
                tel = sim.telemetry
                tel.queue_depth(est, self._ni_names[msg.src], 0)
                for seg in lone.segs:
                    tel.link_busy(est, f"rmboc.lane.s{seg}b0", due - est,
                                  first=est + 1)
            if sim.journeying:
                jr = sim.journey
                jr.stamp_to(msg.mid, "ni_queue", lone.t0)
                jr.stamp_to(msg.mid, "setup_wait", est)
                jr.stamp_to(msg.mid, "ni_queue", est)
        if through > est and done < due:
            self._note_parallelism_run(
                1, min(through, due) - max(done, est))
        if done < due <= through:
            words, dist = due - est, len(lone.segs)
            stats.counter("rmboc.word_segments").inc(words * dist)
            stats.counter("rmboc.word_crosspoints").inc(words * (dist + 1))
            if sim.journeying:
                sim.journey.stamp_to(msg.mid, "link_transit", due)
            self._deliver(msg)
        if lone.fin <= through:
            stats.counter("rmboc.channels.destroyed").inc()
            self._lone = None

    def _materialize(self, through: int) -> None:
        """Turn the lone plan into the state the ticks through
        ``through`` leave (the queued message, its channel and lanes,
        its REQUEST, establish event, transfer, idle circuit or
        DESTROY), and wake the fabric to tick from there.  No lane is
        held when the plan is made, so the REQUEST takes lane 0 of
        each segment; the circuit takes the next cid on the NI cycle,
        so a plan materialised before it has taken none."""
        self._commit(through)
        lone, self._lone = self._lone, None
        msg = lone.msg
        self.wake()
        if through < lone.t0:  # the NI has not seen it yet
            self._queues[msg.src][msg.dst] = deque((msg,))
            self._ni_due.add(msg.src)
            return
        cm = self._request(msg.src, msg.dst, self._next_cid, lone.t0)
        self._next_cid += 1
        ch = cm.channel
        cfg = self.cfg
        held = lone.lanes(through, cfg)
        for seg in held:
            self._reserve(ch, seg, 0)
        if through < lone.hop:  # the REQUEST still walks
            cm.at_xp += len(held) * ch.direction
            cm.ready_at += len(held) * cfg.xp_proc_cycles
        elif not lone.established:
            self._ctrl.clear()
            self._sim.at_from(lone.est, lambda s, c=ch: self._establish(
                c, s.cycle), (lone.hop, self._order))
        else:
            self._ctrl.clear()
            ch.state = ChannelState.ESTABLISHED
            ch.established_cycle = lone.est
            if through < lone.est:  # its NI pass is this cycle's tick
                self._idle_since[ch.cid] = lone.est
                self._ni_due.add(msg.src)
            elif through < lone.due:
                self._transfers.append(Transfer(ch, lone.due - through, msg))
                return
            elif through < lone.retire:
                self._idle_since[ch.cid] = lone.due
                return
            else:  # the DESTROY walks
                ch.state = ChannelState.CLOSED
                self._drop_pair_entry(ch)
                freed = len(lone.segs) - len(held)
                self._ctrl.append(CtrlMsg(
                    CtrlKind.DESTROY, ch, ch.src_xp + freed * ch.direction,
                    ready_at=lone.retire
                    + (freed + 1) * cfg.cancel_proc_cycles))
                self._ni_due.add(msg.src)
                return
        self._queues[msg.src][msg.dst] = deque((msg,))

    # -- retry storms ------------------------------------------------------
    def _doomed(self, cm: CtrlMsg) -> bool:
        """A REQUEST its source's cross-point will cancel as blocked:
        every lane of its first segment is held."""
        ch = cm.channel
        xp = cm.at_xp
        return (cm.kind is CtrlKind.REQUEST and xp == ch.src_xp
                and not self._free[self._segment_toward(ch, xp)]
                and not self._frozen[xp] and xp not in self._dead_xps)

    def _backoff(self, pair: Tuple[str, str]) -> int:
        """Cycles a pair waits after a CANCEL, its source's cross-point
        index not counted.  Fault-induced cancels escalate: a capped
        exponential backoff, so a dead cross-point isn't hammered
        forever."""
        n = self._fault_attempts.get(pair, 0) if self._fault_attempts else 0
        if n:
            return bounded_backoff(self.cfg.retry_backoff, n,
                                   cap=self.cfg.fault_backoff_cap)
        return self.cfg.retry_backoff

    def _ni_pairs(self, module: str) -> Tuple[int, Dict[str, _Pair]]:
        """The module's live circuits and its queued pairs to attached
        destinations, as :meth:`_ni_for` counts them.  No queued pair
        has an idle circuit between ticks: the NI fills those first."""
        queues = self._queues[module]
        live, circuits = self._circuits(module, queues, set())
        xp = self._module_xp[module]
        pairs: Dict[str, _Pair] = {}
        for dst, queue in queues.items():
            dst_xp = self._module_xp.get(dst)
            if dst_xp is None:
                continue  # the NI opens nothing toward a detached module
            seg = xp if dst_xp > xp else xp - 1
            pairs[dst] = _Pair(
                dst, queue, circuits.get(dst, ((), 0))[1],
                self._retry_at.get((module, dst), -1),
                not self._free[seg],
                self._backoff((module, dst)) + xp, f"rmboc.seg{seg}")
        return live, pairs

    def _replay(self, first: int, through: int) -> None:
        """Run the control plane and the storm modules' retries of
        cycles ``first`` to ``through`` as the ticks would have.

        Control messages take their hops through
        :meth:`_tick_control`, cycle by cycle; every hop due in the
        stretch is one :meth:`_horizon` let the fabric sleep
        through, or a doomed REQUEST.  Each storm module's NI runs as
        :meth:`_ni_for` would, on what a sleep changes: each pair's
        pending REQUESTs and retry time, and the module's channel
        budget.  Every REQUEST it opens is doomed (see
        :meth:`_horizon`): it holds budget until the source's
        cross-point cancels it ``xp_proc_cycles`` later, and the cancel
        sets the pair's next retry.  A REQUEST still in flight at
        ``through`` becomes a real channel and control message when it
        is opened.  Within a cycle, cancels and hops come before NI
        passes, and NI passes go in module order, which fixes the cids
        and the order of ``_ctrl``.
        """
        if not self._storms:
            at = self._next_hops(first - 1, through, ())
            while at is not None:
                self._tick_control(at)
                at = self._next_hops(at, through, ())
            return
        proc = self.cfg.xp_proc_cycles
        order = {module: i for i, module in enumerate(self._queues)}
        # (cycle, 0 for a cancel or hops or 1 for an NI pass, position,
        # tie-break, _Doomed, module, or None for the hops)
        events: List[tuple] = []
        seq = itertools.count()
        # module -> [live, pairs, last pass], built at its first event
        nis: Dict[str, Optional[list]] = {}
        retry_at = self._retry_at
        for module in self._storms:
            queues = self._queues.get(module)
            xp = self._module_xp.get(module)
            if not queues or self._frozen[xp] or xp in self._dead_xps:
                continue
            nis[module] = None
            for dst in queues:
                at = retry_at.get((module, dst), -1)
                if first <= at <= through:
                    heappush(events, (at, 1, order[module], next(seq),
                                      module))
        doomed_ids: Set[int] = set()
        for cm in self._ctrl:
            if first <= cm.ready_at <= through and self._doomed(cm):
                ch = cm.channel
                pair = (ch.src_module, ch.dst_module)
                doomed = _Doomed(
                    ch.src_module, ch.dst_module, ch.requested_cycle,
                    self._backoff(pair) + ch.src_xp,
                    f"rmboc.seg{self._segment_toward(ch, ch.src_xp)}")
                doomed.k = 1
                doomed.msgs = [cm]
                doomed_ids.add(id(cm))
                heappush(events, (cm.ready_at, 0, 0, next(seq), doomed))
        hops = len(order)  # after every cancel of the cycle
        at = self._next_hops(first - 1, through, doomed_ids)
        if at is not None:
            heappush(events, (at, 0, hops, next(seq), None))
        if not events:
            return
        tel = self.sim.telemetry if self.sim.telemetering else None
        wait = self.cfg.retry_backoff
        cap = self._channel_cap
        requested = blocked = 0
        while events:
            t, kind, pos, _, item = heappop(events)
            if item is None:  # the hops due this cycle
                self._tick_control(t)
                at = self._next_hops(t, through, doomed_ids)
                if at is not None:
                    heappush(events, (at, 0, hops, next(seq), None))
                continue
            module = item.src if kind == 0 else item
            ni = nis.get(module)
            if ni is None and module in nis:
                live, pairs = self._ni_pairs(module)
                ni = nis[module] = [live, pairs, -1]
            if kind == 0:  # the source's cross-point cancels them
                blocked += item.k
                for cm in item.msgs or ():
                    self._ctrl.remove(cm)
                    ch = cm.channel
                    ch.state = ChannelState.CANCELLED
                    del self._channels[ch.cid]
                    self._drop_pair_entry(ch)
                retry_at[(item.src, item.dst)] = t + item.backoff
                if tel is not None:
                    for _ in range(item.k):
                        tel.count(t, "rmboc.blocked")
                        tel.backpressure(t, item.seg, wait)
                if ni is None:
                    continue
                ni[0] -= item.k
                pair = ni[1].get(item.dst)
                if pair is not None:
                    pair.pending -= item.k
                    pair.retry = t + item.backoff
                    if pair.retry <= through:
                        heappush(events, (pair.retry, 1, order[item.src],
                                          next(seq), item.src))
                heappush(events, (t, 1, order[item.src], next(seq),
                                  item.src))
                continue
            if ni[2] == t:
                continue  # this cycle's pass already ran
            ni[2] = t
            budget = cap - ni[0]
            if budget <= 0:
                continue
            asks = []
            for pair in ni[1].values():
                if pair.retry <= t:
                    for msg in itertools.islice(pair.queue, pair.pending,
                                                pair.pending + budget):
                        asks.append((msg.mid, pair))
            if not asks:
                continue
            asks.sort()  # by mid: mids are unique
            opened: Dict[str, _Doomed] = {}
            cancelled = t + proc <= through
            for _, pair in asks[:budget]:
                assert pair.full, "a storm opened a REQUEST with a free lane"
                doomed = opened.get(pair.dst)
                if doomed is None:
                    doomed = opened[pair.dst] = _Doomed(
                        item, pair.dst, t, pair.backoff, pair.seg)
                    if cancelled:
                        heappush(events, (t + proc, 0, pos, next(seq),
                                          doomed))
                doomed.k += 1
                pair.pending += 1
                if not cancelled:
                    self._request(item, pair.dst, self._next_cid, t)
                self._next_cid += 1
                requested += 1
            ni[0] += min(budget, len(asks))
        self._ni_due.update(nis)  # their retries and budget moved
        stats = self.sim.stats
        if requested:
            stats.counter("rmboc.channels.requested").inc(requested)
        if blocked:
            stats.counter("rmboc.cancel.blocked").inc(blocked)
            stats.counter("rmboc.channels.cancelled").inc(blocked)

    def _next_hops(self, after: int, through: int,
                   doomed: Collection[int]) -> Optional[int]:
        """The first cycle in ``after + 1 .. through`` at which a control
        message other than a replayed doomed REQUEST is due."""
        nxt = None
        for cm in self._ctrl:
            at = cm.ready_at
            if (after < at <= through and (nxt is None or at < nxt)
                    and id(cm) not in doomed):
                nxt = at
        return nxt

    def _quiescence(self, now: int):
        """Quiescence hint for the activity-driven kernel.

        The fabric is inert when there are no in-flight control
        messages, no streaming transfers and no queued requests; the
        only self-generated future work is then retiring established
        idle circuits, which happens at a known linger deadline.
        Anything external (a new submit, an unfreeze) wakes us.
        """
        if not self._channels:
            return SLEEP
        # Remaining channels should all be established-and-idle with a
        # linger clock running; if any lacks one (e.g. a REQUESTING
        # channel whose REPLY handshake is a scheduled event), stay hot.
        if len(self._idle_since) != len(self._channels):
            return None
        return max(min(self._idle_since.values()) + self.cfg.channel_linger,
                   now + 1)

    # -- data plane -----------------------------------------------------
    def _tick_data(self, now: int) -> None:
        active = 0
        finished: List[Transfer] = []
        for tr in self._transfers:
            if tr.words_left > 0:
                tr.words_left -= 1
                active += 1
            if tr.words_left == 0:
                finished.append(tr)
        self._note_parallelism(active)
        for tr in finished:
            self._transfers.remove(tr)
            self._finish_transfer(tr, now)

    def _finish_transfer(self, tr: Transfer, now: int) -> None:
        """Retire a completed transfer (already off ``_transfers``)."""
        words = self.cfg.words(tr.msg.payload_bytes)
        dist = tr.channel.distance
        stats = self.sim.stats
        stats.counter("rmboc.word_segments").inc(words * dist)
        stats.counter("rmboc.word_crosspoints").inc(words * (dist + 1))
        if self.sim.journeying:
            # the word stream held the circuit from acceptance to now
            self.sim.journey.stamp_to(tr.msg.mid, "link_transit", now)
        self._deliver(tr.msg)
        self._idle_since[tr.channel.cid] = now
        self._ni_due.add(tr.channel.src_module)  # an idle circuit

    # -- control plane ----------------------------------------------------
    def _next_xp(self, ch: Channel, at_xp: int) -> int:
        return at_xp + ch.direction

    def _segment_toward(self, ch: Channel, at_xp: int) -> int:
        """Segment index from ``at_xp`` toward the destination."""
        return at_xp if ch.direction > 0 else at_xp - 1

    def _segment_back(self, ch: Channel, at_xp: int) -> int:
        """Segment index from ``at_xp`` back toward the source."""
        return at_xp - 1 if ch.direction > 0 else at_xp

    def _tick_control(self, now: int) -> None:
        ctrl = self._ctrl
        ready = [m for m in ctrl if m.ready_at <= now]
        if not ready:
            return
        # the others keep their order; each hop's successor is appended
        self._ctrl = [m for m in ctrl if m.ready_at > now]
        for cm in ready:
            if cm.kind is CtrlKind.REQUEST:
                self._process_request(cm, now)
            elif cm.kind is CtrlKind.CANCEL:
                self._process_cancel(cm, now)
            elif cm.kind is CtrlKind.DESTROY:
                self._process_destroy(cm, now)
            else:  # pragma: no cover - REPLY handled via scheduled establish
                raise AssertionError(cm.kind)

    def _process_request(self, cm: CtrlMsg, now: int) -> None:
        ch = cm.channel
        xp = cm.at_xp
        stats = self.sim.stats
        if self._dead_xps and xp in self._dead_xps:
            stats.counter("rmboc.cancel.dead_xp").inc()
            pair = (ch.src_module, ch.dst_module)
            self._fault_attempts[pair] = self._fault_attempts.get(pair, 0) + 1
            self._start_cancel(ch, xp, now)
            return
        if self._frozen[xp]:
            stats.counter("rmboc.cancel.frozen").inc()
            self._start_cancel(ch, xp, now)
            return
        if xp == ch.dst_xp:
            dst_mod = self._xp_module.get(xp)
            if dst_mod is None:
                stats.counter("rmboc.cancel.no_dest").inc()
                self._start_cancel(ch, xp, now)
                return
            # destination handshake + REPLY over the reserved circuit
            est = now + self.cfg.accept_cycles + self.cfg.reply_cycles
            self.sim.at(est, lambda s, c=ch: self._establish(c, s.cycle))
            return
        seg = self._segment_toward(ch, xp)
        bus = self._free_lane(seg)
        if bus is None:
            stats.counter("rmboc.cancel.blocked").inc()
            if self.sim.telemetering:
                # all lanes of this segment taken: the sender backs off
                # for at least the retry interval before trying again
                tel = self.sim.telemetry
                tel.count(now, "rmboc.blocked")
                tel.backpressure(now, f"rmboc.seg{seg}",
                                 self.cfg.retry_backoff)
            self._start_cancel(ch, xp, now)
            return
        self._reserve(ch, seg, bus)
        self._hop(cm, self._next_xp(ch, xp), now + self.cfg.xp_proc_cycles)

    def _establish(self, ch: Channel, now: int) -> None:
        if ch.state is not ChannelState.REQUESTING:
            return  # raced with a cancel (e.g. source slot frozen meanwhile)
        self._catch_up()
        ch.state = ChannelState.ESTABLISHED
        ch.established_cycle = now
        if self._fault_attempts:
            # a successful setup resets the pair's fault backoff
            self._fault_attempts.pop((ch.src_module, ch.dst_module), None)
        self.sim.stats.counter("rmboc.channels.established").inc()
        if self.sim.tracing:
            self.sim.emit("rmboc", "establish", cid=ch.cid,
                          lanes=dict(ch.lanes))
            self.sim.span_end("rmboc", "setup", key=ch.cid,
                              status="established")
        self.sim.stats.histogram("rmboc.setup_latency").add(
            now - ch.requested_cycle
        )
        self._idle_since[ch.cid] = now
        self._kick(ch.src_module)  # the circuit may serve queued traffic

    def _start_cancel(self, ch: Channel, from_xp: int, now: int) -> None:
        ch.state = ChannelState.CANCELLED
        self._ni_due.add(ch.src_module)  # budget freed
        if from_xp == ch.src_xp:
            self._finish_cancel(ch, now)
        else:
            self._ctrl.append(
                CtrlMsg(CtrlKind.CANCEL, ch, from_xp,
                        ready_at=now + self.cfg.cancel_proc_cycles)
            )

    def _process_cancel(self, cm: CtrlMsg, now: int) -> None:
        ch, xp = cm.channel, cm.at_xp
        seg = self._segment_back(ch, xp)
        self._release(ch, seg)
        prev = xp - ch.direction
        if prev == ch.src_xp and not ch.lanes:
            self._finish_cancel(ch, now)
        else:
            self._hop(cm, prev, now + self.cfg.cancel_proc_cycles)

    def _hop(self, cm: CtrlMsg, xp: int, ready_at: int) -> None:
        """Send a processed control message on to cross-point ``xp``."""
        cm.at_xp = xp
        cm.ready_at = ready_at
        self._ctrl.append(cm)

    def _drop_pair_entry(self, ch: Channel) -> None:
        by_dst = self._chan_by_pair.get(ch.src_module, {})
        chans = by_dst.get(ch.dst_module)
        if chans and ch in chans:
            chans.remove(ch)
            if not chans:
                del by_dst[ch.dst_module]

    def _finish_cancel(self, ch: Channel, now: int) -> None:
        for seg in list(ch.lanes):
            self._release(ch, seg)
        self._channels.pop(ch.cid, None)
        self._drop_pair_entry(ch)
        src_mod = ch.src_module
        dst_mod = ch.dst_module
        self._ni_due.add(src_mod)  # budget freed
        if src_mod is not None and dst_mod is not None:
            # stagger retries by cross-point index: identical backoffs
            # would otherwise retry in lockstep and re-collide forever
            # on a saturated single bus (deterministic livelock)
            pair = (src_mod, dst_mod)
            self._retry_at[pair] = now + self._backoff(pair) + ch.src_xp
        self.sim.stats.counter("rmboc.channels.cancelled").inc()
        if self.sim.tracing:
            self.sim.emit("rmboc", "cancel", cid=ch.cid)
            if ch.established_cycle < 0:  # _establish ended it otherwise
                self.sim.span_end("rmboc", "setup", key=ch.cid,
                                  status="cancelled")
            self.sim.span_end("rmboc", "circuit", key=ch.cid,
                              status="cancelled")

    def _start_destroy(self, ch: Channel, now: int) -> None:
        ch.state = ChannelState.CLOSED
        self._drop_pair_entry(ch)
        self._idle_since.pop(ch.cid, None)
        self._ctrl.append(
            CtrlMsg(CtrlKind.DESTROY, ch, ch.src_xp,
                    ready_at=now + self.cfg.cancel_proc_cycles)
        )
        self._ni_due.add(ch.src_module)  # budget freed
        if not self._hot and self._may_open(ch.src_module, now + 1):
            self._hot = True  # the freed budget opens a circuit next tick

    def _may_open(self, module: str, at: int) -> bool:
        """Whether the module's NI opens a circuit at cycle ``at`` if
        nothing changes before: it has budget left and a pair due at
        ``at`` with more queued messages than circuits being requested
        (no queued pair has an idle circuit after an NI pass)."""
        queues = self._queues.get(module)
        if not queues:
            return False
        xp = self._module_xp[module]
        if self._frozen[xp] or xp in self._dead_xps:
            return False
        live, circuits = self._circuits(module, queues, set())
        if live >= self._channel_cap:
            return False
        retry_at = self._retry_at
        for dst, queue in queues.items():
            if (retry_at.get((module, dst), -1) <= at
                    and dst in self._module_xp
                    and len(queue) > circuits.get(dst, ((), 0))[1]):
                return True
        return False

    def _process_destroy(self, cm: CtrlMsg, now: int) -> None:
        ch, xp = cm.channel, cm.at_xp
        if xp != ch.dst_xp:
            self._release(ch, self._segment_toward(ch, xp))
            self._hop(cm, self._next_xp(ch, xp),
                      now + self.cfg.cancel_proc_cycles)
        else:
            self._channels.pop(ch.cid, None)
            self.sim.stats.counter("rmboc.channels.destroyed").inc()
            if self.sim.tracing:
                self.sim.emit("rmboc", "destroy", cid=ch.cid)
                self.sim.span_end("rmboc", "circuit", key=ch.cid,
                                  status="destroyed")

    # -- network interfaces -------------------------------------------------
    def _tick_ni(self, now: int) -> None:
        """Run the NI of every module that may act, in module order.

        After an NI pass a module's NI acts again only once something
        changes for it: a submit, an idle circuit (a transfer's last
        word, an establish), freed budget (a cancel, a destroy), a
        pair's retry time, or a hook (``_kick``).  Each of those marks
        the module in ``_ni_due``; a retry time is looked up here, on
        the tick the fabric wakes for it.
        """
        busy = {tr.channel.cid for tr in self._transfers}
        due = self._ni_due
        retry_at = self._retry_at
        for module, queues in list(self._queues.items()):
            if not queues:
                continue
            if module not in due:
                for dst in queues:
                    if retry_at.get((module, dst)) == now:
                        break
                else:
                    continue
            self._ni_for(module, queues, busy, now)
        due.clear()
        self._retire_idle_channels(now, busy)

    def _note_ni_depth(self, module: str) -> None:
        """Telemetry: the module's NI queue depth changed."""
        self.sim.telemetry.queue_depth(
            self.sim.cycle, self._ni_names[module],
            sum(map(len, self._queues[module].values())))

    def _circuits(self, module: str, queues: Dict[str, Deque[Message]],
                  busy: Set[int]
                  ) -> Tuple[int, Dict[str, Tuple[List[Channel], int]]]:
        """One pass over the module's circuits: in total the live
        (REQUESTING + ESTABLISHED) circuits that use up the channel
        budget, and per queued destination its idle established
        circuits and the number of circuits still REQUESTING.  (Local
        names: enum member lookups cost more than the rest of the loop.)
        """
        established = ChannelState.ESTABLISHED
        requesting = ChannelState.REQUESTING
        live = 0
        circuits: Dict[str, Tuple[List[Channel], int]] = {}
        for dst, chans in self._chan_by_pair.get(module, {}).items():
            free: List[Channel] = []
            pending = 0
            for ch in chans:
                state = ch.state
                if state is established:
                    live += 1
                    if ch.cid not in busy:
                        free.append(ch)
                elif state is requesting:
                    live += 1
                    pending += 1
            if dst in queues:
                circuits[dst] = (free, pending)
        return live, circuits

    def _ni_for(self, module: str, queues: Dict[str, Deque[Message]],
                busy: Set[int], now: int) -> None:
        xp = self._module_xp[module]
        if self._frozen[xp]:
            return  # slot under reconfiguration: hold traffic
        if self._dead_xps and xp in self._dead_xps:
            return  # local cross-point dead: NI cut off until repair
        live, circuits = self._circuits(module, queues, busy)
        budget = self._channel_cap - live
        # Per destination FIFO: the first k messages ride the k idle
        # circuits, the next w wait for the w circuits being requested,
        # and each later one may open a circuit (retry backoff,
        # attachment and budget permitting).
        actions: List[Tuple[Message, Optional[Channel]]] = []
        served = False
        for dst, queue in list(queues.items()):
            free, pending = circuits.get(dst, ((), 0))
            if free:
                served = True
                for ch in free[:len(queue)]:
                    actions.append((queue.popleft(), ch))
                if not queue:
                    del queues[dst]
                    continue
            if (budget > 0 and self._retry_at.get((module, dst), -1) <= now
                    and dst in self._module_xp):
                for msg in itertools.islice(queue, pending, pending + budget):
                    actions.append((msg, None))
        if not actions:
            return
        if served and self.sim.telemetering:
            self._note_ni_depth(module)
        # Across destinations, act in arrival (mid) order: it fixes cid
        # numbering, the control-message order and so lane allocation,
        # and decides which destinations the budget goes to.
        actions.sort(key=lambda action: action[0].mid)
        for msg, ch in actions:
            if ch is None:
                if budget > 0:
                    budget -= 1
                    self._open_channel(module, msg.dst, now)
                continue
            words = self.cfg.words(msg.payload_bytes)
            self._transfers.append(Transfer(ch, words, msg))
            busy.add(ch.cid)
            self._idle_since.pop(ch.cid, None)
            msg.accepted_cycle = now
            if self.sim.telemetering:
                # lane occupancy: the words move one per cycle from the
                # next one on, each holding every lane of the circuit
                tel = self.sim.telemetry
                for seg, bus in ch.lanes.items():
                    tel.link_busy(now, f"rmboc.lane.s{seg}b{bus}", words,
                                  first=now + 1)
            if self.sim.journeying:
                # split the wait: NI queueing before the REQUEST,
                # circuit setup, then queueing for a free lane on
                # the established channel (cursor clipping makes
                # pre-existing circuits attribute zero setup)
                jr = self.sim.journey
                jr.stamp_to(msg.mid, "ni_queue", ch.requested_cycle)
                jr.stamp_to(msg.mid, "setup_wait", ch.established_cycle)
                jr.stamp_to(msg.mid, "ni_queue", now)

    def _request(self, src_module: str, dst_module: str, cid: int,
                 now: int) -> CtrlMsg:
        """A circuit requested at ``now``: its channel and the REQUEST
        its source cross-point processes ``xp_proc_cycles`` later."""
        ch = Channel(src_xp=self._module_xp[src_module],
                     dst_xp=self._module_xp[dst_module],
                     requested_cycle=now,
                     src_module=src_module,
                     dst_module=dst_module,
                     cid=cid)
        self._channels[cid] = ch
        self._chan_by_pair.setdefault(src_module, {}).setdefault(
            dst_module, []).append(ch)
        cm = CtrlMsg(CtrlKind.REQUEST, ch, ch.src_xp,
                     ready_at=now + self.cfg.xp_proc_cycles)
        self._ctrl.append(cm)
        return cm

    def _open_channel(self, src_module: str, dst_module: str, now: int) -> None:
        cid = self._next_cid
        self._next_cid += 1
        self._request(src_module, dst_module, cid, now)
        self.sim.stats.counter("rmboc.channels.requested").inc()
        if self.sim.tracing:
            self.sim.emit("rmboc", "request", cid=cid, src=src_module,
                          dst=dst_module)
            # circuit lifetime (request -> destroy/cancel) and the setup
            # handshake (request -> establish/cancel) as spans
            self.sim.span_begin("rmboc", "circuit", key=cid, cid=cid,
                                src=src_module, dst=dst_module)
            self.sim.span_begin("rmboc", "setup", key=cid, cid=cid,
                                src=src_module, dst=dst_module)

    def _retire_idle_channels(self, now: int, busy: Set[int]) -> None:
        for cid, idle_since in list(self._idle_since.items()):
            ch = self._channels.get(cid)
            if ch is None or ch.state is not ChannelState.ESTABLISHED:
                self._idle_since.pop(cid, None)
                continue
            if cid in busy:
                continue
            if ch.dst_module in self._queues.get(ch.src_module, ()):
                continue  # traffic for this pair is waiting
            if now - idle_since >= self.cfg.channel_linger:
                self._start_destroy(ch, now)


def build_rmboc(
    num_modules: int = 4,
    width: int = 32,
    seed: int = 1,
    num_buses: int = 4,
    sim: Optional[Simulator] = None,
    cfg: Optional[RMBoCConfig] = None,
    **cfg_overrides: object,
) -> RMBoC:
    """Build an RMBoC system with modules ``m0`` .. ``m{n-1}`` attached."""
    if cfg is None:
        cfg = RMBoCConfig(num_modules=num_modules, num_buses=num_buses,
                          width=width, **cfg_overrides)  # type: ignore[arg-type]
    sim = sim or Simulator(name=f"rmboc[{cfg.num_modules}x{cfg.num_buses}]")
    arch = RMBoC(sim, cfg)
    sim.add(arch)
    for i in range(cfg.num_modules):
        arch.attach(f"m{i}", xp=i)
    return arch

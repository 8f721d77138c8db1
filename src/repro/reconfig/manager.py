"""The reconfiguration manager: serialized module exchange over one
configuration port.

Every operation runs one phase sequence, the one real DPR systems go
through:

1. **quiesce** (when a module leaves) — wait until no in-flight
   message involves the outgoing module (the application-level
   discipline the paper assumes: peers must stop addressing a module
   that is about to be swapped).  A quiesce that outlasts
   ``quiesce_timeout`` aborts the operation and leaves the old module
   in service;
2. **freeze + detach** — the architecture isolates the region for the
   rewrite window (:meth:`~repro.arch.base.CommArchitecture.freeze`:
   RMBoC cross-points freeze so only established channels keep
   working; BUS-COM stops granting the module's slots; the NoCs need
   nothing, only the module's own region is touched) and the outgoing
   module leaves the interconnect;
3. **rewrite** — the region's configuration frames are rewritten; the
   duration comes from the frame-based bitstream model at the
   architecture's own clock.  When a module enters, a readback
   integrity check ends the rewrite: a corrupt rewrite is retried with
   bounded exponential backoff up to ``max_retries`` times, then rolled
   back (the outgoing module's frames are rewritten and it returns);
4. **attach + unfreeze** (when a module enters) — the incoming module
   joins, by default at the outgoing module's placement
   (:meth:`~repro.arch.base.CommArchitecture.placement`), and traffic
   resumes;
5. **complete** — the configuration port frees and the next queued
   operation starts.

``swap`` runs every phase, ``install`` has nothing to quiesce or detach
and ``remove`` nothing to attach.  Operations queue FIFO on the single
configuration port, exactly like a single ICAP on silicon.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.arch.base import CommArchitecture
from repro.fabric.bitstream import ConfigPort, ReconfigTimingModel
from repro.fabric.device import Device
from repro.fabric.geometry import Rect
from repro.reconfig.module import ModuleSpec
from repro.sim import Simulator
from repro.sim.backoff import bounded_backoff

#: wait before the first retry of a corrupt rewrite; it doubles per retry
RETRY_BACKOFF = 64
#: clamp on the retry wait, as on RMBoC's fault path
#: (``fault_backoff_cap``), so a high ``max_retries`` cannot grow an
#: unbounded stall
RETRY_BACKOFF_CAP = 4096

#: the counter an operation increments once its region is detached
_OP_COUNTERS = {"swap": "reconfig.swaps", "install": "reconfig.installs",
                "remove": "reconfig.removals"}

#: fault notification, called as ``notify(phase, cycle)``
_Notify = Callable[[str, int], None]
#: a span or event of an operation's trace: (kind, data)
_Mark = Tuple[str, Dict[str, object]]


@dataclass
class SwapRecord:
    """Bookkeeping for one module exchange."""

    module_out: str
    module_in: str
    region: Rect
    requested_cycle: int
    freeze_cycle: int = -1
    detach_cycle: int = -1
    attach_cycle: int = -1
    reconfig_cycles: int = 0
    aborted: bool = False      # quiesce deadline hit; operation dropped
    rolled_back: bool = False  # corrupted bitstream; old module restored
    retries: int = 0           # rewrite attempts beyond the first

    @property
    def done(self) -> bool:
        return self.attach_cycle >= 0

    @property
    def total_cycles(self) -> int:
        if not self.done:
            raise ValueError("swap not finished")
        return self.attach_cycle - self.requested_cycle

    @property
    def downtime_cycles(self) -> int:
        """Cycles the slot had no operational module."""
        if not self.done:
            raise ValueError("swap not finished")
        return self.attach_cycle - self.detach_cycle


@dataclass(eq=False)
class _Operation:
    """One queued operation: its record and what its phases need."""

    kind: str                   # "swap", "install" or "remove"
    record: SwapRecord
    rid: int                    # key of the operation's reconfig.* spans
    on_done: Optional[Callable[[SwapRecord], None]]
    #: ``attach`` keywords of the incoming module
    placement: Dict[str, object]
    #: ``attach`` keywords that restore the outgoing module on rollback
    restore: Dict[str, object] = field(default_factory=dict)


class ReconfigurationManager:
    """Serializes reconfiguration operations for one architecture."""

    def __init__(self, arch: CommArchitecture, device: Device,
                 port: Optional[ConfigPort] = None,
                 quiesce_timeout: int = 100_000,
                 max_retries: int = 3):
        self.arch = arch
        arch.reconfig = self
        self.sim: Simulator = arch.sim
        self.timing = ReconfigTimingModel(device, port or ConfigPort())
        self.quiesce_timeout = quiesce_timeout
        self.max_retries = max_retries
        self.records: List[SwapRecord] = []
        self._active: Optional[_Operation] = None
        self._pending: Deque[_Operation] = deque()
        # fault hooks (armed by repro.faults)
        self._corrupt_next = 0
        self._corrupt_notify: Optional[_Notify] = None
        self._quiesce_stick = 0
        self._stick_notify: Optional[_Notify] = None

    # ------------------------------------------------------------------
    # fault hooks (repro.faults)
    # ------------------------------------------------------------------
    def fault_corrupt_next(self, notify: Optional[_Notify] = None,
                           count: int = 1) -> None:
        """Arm a bitstream-integrity failure for the next ``count``
        rewrites that bring a module in (swap, install, or a retry of
        either): each completes, fails its readback check, and triggers
        the bounded retry/rollback machinery.  A removal's rewrite is
        not checked.  ``notify(phase, cycle)`` fires at
        ``"detected"``/``"recovered"``."""
        self._corrupt_next += count
        self._corrupt_notify = notify

    def fault_stick_quiesce(self, extra_cycles: int,
                            notify: Optional[_Notify] = None) -> None:
        """Arm a stuck quiescence: the next swap/removal's quiesce phase
        refuses to complete for ``extra_cycles`` beyond its start.  If
        that crosses ``quiesce_timeout`` the operation aborts."""
        if extra_cycles < 1:
            raise ValueError("extra_cycles must be >= 1")
        self._quiesce_stick = extra_cycles
        self._stick_notify = notify

    # ------------------------------------------------------------------
    def module_quiescent(self, module: str) -> bool:
        """No undelivered message involves ``module``."""
        return not any(
            m.src == module or m.dst == module
            for m in self.arch.log.pending()
        )

    def reconfig_cycles(self, region: Rect) -> int:
        """User-clock cycles to rewrite ``region`` on this architecture."""
        return self.timing.cycles(region, self.arch.fmax_hz())

    @property
    def busy(self) -> bool:
        return self._active is not None or bool(self._pending)

    def attach_targets(self) -> List[Dict[str, object]]:
        """``attach`` keywords of every queued or running operation not
        attached yet, a rollback's restore included: the regions these
        operations will attach modules into, which nothing else may
        take before they do."""
        ops = [self._active] if self._active is not None else []
        ops.extend(self._pending)
        return [p for op in ops for p in (op.placement, op.restore) if p]

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def swap(
        self,
        module_out: str,
        module_in: ModuleSpec,
        region: Rect,
        on_done: Optional[Callable[[SwapRecord], None]] = None,
        **attach_kwargs: object,
    ) -> SwapRecord:
        """Queue an exchange of ``module_out`` for ``module_in``.

        ``attach_kwargs`` are forwarded to ``arch.attach`` for the
        incoming module (e.g. ``rect``/``access`` for DyNoC,
        ``rect``/``switch`` for CoNoChi); when omitted, the outgoing
        module's placement is reused where the architecture allows it.
        """
        record = SwapRecord(module_out, module_in.name, region,
                            self.sim.cycle)
        return self._queue("swap", record, on_done, attach_kwargs)

    def install(
        self,
        module_in: ModuleSpec,
        region: Rect,
        on_done: Optional[Callable[[SwapRecord], None]] = None,
        **attach_kwargs: object,
    ) -> SwapRecord:
        """Configure a new module into a free region (no outgoing module)."""
        record = SwapRecord("", module_in.name, region, self.sim.cycle)
        return self._queue("install", record, on_done, attach_kwargs)

    def remove(
        self,
        module_out: str,
        region: Rect,
        on_done: Optional[Callable[[SwapRecord], None]] = None,
    ) -> SwapRecord:
        """Blank a module's region (quiesce, detach, rewrite; no attach).

        The record's ``attach_cycle`` marks blanking completion.
        """
        record = SwapRecord(module_out, "", region, self.sim.cycle)
        return self._queue("remove", record, on_done, {})

    def _queue(self, kind: str, record: SwapRecord,
               on_done: Optional[Callable[[SwapRecord], None]],
               attach_kwargs: Dict[str, object]) -> SwapRecord:
        self.records.append(record)
        op = _Operation(kind, record, len(self.records) - 1, on_done,
                        dict(attach_kwargs))
        names = {"out": record.module_out, "into": record.module_in}
        self._trace(op, begin=(kind, {k: v for k, v in names.items() if v}))
        if self.busy:
            self._pending.append(op)
        else:
            self._start(op)
        return record

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _start(self, op: _Operation) -> None:
        """Claim the configuration port and enter the first phase."""
        record = op.record
        if record.module_out and record.module_in:
            # the incoming module takes the outgoing one's place unless
            # the caller names another; a rollback restores it there
            op.restore = self.arch.placement(record.module_out)
            op.placement = {**op.restore, **op.placement}
        self._active = op
        if record.module_out:
            self._quiesce(op)
        else:
            self._detach(op)

    def _quiesce(self, op: _Operation) -> None:
        """Poll once per cycle until the outgoing module is quiescent
        (and an armed stuck quiesce has passed) or the deadline hits."""
        sim = self.sim
        module = op.record.module_out
        since = sim.cycle
        deadline = since + self.quiesce_timeout
        stuck_until = since + self._quiesce_stick
        stick_notify, self._stick_notify = self._stick_notify, None
        self._quiesce_stick = 0
        self._trace(op, begin=("quiesce", {"out": module}))

        def poll(sim: Simulator) -> None:
            if sim.cycle >= stuck_until and self.module_quiescent(module):
                if sim.telemetering:
                    sim.telemetry.record_quiesce(sim.cycle,
                                                 sim.cycle - since)
                self._trace(op, end=(("quiesce", {}),))
                if stick_notify is not None:
                    stick_notify("recovered", sim.cycle)
                self._detach(op)
            elif sim.cycle >= deadline:
                self._abort(op, stick_notify)
            else:
                sim.after(1, poll)

        sim.after(0, poll)

    def _abort(self, op: _Operation, stick_notify: Optional[_Notify]) -> None:
        """Graceful degradation at the quiesce deadline: drop the
        operation, alert, and keep the system running on the old module
        instead of hanging the configuration port forever."""
        sim = self.sim
        op.record.aborted = True
        sim.stats.counter("reconfig.quiesce_aborted").inc()
        if sim.telemetering:
            sim.telemetry.count(sim.cycle, "reconfig.quiesce_aborted")
        aborted = {"status": "aborted"}
        self._trace(op, event=("quiesce_aborted", {
            "out": op.record.module_out, "op": op.kind,
        }), end=(("quiesce", aborted), (op.kind, aborted)))
        if stick_notify is not None:
            stick_notify("detected", sim.cycle)
            stick_notify("recovered", sim.cycle)
        self._finish(op)

    def _detach(self, op: _Operation) -> None:
        """Freeze + detach.  The freeze covers only the rewrite window:
        traffic already quiesced, and draining must not be blocked by
        it."""
        record = op.record
        record.freeze_cycle = record.detach_cycle = self.sim.cycle
        if record.module_out:
            self.arch.freeze(record.module_out)
            self.arch.detach(record.module_out)
        self.sim.stats.counter(_OP_COUNTERS[op.kind]).inc()
        self._rewrite(op)

    def _rewrite(self, op: _Operation) -> None:
        """One rewrite of the detached region; the integrity check at
        its end routes to attach, retry, or rollback."""
        sim, record = self.sim, op.record
        cycles = self.reconfig_cycles(record.region)
        record.reconfig_cycles += cycles
        names = {"out": record.module_out, "into": record.module_in}
        self._trace(op, event=("rewrite_start", {**names, "cycles": cycles}),
                    begin=("rewrite", names))
        sim.stats.counter("reconfig.cycles").inc(cycles)
        sim.after(cycles, lambda s: self._check(op))

    def _check(self, op: _Operation) -> None:
        """Readback of an incoming module's frames; a removal's blank
        frames are not checked."""
        record = op.record
        if record.module_in and self._corrupt_next > 0:
            # readback/CRC failed: the frames written are garbage
            self._corrupt_next -= 1
            self._corrupt(op)
        else:
            self._attach(op, record.module_in, op.placement)

    def _corrupt(self, op: _Operation) -> None:
        sim, record = self.sim, op.record
        sim.stats.counter("reconfig.bitstream_corrupt").inc()
        if sim.telemetering:
            sim.telemetry.count(sim.cycle, "reconfig.bitstream_corrupt")
        self._trace(op, event=("bitstream_corrupt", {
            "into": record.module_in, "attempt": record.retries + 1,
        }), end=(("rewrite", {"status": "corrupt"}),))
        if self._corrupt_notify is not None and record.retries == 0:
            self._corrupt_notify("detected", sim.cycle)
        if record.retries < self.max_retries:
            # bounded retry with exponential backoff before re-driving
            # the configuration port
            record.retries += 1
            sim.stats.counter("reconfig.retries").inc()
            backoff = bounded_backoff(RETRY_BACKOFF, record.retries,
                                      cap=RETRY_BACKOFF_CAP)
            sim.after(backoff, lambda s: self._rewrite(op))
            return
        # retries exhausted: roll back — rewrite the region with the
        # outgoing module's (known-good) frames and reattach it
        record.rolled_back = True
        sim.stats.counter("reconfig.rollbacks").inc()
        cycles = self.reconfig_cycles(record.region)
        record.reconfig_cycles += cycles
        sim.stats.counter("reconfig.cycles").inc(cycles)
        self._trace(op, event=("rollback_start", {
            "out": record.module_out, "cycles": cycles,
        }), begin=("rewrite", {"into": record.module_out, "rollback": True}))
        sim.after(cycles,
                  lambda s: self._attach(op, record.module_out, op.restore))

    def _attach(self, op: _Operation, module: str,
                placement: Dict[str, object]) -> None:
        """Attach + unfreeze ``module``: the incoming one, or the
        outgoing one after a rollback; none after a removal."""
        sim, record = self.sim, op.record
        if module:
            self.arch.attach(module, **placement)
            self.arch.unfreeze(module)
        if record.rolled_back:
            self._trace(op, event=("rolled_back", {"module": module}), end=(
                ("rewrite", {"rollback": True}),
                (op.kind, {"status": "rolled_back"})))
        else:
            self._trace(op, event=("attached", {"module": module})
                        if module else None,
                        end=(("rewrite", {}), (op.kind, {})))
        record.attach_cycle = sim.cycle
        if ((record.retries or record.rolled_back)
                and self._corrupt_notify is not None):
            notify, self._corrupt_notify = self._corrupt_notify, None
            notify("recovered", sim.cycle)
        self._finish(op)

    def _finish(self, op: _Operation) -> None:
        """Complete: free the port, report, start the next operation."""
        self._active = None
        if op.on_done is not None:
            op.on_done(op.record)
        if self._pending:
            self._start(self._pending.popleft())

    # ------------------------------------------------------------------
    def _trace(self, op: _Operation, event: Optional[_Mark] = None,
               end: Tuple[_Mark, ...] = (),
               begin: Optional[_Mark] = None) -> None:
        """Emit ``event``, close the spans ``end`` and open ``begin`` of
        ``op``'s ``reconfig.*`` trace when a tracer is attached."""
        sim = self.sim
        if not sim.tracing:
            return
        if event is not None:
            sim.emit("reconfig", event[0], **event[1])
        for kind, data in end:
            sim.span_end("reconfig", kind, key=op.rid, **data)
        if begin is not None:
            sim.span_begin("reconfig", begin[0], key=op.rid, **begin[1])

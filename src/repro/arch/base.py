"""Common interface of all four communication architectures.

A :class:`CommArchitecture` owns a :class:`~repro.sim.Simulator`, a set
of attached hardware modules, and a :class:`MessageLog`. Modules talk to
the interconnect exclusively through :class:`ArchPort` objects, so every
workload generator and every metric works unchanged across RMBoC,
BUS-COM, DyNoC and CoNoChi.

The measurement hooks mirror the paper's taxonomy:

* message latency (creation to last-word delivery) feeds l_p studies;
* the per-cycle count of *independent concurrent transfers* feeds the
  parallelism measure d_max;
* byte counters feed effective-bandwidth studies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.parameters import DesignParameters
from repro.fabric.area import AreaModel
from repro.fabric.timing import ClockModel
from repro.sim import Component, Simulator

_msg_ids = itertools.count()


@dataclass
class Message:
    """One application-level transfer request."""

    src: str
    dst: str
    payload_bytes: int
    tag: str = ""
    created_cycle: int = -1
    accepted_cycle: int = -1   # first cycle the interconnect started serving it
    delivered_cycle: int = -1  # cycle the last payload word arrived
    dropped: bool = False      # lost to an injected fault (never delivered)
    mid: int = field(default_factory=lambda: next(_msg_ids))

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ValueError(f"payload must be positive, got {self.payload_bytes}")
        if self.src == self.dst:
            raise ValueError(f"message to self ({self.src!r})")

    @property
    def delivered(self) -> bool:
        return self.delivered_cycle >= 0

    @property
    def latency(self) -> int:
        """Cycles from injection to delivery of the last payload word."""
        if not self.delivered:
            raise ValueError(f"message {self.mid} not delivered")
        return self.delivered_cycle - self.created_cycle


class MessageLog:
    """Central record of all messages injected into one architecture."""

    def __init__(self) -> None:
        self._messages: List[Message] = []
        self._settled = 0  # every message before this index is settled

    def sent(self, msg: Message) -> None:
        self._messages.append(msg)

    @property
    def messages(self) -> Tuple[Message, ...]:
        return tuple(self._messages)

    @property
    def total(self) -> int:
        return len(self._messages)

    def delivered(self) -> List[Message]:
        return [m for m in self._messages if m.delivered]

    def pending(self) -> List[Message]:
        return [m for m in self._messages
                if not m.delivered and not m.dropped]

    def dropped(self) -> List[Message]:
        return [m for m in self._messages if m.dropped]

    def latencies(
        self, src: Optional[str] = None, dst: Optional[str] = None
    ) -> List[int]:
        return [
            m.latency
            for m in self._messages
            if m.delivered
            and (src is None or m.src == src)
            and (dst is None or m.dst == dst)
        ]

    def delivered_payload_bytes(self) -> int:
        return sum(m.payload_bytes for m in self._messages if m.delivered)

    def all_delivered(self) -> bool:
        """Everything not lost to an injected fault has arrived.

        ``run_until`` predicates call this every simulated cycle, so it
        resumes at the first message outstanding at the last call: the
        log is append-only, and delivery and drop are final.
        """
        msgs = self._messages
        i = self._settled
        while i < len(msgs) and (msgs[i].delivered or msgs[i].dropped):
            i += 1
        self._settled = i
        return i == len(msgs)

    def summary_by_pair(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per (src, dst) pair: message count, delivered payload bytes,
        mean latency — the raw material of fairness and hotspot studies."""
        out: Dict[Tuple[str, str], Dict[str, float]] = {}
        for m in self._messages:
            entry = out.setdefault(
                (m.src, m.dst),
                {"messages": 0, "bytes": 0, "_lat_sum": 0.0, "_lat_n": 0},
            )
            entry["messages"] += 1
            if m.delivered:
                entry["bytes"] += m.payload_bytes
                entry["_lat_sum"] += m.latency
                entry["_lat_n"] += 1
        for entry in out.values():
            n = entry.pop("_lat_n")
            total = entry.pop("_lat_sum")
            entry["mean_latency"] = total / n if n else float("nan")
        return out


class ArchPort:
    """A hardware module's attachment point to the interconnect."""

    def __init__(self, arch: "CommArchitecture", module: str):
        self.arch = arch
        self.module = module
        self.received: List[Message] = []

    def send(self, dst: str, payload_bytes: int, tag: str = "") -> Message:
        """Inject a message; returns the tracked :class:`Message`."""
        # per-architecture ids: traces of identical runs are identical,
        # whatever else ran in the process before them
        msg = Message(src=self.module, dst=dst, payload_bytes=payload_bytes,
                      tag=tag, mid=next(self.arch._mid_seq))
        sim = self.arch.sim
        msg.created_cycle = sim.cycle
        self.arch.log.sent(msg)
        # open the provenance record before _submit so the injection
        # path's stamps land on it (sampling decides inside start())
        if sim.journeying:
            sim.journey.start(msg, sim.cycle)
        self.arch._submit(msg)
        return msg

    def take_received(self) -> List[Message]:
        """Pop and return everything delivered since the last call."""
        out, self.received = self.received, []
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"ArchPort({self.arch.name}:{self.module})"


class CommArchitecture(Component):
    """Base class: lifecycle, ports, logging, parallelism probes and the
    replay cursor of a fabric that sleeps to its event horizon.

    Subclasses implement ``tick``, ``_submit`` (accept a message for
    transport), ``idle`` (no in-flight traffic), ``_skipped`` (the
    per-cycle effects of skipped ticks), ``descriptor`` (Table 1 row),
    ``area_slices``/``fmax_hz`` (Tables 2-3), and the reconfiguration
    hooks meaningful for their style.
    """

    #: canonical lower-case architecture key ("rmboc", ...)
    KEY: str = "base"
    #: the slice-cost and clock models behind Tables 2-3
    area_model = AreaModel()
    clock_model = ClockModel()

    def __init__(self, sim: Simulator, width: int, name: str):
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        Component.__init__(self, name)
        self.width = width
        self.log = MessageLog()
        self.ports: Dict[str, ArchPort] = {}
        self._mid_seq = itertools.count()
        # one sample per active cycle: the biggest sample store in long
        # traffic runs, and only ever read via max/mean/count — so the
        # bounded bucketed mode loses nothing (exact min/max/mean) while
        # keeping memory O(1) in run length
        self._parallelism_hist = sim.stats.histogram(
            "parallelism.concurrent", mode="bucketed"
        )
        # a fabric asleep in mid-transfer owes samples for the cycles it
        # skipped: reads of the histogram replay them first (see settle)
        self._parallelism_hist.settle = sim.settle
        #: the last cycle whose per-cycle effects are accounted for
        #: (ticked or replayed by settle)
        self._settled = sim.cycle - 1
        #: delivered.messages, delivered.bytes and latency.message,
        #: bound at the first delivery: created earlier, a fabric that
        #: never delivers would list them in its stats snapshot
        self._delivery_probes: Optional[Tuple[Any, Any, Any]] = None
        # fault-injection guard: raised only while a non-empty
        # FaultSchedule is attached, so the fault-free hot path costs
        # one dead boolean test (mirrors sim.tracing/sim.telemetering)
        self.faulting = False
        self.fault_injector: Optional[Any] = None
        #: the ReconfigurationManager exchanging this architecture's
        #: modules, once one is built (repro.reconfig)
        self.reconfig: Optional[Any] = None

    # -- module lifecycle ------------------------------------------------
    @property
    def modules(self) -> Tuple[str, ...]:
        return tuple(self.ports)

    def attach(self, module: str, **placement: Any) -> ArchPort:
        """Attach a module and return its port."""
        if module in self.ports:
            raise ValueError(f"module {module!r} already attached")
        self._attach_impl(module, **placement)
        port = ArchPort(self, module)
        self.ports[module] = port
        return port

    def detach(self, module: str) -> None:
        if module not in self.ports:
            raise KeyError(f"module {module!r} is not attached")
        self._detach_impl(module)
        del self.ports[module]

    # -- reconfiguration hooks (repro.reconfig) ---------------------------
    def placement(self, module: str) -> Dict[str, object]:
        """``attach`` keywords that put a module where ``module`` sits
        now; a swap reuses them for the incoming module and for a
        rollback.  Empty where attach places modules itself."""
        return {}

    def freeze(self, module: str) -> None:
        """Isolate ``module``'s region for its rewrite window; a no-op
        where a rewrite touches only the module's own region."""

    def unfreeze(self, module: str) -> None:
        """Release the region of ``module``, just attached after a
        rewrite; a no-op where attach leaves nothing frozen."""

    # -- transport (subclass responsibilities) ----------------------------
    def _attach_impl(self, module: str, **placement: Any) -> None:
        raise NotImplementedError

    def _detach_impl(self, module: str) -> None:
        raise NotImplementedError

    def _submit(self, msg: Message) -> None:
        raise NotImplementedError

    def idle(self) -> bool:
        """True when no traffic is in flight anywhere in the interconnect."""
        raise NotImplementedError

    # -- delivery helper ---------------------------------------------------
    def _deliver(self, msg: Message) -> None:
        if self.faulting and self.fault_injector.intercept_delivery(msg):
            return  # consumed by an injected fault (dropped, crashed dst)
        sim = self.sim
        msg.delivered_cycle = sim.cycle
        port = self.ports.get(msg.dst)
        if port is not None:
            port.received.append(msg)
        probes = self._delivery_probes
        if probes is None:
            stats = sim.stats
            probes = self._delivery_probes = (
                stats.counter("delivered.messages"),
                stats.counter("delivered.bytes"),
                stats.histogram("latency.message"))
        messages, delivered_bytes, latency = probes
        messages.inc()
        delivered_bytes.inc(msg.payload_bytes)
        latency.add(msg.latency)
        # every architecture delivers through here, so one guarded site
        # gives per-flow latency/jitter telemetry across all six fabrics
        if sim.telemetering:
            sim.telemetry.record_flow(sim.cycle, msg.src, msg.dst,
                                      msg.latency, msg.payload_bytes)
        if sim.journeying:
            sim.journey.finalize(msg, sim.cycle)

    def _note_parallelism(self, concurrent_transfers: int) -> None:
        """Record the number of independent transfers active this cycle."""
        if concurrent_transfers > 0:
            self._parallelism_hist.add(concurrent_transfers)

    def _note_parallelism_run(self, concurrent_transfers: int,
                              cycles: int) -> None:
        """Record ``cycles`` skipped cycles with the same count, as that
        many :meth:`_note_parallelism` calls would."""
        if concurrent_transfers > 0 and cycles > 0:
            self._parallelism_hist.add_repeated(concurrent_transfers, cycles)

    # -- event horizons (see docs/kernel.md) --------------------------------
    def bind(self, sim: Simulator) -> None:
        """``Simulator.add``: the fabric ticks, and skips ticks, from
        this cycle on, so the simulator settles it from here."""
        super().bind(sim)
        self._settled = sim.cycle - 1
        sim.register_settler(self)

    def settle(self, through: int) -> None:
        """Account for every cycle through ``through``: replay the ticks
        skipped since the last one accounted for (:meth:`_skipped`).
        Called by :meth:`Simulator.settle`, by :meth:`_catch_up` and by
        the fabric's next tick."""
        first = self._settled + 1
        if through < first:
            return
        self._settled = through
        self._skipped(first, through)

    def _skipped(self, first: int, through: int) -> None:
        """Replay the per-cycle effects of the ticks skipped on cycles
        ``first`` .. ``through``: a fabric that sleeps while traffic is
        in flight owes the samples and counters those ticks would have
        written.  A fabric that skips only no-op ticks has nothing to
        do."""

    def _catch_up(self) -> None:
        """Before a hook changes what skipped ticks would have done, or a
        reader reads what they wrote: replay them through the last cycle
        the stepped kernel would have ticked the fabric
        (:meth:`Simulator.owed`)."""
        if self._sim is not None:
            self.settle(self._sim.owed(self))

    @property
    def observed_dmax(self) -> int:
        """Maximum concurrent independent transfers seen so far."""
        h = self._parallelism_hist
        return int(h.max) if h.count else 0

    # -- paper-facing metadata ---------------------------------------------
    def descriptor(self) -> DesignParameters:
        raise NotImplementedError

    def area_slices(self) -> int:
        raise NotImplementedError

    def fmax_hz(self) -> float:
        raise NotImplementedError

    def theoretical_dmax(self) -> int:
        raise NotImplementedError

    # -- convenience -------------------------------------------------------
    def run_to_completion(self, max_cycles: int = 1_000_000) -> int:
        """Run until every injected message is delivered and the fabric
        drains; returns the final cycle."""
        return self.sim.run_until(
            lambda s: self.log.all_delivered() and self.idle(),
            max_cycles=max_cycles,
        )

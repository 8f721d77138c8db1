"""Per-flow and per-link fabric telemetry with bounded memory.

While PR 3's tracer records *what happened* (protocol events and
spans), this module records *how the fabric is doing*: per-flow latency
and jitter distributions, per-link/per-router utilization, queue-depth
watermarks, and backpressure — the congestion signals the paper's
end-of-run aggregates hide.

Everything is stored in :class:`~repro.sim.stats.StreamingHistogram`\\ s
and bounded ring buffers, so telemetry memory is O(flows + links)
however long the run.  Collection is attached with::

    tel = FlowTelemetry()
    tel.attach(sim)          # sets sim.telemetry and sim.telemetering

and every fabric instrumentation site guards on the cheap flag::

    if sim.telemetering:
        sim.telemetry.link_busy(sim.cycle, "dynoc.link.1,2->2,2", 3)

so the telemetry-off hot path is unchanged (a single attribute test
that was already false).

Telemetry observes model state but **never writes to** ``sim.stats``:
:meth:`~repro.sim.stats.StatsRegistry.snapshot` — the golden-
equivalence comparator — is bit-identical with telemetry on or off.

When an :class:`~repro.obs.alerts.AlertEngine` is attached
(:attr:`FlowTelemetry.engine`) to a collector bound to a simulator,
its rules run on a fixed grid: at the multiples of ``eval_interval``,
from one timed kernel event that runs at event phase, before the
cycle's ticks.  The first record call after a quiet stretch arms the
event for the next grid cycle, and it re-arms itself while the
interval before it recorded something or the clock alone can still
move an open breach episode (a sustained rule counting toward
``for_cycles``, a sliding burn-rate window, a decaying link
utilization).  A quiescent fabric therefore costs no evaluations, and
the kernel still fast-forwards over quiet stretches.

Every record call is a protocol event: a delivery, a frame launch or
burst grant, an enqueue or dequeue, a blocked request, a fault, a
reconfiguration step or a control action.  No fabric records a
per-tick sample.  One ``settle`` records: RMBoC replays the blocked
requests of the retry storms it slept through, each as of the cycle
the replay runs in, and wakes before the grid cycle that follows the
first of them; reads off the grid (:meth:`FlowTelemetry.snapshot`,
:meth:`FlowTelemetry.evaluate_now`) settle first.  So telemetry, the
grid, and every alert, clear and control action it drives are the
same whichever cycles the kernel steps, and
``Simulator(fast_path=False)`` reproduces them.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.sim.stats import StreamingHistogram


class FlowStats:
    """Latency/jitter distributions and volume for one (src, dst) flow."""

    __slots__ = ("src", "dst", "messages", "bytes", "latency", "jitter",
                 "_last_latency")

    def __init__(self, src: str, dst: str, exact_cap: int = 512):
        self.src = src
        self.dst = dst
        self.messages = 0
        self.bytes = 0
        self.latency = StreamingHistogram(exact_cap)
        #: |latency - previous latency| of consecutive deliveries
        self.jitter = StreamingHistogram(exact_cap)
        self._last_latency: Optional[float] = None

    def record(self, latency: float, payload_bytes: int = 0) -> None:
        self.messages += 1
        self.bytes += payload_bytes
        self.latency.add(latency)
        if self._last_latency is not None:
            self.jitter.add(abs(latency - self._last_latency))
        self._last_latency = float(latency)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "src": self.src,
            "dst": self.dst,
            "messages": self.messages,
            "bytes": self.bytes,
            "latency": self.latency.summary(),
            "jitter": self.jitter.summary(),
        }


class LinkStats:
    """Utilization, queue depth and backpressure for one link/router/bus.

    Utilization is tracked per fixed-size cycle window: ``note_busy``
    accumulates busy cycles into the current window, and crossing a
    window boundary closes it into a bounded ring buffer of
    ``(window_start_cycle, utilization)`` points — a backpressure-proof
    time series that never grows past ``series_len`` entries.  A busy
    run recorded with its first cycle (``note_busy(..., first=)``)
    lands in the windows it occupies: the part past the current window
    is carried, and each later window takes its share when it opens.
    """

    __slots__ = ("name", "window", "busy_cycles", "stalls", "wait",
                 "queue_depth", "queue_watermark", "series",
                 "_win_start", "_win_busy", "_prev_busy", "_carry")

    def __init__(self, name: str, window: int = 1024,
                 series_len: int = 64, exact_cap: int = 512):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.name = name
        self.window = window
        self.busy_cycles = 0
        self.stalls = 0
        #: backpressure: cycles senders waited for this link
        self.wait = StreamingHistogram(exact_cap)
        self.queue_depth = 0
        self.queue_watermark = 0
        self.series: Deque[Tuple[int, float]] = deque(maxlen=series_len)
        self._win_start = 0
        self._win_busy = 0
        #: busy count of the window immediately before the current one
        #: (0 after an idle gap); None before the first window closes
        self._prev_busy: Optional[int] = None
        #: window start -> busy cycles carried into that later window
        self._carry: Dict[int, int] = {}

    def _roll(self, now: int) -> None:
        start = (now // self.window) * self.window
        while start > self._win_start:
            if self._win_busy:
                self.series.append(
                    (self._win_start,
                     min(1.0, self._win_busy / self.window))
                )
            # open the next window: `start`, or a carried one before it
            nxt = min(start, min(self._carry)) if self._carry else start
            # the window preceding it is either the one just closed
            # (contiguous) or an idle one that never rolled
            self._prev_busy = (
                self._win_busy
                if nxt == self._win_start + self.window else 0
            )
            self._win_start = nxt
            self._win_busy = self._carry.pop(nxt, 0)

    def note_busy(self, now: int, cycles: int = 1,
                  first: Optional[int] = None) -> None:
        """Count ``cycles`` busy cycles, recorded at ``now``.

        Without ``first`` they all count in ``now``'s window.  With it
        they are the run ``first, first + 1, ...`` (``first >= now``),
        each counted in the window it falls in; a negative ``cycles``
        takes such a run back (a burst cut short after it was
        recorded whole).
        """
        self._roll(now)
        self.busy_cycles += cycles
        if first is None:
            self._win_busy += cycles
            return
        sign = 1 if cycles > 0 else -1
        end = first + abs(cycles)
        window = self.window
        start = (first // window) * window
        while start < end:
            part = sign * (min(end, start + window) - max(first, start))
            if start == self._win_start:
                self._win_busy += part
            else:
                left = self._carry.get(start, 0) + part
                if left:
                    self._carry[start] = left
                else:
                    # taken back whole, or an empty run (cycles == 0)
                    self._carry.pop(start, None)
            start += window

    def note_queue_depth(self, depth: int) -> None:
        self.queue_depth = depth
        if depth > self.queue_watermark:
            self.queue_watermark = depth

    def note_wait(self, now: int, cycles: int) -> None:
        if cycles > 0:
            self.stalls += 1
            self.wait.add(cycles)

    def utilization(self, now: int) -> float:
        """Busy fraction over the trailing ``window`` cycles.

        Blends the current partial window with the immediately
        preceding one (weighted by how much of it still lies inside the
        trailing span).  The naive ``busy / elapsed`` over the partial
        window alone reads 100% whenever a single busy cycle lands just
        after a window boundary — a false saturation alert whenever a
        grid evaluation follows it closely.
        """
        self._roll(now)
        elapsed = min(max(now - self._win_start, 0), self.window)
        if self._prev_busy is None:
            # first window ever: no history to blend with
            return min(1.0, self._win_busy / max(elapsed, 1))
        tail = self._prev_busy * (self.window - elapsed) / self.window
        return min(1.0, (self._win_busy + tail) / self.window)

    def overall_utilization(self, now: int) -> float:
        return min(1.0, self.busy_cycles / now) if now > 0 else 0.0

    def as_dict(self, now: int) -> Dict[str, Any]:
        return {
            "name": self.name,
            "busy_cycles": self.busy_cycles,
            "utilization": self.utilization(now),
            "overall_utilization": self.overall_utilization(now),
            "queue_depth": self.queue_depth,
            "queue_watermark": self.queue_watermark,
            "stalls": self.stalls,
            "wait": self.wait.summary(),
            "series": list(self.series),
        }


class FlowTelemetry:
    """The per-simulator telemetry collector fabrics record into.

    One instance attaches to one :class:`~repro.sim.Simulator` via
    :meth:`attach` (or the ``sim.telemetry`` setter).  All record
    methods take the current cycle first, so collection never reads
    the simulator — the fabric already has ``sim.cycle`` in hand.
    """

    def __init__(self, eval_interval: int = 512, exact_cap: int = 512,
                 window: int = 1024, series_len: int = 64):
        if eval_interval < 1:
            raise ValueError(
                f"eval_interval must be >= 1, got {eval_interval}"
            )
        self.eval_interval = eval_interval
        self.exact_cap = exact_cap
        self.window = window
        self.series_len = series_len
        self.sim = None
        self.flows: Dict[Tuple[str, str], FlowStats] = {}
        self.links: Dict[str, LinkStats] = {}
        self.counters: Dict[str, int] = {}
        #: latest value per gauge key (e.g. "fault.undelivered")
        self.gauges: Dict[str, float] = {}
        #: reconfiguration quiesce durations (cycles)
        self.quiesce = StreamingHistogram(exact_cap)
        #: fault mean-time-to-recovery distribution (cycles)
        self.mttr = StreamingHistogram(exact_cap)
        #: optional repro.obs.alerts.AlertEngine, run on the grid
        self.engine = None
        #: a grid evaluation is scheduled on the simulator
        self._armed = False
        #: something was recorded since the last grid evaluation
        self._recorded = False

    # ------------------------------------------------------------------
    def attach(self, sim) -> "FlowTelemetry":
        """Bind to ``sim`` (sets ``sim.telemetry``); returns self."""
        self.sim = sim
        sim.telemetry = self
        return self

    # ------------------------------------------------------------------
    # record paths (all guarded by sim.telemetering at the call site)
    # ------------------------------------------------------------------
    def record_flow(self, now: int, src: str, dst: str, latency: float,
                    payload_bytes: int = 0) -> None:
        flow = self.flows.get((src, dst))
        if flow is None:
            flow = self.flows[(src, dst)] = FlowStats(src, dst,
                                                      self.exact_cap)
        flow.record(latency, payload_bytes)
        self._note()

    def link(self, name: str) -> LinkStats:
        stats = self.links.get(name)
        if stats is None:
            stats = self.links[name] = LinkStats(
                name, window=self.window, series_len=self.series_len,
                exact_cap=self.exact_cap,
            )
        return stats

    # The three link record paths run per hop, frame and enqueue: one
    # dict get finds the LinkStats, and _note runs only while the grid
    # is unarmed (once armed, setting _recorded is all it would do).

    def link_busy(self, now: int, name: str, cycles: int = 1,
                  first: Optional[int] = None) -> None:
        """Busy cycles on a link (see :meth:`LinkStats.note_busy`)."""
        stats = self.links.get(name)
        if stats is None:
            stats = self.link(name)
        stats.note_busy(now, cycles, first)
        self._recorded = True
        if not self._armed:
            self._note()

    def queue_depth(self, now: int, name: str, depth: int) -> None:
        stats = self.links.get(name)
        if stats is None:
            stats = self.link(name)
        stats.note_queue_depth(depth)
        self._recorded = True
        if not self._armed:
            self._note()

    def backpressure(self, now: int, name: str, wait_cycles: int) -> None:
        """Cycles a sender waited for a link; a zero wait only creates
        the link's stats (see :meth:`LinkStats.note_wait`)."""
        stats = self.links.get(name)
        if stats is None:
            stats = self.link(name)
        if wait_cycles > 0:
            stats.note_wait(now, wait_cycles)
        self._recorded = True
        if not self._armed:
            self._note()

    def count(self, now: int, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n
        self._note()

    def record_quiesce(self, now: int, cycles: int) -> None:
        self.quiesce.add(cycles)
        self._note()

    def gauge(self, now: int, key: str, value: float) -> None:
        """Record the current value of an instantaneous signal."""
        self.gauges[key] = value
        self._note()

    def record_fault_recovery(self, now: int, mttr: int) -> None:
        """One fault recovered; ``mttr`` is injection -> recovered."""
        self.mttr.add(mttr)
        self._note()

    # ------------------------------------------------------------------
    def _note(self) -> None:
        """A record call: arm the grid if it is idle (see module doc)."""
        self._recorded = True
        sim = self.sim
        if not self._armed and self.engine is not None and sim is not None:
            self._armed = True
            interval = self.eval_interval
            sim.at((sim.cycle // interval + 1) * interval, self._on_grid)

    def _on_grid(self, sim) -> None:
        """The grid event: run the rules as of this cycle, then re-arm
        one interval on while anything was recorded since the last
        grid cycle (a control action may record inside this one) or
        the clock alone can still move an open breach episode
        (:attr:`AlertEngine.time_driven`)."""
        engine = self.engine
        recorded, self._recorded = self._recorded, False
        if engine is not None:
            engine.evaluate(self, sim.cycle)
            if recorded or self._recorded or engine.time_driven:
                sim.at(sim.cycle + self.eval_interval, self._on_grid)
                return
        self._armed = False

    def evaluate_now(self, now: Optional[int] = None) -> None:
        """Run the rules once off the grid (an end-of-run flush or a
        post-action check); the grid stays where it is."""
        self._settle()
        if self.engine is not None:
            at = now if now is not None else (
                self.sim.cycle if self.sim is not None else 0
            )
            self.engine.evaluate(self, at)

    def _settle(self) -> None:
        """Before a read off the grid: bring in the records a sleeping
        fabric replays for the cycles it skipped (RMBoC's blocked
        retries).  A grid evaluation needs none: such a fabric wakes
        before the grid cycle after its first skipped record."""
        if self.sim is not None:
            self.sim.settle()

    # ------------------------------------------------------------------
    def snapshot(self, now: Optional[int] = None) -> Dict[str, Any]:
        """Plain-data snapshot of every flow, link, counter and alert."""
        self._settle()
        at = now if now is not None else (
            self.sim.cycle if self.sim is not None else 0
        )
        out: Dict[str, Any] = {
            "cycle": at,
            "flows": [self.flows[k].as_dict() for k in sorted(self.flows)],
            "links": [self.links[k].as_dict(at)
                      for k in sorted(self.links)],
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "quiesce": self.quiesce.summary(),
            "faults": {"mttr": self.mttr.summary()},
        }
        if self.engine is not None:
            out["alerts"] = self.engine.snapshot(at)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (f"FlowTelemetry(flows={len(self.flows)}, "
                f"links={len(self.links)})")


def merge_snapshots(snaps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-simulator snapshots into one watch/CI document.

    Flows and links keep their per-simulator identity (they are listed
    under each simulator entry); the top level carries totals so CI
    checks have one place to look.
    """
    alerts: List[Dict[str, Any]] = []
    for snap in snaps:
        alerts.extend(snap.get("alerts", {}).get("alerts", []))
    return {
        "simulators": snaps,
        "total_flows": sum(len(s["flows"]) for s in snaps),
        "total_links": sum(len(s["links"]) for s in snaps),
        "total_alerts": len(alerts),
        "alerts": alerts,
    }

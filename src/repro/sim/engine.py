"""The synchronous simulator core.

The :class:`Simulator` advances a global clock. Each cycle proceeds in
two strictly ordered phases:

1. **events** — callbacks scheduled for this cycle fire (configuration
   port actions, workload phase changes, test instrumentation);
2. **tick** — every *runnable* registered component's ``tick`` runs,
   in registration order.

Components talk by method calls: code that changes what another
component's tick would do calls that component's
:meth:`Component.wake` (see "The quiescence contract" in
``docs/kernel.md``).

Activity-driven fast path
-------------------------

By default the kernel is *activity-driven*: a component whose ``tick``
returns a quiescence hint (:data:`SLEEP` or a future wake cycle) leaves
the hot tick loop until it is woken again — by an explicit
:meth:`Component.wake` or by its timed wake coming due — and
:meth:`Simulator.run` fast-forwards the clock over fully quiescent
stretches straight to the next scheduled event or timed wake.

A component's hint is its *event horizon*: the next cycle on which its
protocol state can change, even while traffic is in flight.  The ticks
it skips until then may still have per-cycle effects (statistics
samples, cycle counters); the component replays those exactly in
``settle(through)``, registered with :meth:`Simulator.register_settler`.
:meth:`Simulator.settle` runs every replay through the last cycle the
every-cycle kernel would have ticked it (:meth:`Simulator.owed`); the
component's next tick, every read of a replayed probe (a histogram
read, :meth:`StatsRegistry.snapshot`), :meth:`run` and :meth:`run_until`
call it.  A hook that changes what a skipped tick would have done
replays first, through the same cycle.

The fast path is a pure optimization with a golden-equivalence
guarantee (see ``tests/sim/test_fastpath_equivalence.py``): a model
obeying the quiescence contract — *a skipped tick is an observable
no-op or is replayed by settle before anything reads it, and spurious
wake-ups are harmless* — produces bit-identical cycle counts and
statistics with the fast path on or off.  Disable it for debugging
with ``Simulator(fast_path=False)`` or ``REPRO_SIM_FASTPATH=0`` in the
environment.
"""

from __future__ import annotations

import heapq
import itertools
import os
from bisect import insort
from heapq import heappop, heappush
from contextlib import contextmanager
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.sim.stats import StatsRegistry

#: environment switch for the activity-driven fast path ("0" disables)
FASTPATH_ENV = "REPRO_SIM_FASTPATH"


def fastpath_default() -> bool:
    """The fast-path setting used when ``Simulator(fast_path=None)``."""
    return os.environ.get(FASTPATH_ENV, "1").lower() not in (
        "0", "false", "off", "no",
    )


#: hook called with every newly constructed Simulator (or None).
#: Installed by :class:`repro.obs.session.ObservationSession` so the
#: ``repro trace`` / ``repro profile`` CLI can observe simulators built
#: deep inside experiment harnesses without threading parameters through.
_NEW_SIM_HOOK: Optional[Callable[["Simulator"], None]] = None


def set_new_sim_hook(
    hook: Optional[Callable[["Simulator"], None]],
) -> Optional[Callable[["Simulator"], None]]:
    """Install ``hook`` (None to clear); returns the previous hook."""
    global _NEW_SIM_HOOK
    prev = _NEW_SIM_HOOK
    _NEW_SIM_HOOK = hook
    return prev


#: indices into :attr:`KernelMetrics.wakes` (see docs/kernel.md)
WAKE_TIMED, WAKE_CHANNEL, WAKE_EXPLICIT, WAKE_PENDING = range(4)

WAKE_REASONS = ("timed", "channel", "explicit", "pending")


class KernelMetrics:
    """Scheduler self-metrics: what the activity-driven kernel did.

    These describe the *kernel that ran* — wakes, sleeps, fast-forward
    jumps, tick counts — so they legitimately differ between
    ``fast_path=True`` and ``fast_path=False`` runs of the same model.  They are therefore kept out of
    :meth:`StatsRegistry.snapshot` (the golden-equivalence comparator)
    and exported separately (see :mod:`repro.obs`).

    ``cycles_stepped`` and ``ticks_total`` are *derived* totals: to keep
    the hot tick loop free of per-cycle accounting they are recomputed
    from the clock and the per-component tick counters whenever the
    metrics are read through :attr:`Simulator.kmetrics`.
    """

    __slots__ = ("wakes", "sleeps", "ff_jumps", "ff_cycles_skipped",
                 "commit_batches", "commit_elements", "commit_max",
                 "cycles_stepped", "ticks_total", "retired_ticks")

    def __init__(self) -> None:
        # wake transitions (asleep -> runnable) by reason index
        self.wakes = [0, 0, 0, 0]
        self.sleeps = 0
        self.ff_jumps = 0
        self.ff_cycles_skipped = 0
        # the commit counters and the channel/pending wakes always read
        # 0; they stay for the run record's kernel digest and perfbench
        self.commit_batches = 0
        self.commit_elements = 0
        self.commit_max = 0
        self.cycles_stepped = 0
        self.ticks_total = 0
        # tick counts harvested from components removed mid-run
        self.retired_ticks: Dict[str, int] = {}

    @property
    def wakes_total(self) -> int:
        return sum(self.wakes)

    def wakes_by_reason(self) -> Dict[str, int]:
        return dict(zip(WAKE_REASONS, self.wakes))

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form for exporters (stable key order)."""
        out: Dict[str, object] = {
            "cycles_stepped": self.cycles_stepped,
            "ticks_total": self.ticks_total,
            "sleeps": self.sleeps,
            "wakes_total": self.wakes_total,
            "ff_jumps": self.ff_jumps,
            "ff_cycles_skipped": self.ff_cycles_skipped,
            "commit_batches": self.commit_batches,
            "commit_elements": self.commit_elements,
            "commit_max": self.commit_max,
        }
        for reason, count in zip(WAKE_REASONS, self.wakes):
            out[f"wakes_{reason}"] = count
        return out


class _SleepForever:
    """Singleton quiescence hint: sleep until explicitly woken."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SLEEP"


#: returned from ``Component.tick`` to leave the tick loop until woken
SLEEP = _SleepForever()


class SimError(RuntimeError):
    """Raised for structural misuse of the simulation kernel."""


class Simulator:
    """A synchronous, deterministic cycle-level simulator.

    Parameters
    ----------
    name:
        Label used in error messages and reports.
    max_cycles:
        Hard safety bound; :meth:`run_until` raises :class:`SimError`
        when the bound is exceeded, which turns livelocks in a model
        into test failures instead of hangs.
    fast_path:
        Enable the activity-driven scheduler (sleep/wake, clock
        fast-forward).  ``None`` (the default) reads
        :data:`FASTPATH_ENV` and falls back to enabled.

    The opt-in wall-clock profiler is attached through
    :attr:`profiler`.
    """

    def __init__(self, name: str = "sim", max_cycles: int = 10_000_000,
                 fast_path: Optional[bool] = None):
        self.name = name
        self.cycle = 0
        self.max_cycles = max_cycles
        self.stats = StatsRegistry()
        self.stats.settle = self.settle
        #: scheduler self-metrics (never part of stats.snapshot())
        self._kmetrics = KernelMetrics()
        #: optional repro.sim.trace.Tracer; emit() is a no-op while None
        self._tracer = None
        #: cheap guard for hot emit/span sites (kept in sync with tracer)
        self.tracing = False
        #: optional repro.obs.flows.FlowTelemetry collector
        self._telemetry = None
        #: cheap guard for hot telemetry sites (synced with telemetry),
        #: mirroring ``tracing``: instrumented fabrics test this single
        #: bool so the telemetry-off hot path is unchanged
        self.telemetering = False
        #: optional repro.obs.journey.JourneyRecorder
        self._journey = None
        #: cheap guard for hot journey stamp sites (synced with journey),
        #: mirroring ``tracing``/``telemetering``: a journeys-off run
        #: executes one dead boolean test per stamp site and stays
        #: bit-identical to pre-journey traces
        self.journeying = False
        #: optional repro.control.ControlLoop (set by the loop itself
        #: on attach; exporters discover the action log through it)
        self.control = None
        self.fast_path = fastpath_default() if fast_path is None else fast_path
        #: optional repro.obs.profile.Profiler (see :attr:`profiler`)
        self._profiler = None
        # True while no profiler is attached: step() then takes a tick
        # loop with no per-tick instrumentation checks
        self._plain = True
        self._components: List["Component"] = []
        #: objects whose ``settle(through)`` replays skipped ticks
        self._settlers: List[object] = []
        #: (cycle, origin, seq, fn): see :meth:`at`
        self._events: List[Tuple[int, Tuple[int, int], int,
                                 Callable[["Simulator"], None]]] = []
        self._event_seq = itertools.count()
        #: the origin of the event running now (see :meth:`passed`)
        self._event_origin = (-1, -1)
        self._order_seq = itertools.count()
        self._running = False
        #: the registration order of the component ticking now; -1
        #: outside the tick phase (a hook called then comes from an
        #: event or from between cycles, not from a component's tick)
        self._tick_order = -1
        self._stopped = False
        # activity-driven scheduling state: awake components in
        # registration order, and timed wakes.
        self._runnable: List[Tuple[int, "Component"]] = []
        self._wake_heap: List[Tuple[int, int, "Component"]] = []
        # slow-path cycle counter: with the fast path off every
        # registered component ticks every cycle, so per-component tick
        # counts are derived as ``_slow_ticks - _tick_base`` instead of
        # paying a per-tick increment in the slow loop.
        self._slow_ticks = 0
        if _NEW_SIM_HOOK is not None:
            _NEW_SIM_HOOK(self)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        """The attached :class:`repro.sim.trace.Tracer` (or None)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        self.tracing = tracer is not None

    @property
    def telemetry(self):
        """The attached :class:`repro.obs.flows.FlowTelemetry` (or None).

        Fabric instrumentation guards on :attr:`telemetering` exactly
        like trace sites guard on :attr:`tracing`::

            if sim.telemetering:
                sim.telemetry.record_flow(sim.cycle, src, dst, latency)

        Telemetry observes model state but never writes to
        :attr:`stats`, so a telemetry-on run stays bit-identical to a
        telemetry-off run in :meth:`StatsRegistry.snapshot`.
        """
        return self._telemetry

    @telemetry.setter
    def telemetry(self, telemetry) -> None:
        self._telemetry = telemetry
        self.telemetering = telemetry is not None

    @property
    def journey(self):
        """The attached :class:`repro.obs.journey.JourneyRecorder` (or
        None).

        Hop stamp sites guard on :attr:`journeying` exactly like trace
        sites guard on :attr:`tracing`::

            if sim.journeying:
                sim.journey.stamp_to(msg.mid, "link_transit", arrival)

        Journeys observe model state but never write to :attr:`stats`,
        so a journeys-on run stays bit-identical to a journeys-off run
        in :meth:`StatsRegistry.snapshot`.
        """
        return self._journey

    @journey.setter
    def journey(self, journey) -> None:
        self._journey = journey
        self.journeying = journey is not None

    @property
    def profiler(self):
        """The attached :class:`repro.obs.profile.Profiler` (or None),
        the profiler's one switch: while one is attached, each
        component tick and the event callbacks are timed and
        attributed by name; while None, the cost is a single ``is
        None`` test per step."""
        return self._profiler

    @profiler.setter
    def profiler(self, profiler) -> None:
        self._profiler = profiler
        self._plain = profiler is None

    @property
    def kmetrics(self) -> KernelMetrics:
        """Scheduler self-metrics (see :class:`KernelMetrics`).

        The derived totals — ``cycles_stepped`` (every cycle advance is
        either a stepped cycle or part of a fast-forward jump) and
        ``ticks_total`` (retired plus live per-component tick counts) —
        are synced here on access so the hot loop never maintains them.
        """
        m = self._kmetrics
        m.cycles_stepped = self.cycle - m.ff_cycles_skipped
        m.ticks_total = sum(self.tick_counts().values())
        return m

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add(self, component: "Component") -> "Component":
        """Register a component; returns it for chaining."""
        from repro.sim.component import Component

        if not isinstance(component, Component):
            raise SimError(f"{component!r} is not a Component")
        self._components.append(component)
        component.bind(self)
        component._order = next(self._order_seq)
        component._asleep = False
        component._wake_at = None
        component._ticks = 0
        component._tick_base = self._slow_ticks
        # orders grow monotonically, so append preserves sorted order
        self._runnable.append((component._order, component))
        return component

    def add_all(self, components: Iterable["Component"]) -> None:
        for c in components:
            self.add(c)

    def remove(self, component: "Component") -> None:
        """Unregister a component (used when a module is reconfigured out)."""
        try:
            self._components.remove(component)
        except ValueError:
            raise SimError(f"{component.name!r} is not registered") from None
        if component._asleep:
            component._asleep = False
            component._wake_at = None
        else:
            try:
                self._runnable.remove((component._order, component))
            except ValueError:  # pragma: no cover - defensive
                pass
        # keep the removed component's tick count observable
        total = (component._ticks
                 + self._slow_ticks - component._tick_base)
        if total:
            retired = self._kmetrics.retired_ticks
            retired[component.name] = (
                retired.get(component.name, 0) + total
            )
        if component in self._settlers:
            # it ticked up to its removal: replay what it skipped first
            component.settle(self.cycle - 1)
            self._settlers.remove(component)

    def register_settler(self, settler: "Component") -> None:
        """Register a component exposing ``settle(through)``: replay the
        per-cycle effects of the ticks it skipped, up to and including
        cycle ``through`` (see :meth:`settle`)."""
        self._settlers.append(settler)

    def owed(self, settler: "Component") -> int:
        """The last cycle whose tick ``settler`` owes a reader now: the
        last cycle the every-cycle kernel would have ticked it.

        That is ``cycle - 1`` between cycles and from the event phase.
        From the tick phase it is ``cycle`` for a settler the tick
        order has already passed (one registered before the component
        ticking now), and ``cycle - 1`` otherwise.
        """
        if settler._order < self._tick_order:
            return self.cycle
        return self.cycle - 1

    def settle(self) -> None:
        """Bring every registered settler up to date through the cycle
        it owes (:meth:`owed`).

        Called before anything reads state that skipped ticks would
        have written: the parallelism histogram, the stats snapshot,
        and the end of :meth:`run` and :meth:`run_until`.
        """
        owed = self.owed
        for settler in self._settlers:
            settler.settle(owed(settler))

    @property
    def components(self) -> Tuple["Component", ...]:
        return tuple(self._components)

    # ------------------------------------------------------------------
    # sleep / wake scheduling
    # ------------------------------------------------------------------
    def wake(self, component: "Component") -> None:
        """Return a sleeping component to the runnable set (no-op when
        it is already awake)."""
        if not component._asleep:
            return
        component._asleep = False
        component._wake_at = None
        self._kmetrics.wakes[WAKE_EXPLICIT] += 1
        insort(self._runnable, (component._order, component))

    def wake_at(self, component: "Component", cycle: int) -> None:
        """Move a sleeping component's timed wake to ``cycle``: a hook
        that changed what its ticks would do, and replayed what it
        skipped, found its new horizon.  A cycle that has come wakes it
        now (see :meth:`wake`); a later one replaces its timed wake,
        whose old heap entry lapses or wakes it early, which the
        quiescence contract allows.  No-op when it is awake."""
        if not component._asleep:
            return
        if cycle <= self.cycle:
            self.wake(component)
            return
        component._wake_at = cycle
        heappush(self._wake_heap, (cycle, component._order, component))

    def _request_sleep(self, component: "Component", hint: object) -> None:
        """Apply a quiescence hint returned by ``tick``."""
        if type(hint) is int:  # exact match first: the hot case
            wake_at: Optional[int] = hint
        elif hint is SLEEP:
            wake_at = None
        elif isinstance(hint, int) and not isinstance(hint, bool):
            wake_at = hint
        else:
            raise SimError(
                f"component {component.name!r}: invalid quiescence hint "
                f"{hint!r} (expected None, SLEEP or a wake cycle)"
            )
        if wake_at is not None and wake_at <= self.cycle + 1:
            return  # it would be woken for the very next cycle anyway
        try:
            self._runnable.remove((component._order, component))
        except ValueError:
            return  # removed from the simulator during this cycle
        component._asleep = True
        component._wake_at = wake_at
        self._kmetrics.sleeps += 1
        if wake_at is not None:
            heappush(self._wake_heap,
                     (wake_at, component._order, component))

    # ------------------------------------------------------------------
    # event scheduling
    # ------------------------------------------------------------------
    @property
    def origin(self) -> Tuple[int, int]:
        """Where code running now stands: ``(cycle, order)``, with
        ``order`` the registration order of the component ticking now,
        or -1 outside the tick phase."""
        return (self.cycle, self._tick_order)

    def at(self, cycle: int, fn: Callable[["Simulator"], None]) -> None:
        """Schedule ``fn(sim)`` to run at the start of ``cycle``.

        One cycle's events run in the order they were scheduled: by the
        :attr:`origin` they were scheduled from, then in call order
        (see :meth:`at_from`, whose body this repeats: every event
        comes through here).
        """
        now = self.cycle
        if cycle < now:
            raise SimError(
                f"cannot schedule event at cycle {cycle}; now at {now}"
            )
        heapq.heappush(self._events, (cycle, (now, self._tick_order),
                                      next(self._event_seq), fn))

    def at_from(self, cycle: int, fn: Callable[["Simulator"], None],
                origin: Tuple[int, int]) -> None:
        """Schedule ``fn(sim)`` for ``cycle`` where an :meth:`at` call
        from ``origin`` would have put it.  A component that settles a
        tick it skipped schedules what that tick would have from the
        tick's origin, ``(its cycle, the component's registration
        order)`` (see :meth:`passed`)."""
        if cycle < self.cycle:
            raise SimError(
                f"cannot schedule event at cycle {cycle}; now at {self.cycle}"
            )
        heapq.heappush(self._events,
                       (cycle, origin, next(self._event_seq), fn))

    def passed(self, cycle: int, origin: Tuple[int, int]) -> bool:
        """Whether an event for ``cycle`` scheduled from ``origin`` (see
        :meth:`at_from`) would have run by now."""
        if cycle != self.cycle:
            return cycle < self.cycle
        if not self._running:
            return False  # between cycles: the cycle's events are ahead
        if self._tick_order >= 0:
            return True  # the tick phase: the cycle's events have run
        return origin < self._event_origin

    def after(self, delay: int, fn: Callable[["Simulator"], None]) -> None:
        """Schedule ``fn(sim)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimError(f"negative delay {delay}")
        self.at(self.cycle + delay, fn)

    def stop(self) -> None:
        """Request the current ``run``/``run_until`` loop to end after this cycle."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        """Whether the last run loop ended because of a :meth:`stop` request."""
        return self._stopped

    def emit(self, source: str, kind: str, /, **data: object) -> None:
        """Record a trace event when a tracer is attached (else no-op).

        Hot emit sites additionally guard on :attr:`tracing` so the
        keyword-argument dict is never built while tracing is off::

            if sim.tracing:
                sim.emit("dynoc", "route", mid=..., at=...)
        """
        if self._tracer is not None:
            self._tracer.record(self.cycle, source, kind, data)

    # ------------------------------------------------------------------
    # spans (duration events; see repro.sim.trace and repro.obs)
    # ------------------------------------------------------------------
    def span_begin(self, source: str, kind: str, /, key: Hashable = None,
                   **data: object) -> None:
        """Open a span at the current cycle; close it with
        :meth:`span_end` using the same (source, kind, key)."""
        if self._tracer is not None:
            self._tracer.begin_span(self.cycle, source, kind, key, data)

    def span_end(self, source: str, kind: str, /, key: Hashable = None,
                 **data: object) -> None:
        """Close an open span at the current cycle (no-op without a
        matching :meth:`span_begin`; the tracer counts the mismatch)."""
        if self._tracer is not None:
            self._tracer.end_span(self.cycle, source, kind, key, data)

    def span_event(self, source: str, kind: str, /, begin: int, end: int,
                   **data: object) -> None:
        """Record a span whose begin/end cycles are already known."""
        if self._tracer is not None:
            self._tracer.add_span(begin, end, source, kind, data)

    @contextmanager
    def span(self, source: str, kind: str, /, **data: object):
        """Context manager form: the span covers the cycles the body
        advanced the clock over (e.g. wrapping a ``run`` call)."""
        if self._tracer is None:
            yield
            return
        begin = self.cycle
        try:
            yield
        finally:
            self._tracer.add_span(begin, self.cycle, source, kind, data)

    # ------------------------------------------------------------------
    # kernel self-metrics helpers
    # ------------------------------------------------------------------
    def tick_counts(self) -> Dict[str, int]:
        """Per-component tick counts (registered plus removed ones)."""
        out = dict(self._kmetrics.retired_ticks)
        slow = self._slow_ticks
        for component in self._components:
            out[component.name] = (out.get(component.name, 0)
                                   + component._ticks
                                   + slow - component._tick_base)
        return out

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _tick_profiled(self, component: "Component", profiler) -> object:
        """Tick one component under the profiler."""
        t0 = perf_counter()
        hint = component.tick(self)
        profiler.add(component.name, perf_counter() - t0)
        return hint

    def step(self) -> None:
        """Advance the simulation by exactly one clock cycle."""
        if self._running:
            raise SimError("re-entrant step() — do not step from inside tick()")
        self._running = True
        try:
            cycle = self.cycle
            wakes = self._wake_heap
            while wakes and wakes[0][0] <= cycle:
                _, _, component = heappop(wakes)
                # lazy invalidation: the entry is live only if it still
                # matches the component's current sleep state
                if (component._asleep and component._wake_at is not None
                        and component._wake_at <= cycle):
                    component._asleep = False
                    component._wake_at = None
                    self._kmetrics.wakes[WAKE_TIMED] += 1
                    insort(self._runnable, (component._order, component))
            if self._plain:
                events = self._events
                while events and events[0][0] <= cycle:
                    _, self._event_origin, _, fn = heappop(events)
                    fn(self)
                if self.fast_path:
                    # Snapshot: ticks may add/remove/wake components;
                    # changes take effect next cycle, matching
                    # reconfiguration semantics (removals still tick out
                    # this cycle).
                    if self._runnable:
                        request_sleep = self._request_sleep
                        for order, component in list(self._runnable):
                            self._tick_order = order
                            component._ticks += 1
                            hint = component.tick(self)
                            if hint is not None:
                                request_sleep(component, hint)
                else:
                    # _slow_ticks is bumped before the snapshot: a
                    # component added by an event callback ticks this
                    # cycle (it is in the snapshot), one added from a
                    # tick does not.
                    self._slow_ticks += 1
                    for component in list(self._components):
                        self._tick_order = component._order
                        component.tick(self)
            else:
                self._step_profiled(cycle)
            self.cycle += 1
        finally:
            self._running = False
            self._tick_order = -1

    def _step_profiled(self, cycle: int) -> None:
        """The events and tick phases with the profiler attached — split
        out so the plain hot path carries no timing checks."""
        profiler = self._profiler
        events = self._events
        while events and events[0][0] <= cycle:
            _, self._event_origin, _, fn = heappop(events)
            t0 = perf_counter()
            fn(self)
            profiler.add("kernel.events", perf_counter() - t0)
        if self.fast_path:
            for order, component in list(self._runnable):
                self._tick_order = order
                component._ticks += 1
                hint = self._tick_profiled(component, profiler)
                if hint is not None:
                    self._request_sleep(component, hint)
        else:
            self._slow_ticks += 1
            for component in list(self._components):
                self._tick_order = component._order
                self._tick_profiled(component, profiler)

    def _jump(self, end: int) -> bool:
        """Fast-forward a fully quiescent stretch: advance the clock to
        the next scheduled event or timed wake, capped at ``end``.
        Returns False when nothing is quiescent or there is nothing to
        skip."""
        if self._runnable:
            return False
        events = self._events
        heap = self._wake_heap
        if events:
            nxt = events[0][0]
            if heap and heap[0][0] < nxt:
                nxt = heap[0][0]
        elif heap:
            nxt = heap[0][0]
        else:
            nxt = end
        target = nxt if nxt < end else end
        if target <= self.cycle:
            return False
        metrics = self._kmetrics
        metrics.ff_jumps += 1
        metrics.ff_cycles_skipped += target - self.cycle
        self.cycle = target
        return True

    def run(self, cycles: int) -> None:
        """Run for ``cycles`` clock cycles (or until :meth:`stop`).

        With the fast path enabled, fully quiescent stretches are
        skipped in one clock jump to the next scheduled event or timed
        wake — nothing can change during them, so no cycle is stepped.
        Skipped ticks are settled before it returns.
        """
        self._stopped = False
        end = self.cycle + cycles
        fast = self.fast_path
        step = self.step
        while self.cycle < end and not self._stopped:
            # test the runnable set inline — a method call per cycle is
            # measurable at this loop's frequency
            if fast and not self._runnable and self._jump(end):
                continue
            step()
        if self._settlers:
            self.settle()

    def run_for_time(self, seconds: float, clock_hz: float) -> int:
        """Run the number of cycles covering ``seconds`` of wall time at
        ``clock_hz`` (e.g. one video frame at the architecture's f_max);
        returns the cycles run."""
        if seconds < 0 or clock_hz <= 0:
            raise SimError("run_for_time needs seconds >= 0 and clock > 0")
        cycles = int(round(seconds * clock_hz))
        self.run(cycles)
        return cycles

    def run_until(
        self,
        predicate: Callable[["Simulator"], bool],
        max_cycles: Optional[int] = None,
    ) -> int:
        """Run until ``predicate(sim)`` holds; return the cycle it held at.

        Raises :class:`SimError` when the cycle bound is exceeded, so a
        deadlocked model fails loudly.  A :meth:`stop` request instead
        ends the loop cleanly after the stopping cycle and returns the
        current cycle — check :attr:`stopped` to distinguish it from the
        predicate holding.

        **A predicate depends only on simulated state**, never on
        ``sim.cycle`` or on how often it is called: with the fast path
        on, fully quiescent stretches are skipped in one clock jump to
        the next scheduled event or timed wake (capped at the bound),
        since nothing the predicate reads can change during them.  A
        run that must reach a given cycle first calls :meth:`run`.  The
        predicate's share of a stepped cycle is whatever one call
        costs, so it must be amortised O(1) — see "Drain predicates" in
        ``docs/performance.md``.  Skipped ticks are settled before it
        returns.
        """
        bound = self.max_cycles if max_cycles is None else self.cycle + max_cycles
        self._stopped = False
        jump = self.fast_path
        step = self.step
        while not predicate(self):
            if self._stopped:
                break
            if self.cycle >= bound:
                raise SimError(
                    f"{self.name}: run_until exceeded {bound} cycles "
                    f"(now {self.cycle})"
                )
            # test the runnable set inline, as run() does
            if jump and not self._runnable and self._jump(bound):
                continue
            step()
        if self._settlers:
            self.settle()
        return self.cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator({self.name!r}, cycle={self.cycle}, "
            f"components={len(self._components)})"
        )

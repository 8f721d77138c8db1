"""Per-layer tracer for the benchmark's traced runs (``--trace 1``).

The tracer measures the program from outside: :meth:`Tracer.install`
replaces public functions and methods of the ``repro`` package with
wrappers defined here, and :meth:`Tracer.uninstall` puts the originals
back.  No program file is edited.

Every wrapped call belongs to one *bucket*.  A bucket accumulates the
call count and the call's *self time*: host CPU seconds
(``time.process_time``) inside the call minus the time spent in nested
wrapped calls.  Self times of all buckets therefore partition the CPU
time of the operations they ran in, and :data:`SELF_TIME_METRICS` lists
the metric each bucket is reported as.  The wrappers' own bookkeeping
is charged to the caller's bucket; the whole tracing cost is reported
separately as ``trace.overhead_s``.

Coarse calls (each operation, ``build_architecture``,
``Simulator.run``/``run_until``, ``build_run_record``,
``RunLedger.store`` and ``discover_arch_keys``) are also recorded as
spans ``[name, start_s, end_s, parent_index, operation_id]`` kept in
memory and written out once the run ends.

A hook whose target no longer exists (a later refactor renamed it) is
skipped and listed in :attr:`Tracer.missing`; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

clock = time.process_time

ARCH_KEYS = ("rmboc", "buscom", "dynoc", "conochi", "sharedbus", "staticmesh")

#: bucket -> the per-layer metric its self time is reported as.  The
#: buckets partition each traced operation's CPU time.
SELF_TIME_METRICS: Dict[str, str] = {
    "harness": "harness.self_s",
    "sim": "sim.self_s",
    "sim.events": "sim.events_s",
    "sim.vec": "sim.vec.tick_s",
    "drain": "arch.base.drain_s",
    "arch.build": "arch.build_s",
    "arch.events": "arch.events_s",
    **{f"arch.{key}": f"arch.{key}.tick_s" for key in ARCH_KEYS},
    "traffic": "traffic.tick_s",
    "reconfig": "reconfig.self_s",
    "faults": "faults.self_s",
    "control": "control.self_s",
    "obs.flows": "obs.flows.self_s",
    "obs.journey": "obs.journey.self_s",
    "obs.alerts": "obs.alerts.self_s",
    "obs.ledger.build": "obs.ledger.build_s",
    "obs.ledger.store": "obs.ledger.store_s",
}

#: bucket -> the per-layer metric its call count is reported as
CALL_COUNT_METRICS: Dict[str, str] = {
    "sim.vec": "sim.vec.ticks",
    "drain": "arch.base.drain_checks",
    **{f"arch.{key}": f"arch.{key}.ticks" for key in ARCH_KEYS},
    "traffic": "traffic.ticks",
    "obs.flows": "obs.flows.calls",
    "obs.alerts": "obs.alerts.evals",
}

#: event-callback buckets named after the module that defined them;
#: callbacks from any other module land in ``sim.events``
_EVENT_BUCKETS = ("traffic", "reconfig", "faults", "control", "obs.flows",
                  "obs.journey", "obs.alerts")

#: FlowTelemetry record paths (obs.flows)
_FLOW_METHODS = ("record_flow", "link_busy", "queue_depth", "backpressure",
                 "count", "record_quiesce", "gauge", "record_fault_recovery")
#: JourneyRecorder record paths (obs.journey)
_JOURNEY_METHODS = ("start", "stamp_to", "finalize", "drop",
                    "link_retransmission")
#: FaultInjector entry points called from the fabrics (faults)
_FAULT_METHODS = ("intercept_delivery", "drop_message", "node_dead",
                  "kill_packet", "note_recovered")
#: ReconfigurationManager operations; each returns a SwapRecord
_RECONFIG_METHODS = ("swap", "install", "remove")

_MARK = "__perfbench_wrapped__"


def module_layer(module: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to (None outside repro)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    top = parts[1]
    if top == "arch" and len(parts) > 2:
        if parts[2] == "baselines" and len(parts) > 3:
            return f"arch.{parts[3]}"
        return f"arch.{parts[2]}"
    if top == "sim":
        return "sim.vec" if len(parts) > 2 and parts[2] == "vec" else "sim"
    if top == "obs" and len(parts) > 2:
        return f"obs.{parts[2]}"
    return top


def callable_module(fn: Any) -> str:
    """Module that defined ``fn`` (lambdas, closures, bound methods and
    ``functools.partial`` objects included)."""
    fn = getattr(fn, "func", fn)
    module = getattr(fn, "__module__", None)
    if module is None:
        module = getattr(getattr(fn, "__func__", None), "__module__", None)
    return module or type(fn).__module__ or ""


def event_bucket(fn: Any) -> str:
    layer = module_layer(callable_module(fn)) or ""
    if layer in _EVENT_BUCKETS:
        return layer
    if layer.startswith("arch."):
        return "arch.events"
    return "sim.events"


def percentile(values: List[int], q: float) -> int:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Tracer:
    """Wraps the program's layers and accumulates per-bucket self time."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {b: 0.0 for b in SELF_TIME_METRICS}
        self.calls: Dict[str, int] = {b: 0 for b in SELF_TIME_METRICS}
        self.counts: Dict[str, int] = {}
        self.inclusive_s: Dict[str, float] = {}
        #: [name, start_s, end_s, parent_index, operation_id]
        self.spans: List[list] = []
        self.missing: Set[str] = set()
        self.op: Optional[str] = None
        self._t0 = clock()
        self._stack: List[list] = []        # frames: [child_s, bucket]
        self._span_stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        # objects built during the current operation, harvested by
        # end_operation() and then released
        self._sims: List[Any] = []
        self._archs: List[Any] = []
        self._swaps: List[Any] = []
        self._journeys: List[Any] = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed(self, fn: Callable, bucket: str,
               observe: Optional[Callable[[Any], None]] = None) -> Callable:
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, bucket]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[bucket] += dt - frame[0]
                calls[bucket] += 1
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _spanned(self, fn: Callable, name: str, bucket: str) -> Callable:
        stack, self_s, calls = self._stack, self.self_s, self.calls
        spans, span_stack = self.spans, self._span_stack
        inclusive = self.inclusive_s
        inclusive.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = span_stack[-1] if span_stack else -1
            frame = [0.0, bucket]
            stack.append(frame)
            span_stack.append(index)
            t0 = clock()
            spans.append([name, t0 - self._t0, None, parent, self.op])
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                spans[index][2] = t1 - self._t0
                span_stack.pop()
                stack.pop()
                self_s[bucket] += dt - frame[0]
                calls[bucket] += 1
                inclusive[name] += dt
                if stack:
                    stack[-1][0] += dt

        setattr(wrapper, _MARK, True)
        return wrapper

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _count_stamp(self, _result: Any) -> None:
        self._count("obs.journey.stamps")

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _lookup(self, module: str, name: str) -> Any:
        try:
            obj = importlib.import_module(module)
            for part in name.split("."):
                obj = getattr(obj, part)
            return obj
        except (ImportError, AttributeError):
            self.missing.add(f"{module}.{name}")
            return None

    def _patch_method(self, cls: Any, attr: str, make: Callable) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.add(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def _patch_function(self, module: str, name: str, make: Callable) -> None:
        """Replace a module-level function everywhere it was imported."""
        import sys

        original = self._lookup(module, name)
        if original is None:
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    @staticmethod
    def _subclasses(cls: Any) -> List[Any]:
        out, todo = [], [cls]
        while todo:
            c = todo.pop()
            out.append(c)
            todo.extend(c.__subclasses__())
        return out

    def install(self) -> "Tracer":
        """Wrap every layer's entry points; undo with :meth:`uninstall`.
        Accumulated metrics survive any number of install cycles."""
        tracer = self
        Simulator = self._lookup("repro.sim.engine", "Simulator")
        Component = self._lookup("repro.sim.component", "Component")
        Arch = self._lookup("repro.arch.base", "CommArchitecture")

        if Simulator is not None:
            def wrap_init(orig):
                @functools.wraps(orig)
                def __init__(sim, *args, **kwargs):
                    orig(sim, *args, **kwargs)
                    tracer._sims.append(sim)
                return __init__

            def wrap_at(orig):
                @functools.wraps(orig)
                def at(sim, cycle, fn):
                    if not getattr(fn, _MARK, False):
                        fn = tracer._timed(fn, event_bucket(fn))
                    return orig(sim, cycle, fn)
                return at

            self._patch_method(Simulator, "__init__", wrap_init)
            self._patch_method(Simulator, "at", wrap_at)
            for cls in self._subclasses(Simulator):
                if "run" in cls.__dict__:
                    self._patch_method(cls, "run", lambda f: self._spanned(
                        f, "sim.run", "sim"))
                if "run_until" in cls.__dict__:
                    self._patch_method(cls, "run_until", self._wrap_run_until)

        if Component is not None:
            arch_bucket = {key: f"arch.{key}" for key in ARCH_KEYS}
            for cls in self._subclasses(Component):
                if "tick" not in cls.__dict__:
                    continue
                if Arch is not None and issubclass(cls, Arch):
                    self._patch_method(cls, "tick", lambda f: self._arch_tick(
                        f, arch_bucket))
                else:
                    layer = module_layer(cls.__module__) or "harness"
                    bucket = layer if layer in SELF_TIME_METRICS else "harness"
                    self._patch_method(cls, "tick", lambda f, b=bucket:
                                       self._timed(f, b))

        if Arch is not None:
            def wrap_arch_init(orig):
                @functools.wraps(orig)
                def __init__(arch, *args, **kwargs):
                    orig(arch, *args, **kwargs)
                    tracer._archs.append(arch)
                return __init__

            self._patch_method(Arch, "__init__", wrap_arch_init)

        self._patch_function("repro.arch", "build_architecture",
                             lambda f: self._spanned(f, "arch.build",
                                                     "arch.build"))

        port = self._lookup("repro.arch.base", "ArchPort")
        if port is not None:
            def wrap_send(orig):
                @functools.wraps(orig)
                def send(p, *args, **kwargs):
                    stack = tracer._stack
                    if stack and stack[-1][1] == "traffic":
                        tracer._count("traffic.injected")
                    return orig(p, *args, **kwargs)
                return send

            self._patch_method(port, "send", wrap_send)

        flows = self._lookup("repro.obs.flows", "FlowTelemetry")
        if flows is not None:
            for name in _FLOW_METHODS:
                self._patch_method(flows, name,
                                   lambda f: self._timed(f, "obs.flows"))

        journey = self._lookup("repro.obs.journey", "JourneyRecorder")
        if journey is not None:
            for name in _JOURNEY_METHODS:
                observe = self._count_stamp if name == "stamp_to" else None
                self._patch_method(journey, name, lambda f, o=observe:
                                   self._timed(f, "obs.journey", o))

            def wrap_journey_init(orig):
                @functools.wraps(orig)
                def __init__(rec, *args, **kwargs):
                    orig(rec, *args, **kwargs)
                    tracer._journeys.append(rec)
                return __init__

            self._patch_method(journey, "__init__", wrap_journey_init)

        alerts = self._lookup("repro.obs.alerts", "AlertEngine")
        if alerts is not None:
            self._patch_method(alerts, "evaluate", lambda f: self._timed(
                f, "obs.alerts",
                lambda fired: self._count("obs.alerts.fired",
                                          len(fired or ()))))

            def wrap_subscribe(orig):
                @functools.wraps(orig)
                def subscribe(engine, listener):
                    if not getattr(listener, _MARK, False):
                        listener = tracer._timed(listener,
                                                 event_bucket(listener))
                    return orig(engine, listener)
                return subscribe

            self._patch_method(alerts, "subscribe", wrap_subscribe)

        manager = self._lookup("repro.reconfig.manager",
                               "ReconfigurationManager")
        if manager is not None:
            for name in _RECONFIG_METHODS:
                self._patch_method(manager, name, lambda f: self._timed(
                    f, "reconfig", self._swaps.append))

        injector = self._lookup("repro.faults.injector", "FaultInjector")
        if injector is not None:
            for name in _FAULT_METHODS:
                self._patch_method(injector, name,
                                   lambda f: self._timed(f, "faults"))

        self._patch_function("repro.obs.ledger", "build_run_record",
                             lambda f: self._spanned(f, "obs.ledger.build",
                                                     "obs.ledger.build"))
        ledger = self._lookup("repro.obs.ledger", "RunLedger")
        if ledger is not None:
            self._patch_method(ledger, "store", lambda f: self._spanned(
                f, "obs.ledger.store", "obs.ledger.store"))
        self._patch_function("repro.analysis.chaos", "discover_arch_keys",
                             lambda f: self._spanned(f, "analysis.discover",
                                                     "harness"))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_run_until(self, orig: Callable) -> Callable:
        spanned = self._spanned(orig, "sim.run_until", "sim")

        @functools.wraps(orig)
        def run_until(sim, predicate, *args, **kwargs):
            if not getattr(predicate, _MARK, False):
                predicate = self._timed(predicate, "drain")
            return spanned(sim, predicate, *args, **kwargs)

        setattr(run_until, _MARK, True)
        return run_until

    def _arch_tick(self, orig: Callable, arch_bucket: Dict[str, str]) -> Callable:
        """Architecture ticks: ``sim.vec`` when a batch kernel is
        installed on the instance, else ``arch.<key>``."""
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(orig)
        def tick(arch, *args, **kwargs):
            if getattr(arch, "vec", None) is not None:
                bucket = "sim.vec"
            else:
                bucket = arch_bucket.get(arch.KEY, "harness")
            frame = [0.0, bucket]
            stack.append(frame)
            t0 = clock()
            try:
                return orig(arch, *args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[bucket] += dt - frame[0]
                calls[bucket] += 1
                if stack:
                    stack[-1][0] += dt

        setattr(tick, _MARK, True)
        return tick

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def run_operation(self, op_id: str, fn: Callable[[], Any]) -> Any:
        """Run one benchmark operation as a root span (bucket
        ``harness``: whatever no layer claims)."""
        self.op = op_id
        try:
            return self._spanned(fn, "op", "harness")()
        finally:
            self.op = None

    def end_operation(self, acc: "RoundStats") -> None:
        """Fold what the operation's simulators, architectures, swaps
        and journey recorders did into ``acc``, then release them."""
        for sim in self._sims:
            m = sim.kmetrics
            acc.add("sim.cycles", sim.cycle)
            acc.add("sim.steps", m.cycles_stepped)
            acc.add("sim.ff_cycles", m.ff_cycles_skipped)
            acc.add("sim.ticks", m.ticks_total)
            acc.add("sim.wakes", m.wakes_total)
            acc.add("sim.commits", m.commit_elements)
        acc.add("arch.builds", len(self._archs))
        for arch in self._archs:
            acc.add_arch_log(getattr(arch, "KEY", "base"), arch.log.messages)
        for record in self._swaps:
            acc.add("reconfig.swaps", 1)
            if getattr(record, "done", False):
                acc.add("reconfig.downtime_cycles", record.downtime_cycles)
        for rec in self._journeys:
            acc.add("obs.journey.records", len(rec.records))
        self._sims.clear()
        self._archs.clear()
        self._swaps.clear()
        self._journeys.clear()

    def layer_metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for bucket, metric in SELF_TIME_METRICS.items():
            out[metric] = self.self_s[bucket]
        for bucket, metric in CALL_COUNT_METRICS.items():
            out[metric] = self.calls[bucket]
        for key in ("traffic.injected", "obs.journey.stamps",
                    "obs.alerts.fired"):
            out[key] = self.counts.get(key, 0)
        out["analysis.discover_s"] = self.inclusive_s.get(
            "analysis.discover", 0.0)
        return out


class RoundStats:
    """Counts and per-architecture message samples of one round."""

    COUNTS = ("sim.cycles", "sim.steps", "sim.ff_cycles", "sim.ticks",
              "sim.wakes", "sim.commits", "arch.builds", "reconfig.swaps",
              "reconfig.downtime_cycles", "obs.journey.records")

    def __init__(self) -> None:
        self.counts: Dict[str, float] = {key: 0 for key in self.COUNTS}
        self.lat: Dict[str, List[int]] = {k: [] for k in ARCH_KEYS}
        self.wait: Dict[str, List[int]] = {k: [] for k in ARCH_KEYS}

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def add_arch_log(self, key: str, messages: Any) -> None:
        if key not in self.lat:
            return
        sent = delivered = 0
        lat, wait = self.lat[key], self.wait[key]
        for m in messages:
            sent += 1
            if m.accepted_cycle >= 0:
                wait.append(m.accepted_cycle - m.created_cycle)
            if m.delivered_cycle >= 0:
                delivered += 1
                lat.append(m.delivered_cycle - m.created_cycle)
        self.add(f"arch.{key}.sent", sent)
        self.add(f"arch.{key}.delivered", delivered)

    def metrics(self) -> Dict[str, float]:
        out = dict(self.counts)
        for key in ARCH_KEYS:
            out.setdefault(f"arch.{key}.sent", 0)
            out.setdefault(f"arch.{key}.delivered", 0)
            out[f"arch.{key}.wait_p99_cycles"] = percentile(self.wait[key], 99)
            out[f"arch.{key}.lat_p99_cycles"] = percentile(self.lat[key], 99)
        return out

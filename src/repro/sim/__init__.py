"""Synchronous cycle-level simulation kernel.

The kernel models a fully synchronous digital system one clock cycle at
a time: each cycle, scheduled events fire first, then every runnable
:class:`~repro.sim.component.Component` ticks in registration order.
Components talk by method calls; code that changes what another
component's tick would do calls that component's ``wake()``.

A small scheduled-event facility (``Simulator.at`` / ``Simulator.after``)
models asynchronous control actions such as partial reconfiguration,
which in hardware are driven by a configuration port rather than the
user clock.

The kernel is activity-driven by default: components may return
:data:`SLEEP` (or a wake cycle) from ``tick`` to leave the hot loop
while idle.  See ``repro.sim.engine`` for the fast path and its
equivalence guarantee.
"""

from repro.sim.component import Component, QuiescenceHint
from repro.sim.engine import SLEEP, KernelMetrics, SimError, Simulator
from repro.sim.rng import make_rng, spawn_rngs
from repro.sim.stats import (
    Counter,
    Histogram,
    StatsRegistry,
    StreamingHistogram,
    TimeSeries,
)
from repro.sim.trace import SpanEvent, TraceEvent, Tracer

__all__ = [
    "Component",
    "Counter",
    "Histogram",
    "KernelMetrics",
    "QuiescenceHint",
    "SLEEP",
    "SimError",
    "Simulator",
    "SpanEvent",
    "StatsRegistry",
    "StreamingHistogram",
    "TimeSeries",
    "TraceEvent",
    "Tracer",
    "make_rng",
    "spawn_rngs",
]

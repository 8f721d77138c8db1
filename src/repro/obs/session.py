"""Observation sessions: trace/profile simulators you didn't build.

The experiment harnesses construct their simulators internally — often
several per experiment — so there is no parameter to thread a tracer
through.  :class:`ObservationSession` instead installs a construction
hook (:func:`repro.sim.engine.set_new_sim_hook`): every
:class:`~repro.sim.Simulator` built while the session is active gets a
tracer attached and/or the profiler enabled, and is collected for
export afterwards::

    with ObservationSession(trace=True, profile=True) as obs:
        result = registry()["e1"]()
    write_chrome_trace("trace-e1.json", obs.sims)

:func:`observe_named` does this for a harness named on the command
line; every CLI command that runs a named experiment goes through it.
Sessions nest by chaining to the previously installed hook; exiting
restores it.
"""

from __future__ import annotations

from typing import Any, List

from repro.sim.engine import Simulator, set_new_sim_hook
from repro.sim.trace import Tracer


class ObservationSession:
    """Attach observability to every Simulator constructed in scope.

    Parameters
    ----------
    trace:
        Attach a fresh :class:`Tracer` to each new simulator.
    profile:
        Enable the wall-clock profiler on each new simulator.
    telemetry:
        Attach a :class:`~repro.obs.flows.FlowTelemetry` (with an
        :class:`~repro.obs.alerts.AlertEngine` evaluating ``rules``)
        to each new simulator — the ``repro watch`` data source.
    journeys:
        Attach a :class:`~repro.obs.journey.JourneyRecorder` to each
        new simulator (the ``repro explain`` data source), sampling
        deterministically with ``journey_seed`` / ``journey_rate`` and
        capped by ``journey_max_records``.  Records fold into per-flow
        aggregates at delivery; only a traced session keeps each
        message's record, for the Perfetto journey arcs.
    rules:
        Alert rules for the telemetry engine (default: the canonical
        :func:`~repro.obs.alerts.default_rules` set).
    max_events / keep:
        Tracer capacity policy; the default keeps the *tail* so the end
        of long runs stays observable.
    """

    def __init__(self, trace: bool = True, profile: bool = False,
                 telemetry: bool = False, journeys: bool = False,
                 rules=None, max_events: int = 500_000, keep: str = "tail",
                 journey_rate: float = 1.0, journey_seed: int = 0,
                 journey_max_records: int = 100_000):
        self.trace = trace
        self.profile = profile
        self.telemetry = telemetry
        self.journeys = journeys
        self.rules = rules
        self.max_events = max_events
        self.keep = keep
        self.journey_rate = journey_rate
        self.journey_seed = journey_seed
        self.journey_max_records = journey_max_records
        #: every simulator constructed while the session was active
        self.sims: List[Simulator] = []
        self._prev = None
        self._active = False

    # ------------------------------------------------------------------
    def _on_new_sim(self, sim: Simulator) -> None:
        if self.trace and sim.tracer is None:
            sim.tracer = Tracer(max_events=self.max_events, keep=self.keep)
        if self.profile and sim.profiler is None:
            from repro.obs.profile import Profiler

            sim.profiler = Profiler()
        if self.telemetry and sim.telemetry is None:
            from repro.obs.alerts import AlertEngine
            from repro.obs.flows import FlowTelemetry

            tel = FlowTelemetry()
            # a private engine per simulator: breach episodes and burn
            # rates are per-fabric state (the rule list is shared)
            tel.engine = AlertEngine(self.rules)
            tel.attach(sim)
        if self.journeys and sim.journey is None:
            from repro.obs.journey import JourneyRecorder

            sim.journey = JourneyRecorder(
                seed=self.journey_seed, rate=self.journey_rate,
                max_records=self.journey_max_records, retain=self.trace)
        self.sims.append(sim)
        if self._prev is not None:
            self._prev(sim)

    def __enter__(self) -> "ObservationSession":
        if self._active:
            raise RuntimeError("ObservationSession is not re-entrant")
        self._active = True
        self._prev = set_new_sim_hook(self._on_new_sim)
        return self

    def __exit__(self, *exc_info: object) -> None:
        set_new_sim_hook(self._prev)
        self._prev = None
        self._active = False

    # ------------------------------------------------------------------
    @property
    def traced_sims(self) -> List[Simulator]:
        """Observed simulators that have a tracer attached."""
        return [s for s in self.sims if s.tracer is not None]

    def total_events(self) -> int:
        return sum(len(s.tracer) for s in self.traced_sims)

    def total_spans(self) -> int:
        return sum(len(s.tracer.spans) for s in self.traced_sims)

    @property
    def telemetry_sims(self) -> List[Simulator]:
        """Observed simulators that carry a telemetry collector."""
        return [s for s in self.sims if s.telemetry is not None]

    def flush_alerts(self) -> None:
        """Force a final rule evaluation on every observed simulator
        (so sub-eval_interval runs still surface their alerts)."""
        for sim in self.telemetry_sims:
            sim.telemetry.evaluate_now(sim.cycle)


def observe_named(name: str, **options: Any
                  ) -> "tuple[object, ObservationSession]":
    """Run a registered experiment/ablation harness under an
    ``ObservationSession(**options)``; returns ``(result, session)``.

    Every command that observes a named experiment comes through here.
    Raises :class:`~repro.analysis.parallel.ExperimentError` for an
    unknown name or a run that built no simulator.  Always runs
    serially in-process with the result cache bypassed — a cached
    result would have nothing to observe.
    """
    from repro.analysis.parallel import ExperimentError, harness

    run = harness(name)
    session = ObservationSession(**options)
    with session:
        result = run()
    if not session.sims:
        raise ExperimentError(f"experiment {name!r} built no simulators")
    if session.telemetry:
        session.flush_alerts()
    return result, session

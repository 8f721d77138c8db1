"""Chaos harness: canonical fault scenarios over live architectures.

``repro chaos <experiment>`` discovers which architectures an
experiment harness builds (it runs the harness under an
:class:`~repro.obs.session.ObservationSession` and reads them off the
simulators) and subjects each to its canonical chaos scenario: a
steady message stream, a single seeded ``NODE_DOWN`` on a
known-recoverable fabric element mid-stream, and a long-enough run for
the architecture's own recovery machinery (CANCEL teardown, slot
migration, S-XY obstacle routing, table redistribution) to restore
service.  The output is a ``repro.chaos/1`` document of resilience
metrics — delivered/dropped/retransmitted/undelivered, detection
latency, MTTR, availability — plus any SLO alerts the run fired.

Every scenario is deterministic: the fault schedule is seeded, traffic
is injected at fixed cycles, and the per-architecture targets are
chosen from the recovery policy's own candidate list (or a pinned
known-good coordinate where the policy is deliberately conservative),
so the same seed reproduces the same document bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.arch import build_architecture
from repro.faults import FaultKind, FaultSchedule, inject
from repro.faults.policies import make_policy
from repro.schema import NUMBER, check
from repro.sim import Simulator

#: schema tag of the document :func:`run_chaos_sweep` emits
CHAOS_SCHEMA = "repro.chaos/1"

#: cycle the canonical fault fires at (mid-stream)
FAULT_AT = 300
#: outage length before the element is repaired
FAULT_DURATION = 900
#: messages pumped per scenario, one every TRAFFIC_PERIOD cycles
TRAFFIC_COUNT = 40
TRAFFIC_PERIOD = 40
#: run horizon — generous slack past the last send + recovery
HORIZON = 20_000


class _TargetProbe:
    """Minimal injector stand-in for target discovery: policies only
    read ``dead_nodes`` when listing candidates."""

    dead_nodes: Dict[Any, Any] = {}


def _build_scenario_arch(key: str, sim: Simulator):
    """The canonical build + (target, src, dst) choice for one
    architecture.  Returns ``(arch, target, src, dst)``."""
    if key == "conochi":
        # six modules on the 7-switch ladder: the spare switch is a
        # dead-end stub, so fail m2's *home* switch instead — traffic
        # m0 -> m4 detours over the top rail while m2 is unreachable.
        from repro.arch.conochi.arch import ladder_grid

        arch = build_architecture(key, num_modules=6,
                                  grid=ladder_grid(7), sim=sim)
        return arch, (2, 2), "m0", "m4"
    if key in ("dynoc", "staticmesh"):
        # the default mesh for 4 modules has no spare routers; a 4x4
        # mesh leaves 12, all maskable as S-XY obstacles
        arch = build_architecture(key, num_modules=4, mesh=(4, 4), sim=sim)
    else:
        arch = build_architecture(key, num_modules=4, sim=sim)
    policy = make_policy(arch, _TargetProbe())
    targets = policy.node_targets()
    if not targets:
        raise RuntimeError(f"{key}: recovery policy lists no safe "
                           f"fault targets")
    target = targets[len(targets) // 2]
    mods = list(arch.ports)
    return arch, target, mods[0], mods[-1]


def _execute_scenario(key: str, seed: int, telemetry: bool,
                      adaptive_rules_on: bool, with_loop: bool):
    """One simulated chaos run; returns ``(sim, injector, loop)``."""
    sim = Simulator(name=f"chaos-{key}")
    tel = None
    if telemetry:
        from repro.obs.alerts import AlertEngine
        from repro.obs.flows import FlowTelemetry

        tel = FlowTelemetry()
        if adaptive_rules_on:
            from repro.control.actions import adaptive_rules

            tel.engine = AlertEngine(rules=adaptive_rules())
        else:
            tel.engine = AlertEngine()
        tel.attach(sim)
    arch, target, src, dst = _build_scenario_arch(key, sim)
    loop = None
    if with_loop:
        from repro.control.loop import ControlLoop

        loop = ControlLoop(arch, tel=tel)
    sched = FaultSchedule(seed=seed).one_shot(
        FAULT_AT, FaultKind.NODE_DOWN, target, duration=FAULT_DURATION)
    injector = inject(arch, sched)
    ports = arch.ports
    for i in range(TRAFFIC_COUNT):
        sim.at(10 + TRAFFIC_PERIOD * i,
               lambda s, src=src, dst=dst: ports[src].send(dst, 64,
                                                           tag="chaos"))
    sim.run(HORIZON)
    return sim, target, injector, loop


def run_chaos_scenario(key: str, seed: int = 7,
                       telemetry: bool = True,
                       adaptive: bool = False) -> Dict[str, Any]:
    """One architecture through its canonical fault scenario.

    With ``adaptive`` the run watches the controller rule set, wires a
    :class:`~repro.control.loop.ControlLoop` onto the alert stream,
    and the document additionally carries the ``repro.control/1``
    action log plus an SLO-burn comparison against a static twin run
    under identical traffic, faults, and rules.
    """
    if adaptive and not telemetry:
        raise ValueError("adaptive chaos runs need telemetry: the "
                         "controller is driven by the alert stream")
    sim, target, injector, loop = _execute_scenario(
        key, seed, telemetry,
        adaptive_rules_on=adaptive, with_loop=adaptive)
    metrics = injector.metrics()
    survived = (
        metrics["messages_sent"] > 0
        and metrics["messages_undelivered"] == 0
        and metrics["faults_recovered"] == metrics["faults_injected"]
    )
    doc: Dict[str, Any] = {
        "arch": key,
        "target": str(target),
        "seed": seed,
        "survived": survived,
        "metrics": metrics,
    }
    if telemetry:
        sim.telemetry.evaluate_now()
        doc["alerts"] = [a.to_dict()
                         for a in sim.telemetry.engine.alerts]
    if adaptive:
        doc["control"] = loop.action_log(sim.cycle)
        burn = sim.telemetry.engine.total_burn(sim.cycle)
        static_sim, _, _, _ = _execute_scenario(
            key, seed, telemetry,
            adaptive_rules_on=True, with_loop=False)
        static_sim.telemetry.evaluate_now()
        static_burn = static_sim.telemetry.engine.total_burn(
            static_sim.cycle)
        doc["slo_burn_cycles"] = burn
        doc["static_slo_burn_cycles"] = static_burn
        doc["burn_improved"] = burn <= static_burn
    return doc


def discover_arch_keys(experiment: str) -> List[str]:
    """Which architecture kinds an experiment harness builds, in build
    order, as the harness declares them
    (:func:`~repro.analysis.experiments.builds`); nothing runs.  An
    unknown name or a harness that builds no simulator raises
    :class:`~repro.analysis.parallel.ExperimentError`."""
    from repro.analysis.parallel import ExperimentError, harness

    keys = list(harness(experiment).fabrics)
    if not keys:
        raise ExperimentError(f"experiment {experiment!r} built no "
                              f"simulators")
    return keys


def _resilience_summary(scenarios: List[Dict[str, Any]]
                        ) -> Dict[str, Any]:
    """Sweep-level resilience aggregate for the run-ledger record."""
    mttrs = [s["metrics"]["mttr_max"] for s in scenarios
             if s["metrics"]["mttr_max"] is not None]
    return {
        "survived": all(s["survived"] for s in scenarios),
        "scenarios": len(scenarios),
        "faults_injected": sum(s["metrics"]["faults_injected"]
                               for s in scenarios),
        "faults_recovered": sum(s["metrics"]["faults_recovered"]
                                for s in scenarios),
        "messages_undelivered": sum(s["metrics"]["messages_undelivered"]
                                    for s in scenarios),
        "availability_min": min(s["metrics"]["availability"]
                                for s in scenarios),
        "mttr_max": max(mttrs) if mttrs else None,
        "alerts": sum(len(s.get("alerts", [])) for s in scenarios),
    }


def run_chaos_sweep(experiment: str, seed: int = 7,
                    rounds: int = 1,
                    telemetry: bool = True,
                    ledger: bool = True,
                    adaptive: bool = False) -> Dict[str, Any]:
    """The ``repro.chaos/1`` document: every architecture the
    experiment exercises, each through ``rounds`` seeded scenarios
    (round *i* uses ``seed + i``).

    Unless opted out (``ledger=False`` or ``REPRO_LEDGER=0``), the
    sweep also persists a ``repro.run/1`` record — the chaos document
    as its stats plus kernel metrics and a resilience aggregate — and
    the returned document carries its id under ``run_id``.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    from repro.obs.ledger import (RunLedger, build_run_record,
                                  ledger_enabled)
    from repro.obs.session import ObservationSession

    keys = discover_arch_keys(experiment)
    ledgered = ledger and ledger_enabled()
    # an all-off session: collect the scenarios' simulators for the
    # record's kernel-metrics section without touching instrumentation
    # (run_chaos_scenario attaches its own telemetry)
    session = ObservationSession(trace=False)
    scenarios: List[Dict[str, Any]] = []
    import time as _time

    t0 = _time.perf_counter()
    with session:
        for i in range(rounds):
            for key in keys:
                scenarios.append(
                    run_chaos_scenario(key, seed=seed + i,
                                       telemetry=telemetry,
                                       adaptive=adaptive))
    doc = {
        "schema": CHAOS_SCHEMA,
        "experiment": experiment,
        "seed": seed,
        "rounds": rounds,
        "architectures": keys,
        "scenarios": scenarios,
        "survived": all(s["survived"] for s in scenarios),
    }
    if adaptive:
        doc["adaptive"] = True
        doc["slo_burn_cycles"] = sum(s["slo_burn_cycles"]
                                     for s in scenarios)
        doc["static_slo_burn_cycles"] = sum(
            s["static_slo_burn_cycles"] for s in scenarios)
        doc["burn_improved"] = (doc["slo_burn_cycles"]
                                <= doc["static_slo_burn_cycles"])
        doc["actions"] = sum(len(s["control"]["actions"])
                             for s in scenarios)
    if ledgered:
        record = build_run_record(
            "chaos", experiment,
            config={"rounds": rounds, "telemetry": telemetry,
                    "adaptive": adaptive},
            seed=seed, stats=doc,
            sims=session.sims,
            resilience=_resilience_summary(scenarios),
            wall_seconds=_time.perf_counter() - t0)
        doc["run_id"] = RunLedger().store(record)
    return doc


_CHAOS = {
    "schema": frozenset({CHAOS_SCHEMA}),
    "scenarios": [{
        "arch": str, "target": str, "seed": int, "survived": bool,
        "metrics": {
            "faults_injected": int, "faults_recovered": int,
            "messages_sent": int, "messages_delivered": int,
            "messages_dropped": int, "messages_undelivered": int,
            "messages_retransmitted": int,
            "mttr_max": (int, type(None)),
            "detection_max": (int, type(None)),
            "availability": NUMBER,
        },
    }, ...],
    "architectures": [str, ...],
    "survived": bool,
}


def validate_chaos(doc: Dict[str, Any]) -> int:
    """Structural check of a ``repro.chaos/1`` document (the CI smoke
    job runs this on the CLI's ``--json`` output); returns the number
    of scenarios.  Raises :class:`ValueError` naming the path of any
    problem."""
    check(doc, _CHAOS)
    return len(doc["scenarios"])


def render_chaos(doc: Dict[str, Any]) -> str:
    """Human-readable table of a chaos document."""
    lines = [
        f"chaos sweep  : {doc['experiment']} "
        f"(seed {doc['seed']}, {doc['rounds']} round(s))",
        "",
        f"{'arch':<11}{'target':<10}{'sent':>6}{'dlvd':>6}{'drop':>6}"
        f"{'rtx':>5}{'undlv':>7}{'mttr':>7}{'avail':>8}  verdict",
    ]
    for s in doc["scenarios"]:
        m = s["metrics"]
        mttr = m["mttr_max"] if m["mttr_max"] is not None else "-"
        lines.append(
            f"{s['arch']:<11}{s['target']:<10}"
            f"{m['messages_sent']:>6}{m['messages_delivered']:>6}"
            f"{m['messages_dropped']:>6}{m['messages_retransmitted']:>5}"
            f"{m['messages_undelivered']:>7}{mttr!s:>7}"
            f"{m['availability']:>8.4f}  "
            f"{'survived' if s['survived'] else 'FAILED'}"
        )
        for alert in s.get("alerts", []):
            lines.append(f"{'':<11}  alert: {alert['rule']} "
                         f"({alert['severity']}) {alert['message']}")
        if "control" in s:
            lines.append(
                f"{'':<11}  control: "
                f"burn {s['slo_burn_cycles']} vs static "
                f"{s['static_slo_burn_cycles']}, "
                f"actions {dict(s['control']['counts']) or 'none'}")
    lines.append("")
    lines.append("verdict      : "
                 + ("all scenarios survived" if doc["survived"]
                    else "SOME SCENARIOS FAILED"))
    return "\n".join(lines)

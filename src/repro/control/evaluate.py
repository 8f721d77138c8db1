"""Adaptive-vs-static evaluation: does closing the loop actually help?

``repro adapt <experiment>`` runs, for every architecture the
experiment exercises, one crafted *sustained-pressure* scenario twice
under identical traffic and identical alert rules: once **static**
(telemetry and alerts attached, nobody acting on them) and once
**adaptive** (a :class:`~repro.control.loop.ControlLoop` wired to the
alert stream).  Three outcome metrics decide the verdict, mirroring
the chaos harness's resilience vocabulary:

* **SLO burn** — total cycles any rule spent in a fired breach episode
  (:meth:`AlertEngine.total_burn`);
* **MTTR** — the longest fire-to-clear recovery among breach episodes,
  censored at the horizon when a breach never clears
  (:meth:`AlertEngine.episodes`);
* **undelivered traffic** — messages the scenario injected that never
  arrived.

A pair counts as *improved* only when the adaptive run burns strictly
fewer cycles, recovers strictly faster, and delivers no less traffic —
the controller must not buy latency with loss.  The scenarios are
deliberately winnable for the reconfigurable designs (a starved TDMA
dynamic segment, an RMBoC lane famine, a DyNoC detour wall) and
deliberately *not* for the static baselines: StaticMesh shares DyNoC's
re-placement policy but its welded-shut floorplan makes every apply
fail, so its action log honestly records infeasibility — which is the
paper's point about static architectures.

Every run is deterministic: traffic schedules are fixed functions of
the seed, the controller is RNG-free, and the emitted ``repro.adapt/1``
document reproduces bit for bit.  Under ``REPRO_SIM_FASTPATH=0`` only
its ``run_id`` changes (the ledger record's ``kernel`` section
describes how the kernel ran): alert rules run on the telemetry's
fixed evaluation grid, whatever cycles the kernel steps (see
docs/adaptive.md).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.arch import build_architecture
from repro.control.actions import adaptive_rules
from repro.control.guards import GuardConfig
from repro.control.loop import (CONTROL_SCHEMA, FINAL_STATUSES,
                                ControlLoop)
from repro.fabric.geometry import Rect
from repro.schema import check
from repro.sim import Simulator

__all__ = ["ADAPT_SCHEMA", "run_adaptive_pair", "run_adapt",
           "validate_control", "validate_adapt", "render_adapt"]

#: schema tag of the document :func:`run_adapt` emits
ADAPT_SCHEMA = "repro.adapt/1"

#: run horizon — long enough for every scenario's pressure phase plus
#: a recovery tail where cleared breaches actually show up as cleared
ADAPT_HORIZON = 20_000

#: guard tuned to the evaluation horizon: the improvement check waits
#: long enough for a trailing burn-rate window to drain after a fix
ADAPT_GUARD = GuardConfig(observe_window=4_096, cooldown=2_048)


# ----------------------------------------------------------------------
# scenarios: one sustained-pressure case per architecture.  Each builds
# the architecture on `sim`, schedules periodic traffic, and returns
# the arch.  Traffic must be *periodic* (not a one-shot burst) so the
# watched breach persists in the static run and can genuinely clear in
# the adaptive one.
# ----------------------------------------------------------------------
def _scenario_buscom(sim: Simulator, seed: int):
    """Starved dynamic segment: every static slot belongs to an idle
    module and the dynamic segment is too short for one payload byte,
    so the bulk sender's backlog can only move if the controller
    re-plans a slot."""
    from repro.arch.buscom.schedule import SlotTable

    table = SlotTable(1, 4)
    for s in range(3):
        table.set_static(0, s, "m1")  # slot 3 stays dynamic
    arch = build_architecture("buscom", num_modules=4, num_buses=1,
                              sim=sim, table=table,
                              slots_per_bus=4, static_slots=3,
                              dynamic_segment_cycles=2)
    ports = arch.ports
    start = 10 + seed % 17
    for i in range(28):
        sim.at(start + 400 * i,
               lambda s: ports["m0"].send("m2", 200, tag="adapt"))
    return arch


def _scenario_rmboc(sim: Simulator, seed: int):
    """Lane famine: a one-channel budget under all-to-all burst waves
    keeps every NI queue deep — the buses have spare lanes, but the
    per-module cap forbids using them until the controller raises it."""
    arch = build_architecture("rmboc", num_modules=4, sim=sim,
                              max_channels_per_module=1)
    ports = arch.ports
    mods = list(arch.modules)
    start = 10 + seed % 17
    # continuous, slightly past the one-channel throughput: the NI
    # backlog climbs without bound until the cap rises
    for w in range(240):
        at = start + 50 * w
        for src in mods:
            for dst in mods:
                if src != dst:
                    sim.at(at, lambda s, src=src, dst=dst:
                           ports[src].send(dst, 64, tag="adapt"))
    return arch


def _scenario_dynoc(sim: Simulator, seed: int):
    """A wall of logic between a chatty pair: every packet detours the
    long way round until the endpoint is re-placed beside its peer."""
    arch = build_architecture("dynoc", num_modules=0, mesh=(9, 7),
                              sim=sim)
    arch.attach("src", rect=Rect(0, 3, 1, 1))
    arch.attach("dst", rect=Rect(8, 3, 1, 1))
    arch.attach("wall", rect=Rect(4, 1, 3, 5))
    ports = arch.ports
    start = 10 + seed % 17
    for i in range(240):
        sim.at(start + 50 * i,
               lambda s: ports["src"].send("dst", 16, tag="adapt"))
    return arch


def _scenario_staticmesh(sim: Simulator, seed: int):
    """The same chatty-pair pressure on the welded-shut baseline: the
    shared DyNoC policy plans relocations, every apply fails."""
    arch = build_architecture("staticmesh", num_modules=9, sim=sim)
    ports = arch.ports
    mods = list(arch.modules)
    start = 10 + seed % 17
    for w in range(24):
        at = start + 300 * w
        for src in mods:
            for dst in mods:
                if src != dst:
                    sim.at(at, lambda s, src=src, dst=dst:
                           ports[src].send(dst, 64, tag="adapt"))
    return arch


def _scenario_conochi(sim: Simulator, seed: int):
    """Two modules crowded onto one switch of a four-switch chain:
    their combined bursts keep the fabric queue deep until a switch is
    inserted and one of them migrates off."""
    from repro.arch.conochi.arch import standard_grid

    arch = build_architecture("conochi", num_modules=0,
                              grid=standard_grid(4), sim=sim)
    arch.attach("m0", rect=Rect(1, 0, 1, 1), switch=(1, 1))
    arch.attach("m1", rect=Rect(1, 2, 1, 1), switch=(1, 1))
    arch.attach("m2", rect=Rect(3, 0, 1, 1), switch=(3, 1))
    arch.attach("m3", rect=Rect(4, 0, 1, 1), switch=(4, 1))
    ports = arch.ports
    start = 10 + seed % 17
    for w in range(40):
        at = start + 300 * w
        for src, dst in (("m0", "m2"), ("m1", "m3"),
                         ("m0", "m3"), ("m1", "m2")):
            for k in range(4):
                sim.at(at + k, lambda s, src=src, dst=dst:
                       ports[src].send(dst, 128, tag="adapt"))
    return arch


def _scenario_sharedbus(sim: Simulator, seed: int):
    """One heavy talker among light ones on the single bus: the
    arbiter queue stays deep at the bulk sender; rotating it to the
    scan head is the only knob the design offers."""
    arch = build_architecture("sharedbus", num_modules=4, sim=sim)
    ports = arch.ports
    mods = list(arch.modules)
    start = 10 + seed % 17
    for w in range(40):
        at = start + 300 * w
        for k in range(10):
            sim.at(at + k,
                   lambda s: ports["m0"].send("m2", 128, tag="adapt"))
        for src in mods[1:]:
            sim.at(at, lambda s, src=src:
                   ports[src].send("m0", 64, tag="adapt"))
    return arch


_SCENARIOS = {
    "buscom": _scenario_buscom,
    "rmboc": _scenario_rmboc,
    "dynoc": _scenario_dynoc,
    "staticmesh": _scenario_staticmesh,
    "conochi": _scenario_conochi,
    "sharedbus": _scenario_sharedbus,
}


# ----------------------------------------------------------------------
def _run_variant(key: str, seed: int, adaptive: bool,
                 guard: Optional[GuardConfig]) -> Dict[str, Any]:
    """One scenario run; static and adaptive differ only in whether a
    ControlLoop subscribes to the (identical) alert stream."""
    from repro.obs.alerts import AlertEngine
    from repro.obs.flows import FlowTelemetry

    mode = "adaptive" if adaptive else "static"
    sim = Simulator(name=f"adapt-{key}-{mode}")
    tel = FlowTelemetry()
    tel.engine = AlertEngine(rules=adaptive_rules())
    tel.attach(sim)
    arch = _SCENARIOS[key](sim, seed)
    loop = None
    if adaptive:
        loop = ControlLoop(arch, tel=tel, guard=guard or ADAPT_GUARD)
    sim.run(ADAPT_HORIZON)
    tel.evaluate_now(sim.cycle)
    eng = tel.engine
    episodes = eng.episodes(sim.cycle)
    durations = [e["duration"] for e in episodes]
    sent = arch.log.total
    delivered = len(arch.log.delivered())
    out: Dict[str, Any] = {
        "mode": mode,
        "cycle": sim.cycle,
        "slo_burn_cycles": eng.total_burn(sim.cycle),
        "mttr_max": max(durations) if durations else None,
        "episodes": len(episodes),
        "episodes_open": sum(1 for e in episodes if e["open"]),
        "alerts_fired": len(eng.alerts),
        "alerts_cleared": len(eng.clears),
        "messages_sent": sent,
        "messages_delivered": delivered,
        "messages_undelivered": sent - delivered,
    }
    if loop is not None:
        out["control"] = loop.action_log(sim.cycle)
    return out


def _improved(static: Dict[str, Any],
              adaptive: Dict[str, Any]) -> bool:
    """Strict win: less burn, faster recovery, no traffic lost that
    the static run delivered."""
    s_mttr = static["mttr_max"] or 0
    a_mttr = adaptive["mttr_max"] or 0
    return (
        adaptive["slo_burn_cycles"] < static["slo_burn_cycles"]
        and a_mttr < s_mttr
        and (adaptive["messages_undelivered"]
             <= static["messages_undelivered"])
    )


def run_adaptive_pair(key: str, seed: int = 7,
                      guard: Optional[GuardConfig] = None
                      ) -> Dict[str, Any]:
    """One architecture's scenario, static then adaptive, plus deltas."""
    if key not in _SCENARIOS:
        known = ", ".join(sorted(_SCENARIOS))
        raise KeyError(f"no adaptive scenario for {key!r} "
                       f"(known: {known})")
    static = _run_variant(key, seed, False, guard)
    adaptive = _run_variant(key, seed, True, guard)
    return {
        "arch": key,
        "seed": seed,
        "static": static,
        "adaptive": adaptive,
        "deltas": {
            "slo_burn_cycles": (adaptive["slo_burn_cycles"]
                                - static["slo_burn_cycles"]),
            "mttr_max": ((adaptive["mttr_max"] or 0)
                         - (static["mttr_max"] or 0)),
            "messages_undelivered": (
                adaptive["messages_undelivered"]
                - static["messages_undelivered"]),
        },
        "improved": _improved(static, adaptive),
    }


def run_adapt(experiment: str, seed: int = 7,
              ledger: bool = True) -> Dict[str, Any]:
    """The ``repro.adapt/1`` document: adaptive-vs-static pairs for
    every architecture the experiment exercises.

    Like the chaos sweep, the run persists a ``repro.run/1`` ledger
    record (opt out with ``ledger=False`` or ``REPRO_LEDGER=0``) whose
    id rides under ``run_id``.
    """
    import time as _time

    from repro.analysis.chaos import discover_arch_keys
    from repro.obs.ledger import (RunLedger, build_run_record,
                                  ledger_enabled)
    from repro.obs.session import ObservationSession

    keys = discover_arch_keys(experiment)
    session = ObservationSession(trace=False)
    t0 = _time.perf_counter()
    pairs: List[Dict[str, Any]] = []
    with session:
        for key in keys:
            pairs.append(run_adaptive_pair(key, seed=seed))
    improved = [p["arch"] for p in pairs if p["improved"]]
    regressions = [p["arch"] for p in pairs
                   if p["deltas"]["messages_undelivered"] > 0
                   or p["deltas"]["slo_burn_cycles"] > 0]
    doc: Dict[str, Any] = {
        "schema": ADAPT_SCHEMA,
        "experiment": experiment,
        "seed": seed,
        "architectures": keys,
        "pairs": pairs,
        "improved": improved,
        "regressions": regressions,
    }
    if ledger and ledger_enabled():
        record = build_run_record(
            "adapt", experiment,
            config={"architectures": keys},
            seed=seed, stats=doc,
            sims=session.sims,
            wall_seconds=_time.perf_counter() - t0)
        doc["run_id"] = RunLedger().store(record)
    return doc


# ----------------------------------------------------------------------
# validation + rendering
# ----------------------------------------------------------------------
_CONTROL = {
    "schema": frozenset({CONTROL_SCHEMA}),
    "arch": str,
    "cycle": int,
    "actions": [{"aid": str, "rule": str, "kind": str, "target": str,
                 "cycle": int,
                 "status": frozenset(FINAL_STATUSES + ("applied",))}],
    "counts": {str: int},
    "guard": dict,
}

_VARIANT = {"mode": str, "slo_burn_cycles": int,
            "mttr_max": (int, type(None)), "messages_sent": int,
            "messages_delivered": int, "messages_undelivered": int}

_ADAPT = {
    "schema": frozenset({ADAPT_SCHEMA}),
    "pairs": [{"arch": str, "static": _VARIANT,
               "adaptive": dict(_VARIANT, control=_CONTROL),
               "deltas": dict, "improved": bool}, ...],
    "improved": [str],
}


def _control_rules(doc: Dict[str, Any], where: str = ""
                   ) -> Iterator[str]:
    counts: Dict[str, int] = {}
    for a in doc["actions"]:
        counts[a["status"]] = counts.get(a["status"], 0) + 1
    if counts != doc["counts"]:
        yield (f"{where}counts {doc['counts']!r} disagree with the "
               f"actions list ({counts!r})")


def _adapt_rules(doc: Dict[str, Any]) -> Iterator[str]:
    for i, p in enumerate(doc["pairs"]):
        yield from _control_rules(p["adaptive"]["control"],
                                  f"pairs[{i}].adaptive.control: ")
        if "control" in p["static"]:
            yield (f"pairs[{i}].static carries an action log; the "
                   f"static variant must not")


def validate_control(doc: Dict[str, Any]) -> int:
    """Structural check of a ``repro.control/1`` action log (the CI
    ``adaptive-smoke`` job runs this); returns the action count.
    Raises :class:`ValueError` naming the path of any problem."""
    check(doc, _CONTROL, rules=_control_rules)
    return len(doc["actions"])


def validate_adapt(doc: Dict[str, Any]) -> int:
    """Structural check of a ``repro.adapt/1`` document; returns the
    number of pairs.  Raises :class:`ValueError` naming the path of any
    problem."""
    check(doc, _ADAPT, rules=_adapt_rules)
    return len(doc["pairs"])


def render_adapt(doc: Dict[str, Any]) -> str:
    """Human-readable table of an adaptive-vs-static document."""
    lines = [
        f"adaptive sweep: {doc['experiment']} (seed {doc['seed']})",
        "",
        f"{'arch':<11}{'burn s/a':>16}{'mttr s/a':>16}"
        f"{'undlv s/a':>11}{'actions':>9}  verdict",
    ]

    def fmt(v: Any) -> str:
        return "-" if v is None else str(v)

    for p in doc["pairs"]:
        s, a = p["static"], p["adaptive"]
        counts = a["control"]["counts"]
        applied = sum(counts.get(k, 0)
                      for k in ("applied", "confirmed", "rolled_back"))
        verdict = ("improved" if p["improved"] else
                   "REGRESSED" if p["deltas"]["slo_burn_cycles"] > 0
                   or p["deltas"]["messages_undelivered"] > 0
                   else "no change")
        lines.append(
            f"{p['arch']:<11}"
            f"{fmt(s['slo_burn_cycles']) + '/' + fmt(a['slo_burn_cycles']):>16}"
            f"{fmt(s['mttr_max']) + '/' + fmt(a['mttr_max']):>16}"
            f"{str(s['messages_undelivered']) + '/' + str(a['messages_undelivered']):>11}"
            f"{applied:>9}  {verdict}"
        )
    lines.append("")
    improved = doc["improved"]
    lines.append(
        f"verdict       : {len(improved)}/{len(doc['pairs'])} "
        f"architectures improved"
        + (f" ({', '.join(improved)})" if improved else "")
    )
    return "\n".join(lines)

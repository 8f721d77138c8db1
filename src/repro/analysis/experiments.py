"""Experiment harnesses E1-E7: one per quantitative claim of the paper.

Each function builds fresh systems, runs traffic, and returns a small
result object with the measured rows and the paper's expectation, so
benchmarks and EXPERIMENTS.md share one source of truth. See DESIGN.md
§4 for the experiment index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.arch import build_architecture
from repro.arch.conochi.arch import CoNoChi
from repro.core.metrics import (
    effective_bandwidth,
    observed_parallelism,
    probe_single_message,
)
from repro.core.scenario import minimal_scenario
from repro.fabric.area import AreaModel
from repro.fabric.device import get_device
from repro.fabric.geometry import Rect
from repro.reconfig.manager import ReconfigurationManager
from repro.reconfig.module import ModuleSpec
from repro.sim import make_rng
from repro.traffic.generators import PeriodicStream, RandomTraffic
from repro.traffic.patterns import uniform_chooser

_Harness = TypeVar("_Harness", bound=Callable[..., Any])


def builds(*keys: str) -> Callable[[_Harness], _Harness]:
    """Declare the fabric keys a harness builds, in the order it builds
    them (none for a harness that builds no simulator).  ``repro
    chaos`` and ``repro adapt`` read the declaration as the harness's
    ``fabrics`` attribute instead of running the harness to find them;
    ``tests/faults/test_chaos.py`` checks each against a run."""

    def declare(harness: _Harness) -> _Harness:
        harness.fabrics = keys  # type: ignore[attr-defined]
        return harness

    return declare


# ======================================================================
# E1 — RMBoC connection setup latency (§3.1, Table 2)
# ======================================================================
@dataclass
class E1Result:
    """Setup latency vs distance, plus the derived bound."""

    rows: List[Tuple[int, int, int]]  # (distance, measured, model 2d+6)
    min_setup: int
    upper_bound: int                  # max over distances
    model_upper_bound: int            # 2m + 4
    paper_min_setup: int = 8

    @property
    def matches_paper(self) -> bool:
        return (
            self.min_setup == self.paper_min_setup
            and all(m == f for _, m, f in self.rows)
            and self.upper_bound == self.model_upper_bound
        )


@builds("rmboc")
def e1_rmboc_setup(num_modules: int = 4, num_buses: int = 4,
                   width: int = 32) -> E1Result:
    rows: List[Tuple[int, int, int]] = []
    for dist in range(1, num_modules):
        arch = build_architecture("rmboc", num_modules=num_modules,
                                  width=width, num_buses=num_buses)
        probe = probe_single_message(arch, "m0", f"m{dist}", payload_bytes=64)
        assert probe.setup_cycles is not None
        rows.append((dist, probe.setup_cycles, 2 * dist + 6))
    measured = [m for _, m, _ in rows]
    return E1Result(
        rows=rows,
        min_setup=min(measured),
        upper_bound=max(measured),
        model_upper_bound=2 * num_modules + 4,
    )


# ======================================================================
# E2 — parallelism d_max (§4.2)
# ======================================================================
@dataclass
class E2Result:
    """Observed vs theoretical d_max per architecture."""

    rows: Dict[str, Tuple[int, int]]  # arch -> (observed, theoretical)

    @property
    def rmboc_beats_buscom(self) -> bool:
        return self.rows["rmboc"][0] > self.rows["buscom"][0]


@builds("rmboc", "buscom", "dynoc", "conochi")
def e2_parallelism(width: int = 32, payload_bytes: int = 512) -> E2Result:
    rows: Dict[str, Tuple[int, int]] = {}

    # RMBoC: three adjacent pairs x four buses = s*k = 12 single-segment
    # circuits; every module opens k channels to its right neighbour.
    arch = build_architecture("rmboc", num_modules=4, width=width,
                              num_buses=4)
    for i in range(3):
        for _ in range(4):
            arch.ports[f"m{i}"].send(f"m{i+1}", payload_bytes)
    arch.run_to_completion()
    rows["rmboc"] = (observed_parallelism(arch)[0], arch.theoretical_dmax())

    # BUS-COM: saturate everyone; at most one frame per bus -> k.
    arch = build_architecture("buscom", num_modules=4, width=width)
    for i in range(4):
        for _ in range(4):
            arch.ports[f"m{i}"].send(f"m{(i+1) % 4}", payload_bytes)
    arch.run_to_completion()
    rows["buscom"] = (observed_parallelism(arch)[0], arch.theoretical_dmax())

    # NoCs: pairwise disjoint traffic; limited by links, not by a shared
    # medium.
    for key in ("dynoc", "conochi"):
        arch = build_architecture(key, num_modules=4, width=width)
        mods = list(arch.modules)
        for _ in range(4):
            arch.ports[mods[0]].send(mods[1], payload_bytes)
            arch.ports[mods[2]].send(mods[3], payload_bytes)
            arch.ports[mods[1]].send(mods[0], payload_bytes)
            arch.ports[mods[3]].send(mods[2], payload_bytes)
        arch.run_to_completion()
        rows[key] = (observed_parallelism(arch)[0], arch.theoretical_dmax())
    return E2Result(rows=rows)


# ======================================================================
# E3 — effective bandwidth / protocol overhead (§4.2)
# ======================================================================
@dataclass
class E3Result:
    """Measured payload efficiency per architecture, plus the CoNoChi
    payload sweep."""

    rows: Dict[str, float]
    conochi_sweep: List[Tuple[int, float]]  # (payload bytes, efficiency)
    paper_claim: float = 0.90

    def close_to_claim(self, arch: str, tol: float = 0.02) -> bool:
        return abs(self.rows[arch] - self.paper_claim) <= tol


@builds("buscom", "conochi", "rmboc", "dynoc")
def e3_effective_bandwidth(width: int = 32) -> E3Result:
    rows: Dict[str, float] = {}

    # BUS-COM: full static slots (72-byte frames).
    arch = build_architecture("buscom", num_modules=4, width=width)
    for rep in range(8):
        for i in range(4):
            arch.ports[f"m{i}"].send(f"m{(i+1) % 4}", 72)
    arch.run_to_completion()
    rows["buscom"] = effective_bandwidth(arch)

    # CoNoChi: ~100-byte streaming packets (the applications it targets).
    arch = build_architecture("conochi", num_modules=4, width=width)
    for rep in range(8):
        for i in range(4):
            arch.ports[f"m{i}"].send(f"m{(i+1) % 4}", 108)
    arch.run_to_completion()
    rows["conochi"] = effective_bandwidth(arch)

    # RMBoC: large transfer over an established circuit — negligible
    # overhead (two small control packets per channel).
    arch = build_architecture("rmboc", num_modules=4, width=width)
    for i in range(4):
        arch.ports[f"m{i}"].send(f"m{(i+1) % 4}", 4096)
    arch.run_to_completion()
    rows["rmboc"] = effective_bandwidth(arch)

    # DyNoC: one header word per packet (payload size matters).
    arch = build_architecture("dynoc", num_modules=4, width=width)
    for rep in range(8):
        for i in range(4):
            arch.ports[f"m{i}"].send(f"m{(i+1) % 4}", 108)
    arch.run_to_completion()
    rows["dynoc"] = effective_bandwidth(arch)

    sweep: List[Tuple[int, float]] = []
    for payload in (16, 32, 64, 108, 256, 512, 1024):
        arch = build_architecture("conochi", num_modules=4, width=width)
        for i in range(4):
            arch.ports[f"m{i}"].send(f"m{(i+1) % 4}", payload)
        arch.run_to_completion()
        sweep.append((payload, effective_bandwidth(arch)))
    return E3Result(rows=rows, conochi_sweep=sweep)


# ======================================================================
# E4 — path-latency scaling with module size (§4.2)
# ======================================================================
@dataclass
class E4Result:
    """Latency between two fixed endpoints as an obstacle module in
    between grows; DyNoC degrades, CoNoChi stays flat, buses stay at
    one cycle per word once established."""

    dynoc_rows: List[Tuple[int, int, int]]    # (module side, hops, latency)
    conochi_rows: List[Tuple[int, int]]       # (module side, latency)
    rmboc_established_cpw: float              # cycles/word on a circuit

    @property
    def dynoc_latency_grows(self) -> bool:
        lat = [l for _, _, l in self.dynoc_rows]
        return lat[-1] > lat[0]

    @property
    def conochi_latency_flat(self) -> bool:
        lat = [l for _, l in self.conochi_rows]
        return max(lat) == min(lat)


@builds("dynoc", "conochi", "rmboc")
def e4_latency_scaling(max_side: int = 4, width: int = 32,
                       payload_bytes: int = 16) -> E4Result:
    dynoc_rows: List[Tuple[int, int, int]] = []
    for side in range(1, max_side + 1):
        # endpoints west and east of an side x side obstacle, same row
        cols, rows = side + 4, side + 2
        arch = build_architecture("dynoc", num_modules=0, width=width,
                                  mesh=(cols, rows))
        mid_y = rows // 2
        arch.attach("src", rect=Rect(0, mid_y, 1, 1))
        arch.attach("dst", rect=Rect(cols - 1, mid_y, 1, 1))
        if side == 1:
            # a 1x1 module keeps its router: place but keep network intact
            arch.attach("obstacle", rect=Rect(2, mid_y, 1, 1))
        else:
            arch.attach("obstacle", rect=Rect(2, 1, side, side))
        probe = probe_single_message(arch, "src", "dst", payload_bytes)
        hops = int(arch.sim.stats.histogram("dynoc.hops").samples[-1])
        dynoc_rows.append((side, hops, probe.total_cycles))

    conochi_rows: List[Tuple[int, int]] = []
    for side in range(1, max_side + 1):
        # CoNoChi: the switch count depends on the number of modules
        # only — a bigger module just occupies more 0-tiles.
        arch = build_architecture("conochi", num_modules=3, width=width)
        probe = probe_single_message(arch, "m0", "m2", payload_bytes)
        conochi_rows.append((side, probe.total_cycles))

    arch = build_architecture("rmboc", num_modules=4, width=width)
    probe = probe_single_message(arch, "m0", "m3", payload_bytes=512)
    cpw = probe.cycles_per_word
    return E4Result(dynoc_rows=dynoc_rows, conochi_rows=conochi_rows,
                    rmboc_established_cpw=cpw)


# ======================================================================
# E5 — area scaling (§4.1, Table 3 extended)
# ======================================================================
@dataclass
class E5Result:
    """Interconnect slices vs module count and module size."""

    by_modules: Dict[str, List[Tuple[int, int]]]   # arch -> [(m, slices)]
    dynoc_by_size: List[Tuple[int, int]]           # (side, slices)
    conochi_by_size: List[Tuple[int, int]]         # (side, slices)

    @property
    def conochi_beats_dynoc_for_large_modules(self) -> bool:
        return self.conochi_by_size[-1][1] < self.dynoc_by_size[-1][1]


@builds()
def e5_area_scaling(width: int = 32, max_modules: int = 12,
                    max_side: int = 4) -> E5Result:
    area = AreaModel()
    by_modules: Dict[str, List[Tuple[int, int]]] = {
        "rmboc": [], "buscom": [], "dynoc": [], "conochi": [],
    }
    for m in range(2, max_modules + 1):
        by_modules["rmboc"].append((m, area.rmboc_total(m, 4, width)))
        by_modules["buscom"].append((m, area.buscom_total(m, 4, width)))
        by_modules["dynoc"].append((m, area.dynoc_total(m, width)))
        by_modules["conochi"].append((m, area.conochi_total(m, width)))

    # four modules of side x side: DyNoC needs routers surrounding each
    # module (mesh grows with module size), CoNoChi still needs 4
    # switches.
    dynoc_by_size: List[Tuple[int, int]] = []
    conochi_by_size: List[Tuple[int, int]] = []
    for side in range(1, max_side + 1):
        if side == 1:
            routers = 4  # Table 3's assumption: module == PE
        else:
            # 2x2 arrangement of side x side modules with 1-router
            # corridors and border: mesh side = 2*side + 3
            mesh = 2 * side + 3
            routers = mesh * mesh - 4 * side * side
        dynoc_by_size.append((side, area.dynoc_total(routers, width)))
        conochi_by_size.append((side, area.conochi_total(4, width)))
    return E5Result(by_modules=by_modules, dynoc_by_size=dynoc_by_size,
                    conochi_by_size=conochi_by_size)


# ======================================================================
# E6 — communication during reconfiguration (§3, §4)
# ======================================================================
@dataclass
class E6Result:
    """Per-architecture swap records + traffic-continuity evidence."""

    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def survived(self, arch: str) -> bool:
        return self.rows[arch]["bystander_delivered"] > 0


@builds("rmboc", "buscom", "dynoc", "conochi")
def e6_reconfiguration(width: int = 32) -> E6Result:
    result = E6Result()
    device = get_device("XC2V6000")
    for key in ("rmboc", "buscom", "dynoc", "conochi"):
        arch = build_architecture(key, num_modules=4, width=width)
        sim = arch.sim
        mods = list(arch.modules)
        # bystander traffic between m2 and m3 throughout
        stream = PeriodicStream(
            "bystander", arch.ports[mods[2]], mods[3],
            period=40, payload_bytes=32,
        )
        sim.add(stream)
        manager = ReconfigurationManager(arch, device)
        region = Rect(0, 0, 4, device.clb_rows)
        record = manager.swap(mods[0], ModuleSpec("m0b"), region)
        sim.run_until(lambda s: record.done, max_cycles=2_000_000)
        # let bystander traffic drain
        sim.run_until(lambda s: stream.all_delivered(), max_cycles=5_000_000)
        during = [
            m.latency for m in stream.sent
            if m.delivered and record.detach_cycle
            <= m.created_cycle < record.attach_cycle
        ]
        result.rows[key] = {
            "reconfig_cycles": record.reconfig_cycles,
            "downtime_cycles": record.downtime_cycles,
            "total_cycles": record.total_cycles,
            "bystander_delivered": float(
                sum(1 for m in stream.sent if m.delivered)
            ),
            "bystander_mean_latency_during": (
                sum(during) / len(during) if during else math.nan
            ),
        }
    return result


@dataclass
class E6bResult:
    """CoNoChi-specific: switch insertion/removal under traffic."""

    added_ok: bool
    removed_ok: bool
    messages_delivered: int
    mean_latency_before: float
    mean_latency_after_add: float


@builds("conochi")
def e6b_conochi_topology_change(width: int = 32) -> E6bResult:
    """Insert a switch into a live CoNoChi network, then remove it,
    while a stream runs — nothing may stall or be lost."""
    from repro.fabric.tiles import TileType

    arch: CoNoChi = build_architecture("conochi", num_modules=4, width=width)
    sim = arch.sim
    stream = PeriodicStream("s", arch.ports["m0"], "m3",
                            period=30, payload_bytes=64, stop=3000)
    sim.add(stream)
    sim.run(600)
    before = [m.latency for m in stream.sent if m.delivered]
    # insert a switch above switch (2,1) joined by a vertical wire
    arch.add_switch((2, 3), wires=[((2, 2), TileType.VWIRE)])
    sim.run(600)
    added_ok = (2, 3) in arch.grid.switches()
    after_add = [
        m.latency for m in stream.sent
        if m.delivered and m.created_cycle >= 600
    ]
    arch.remove_switch((2, 3))
    sim.run(max(0, 3000 - sim.cycle))
    sim.run_until(lambda s: stream.all_delivered() and arch.idle(),
                  max_cycles=1_000_000)
    removed_ok = (2, 3) not in arch.grid.switches()
    return E6bResult(
        added_ok=added_ok,
        removed_ok=removed_ok,
        messages_delivered=sum(1 for m in stream.sent if m.delivered),
        mean_latency_before=sum(before) / len(before) if before else math.nan,
        mean_latency_after_add=(
            sum(after_add) / len(after_add) if after_add else math.nan
        ),
    )


# ======================================================================
# E7 — bus serialization vs NoC concurrency (§2.2)
# ======================================================================
@dataclass
class E7Result:
    """Mean latency under uniform random traffic at rising offered load."""

    rows: Dict[str, List[Tuple[float, float]]]  # arch -> [(rate, mean lat)]


@builds("rmboc", "buscom", "dynoc", "conochi")
def e7_bus_vs_noc(width: int = 32, num_modules: int = 4,
                  rates: Tuple[float, ...] = (0.002, 0.005, 0.01, 0.02, 0.04),
                  horizon: int = 4000, payload_bytes: int = 64,
                  seed: int = 5) -> E7Result:
    rows: Dict[str, List[Tuple[float, float]]] = {}
    for key in ("rmboc", "buscom", "dynoc", "conochi"):
        series: List[Tuple[float, float]] = []
        for rate in rates:
            arch = build_architecture(key, num_modules=num_modules,
                                      width=width)
            sim = arch.sim
            mods = list(arch.modules)
            gens = []
            for src in mods:
                gens.append(RandomTraffic(
                    name=f"g.{src}",
                    port=arch.ports[src],
                    chooser=uniform_chooser(src, mods,
                                            make_rng(seed, key, src, "c")),
                    rng=make_rng(seed, key, src, "r"),
                    rate=rate,
                    payload_bytes=payload_bytes,
                    stop=horizon,
                ))
            sim.add_all(gens)
            sim.run(horizon)
            sim.run_until(
                lambda s: arch.log.all_delivered() and arch.idle(),
                max_cycles=20 * horizon,
            )
            lats = arch.log.latencies()
            series.append((rate, sum(lats) / len(lats) if lats else math.nan))
        rows[key] = series
    return E7Result(rows=rows)


@dataclass
class E7bResult:
    """Mean latency at a fixed per-module rate as the module count
    grows: buses share k channels among ever more modules; the NoCs add
    a switch (and links) per module."""

    rows: Dict[str, List[Tuple[int, float]]]  # arch -> [(m, mean latency)]

    def degradation(self, arch: str) -> float:
        """Latency at the largest system relative to the smallest."""
        series = self.rows[arch]
        return series[-1][1] / series[0][1]


@builds("rmboc", "buscom", "dynoc", "conochi")
def e7b_module_scaling(width: int = 32,
                       module_counts: Tuple[int, ...] = (4, 8, 12),
                       rate: float = 0.01, horizon: int = 3000,
                       payload_bytes: int = 64, seed: int = 9) -> E7bResult:
    rows: Dict[str, List[Tuple[int, float]]] = {}
    for key in ("rmboc", "buscom", "dynoc", "conochi"):
        series: List[Tuple[int, float]] = []
        for m in module_counts:
            arch = build_architecture(key, num_modules=m, width=width)
            sim = arch.sim
            mods = list(arch.modules)
            gens = []
            for src in mods:
                gens.append(RandomTraffic(
                    name=f"g.{src}",
                    port=arch.ports[src],
                    chooser=uniform_chooser(src, mods,
                                            make_rng(seed, key, src, "c")),
                    rng=make_rng(seed, key, src, "r"),
                    rate=rate,
                    payload_bytes=payload_bytes,
                    stop=horizon,
                ))
            sim.add_all(gens)
            sim.run(horizon)
            sim.run_until(
                lambda s: arch.log.all_delivered() and arch.idle(),
                max_cycles=50 * horizon,
            )
            lats = arch.log.latencies()
            series.append((m, sum(lats) / len(lats) if lats else math.nan))
        rows[key] = series
    return E7bResult(rows=rows)


# ======================================================================
# E8 — energy per delivered byte (extension of the §2.2 power argument)
# ======================================================================
@dataclass
class E8Result:
    """Energy per payload byte under identical ring traffic.

    Not a paper table: the survey only argues qualitatively that
    unsegmented buses burn power in their long lines while NoCs use
    local wires. The coefficients are synthetic but shared, so the
    *ratios* carry the claim.
    """

    rows: Dict[str, float]  # arch -> pJ per delivered payload byte

    @property
    def buscom_worst(self) -> bool:
        return self.rows["buscom"] == max(self.rows.values())

    @property
    def segmentation_helps(self) -> bool:
        """RMBoC's segmented lines beat the unsegmented broadcast bus."""
        return self.rows["rmboc"] < self.rows["buscom"]


@builds("rmboc", "buscom", "dynoc", "conochi")
def e8_energy(width: int = 32, payload_bytes: int = 64,
              rounds: int = 8) -> E8Result:
    from repro.analysis.energy import measure_energy

    rows: Dict[str, float] = {}
    for key in ("rmboc", "buscom", "dynoc", "conochi"):
        arch = build_architecture(key, num_modules=4, width=width)
        for _ in range(rounds):
            for i in range(4):
                arch.ports[f"m{i}"].send(f"m{(i + 1) % 4}", payload_bytes)
        arch.run_to_completion()
        rows[key] = measure_energy(arch).pj_per_payload_byte
    return E8Result(rows=rows)


# ======================================================================
# E9 — latency decomposition under load (extension)
# ======================================================================
@dataclass
class E9Result:
    """Queueing vs transport latency split per architecture under
    identical moderate uniform load — where each architecture's latency
    actually comes from (the §4.2 discussion, decomposed)."""

    rows: Dict[str, Tuple[float, float]]  # arch -> (queueing, transport)

    def queueing_fraction(self, arch: str) -> float:
        q, t = self.rows[arch]
        return q / (q + t)


@builds("rmboc", "buscom", "dynoc", "conochi")
def e9_latency_decomposition(width: int = 32, rate: float = 0.01,
                             horizon: int = 4000, payload_bytes: int = 64,
                             seed: int = 21) -> E9Result:
    from repro.core.metrics import latency_decomposition

    rows: Dict[str, Tuple[float, float]] = {}
    for key in ("rmboc", "buscom", "dynoc", "conochi"):
        arch = build_architecture(key, num_modules=4, width=width)
        sim = arch.sim
        mods = list(arch.modules)
        for src in mods:
            sim.add(RandomTraffic(
                name=f"g.{src}",
                port=arch.ports[src],
                chooser=uniform_chooser(src, mods,
                                        make_rng(seed, key, src, "c")),
                rng=make_rng(seed, key, src, "r"),
                rate=rate,
                payload_bytes=payload_bytes,
                stop=horizon,
            ))
        sim.run(horizon)
        sim.run_until(lambda s: arch.log.all_delivered() and arch.idle(),
                      max_cycles=50 * horizon)
        d = latency_decomposition(arch)
        rows[key] = (d.queueing_mean, d.transport_mean)
    return E9Result(rows=rows)


# ======================================================================
# E10 — the reconfigurability tax (extension over §2.2 baselines)
# ======================================================================
@dataclass
class E10Result:
    """What the DPR architectures pay relative to static §2.2 baselines.

    ``area_tax``/``clock_tax``/``latency_tax`` are the DPR architecture's
    figure divided by its static counterpart's (shared bus for the bus
    systems, static mesh for the NoCs) under the identical minimal
    scenario. In exchange the static designs *cannot* exchange modules
    at all (asserted by ``static_cannot_reconfigure``).
    """

    rows: Dict[str, Dict[str, float]]
    static_cannot_reconfigure: bool

    def tax(self, arch: str, metric: str) -> float:
        return self.rows[arch][metric]


@builds("sharedbus", "staticmesh", "rmboc", "buscom", "dynoc",
        "conochi")
def e10_reconfigurability_tax(width: int = 32,
                              payload_bytes: int = 64) -> E10Result:
    from repro.core.scenario import minimal_scenario

    def measure(key: str) -> Tuple[float, float, float]:
        arch = build_architecture(key, num_modules=4, width=width)
        result = minimal_scenario(arch, payload_bytes=payload_bytes,
                                  pattern="ring")
        return (float(arch.area_slices()), arch.fmax_hz(),
                result.mean_latency)

    base = {
        "sharedbus": measure("sharedbus"),
        "staticmesh": measure("staticmesh"),
    }
    counterpart = {"rmboc": "sharedbus", "buscom": "sharedbus",
                   "dynoc": "staticmesh", "conochi": "staticmesh"}
    rows: Dict[str, Dict[str, float]] = {}
    for key, ref in counterpart.items():
        area, fmax, lat = measure(key)
        ref_area, ref_fmax, ref_lat = base[ref]
        rows[key] = {
            "baseline": ref,  # type: ignore[dict-item]
            "area_tax": area / ref_area,
            "clock_tax": ref_fmax / fmax,  # >1: DPR clocks slower
            "latency_tax": lat / ref_lat,
        }

    # the baselines genuinely cannot reconfigure
    static_blocked = True
    for key in ("sharedbus", "staticmesh"):
        arch = build_architecture(key, num_modules=4, width=width)
        try:
            arch.detach("m0")
            static_blocked = False
        except RuntimeError:
            pass
    return E10Result(rows=rows, static_cannot_reconfigure=static_blocked)


# ======================================================================
# E11 — real-time capability study (extension)
# ======================================================================
@dataclass
class E11Result:
    """Deadline-met ratio and worst latency of the automotive control
    workload on every interconnect (incl. static baselines), with
    bursty interference — BUS-COM's design goal, tested against the
    field."""

    rows: Dict[str, Dict[str, float]]

    def met_ratio(self, arch: str) -> float:
        return self.rows[arch]["met_ratio"]


@builds("rmboc", "buscom", "dynoc", "conochi", "sharedbus",
        "staticmesh")
def e11_realtime_study(width: int = 32, horizon: int = 12_000,
                       deadline: Optional[int] = None,
                       seed: int = 29) -> E11Result:
    from repro.arch.buscom.config import BusComConfig

    from repro.traffic.apps import automotive_workload

    if deadline is None:
        # the deadline a correctly dimensioned TDMA design guarantees:
        # one worst-case communication round plus a slot
        cfg = BusComConfig()
        deadline = cfg.max_round_cycles + cfg.static_slot_cycles
    rows: Dict[str, Dict[str, float]] = {}
    archs = ("rmboc", "buscom", "dynoc", "conochi", "sharedbus",
             "staticmesh")
    for key in archs:
        arch = build_architecture(key, num_modules=4, width=width)
        gens = automotive_workload(
            arch, deadline=deadline, infotainment_rate=0.04,
            infotainment_bytes=240, seed=seed, stop=horizon,
        )
        arch.sim.run(horizon)
        arch.sim.run_until(
            lambda s: arch.log.all_delivered() and arch.idle(),
            max_cycles=100 * horizon,
        )
        control = [g for g in gens if g.name.startswith("auto.ctrl")]
        met = [g.deadline_met_ratio() for g in control]
        worst = max(max(g.latencies()) for g in control)
        rows[key] = {
            "met_ratio": sum(met) / len(met),
            "worst_latency": float(worst),
        }
    return E11Result(rows=rows)


# ======================================================================
# E12 — sustainable reconfiguration frequency (extension)
# ======================================================================
@dataclass
class E12Result:
    """Module-swap cadence vs bystander traffic quality.

    For each swap period, one slot is repeatedly exchanged while the
    other modules stream; reported per architecture and period:
    completed swaps, slot availability (fraction of time a module
    occupied the churned slot), and the bystander stream's mean latency.
    The paper treats reconfiguration as rare; E12 asks how *frequent*
    it may become before the interconnect's service degrades.
    """

    rows: Dict[str, Dict[int, Dict[str, float]]]

    def availability(self, arch: str, period: int) -> float:
        return self.rows[arch][period]["availability"]


@builds("rmboc", "buscom", "dynoc", "conochi")
def e12_reconfiguration_frequency(
    periods: Tuple[int, ...] = (300_000, 450_000),
    horizon_swaps: int = 3,
    width: int = 32,
) -> E12Result:
    from repro.fabric.device import get_device
    from repro.reconfig.manager import ReconfigurationManager
    from repro.reconfig.module import ModuleSpec

    device = get_device("XC2V6000")
    region = Rect(0, 0, 4, device.clb_rows)
    rows: Dict[str, Dict[int, Dict[str, float]]] = {}
    for key in ("rmboc", "buscom", "dynoc", "conochi"):
        rows[key] = {}
        for period in periods:
            arch = build_architecture(key, num_modules=4, width=width)
            sim = arch.sim
            stream = PeriodicStream("bystander", arch.ports["m2"], "m3",
                                    period=50, payload_bytes=32)
            sim.add(stream)
            manager = ReconfigurationManager(arch, device)
            records = []
            churn = {"occupant": "m0", "gen": 0}

            def swap_next(sim_):
                spec = ModuleSpec(f"gen{churn['gen']}")
                churn["gen"] += 1
                records.append(
                    manager.swap(churn["occupant"], spec, region)
                )
                churn["occupant"] = spec.name

            for n in range(horizon_swaps):
                sim.at(n * period, swap_next)
            horizon = horizon_swaps * period
            stream.stop = horizon
            sim.run(max(0, horizon - sim.cycle))
            sim.run_until(lambda s: all(r.done for r in records),
                          max_cycles=10 * horizon)
            sim.run_until(lambda s: stream.all_delivered(),
                          max_cycles=horizon)
            downtime = sum(r.downtime_cycles for r in records)
            lats = stream.latencies()
            rows[key][period] = {
                "swaps": float(len([r for r in records if r.done])),
                "availability": 1.0 - downtime / sim.cycle,
                "bystander_mean_latency": sum(lats) / len(lats),
            }
    return E12Result(rows=rows)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
#: every experiment harness by its paper label — the single source of
#: truth used by the CLI and by repro.analysis.parallel.  Each entry is
#: a top-level, argument-light callable returning a picklable result,
#: which is what lets the parallel runner ship them across processes.
EXPERIMENTS = {
    "e1": e1_rmboc_setup,
    "e2": e2_parallelism,
    "e3": e3_effective_bandwidth,
    "e4": e4_latency_scaling,
    "e5": e5_area_scaling,
    "e6": e6_reconfiguration,
    "e6b": e6b_conochi_topology_change,
    "e7": e7_bus_vs_noc,
    "e7b": e7b_module_scaling,
    "e8": e8_energy,
    "e9": e9_latency_decomposition,
    "e10": e10_reconfigurability_tax,
    "e11": e11_realtime_study,
    "e12": e12_reconfiguration_frequency,
}

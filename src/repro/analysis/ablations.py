"""Ablation studies over the design choices the survey discusses.

Each sweep isolates one architectural knob and measures its effect with
everything else held fixed:

* **A1** RMBoC bus count k — the resource behind d_max = s·k and behind
  blocked-request CANCELs;
* **A2** BUS-COM static/dynamic split — guaranteed bandwidth vs
  on-demand arbitration (the FlexRay trade-off);
* **A3** CoNoChi table-update latency — the cost knob of its
  reconfiguration support;
* **A4** DyNoC router pipeline depth — the per-hop latency the survey
  could not cite;
* **A5** BUS-COM adaptive arbitration on/off — the source paper's
  application-dependent adaptivity, quantified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.experiments import builds
from repro.arch import build_architecture
from repro.arch.buscom import AdaptiveArbiter, build_buscom
from repro.sim import make_rng
from repro.traffic.generators import PeriodicStream, RandomTraffic
from repro.traffic.patterns import uniform_chooser


@dataclass
class AblationSeries:
    """One knob's sweep: (knob value, metric) points, lower = better."""

    name: str
    metric: str
    points: List[Tuple[float, float]]

    def monotone_decreasing(self) -> bool:
        vals = [v for _, v in self.points]
        return all(a >= b for a, b in zip(vals, vals[1:]))

    def best(self) -> Tuple[float, float]:
        return min(self.points, key=lambda p: p[1])


# ----------------------------------------------------------------------
@builds("rmboc")
def a1_rmboc_bus_count(ks: Tuple[int, ...] = (1, 2, 3, 4),
                       payload_bytes: int = 512) -> Dict[str, AblationSeries]:
    """More buses -> fewer CANCELs and faster completion under a
    contended all-pairs burst."""
    completion: List[Tuple[float, float]] = []
    cancels: List[Tuple[float, float]] = []
    for k in ks:
        arch = build_architecture("rmboc", num_buses=k)
        for i in range(4):
            for j in range(4):
                if i != j:
                    arch.ports[f"m{i}"].send(f"m{j}", payload_bytes)
        end = arch.run_to_completion(max_cycles=500_000)
        completion.append((k, float(end)))
        cancels.append(
            (k, float(arch.sim.stats.counter("rmboc.cancel.blocked").value))
        )
    return {
        "completion": AblationSeries("a1", "completion cycles", completion),
        "cancels": AblationSeries("a1", "blocked-request cancels", cancels),
    }


@builds("buscom")
def a2_buscom_static_split(
    splits: Tuple[int, ...] = (0, 8, 16, 24, 32),
    horizon: int = 8000,
    seed: int = 3,
) -> Dict[str, AblationSeries]:
    """The FlexRay trade-off: static slots *guarantee* low-priority
    periodic traffic a bounded latency even while higher-priority
    modules flood the dynamic segment; an all-dynamic schedule starves
    the lowest-priority sender, an all-static one slows the bursts.

    The metric pair is the worst latency of the lowest-priority
    module's control stream vs the mean burst latency.
    """
    periodic_worst: List[Tuple[float, float]] = []
    bursty_mean: List[Tuple[float, float]] = []
    for static in splits:
        arch = build_buscom(static_slots=static)
        sim = arch.sim
        # m3 has the lowest dynamic-segment priority: its control
        # stream only survives contention if static slots back it.
        victim = PeriodicStream("ctl3", arch.ports["m3"], "m0",
                                period=64, payload_bytes=8, stop=horizon)
        sim.add(victim)
        bursts = []
        for src in ("m0", "m1"):
            bursts.append(RandomTraffic(
                f"burst.{src}", arch.ports[src],
                uniform_chooser(src, list(arch.modules),
                                make_rng(seed, src, "c")),
                make_rng(seed, src, "r"), rate=0.08,
                payload_bytes=256, stop=horizon))
        sim.add_all(bursts)
        sim.run(horizon)
        sim.run_until(lambda s: arch.log.all_delivered() and arch.idle(),
                      max_cycles=100 * horizon)
        periodic_worst.append((static, float(max(victim.latencies()))))
        blats = [l for b in bursts for l in b.latencies()]
        bursty_mean.append((static, sum(blats) / len(blats)))
    return {
        "periodic_worst": AblationSeries("a2", "worst victim-control latency",
                                         periodic_worst),
        "bursty_mean": AblationSeries("a2", "mean burst latency",
                                      bursty_mean),
    }


@builds("conochi")
def a3_conochi_table_update_latency(
    latencies: Tuple[int, ...] = (1, 16, 64, 256),
    horizon: int = 4000,
) -> AblationSeries:
    """Slower control-unit table updates delay when a migrated module's
    shorter route takes effect (traffic keeps flowing either way)."""
    points: List[Tuple[float, float]] = []
    for tul in latencies:
        arch = build_architecture("conochi", table_update_latency=tul)
        sim = arch.sim
        stream = PeriodicStream("s", arch.ports["m0"], "m3",
                                period=40, payload_bytes=64, stop=horizon)
        sim.add(stream)
        sim.run(500)
        arch.migrate_module("m3", (2, 1))  # two hops closer to m0
        sim.run(horizon - 500)
        sim.run_until(lambda s: stream.all_delivered() and arch.idle(),
                      max_cycles=50 * horizon)
        post = [m.latency for m in stream.sent
                if m.delivered and m.created_cycle >= 500]
        points.append((tul, sum(post) / len(post)))
    return AblationSeries("a3", "mean latency after migration", points)


@builds("dynoc")
def a4_dynoc_router_latency(
    depths: Tuple[int, ...] = (1, 2, 3, 5, 8),
    payload_bytes: int = 16,
) -> AblationSeries:
    """Per-hop pipeline depth translates linearly into path latency —
    quantifying the figure the survey could not cite for DyNoC."""
    points: List[Tuple[float, float]] = []
    for depth in depths:
        arch = build_architecture("dynoc", num_modules=4, mesh=(4, 1),
                                  router_latency=depth)
        msg = arch.ports["m0"].send("m3", payload_bytes)
        arch.run_to_completion()
        points.append((depth, float(msg.latency)))
    return AblationSeries("a4", "m0->m3 latency (3 hops)", points)


@builds("buscom")
def a5_buscom_adaptivity(horizon: int = 12_000) -> Dict[str, float]:
    """Hot-stream latency with and without the adaptive arbiter."""
    def run(adaptive: bool) -> float:
        arch = build_buscom()
        sim = arch.sim
        if adaptive:
            sim.add(AdaptiveArbiter("ctl", arch, epoch_cycles=1024))
        sim.add(PeriodicStream("hot", arch.ports["m0"], "m1",
                               period=25, payload_bytes=72, stop=horizon))
        sim.run(horizon)
        sim.run_until(lambda s: arch.log.all_delivered() and arch.idle(),
                      max_cycles=40 * horizon)
        lats = [m.latency for m in arch.log.delivered()
                if m.created_cycle > 4096]
        return sum(lats) / len(lats)

    return {"static": run(False), "adaptive": run(True)}


@builds("dynoc")
def a6_dynoc_switching_mode(
    payload_bytes: Tuple[int, ...] = (4, 64, 256),
) -> Dict[str, AblationSeries]:
    """Virtual cut-through vs store-and-forward on a 3-hop path: SAF
    pays the serialization per hop, VCT only once — the reason every
    surveyed NoC cut through."""
    out: Dict[str, AblationSeries] = {}
    for mode in ("vct", "saf"):
        points: List[Tuple[float, float]] = []
        for payload in payload_bytes:
            arch = build_architecture("dynoc", num_modules=4,
                                      mesh=(4, 1), switching=mode)
            msg = arch.ports["m0"].send("m3", payload)
            arch.run_to_completion()
            points.append((payload, float(msg.latency)))
        out[mode] = AblationSeries("a6", f"{mode} 3-hop latency", points)
    return out


@builds("rmboc")
def a7_rmboc_fairness(
    backoffs: Tuple[int, ...] = (2, 8, 32, 128),
    horizon: int = 4_000,
) -> Dict[str, AblationSeries]:
    """Retry backoff under single-bus saturation: what does waiting buy?

    Four crossing pairs contend for the middle segment with periodic
    512-byte transfers. Measured outcome: fairness at the horizon is
    *structural* (who sits nearer the hot segment), essentially
    independent of the backoff, while mean latency grows monotonically
    with it — so RMBoC systems should keep the retry backoff small and
    address fairness at the application level, exactly the discipline
    the paper's protocol note assumes.
    """
    from repro.core.metrics import jain_fairness
    from repro.traffic.generators import PeriodicStream

    fairness: List[Tuple[float, float]] = []
    mean_latency: List[Tuple[float, float]] = []
    pairs = [("m0", "m2"), ("m1", "m3"), ("m2", "m0"), ("m3", "m1")]
    for backoff in backoffs:
        arch = build_architecture("rmboc", num_buses=1,
                                  retry_backoff=backoff)
        sim = arch.sim
        sim.add_all([
            PeriodicStream(f"s{i}", arch.ports[src], dst, period=300,
                           payload_bytes=512, stop=horizon)
            for i, (src, dst) in enumerate(pairs)
        ])
        sim.run(horizon)
        arch.run_to_completion(max_cycles=200 * horizon)
        per_pair = [
            sum(m.payload_bytes for m in arch.log.delivered()
                if m.src == src and m.dst == dst
                and m.delivered_cycle <= horizon)
            for src, dst in pairs
        ]
        lats = arch.log.latencies()
        fairness.append((backoff, jain_fairness(per_pair)))
        mean_latency.append((backoff, sum(lats) / len(lats)))
    return {
        "fairness": AblationSeries("a7", "Jain index @ horizon", fairness),
        "mean_latency": AblationSeries("a7", "mean latency", mean_latency),
    }

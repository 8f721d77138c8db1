"""Seed fleets: one scenario run over many seeds in one process.

Monte-Carlo confidence runs pump the *same* scenario through many
seeds.  :func:`run_seed_fleet` runs them seed-major in this process
(seed *i* runs to completion before seed *i+1* starts) and ledgers the
per-seed and fleet-level records that ``repro sweep --seeds``,
``repro diff`` and ``repro regress`` read.  It is a plain loop: no
batching across seeds.

Each seed is an independent, fully deterministic simulation — results
depend only on ``(arch, seed, workload)``, never on how the fleet is
grouped, so ``run_seed_fleet(arch, seeds)`` equals the concatenation of
single-seed fleets (asserted by ``tests/analysis/test_batch.py``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.arch import build_architecture

#: default per-seed workload: bursts of randomly-paired messages with a
#: drain gap between bursts
DEFAULT_BURSTS = 6
DEFAULT_BURST_SIZE = 40
DEFAULT_BURST_GAP = 1_500
DEFAULT_PAYLOADS = (64, 256, 1024)
DEFAULT_CYCLES = 12_000

#: fleets up to this many seeds also ledger one ``repro.run/1`` record
#: per seed (with full telemetry/journey sections); larger fleets keep
#: only the fleet-level summary record — per-seed instrumentation on a
#: thousand-seed Monte-Carlo run would swamp the ledger
PER_SEED_LEDGER_MAX = 32


@dataclass
class SeedResult:
    """Measurements of one seed's run."""

    seed: int
    sent: int
    delivered: int
    mean_latency: float
    max_latency: int

    def key(self) -> Tuple[int, int, int, float, int]:
        return (self.seed, self.sent, self.delivered,
                self.mean_latency, self.max_latency)


@dataclass
class FleetResult:
    """A whole fleet's per-seed results plus wall-clock accounting."""

    arch: str
    results: List[SeedResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: ledger id of the fleet-level ``repro.run/1`` record (None when
    #: the ledger is disabled or the fleet was run unledgered)
    run_id: Optional[str] = None
    #: ledger ids of the per-seed records, in seed order (empty for
    #: fleets larger than :data:`PER_SEED_LEDGER_MAX`)
    seed_run_ids: List[str] = field(default_factory=list)

    @property
    def seeds(self) -> List[int]:
        return [r.seed for r in self.results]

    @property
    def delivered_total(self) -> int:
        return sum(r.delivered for r in self.results)

    def summary(self) -> Dict[str, Any]:
        n = len(self.results)
        return {
            "arch": self.arch,
            "seeds": n,
            "delivered_total": self.delivered_total,
            "mean_latency": (
                sum(r.mean_latency * r.delivered for r in self.results)
                / max(1, self.delivered_total)
            ),
            "wall_seconds": self.wall_seconds,
            "seeds_per_second": n / self.wall_seconds
            if self.wall_seconds else float("inf"),
        }


def run_seed(
    arch_key: str,
    seed: int,
    num_modules: int = 4,
    cycles: int = DEFAULT_CYCLES,
    bursts: int = DEFAULT_BURSTS,
    burst_size: int = DEFAULT_BURST_SIZE,
    burst_gap: int = DEFAULT_BURST_GAP,
    payloads: Sequence[int] = DEFAULT_PAYLOADS,
    **build_kwargs: Any,
) -> SeedResult:
    """One seed of the canonical fleet workload.

    The workload injects ``bursts`` bursts of ``burst_size`` messages
    between random module pairs (seeded), separated by ``burst_gap``
    drain cycles, then runs for ``cycles`` cycles.  Deterministic in
    ``(arch_key, seed, config)``.
    """
    arch = build_architecture(arch_key, num_modules=num_modules,
                              **build_kwargs)
    sim = arch.sim
    ports = arch.ports
    mods = list(ports)
    rng = random.Random(seed)
    payloads = list(payloads)
    for b in range(bursts):
        base = 1 + b * burst_gap
        for _ in range(burst_size):
            at = base + rng.randrange(0, 40)
            src, dst = rng.sample(mods, 2)
            pb = rng.choice(payloads)
            sim.at(at, lambda _s, s=src, d=dst, p=pb: ports[s].send(d, p))
    sim.run(cycles)
    delivered = arch.log.delivered()
    latencies = [m.latency for m in delivered]
    return SeedResult(
        seed=seed,
        sent=arch.log.total,
        delivered=len(delivered),
        mean_latency=(sum(latencies) / len(latencies)) if latencies else 0.0,
        max_latency=max(latencies) if latencies else 0,
    )


def _seed_spread(results: Sequence[SeedResult]) -> Dict[str, Any]:
    """Across-seed dispersion per metric — the noise floor
    ``repro diff`` uses when comparing runs of this configuration."""
    metrics = {
        "sent": [float(r.sent) for r in results],
        "delivered": [float(r.delivered) for r in results],
        "mean_latency": [r.mean_latency for r in results],
        "max_latency": [float(r.max_latency) for r in results],
    }
    out: Dict[str, Any] = {}
    for name, values in metrics.items():
        n = len(values)
        mean = sum(values) / n if n else 0.0
        var = (sum((v - mean) ** 2 for v in values) / n) if n else 0.0
        out[name] = {
            "count": n,
            "mean": mean,
            "std": var ** 0.5,
            "min": min(values) if values else 0.0,
            "max": max(values) if values else 0.0,
        }
    return out


def run_seed_fleet(
    arch_key: str,
    seeds: Sequence[int],
    ledger: bool = True,
    **workload: Any,
) -> FleetResult:
    """The fleet: every seed simulated in this process, seed-major
    (seed *i* runs to completion before seed *i+1* starts).

    Ledgering (opt out with ``ledger=False`` or ``REPRO_LEDGER=0``):
    fleets up to :data:`PER_SEED_LEDGER_MAX` seeds persist one fully
    instrumented ``repro.run/1`` record per seed, and every fleet
    persists a fleet-level summary record aggregating the per-seed
    stats with their across-seed spread (``seed_stats``) and the
    per-seed run ids (``seed_run_ids``) — see
    :attr:`FleetResult.run_id`.  An empty ``seeds`` raises
    ``ValueError`` before anything is ledgered.
    """
    from repro.obs.ledger import (RunLedger, build_run_record,
                                  ledger_enabled, ledgered_call)

    seeds = list(seeds)
    if not seeds:
        raise ValueError(f"{arch_key}: a seed fleet needs at least one seed")
    ledgered = ledger and ledger_enabled()
    per_seed = ledgered and len(seeds) <= PER_SEED_LEDGER_MAX
    fleet = FleetResult(arch=arch_key)
    t0 = time.perf_counter()
    for seed in seeds:
        if per_seed:
            result, rid = ledgered_call(
                lambda s=seed: run_seed(arch_key, s, **workload),
                kind="seed", name=arch_key, config=dict(workload),
                seed=seed)
            fleet.seed_run_ids.append(rid)
        else:
            result = run_seed(arch_key, seed, **workload)
        fleet.results.append(result)
    fleet.wall_seconds = time.perf_counter() - t0
    if ledgered:
        record = build_run_record(
            "fleet", arch_key,
            config={**workload, "seeds": seeds},
            seed=seeds[0] if len(seeds) == 1 else None,
            stats={
                "arch": arch_key,
                "seeds": len(seeds),
                "delivered_total": fleet.delivered_total,
                "mean_latency": fleet.summary()["mean_latency"],
                "per_seed": [{
                    "seed": r.seed,
                    "sent": r.sent,
                    "delivered": r.delivered,
                    "mean_latency": r.mean_latency,
                    "max_latency": r.max_latency,
                } for r in fleet.results],
            },
            seed_stats=_seed_spread(fleet.results),
            seed_run_ids=fleet.seed_run_ids or None,
            wall_seconds=fleet.wall_seconds)
        fleet.run_id = RunLedger().store(record)
    return fleet


def render_fleet(fleet: FleetResult) -> str:
    """One-paragraph human summary of a fleet run."""
    s = fleet.summary()
    return (
        f"{s['arch']}: {s['seeds']} seeds — {s['delivered_total']} "
        f"delivered, mean latency {s['mean_latency']:.1f} cycles, "
        f"{s['wall_seconds']:.2f}s ({s['seeds_per_second']:.1f} seeds/s)"
    )

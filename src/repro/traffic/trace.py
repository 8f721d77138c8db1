"""Trace capture and cross-architecture replay.

A *trace* is the architecture-neutral record of a workload: (cycle,
src, dst, payload) tuples. Capturing one from a finished run and
replaying it on a different interconnect is the cleanest
apples-to-apples comparison the taxonomy allows — identical offered
traffic, different fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.arch.base import CommArchitecture, MessageLog
from repro.traffic.generators import TraceReplay

TraceTuple = Tuple[int, str, str, int]  # (cycle, src, dst, payload_bytes)


def capture_trace(log: MessageLog) -> List[TraceTuple]:
    """Extract the injected workload from a message log (sorted)."""
    return sorted(
        (m.created_cycle, m.src, m.dst, m.payload_bytes)
        for m in log.messages
    )


def replay_trace(arch: CommArchitecture, trace: Sequence[TraceTuple],
                 max_cycles: int = 5_000_000) -> "ReplayResult":
    """Replay a captured trace on (another) architecture and run to
    completion. Source/destination module names must exist on ``arch``."""
    modules = set(arch.modules)
    by_src: Dict[str, List[Tuple[int, str, int]]] = {}
    for cycle, src, dst, nbytes in trace:
        if src not in modules or dst not in modules:
            raise KeyError(
                f"trace references module {src!r}->{dst!r} not present "
                f"on {arch.KEY}"
            )
        by_src.setdefault(src, []).append((cycle, dst, nbytes))
    replayers = [
        TraceReplay(f"replay.{src}", arch.ports[src], entries)
        for src, entries in sorted(by_src.items())
    ]
    arch.sim.add_all(replayers)
    horizon = max((c for c, *_ in trace), default=0) + 1
    arch.sim.run(max(0, horizon - arch.sim.cycle))
    arch.sim.run_until(
        lambda s: arch.log.all_delivered() and arch.idle(),
        max_cycles=max_cycles,
    )
    lats = arch.log.latencies()
    return ReplayResult(
        arch_key=arch.KEY,
        messages=arch.log.total,
        mean_latency=sum(lats) / len(lats) if lats else float("nan"),
        max_latency=max(lats) if lats else 0,
        completion_cycle=arch.sim.cycle,
    )


@dataclass(frozen=True)
class ReplayResult:
    arch_key: str
    messages: int
    mean_latency: float
    max_latency: int
    completion_cycle: int


def compare_on_trace(trace: Sequence[TraceTuple],
                     arch_names: Sequence[str] = ("rmboc", "buscom",
                                                  "dynoc", "conochi"),
                     num_modules: int = 4,
                     width: int = 32) -> Dict[str, ReplayResult]:
    """Replay one trace on several fresh architectures."""
    from repro.arch import build_architecture

    return {
        name: replay_trace(
            build_architecture(name, num_modules=num_modules, width=width),
            trace,
        )
        for name in arch_names
    }

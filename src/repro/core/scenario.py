"""The paper's minimal comparison scenario.

§1: "A minimal communication system for connecting four hardware
modules is assumed, so that a better comparison of the diverse data
given in the papers on the different architectures could be achieved."

:func:`minimal_scenario` drives any architecture with a canonical
traffic pattern over its attached modules, runs to completion, and
returns the normalized measurements Tables 2 and the §4.2 discussion
are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.arch.base import CommArchitecture, Message


def pattern_pairs(modules: Sequence[str], pattern: str) -> List[Tuple[str, str]]:
    """Canonical (src, dst) pairs for a named traffic pattern."""
    n = len(modules)
    if n < 2:
        raise ValueError("need at least two modules")
    if pattern == "all-pairs":
        return [(a, b) for a in modules for b in modules if a != b]
    if pattern == "ring":
        return [(modules[i], modules[(i + 1) % n]) for i in range(n)]
    if pattern == "neighbors":
        return [(modules[i], modules[i + 1]) for i in range(n - 1)]
    if pattern == "pairs":
        # disjoint pairs: (0,1), (2,3), ...
        return [
            (modules[i], modules[i + 1]) for i in range(0, n - 1, 2)
        ]
    raise ValueError(f"unknown pattern {pattern!r}")


@dataclass
class MinimalScenarioResult:
    """Normalized measurements from one minimal-scenario run."""

    arch_key: str
    pattern: str
    payload_bytes: int
    messages: int
    total_cycles: int
    latencies: List[int] = field(default_factory=list)
    pair_latency: Dict[Tuple[str, str], float] = field(default_factory=dict)
    observed_dmax: int = 0
    delivered_payload_bytes: int = 0

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else math.nan

    @property
    def min_latency(self) -> int:
        return min(self.latencies)

    @property
    def max_latency(self) -> int:
        return max(self.latencies)


def minimal_scenario(
    arch: CommArchitecture,
    payload_bytes: int = 64,
    pattern: str = "ring",
    repeats: int = 1,
    gap_cycles: int = 0,
    max_cycles: int = 1_000_000,
) -> MinimalScenarioResult:
    """Drive ``arch`` with ``repeats`` rounds of a canonical pattern and
    run to completion.

    ``gap_cycles`` inserts idle time between rounds (0 = inject every
    round as soon as the previous round was injected — rounds then
    overlap in the network, exercising contention).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    modules = list(arch.modules)
    pairs = pattern_pairs(modules, pattern)
    sim = arch.sim
    start_cycle = sim.cycle
    messages: List[Message] = []

    def inject_round(r: int) -> None:
        def do(_sim) -> None:
            for src, dst in pairs:
                messages.append(arch.ports[src].send(dst, payload_bytes))

        sim.at(start_cycle + r * (1 + gap_cycles), do)

    for r in range(repeats):
        inject_round(r)

    total = repeats * len(pairs)
    delivered = 0  # every message before this index is delivered

    def done(_sim) -> bool:
        # resumes at the first message outstanding at the last call:
        # the list is append-only and delivery is final
        nonlocal delivered
        if len(messages) != total:
            return False
        while delivered < total and messages[delivered].delivered:
            delivered += 1
        return delivered == total and arch.idle()

    sim.run_until(done, max_cycles=max_cycles)

    result = MinimalScenarioResult(
        arch_key=arch.KEY,
        pattern=pattern,
        payload_bytes=payload_bytes,
        messages=len(messages),
        total_cycles=sim.cycle - start_cycle,
        latencies=[m.latency for m in messages],
        observed_dmax=arch.observed_dmax,
        delivered_payload_bytes=sum(m.payload_bytes for m in messages),
    )
    by_pair: Dict[Tuple[str, str], List[int]] = {}
    for m in messages:
        by_pair.setdefault((m.src, m.dst), []).append(m.latency)
    result.pair_latency = {
        pair: sum(v) / len(v) for pair, v in by_pair.items()
    }
    return result

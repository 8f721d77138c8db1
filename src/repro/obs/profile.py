"""Opt-in wall-clock profiler for the simulation kernel.

With a :class:`Profiler` attached as ``sim.profiler`` (``repro
profile`` and ``repro trace --profile`` attach one through
:class:`~repro.obs.session.ObservationSession`), the kernel times every
component tick and every scheduled-event callback (bucket
``kernel.events``) with ``perf_counter`` and attributes the host time
by name.  With none — the default — the kernel pays a single ``is
None`` test per step, so simulation results and benchmarks are
unaffected.

Wall-time numbers are host- and load-dependent: they are export-only
(see :mod:`repro.obs.prom` / :mod:`repro.obs.perfetto`) and are never
part of ``StatsRegistry.snapshot()``, which is the fast-path
golden-equivalence comparator.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class Profiler:
    """Accumulates wall-clock seconds and call counts by bucket name."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, name: str, dt: float) -> None:
        """Attribute ``dt`` seconds to ``name`` (called by the kernel)."""
        self.seconds[name] = self.seconds.get(name, 0.0) + dt
        self.calls[name] = self.calls.get(name, 0) + 1

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def top(self, n: int = 10) -> List[Tuple[str, float, int]]:
        """The ``n`` hottest buckets as (name, seconds, calls)."""
        ranked = sorted(self.seconds.items(), key=lambda kv: -kv[1])
        return [(name, secs, self.calls[name]) for name, secs in ranked[:n]]

    def merge(self, other: "Profiler") -> None:
        """Fold another profiler's buckets into this one (multi-sim runs)."""
        for name, secs in other.seconds.items():
            self.seconds[name] = self.seconds.get(name, 0.0) + secs
        for name, count in other.calls.items():
            self.calls[name] = self.calls.get(name, 0) + count

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Plain-data form: {bucket: {"seconds": s, "calls": c}}."""
        return {
            name: {"seconds": self.seconds[name], "calls": self.calls[name]}
            for name in sorted(self.seconds)
        }

    def render_top(self, n: int = 10) -> str:
        """Terminal table of the hottest buckets with share-of-total."""
        total = self.total_seconds
        lines = [f"{'bucket':<28} {'seconds':>10} {'calls':>10} {'share':>7}"]
        for name, secs, calls in self.top(n):
            share = (secs / total * 100.0) if total else 0.0
            lines.append(f"{name:<28} {secs:>10.4f} {calls:>10} {share:>6.1f}%")
        lines.append(f"{'total':<28} {total:>10.4f}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Profiler(buckets={len(self.seconds)}, total={self.total_seconds:.4f}s)"

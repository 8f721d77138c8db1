"""Golden equivalence: fast path on/off must be bit-exact.

The activity-driven kernel (sleep/wake scheduling, dirty-set commits,
fast-forward) is a pure optimization: for every architecture and every
workload, the simulation with ``fast_path=True`` must produce exactly
the same cycle counts, latencies, and statistics as the plain
walk-everything kernel.  These tests pin that contract down by running
identical scenarios under both modes and diffing the full observable
state, including ``StatsRegistry.snapshot()``.
"""

import numpy as np
import pytest

from repro.arch import build_architecture
from repro.core.scenario import minimal_scenario
from repro.sim import Simulator, Tracer
from repro.traffic.generators import PeriodicStream, RandomTraffic

ARCHS = ("rmboc", "buscom", "dynoc", "conochi")


def _trace_fingerprint(tracer):
    """Comparable form of everything a tracer recorded: events and
    spans are simulation-derived, so they must be bit-identical too."""
    return {
        "events": tuple((e.cycle, e.source, e.kind,
                         repr(sorted(e.data.items())))
                        for e in tracer.events),
        "spans": tuple((sp.begin, sp.end, sp.source, sp.kind,
                        repr(sorted(sp.data.items())))
                       for sp in tracer.spans),
        "open": repr(sorted(map(repr, tracer.open_spans()))),
        "dropped": (tracer.dropped, tracer.dropped_spans,
                    tracer.unmatched_span_ends),
    }


def _scenario_fingerprint(key, fast, **kwargs):
    sim = Simulator(name=f"{key}-{'fast' if fast else 'slow'}",
                    fast_path=fast)
    sim.tracer = Tracer(max_events=1_000_000)
    arch = build_architecture(key, sim=sim)
    res = minimal_scenario(arch, **kwargs)
    return {
        "total_cycles": res.total_cycles,
        "latencies": tuple(res.latencies),
        "pair_latency": res.pair_latency,
        "observed_dmax": res.observed_dmax,
        "stats": sim.stats.snapshot(),
        "final_cycle": sim.cycle,
        "trace": _trace_fingerprint(sim.tracer),
    }


@pytest.mark.parametrize("key", ARCHS)
def test_minimal_scenario_equivalent(key):
    kwargs = dict(payload_bytes=96, pattern="ring", repeats=3,
                  gap_cycles=200)
    fast = _scenario_fingerprint(key, True, **kwargs)
    slow = _scenario_fingerprint(key, False, **kwargs)
    assert fast == slow


@pytest.mark.parametrize("key", ("sharedbus", "staticmesh"))
def test_baselines_equivalent(key):
    kwargs = dict(payload_bytes=64, pattern="all-pairs", repeats=2,
                  gap_cycles=50)
    fast = _scenario_fingerprint(key, True, **kwargs)
    slow = _scenario_fingerprint(key, False, **kwargs)
    assert fast == slow


@pytest.mark.parametrize("key", ARCHS)
def test_idle_heavy_scenario_equivalent(key):
    # long idle gaps: this is the regime fast-forward actually skips
    kwargs = dict(payload_bytes=32, pattern="pairs", repeats=2,
                  gap_cycles=5000)
    fast = _scenario_fingerprint(key, True, **kwargs)
    slow = _scenario_fingerprint(key, False, **kwargs)
    assert fast == slow


def _generator_fingerprint(key, fast):
    """Mixed deterministic + random traffic, drained to completion."""
    sim = Simulator(name=f"gen-{key}", fast_path=fast)
    arch = build_architecture(key, sim=sim)
    modules = list(arch.modules)
    rng = np.random.default_rng(1234)
    stream = PeriodicStream("stream", arch.ports[modules[0]],
                            dst=modules[1], period=40, payload_bytes=64,
                            stop=2_000)
    noise = RandomTraffic("noise", arch.ports[modules[2]],
                          chooser=lambda: modules[3], rng=rng,
                          rate=0.02, payload_bytes=32, stop=2_000)
    sim.add(stream)
    sim.add(noise)
    sim.run(2_500)
    sim.run_until(lambda s: stream.all_delivered() and noise.all_delivered(),
                  max_cycles=100_000)
    return {
        "cycle": sim.cycle,
        "stream": tuple(stream.latencies()),
        "noise": tuple(noise.latencies()),
        "sent": (len(stream.sent), len(noise.sent)),
        "stats": sim.stats.snapshot(),
    }


@pytest.mark.parametrize("key", ARCHS)
def test_generator_traffic_equivalent(key):
    fast = _generator_fingerprint(key, True)
    slow = _generator_fingerprint(key, False)
    assert fast == slow

"""Kernel and model micro-benchmarks (true pytest-benchmark timing).

These are not paper artifacts; they track the simulator's own speed so
performance regressions in the hot paths (kernel step, S-XY decision,
end-to-end scenario) are visible.

Besides the pytest-benchmark suite, the module is a CLI guarding the
journey-recording overhead contract (``docs/observability.md``)::

    PYTHONPATH=src python benchmarks/bench_kernel_perf.py --smoke --check

times a dense fabric workload per architecture with journeys off and
on; ``--check`` exits 1 if a journeys-off/on run pair diverges in its
stats fingerprint or delivered count (journeys must never perturb the
simulation), or if journeys-on overhead exceeds the contract bound.
"""

from repro.arch import build_architecture
from repro.arch.dynoc.routing import NORMAL, sxy_next
from repro.core.scenario import minimal_scenario
from repro.sim import Component, Simulator


class _Spin(Component):
    def __init__(self):
        super().__init__("spin")
        self.count = 0

    def tick(self, sim):
        self.count += 1


class _MostlyIdle(Component):
    """Active one cycle in ``period``: the quiescence-kernel's sweet spot."""

    def __init__(self, idx, period=100):
        super().__init__(f"idle{idx}")
        self.period = period
        self.phase = idx % period
        self.count = 0

    def tick(self, sim):
        self.count += 1
        gap = (self.phase - sim.cycle) % self.period
        return sim.cycle + (gap or self.period)


def test_perf_kernel_step(benchmark):
    def run():
        sim = Simulator()
        for i in range(8):
            sim.add(_Spin())
        sim.run(2000)
        return sim.cycle

    assert benchmark(run) == 2000


def _run_idle_heavy(fast_path):
    """64 components, each active ~1% of cycles, over 20k cycles."""
    sim = Simulator(fast_path=fast_path)
    comps = [sim.add(_MostlyIdle(i)) for i in range(64)]
    sim.run(20_000)
    # every component fired once per period plus its cycle-0 tick
    assert all(c.count >= 20_000 // c.period for c in comps)
    return sim.cycle


def test_perf_idle_heavy_fastpath(benchmark):
    """The headline win: sleep/wake + fast-forward on idle-heavy load."""
    assert benchmark(_run_idle_heavy, True) == 20_000


def test_perf_idle_heavy_slowpath(benchmark):
    """Baseline for the same workload with the optimization disabled."""
    assert benchmark(_run_idle_heavy, False) == 20_000


def _run_idle_heavy_telemetry(fast_path):
    """The idle-heavy workload with telemetry collectors attached.

    No instrumentation site fires here (plain components, no fabric),
    so any delta against ``_run_idle_heavy`` is pure attachment
    overhead leaking into the kernel loop — which must not happen."""
    from repro.obs import FlowTelemetry

    sim = Simulator(fast_path=fast_path)
    FlowTelemetry().attach(sim)
    comps = [sim.add(_MostlyIdle(i)) for i in range(64)]
    sim.run(20_000)
    assert all(c.count >= 20_000 // c.period for c in comps)
    return sim.cycle


def test_perf_idle_heavy_telemetry_attached(benchmark):
    """Tracked alongside idle_heavy_fastpath: the two must coincide."""
    assert benchmark(_run_idle_heavy_telemetry, True) == 20_000


def test_telemetry_off_overhead_within_noise():
    """Guard: attaching telemetry must not perturb the idle-heavy fast
    path (its hot loop never consults the collector).  Paired min-of-5
    timing with a generous noise margin keeps this CI-stable."""
    import timeit

    plain = min(timeit.repeat(lambda: _run_idle_heavy(True),
                              number=1, repeat=5))
    attached = min(timeit.repeat(lambda: _run_idle_heavy_telemetry(True),
                                 number=1, repeat=5))
    assert attached <= plain * 1.5 + 0.01, (
        f"telemetry attachment slowed the idle-heavy fast path: "
        f"{attached:.4f}s vs {plain:.4f}s"
    )


def test_perf_sxy_decision(benchmark):
    def active(c):
        x, y = c
        return 0 <= x < 16 and 0 <= y < 16 and not (4 <= x < 8 and 4 <= y < 8)

    def run():
        hops = 0
        cur, state = (0, 5), NORMAL
        while cur != (15, 5):
            cur, state = sxy_next(cur, (15, 5), state, active)
            hops += 1
        return hops

    assert benchmark(run) > 10


def test_perf_minimal_scenario_all_archs(benchmark):
    def run():
        total = 0
        for name in ("rmboc", "buscom", "dynoc", "conochi"):
            arch = build_architecture(name)
            total += minimal_scenario(arch, payload_bytes=64,
                                      pattern="ring").total_cycles
        return total

    assert benchmark(run) > 0


# ----------------------------------------------------------------------
# journey overhead CLI (CI: --smoke --check)
# ----------------------------------------------------------------------
JOURNEY_ARCHS = ("dynoc", "staticmesh", "sharedbus", "buscom", "rmboc",
                 "conochi")

#: journeys-on may cost at most this factor over journeys-off on the
#: dense workload (plus an absolute CI-noise allowance) — the
#: documented overhead contract for full-rate recording.  The same
#: factor+slack envelope is the noise guard ``repro diff`` applies to
#: wall-clock comparisons (:func:`repro.obs.diff.within_noise`).
JOURNEY_OVERHEAD_FACTOR = 2.0
JOURNEY_OVERHEAD_SLACK_S = 0.05


def _run_journey_workload(key, journeys, cycles=4_000, seed=13,
                          period=25):
    """One seeded steady-traffic run; returns
    ``(wall_seconds, stats_fingerprint, delivered, sampled)``."""
    import json
    import random
    import time

    from repro.obs.journey import JourneyRecorder
    from repro.sim import Simulator

    sim = Simulator(name=f"journey-bench-{key}")
    arch = build_architecture(key, sim=sim, seed=seed)
    if journeys:
        sim.journey = JourneyRecorder(seed=seed)
    mods = list(arch.modules)
    rng = random.Random(seed)
    t = 1
    while t < cycles:
        src, dst = rng.sample(mods, 2)
        pb = rng.choice([64, 256, 1024])
        sim.at(t, lambda _s, a=arch, s=src, d=dst, p=pb:
               a.ports[s].send(d, p))
        t += rng.randrange(1, period)
    t0 = time.perf_counter()
    sim.run(cycles)
    wall = time.perf_counter() - t0
    fp = json.dumps(sim.stats.snapshot(), sort_keys=True, default=str)
    sampled = len(sim.journey) if sim.journey is not None else 0
    return wall, fp, len(arch.log.delivered()), sampled


def main(argv=None) -> int:
    import argparse
    import json
    import sys
    import time

    ap = argparse.ArgumentParser(
        description="journey-recording overhead/parity gate")
    ap.add_argument("--smoke", action="store_true",
                    help="CI scale: fewer cycles and repeats")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on stats divergence or overhead "
                         "beyond the contract bound")
    ap.add_argument("--write", metavar="PATH",
                    help="write results JSON to PATH")
    ap.add_argument("--archs", nargs="+", default=list(JOURNEY_ARCHS),
                    choices=JOURNEY_ARCHS)
    args = ap.parse_args(argv)

    cycles, repeats = (2_000, 1) if args.smoke else (6_000, 3)
    rows = []
    failures = []
    for key in args.archs:
        best = {}
        fps = {}
        meta = {}
        for journeys in (False, True):
            times = []
            for _ in range(repeats):
                wall, fp, delivered, sampled = _run_journey_workload(
                    key, journeys, cycles=cycles)
                times.append(wall)
            best[journeys] = min(times)
            fps[journeys] = fp
            meta[journeys] = (delivered, sampled)
        overhead = best[True] / best[False] if best[False] else 1.0
        row = {
            "arch": key,
            "off_seconds": round(best[False], 4),
            "on_seconds": round(best[True], 4),
            "overhead": round(overhead, 3),
            "delivered": meta[True][0],
            "sampled_journeys": meta[True][1],
            "stats_identical": fps[False] == fps[True],
        }
        rows.append(row)
        print(f"journeys {key:>10}: off {best[False]:.4f}s  "
              f"on {best[True]:.4f}s  ({overhead:.2f}x, "
              f"{row['sampled_journeys']} journeys, "
              f"stats {'==' if row['stats_identical'] else '!='})")
        if not row["stats_identical"]:
            failures.append(f"{key}: journeys-on changed the stats "
                            f"fingerprint (must be bit-identical)")
        if meta[False][0] != meta[True][0]:
            failures.append(f"{key}: delivered count diverged "
                            f"({meta[False][0]} vs {meta[True][0]})")
        from repro.obs.diff import within_noise

        if not within_noise(best[True], best[False],
                            factor=JOURNEY_OVERHEAD_FACTOR,
                            slack=JOURNEY_OVERHEAD_SLACK_S):
            bound = (best[False] * JOURNEY_OVERHEAD_FACTOR
                     + JOURNEY_OVERHEAD_SLACK_S)
            failures.append(f"{key}: journeys-on {best[True]:.4f}s "
                            f"exceeds bound {bound:.4f}s")

    if args.write:
        doc = {
            "schema": "repro.bench_journey/1",
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "workload": {"cycles": cycles, "repeats": repeats},
            "rows": rows,
        }
        with open(args.write, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.write}")

    if args.check:
        if failures:
            for f in failures:
                print(f"FAIL: {f}", file=sys.stderr)
            return 1
        print("check passed: journeys-off/on stats identical, "
              "overhead within contract on every architecture")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())

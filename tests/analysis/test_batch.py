"""Seed fleets: running seeds seed-major in one process is pure packaging.

Per-seed results depend only on ``(arch, seed, workload)`` — never on
the simulation engine's fast path and never on how seeds are grouped
into fleets.
"""

import pytest

from repro.analysis.batch import (
    FleetResult,
    render_fleet,
    run_seed,
    run_seed_fleet,
)
from repro.sim import Simulator

#: small-but-nontrivial workload so the whole module stays fast
WORKLOAD = dict(cycles=3_000, bursts=2, burst_size=10, burst_gap=900,
                payloads=(64, 256))


def test_fleet_equals_per_seed_runs():
    seeds = range(4)
    fleet = run_seed_fleet("dynoc", seeds, **WORKLOAD)
    solo = [run_seed("dynoc", s, **WORKLOAD) for s in seeds]
    assert [r.key() for r in fleet.results] == [r.key() for r in solo]
    assert fleet.seeds == list(seeds)
    assert fleet.delivered_total == sum(r.delivered for r in solo)


@pytest.mark.parametrize("key", ("dynoc", "sharedbus", "rmboc"))
def test_seed_results_engine_independent(key):
    """The fast path gives the results of ticking every cycle."""
    for seed in (0, 11):
        fast = run_seed(key, seed, **WORKLOAD)
        stepped = run_seed(key, seed, sim=Simulator(fast_path=False),
                           **WORKLOAD)
        assert fast.key() == stepped.key()


def test_fleet_grouping_irrelevant():
    whole = run_seed_fleet("sharedbus", range(4), **WORKLOAD)
    first = run_seed_fleet("sharedbus", range(2), **WORKLOAD)
    second = run_seed_fleet("sharedbus", range(2, 4), **WORKLOAD)
    assert ([r.key() for r in whole.results]
            == [r.key() for r in first.results]
            + [r.key() for r in second.results])


def test_results_are_nontrivial():
    res = run_seed("dynoc", 0, **WORKLOAD)
    assert res.sent == 2 * 10            # bursts x burst_size
    assert 0 < res.delivered <= res.sent
    assert res.mean_latency > 0
    assert res.max_latency >= res.mean_latency


def test_summary_and_render():
    fleet = run_seed_fleet("sharedbus", range(2), **WORKLOAD)
    s = fleet.summary()
    assert s["seeds"] == 2
    assert s["arch"] == "sharedbus"
    assert s["wall_seconds"] > 0
    assert s["seeds_per_second"] > 0
    line = render_fleet(fleet)
    assert "sharedbus" in line and "2 seeds" in line


def test_empty_fleet_summary_is_safe():
    fleet = FleetResult(arch="dynoc")
    s = fleet.summary()
    assert s["seeds"] == 0
    assert s["delivered_total"] == 0
    assert s["seeds_per_second"] == float("inf")

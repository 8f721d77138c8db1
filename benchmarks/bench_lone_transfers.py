"""Lone-transfer probe: what one small message alone in a fabric costs.

The reconfiguration experiments send one 32-byte message at a time
through an otherwise idle fabric: e6's bystander stream every 40
cycles while one module is swapped, e12's every 50 cycles while one
slot is swapped three times.  This probe runs the harnesses' own
per-fabric bodies (``e6_body``, and ``e12_body`` at e12's 300,000-cycle
period, from ``repro.analysis.experiments``) once per fabric,
unobserved and under the default ledger's observation
(telemetry with alert rules, and journeys; no tracer), and prints per
run the stream's messages, the host CPU microseconds and fabric ticks
per message, and the number of distinct latencies::

    PYTHONPATH=src python benchmarks/bench_lone_transfers.py
    PYTHONPATH=src python benchmarks/bench_lone_transfers.py \\
        --bodies e12 --fabrics rmboc --repeat 3

``--smoke --check`` instead runs a short two-stream workload with one
swap per fabric under the activity-driven kernel and the every-cycle
one, and exits 1 on any difference in the messages' cycles or in
``stats.snapshot()``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from typing import Dict, List

from repro.analysis.experiments import e6_body, e12_body
from repro.arch import build_architecture
from repro.fabric.device import get_device
from repro.fabric.geometry import Rect
from repro.obs.session import ObservationSession
from repro.reconfig.manager import ReconfigurationManager
from repro.reconfig.module import ModuleSpec
from repro.sim import Simulator
from repro.traffic.generators import PeriodicStream

FABRICS = ("rmboc", "buscom", "dynoc", "conochi")
BODIES = ("e6", "e12")

#: e12's swap period: the shorter of the two the harness runs
E12_PERIOD = 300_000


def probe(body: str, key: str, observed: bool) -> Dict[str, object]:
    """Run one body for one fabric; CPU time covers the build too."""
    session = ObservationSession(trace=False, telemetry=observed,
                                 journeys=observed)
    start = time.process_time()
    with session:
        sim, stream, _ = (e6_body(key) if body == "e6"
                          else e12_body(key, E12_PERIOD))
    cpu = time.process_time() - start
    sent = len(stream.sent)
    return {
        "body": body, "fabric": key,
        "mode": "observed" if observed else "unobserved",
        "messages": sent,
        "us_per_message": 1e6 * cpu / sent,
        "ticks_per_message": sim.tick_counts()[key] / sent,
        "latencies": sorted(set(stream.latencies())),
    }


# ----------------------------------------------------------------------
# --smoke --check: the two kernels agree
# ----------------------------------------------------------------------
def _smoke_run(key: str, fast_path: bool, cycles: int = 6_000):
    sim = Simulator(name=f"lone-smoke-{key}", fast_path=fast_path)
    device = get_device("XC2V6000")
    arch = build_architecture(key, num_modules=4, sim=sim)
    manager = ReconfigurationManager(arch, device)
    region = Rect(0, 0, 4, device.clb_rows)
    # a lone stream, a second one that sometimes overlaps it, and a
    # swap whose hooks land mid-transfer
    sim.add(PeriodicStream("lone", arch.ports["m2"], "m3", period=40,
                           payload_bytes=32))
    sim.add(PeriodicStream("other", arch.ports["m1"], "m3", period=97,
                           payload_bytes=4, phase=13))
    sim.at(1_001, lambda _s: manager.swap("m0", ModuleSpec("m0b"), region))
    sim.run(cycles)
    return ([(m.mid, m.src, m.dst, m.created_cycle, m.accepted_cycle,
              m.delivered_cycle) for m in arch.log.messages],
            sim.stats.snapshot())


def smoke_check(fabrics) -> List[str]:
    failures = []
    for key in fabrics:
        fast = _smoke_run(key, True)
        stepped = _smoke_run(key, False)
        same = [part for part, a, b in zip(("messages", "stats"), fast,
                                           stepped) if a != b]
        print(f"{key:>8}: {len(fast[0])} messages, fast == stepped: "
              f"{'yes' if not same else 'no (' + ', '.join(same) + ')'}")
        failures.extend(f"{key}: {part} differ between the kernels"
                        for part in same)
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bodies", nargs="+", default=list(BODIES),
                    choices=BODIES)
    ap.add_argument("--fabrics", nargs="+", default=list(FABRICS),
                    choices=FABRICS)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per row; the median is printed")
    ap.add_argument("--smoke", action="store_true",
                    help="run the short kernel-agreement workload")
    ap.add_argument("--check", action="store_true",
                    help="with --smoke: exit 1 if the kernels disagree")
    args = ap.parse_args(argv)

    if args.smoke:
        failures = smoke_check(args.fabrics)
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1 if failures and args.check else 0

    for key in args.fabrics:  # imports and first-run set-up, untimed
        _smoke_run(key, True, cycles=1_000)
    print(f"{'body':<5} {'fabric':<8} {'mode':<11} {'messages':>8} "
          f"{'us/msg':>8} {'ticks/msg':>9}  latencies")
    for body in args.bodies:
        for key in args.fabrics:
            for observed in (False, True):
                runs = [probe(body, key, observed)
                        for _ in range(args.repeat)]
                row = runs[0]
                us = [run["us_per_message"] for run in runs]
                lats = row["latencies"]
                span = f"{lats[0]}" if len(lats) == 1 else \
                    f"{lats[0]}-{lats[-1]}"
                spread = (f" ({min(us):.1f}-{max(us):.1f})"
                          if len(us) > 1 else "")
                print(f"{body:<5} {key:<8} {row['mode']:<11} "
                      f"{row['messages']:>8} {statistics.median(us):>8.1f} "
                      f"{row['ticks_per_message']:>9.2f}  "
                      f"{len(lats)} ({span}){spread}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

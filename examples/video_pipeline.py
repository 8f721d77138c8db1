#!/usr/bin/env python
"""Video-pipeline demo — the RMBoC/DyNoC proof-of-concept workload.

A four-stage pipeline (capture -> filter -> scale -> display) streams
240-byte tiles stage to stage. Mid-run, the *filter* stage is swapped
for an upgraded module by the reconfiguration manager while the rest of
the pipeline keeps its circuits.

Run:  python examples/video_pipeline.py [rmboc|dynoc]
"""

import sys

from repro import build_architecture
from repro.fabric.device import get_device
from repro.fabric.geometry import Rect
from repro.reconfig import ModuleSpec, ReconfigurationManager
from repro.traffic.apps import video_pipeline


def main(arch_name: str = "rmboc") -> None:
    arch = build_architecture(arch_name, num_modules=4, width=32)
    sim = arch.sim
    stages = dict(zip(arch.modules, ["capture", "filter", "scale",
                                     "display"]))
    print(f"pipeline on {arch_name}: "
          + " -> ".join(stages.values()))

    gens = video_pipeline(arch, frame_bytes=240, period=200, stop=20_000)

    # Swap the filter stage (m1) for 'filter_v2' at cycle 4000. The
    # manager quiesces m1's traffic, rewrites its slot, and reattaches.
    manager = ReconfigurationManager(arch, get_device("XC2V6000"))
    record_holder = {}

    def request_swap(s) -> None:
        # the application must stop streams into *and out of* the
        # module being swapped (the fairness discipline the paper's
        # protocol assumes)
        gens[0].stop = s.cycle   # capture -> filter
        gens[1].stop = s.cycle   # filter -> scale
        record_holder["rec"] = manager.swap(
            "m1", ModuleSpec("filter_v2"), Rect(8, 0, 4, 96),
        )

    sim.at(4000, request_swap)
    sim.run_until(lambda s: "rec" in record_holder
                  and record_holder["rec"].done, max_cycles=2_000_000)
    rec = record_holder["rec"]
    print(f"filter swapped out at cycle {rec.detach_cycle}, "
          f"filter_v2 live at cycle {rec.attach_cycle} "
          f"({rec.reconfig_cycles} reconfiguration cycles)")

    # resume the streams through the new filter
    from repro.traffic.generators import PeriodicStream

    horizon = rec.attach_cycle + 8_000
    resumed = [
        PeriodicStream("video.stage0b", arch.ports["m0"], "filter_v2",
                       period=200, payload_bytes=240,
                       start=rec.attach_cycle, stop=horizon),
        PeriodicStream("video.stage1b", arch.ports["filter_v2"], "m2",
                       period=200, payload_bytes=240,
                       start=rec.attach_cycle, stop=horizon),
    ]
    sim.add_all(resumed)
    sim.run(max(0, horizon - sim.cycle))
    sim.run_until(lambda s: arch.log.all_delivered() and arch.idle(),
                  max_cycles=2_000_000)

    for gen in gens + resumed:
        lats = gen.latencies()
        if lats:
            print(f"  {gen.name:15s} frames={len(lats):3d} "
                  f"mean latency={sum(lats) / len(lats):6.1f} cycles")
    total = arch.log.delivered_payload_bytes()
    print(f"total video payload delivered: {total} bytes "
          f"in {sim.cycle} cycles")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "rmboc")

#!/usr/bin/env python
"""CoNoChi fault tolerance (extension demo).

A seven-module ladder NoC carries streams while a switch *fails
unplanned*. Packets through it are lost until the control unit detects
the failure and re-routes over the redundant rail; the switch is then
repaired and routes re-optimize. Loss, detection, re-route and repair
are all visible in the protocol trace.

Run:  python examples/conochi_fault_tolerance.py
"""

from repro import build_architecture
from repro.faults import FaultKind, FaultSchedule, inject
from repro.sim import Tracer
from repro.traffic.generators import PeriodicStream


def window(msgs, lo, hi):
    sel = [m for m in msgs if lo <= m.created_cycle < hi]
    done = [m for m in sel if m.delivered]
    lost = [m for m in sel if m.dropped]
    lat = sum(m.latency for m in done) / len(done) if done else float("nan")
    return len(done), len(lost), lat


def main() -> None:
    arch = build_architecture("conochi", num_modules=7)  # 4+3 ladder
    sim = arch.sim
    sim.tracer = Tracer()
    # switch (2,2) fails at cycle 3000 and is repaired 4000 cycles
    # later; without retransmission every loss stays explicit
    inj = inject(arch, FaultSchedule(seed=0).one_shot(
        3_000, FaultKind.NODE_DOWN, (2, 2), duration=4_000),
        detection_latency=150, retransmit=False)
    # m0@(1,2) -> m6@(4,2): the shortest route runs along the bottom
    # rail straight through the switch we will fail
    stream = PeriodicStream("s", arch.ports["m0"], "m6",
                            period=40, payload_bytes=64, stop=12_000)
    sim.add(stream)

    print(arch.grid.render(), "\n")
    sim.run(3_000)
    print(f"[cycle {sim.cycle}] switch (2,2) FAILED "
          f"(detection in {inj.detection_latency} cycles)")
    sim.run(4_000)
    print(f"[cycle {sim.cycle}] switch (2,2) repaired")
    sim.run(5_000)
    sim.run_until(lambda s: all(m.delivered or m.dropped
                                for m in stream.sent), max_cycles=200_000)

    for label, lo, hi in [("healthy", 0, 3000),
                          ("fault window", 3000, 3000 + 200),
                          ("re-routed", 3300, 7000),
                          ("repaired", 7200, 12000)]:
        done, lost, lat = window(stream.sent, lo, hi)
        print(f"  {label:13s} delivered={done:3d} lost={lost:2d} "
              f"mean latency={lat:6.1f}")

    drops = sim.tracer.query(source="faults", kind="drop")
    print(f"\ntrace: {len(drops)} drop event(s); first few:")
    for ev in drops[:3]:
        print(" ", ev)
    assert all(m.delivered for m in stream.sent
               if m.created_cycle >= 3300)
    print("\nafter detection, zero further losses — redundancy + table "
          "redirection did their job.")


if __name__ == "__main__":
    main()

"""Property tests: RMBoC control messages replayed while the fabric
sleeps give what ticking every cycle gives.

The fabric sleeps through control-message hops whose outcome is
certain, and ``settle`` replays them.  ``Simulator(fast_path=False)``
ticks the fabric on every cycle, so it processes every hop where it
stands and is the reference.  Hypothesis draws walk-heavy runs: module
and bus counts, per-cross-point REQUEST and CANCEL/DESTROY processing
times, circuit linger, the channel cap, messages between distant
modules, frozen slots, dead cross-points and channel-cap changes at
drawn cycles (from events or from a component that ticks after the
fabric), reads from events and from such a component, and telemetry
that is absent or runs alert rules on a 16- or 48-cycle grid.  Both
kernels must deliver the same messages at the same cycles and end with
the same statistics, telemetry, evaluation count and reads.  The
stepped run checks the lane law after every tick
(:mod:`tests.arch.rmboc.lanes`).

The zero-load law (paper §3.1, Table 2, EXPERIMENTS.md E1): one
message alone at distance d sets its circuit up in 2d + 6 cycles, and
the fast kernel ticks the fabric the same number of times at every
distance, since the hops between the source and the destination wake
nothing.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.rmboc import build_rmboc
from repro.obs.alerts import AlertEngine, AlertRule, default_rules
from repro.obs.flows import FlowTelemetry
from repro.sim import SLEEP, Component, Simulator
from tests.arch.rmboc.lanes import LaneLaw


class _Actor(Component):
    """Runs hooks and reads from its tick, registered after the fabric."""

    def __init__(self, steps):
        super().__init__("actor")
        self.steps = sorted(steps, key=lambda step: step[0])
        self._next = 0

    def tick(self, sim):
        steps = self.steps
        while self._next < len(steps) and steps[self._next][0] <= sim.cycle:
            steps[self._next][1]()
            self._next += 1
        if self._next < len(steps):
            return max(steps[self._next][0], sim.cycle + 1)
        return SLEEP


@st.composite
def walks(draw):
    modules = draw(st.integers(3, 8))
    buses = draw(st.integers(1, 4))
    cfg = dict(num_modules=modules, num_buses=buses,
               xp_proc_cycles=draw(st.integers(1, 4)),
               cancel_proc_cycles=draw(st.integers(1, 3)),
               retry_backoff=draw(st.integers(1, 12)),
               channel_linger=draw(st.sampled_from((0, 0, 3, 40))),
               max_channels_per_module=draw(st.integers(0, buses)))
    traffic = (draw(st.integers(0, 2 ** 16)), draw(st.integers(6, 60)))
    xps = st.integers(0, modules - 1)
    hooks = []
    failed = set()
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, 1_500))
        kind = draw(st.sampled_from(("freeze", "fail")))
        if kind == "fail":
            # fail_crosspoint refuses a cross-point that is already
            # down, and the windows may overlap: fail distinct ones
            xp = draw(st.sampled_from(
                [x for x in range(modules) if x not in failed]))
            failed.add(xp)
        else:
            xp = draw(xps)
        hooks.append((kind, at, xp, at + draw(st.integers(1, 300))))
    for _ in range(draw(st.integers(0, 2))):
        hooks.append(("cap", draw(st.integers(1, 1_500)),
                      draw(st.integers(1, buses)), None))
    reads = draw(st.lists(st.integers(1, 1_800), max_size=4))
    from_tick = draw(st.booleans())
    grid = draw(st.sampled_from((None, 16, 48)))
    cycles = draw(st.integers(400, 2_000))
    return cfg, traffic, hooks, reads, from_tick, grid, cycles


def _run(case, fast_path: bool):
    cfg, (seed, gap), hooks, read_at, from_tick, grid, cycles = case
    sim = Simulator(name="rmboc-walk", fast_path=fast_path)
    if grid is not None:
        tel = FlowTelemetry(eval_interval=grid, window=128)
        tel.engine = AlertEngine(rules=default_rules(
            flow_p99_cycles=120, flow_p99_for=grid, link_utilization=0.3,
            link_utilization_for=grid, storm_window=128)
            + [AlertRule("backoff-storm", "counter:rmboc.blocked", 4,
                         kind="burn_rate", window=64)])
        tel.attach(sim)
    arch = build_rmboc(sim=sim, **cfg)
    mods = list(arch.modules)
    n = len(mods)
    rng = random.Random(seed)
    t = 0
    while t < cycles - 100:
        t += rng.randrange(1, gap)
        i = rng.randrange(n)
        dst = mods[(i + rng.randrange(max(1, n // 2), n)) % n]
        sim.at(t, lambda _s, s=mods[i], d=dst, p=rng.choice((4, 48, 300)):
               arch.ports[s].send(d, p))
    reads = []

    def read():
        tel = sim.telemetry
        reads.append((sim.cycle, sim.stats.snapshot(), arch.idle(),
                      arch.lanes_in_use(),
                      tel.snapshot(sim.cycle) if tel is not None else None))

    steps = [(at, read) for at in read_at]
    for kind, at, arg, until in hooks:
        if kind == "freeze":
            steps.append((at, lambda x=arg: arch.freeze_slot(x)))
            steps.append((until, lambda x=arg: arch.unfreeze_slot(x)))
        elif kind == "fail":
            steps.append((at, lambda x=arg: arch.fail_crosspoint(x)))
            steps.append((until, lambda x=arg: arch.repair_crosspoint(x)))
        else:
            steps.append((at, lambda c=arg: arch.set_channel_cap(c)))
    if from_tick:
        sim.add(_Actor(steps))
    else:
        for at, act in steps:
            sim.at(at, lambda _s, act=act: act())
    law = None
    if not fast_path:
        law = LaneLaw(arch)
        sim.add(law)
    sim.run(cycles)
    tel = sim.telemetry
    return {
        "messages": [(m.mid, m.src, m.dst, m.accepted_cycle,
                      m.delivered_cycle, m.dropped)
                     for m in arch.log.messages],
        "stats": sim.stats.snapshot(),
        "telemetry": tel.snapshot(sim.cycle) if tel is not None else None,
        "evaluations": tel.engine.evaluations if tel is not None else 0,
        "reads": reads,
        "ticks": law.checks if law is not None else cycles,
    }


#: long circuits on eight modules, slow cross-points, a frozen slot
#: and a dead cross-point ahead of walks, hooks and reads from a tick
SLOW = (dict(num_modules=8, num_buses=2, xp_proc_cycles=3,
             cancel_proc_cycles=2, retry_backoff=5, channel_linger=0,
             max_channels_per_module=0),
        (11, 30),
        [("freeze", 300, 5, 420), ("fail", 700, 3, 900),
         ("cap", 1_000, 1, None)],
        [150, 640, 1_200], True, 16, 1_500)

#: lingering circuits, events only, no telemetry
LINGER = (dict(num_modules=6, num_buses=3, xp_proc_cycles=1,
               cancel_proc_cycles=3, retry_backoff=9, channel_linger=40,
               max_channels_per_module=2),
          (5, 20),
          [("cap", 500, 3, None)],
          [333, 900], False, None, 1_200)


@example(case=SLOW)
@example(case=LINGER)
@given(case=walks())
@settings(max_examples=25, deadline=None)
def test_walk_replay_matches_ticking_every_cycle(case):
    stepped = _run(case, fast_path=False)
    fast = _run(case, fast_path=True)
    assert stepped["ticks"] == case[-1]  # the law was checked every cycle
    for part in ("messages", "stats", "telemetry", "evaluations", "reads"):
        assert fast[part] == stepped[part], part


@given(case=walks())
@settings(max_examples=200, deadline=None)
def test_walks_fail_each_crosspoint_once(case):
    failed = [xp for kind, _, xp, _ in case[2] if kind == "fail"]
    assert len(failed) == len(set(failed))


def _alone(distance: int, fast_path: bool):
    """One 64-byte message from m0 to m<distance> on an idle 8-module
    RMBoC: its setup latency and the fabric's tick count."""
    sim = Simulator(name="rmboc-zero-load", fast_path=fast_path)
    arch = build_rmboc(sim=sim, num_modules=8)
    sim.run(20)
    arch.ports["m0"].send(f"m{distance}", 64)
    arch.run_to_completion()
    assert arch.idle()
    setup = sim.stats.histogram("rmboc.setup_latency").samples
    return list(setup), sim.tick_counts()["rmboc"]


def test_zero_load_setup_is_2d_plus_6_in_a_fixed_number_of_ticks():
    ticks = set()
    for d in range(1, 8):
        setup, stepped_ticks = _alone(d, fast_path=False)
        assert setup == [2 * d + 6]
        fast_setup, fast_ticks = _alone(d, fast_path=True)
        assert fast_setup == setup
        assert fast_ticks < stepped_ticks
        ticks.add(fast_ticks)
    assert len(ticks) == 1, ticks

"""Property tests: RMBoC retry storms replayed while the fabric sleeps
give what ticking every cycle gives.

The fabric sleeps through retries whose REQUESTs must be cancelled at
their source's cross-point, and ``settle`` replays them.
``Simulator(fast_path=False)`` ticks the fabric on every cycle, so it
processes every such REQUEST where it stands and is the reference.
Hypothesis draws storms: module and bus counts, the channel cap, the
retry backoff, circuit linger, bursts from every module to every peer,
a frozen slot, a dead cross-point and channel-cap changes at drawn
cycles (from events or from a component that ticks after the fabric),
and telemetry that is absent or runs alert rules on a 16- or 48-cycle
grid.  Both kernels must deliver the same messages at the same cycles
and end with the same statistics, telemetry and evaluation count.

The stepped run also checks the lane law after every tick
(:mod:`tests.arch.rmboc.lanes`).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.rmboc import build_rmboc
from repro.obs.alerts import AlertEngine, AlertRule, default_rules
from repro.obs.flows import FlowTelemetry
from repro.sim import SLEEP, Component, Simulator, Tracer
from tests.arch.rmboc.lanes import LaneLaw

PAYLOADS = (16, 256, 1024, 4096)


class _Hooks(Component):
    """Runs hooks from its tick, registered after the fabric."""

    def __init__(self, steps):
        super().__init__("hooks")
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
def storms(draw):
    modules = draw(st.integers(3, 6))
    buses = draw(st.integers(1, 3))
    cfg = dict(num_modules=modules, num_buses=buses,
               max_channels_per_module=draw(st.integers(0, buses)),
               retry_backoff=draw(st.integers(1, 12)),
               channel_linger=draw(st.sampled_from((0, 0, 5, 40))))
    bursts = draw(st.lists(
        st.tuples(st.integers(1, 1_500), st.integers(0, 2 ** 16)),
        min_size=1, max_size=3))
    xps = st.integers(0, modules - 1)
    hooks = []
    if draw(st.booleans()):
        at = draw(st.integers(1, 1_800))
        hooks.append(("freeze", at, draw(xps),
                      at + draw(st.integers(1, 400))))
    if draw(st.booleans()):
        at = draw(st.integers(1, 1_800))
        hooks.append(("fail", at, draw(xps),
                      at + draw(st.integers(1, 600))))
    for _ in range(draw(st.integers(0, 2))):
        hooks.append(("cap", draw(st.integers(1, 1_800)),
                      draw(st.integers(1, buses)), None))
    from_tick = draw(st.booleans())
    grid = draw(st.sampled_from((None, 16, 48)))
    cycles = draw(st.integers(600, 2_600))
    return cfg, bursts, hooks, from_tick, grid, cycles


def _run(case, fast_path: bool):
    cfg, bursts, hooks, from_tick, grid, cycles = case
    sim = Simulator(name="rmboc-storm", fast_path=fast_path)
    if grid is not None:
        tel = FlowTelemetry(eval_interval=grid, window=128)
        tel.engine = AlertEngine(rules=default_rules(
            flow_p99_cycles=300, flow_p99_for=grid, link_utilization=0.5,
            link_utilization_for=grid, storm_window=128)
            + [AlertRule("backoff-storm", "counter:rmboc.blocked", 16,
                         kind="burn_rate", window=64)])
        tel.attach(sim)
    arch = build_rmboc(sim=sim, **cfg)
    mods = list(arch.modules)
    for start, salt in bursts:
        for i, src in enumerate(mods):
            for j, dst in enumerate(mods):
                if i == j:
                    continue
                mix = salt + 7 * i + 13 * j
                payload = PAYLOADS[mix % len(PAYLOADS)]
                sim.at(start + mix % 29,
                       lambda _s, s=src, d=dst, p=payload:
                       arch.ports[s].send(d, p))
    steps = []
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
        sim.add(_Hooks(steps))
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
        "ticks": law.checks if law is not None else cycles,
    }


#: a dead cross-point, a frozen slot and a cap change during storms on
#: one bus, hooks from a component's tick, alert rules on a 16-cycle grid
DEAD = (dict(num_modules=5, num_buses=1, max_channels_per_module=0,
             retry_backoff=3, channel_linger=5),
        [(5, 11), (600, 40)],
        [("fail", 40, 2, 500), ("freeze", 300, 4, 700), ("cap", 650, 1, None)],
        True, 16, 1_800)

#: two buses with a lowered cap and linger, events only, 48-cycle grid
LINGER = (dict(num_modules=4, num_buses=2, max_channels_per_module=1,
               retry_backoff=9, channel_linger=40),
          [(3, 2), (700, 5)],
          [("cap", 900, 2, None)],
          False, 48, 2_000)


@example(case=DEAD)
@example(case=LINGER)
@given(case=storms())
@settings(max_examples=30, deadline=None)
def test_storm_replay_matches_ticking_every_cycle(case):
    stepped = _run(case, fast_path=False)
    fast = _run(case, fast_path=True)
    assert stepped["ticks"] == case[-1]  # the law was checked every cycle
    for part in ("messages", "stats", "telemetry", "evaluations"):
        assert fast[part] == stepped[part], part


def test_examples_storm():
    """The explicit examples are storms: most REQUESTs blocked."""
    for case in (DEAD, LINGER):
        counters = _run(case, fast_path=True)["stats"]["counters"]
        assert (counters["rmboc.cancel.blocked"]
                > counters["rmboc.channels.requested"] // 2)


def _storm(sim, cfg):
    arch = build_rmboc(sim=sim, **cfg)
    mods = list(arch.modules)
    for start in (5, 800):
        for i, src in enumerate(mods):
            for j, dst in enumerate(mods):
                if i != j:
                    sim.at(start + i + j, lambda _s, s=src, d=dst:
                           arch.ports[s].send(d, 4096))
    return arch


class _Watch(Component):
    """Records the cycles on which the fabric slept through its slot."""

    def __init__(self, arch):
        super().__init__("watch")
        self.arch = arch
        self.slept = set()

    def tick(self, sim):
        if self.arch.asleep and self.arch._settled < sim.cycle:
            self.slept.add(sim.cycle)


def _replayed_cancels(cfg, module: str):
    """Cycles on which the stepped kernel cancels one of ``module``'s
    REQUESTs as blocked at its source while the fast kernel's fabric
    sleeps: the cancels the fast kernel replays."""
    sim = Simulator(name="rmboc-storm", fast_path=False)
    sim.tracer = Tracer(max_events=1_000_000)
    arch = _storm(sim, cfg)
    sim.run(1_500)
    asked = {e.data["cid"]: e.cycle for e in sim.tracer.query(
        kind="request", src=module)}
    proc = arch.cfg.xp_proc_cycles
    cancels = {e.cycle for e in sim.tracer.query(kind="cancel")
               if asked.get(e.data["cid"], -proc) + proc == e.cycle}
    sim = Simulator(name="rmboc-storm", fast_path=True)
    watch = _Watch(_storm(sim, cfg))
    sim.add(watch)
    sim.run(1_500)
    return sorted(cancels & watch.slept)


def test_hooks_from_a_tick_follow_that_cycles_retries():
    """A hook from a component that ticks after the sleeping fabric
    comes after the retries the fabric owes for that cycle: it replays
    the cycle before it changes state, as the stepped kernel ticks the
    fabric first."""
    cfg = dict(num_modules=4, num_buses=2)
    cycles = _replayed_cancels(cfg, "m2")
    assert cycles

    def run(fast_path, hook):
        sim = Simulator(name="rmboc-storm", fast_path=fast_path)
        arch = _storm(sim, cfg)
        at = cycles[0]
        if hook == "freeze":
            steps = [(at, lambda: arch.freeze_slot(2)),
                     (at + 3, lambda: arch.unfreeze_slot(2))]
        else:
            steps = [(at, lambda: arch.set_channel_cap(1))]
        sim.add(_Hooks(steps))
        sim.run(1_500)
        return ([(m.mid, m.accepted_cycle, m.delivered_cycle)
                 for m in arch.log.messages], sim.stats.snapshot())

    for hook in ("freeze", "cap"):
        assert run(True, hook) == run(False, hook), hook

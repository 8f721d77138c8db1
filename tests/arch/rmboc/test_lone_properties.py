"""Property tests: RMBoC lone plans interrupted anywhere give what
ticking every cycle gives.

A message that finds the fabric idle is planned alone: the fast
kernel sleeps to its delivery, and reads record what the plan owes
while hooks turn it into ordinary state first (``RMBoC._plan``).
``Simulator(fast_path=False)`` makes no plans and ticks the fabric on
every cycle, so it is the reference.  Hypothesis draws sparse traffic,
30 to 300 cycles between sends, so that most sends find the fabric
idle, and places interruptions in the drawn sends' lone windows, by
the zero-load law (``tests/arch/rmboc/test_lone_law.py``): on the
send's cycle, during the REQUEST's walk, at the destination hop,
between the hop and the establish, at the establish, while the words
stream, at the delivery, during the teardown and around grid cycles.
An interruption is one of:

* a second send on the same pair, the reverse pair or another pair;
* a freeze and unfreeze, or a failure and repair, of a cross-point on
  the path;
* a detach and re-attach of either end, drawn only while that module
  has nothing queued (a refused detach is recorded), and no send from
  a detached module;
* a ``set_channel_cap``, or the reads of the walk properties;
* a ``Simulator.at`` event at the establish cycle, scheduled before
  the destination hop (at setup) or after it (from a later step), that
  reads or fails a cross-point on the path.

Sends and hooks run from events or from a component that ticks after
the fabric; telemetry is absent or runs alert rules on a 16- or
48-cycle grid, and journeys are on.  Both kernels must deliver the
same messages at the same cycles and give the same statistics,
telemetry, evaluation count, reads and journey section; the stepped
run checks the lane law after every tick.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.rmboc import build_rmboc
from repro.arch.rmboc.fabric import RMBoC
from repro.obs.alerts import AlertEngine, AlertRule, default_rules
from repro.obs.flows import FlowTelemetry
from repro.obs.journey import JourneyRecorder
from repro.obs.ledger import journey_section
from repro.sim import Simulator
from tests.arch.rmboc.lanes import LaneLaw
from tests.arch.rmboc.test_walk_properties import _Actor

WHEN = ("send", "walk", "hop", "wait", "establish", "stream", "delivery",
        "teardown", "grid")
KINDS = ("send", "freeze", "fail", "detach", "cap", "read", "early",
         "late")


def _window(cfg, from_tick, send):
    """The zero-load law's cycles for ``send`` alone: NI cycle,
    destination hop, establish and delivery."""
    at, src, dst, payload = send
    t0 = at + from_tick
    hop = t0 + (abs(dst - src) + 1) * cfg["xp_proc_cycles"]
    est = hop + cfg["accept_cycles"] + cfg["reply_cycles"]
    return t0, hop, est, est + -(-payload * 8 // 32)


@st.composite
def lone_runs(draw):
    modules = draw(st.integers(3, 8))
    buses = draw(st.integers(1, 3))
    cfg = dict(num_modules=modules, num_buses=buses,
               xp_proc_cycles=draw(st.integers(1, 3)),
               accept_cycles=draw(st.integers(1, 3)),
               reply_cycles=draw(st.integers(1, 3)),
               cancel_proc_cycles=draw(st.integers(1, 3)),
               retry_backoff=draw(st.integers(1, 12)),
               channel_linger=draw(st.sampled_from((0, 0, 3, 40))),
               max_channels_per_module=draw(st.integers(0, buses)))
    sends_from_tick = draw(st.booleans())
    pairs = st.tuples(st.integers(0, modules - 1),
                      st.integers(1, modules - 1))
    sends = []
    t = 0
    for _ in range(draw(st.integers(1, 6))):
        t += draw(st.integers(30, 300))
        src, step = draw(pairs)
        sends.append((t, src, (src + step) % modules,
                      draw(st.sampled_from((4, 32, 300)))))
    grid = draw(st.sampled_from((None, 16, 48)))
    hooks = []
    failed = set()
    for _ in range(draw(st.integers(1, 4))):
        send = draw(st.sampled_from(sends))
        at, src, dst, _ = send
        t0, hop, est, due = _window(cfg, sends_from_tick, send)
        when = draw(st.sampled_from(WHEN))
        if when == "grid" and grid is None:
            when = "stream"
        cycle = {
            "send": at, "hop": hop, "establish": est, "delivery": due,
            "walk": draw(st.integers(t0, hop)),
            "wait": draw(st.integers(hop, est)),
            "stream": draw(st.integers(est, due)),
            "teardown": draw(st.integers(due, due + modules + 45)),
            "grid": (est // (grid or 1) + draw(st.integers(0, 1)))
            * (grid or 1) - draw(st.integers(0, 1)),
        }[when]
        kind = draw(st.sampled_from(KINDS))
        path = list(range(min(src, dst), max(src, dst) + 1))
        live = [xp for xp in path if xp not in failed]
        if kind == "fail" or (kind in ("early", "late")
                              and draw(st.booleans()) and live):
            if not live:
                continue
            # a cross-point fails once: the windows may overlap
            xp = draw(st.sampled_from(live))
            failed.add(xp)
            arg = ("fail", xp)
        elif kind == "send":
            other = draw(pairs)
            arg = draw(st.sampled_from(((src, dst), (dst, src),
                                        (other[0], (other[0] + other[1])
                                         % modules))))
        elif kind == "freeze":
            arg = draw(st.sampled_from(path))
        elif kind == "detach":
            arg = draw(st.sampled_from((src, dst)))
        elif kind == "cap":
            arg = draw(st.integers(1, buses))
        else:
            arg = ("read", None)
        if kind in ("early", "late"):
            cycle = est
        late = draw(st.integers(hop, est))  # when a late event is made
        hooks.append((kind, cycle, arg, cycle + draw(st.integers(1, 60)),
                      late))
    hooks_from_tick = draw(st.booleans())
    cycles = sends[-1][0] + 700
    return cfg, sends, sends_from_tick, hooks, hooks_from_tick, grid, cycles


def _run(case, fast_path: bool):
    cfg, sends, sends_from_tick, hooks, hooks_from_tick, grid, cycles = case
    sim = Simulator(name="rmboc-lone", fast_path=fast_path)
    tel = None
    if grid is not None:
        tel = FlowTelemetry(eval_interval=grid, window=128)
        tel.engine = AlertEngine(rules=default_rules(
            flow_p99_cycles=60, flow_p99_for=grid, link_utilization=0.2,
            link_utilization_for=grid, storm_window=128)
            + [AlertRule("backoff-storm", "counter:rmboc.blocked", 2,
                         kind="burn_rate", window=64)])
        tel.attach(sim)
    sim.journey = JourneyRecorder()
    arch = build_rmboc(sim=sim, **cfg)
    mods = list(arch.modules)
    reads = []

    def read(tag):
        reads.append((tag, sim.cycle, sim.stats.snapshot(), arch.idle(),
                      arch.lanes_in_use(),
                      tel.snapshot(sim.cycle) if tel is not None else None))

    def send(src, dst, payload):
        port = arch.ports.get(mods[src])
        if port is not None:  # never from a detached module
            port.send(mods[dst], payload)

    def act(arg):
        if arg[0] == "fail":
            arch.fail_crosspoint(arg[1])
        else:
            read("event")

    detached = {}

    def detach(xp):
        module = mods[xp]
        if module not in arch.ports:
            return
        try:
            arch.detach(module)
        except RuntimeError:
            reads.append(("refused", sim.cycle, module))
            return
        detached[module] = xp

    def attach(xp):
        module = mods[xp]
        if detached.get(module) == xp and module not in arch.ports:
            del detached[module]
            arch.attach(module, xp=xp)

    sent = [(at, lambda s=src, d=dst, p=payload: send(s, d, p))
            for at, src, dst, payload in sends]
    steps = []
    for kind, at, arg, until, late in hooks:
        if kind == "send":
            steps.append((at, lambda a=arg: send(a[0], a[1], 32)))
        elif kind == "freeze":
            steps.append((at, lambda x=arg: arch.freeze_slot(x)))
            steps.append((until, lambda x=arg: arch.unfreeze_slot(x)))
        elif kind == "fail":
            steps.append((at, lambda x=arg[1]: arch.fail_crosspoint(x)))
            steps.append((until, lambda x=arg[1]: arch.repair_crosspoint(x)))
        elif kind == "detach":
            steps.append((at, lambda x=arg: detach(x)))
            steps.append((until, lambda x=arg: attach(x)))
        elif kind == "cap":
            steps.append((at, lambda c=arg: arch.set_channel_cap(c)))
        elif kind == "read":
            steps.append((at, lambda: read("step")))
        else:
            if kind == "early":  # scheduled before the destination hop
                sim.at(at, lambda _s, a=arg: act(a))
            else:  # scheduled from a step after it
                steps.append((late, lambda c=at, a=arg: sim.at(
                    max(c, sim.cycle), lambda _s: act(a))))
            if arg[0] == "fail":
                steps.append((until, lambda x=arg[1]:
                              arch.repair_crosspoint(x)))
    ticked = []
    for timed, from_tick in ((sent, sends_from_tick),
                             (steps, hooks_from_tick)):
        if from_tick:
            ticked.extend(timed)
        else:
            for at, fn in timed:
                sim.at(at, lambda _s, fn=fn: fn())
    if ticked:
        sim.add(_Actor(ticked))
    law = None
    if not fast_path:
        law = LaneLaw(arch)
        sim.add(law)
    sim.run(cycles)
    return {
        "messages": [(m.mid, m.src, m.dst, m.created_cycle, m.accepted_cycle,
                      m.delivered_cycle, m.dropped)
                     for m in arch.log.messages],
        "stats": sim.stats.snapshot(),
        "telemetry": tel.snapshot(sim.cycle) if tel is not None else None,
        "evaluations": tel.engine.evaluations if tel is not None else 0,
        "reads": reads,
        "journeys": journey_section([sim]),
        "ticks": law.checks if law is not None else cycles,
    }


#: shared by the examples: eight modules, slow cross-points, a long
#: handshake, so every phase of a plan spans several cycles
CFG = dict(num_modules=8, num_buses=2, xp_proc_cycles=3, accept_cycles=2,
           reply_cycles=3, cancel_proc_cycles=2, retry_backoff=5,
           channel_linger=0, max_channels_per_module=0)
#: m1 -> m5 at cycle 100, from an event: NI cycle 100, destination
#: hop 115, establish 120, delivery 128
SEND = (100, 1, 5, 32)

#: a hook from an event on the send's cycle, after the send: the plan
#: is materialised before its NI cycle, with no cid taken
BEFORE_NI = (CFG, [SEND, (400, 2, 6, 300)], False,
             [("freeze", 100, 7, 130, 115)], False, None, 1_100)
#: a second send on the reverse pair at the destination hop, from a
#: component ticking after the fabric
AT_HOP = (CFG, [SEND, (260, 0, 3, 4)], False,
          [("send", 115, (5, 1), 116, 115)], True, 16, 1_000)
#: a read from an event between the hop and the establish, and a
#: failure of a path cross-point at the establish cycle, scheduled
#: there from that step, after the hop: the circuit is established
#: first, then torn down
BETWEEN = (CFG, [SEND, (500, 3, 2, 32)], False,
           [("read", 117, ("read", None), 118, 117),
            ("late", 120, ("fail", 3), 200, 117)], False, 48, 1_100)
#: the same failure scheduled before the hop: the circuit is cancelled
#: before its establish runs
EARLY_FAIL = (CFG, [SEND, (500, 3, 2, 32)], False,
              [("read", 117, ("read", None), 118, 117),
               ("early", 120, ("fail", 3), 200, 117)], False, 48, 1_100)
#: as BETWEEN, with a cap change from an event at 118 that turns the
#: plan into ordinary state: its establish event must keep the place
#: the hop at 115 gave it, ahead of the failure scheduled at 117
MATERIALISED = (CFG, [SEND, (500, 3, 2, 32)], False,
                [("read", 117, ("read", None), 118, 117),
                 ("late", 120, ("fail", 3), 200, 117),
                 ("cap", 118, 1, 119, 118)], False, 48, 1_100)
#: a detach of the source during the walk, refused (its message is
#: queued): the plan, turned into ordinary state, must still tick
REFUSED = (CFG, [SEND], False, [("detach", 105, 1, 130, 105)], False,
           None, 900)
#: circuits kept 40 cycles: a second send on the same pair at 140,
#: while the delivered circuit lingers, rides it
LINGER = (dict(CFG, channel_linger=40), [SEND], False,
          [("send", 140, (1, 5), 141, 140)], False, 16, 900)
#: a cap change from an event at 140, while the delivered circuit
#: lingers (it is retired at 168 and its DESTROY ends at 178), and
#: reads around its end
LINGER_HOOK = (dict(CFG, channel_linger=40), [SEND], False,
               [("cap", 140, 1, 141, 140)]
               + [("read", at, ("read", None), at + 1, at)
                  for at in (169, 177, 178, 179)], False, None, 900)
#: a freeze from an event at 131, while the DESTROY (retired at the
#: delivery, 128) walks to the destination (reached at 138), and reads
#: as it ends
DESTROY = (CFG, [SEND, (300, 4, 0, 4)], False,
           [("freeze", 131, 2, 150, 131)]
           + [("read", at, ("read", None), at + 1, at)
              for at in (133, 137, 138, 139)], False, None, 900)
#: sent from a component (NI cycle 101, establish 121, delivery 129):
#: a read from an event on the eve of the grid cycle 128, before the
#: fabric wakes to record the transfer's start, and a cap change from
#: an event on the grid cycle
ON_GRID = (CFG, [SEND, (420, 7, 0, 300)], True,
           [("read", 127, ("read", None), 128, 127),
            ("cap", 128, 1, 129, 128)], False, 16, 1_200)


def _agree(case):
    stepped = _run(case, fast_path=False)
    fast = _run(case, fast_path=True)
    assert stepped["ticks"] == case[-1]  # the law was checked every cycle
    for part in ("messages", "stats", "telemetry", "evaluations", "reads",
                 "journeys"):
        assert fast[part] == stepped[part], part
    return fast


@example(case=BEFORE_NI)
@example(case=LINGER)
@example(case=LINGER_HOOK)
@example(case=DESTROY)
@example(case=MATERIALISED)
@example(case=REFUSED)
@example(case=AT_HOP)
@example(case=BETWEEN)
@example(case=EARLY_FAIL)
@example(case=ON_GRID)
@given(case=lone_runs())
@settings(max_examples=40, deadline=None)
def test_interrupted_plans_match_ticking_every_cycle(case):
    _agree(case)


def _interruptions(case, monkeypatch):
    """(cycle materialised through, NI cycle, hop, establish, delivery)
    of every plan a hook turned into ordinary state on the fast
    kernel."""
    seen = []
    materialize = RMBoC._materialize

    def spy(self, through):
        lone = self._lone
        seen.append((through, lone.t0, lone.hop, lone.est, lone.due))
        materialize(self, through)

    monkeypatch.setattr(RMBoC, "_materialize", spy)
    _agree(case)
    return seen


def test_examples_interrupt_where_they_say(monkeypatch):
    """The examples are only worth keeping if their hooks land in the
    phase they name.  Reads leave a plan in place: BETWEEN's read at
    117 and ON_GRID's at 127 materialise nothing."""
    t0, hop, est, due = 100, 115, 120, 128
    assert _interruptions(BEFORE_NI, monkeypatch) == [
        (t0 - 1, t0, hop, est, due)]
    assert _interruptions(AT_HOP, monkeypatch)[0] == (hop, t0, hop, est, due)
    assert _interruptions(BETWEEN, monkeypatch)[0] == (
        est - 1, t0, hop, est, due)
    assert _interruptions(EARLY_FAIL, monkeypatch)[0] == (
        est - 1, t0, hop, est, due)
    assert _interruptions(LINGER, monkeypatch) == [
        (139, t0, hop, est, due)]
    assert _interruptions(DESTROY, monkeypatch)[0] == (
        130, t0, hop, est, due)
    assert _interruptions(ON_GRID, monkeypatch) == [
        (127, t0 + 1, hop + 1, est + 1, due + 1)]


def test_late_establish_event_sees_the_circuit_established():
    """The failure scheduled after the hop runs after ``_establish``:
    the circuit counts as established and then as cancelled; scheduled
    before it, the circuit is cancelled unestablished."""
    late = _agree(BETWEEN)["stats"]["counters"]
    early = _agree(EARLY_FAIL)["stats"]["counters"]
    assert late["rmboc.channels.established"] == \
        early["rmboc.channels.established"] + 1
    materialised = _agree(MATERIALISED)["stats"]["counters"]
    assert materialised["rmboc.channels.established"] == \
        late["rmboc.channels.established"]


def test_refused_detach_leaves_the_message_queued():
    """The refused detach turns the plan into a queued message, which
    the woken fabric still sends by the law."""
    fast = _agree(REFUSED)
    assert [r[0] for r in fast["reads"]] == ["refused"]
    assert fast["messages"][0][4:6] == (120, 128)

"""RandomTraffic draws its Bernoulli trials in blocks and sleeps from one
hit to the next; it must inject exactly where one scalar draw per active
cycle injected, and leave its stream where those draws left it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.traffic.generators import RandomTraffic, TrafficGenerator

PEERS = ("m1", "m2", "m3")


class PerCycle(RandomTraffic):
    """The reference: tick every active cycle, one scalar draw each."""

    def tick(self, sim):
        return TrafficGenerator.tick(self, sim)

    def generate(self, cycle):
        if self.rng.random() < self.rate:
            self._inject(self.chooser(), self.payload_bytes)

    def next_activity(self, cycle):
        return None


class LogPort:
    """An ArchPort stand-in logging (cycle, dst) per send."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def send(self, dst, payload_bytes, tag=""):
        self.log.append((self.sim.cycle, dst))
        return (self.sim.cycle, dst)


def _run(cls, case):
    sim = Simulator(name="gen", fast_path=case["fast_path"])
    port = LogPort(sim)
    pick = np.random.default_rng(case["seed"] + 1)
    gen = cls("g", port,
              chooser=lambda: PEERS[int(pick.integers(len(PEERS)))],
              rng=np.random.default_rng(case["seed"]), rate=case["rate"],
              payload_bytes=8, start=case["start"], stop=case["stop"])
    if case["add_at"]:
        sim.at(case["add_at"], lambda s: s.add(gen))
    else:
        sim.add(gen)
    for at, stop in case["stop_changes"]:
        sim.at(at, lambda _s, v=stop: setattr(gen, "stop", v))
    for at in case["spurious"]:
        sim.at(at, lambda s: s.wake(gen) if gen in s.components else None)
    sim.run(case["horizon"])
    return port.log, gen.rng.bit_generator.state


@st.composite
def cases(draw):
    start = draw(st.integers(0, 300))
    stop = draw(st.one_of(st.none(), st.integers(start, start + 900)))
    rate = draw(st.one_of(st.sampled_from((0.0, 1.0)),
                          st.floats(0.001, 0.5)))
    # up to two stop changes while the window is open, each lowered
    # (never behind the cycle it is set at) or raised
    changes, at, current = [], 0, stop
    for _ in range(draw(st.integers(0, 2))):
        last = at + 500 if current is None else current
        if last <= at:
            break
        at = draw(st.integers(at + 1, last))
        if draw(st.booleans()):
            bound = current if current is not None else at + 900
            current = draw(st.integers(at, max(at, bound)))
        else:
            base = current if current is not None else at
            current = draw(st.integers(base, base + 600))
        changes.append((at, current))
    return {
        "seed": draw(st.integers(0, 2**16)),
        "rate": rate,
        "start": start,
        "stop": stop,
        "add_at": draw(st.sampled_from((0, 0, 1, 137, 400))),
        "stop_changes": changes,
        "spurious": draw(st.lists(st.integers(0, 1_200), max_size=6)),
        "fast_path": draw(st.booleans()),
        "horizon": 1_500,
    }


@given(case=cases())
@settings(max_examples=150, deadline=None)
def test_blocks_inject_like_per_cycle_draws(case):
    ref_log, ref_state = _run(PerCycle, case)
    log, state = _run(RandomTraffic, case)
    assert log == ref_log
    final_stop = case["stop_changes"][-1][1] if case["stop_changes"] \
        else case["stop"]
    # with rate 0 and no stop the generator sleeps for good undrawn: a
    # stop set later has no window end it could have drawn up to
    sleeps_undrawn = case["rate"] == 0 and case["stop"] is None
    # a lowered stop is read at the next wake, at most a block later
    closed = (final_stop is not None
              and final_stop + RandomTraffic.BLOCK <= case["horizon"])
    if closed and not sleeps_undrawn:
        # past the window the stream stands where per-cycle draws left it
        assert state == ref_state


def test_window_crossing_blocks_matches_reference():
    stop = 30 + 5 * 256 + 17
    # the run ends at stop: the last block must not have read past it
    case = {"seed": 11, "rate": 0.05, "start": 30, "stop": stop,
            "add_at": 0, "stop_changes": [], "spurious": [],
            "fast_path": True, "horizon": stop}
    ref_log, ref_state = _run(PerCycle, case)
    log, state = _run(RandomTraffic, case)
    assert log == ref_log and len(log) > 40
    assert state == ref_state


def test_sleeps_between_injections():
    """Ticks follow injections and blocks, not active cycles."""
    sim = Simulator(name="gen")
    port = LogPort(sim)
    gen = RandomTraffic("g", port, chooser=lambda: "m1",
                        rng=np.random.default_rng(4), rate=0.01,
                        payload_bytes=8, stop=10_000)
    sim.add(gen)
    sim.run(10_000)
    ticks = sim.tick_counts()["g"]
    assert ticks <= len(port.log) + 10_000 // RandomTraffic.BLOCK + 2


def test_zero_rate_without_stop_sleeps_for_good():
    sim = Simulator(name="gen")
    gen = RandomTraffic("g", LogPort(sim), chooser=lambda: "m1",
                        rng=np.random.default_rng(4), rate=0.0, start=5)
    sim.add(gen)
    sim.run(5_000)
    assert sim.tick_counts()["g"] == 2  # cycle 0, then the window opens


@pytest.mark.parametrize("bit_generator",
                         (np.random.PCG64, np.random.MT19937,
                          np.random.Philox, np.random.SFC64))
def test_block_draws_equal_scalar_draws(bit_generator):
    """Block draws keep the stream exact only because numpy's
    ``Generator.random(n)`` returns the doubles of ``n`` scalar calls,
    across mixed block sizes too; a numpy that broke this fails here."""
    blocks = np.random.Generator(bit_generator(2024))
    scalars = np.random.Generator(bit_generator(2024))
    sizes = (1, 256, 3, 0, 77, 256, 5)
    drawn = np.concatenate([blocks.random(n) for n in sizes])
    one_by_one = [scalars.random() for _ in range(sum(sizes))]
    assert drawn.tolist() == one_by_one
    assert _plain(blocks.bit_generator.state) == _plain(
        scalars.bit_generator.state)


def _plain(state):
    """A bit generator state with its arrays as lists."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state

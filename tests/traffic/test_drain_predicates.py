"""Drain predicates against their naive definitions.

``MessageLog.all_delivered`` and ``TrafficGenerator.all_delivered`` run
inside ``run_until`` predicates every simulated cycle, so they resume
from the settled prefix instead of rescanning the whole history.  Any
interleaving of appends, deliveries, drops and checks must still give
the answer of a full scan.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.base import Message, MessageLog
from repro.traffic.generators import TrafficGenerator

# ("append",) | ("deliver", i) | ("drop", i) | ("check",); i picks any
# message sent so far, settled or not
operations = st.lists(
    st.one_of(
        st.just(("append",)),
        st.tuples(st.sampled_from(("deliver", "drop")),
                  st.integers(0, 63)),
        st.just(("check",)),
    ),
    max_size=80,
)


class _Port:
    """Just enough of an ArchPort for ``TrafficGenerator._inject``."""

    module = "m0"

    def send(self, dst, payload_bytes, tag=""):
        return Message(self.module, dst, payload_bytes, tag=tag)


def _apply(op, msgs, append, cycle):
    if op[0] == "append":
        append()
    elif msgs:
        msg = msgs[op[1] % len(msgs)]
        if op[0] == "deliver" and not msg.delivered:
            msg.created_cycle, msg.delivered_cycle = 0, cycle
        elif op[0] == "drop":
            msg.dropped = True


@settings(max_examples=200, deadline=None)
@given(ops=operations)
def test_message_log_matches_full_scan(ops):
    log = MessageLog()
    for cycle, op in enumerate(ops):
        if op[0] == "check":
            expected = all(m.delivered or m.dropped for m in log.messages)
            assert log.all_delivered() == expected
        else:
            _apply(op, log.messages, lambda: log.sent(Message("a", "b", 8)),
                   cycle)
    expected = all(m.delivered or m.dropped for m in log.messages)
    assert log.all_delivered() == expected


@settings(max_examples=200, deadline=None)
@given(ops=operations)
def test_generator_matches_full_scan(ops):
    # only delivery settles a generator's message: a dropped one stays
    # outstanding until its retransmitted copy (a new message) arrives
    gen = TrafficGenerator("g", _Port())
    for cycle, op in enumerate(ops):
        if op[0] == "check":
            assert gen.all_delivered() == all(m.delivered for m in gen.sent)
        else:
            _apply(op, gen.sent, lambda: gen._inject("m1", 8), cycle)
    assert gen.all_delivered() == all(m.delivered for m in gen.sent)

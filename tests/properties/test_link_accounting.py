"""Property: a channel accounts every delivered message exactly once.

``Channel.send`` packetizes a message once and hands its packets and wire
bytes to every attached sniffer.  Whatever the payload, overhead model,
fault hooks and tracer, the sniffers' counters, the returned transfer time
and the clock must equal what the reference arithmetic gives message by
message: :meth:`ProtocolOverheadModel.packets_for` /
:meth:`~ProtocolOverheadModel.wire_bytes_for` and
:meth:`LinkParameters.transfer_time`, plus any injected delay, added in the
same order.  A dropped message never reaches a sniffer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MessageDropped
from repro.network.channel import Channel, LinkParameters
from repro.network.clock import SimulatedClock
from repro.network.message import (
    ProtocolOverheadModel,
    request_message,
    response_message,
)
from repro.network.sniffer import Sniffer, TrafficCounters
from repro.telemetry.tracing import Tracer

overheads = st.builds(
    ProtocolOverheadModel,
    mss=st.integers(min_value=1, max_value=2000),
    header_bytes=st.integers(min_value=0, max_value=60),
    per_message_bytes=st.sampled_from([0, 120]) | st.integers(0, 300),
    enabled=st.booleans(),
)
links = st.builds(
    LinkParameters,
    latency_s=st.sampled_from([0.0, 0.0005]) | st.floats(0, 0.01),
    bandwidth_bytes_per_s=st.sampled_from([0.0, 12_500_000.0]) | st.floats(1.0, 1e9),
)
#: What happens to one send: delivered, delayed by a fault hook, or dropped.
fates = st.one_of(
    st.just(("none", 0.0)),
    st.tuples(st.just("delay"), st.floats(0.0, 0.05)),
    st.just(("drop", 0.0)),
)


def reference_wire_bytes(overhead, payload):
    """Payload, plus per-packet headers and the per-message overhead."""
    if not overhead.enabled:
        return payload
    return (
        payload
        + overhead.packets_for(payload) * overhead.header_bytes
        + overhead.per_message_bytes
    )


def payloads(mss):
    """The packet boundaries around ``mss``, and a large payload."""
    return st.sampled_from(
        [0, 1, max(mss - 1, 0), mss, mss + 1, 37 * mss + 11]
    )


@st.composite
def scenarios(draw):
    overhead = draw(overheads)
    sends = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["request", "response"]),
                payloads(overhead.mss),
                fates,
            ),
            max_size=12,
        )
    )
    return overhead, draw(links), draw(st.booleans()), sends


@given(scenarios())
@settings(max_examples=300, deadline=None)
def test_sniffers_time_and_clock_match_the_reference_arithmetic(scenario):
    overhead, link, traced, sends = scenario
    clock = SimulatedClock()
    channel = Channel("link", "a", "b", link=link, overhead=overhead, clock=clock)
    if traced:
        channel.tracer = Tracer(clock, enabled=True)
    sniffers = [channel.attach_sniffer(), channel.attach_sniffer(Sniffer())]

    expected = {}
    expected_now = 0.0
    dropped = 0
    for kind, payload, (fate, delay) in sends:
        def hook(message, fate=fate, delay=delay):
            if fate == "drop":
                raise MessageDropped("dropped by the test")
            return delay

        if fate != "none":
            channel.add_fault(hook)
        build = request_message if kind == "request" else response_message
        message = build(payload, "a", "b")
        if fate == "drop":
            with pytest.raises(MessageDropped):
                channel.send(message)
            dropped += 1
        else:
            elapsed = channel.send(message)
            wire = overhead.wire_bytes_for(payload)
            assert wire == reference_wire_bytes(overhead, payload)
            reference = link.transfer_time(wire) + delay
            assert elapsed == reference
            expected_now += reference
            counters = expected.setdefault(kind, TrafficCounters())
            counters.messages += 1
            counters.payload_bytes += payload
            counters.wire_bytes += wire
            counters.packets += overhead.packets_for(payload)
        if fate != "none":
            channel.remove_fault(hook)
        assert clock.now() == expected_now

    for sniffer in sniffers:
        assert sniffer.by_kind == expected
    assert channel.messages_sent == sum(c.messages for c in expected.values())
    assert channel.messages_dropped == dropped
    if traced:
        leaves = list(channel.tracer.traces)  # each send is its own root
        assert len(leaves) == len(sends)
        assert [leaf.status == "dropped" for leaf in leaves] == [
            fate == "drop" for _, _, (fate, _) in sends
        ]


@given(overheads, st.integers(min_value=0, max_value=100_000))
@settings(max_examples=300, deadline=None)
def test_charge_is_packets_for_and_wire_bytes_for(overhead, payload):
    assert overhead.charge(payload) == (
        overhead.packets_for(payload),
        reference_wire_bytes(overhead, payload),
    )
    assert overhead.wire_bytes_for(payload) == reference_wire_bytes(overhead, payload)


def test_a_kind_gets_its_counters_on_first_use():
    sniffer = Sniffer()
    assert sniffer.by_kind == {}
    sniffer.count("response", 10, 1, 170)
    counters = sniffer.by_kind["response"]
    sniffer.count("response", 5, 1, 165)
    assert sniffer.by_kind == {"response": counters}
    assert counters == TrafficCounters(
        messages=2, payload_bytes=15, wire_bytes=335, packets=2
    )

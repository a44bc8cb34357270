"""Tests for simulated channels."""

import pytest

from repro.errors import ChannelClosed, ConfigurationError, MessageDropped, NetworkError
from repro.network.channel import Channel, LinkParameters
from repro.network.clock import SimulatedClock
from repro.network.message import ProtocolOverheadModel, WireMessage, response_message


def make_channel(**kwargs):
    return Channel("link", endpoint_a="external", endpoint_b="origin", **kwargs)


class TestLinkParameters:
    def test_transfer_time_includes_latency_and_serialization(self):
        link = LinkParameters(latency_s=0.001, bandwidth_bytes_per_s=1000.0)
        assert link.transfer_time(500) == pytest.approx(0.001 + 0.5)

    def test_zero_bandwidth_means_infinitely_fast(self):
        link = LinkParameters(latency_s=0.002, bandwidth_bytes_per_s=0.0)
        assert link.transfer_time(10**9) == pytest.approx(0.002)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkParameters(latency_s=-0.1)


class TestChannel:
    def test_send_counts_messages(self):
        channel = make_channel()
        channel.send(response_message(100, source="origin", destination="external"))
        assert channel.messages_sent == 1

    def test_send_advances_clock(self):
        clock = SimulatedClock()
        channel = make_channel(
            clock=clock,
            link=LinkParameters(latency_s=0.01, bandwidth_bytes_per_s=0.0),
        )
        channel.send(response_message(10, source="origin", destination="external"))
        assert clock.now() == pytest.approx(0.01)

    def test_sniffer_sees_traffic(self):
        channel = make_channel()
        sniffer = channel.attach_sniffer()
        channel.send(response_message(100, source="origin", destination="external"))
        assert sniffer.response_payload_bytes == 100

    def test_sniffer_adopts_channel_overhead(self):
        channel = make_channel(overhead=ProtocolOverheadModel(enabled=False))
        sniffer = channel.attach_sniffer()
        channel.send(response_message(100, source="origin", destination="external"))
        assert sniffer.response_wire_bytes == 100

    def test_detached_sniffer_stops_counting(self):
        channel = make_channel()
        sniffer = channel.attach_sniffer()
        channel.detach_sniffer(sniffer)
        channel.send(response_message(100, source="origin", destination="external"))
        assert sniffer.response_payload_bytes == 0

    def test_wrong_endpoints_rejected(self):
        channel = make_channel()
        with pytest.raises(ConfigurationError):
            channel.send(response_message(10, source="mars", destination="origin"))

    def test_unnamed_endpoints_allowed(self):
        channel = make_channel()
        message = WireMessage(kind="response", payload_bytes=10)
        channel.send(message)  # no endpoints set: accepted
        assert channel.messages_sent == 1

    def test_closed_channel_rejects_sends(self):
        channel = make_channel()
        channel.close()
        assert channel.closed
        with pytest.raises(ChannelClosed):
            channel.send(response_message(10, source="origin", destination="external"))

    def test_transfer_time_returned(self):
        channel = make_channel(
            link=LinkParameters(latency_s=0.0, bandwidth_bytes_per_s=1000.0),
            overhead=ProtocolOverheadModel(enabled=False),
        )
        elapsed = channel.send(
            response_message(500, source="origin", destination="external")
        )
        assert elapsed == pytest.approx(0.5)


class TestChannelReopen:
    def test_send_after_close_raises_typed_network_error(self):
        channel = make_channel()
        channel.close()
        with pytest.raises(NetworkError):
            channel.send(response_message(10, source="origin", destination="external"))
        assert channel.messages_sent == 0

    def test_reopen_heals_a_partition(self):
        channel = make_channel()
        channel.close()
        channel.reopen()
        assert not channel.closed
        channel.send(response_message(10, source="origin", destination="external"))
        assert channel.messages_sent == 1

    def test_reopen_is_idempotent(self):
        channel = make_channel()
        channel.reopen()
        channel.reopen()
        channel.send(response_message(10, source="origin", destination="external"))
        assert channel.messages_sent == 1


class TestChannelFaultHooks:
    def test_raising_hook_drops_the_message(self):
        channel = make_channel()

        def drop(message):
            raise MessageDropped("injected")

        channel.add_fault(drop)
        with pytest.raises(MessageDropped):
            channel.send(response_message(10, source="origin", destination="external"))
        assert channel.messages_dropped == 1
        assert channel.messages_sent == 0

    def test_dropped_message_never_reaches_sniffers(self):
        channel = make_channel()
        sniffer = channel.attach_sniffer()

        def drop(message):
            raise MessageDropped("injected")

        channel.add_fault(drop)
        with pytest.raises(MessageDropped):
            channel.send(response_message(10, source="origin", destination="external"))
        assert sniffer.response_payload_bytes == 0

    def test_delay_hook_adds_transfer_time(self):
        clock = SimulatedClock()
        channel = make_channel(
            clock=clock,
            link=LinkParameters(latency_s=0.01, bandwidth_bytes_per_s=0.0),
        )
        channel.add_fault(lambda message: 0.5)
        elapsed = channel.send(
            response_message(10, source="origin", destination="external")
        )
        assert elapsed == pytest.approx(0.51)
        assert clock.now() == pytest.approx(0.51)

    def test_remove_fault_restores_the_link(self):
        channel = make_channel()

        def drop(message):
            raise MessageDropped("injected")

        channel.add_fault(drop)
        channel.remove_fault(drop)
        channel.remove_fault(drop)  # removing twice is harmless
        channel.send(response_message(10, source="origin", destination="external"))
        assert channel.messages_sent == 1
        assert channel.messages_dropped == 0


class TestTracedSends:
    """A traced send records one ``channel.transfer`` leaf per message."""

    def traced_channel(self):
        from repro.telemetry.tracing import Tracer

        clock = SimulatedClock()
        channel = make_channel(
            clock=clock,
            link=LinkParameters(latency_s=0.01, bandwidth_bytes_per_s=0.0),
        )
        channel.tracer = Tracer(clock, enabled=True)
        sniffer = channel.attach_sniffer()
        return channel, sniffer

    def send_in_trace(self, channel, message):
        with channel.tracer.span("request") as root:
            try:
                channel.send(message)
            except NetworkError:
                pass
        return root

    def test_delivered_send_is_a_timed_leaf(self):
        channel, sniffer = self.traced_channel()
        message = response_message(100, source="origin", destination="external")
        root = self.send_in_trace(channel, message)
        (leaf,) = root.children
        assert (leaf.name, leaf.status, leaf.children) == ("channel.transfer", "ok", [])
        assert leaf.meta == {"channel": "link", "kind": "response"}
        assert leaf.duration == pytest.approx(0.01)
        assert leaf.trace_id == root.trace_id
        assert sniffer.total().messages == 1

    def test_dropped_send_is_a_zero_second_dropped_leaf(self):
        channel, sniffer = self.traced_channel()

        def drop(message):
            raise MessageDropped("lost")

        channel.add_fault(drop)
        message = response_message(100, source="origin", destination="external")
        root = self.send_in_trace(channel, message)
        (leaf,) = root.children
        assert (leaf.name, leaf.status, leaf.duration) == ("channel.transfer", "dropped", 0.0)
        assert channel.messages_dropped == 1
        assert channel.messages_sent == 0
        assert sniffer.total().messages == 0

    def test_closed_send_leaf_carries_the_error_name(self):
        channel, _ = self.traced_channel()
        channel.close()
        root = self.send_in_trace(
            channel, response_message(100, source="origin", destination="external")
        )
        assert [(s.name, s.status) for s in root.children] == [
            ("channel.transfer", "ChannelClosed")
        ]
        assert channel.messages_dropped == 0

    def test_send_outside_a_trace_is_its_own_root(self):
        channel, _ = self.traced_channel()
        message = response_message(100, source="origin", destination="external")
        channel.send(message)
        root = channel.tracer.last_root
        assert root.name == "channel.transfer"
        assert channel.tracer.traces_completed == 1

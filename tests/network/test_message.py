"""Tests for wire messages and the TCP/IP overhead model."""

import pytest

from repro.errors import ConfigurationError
from repro.network.message import (
    DEFAULT_HEADER_BYTES,
    DEFAULT_MSS,
    ProtocolOverheadModel,
    WireMessage,
    request_message,
    response_message,
)


class TestProtocolOverheadModel:
    def test_defaults_match_ethernet_tcp_ip(self):
        model = ProtocolOverheadModel()
        assert model.mss == 1460
        assert model.header_bytes == 40

    def test_zero_payload_still_costs_one_packet(self):
        model = ProtocolOverheadModel()
        assert model.packets_for(0) == 1
        assert model.wire_bytes_for(0) == (
            DEFAULT_HEADER_BYTES + model.per_message_bytes
        )

    def test_one_byte_payload(self):
        model = ProtocolOverheadModel()
        assert model.packets_for(1) == 1
        assert model.wire_bytes_for(1) == 1 + 40 + 120

    def test_exact_mss_boundary(self):
        model = ProtocolOverheadModel()
        assert model.packets_for(DEFAULT_MSS) == 1
        assert model.packets_for(DEFAULT_MSS + 1) == 2

    def test_multi_packet_wire_bytes(self):
        model = ProtocolOverheadModel()
        payload = 3 * DEFAULT_MSS + 10  # 4 packets
        assert model.wire_bytes_for(payload) == payload + 4 * 40 + 120

    def test_disabled_model_counts_payload_only(self):
        model = ProtocolOverheadModel(enabled=False)
        assert model.packets_for(5000) == 0
        assert model.wire_bytes_for(5000) == 5000

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolOverheadModel().packets_for(-1)

    def test_invalid_mss_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolOverheadModel(mss=0)

    def test_negative_header_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolOverheadModel(header_bytes=-1)

    def test_negative_per_message_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolOverheadModel(per_message_bytes=-1)

    def test_overhead_grows_relatively_for_small_payloads(self):
        """The §6 observation: 'the smaller the response, the greater this
        overhead is' — relative overhead shrinks as payloads grow."""
        model = ProtocolOverheadModel()
        small = model.wire_bytes_for(100) / 100
        large = model.wire_bytes_for(100_000) / 100_000
        assert small > large


class TestWireMessage:
    def test_kind_validation(self):
        with pytest.raises(ConfigurationError):
            WireMessage(kind="ack", payload_bytes=0)

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            WireMessage(kind="request", payload_bytes=-5)

    def test_wire_bytes_uses_model(self):
        message = WireMessage(kind="response", payload_bytes=2000)
        assert message.wire_bytes(ProtocolOverheadModel()) == 2000 + 2 * 40 + 120
        assert message.wire_bytes(ProtocolOverheadModel(enabled=False)) == 2000

    def test_request_helper(self):
        message = request_message(120, source="a", destination="b")
        assert message.kind == "request"
        assert message.source == "a"
        assert message.destination == "b"
        assert message.payload_bytes == 120

    def test_response_helper(self):
        message = response_message(500)
        assert message.kind == "response"
        assert message.payload_bytes == 500

    def test_packets_delegates_to_model(self):
        """WireMessage.packets is the same arithmetic as the model's."""
        model = ProtocolOverheadModel()
        message = response_message(3 * DEFAULT_MSS + 1)
        assert message.packets(model) == model.packets_for(3 * DEFAULT_MSS + 1)
        assert message.packets(model) == 4

    def test_empty_message_still_one_packet(self):
        """The zero-payload edge is encoded once, in the model."""
        model = ProtocolOverheadModel()
        message = request_message(0)
        assert message.packets(model) == 1
        assert message.wire_bytes(model) == model.wire_bytes_for(0)

    def test_packets_disabled_model(self):
        message = response_message(5000)
        assert message.packets(ProtocolOverheadModel(enabled=False)) == 0

    def test_slots_no_instance_dict(self):
        """Hot-path messages stay dict-free (one per send on the serve path)."""
        message = response_message(10)
        assert not hasattr(message, "__dict__")
        with pytest.raises(AttributeError):
            message.unknown_attribute = 1

    def test_trace_stays_assignable(self):
        """Channels stamp trace context after construction."""
        message = response_message(10)
        assert message.trace is None
        message.trace = object()
        assert message.trace is not None

    def test_equality_by_fields(self):
        assert request_message(5, "a", "b") == request_message(5, "a", "b")
        assert request_message(5, "a", "b") != request_message(5, "a", "c")
        assert request_message(5) != request_message(6)

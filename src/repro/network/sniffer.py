"""Bandwidth measurement, mirroring the paper's use of the Sniffer tool.

"The number of bytes served is obtained by measuring bandwidth using the
Sniffer network monitoring tool.  More precisely, the bandwidth measurement
is taken between the Origin Site machine and the External machine."  (§6)

A :class:`Sniffer` attaches to a :class:`~repro.network.channel.Channel` and
counts every byte that crosses it, in both directions, *including protocol
headers* — that inclusiveness is what separates the experimental curves from
the analytical ones in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .message import ProtocolOverheadModel, WireMessage


@dataclass
class TrafficCounters:
    """Byte and message counters for one direction of traffic."""

    messages: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    packets: int = 0

    def record(self, message: WireMessage, overhead: ProtocolOverheadModel) -> None:
        """Account one message under this direction's counters.

        Wire bytes and packets come from the overhead model — the same
        arithmetic the channel charges, so Sniffer totals can never drift
        from link totals.
        """
        packets, wire_bytes = overhead.charge(message.payload_bytes)
        self.add(message.payload_bytes, packets, wire_bytes)

    def add(self, payload_bytes: int, packets: int, wire_bytes: int) -> None:
        """Account one message whose figures are already computed."""
        self.messages += 1
        self.payload_bytes += payload_bytes
        self.wire_bytes += wire_bytes
        self.packets += packets

    def merged_with(self, other: "TrafficCounters") -> "TrafficCounters":
        """A new counter equal to the element-wise sum."""
        return TrafficCounters(
            messages=self.messages + other.messages,
            payload_bytes=self.payload_bytes + other.payload_bytes,
            wire_bytes=self.wire_bytes + other.wire_bytes,
            packets=self.packets + other.packets,
        )


@dataclass
class Sniffer:
    """Counts traffic crossing a monitored link.

    The per-kind breakdown ("request" vs "response") lets experiments report
    the response-only view (closest to the analytical B) next to the full
    wire view (what the paper's Sniffer reported).
    """

    overhead: ProtocolOverheadModel = field(default_factory=ProtocolOverheadModel)
    by_kind: Dict[str, TrafficCounters] = field(default_factory=dict)

    def observe(self, message: WireMessage) -> None:
        """Record one message crossing the monitored link."""
        packets, wire_bytes = self.overhead.charge(message.payload_bytes)
        self.count(message.kind, message.payload_bytes, packets, wire_bytes)

    def count(
        self, kind: str, payload_bytes: int, packets: int, wire_bytes: int
    ) -> None:
        """Record one message of ``kind`` whose figures the channel computed
        under this sniffer's overhead model; a kind's counters are created
        on its first message.  Adds in place, as
        :meth:`TrafficCounters.add` does, in one frame per message."""
        counters = self.by_kind.get(kind)
        if counters is None:
            counters = self.by_kind[kind] = TrafficCounters()
        counters.messages += 1
        counters.payload_bytes += payload_bytes
        counters.wire_bytes += wire_bytes
        counters.packets += packets

    # -- reporting ----------------------------------------------------------

    def total(self) -> TrafficCounters:
        """Counters summed over both directions/kinds."""
        merged = TrafficCounters()
        for counters in self.by_kind.values():
            merged = merged.merged_with(counters)
        return merged

    def counters(self, kind: str) -> TrafficCounters:
        """Counters for one message kind ('request' or 'response')."""
        return self.by_kind.get(kind, TrafficCounters())

    @property
    def total_wire_bytes(self) -> int:
        """Wire bytes over both directions."""
        return self.total().wire_bytes

    @property
    def total_payload_bytes(self) -> int:
        """Payload bytes over both directions."""
        return self.total().payload_bytes

    @property
    def response_payload_bytes(self) -> int:
        """Payload bytes of responses only."""
        return self.counters("response").payload_bytes

    @property
    def response_wire_bytes(self) -> int:
        """Wire bytes of responses only."""
        return self.counters("response").wire_bytes

    def metric_rows(self) -> list:
        """Registry rows: monitored-link traffic under ``link.*``."""
        return [
            ("link.request_payload_bytes", self.counters("request").payload_bytes),
            ("link.response_payload_bytes", self.counters("response").payload_bytes),
            ("link.total_wire_bytes", self.total_wire_bytes),
        ]

    def reset(self) -> None:
        """Zero all counters (e.g. after a warm-up phase)."""
        self.by_kind.clear()

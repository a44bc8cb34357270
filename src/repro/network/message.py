"""HTTP-like messages and their on-the-wire packetization.

The paper measures bandwidth with a Sniffer on the link between the Origin
Site machine and the External machine (Figure 4).  The Sniffer sees *wire*
bytes: the HTTP payload plus TCP/IP protocol headers for every packet.  The
difference between the analytical model (payload only) and the experimental
curves (wire bytes) in Figures 3(b), 5 and 6 is exactly this protocol
overhead, so the message model here is byte-exact about it.

A :class:`WireMessage` carries an application payload of a known size.  When
it is transmitted over a :class:`~repro.network.channel.Channel` it is split
into packets of at most ``mss`` payload bytes, each charged ``header_bytes``
of TCP/IP header (20 B TCP + 20 B IP by default).  Empty messages (e.g. pure
ACKs are not modeled) still cost one packet.

Packetization is *analytic*: packet counts and wire bytes are integer
arithmetic on the payload size — no per-packet objects are ever built.
:meth:`ProtocolOverheadModel.charge` is the single source of truth:
:meth:`~ProtocolOverheadModel.packets_for`,
:meth:`~ProtocolOverheadModel.wire_bytes_for`, :meth:`WireMessage.packets`
and :meth:`WireMessage.wire_bytes` read from it, and a Channel charges a
message once per send and hands the figures to its Sniffers, so the
empty-message one-packet edge case is encoded exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ConfigurationError

#: Default maximum segment size, matching Ethernet's 1500-byte MTU minus
#: 40 bytes of TCP/IP headers.
DEFAULT_MSS = 1460

#: Default per-packet TCP/IP header cost (20 B TCP + 20 B IP, no options).
DEFAULT_HEADER_BYTES = 40

#: Default per-message (per-HTTP-exchange) connection overhead: 2002-era
#: servers commonly used non-persistent connections, so every response
#: drags along SYN/SYN-ACK/FIN segments and ACK traffic — roughly three
#: bare 40-byte TCP/IP headers.  This constant term is what makes protocol
#: overhead *relatively* larger for small responses, the effect behind the
#: analytical/experimental gaps in the paper's Figures 3(b), 5 and 6.
DEFAULT_PER_MESSAGE_BYTES = 120


@dataclass(frozen=True)
class ProtocolOverheadModel:
    """Parameters describing per-packet and per-message protocol overhead.

    ``enabled=False`` turns the model into a pure payload counter, which is
    what the paper's *analytical* expressions assume.  The experimental
    testbed runs with ``enabled=True``.
    """

    mss: int = DEFAULT_MSS
    header_bytes: int = DEFAULT_HEADER_BYTES
    per_message_bytes: int = DEFAULT_PER_MESSAGE_BYTES
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise ConfigurationError("mss must be positive")
        if self.header_bytes < 0:
            raise ConfigurationError("header_bytes cannot be negative")
        if self.per_message_bytes < 0:
            raise ConfigurationError("per_message_bytes cannot be negative")

    def packets_for(self, payload_bytes: int) -> int:
        """Number of packets needed to carry ``payload_bytes``.

        A zero-byte payload still needs one packet: even an empty HTTP
        response occupies at least one TCP segment on the wire.  Read off
        :meth:`charge`.
        """
        return self.charge(payload_bytes)[0]

    def wire_bytes_for(self, payload_bytes: int) -> int:
        """Total wire bytes for one message: payload + per-packet headers
        + the per-message connection overhead."""
        return self.charge(payload_bytes)[1]

    def charge(self, payload_bytes: int) -> Tuple[int, int]:
        """``(packets, wire bytes)`` of one message, computed together.

        The one copy of the packetization formula: packets are the exact
        integer ceiling of ``payload_bytes / mss`` (payloads are never
        enumerated packet by packet), at least one for an empty payload;
        each packet carries ``header_bytes`` and each message
        ``per_message_bytes``.  A disabled model charges the bare payload
        in 0 packets.  One frame per send on the channel's hot path.
        """
        if payload_bytes < 0:
            raise ConfigurationError("payload_bytes cannot be negative")
        if not self.enabled:
            return 0, payload_bytes
        packets = -(-payload_bytes // self.mss) if payload_bytes else 1
        return (
            packets,
            payload_bytes + packets * self.header_bytes + self.per_message_bytes,
        )


class WireMessage:
    """An application-level message with a measurable payload size.

    ``kind`` distinguishes requests from responses (the Sniffer reports them
    separately).

    The class is ``__slots__``-based: one instance is built per send on the
    hot serve path, and slot storage keeps that allocation dict-free.
    """

    __slots__ = ("kind", "payload_bytes", "source", "destination", "trace")

    def __init__(
        self,
        kind: str,
        payload_bytes: int,
        source: str = "",
        destination: str = "",
        trace: Optional[object] = None,
    ) -> None:
        if kind not in ("request", "response"):
            raise ConfigurationError(
                "message kind must be 'request' or 'response', got %r" % kind
            )
        if payload_bytes < 0:
            raise ConfigurationError("payload_bytes cannot be negative")
        self.kind = kind
        self.payload_bytes = payload_bytes
        self.source = source
        self.destination = destination
        #: Trace context (:class:`repro.telemetry.TraceContext`) stamped by
        #: the sending channel when tracing is enabled; ``None`` otherwise.
        self.trace = trace

    def packets(self, overhead: Optional[ProtocolOverheadModel] = None) -> int:
        """Packets this message occupies on a link under an overhead model.

        Delegates to :meth:`ProtocolOverheadModel.packets_for`, which reads
        :meth:`~ProtocolOverheadModel.charge` — the single place the
        packetization arithmetic (including the zero-payload one-packet
        edge) lives.
        """
        model = overhead if overhead is not None else ProtocolOverheadModel()
        return model.packets_for(self.payload_bytes)

    def wire_bytes(self, overhead: Optional[ProtocolOverheadModel] = None) -> int:
        """Bytes this message occupies on a link under an overhead model."""
        model = overhead if overhead is not None else ProtocolOverheadModel()
        return model.wire_bytes_for(self.payload_bytes)

    def __eq__(self, other: object) -> bool:
        if type(other) is not WireMessage:
            return NotImplemented
        return (
            self.kind == other.kind
            and self.payload_bytes == other.payload_bytes
            and self.source == other.source
            and self.destination == other.destination
            and self.trace == other.trace
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "WireMessage(kind=%r, payload_bytes=%d, source=%r, destination=%r)" % (
            self.kind,
            self.payload_bytes,
            self.source,
            self.destination,
        )


def request_message(
    payload_bytes: int,
    source: str = "client",
    destination: str = "origin",
) -> WireMessage:
    """Convenience constructor for a request message."""
    return WireMessage("request", payload_bytes, source, destination)


def response_message(
    payload_bytes: int,
    source: str = "origin",
    destination: str = "client",
) -> WireMessage:
    """Convenience constructor for a response message."""
    return WireMessage("response", payload_bytes, source, destination)

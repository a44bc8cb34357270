"""Simulated point-to-point links with byte accounting and latency.

A :class:`Channel` models the link between two machines in the Figure 4
topology (e.g. Origin Site <-> External).  Sending a message:

1. packetizes it under the channel's :class:`ProtocolOverheadModel`, once,
2. hands its packets and wire bytes to every attached
   :class:`~repro.network.sniffer.Sniffer`,
3. returns the transfer time implied by the channel's bandwidth/latency,
   which the caller may add to a :class:`SimulatedClock`.

Channels are synchronous and — by default — lossless: the paper's testbed is
a quiet LAN; queueing and loss are not what its experiments measure.  The
fault-injection subsystem (:mod:`repro.faults`) can make a channel lossy or
slow through :meth:`Channel.add_fault` hooks, and partitions are modeled
with :meth:`Channel.close` / :meth:`Channel.reopen`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import ChannelClosed, ConfigurationError, NetworkError
from ..telemetry.tracing import NULL_TRACER, TraceContext
from .clock import SimulatedClock
from .message import ProtocolOverheadModel, WireMessage
from .sniffer import Sniffer


@dataclass
class LinkParameters:
    """Physical characteristics of a link.

    ``bandwidth_bytes_per_s`` of 0 means "infinitely fast" (transfer time is
    just the propagation latency); useful for tests that only count bytes.
    """

    latency_s: float = 0.0005  # one-way propagation delay (LAN-ish)
    bandwidth_bytes_per_s: float = 12_500_000.0  # 100 Mbit/s

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ConfigurationError("latency cannot be negative")
        if self.bandwidth_bytes_per_s < 0:
            raise ConfigurationError("bandwidth cannot be negative")

    def transfer_time(self, wire_bytes: int) -> float:
        """Seconds to move ``wire_bytes`` across this link.

        :meth:`Channel.send` computes the same sum inline, in the same
        float order, to stay one frame per message.
        """
        serialization = 0.0
        if self.bandwidth_bytes_per_s > 0:
            serialization = wire_bytes / self.bandwidth_bytes_per_s
        return self.latency_s + serialization


class Channel:
    """A monitored, bidirectional link between two named endpoints."""

    def __init__(
        self,
        name: str,
        endpoint_a: str,
        endpoint_b: str,
        link: Optional[LinkParameters] = None,
        overhead: Optional[ProtocolOverheadModel] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        self.name = name
        self.endpoint_a = endpoint_a
        self.endpoint_b = endpoint_b
        #: Precomputed endpoint set: membership is checked on every send.
        self._ends = frozenset((endpoint_a, endpoint_b))
        self.link = link if link is not None else LinkParameters()
        self.overhead = overhead if overhead is not None else ProtocolOverheadModel()
        self.clock = clock
        self._sniffers: List[Sniffer] = []
        self._faults: List[Callable[[WireMessage], Optional[float]]] = []
        self._closed = False
        self.messages_sent = 0
        self.messages_dropped = 0
        #: Tracer recording every send as a ``channel.transfer`` leaf.
        #: Defaults to the shared disabled tracer so sends stay cheap.
        self.tracer = NULL_TRACER

    # -- monitoring ---------------------------------------------------------

    def attach_sniffer(self, sniffer: Optional[Sniffer] = None) -> Sniffer:
        """Attach a sniffer (creating one if needed) and return it.

        The sniffer adopts this channel's overhead model so that its wire
        byte counts match what the channel charges.
        """
        if sniffer is None:
            sniffer = Sniffer(overhead=self.overhead)
        else:
            sniffer.overhead = self.overhead
        self._sniffers.append(sniffer)
        return sniffer

    def detach_sniffer(self, sniffer: Sniffer) -> None:
        """Stop a sniffer from observing this channel."""
        self._sniffers.remove(sniffer)

    # -- fault injection ----------------------------------------------------

    def add_fault(self, fault: Callable[[WireMessage], Optional[float]]) -> None:
        """Install a fault hook consulted on every send.

        A hook may raise a :class:`~repro.errors.NetworkError` subclass to
        drop the message (it never reaches the sniffers and is counted in
        ``messages_dropped``), or return a number of seconds of extra delay
        to model link degradation.  Returning ``None``/``0`` leaves the
        send untouched.
        """
        self._faults.append(fault)

    def remove_fault(self, fault: Callable[[WireMessage], Optional[float]]) -> None:
        """Uninstall a fault hook; unknown hooks are ignored (idempotent)."""
        if fault in self._faults:
            self._faults.remove(fault)

    # -- transmission -------------------------------------------------------

    def send(self, message: WireMessage) -> float:
        """Transmit a message and return the transfer time in seconds.

        The channel advances its clock (if it has one) by the transfer time,
        so latency accumulates naturally as a request/response exchange
        bounces over the topology.  Raises :class:`ChannelClosed` (a typed
        :class:`~repro.errors.NetworkError`) after :meth:`close`, and
        whatever a fault hook raises when an injected fault drops the
        message.

        Untraced and without fault hooks, a delivered message runs the
        endpoint check, the transfer-time arithmetic and the counting
        inline: beyond this frame it costs the overhead model's
        :meth:`~ProtocolOverheadModel.charge` (the one copy of the
        packetization formula), the clock advance and one
        :meth:`Sniffer.count` per attached sniffer.

        Traced, a send is one ``channel.transfer`` leaf around its clock
        advance (the tracer's clock is the channel's), and the message is
        stamped with that leaf's context.  A failed send is a 0-second leaf
        with status ``dropped`` (a fault hook's drop) or the error's name.
        """
        extra_delay = 0.0
        if (
            self._closed
            or self._faults
            or (
                message.source
                and message.destination
                and (
                    message.source not in self._ends
                    or message.destination not in self._ends
                )
            )
        ):
            extra_delay = self._screen(message)
        payload_bytes = message.payload_bytes
        packets, wire_bytes = self.overhead.charge(payload_bytes)
        kind = message.kind
        for sniffer in self._sniffers:
            sniffer.count(kind, payload_bytes, packets, wire_bytes)
        self.messages_sent += 1
        link = self.link
        serialization = 0.0
        if link.bandwidth_bytes_per_s > 0:
            serialization = wire_bytes / link.bandwidth_bytes_per_s
        elapsed = (link.latency_s + serialization) + extra_delay
        if self.tracer._enabled:
            self._trace(message, 0.0 if self.clock is None else elapsed)
        elif self.clock is not None:
            self.clock.advance(elapsed)
        return elapsed

    def _screen(self, message: WireMessage) -> float:
        """The slow half of :meth:`send`: a closed link, a misaddressed
        message or fault hooks.  Raises what the send must raise (tracing
        the failure) or returns the hooks' extra delay in seconds."""
        status = None
        extra_delay = 0.0
        try:
            if self._closed:
                raise ChannelClosed("channel %r is closed" % self.name)
            self._validate_endpoints(message)
            for fault in list(self._faults):
                try:
                    penalty = fault(message)
                except NetworkError:
                    self.messages_dropped += 1
                    status = "dropped"
                    raise
                if penalty:
                    extra_delay += penalty
        except BaseException as failure:
            if self.tracer._enabled:
                self._trace(message, 0.0, status or type(failure).__name__)
            raise
        return extra_delay

    def _trace(self, message: WireMessage, seconds: float, status: str = "ok") -> None:
        """Record the ``channel.transfer`` leaf and stamp the message with it."""
        span = self.tracer.leaf(
            "channel.transfer", seconds, status,
            {"channel": self.name, "kind": message.kind},
        )
        if message.trace is None:
            message.trace = TraceContext(span.trace_id, span)

    def _validate_endpoints(self, message: WireMessage) -> None:
        """Messages with named endpoints must match the channel's ends."""
        ends = self._ends
        if message.source and message.destination:
            if message.source not in ends or message.destination not in ends:
                raise ConfigurationError(
                    "message %s->%s does not belong on channel %r (%s<->%s)"
                    % (
                        message.source,
                        message.destination,
                        self.name,
                        self.endpoint_a,
                        self.endpoint_b,
                    )
                )

    def close(self) -> None:
        """Close the channel; further sends raise :class:`ChannelClosed`."""
        self._closed = True

    def reopen(self) -> None:
        """Heal a partition: sends succeed again after a :meth:`close`."""
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether the channel has been closed."""
        return self._closed

    def metric_rows(self) -> List[tuple]:
        """Registry rows: delivery and drop counts under ``channel.*``."""
        return [
            ("channel.messages_sent", self.messages_sent),
            ("channel.messages_dropped", self.messages_dropped),
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Channel(%r, %s<->%s, sent=%d)" % (
            self.name,
            self.endpoint_a,
            self.endpoint_b,
            self.messages_sent,
        )

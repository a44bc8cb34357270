"""Cache coherency across distributed forward-proxy DPCs (§7 extension).

With multiple DPCs "multiple copies of a particular fragment may reside on
different dynamic proxy caches...  Some mechanism must be in place to ensure
that correct responses are served to end users from the caching system."

The reproduction keeps the paper's single-BEM architecture: the origin's
BEM remains the sole authority over validity, holding one cache directory
*per proxy* (fragment copies on different proxies are independent entries
with independent dpcKeys).  Coherency then reduces to fanning every
invalidation out to all per-proxy directories, and the dpcKey trick still
eliminates explicit BEM->DPC messages — an invalidated copy is simply
overwritten by the next SET routed to that proxy.

:class:`ProxyGroup` owns the per-proxy (BEM, DPC) pairs and the fan-out.
``coherency_messages`` counts the logical invalidation fan-out so the
scalability bench can chart coherency traffic against the proxy count.

A deployment may route the fan-out over a real (fault-injectable) control
channel via :meth:`ProxyGroup.use_control_plane`, optionally retried by a
:class:`repro.faults.retry.ReliableDelivery` policy.  When delivery to a
member dead-letters, the group falls back to the only safe action — flush
that member's directory — so a lost invalidation can degrade hit ratio but
can never cause a stale fragment to be served.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..database.triggers import TriggerBus
from ..errors import ConfigurationError, FaultError, NetworkError
from ..network.channel import Channel
from ..network.clock import SimulatedClock
from ..network.message import request_message
from .bem import BackEndMonitor
from .dpc import DynamicProxyCache
from .replacement import make_policy
from .template import DEFAULT_CONFIG, TemplateConfig

#: Payload size of one logical invalidation message on the control plane
#: (fragment identity plus framing; sized like a small HTTP control call).
INVALIDATION_MESSAGE_BYTES = 64


class ProxyGroup:
    """A set of named forward proxies sharing one origin BEM authority.

    ``policy_name`` names each member directory's replacement policy (see
    :func:`~repro.core.replacement.make_policy`); ``None`` keeps the
    directory's default, as for a lone BEM.
    """

    def __init__(
        self,
        capacity_per_proxy: int = 1024,
        clock: Optional[SimulatedClock] = None,
        template_config: TemplateConfig = DEFAULT_CONFIG,
        policy_name: Optional[str] = None,
    ) -> None:
        self.clock = clock if clock is not None else SimulatedClock()
        self.capacity = capacity_per_proxy
        self.template_config = template_config
        self.policy_name = policy_name
        self._members: Dict[str, Tuple[BackEndMonitor, DynamicProxyCache]] = {}
        self._buses: List[TriggerBus] = []
        self.coherency_messages = 0
        self.control_channel: Optional[Channel] = None
        self.delivery = None  # duck-typed: .deliver(send_fn), e.g. ReliableDelivery
        self.dead_letter_flushes = 0

    # -- membership ----------------------------------------------------------------

    def add_proxy(self, name: str) -> Tuple[BackEndMonitor, DynamicProxyCache]:
        """Add an edge proxy: a fresh (BEM, DPC) pair."""
        if name in self._members:
            raise ConfigurationError("proxy %r already in group" % name)
        bem = BackEndMonitor(
            capacity=self.capacity,
            clock=self.clock,
            policy=(
                make_policy(self.policy_name) if self.policy_name is not None else None
            ),
            template_config=self.template_config,
        )
        for bus in self._buses:
            bem.attach_database(bus)
        dpc = DynamicProxyCache(
            capacity=self.capacity, template_config=self.template_config, name=name
        )
        self._members[name] = (bem, dpc)
        return bem, dpc

    def remove_proxy(self, name: str) -> None:
        """Remove a proxy and detach its invalidation wiring."""
        if name not in self._members:
            raise ConfigurationError("proxy %r not in group" % name)
        bem, _ = self._members.pop(name)
        bem.invalidation.detach_all()

    def member(self, name: str) -> Tuple[BackEndMonitor, DynamicProxyCache]:
        """The (BEM, DPC) pair for a proxy name."""
        try:
            return self._members[name]
        except KeyError:
            raise ConfigurationError("proxy %r not in group" % name) from None

    def names(self) -> List[str]:
        """All member proxy names, sorted."""
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)

    # -- coherency ----------------------------------------------------------------

    def attach_database(self, bus: TriggerBus) -> None:
        """Every member BEM directory observes the data source directly.

        Each database change reaches every per-proxy directory; the
        message count models the invalidation fan-out a distributed
        deployment would pay on its control plane.
        """
        self._buses.append(bus)
        for bem, _ in self._members.values():
            bem.attach_database(bus)
        bus.subscribe(self._count_fanout)

    def _count_fanout(self, event) -> None:
        self.coherency_messages += len(self._members)

    def use_control_plane(self, channel: Channel, delivery=None) -> None:
        """Route explicit invalidation fan-out over a real channel.

        ``delivery`` is an optional retry wrapper (duck-typed: it must offer
        ``deliver(send_fn)`` and raise on exhaustion, e.g.
        :class:`repro.faults.retry.ReliableDelivery`).  Without one, a
        single failed send immediately dead-letters.
        """
        self.control_channel = channel
        self.delivery = delivery

    def _deliver_control(self) -> bool:
        """One control-plane invalidation message; True if it got through."""
        if self.control_channel is None:
            return True
        send = lambda: self.control_channel.send(  # noqa: E731 - tiny thunk
            request_message(INVALIDATION_MESSAGE_BYTES)
        )
        try:
            if self.delivery is not None:
                self.delivery.deliver(send)
            else:
                send()
            return True
        except (NetworkError, FaultError):
            return False

    def _dead_letter(self, bem: BackEndMonitor) -> None:
        """Invalidation lost for a member: the only safe fallback is to
        flush that member's directory, trading hit ratio for correctness."""
        bem.flush()
        self.dead_letter_flushes += 1

    def invalidate_fragment(self, name: str, params=None) -> int:
        """Explicit invalidation broadcast to every proxy's directory."""
        invalidated = 0
        for bem, _ in self._members.values():
            self.coherency_messages += 1
            if self._deliver_control():
                if bem.invalidate_fragment(name, params):
                    invalidated += 1
            else:
                self._dead_letter(bem)
        return invalidated

    def invalidate_block(self, name: str) -> int:
        """Broadcast block-wide invalidation to every proxy."""
        invalidated = 0
        for bem, _ in self._members.values():
            self.coherency_messages += 1
            if self._deliver_control():
                invalidated += bem.invalidate_block(name)
            else:
                self._dead_letter(bem)
        return invalidated

    def flush_all(self) -> int:
        """Flush every proxy's directory, objects, and slots."""
        flushed = 0
        for name, (bem, dpc) in self._members.items():
            flushed += bem.flush()
            dpc.clear()
            self.coherency_messages += 1
        return flushed

    # -- reporting ------------------------------------------------------------------

    def group_hit_ratio(self) -> float:
        """Hit ratio aggregated over all member BEMs."""
        hits = sum(bem.stats.fragment_hits for bem, _ in self._members.values())
        misses = sum(bem.stats.fragment_misses for bem, _ in self._members.values())
        total = hits + misses
        if total == 0:
            return 0.0
        return hits / total

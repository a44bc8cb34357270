"""Simulated network substrate: clock, messages, links, firewall, sniffer.

This package replaces the paper's physical testbed plumbing (LAN, ISA Server
firewall, Sniffer monitor) with deterministic, byte-exact models.  See
DESIGN.md §2 for the substitution rationale.
"""

from .channel import Channel, LinkParameters
from .clock import EventQueue, SimulatedClock
from .firewall import (
    DEFAULT_SCAN_COST_PER_BYTE,
    Firewall,
    dpc_is_preferable,
    scan_cost_no_cache,
    scan_cost_with_cache,
)
from .latency import FREE, GenerationCostModel
from .message import (
    DEFAULT_HEADER_BYTES,
    DEFAULT_MSS,
    ProtocolOverheadModel,
    WireMessage,
    request_message,
    response_message,
)
from .sniffer import Sniffer, TrafficCounters

__all__ = [
    "Channel",
    "LinkParameters",
    "SimulatedClock",
    "EventQueue",
    "Firewall",
    "DEFAULT_SCAN_COST_PER_BYTE",
    "dpc_is_preferable",
    "scan_cost_no_cache",
    "scan_cost_with_cache",
    "GenerationCostModel",
    "FREE",
    "ProtocolOverheadModel",
    "WireMessage",
    "request_message",
    "response_message",
    "DEFAULT_MSS",
    "DEFAULT_HEADER_BYTES",
    "Sniffer",
    "TrafficCounters",
]

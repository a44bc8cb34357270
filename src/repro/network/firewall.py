"""Firewall scan-cost model (Section 5's comparative analysis).

The paper charges a per-byte cost ``y`` for the firewall to scan traffic,
and observes that the DPC must *also* scan every response byte for tags
(linear-time KMP matching), at a per-byte cost ``z ~= y``.  Hence:

    scanCost_NC = B_NC * y          (firewall only)
    scanCost_C  = B_C  * (y + z)  ~= B_C * 2y

Result 1: the dynamic proxy cache wins on scan cost iff B_NC > 2 * B_C.

:class:`Firewall` meters bytes it scans; :class:`ScanCostMeter` aggregates
firewall and DPC scanning so experiments can report the Figure 3(a) / 6
"firewall savings" curve from measured traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .message import WireMessage

#: Default per-byte scan cost, in seconds.  The absolute value is arbitrary
#: (the paper's figures are percentages); 10 ns/byte is a plausible order of
#: magnitude for 2002-era packet filtering.
DEFAULT_SCAN_COST_PER_BYTE = 1e-8


@dataclass
class Firewall:
    """A per-byte scanning device on the site perimeter.

    Every message routed through the site crosses the firewall regardless of
    whether the DPC is deployed; what changes with the DPC is *how many
    bytes* cross it, plus the extra tag-scanning pass.
    """

    name: str = "firewall"
    scan_cost_per_byte: float = DEFAULT_SCAN_COST_PER_BYTE
    bytes_scanned: int = 0
    messages_scanned: int = 0

    def __post_init__(self) -> None:
        if self.scan_cost_per_byte < 0:
            raise ConfigurationError("scan cost cannot be negative")

    def scan(self, message: WireMessage) -> float:
        """Scan a message; returns the time spent scanning (seconds)."""
        return self.scan_bytes(message.payload_bytes)

    def scan_bytes(self, nbytes: int) -> float:
        """Scan one message of ``nbytes`` bytes (when no message object
        exists); returns the time spent scanning (seconds)."""
        if nbytes < 0:
            raise ConfigurationError("cannot scan a negative byte count")
        self.bytes_scanned += nbytes
        self.messages_scanned += 1
        return nbytes * self.scan_cost_per_byte

    @property
    def total_scan_cost(self) -> float:
        """Seconds spent scanning so far (bytes x per-byte cost)."""
        return self.bytes_scanned * self.scan_cost_per_byte

    def reset(self) -> None:
        """Zero the scan counters."""
        self.bytes_scanned = 0
        self.messages_scanned = 0

    def metric_rows(self) -> list:
        """Registry rows: scan work under ``firewall.*``."""
        return [
            ("firewall.bytes_scanned", self.bytes_scanned),
            ("firewall.messages_scanned", self.messages_scanned),
        ]


@dataclass
class ScanCostMeter:
    """Aggregates scanning work for the Section 5 cost comparison.

    ``firewall_bytes`` are scanned once at cost ``y``/byte; ``dpc_bytes``
    (template bytes the DPC scans for tags) are scanned at cost ``z``/byte.
    The paper sets z == y; both are configurable so the assumption itself
    can be stress-tested (see the ablation benches).
    """

    y_per_byte: float = DEFAULT_SCAN_COST_PER_BYTE
    z_per_byte: float = DEFAULT_SCAN_COST_PER_BYTE
    firewall_bytes: int = 0
    dpc_bytes: int = 0
    _extra: dict = field(default_factory=dict)

    def charge_firewall(self, nbytes: int) -> None:
        """Account bytes scanned by the firewall (cost y/byte)."""
        self.firewall_bytes += nbytes

    def charge_dpc_scan(self, nbytes: int) -> None:
        """Account bytes scanned by the DPC for tags (cost z/byte)."""
        self.dpc_bytes += nbytes

    @property
    def total_cost(self) -> float:
        """Combined scan cost across firewall and DPC passes."""
        return self.firewall_bytes * self.y_per_byte + self.dpc_bytes * self.z_per_byte

    def reset(self) -> None:
        """Zero both byte counters."""
        self.firewall_bytes = 0
        self.dpc_bytes = 0


def scan_cost_no_cache(b_nc: float, y: float = 1.0) -> float:
    """Equation (1): scanCost_NC = B_NC * y."""
    return b_nc * y


def scan_cost_with_cache(b_c: float, y: float = 1.0, z: float = None) -> float:
    """Equation (2): scanCost_C = B_C * (y + z), with z defaulting to y."""
    if z is None:
        z = y
    return b_c * (y + z)


def dpc_is_preferable(b_nc: float, b_c: float) -> bool:
    """Result 1: use the DPC iff B_NC > 2 * B_C (with z == y)."""
    return b_nc > 2.0 * b_c

"""The drop ledger: no request vanishes without a row.

Every rejection path in the overload-protected pipeline — queue full,
deadline exceeded, breaker open, policy shed, messages dropped in flight —
increments a *named* counter here.  The ledger pre-registers every known
reason at zero so reports always show the full set of ways a request can
die, and a conservation check proves the outcome classes tile the admitted
traffic exactly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import ConfigurationError

#: Every rejection reason the pipeline can produce.  Pre-registered so a
#: report table always carries one row per path, zeros included.
DROP_REASONS = (
    "queue_full",          # bounded queue at capacity
    "deadline_exceeded",   # deadline blown, no stale fallback
    "breaker_open",        # brown-out, no stale page available
    "policy_shed",         # admission control refused, no stale fallback
    "messages_dropped",    # lost in flight on a channel
)


class DropLedger:
    """Named counters for every way a request can fail to get a page."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {reason: 0 for reason in DROP_REASONS}

    def record(self, reason: str, count: int = 1) -> None:
        """Count ``count`` drops under ``reason`` (must be pre-registered)."""
        if reason not in self._counts:
            raise ConfigurationError(
                "unknown drop reason %r (have %s)" % (reason, sorted(self._counts))
            )
        if count < 0:
            raise ConfigurationError("drop count cannot be negative")
        self._counts[reason] += count

    def count(self, reason: str) -> int:
        """Drops recorded under one reason."""
        if reason not in self._counts:
            raise ConfigurationError("unknown drop reason %r" % reason)
        return self._counts[reason]

    def sync_channel(self, channel) -> None:
        """Adopt a channel's ``messages_dropped`` as the in-flight count.

        Idempotent: the ledger mirrors the channel's counter rather than
        accumulating it, so it can be called once per snapshot.
        """
        self._counts["messages_dropped"] = channel.messages_dropped

    @property
    def total(self) -> int:
        """All drops, across every reason."""
        return sum(self._counts.values())

    def rows(self) -> List[Tuple[str, int]]:
        """(reason, count) rows in registration order — zeros included."""
        return [(reason, self._counts[reason]) for reason in DROP_REASONS]

    def metric_rows(self) -> List[Tuple[str, object]]:
        """Registry rows: one ``overload.drops.*`` counter per reason."""
        rows: List[Tuple[str, object]] = [
            ("overload.drops.%s" % reason, count) for reason, count in self.rows()
        ]
        rows.append(("overload.drops.total", self.total))
        return rows

"""The dotted metric-name scheme and the canonical name list.

Every metric the reproduction publishes lives in one flat, dotted
namespace: ``<subsystem>.<counter>`` (``bem.fragment_hits``,
``overload.drops.queue_full``).  The scheme is enforced at registration
time by :func:`validate_metric_name`, and the canonical set of names a
deployment snapshot can emit is published as :data:`METRIC_NAMES` so tools
(and the lint test under ``tests/telemetry``) can reject ad-hoc strings
before they ossify into accidental API.

Name normalization (PR 3) renamed one legacy row, ``objects.memoized`` →
``bem.objects.memoized``; the deprecation alias that let the old spelling
resolve was removed after one deprecation cycle, so only the canonical
name exists now.
"""

from __future__ import annotations

import re

from ..errors import ConfigurationError

#: Lowercase dotted names: at least two segments, each ``[a-z0-9_]+``,
#: first segment starting with a letter.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

#: Miss causes mirrored from :data:`repro.insight.ledger.MISS_CAUSES`.
#: Kept literal here (rather than imported) so the telemetry package stays
#: import-independent of the insight subsystem; a test asserts the two
#: stay in sync.
_MISS_CAUSES = (
    "cold",
    "ttl_expired",
    "data_invalidated",
    "evicted_capacity",
    "shed_overload",
    "fault_quarantine",
)

#: Rejection reasons mirrored from :data:`repro.overload.accounting.DROP_REASONS`.
#: Kept literal here (rather than imported) so the telemetry package stays
#: import-independent of the overload subsystem; a test asserts the two
#: stay in sync.
_DROP_REASONS = (
    "queue_full",
    "deadline_exceeded",
    "breaker_open",
    "policy_shed",
    "messages_dropped",
)

#: Every metric name a :func:`repro.harness.monitoring.take_snapshot` can
#: emit, in canonical (collection) order.
METRIC_NAMES = (
    # -- BEM (back end monitor) ------------------------------------------
    "bem.epoch",
    "bem.blocks_processed",
    "bem.fragment_hits",
    "bem.fragment_misses",
    "bem.hit_ratio",
    "bem.bytes_generated",
    "bem.bytes_served_from_dpc",
    "directory.valid_entries",
    "directory.capacity",
    "directory.utilization",
    "directory.evictions",
    "directory.invalidations",
    "directory.ttl_expirations",
    "invalidation.fragments_invalidated",
    "bem.objects.memoized",
    # -- DPC (dynamic proxy cache) ---------------------------------------
    "dpc.epoch",
    "dpc.responses_processed",
    "dpc.template_bytes_in",
    "dpc.page_bytes_out",
    "dpc.bytes_saved",
    "dpc.byte_savings_ratio",
    "dpc.fragments_set",
    "dpc.fragments_get",
    "dpc.slots_occupied",
    "dpc.capacity",
    "dpc.bytes_scanned",
    # -- perimeter and links ---------------------------------------------
    "firewall.bytes_scanned",
    "firewall.messages_scanned",
    "link.request_payload_bytes",
    "link.response_payload_bytes",
    "link.total_wire_bytes",
    "channel.messages_sent",
    "channel.messages_dropped",
    # -- database ---------------------------------------------------------
    "db.rows_read",
    "db.tables",
    # -- fault recovery (repro.faults) ------------------------------------
    "recovery.synced_epoch",
    "recovery.dpc_epoch",
    "recovery.epoch_resyncs",
    "recovery.anti_entropy_sweeps",
    "recovery.entries_dropped",
    "recovery.slot_mismatches",
    "recovery.discipline_repairs",
    "recovery.keys_reclaimed",
    "recovery.quarantined_sets",
    # -- overload protection (repro.overload) ------------------------------
    tuple("overload.drops.%s" % reason for reason in _DROP_REASONS),
    "overload.drops.total",
    "overload.breaker.opens",
    "overload.breaker.closes",
    "overload.breaker.probes",
    "overload.breaker.refused",
    # -- the telemetry layer itself ----------------------------------------
    "trace.spans_opened",
    "trace.traces_completed",
    # -- cache insight (repro.insight) --------------------------------------
    tuple("insight.miss.%s" % cause for cause in _MISS_CAUSES),
    "insight.miss.total",
    "insight.hits",
    "insight.accesses",
    "insight.mattson.accesses",
    "insight.mattson.distinct_fragments",
    "insight.mattson.cold_misses",
    "insight.mattson.stale_misses",
    "insight.eviction.victims",
    "insight.eviction.mean_idle_s",
    "insight.dpc.wipes",
    # -- SLO engine (repro.insight.slo) -------------------------------------
    "slo.objectives",
    "slo.samples",
    "slo.alerts_fired",
    "slo.alerts_active",
)
# Flatten the nested drop-reason tuple while preserving order.
METRIC_NAMES = tuple(
    name
    for entry in METRIC_NAMES
    for name in (entry if isinstance(entry, tuple) else (entry,))
)


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` follows the dotted lowercase scheme."""
    return bool(METRIC_NAME_RE.match(name))


def validate_metric_name(name: str) -> str:
    """Return ``name`` if well-formed, else raise ConfigurationError."""
    if not valid_metric_name(name):
        raise ConfigurationError(
            "metric name %r does not follow the dotted scheme "
            "(lowercase segments joined by '.', at least two)" % (name,)
        )
    return name

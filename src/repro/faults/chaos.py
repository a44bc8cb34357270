"""Chaos harness: a Figure 4 testbed run under a fault schedule.

Replays a seeded workload through the testbed's Figure 4 path
(:class:`~repro.harness.testbed.Figure4Path`) while a
:class:`~repro.faults.injectors.FaultSchedule` crashes the DPC, partitions
or degrades the origin link, drops messages, and corrupts directory
bookkeeping.  The harness holds the line on the assembly-correctness
invariant (DESIGN.md §6 invariant #1): every delivered page is checked
against the caching-disabled oracle, and any mismatch is counted as an
incorrect page — the chaos acceptance bar is that this count stays zero
under every fault scenario.

Fault handling per request:

* proxy down → the paper's graceful degradation (BEM bypass: serve fully
  dynamic, full-page bytes on the origin link) or, if bypass is disabled,
  a typed failure;
* transport errors → retried under a seeded
  :class:`~repro.faults.retry.RetryPolicy`; a dead-lettered response
  quarantines its unconfirmed SETs (so a recycled slot can never serve a
  predecessor's bytes) and fails the request rather than serve wrongly;
* ``AssemblyError`` (fail-stop desync) → the
  :class:`~repro.faults.recovery.ResyncProtocol` runs, then the request is
  retried once through the normal path.

The run emits a deterministic time-series of per-bucket hit ratio and
origin-link bytes, from which :func:`summarize_recovery` derives recovery
time and hit-ratio dip/re-climb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.dpc import AssembledPage
from ..errors import (
    AssemblyError,
    ConfigurationError,
    DeliveryTimeoutError,
    NetworkError,
    ProxyUnavailableError,
    RecoveryError,
)
from ..harness.testbed import Testbed, TestbedConfig
from ..network import WireMessage
from .degradation import DegradationStats, GracefulDegrader
from .injectors import FaultContext, FaultInjector, FaultSchedule
from .recovery import RecoveryEvent, RecoveryStats, ResyncProtocol
from .retry import DeliveryStats, ReliableDelivery, RetryPolicy


@dataclass
class ChaosConfig:
    """One chaos run: a testbed configuration plus a fault schedule."""

    testbed: TestbedConfig = field(default_factory=lambda: TestbedConfig(mode="dpc"))
    faults: List[FaultInjector] = field(default_factory=list)
    #: Time-series resolution: requests per bucket.
    bucket_requests: int = 100
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: The paper's fallback: serve fully dynamic while the DPC is down.
    #: With it off, downtime requests fail (for availability comparisons).
    bypass_when_down: bool = True
    #: Check every assembled page against the no-cache oracle.
    check_correctness: bool = True
    seed: int = 7

    def __post_init__(self) -> None:
        if self.testbed.mode != "dpc":
            raise ConfigurationError("chaos harness requires mode='dpc'")
        if self.bucket_requests <= 0:
            raise ConfigurationError("bucket_requests must be positive")


@dataclass
class ChaosBucket:
    """One time-series point: counters over ``bucket_requests`` requests."""

    index: int
    start_request: int
    start_time: float
    requests: int = 0
    hits: int = 0
    misses: int = 0
    wire_bytes: int = 0
    bypassed: int = 0
    failed: int = 0
    incorrect: int = 0
    recoveries: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fragment hit ratio over this bucket's cacheable accesses."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


@dataclass
class ChaosResult:
    """Everything one chaos run measured."""

    requests: int
    warmup_requests: int
    buckets: List[ChaosBucket] = field(default_factory=list)
    pages_checked: int = 0
    incorrect_pages: int = 0
    recovered_requests: int = 0
    recovery_events: List[RecoveryEvent] = field(default_factory=list)
    recovery: Optional[RecoveryStats] = None
    degradation: Optional[DegradationStats] = None
    delivery: Optional[DeliveryStats] = None
    messages_dropped: int = 0

    @property
    def bypassed_requests(self) -> int:
        """Requests served fully dynamic because the DPC was unreachable."""
        return self.degradation.bypassed_requests if self.degradation else 0

    @property
    def failed_requests(self) -> int:
        """Requests that could not be served at all."""
        return self.degradation.failed_requests if self.degradation else 0

    def series(self) -> List[Tuple[float, float, int]]:
        """The time-series as (start_time, hit_ratio, wire_bytes) rows."""
        return [(b.start_time, b.hit_ratio, b.wire_bytes) for b in self.buckets]


@dataclass
class RecoverySummary:
    """Recovery metrics derived from a chaos time-series."""

    steady_hit_ratio: float
    dip_hit_ratio: float
    recovered_at: Optional[float]
    recovery_time_s: Optional[float]

    @property
    def recovered(self) -> bool:
        """Whether the hit ratio re-climbed to within tolerance."""
        return self.recovered_at is not None


def summarize_recovery(
    result: ChaosResult, fault_at: float, tolerance: float = 0.05
) -> RecoverySummary:
    """Derive crash → dip → re-climb metrics from the bucket series.

    ``steady`` is the aggregate hit ratio of complete post-warmup buckets
    that ended before ``fault_at``; recovery is the first bucket at or
    after ``fault_at`` whose hit ratio is back within ``tolerance`` of
    steady state.
    """
    pre = [
        b
        for b in result.buckets
        if b.start_request >= result.warmup_requests and b.start_time < fault_at
    ]
    pre_hits = sum(b.hits for b in pre)
    pre_total = pre_hits + sum(b.misses for b in pre)
    steady = pre_hits / pre_total if pre_total else 0.0
    post = [b for b in result.buckets if b.start_time >= fault_at]
    dip = min((b.hit_ratio for b in post), default=steady)
    recovered_at = None
    for bucket in post:
        if bucket.hit_ratio >= steady - tolerance:
            recovered_at = bucket.start_time
            break
    return RecoverySummary(
        steady_hit_ratio=steady,
        dip_hit_ratio=dip,
        recovered_at=recovered_at,
        recovery_time_s=None if recovered_at is None else recovered_at - fault_at,
    )


class ChaosHarness:
    """Runs one workload under one fault schedule and measures the damage."""

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self.testbed = Testbed(config.testbed)
        self.resync = ResyncProtocol(self.testbed.monitor, self.testbed.dpc)
        self.degrader = GracefulDegrader(bem=self.testbed.monitor)
        self.delivery = ReliableDelivery(
            config.retry,
            clock=self.testbed.clock,
            seed=config.seed,
            tracer=self.testbed.tracer,
        )
        self.schedule = FaultSchedule(config.faults)
        self.context = FaultContext(
            clock=self.testbed.clock,
            bem=self.testbed.monitor,
            dpc=self.testbed.dpc,
            channel=self.testbed.origin_link,
        )
        self._current: Optional[ChaosBucket] = None
        self._marks = (0, 0, 0)
        # Every origin-link message goes through the retry policy, and the
        # schedule fires at each arrival ahead of any later hook.
        self.testbed.path.transfer = self._transfer
        self.testbed.pre_request_hooks.append(self._tick_faults)

    # -- the run loop --------------------------------------------------------

    def run(self) -> ChaosResult:
        """Replay the workload under the fault schedule."""
        tb, config = self.testbed, self.config
        total = config.testbed.warmup_requests + config.testbed.requests
        workload = tb.build_workload().materialize(total)
        result = ChaosResult(
            requests=total, warmup_requests=config.testbed.warmup_requests
        )

        for index, timed in enumerate(workload):
            if index % config.bucket_requests == 0:
                self._open_bucket(result, index)
            tb.arrive(index, timed)
            bucket = self._current
            try:
                html, kind = self._serve(timed.request, bucket)
            except ProxyUnavailableError:
                self.degrader.record_failure()
                html, kind = None, "failed"
            self._account(result, bucket, timed.request, html, kind)

        self._close_bucket(result)
        result.recovery_events = list(self.resync.stats.events)
        result.recovery = self.resync.stats
        result.degradation = self.degrader.stats
        result.delivery = self.delivery.stats
        result.messages_dropped = tb.origin_link.messages_dropped
        return result

    # -- per-request fault-aware pipeline ------------------------------------

    def _serve(self, request, bucket: ChaosBucket) -> Tuple[Optional[str], str]:
        """One request under faults, beneath a trace root.

        The whole fault-aware pipeline — bypass, retries, fail-stop
        recovery — runs inside one ``request`` span annotated with how the
        page was ultimately produced; a request that fails outright leaves
        a root whose status records the escaping error.
        """
        with self.testbed.tracer.request_span(request, harness="chaos") as root:
            html, kind = self._serve_inner(request, bucket)
            root.annotate(kind=kind, epoch=self.testbed.monitor.epoch)
            return html, kind

    def _serve_inner(
        self, request, bucket: ChaosBucket
    ) -> Tuple[Optional[str], str]:
        tb = self.testbed
        if self.schedule.proxy_down(tb.clock.now()):
            if not self.config.bypass_when_down:
                raise ProxyUnavailableError("DPC down and bypass disabled")
            try:
                return self._serve_bypass(request), "bypass"
            except (NetworkError, DeliveryTimeoutError):
                self.degrader.record_failure()
                return None, "failed"
        try:
            assembled = self._serve_assembled(request)
        except AssemblyError:
            # Fail-stop tripped: the directory references slots the DPC no
            # longer holds.  Run recovery, then retry the request once.
            with tb.tracer.span("faults.recover", trigger="assembly_error"):
                self.resync.recover(tb.clock.now())
            bucket.recoveries += 1
            try:
                assembled = self._serve_assembled(request)
            except AssemblyError as exc:
                raise RecoveryError(
                    "assembly still failing after recovery: %s" % exc
                ) from exc
            except (NetworkError, DeliveryTimeoutError):
                self.degrader.record_failure()
                return None, "failed"
            return assembled.html, "recovered"
        except (NetworkError, DeliveryTimeoutError):
            self.degrader.record_failure()
            return None, "failed"
        # Epoch detection on normal returning traffic.
        if self.resync.observe_epoch(assembled.epoch, tb.clock.now()) is not None:
            bucket.recoveries += 1
        return assembled.html, "assembled"

    def _tick_faults(self, testbed: Testbed, index: int, timed) -> None:
        """Pre-request hook: fire the fault transitions due at this arrival."""
        self.schedule.tick(self.context, testbed.clock.now())

    def _transfer(self, message: WireMessage) -> float:
        """The path's link transfer, retried under the seeded policy."""
        link = self.testbed.origin_link
        return self.delivery.deliver(lambda: link.send(message))

    def _serve_assembled(self, request) -> AssembledPage:
        """Both legs of the testbed path with fault-aware transfers."""
        path = self.testbed.path
        response = path.inbound(request)
        try:
            return path.outbound(response.payload_bytes, response.body)
        except (NetworkError, DeliveryTimeoutError):
            # The template never reached the proxy: every SET on it is
            # unconfirmed and must be quarantined, or a recycled slot could
            # later serve a predecessor fragment's bytes.
            self.resync.quarantine_undelivered(response.body, self.testbed.clock.now())
            raise

    def _serve_bypass(self, request) -> str:
        """The paper's fallback: origin generates the full page, uncached."""
        path = self.testbed.path
        html = path.inbound(request, origin=self.testbed.render_oracle)
        page_bytes = len(html.encode("utf-8"))
        path.outbound(page_bytes, html, bypass=True)
        self.degrader.record_bypass(page_bytes)
        return html

    # -- accounting ----------------------------------------------------------

    def _account(self, result, bucket, request, html, kind) -> None:
        bucket.requests += 1
        if kind == "bypass":
            bucket.bypassed += 1
            return
        if kind == "failed":
            bucket.failed += 1
            return
        if kind == "recovered":
            result.recovered_requests += 1
        if self.config.check_correctness:
            result.pages_checked += 1
            if html != self.testbed.render_oracle(request):
                result.incorrect_pages += 1
                bucket.incorrect += 1

    def _open_bucket(self, result: ChaosResult, index: int) -> None:
        self._close_bucket(result)
        stats = self.testbed.monitor.stats
        self._marks = (
            stats.fragment_hits,
            stats.fragment_misses,
            self.testbed.sniffer.total_wire_bytes,
        )
        self._current = ChaosBucket(
            index=len(result.buckets),
            start_request=index,
            start_time=self.testbed.clock.now(),
        )

    def _close_bucket(self, result: ChaosResult) -> None:
        if self._current is None:
            return
        stats = self.testbed.monitor.stats
        hits0, misses0, wire0 = self._marks
        bucket = self._current
        bucket.hits = stats.fragment_hits - hits0
        bucket.misses = stats.fragment_misses - misses0
        bucket.wire_bytes = self.testbed.sniffer.total_wire_bytes - wire0
        result.buckets.append(bucket)
        self._current = None


def run_chaos(config: ChaosConfig) -> ChaosResult:
    """Convenience one-shot: build the harness, run it, return the result."""
    return ChaosHarness(config).run()

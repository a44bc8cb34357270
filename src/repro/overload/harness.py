"""Overload harness: a Figure 4 testbed run through a flash crowd.

Replays a seeded workload — typically a
:class:`~repro.workload.arrivals.FlashCrowdProcess` burst — through the
testbed's arrival step and Figure 4 path
(:meth:`~repro.harness.testbed.Testbed.serve_once`) with the
overload-protection machinery armed:

* bounded c-server queues in front of the application server and the DBMS
  connection pool (:mod:`repro.overload.queues`), so virtual generation
  time includes queueing delay and saturation produces queue-full
  rejections instead of free service;
* per-request deadlines stamped by the workload generator and propagated
  end to end; a page delivered past its deadline is not a success;
* admission control (:mod:`repro.overload.admission`) and a circuit
  breaker (:mod:`repro.overload.breaker`) applied **only to origin-bound
  misses** — a predicted cache hit is never consulted against either,
  which is the structural form of the "hits are never shed" guarantee;
* page-granularity brown-out serving from a
  :class:`~repro.overload.stale.StalePageCache`, and fragment-granularity
  stale-on-late through the BEM's degrader hook
  (:meth:`repro.core.bem.BackEndMonitor.process_block`).

Every request ends in exactly one of four outcomes — ``fresh``, ``stale``,
``shed``, ``timed_out`` — and the run verifies the conservation law
``fresh + stale + shed + timed_out == offered`` plus a
:class:`~repro.overload.accounting.DropLedger` row for every rejection
path.  Fresh pages are oracle-checked against the caching-disabled
reference; stale pages are counted as correctness *exposure* (never
re-stored, so staleness cannot compound) rather than checked, exactly as
the fault subsystem treats stale fragment bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Tuple

from ..core.fragments import FragmentID
from ..errors import ConfigurationError, DeadlineExceededError, QueueFullError
from ..faults.degradation import DegradationStats, GracefulDegrader
from ..harness.replay import CounterMarks
from ..harness.testbed import Testbed, TestbedConfig
from ..telemetry.stats import percentile
from .accounting import DropLedger
from .admission import AdmissionPolicy
from .breaker import CircuitBreaker
from .queues import BoundedQueue, QueueStats
from .stale import StaleCacheStats, StalePageCache

OUTCOMES = ("fresh", "stale", "shed", "timed_out")


@dataclass
class OverloadConfig:
    """One overload run: a testbed plus the protection machinery's knobs."""

    testbed: TestbedConfig = field(default_factory=lambda: TestbedConfig(mode="dpc"))
    #: Application-server bank: parallel servers and waiting-room size.
    app_servers: int = 2
    app_queue_capacity: int = 32
    #: DBMS connection pool in front of the database share of generation.
    db_servers: int = 4
    db_queue_capacity: int = 64
    #: Fraction of the app waiting room reserved for priority (predicted
    #: cache-hit) arrivals; 0 gives plain FIFO.
    reserve_fraction: float = 0.25
    #: Relative per-request deadline (copied onto the testbed config so the
    #: workload generator stamps it); ``None`` disables deadlines.
    deadline_s: Optional[float] = None
    #: Admission policy applied to origin-bound misses (``None``: admit all).
    policy: Optional[AdmissionPolicy] = None
    #: Circuit breaker toward the origin (``None``: never brown out).
    breaker: Optional[CircuitBreaker] = None
    #: Brown-out page cache (DPC mode only; the no-cache baseline has no
    #: proxy to hold last-known-good pages).
    serve_stale_pages: bool = True
    stale_capacity: int = 256
    stale_max_age_s: Optional[float] = None
    #: Stale-while-revalidate grace window for the BEM's fragment-level
    #: stale-on-late fallback (0 disables it).
    grace_s: float = 5.0
    #: Time-series resolution: requests per bucket.
    bucket_requests: int = 50
    #: Oracle-check every Nth fresh page (0 disables the check).
    correctness_every: int = 1
    seed: int = 7

    def __post_init__(self) -> None:
        if self.testbed.mode not in ("dpc", "no_cache"):
            raise ConfigurationError(
                "overload harness compares mode='dpc' against mode='no_cache'"
            )
        if self.bucket_requests <= 0:
            raise ConfigurationError("bucket_requests must be positive")
        if self.correctness_every < 0:
            raise ConfigurationError("correctness_every cannot be negative")
        if self.deadline_s is not None:
            # Private copy: the caller's TestbedConfig must not inherit
            # this run's deadline.
            self.testbed = replace(self.testbed, deadline_s=self.deadline_s)


@dataclass
class OverloadBucket:
    """One time-series point: counters over ``bucket_requests`` requests."""

    index: int
    start_request: int
    start_time: float
    requests: int = 0
    fresh: int = 0
    stale: int = 0
    shed: int = 0
    timed_out: int = 0
    #: App-queue waiting-room depth observed when the bucket closed.
    queue_depth: int = 0
    response_times: List[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Requests that received some page (fresh or stale)."""
        return self.fresh + self.stale

    @property
    def p50(self) -> float:
        """Median response time of pages delivered in this bucket."""
        return percentile(self.response_times, 0.50)

    @property
    def p99(self) -> float:
        """Tail response time of pages delivered in this bucket."""
        return percentile(self.response_times, 0.99)


@dataclass
class OverloadResult:
    """Everything one overload run measured."""

    mode: str
    offered: int = 0
    warmup_requests: int = 0
    completed_fresh: int = 0
    completed_stale: int = 0
    shed: int = 0
    timed_out: int = 0
    #: Predicted cache-hit requests that ended shed — the acceptance bar
    #: requires this to stay exactly zero.
    hits_shed: int = 0
    predicted_hits: int = 0
    predicted_misses: int = 0
    buckets: List[OverloadBucket] = field(default_factory=list)
    #: Post-warmup response times of delivered pages.
    response_times: List[float] = field(default_factory=list)
    pages_checked: int = 0
    incorrect_pages: int = 0
    ledger: DropLedger = field(default_factory=DropLedger)
    app_queue: Optional[QueueStats] = None
    db_queue: Optional[QueueStats] = None
    degradation: Optional[DegradationStats] = None
    stale_cache: Optional[StaleCacheStats] = None
    breaker_opens: int = 0
    policy_shed: int = 0

    @property
    def completed(self) -> int:
        """Requests that received some page (fresh or stale)."""
        return self.completed_fresh + self.completed_stale

    @property
    def conserved(self) -> bool:
        """The outcome classes tile the offered traffic exactly."""
        return self.completed + self.shed + self.timed_out == self.offered

    def check_conservation(self) -> None:
        """Raise if any request was dropped without a named outcome."""
        if not self.conserved:
            raise ConfigurationError(
                "conservation violated: %d fresh + %d stale + %d shed + "
                "%d timed out != %d offered"
                % (
                    self.completed_fresh, self.completed_stale, self.shed,
                    self.timed_out, self.offered,
                )
            )

    def p50(self) -> float:
        """Median post-warmup response time of delivered pages."""
        return percentile(self.response_times, 0.50)

    def p99(self) -> float:
        """Tail post-warmup response time of delivered pages."""
        return percentile(self.response_times, 0.99)

    def series(self) -> List[Tuple[float, int, int, int, int, float]]:
        """(start_time, completed, shed, timed_out, depth, p99) rows."""
        return [
            (b.start_time, b.completed, b.shed, b.timed_out, b.queue_depth, b.p99)
            for b in self.buckets
        ]


class OverloadHarness:
    """Runs one workload through the overload-protected pipeline."""

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.testbed = Testbed(config.testbed)
        discipline = "priority" if config.reserve_fraction > 0 else "fifo"
        self.app_queue = BoundedQueue(
            "app-server",
            capacity=config.app_queue_capacity,
            servers=config.app_servers,
            discipline=discipline,
            reserve_fraction=config.reserve_fraction,
        )
        self.db_queue = BoundedQueue(
            "db-pool",
            capacity=config.db_queue_capacity,
            servers=config.db_servers,
        )
        self.testbed.server.queue = self.app_queue
        self.testbed.server.db_queue = self.db_queue
        self.policy = config.policy
        self.breaker = config.breaker
        self.ledger = DropLedger()
        self.degrader: Optional[GracefulDegrader] = None
        self.stale_cache: Optional[StalePageCache] = None
        monitor = self.testbed.monitor
        if monitor is not None:
            self.degrader = GracefulDegrader(bem=monitor, grace_s=config.grace_s)
            monitor.attach_degrader(self.degrader)
            if config.serve_stale_pages:
                self.stale_cache = StalePageCache(
                    capacity=config.stale_capacity,
                    max_age_s=config.stale_max_age_s,
                )
        self._stale_serves_mark = 0
        #: Every delivered page's response time; each bucket takes its slice.
        self._delivered: List[float] = []

    # -- the run loop --------------------------------------------------------

    def run(self) -> OverloadResult:
        """Replay the workload through the protected pipeline."""
        tb, config = self.testbed, self.config
        result = OverloadResult(
            mode=config.testbed.mode,
            warmup_requests=config.testbed.warmup_requests,
        )
        marks = CounterMarks(
            {
                "fresh": lambda: result.completed_fresh,
                "stale": lambda: result.completed_stale,
                "shed": lambda: result.shed,
                "timed_out": lambda: result.timed_out,
                "delivered": lambda: len(self._delivered),
                "queue_depth": lambda: self.app_queue.depth(tb.clock.now()),
            },
            every=config.bucket_requests,
        )

        def step(index: int, timed, start: float) -> Tuple[str, bool]:
            tb.arrive(timed)
            outcome, html, predicted_hit = self._serve(timed)
            self._account(result, index, timed, outcome, html, predicted_hit)
            if outcome in ("shed", "timed_out"):
                self._note_shed_fragments(timed.request)
            if self.degrader is not None:
                self.degrader.revalidate_due()
            return outcome, predicted_hit

        total = config.testbed.warmup_requests + config.testbed.requests
        tb.replay.run(tb.build_workload(), total, step, marks)

        for number, (start, end) in enumerate(marks.windows()):
            grown = marks.growth(number)
            result.buckets.append(OverloadBucket(
                number, start.index, start.at, end.index - start.index,
                **{outcome: grown[outcome] for outcome in OUTCOMES},
                queue_depth=end.counts["queue_depth"],
                response_times=self._delivered[
                    start.counts["delivered"]:end.counts["delivered"]
                ],
            ))
        self.ledger.sync_channel(tb.origin_link)
        result.ledger = self.ledger
        result.app_queue = self.app_queue.stats
        result.db_queue = self.db_queue.stats
        if self.degrader is not None:
            result.degradation = self.degrader.stats
        if self.stale_cache is not None:
            result.stale_cache = self.stale_cache.stats
        if self.breaker is not None:
            result.breaker_opens = self.breaker.stats.opens
        if self.policy is not None:
            result.policy_shed = self.policy.shed
        result.check_conservation()
        return result

    # -- per-request overload-aware pipeline ---------------------------------

    def _serve(self, timed) -> Tuple[str, Optional[str], bool]:
        """One request through the protected pipeline, under a trace root.

        With tracing enabled the whole decision — hit prediction, breaker,
        admission, the actual serve, degradation — happens inside one
        ``request`` span, annotated afterwards with the outcome class.
        """
        with self.testbed.tracer.request_span(
            timed.request, harness="overload"
        ) as root:
            outcome, html, predicted_hit = self._serve_inner(timed)
            root.annotate(outcome=outcome, predicted_hit=predicted_hit)
            return outcome, html, predicted_hit

    def _serve_inner(self, timed) -> Tuple[str, Optional[str], bool]:
        tb = self.testbed
        request = timed.request
        arrival = timed.at
        now = tb.clock.now()
        with tb.tracer.span("dpc.lookup") as lookup:
            predicted_hit = self._predicted_full_hit(request)
            lookup.annotate(predicted_hit=predicted_hit)
        if predicted_hit:
            request = replace(request, priority=1)
        gated = not predicted_hit and tb.dpc is not None
        breaker_granted = False
        if gated and self.breaker is not None:
            if not self.breaker.allow(now):
                # Brown-out: the breaker holds origin-bound regeneration work.
                if self.degrader is not None:
                    self.degrader.record_brownout()
                outcome, html = self._degrade(request, now, "breaker_open")
                return outcome, html, predicted_hit
            breaker_granted = True
        if gated and self.policy is not None and not self.policy.admit(
            now, self.app_queue.depth(arrival), self.app_queue.expected_wait(arrival)
        ):
            if breaker_granted:
                # The trip never happened: hand back the (possibly
                # half-open probe) slot so the breaker cannot wedge on a
                # phantom in-flight probe.
                self.breaker.release(now)
            outcome, html = self._degrade(request, now, "policy_shed")
            return outcome, html, predicted_hit

        try:
            html = tb.serve_once(request)
        except QueueFullError:
            if gated and self.breaker is not None:
                self.breaker.record_failure(tb.clock.now())
            outcome, html = self._degrade(request, tb.clock.now(), "queue_full")
            return outcome, html, predicted_hit
        except DeadlineExceededError:
            # Screened out at the origin door: service could not have
            # started before the deadline.  No script ran, nothing desyncs.
            if gated and self.breaker is not None:
                self.breaker.record_failure(tb.clock.now())
            outcome, html = self._degrade(
                request, tb.clock.now(), "deadline_exceeded"
            )
            return outcome, html, predicted_hit

        now = tb.clock.now()
        late = request.deadline_at is not None and now > request.deadline_at
        if gated and self.breaker is not None:
            if late:
                self.breaker.record_failure(now)
            else:
                self.breaker.record_success(now)
        stale_fragments = self._stale_fragments_served(timed)
        if late:
            # A page past its deadline is not a success, even when stale
            # fragments were leaned on along the way.  The template still
            # reached the DPC (the cache stays warm) but the client-visible
            # page goes through the deadline path.
            outcome, html = self._degrade(request, now, "deadline_exceeded")
            return outcome, html, predicted_hit
        if stale_fragments:
            # The BEM's deadline-pressure path substituted stale fragments;
            # the page is delivered but counts as correctness exposure.
            return "stale", html, predicted_hit
        return "fresh", html, predicted_hit

    def _degrade(
        self, request, now: float, reason: str
    ) -> Tuple[str, Optional[str]]:
        """Stale fallback if possible, else a named drop.

        The ledger counts only requests that got *nothing* — a stale serve
        is a degraded success, accounted through the degradation stats.
        """
        if self.stale_cache is not None:
            html = self.stale_cache.serve_stale(request.url, now)
            if html is not None:
                if self.degrader is not None:
                    self.degrader.record_stale_page(len(html.encode("utf-8")))
                return "stale", html
        self.ledger.record(reason)
        if self.degrader is not None:
            self.degrader.record_failure()
        return ("timed_out" if reason == "deadline_exceeded" else "shed"), None

    def _predicted_full_hit(self, request) -> bool:
        """Whether every cacheable fragment of this page is fresh in the BEM.

        This is the proxy-side hit predictor: it uses only non-mutating
        directory peeks, so prediction never perturbs TTL bookkeeping.  A
        page with no cacheable fragments is origin-bound by definition.
        """
        if self.testbed.monitor is None:
            return False
        saw_cacheable = False
        for _, fresh in self._page_freshness(request):
            if not fresh:
                return False
            saw_cacheable = True
        return saw_cacheable

    def _note_shed_fragments(self, request) -> None:
        """Tell the insight ledger which refill opportunities were shed.

        A shed (or screened-out) request would have regenerated every
        cacheable fragment of its page that is currently absent or unfresh;
        with a miss-cause ledger attached to the directory
        (:meth:`repro.core.cache_directory.CacheDirectory.attach_insight`),
        the *next* miss on each of those fragments is attributed to
        ``shed_overload`` instead of whatever removed it.  Fragments still
        fresh are untouched — sheds never concern them — and without an
        attached ledger this is a no-op.
        """
        monitor = self.testbed.monitor
        if monitor is None:
            return
        insight = monitor.directory.insight
        if insight is None:
            return
        for fragment_id, fresh in self._page_freshness(request):
            if not fresh:
                insight.note_shed(fragment_id)

    def _page_freshness(self, request) -> Iterator[Tuple[FragmentID, bool]]:
        """``(fragment_id, fresh)`` per cacheable block of the page (peeks only).

        The page's tagged (``"frag"``) blocks and their ids are read off
        its block plan, which the serve path writes.
        """
        testbed = self.testbed
        directory = testbed.monitor.directory
        plan = testbed.page_script.plan(int(request.param("pageID", "0")))
        now = testbed.clock.now()
        for name, _, fragment_id, _ in plan:
            if name != "frag":
                continue
            entry = directory.peek(fragment_id)
            yield fragment_id, entry is not None and entry.fresh(now)

    def _stale_fragments_served(self, timed) -> bool:
        """Whether the request just served consumed any stale fragments."""
        monitor = self.testbed.monitor
        if monitor is None:
            return False
        served = monitor.stats.stale_fragment_serves
        delta = served - self._stale_serves_mark
        self._stale_serves_mark = served
        return delta > 0

    # -- accounting ----------------------------------------------------------

    def _account(
        self, result: OverloadResult, index: int, timed, outcome, html,
        predicted_hit: bool,
    ) -> None:
        tb, config = self.testbed, self.config
        measuring = index >= config.testbed.warmup_requests
        result.offered += 1
        if predicted_hit:
            result.predicted_hits += 1
        else:
            result.predicted_misses += 1
        if outcome in ("fresh", "stale"):
            elapsed = tb.clock.now() - timed.at
            self._delivered.append(elapsed)
            if measuring:
                result.response_times.append(elapsed)
            tb.tracer.annotate_last(elapsed_s=elapsed)
        if outcome == "fresh":
            result.completed_fresh += 1
            if (
                config.correctness_every
                and result.completed_fresh % config.correctness_every == 0
            ):
                result.pages_checked += 1
                if html != tb.render_oracle(timed.request):
                    result.incorrect_pages += 1
            if self.stale_cache is not None:
                # Only pages that came through the normal pipeline are
                # remembered, so brown-out staleness cannot compound.
                self.stale_cache.put(timed.request.url, html, tb.clock.now())
        elif outcome == "stale":
            result.completed_stale += 1
        elif outcome == "shed":
            result.shed += 1
            if predicted_hit:
                result.hits_shed += 1
        else:
            result.timed_out += 1


def run_overload(config: OverloadConfig) -> OverloadResult:
    """Convenience one-shot: build the harness, run it, return the result."""
    return OverloadHarness(config).run()

"""Flash-crowd acceptance: the DPC sheds gracefully, the baseline collapses.

The ISSUE-level acceptance bar, as an executable test: under a 10x flash
crowd with end-to-end deadlines,

* the DPC-enabled site delivers every page correctly (oracle-checked),
  never sheds a predicted cache hit, keeps p99 under the deadline, and its
  post-burst throughput returns to within 5% of pre-burst;
* the same workload against the no-cache baseline saturates: queue-full
  rejections occur and a large fraction of requests time out.

Both runs replay the *identical* seeded workload, so the comparison is
paired.
"""

import pytest

from repro.harness.testbed import TestbedConfig
from repro.overload import (
    CircuitBreaker,
    CoDelPolicy,
    OverloadConfig,
    StaticThresholdPolicy,
    run_overload,
)
from repro.overload.admission import AdmissionPolicy
from repro.sites.synthetic import SyntheticParams
from repro.telemetry.stats import percentile
from repro.workload import FlashCrowdProcess

#: Shared scenario: a quiet 6 req/s site hit by a 10x burst.
PARAMS = SyntheticParams(
    num_pages=10, fragments_per_page=4, fragment_size=2048, cacheability=0.75
)
DEADLINE_S = 1.5
BASE_RATE = 6.0


def flash_arrivals():
    return FlashCrowdProcess(
        base_rate=BASE_RATE, multiplier=10.0, burst_at=20.0,
        hold_s=5.0, decay_s=2.0, deterministic=True,
    )


def make_testbed(mode):
    return TestbedConfig(
        mode=mode, synthetic=PARAMS, target_hit_ratio=0.9,
        requests=600, warmup_requests=100, arrivals=flash_arrivals(),
    )


def bucket_throughputs(result):
    """(bucket, completed-pages-per-virtual-second) for complete buckets."""
    rates = []
    for bucket, nxt in zip(result.buckets, result.buckets[1:]):
        duration = nxt.start_time - bucket.start_time
        if duration > 0:
            rates.append((bucket, bucket.completed / duration))
    return rates


@pytest.fixture(scope="module")
def dpc_run():
    config = OverloadConfig(
        testbed=make_testbed("dpc"),
        deadline_s=DEADLINE_S,
        policy=CoDelPolicy(target_s=0.05, interval_s=0.5),
        breaker=CircuitBreaker(failure_threshold=5, open_s=1.0),
        correctness_every=1,
    )
    return run_overload(config)


@pytest.fixture(scope="module")
def baseline_run():
    config = OverloadConfig(
        testbed=make_testbed("no_cache"),
        deadline_s=DEADLINE_S,
        correctness_every=0,
    )
    return run_overload(config)


class TestDpcShedsGracefully:
    def test_no_incorrect_pages(self, dpc_run):
        assert dpc_run.pages_checked > 0
        assert dpc_run.incorrect_pages == 0

    def test_cache_hits_never_shed(self, dpc_run):
        assert dpc_run.predicted_hits > 0
        assert dpc_run.hits_shed == 0

    def test_p99_bounded_by_deadline(self, dpc_run):
        assert dpc_run.response_times
        assert dpc_run.p99() <= DEADLINE_S

    def test_conservation(self, dpc_run):
        assert dpc_run.conserved
        assert dpc_run.offered == 700

    def test_post_burst_throughput_recovers(self, dpc_run):
        rates = bucket_throughputs(dpc_run)
        pre = [
            rate for bucket, rate in rates
            if bucket.index >= 1 and bucket.start_time < 20.0
            and rate <= BASE_RATE * 1.5
        ]
        assert pre, "no pre-burst buckets measured"
        tail = rates[-1][1]
        pre_rate = sum(pre) / len(pre)
        assert abs(tail - pre_rate) / pre_rate <= 0.05

    def test_every_drop_has_a_ledger_row(self, dpc_run):
        named = dpc_run.ledger.total - dpc_run.ledger.count("messages_dropped")
        assert named == dpc_run.shed + dpc_run.timed_out


class TestBaselineCollapses:
    def test_queue_full_rejections_occur(self, baseline_run):
        assert baseline_run.ledger.count("queue_full") > 0
        assert baseline_run.app_queue.rejected > 0

    def test_most_burst_traffic_fails(self, baseline_run):
        failed = baseline_run.shed + baseline_run.timed_out
        assert failed > baseline_run.offered * 0.3

    def test_conservation_still_holds(self, baseline_run):
        assert baseline_run.conserved

    def test_dpc_outperforms_baseline(self, dpc_run, baseline_run):
        assert dpc_run.completed > baseline_run.completed * 1.5


class TestBrownOut:
    """A harsher crowd against an undersized origin exercises the breaker,
    the stale-page brown-out path, and the fragment-level stale fallback."""

    @pytest.fixture(scope="class")
    def brownout_run(self):
        params = SyntheticParams(
            num_pages=10, fragments_per_page=4, fragment_size=4096,
            cacheability=0.5,
        )
        testbed = TestbedConfig(
            mode="dpc", synthetic=params, target_hit_ratio=0.5,
            requests=500, warmup_requests=100,
            arrivals=FlashCrowdProcess(
                base_rate=10.0, multiplier=40.0, burst_at=10.0,
                hold_s=10.0, decay_s=3.0, deterministic=True,
            ),
        )
        config = OverloadConfig(
            testbed=testbed, deadline_s=0.4,
            app_servers=1, app_queue_capacity=8,
            db_servers=1, db_queue_capacity=8,
            policy=StaticThresholdPolicy(threshold=4),
            breaker=CircuitBreaker(failure_threshold=3, open_s=2.0),
            grace_s=10.0, correctness_every=1,
        )
        return run_overload(config)

    def test_breaker_opens_and_stale_pages_flow(self, brownout_run):
        assert brownout_run.breaker_opens >= 1
        assert brownout_run.completed_stale > 0
        assert brownout_run.stale_cache.stale_serves > 0
        assert brownout_run.degradation.browned_out_requests > 0

    def test_stale_is_exposure_not_incorrectness(self, brownout_run):
        # Only fresh pages are oracle-checked; none may be wrong.
        assert brownout_run.incorrect_pages == 0
        assert brownout_run.degradation.stale_pages == (
            brownout_run.stale_cache.stale_serves
        )

    def test_conservation_under_brownout(self, brownout_run):
        assert brownout_run.conserved


class ShedAllPolicy(AdmissionPolicy):
    """Worst-case admission: every origin-bound request is shed."""

    name = "shed-all"

    def admit(self, now, depth, wait_s):
        return self._account(False)


class TestHarnessRegressions:
    def test_policy_shed_returns_half_open_probe_slot(self):
        """A probe granted by the half-open breaker but shed by the policy
        must be handed back — otherwise the breaker wedges on a phantom
        in-flight probe and refuses all origin work for the rest of the
        run."""
        breaker = CircuitBreaker(failure_threshold=1, open_s=0.5)
        breaker.record_failure(0.0)  # the run starts browned out
        config = OverloadConfig(
            testbed=TestbedConfig(
                mode="dpc", synthetic=PARAMS, target_hit_ratio=0.5,
                requests=100, warmup_requests=0,
            ),
            deadline_s=DEADLINE_S,
            policy=ShedAllPolicy(),
            breaker=breaker,
            serve_stale_pages=False,
            correctness_every=0,
        )
        result = run_overload(config)
        assert result.conserved
        # Every cool-down grants a fresh probe that the policy sheds; a
        # leaked probe would cap this at one.
        assert result.policy_shed >= 2
        # And the breaker can still half-open after the run.
        assert breaker.allow(1e9)

    def test_caller_testbed_config_is_not_mutated(self):
        testbed = make_testbed("dpc")
        assert testbed.deadline_s is None
        config = OverloadConfig(testbed=testbed, deadline_s=2.0)
        assert config.testbed.deadline_s == 2.0
        assert testbed.deadline_s is None

    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0  # not the sample max
        assert percentile([1.0, 2.0], 0.50) == 1.0
        assert percentile([], 0.50) == 0.0

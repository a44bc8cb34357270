"""Chaos acceptance: no fault scenario may ever produce a wrong page.

These are the subsystem's headline guarantees: under DPC crash, link
partition, message loss, and directory corruption the harness serves zero
incorrect pages (every delivered page is checked against the no-cache
oracle), and after a crash the hit ratio re-climbs to within five points
of the pre-fault steady state.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults.chaos import (
    ChaosConfig,
    ChaosHarness,
    run_chaos,
    summarize_recovery,
)
from repro.faults.injectors import (
    ChannelDegradation,
    ChannelPartition,
    DirectoryCorruption,
    DpcCrash,
    FaultInjector,
    MessageLoss,
)
from repro.harness.testbed import TestbedConfig


def make_config(faults, requests=500, **kwargs):
    kwargs.setdefault("bucket_requests", 50)
    return ChaosConfig(
        testbed=TestbedConfig(
            mode="dpc", requests=requests, warmup_requests=100, seed=11
        ),
        faults=faults,
        **kwargs,
    )


SCENARIOS = {
    "dpc_crash": [DpcCrash(at=6.0, downtime=0.2)],
    "partition": [ChannelPartition(at=6.0, duration=0.5)],
    "degradation": [ChannelDegradation(at=6.0, duration=1.0, extra_delay_s=0.05)],
    "message_loss": [MessageLoss(at=6.0, duration=2.0, drop_probability=0.4, seed=3)],
    "corrupt_flip_valid": [
        DirectoryCorruption(at=6.0, mode="flip_valid", count=8, seed=3)
    ],
    "corrupt_leak_key": [DirectoryCorruption(at=6.0, mode="leak_key", count=8, seed=3)],
    "corrupt_drop_slot": [
        DirectoryCorruption(at=6.0, mode="drop_slot", count=8, seed=3)
    ],
    "compound": [
        DpcCrash(at=5.0, downtime=0.2),
        MessageLoss(at=6.5, duration=0.8, drop_probability=0.3, seed=5),
        DirectoryCorruption(at=7.5, mode="drop_slot", count=4, seed=5),
    ],
}


class TestConfigValidation:
    def test_requires_dpc_mode(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(testbed=TestbedConfig(mode="nocache"))

    def test_bucket_requests_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            make_config([], bucket_requests=0)


class TestZeroIncorrectPages:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_no_wrong_page_ever(self, scenario):
        result = run_chaos(make_config(SCENARIOS[scenario]))
        assert result.pages_checked > 0, scenario
        assert result.incorrect_pages == 0, scenario
        # Every request is accounted for exactly once.
        served = (
            result.pages_checked + result.bypassed_requests + result.failed_requests
        )
        assert served == result.requests, scenario


class TestCrashRecovery:
    @pytest.fixture(scope="class")
    def result(self):
        return run_chaos(make_config([DpcCrash(at=6.0, downtime=0.2)]))

    def test_downtime_is_bridged_by_bypass(self, result):
        assert result.bypassed_requests > 0
        assert result.failed_requests == 0
        assert result.degradation.availability(result.requests) == 1.0

    def test_epoch_resync_ran_exactly_once(self, result):
        kinds = [event.kind for event in result.recovery_events]
        assert kinds.count("epoch_resync") == 1
        assert result.recovery.epoch_resyncs == 1

    def test_hit_ratio_recovers_within_five_points(self, result):
        summary = summarize_recovery(result, fault_at=6.0, tolerance=0.05)
        assert summary.steady_hit_ratio > 0.5
        assert summary.dip_hit_ratio < summary.steady_hit_ratio
        assert summary.recovered
        assert summary.recovery_time_s is not None
        assert summary.recovery_time_s > 0.0

    def test_without_bypass_downtime_costs_availability(self):
        result = run_chaos(
            make_config([DpcCrash(at=6.0, downtime=0.2)], bypass_when_down=False)
        )
        assert result.failed_requests > 0
        assert result.bypassed_requests == 0
        assert result.incorrect_pages == 0
        assert result.degradation.availability(result.requests) < 1.0


class TestPartitionAndLoss:
    def test_partition_dead_letters_instead_of_serving_wrong(self):
        result = run_chaos(make_config([ChannelPartition(at=6.0, duration=0.5)]))
        assert result.delivery.dead_letters > 0
        assert result.failed_requests > 0
        assert result.incorrect_pages == 0

    def test_message_loss_is_absorbed_by_retries(self):
        result = run_chaos(
            make_config(
                [MessageLoss(at=6.0, duration=2.0, drop_probability=0.4, seed=3)]
            )
        )
        assert result.messages_dropped > 0
        assert result.delivery.retries > 0
        assert result.incorrect_pages == 0


class TestDeterminism:
    def test_same_seed_same_series(self):
        def run():
            # Injector instances carry RNG/fired state, so each run gets
            # a fresh schedule built from the same parameters.
            return run_chaos(
                make_config(
                    [
                        DpcCrash(at=6.0, downtime=0.2),
                        MessageLoss(
                            at=8.0, duration=1.0, drop_probability=0.3, seed=5
                        ),
                    ]
                )
            )

        first, second = run(), run()
        assert first.series() == second.series()
        assert first.bypassed_requests == second.bypassed_requests
        assert first.messages_dropped == second.messages_dropped
        assert [e.kind for e in first.recovery_events] == [
            e.kind for e in second.recovery_events
        ]


class TestFaultFreeBaseline:
    def test_no_faults_means_no_recovery_activity(self):
        result = run_chaos(make_config([]))
        assert result.incorrect_pages == 0
        assert result.bypassed_requests == 0
        assert result.failed_requests == 0
        assert result.recovery_events == []
        assert result.messages_dropped == 0
        assert result.delivery.first_try_ratio == 1.0


class TestArrivalStep:
    def test_pre_request_hooks_fire_once_per_request_after_the_fault_tick(self):
        log = []

        class Probe(FaultInjector):
            def start(self, ctx):
                log.append(("fault", ctx.clock.now()))

        harness = ChaosHarness(
            ChaosConfig(
                testbed=TestbedConfig(mode="dpc", requests=50, warmup_requests=10),
                faults=[Probe(at=0.3)],
            )
        )

        def hook(index, timed):
            log.append(("hook", index, harness.testbed.clock.now()))

        harness.testbed.replay.before.append(hook)

        harness.run()

        hooks = [entry for entry in log if entry[0] == "hook"]
        assert [entry[1] for entry in hooks] == list(range(60))
        fault = [entry for entry in log if entry[0] == "fault"]
        assert len(fault) == 1
        # The fault fired at the first arrival at or past 0.3 s, and that
        # arrival's hook ran right after it, at the same instant.
        at = log.index(fault[0])
        assert all(entry[2] < 0.3 for entry in log[:at])
        assert log[at + 1][0] == "hook" and log[at + 1][2] == fault[0][1] >= 0.3

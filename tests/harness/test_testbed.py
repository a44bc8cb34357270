"""Tests for the Figure 4 testbed."""

import pytest

from repro.errors import ConfigurationError
from repro.harness.testbed import Testbed, TestbedConfig, run_testbed
from repro.network.message import ProtocolOverheadModel
from repro.sites.synthetic import SyntheticParams

FAST = dict(requests=200, warmup_requests=50)


class TestConfig:
    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            TestbedConfig(mode="magic")

    def test_invalid_hit_ratio(self):
        with pytest.raises(ConfigurationError):
            TestbedConfig(target_hit_ratio=1.5)

    def test_invalid_counts(self):
        with pytest.raises(ConfigurationError):
            TestbedConfig(requests=0)


class TestNoCacheMode:
    def test_bytes_match_page_size_exactly(self):
        """Every response ships 4 x s_e + f payload bytes."""
        config = TestbedConfig(
            mode="no_cache",
            synthetic=SyntheticParams(fragment_size=512),
            **FAST,
        )
        result = run_testbed(config)
        per_page = 4 * 512 + 500
        assert result.response_payload_bytes == per_page * config.requests

    def test_wire_bytes_exceed_payload(self):
        result = run_testbed(TestbedConfig(mode="no_cache", **FAST))
        assert result.response_wire_bytes > result.response_payload_bytes

    def test_requests_also_measured(self):
        result = run_testbed(TestbedConfig(mode="no_cache", **FAST))
        assert result.request_payload_bytes > 0

    def test_overhead_disabled_equalizes(self):
        config = TestbedConfig(
            mode="no_cache",
            overhead=ProtocolOverheadModel(enabled=False),
            **FAST,
        )
        result = run_testbed(config)
        assert result.response_wire_bytes == result.response_payload_bytes


class TestDpcMode:
    def test_hit_ratio_tracks_target(self):
        for target in (0.5, 0.8):
            result = run_testbed(
                TestbedConfig(mode="dpc", target_hit_ratio=target,
                              requests=600, warmup_requests=150)
            )
            assert result.measured_hit_ratio == pytest.approx(target, abs=0.08)

    def test_h1_means_no_invalidations(self):
        result = run_testbed(
            TestbedConfig(mode="dpc", target_hit_ratio=1.0, **FAST)
        )
        assert result.measured_hit_ratio == 1.0
        assert result.fragments_invalidated == 0

    def test_h0_means_all_misses(self):
        result = run_testbed(
            TestbedConfig(mode="dpc", target_hit_ratio=0.0, **FAST)
        )
        assert result.measured_hit_ratio == 0.0

    def test_dpc_saves_bytes_vs_no_cache(self):
        common = dict(target_hit_ratio=0.8, **FAST)
        dpc = run_testbed(TestbedConfig(mode="dpc", **common))
        plain = run_testbed(TestbedConfig(mode="no_cache", **common))
        assert dpc.response_payload_bytes < plain.response_payload_bytes

    def test_assembled_pages_always_correct(self):
        result = run_testbed(
            TestbedConfig(mode="dpc", correctness_every=5, **FAST)
        )
        assert result.pages_checked > 0
        assert result.pages_incorrect == 0

    def test_dpc_scan_bytes_counted(self):
        """Only the measured window's scan bytes are reported: the run
        marks the proxy's counter at the warm-up cut, and the same 250
        requests with no warm-up report every byte the proxy scanned."""
        warmed = Testbed(TestbedConfig(mode="dpc", **FAST))
        result = warmed.run()
        assert 0 < result.dpc_scanned_bytes < warmed.dpc.bytes_scanned
        assert result.firewall_bytes > 0
        whole = Testbed(
            TestbedConfig(mode="dpc", requests=250, warmup_requests=0)
        )
        assert whole.run().dpc_scanned_bytes == whole.dpc.bytes_scanned
        assert whole.dpc.bytes_scanned == warmed.dpc.bytes_scanned

    def test_firewall_counts_two_messages_per_request(self):
        """Each Figure 4 request crosses the firewall twice, inbound and
        outbound; the firewall is reset at the warm-up cut, so a run of N
        measured requests reads 2N."""
        for mode in ("dpc", "no_cache"):
            testbed = Testbed(TestbedConfig(mode=mode, **FAST))
            testbed.run()
            assert testbed.firewall.messages_scanned == 2 * FAST["requests"]
            whole = Testbed(TestbedConfig(mode=mode, requests=120, warmup_requests=0))
            whole.run()
            assert whole.firewall.messages_scanned == 2 * 120

    def test_response_times_faster_with_dpc(self):
        common = dict(target_hit_ratio=0.9, **FAST)
        dpc = run_testbed(TestbedConfig(mode="dpc", **common))
        plain = run_testbed(TestbedConfig(mode="no_cache", **common))
        assert dpc.mean_response_time < plain.mean_response_time

    def test_percentiles_ordered(self):
        result = run_testbed(TestbedConfig(mode="dpc", **FAST))
        assert (
            result.percentile_response_time(0.5)
            <= result.percentile_response_time(0.95)
        )


class TestBackendMode:
    def test_backend_saves_no_bytes(self):
        common = dict(target_hit_ratio=0.9, **FAST)
        backend = run_testbed(TestbedConfig(mode="backend", **common))
        plain = run_testbed(TestbedConfig(mode="no_cache", **common))
        assert backend.response_payload_bytes == plain.response_payload_bytes

    def test_backend_still_saves_time(self):
        common = dict(target_hit_ratio=0.9, **FAST)
        backend = run_testbed(TestbedConfig(mode="backend", **common))
        plain = run_testbed(TestbedConfig(mode="no_cache", **common))
        assert backend.mean_response_time < plain.mean_response_time

    def test_backend_pages_correct(self):
        result = run_testbed(
            TestbedConfig(mode="backend", correctness_every=5, **FAST)
        )
        assert result.pages_incorrect == 0


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        config = TestbedConfig(mode="dpc", seed=99, **FAST)
        a = run_testbed(config)
        b = run_testbed(TestbedConfig(mode="dpc", seed=99, **FAST))
        assert a.response_payload_bytes == b.response_payload_bytes
        assert a.measured_hit_ratio == b.measured_hit_ratio

    def test_workload_identical_across_modes(self):
        """The paired-run property: both modes see the same stream."""
        dpc_bed = Testbed(TestbedConfig(mode="dpc", seed=5, **FAST))
        plain_bed = Testbed(TestbedConfig(mode="no_cache", seed=5, **FAST))
        dpc_stream = [t.request.url for t in dpc_bed.build_workload().stream(100)]
        plain_stream = [t.request.url for t in plain_bed.build_workload().stream(100)]
        assert dpc_stream == plain_stream

"""Tests for the §7 edge-placement experiment."""

import pytest

from repro.errors import ConfigurationError
from repro.harness.edge import (
    EdgeExperimentConfig,
    compare_deployments,
    run_edge_experiment,
)

FAST = dict(requests=120, warmup=30)


class TestConfig:
    def test_invalid_deployment(self):
        with pytest.raises(ConfigurationError):
            EdgeExperimentConfig(deployment="cdn")

    def test_rejects_an_empty_measured_window(self):
        with pytest.raises(ConfigurationError):
            EdgeExperimentConfig(requests=0)
        with pytest.raises(ConfigurationError):
            EdgeExperimentConfig(warmup_requests=-1)


class TestDeploymentComparison:
    @pytest.fixture(scope="class")
    def results(self):
        return compare_deployments(**FAST)

    def test_response_time_ordering(self, results):
        assert (
            results["forward_proxy"].mean_response_time
            < results["reverse_proxy"].mean_response_time
            < results["origin_only"].mean_response_time
        )

    def test_forward_proxy_slashes_wan_bytes(self, results):
        assert (
            results["forward_proxy"].wan_payload_bytes
            < 0.1 * results["origin_only"].wan_payload_bytes
        )

    def test_reverse_proxy_wan_bytes_unchanged(self, results):
        """The §6 configuration saves inside the site, not across the WAN:
        the full assembled page still crosses to the user."""
        assert (
            results["reverse_proxy"].wan_payload_bytes
            == results["origin_only"].wan_payload_bytes
        )

    def test_hit_ratios(self, results):
        assert results["origin_only"].measured_hit_ratio == 0.0
        assert results["forward_proxy"].measured_hit_ratio > 0.9
        assert results["reverse_proxy"].measured_hit_ratio > 0.9

    def test_wire_bytes_exceed_payload(self, results):
        for result in results.values():
            assert result.wan_wire_bytes > result.wan_payload_bytes


class TestSingleRun:
    def test_deterministic(self):
        config = EdgeExperimentConfig(
            deployment="forward_proxy", requests=80, warmup_requests=20
        )
        a = run_edge_experiment(config)
        b = run_edge_experiment(
            EdgeExperimentConfig(
                deployment="forward_proxy", requests=80, warmup_requests=20
            )
        )
        assert a.wan_payload_bytes == b.wan_payload_bytes
        assert a.mean_response_time == b.mean_response_time

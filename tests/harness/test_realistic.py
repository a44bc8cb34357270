"""Tests for the realistic-site (BooksOnline) harness."""

import pytest

from repro.errors import ConfigurationError
from repro.harness.realistic import (
    RealisticConfig,
    run_realistic,
    run_realistic_pair,
)

FAST = dict(requests=150, warmup=40)


class TestConfig:
    def test_invalid_update_probability(self):
        with pytest.raises(ConfigurationError):
            RealisticConfig(update_probability=1.5)


    def test_rejects_an_empty_measured_window(self):
        """With no request after the warm-up cut there is no window to
        report; the warm-up traffic must not be reported in its place."""
        with pytest.raises(ConfigurationError):
            RealisticConfig(requests=0)
        with pytest.raises(ConfigurationError):
            RealisticConfig(warmup_requests=-1)


class TestPairedRun:
    @pytest.fixture(scope="class")
    def pair(self):
        return run_realistic_pair(**FAST)

    def test_dpc_saves_bytes(self, pair):
        plain, dpc = pair
        assert dpc.origin_payload_bytes < plain.origin_payload_bytes

    def test_dpc_saves_time(self, pair):
        plain, dpc = pair
        assert dpc.mean_response_time < plain.mean_response_time

    def test_all_pages_correct_in_both_modes(self, pair):
        plain, dpc = pair
        assert plain.pages_incorrect == 0
        assert dpc.pages_incorrect == 0
        assert plain.pages_checked > 0
        assert dpc.pages_checked > 0

    def test_hit_ratio_positive_despite_churn(self, pair):
        _, dpc = pair
        assert dpc.measured_hit_ratio > 0.5
        assert dpc.catalog_updates > 0

    def test_paired_churn_identical(self, pair):
        plain, dpc = pair
        assert plain.catalog_updates == dpc.catalog_updates


class TestSingleRun:
    def test_deterministic(self):
        a = run_realistic(RealisticConfig(requests=100, warmup_requests=20))
        b = run_realistic(RealisticConfig(requests=100, warmup_requests=20))
        assert a.origin_payload_bytes == b.origin_payload_bytes
        assert a.measured_hit_ratio == b.measured_hit_ratio

    def test_no_cache_mode_has_zero_hits(self):
        result = run_realistic(
            RealisticConfig(cached=False, requests=80, warmup_requests=20)
        )
        assert result.measured_hit_ratio == 0.0
        assert result.origin_payload_bytes > 0

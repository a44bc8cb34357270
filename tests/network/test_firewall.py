"""Tests for the firewall scan-cost model and Result 1 helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.network.firewall import (
    Firewall,
    ScanCostMeter,
    dpc_is_preferable,
    scan_cost_no_cache,
    scan_cost_with_cache,
)
from repro.network.message import response_message


class TestFirewall:
    def test_scan_accumulates_bytes(self):
        firewall = Firewall()
        firewall.scan(response_message(1000))
        firewall.scan(response_message(500))
        assert firewall.bytes_scanned == 1500
        assert firewall.messages_scanned == 2

    def test_scan_returns_time(self):
        firewall = Firewall(scan_cost_per_byte=1e-6)
        assert firewall.scan(response_message(1000)) == pytest.approx(1e-3)

    def test_scan_bytes_raw(self):
        firewall = Firewall()
        firewall.scan_bytes(123)
        assert firewall.bytes_scanned == 123
        assert firewall.messages_scanned == 1

    def test_scan_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            Firewall().scan_bytes(-1)

    def test_total_scan_cost(self):
        firewall = Firewall(scan_cost_per_byte=2e-6)
        firewall.scan_bytes(500)
        assert firewall.total_scan_cost == pytest.approx(1e-3)

    def test_reset(self):
        firewall = Firewall()
        firewall.scan_bytes(100)
        firewall.reset()
        assert firewall.bytes_scanned == 0


class TestScanCostEquations:
    def test_equation_1(self):
        assert scan_cost_no_cache(1000.0, y=2.0) == 2000.0

    def test_equation_2_defaults_z_to_y(self):
        assert scan_cost_with_cache(1000.0, y=2.0) == 4000.0

    def test_equation_2_custom_z(self):
        assert scan_cost_with_cache(1000.0, y=2.0, z=1.0) == 3000.0

    def test_result_1_boundary(self):
        """Result 1: DPC preferable iff B_NC > 2 B_C."""
        assert dpc_is_preferable(2001.0, 1000.0)
        assert not dpc_is_preferable(2000.0, 1000.0)
        assert not dpc_is_preferable(1999.0, 1000.0)


class TestScanCostMeter:
    def test_total_cost_combines_both_scans(self):
        meter = ScanCostMeter(y_per_byte=1.0, z_per_byte=2.0)
        meter.charge_firewall(10)
        meter.charge_dpc_scan(5)
        assert meter.total_cost == pytest.approx(10 + 10)

    def test_reset(self):
        meter = ScanCostMeter()
        meter.charge_firewall(10)
        meter.reset()
        assert meter.total_cost == 0.0

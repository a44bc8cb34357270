"""InsightLayer: fan-out, attachment wiring, and live end-to-end feeds."""

import pytest

from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.insight import CONTENT_INVALIDATION_REASONS, InsightLayer
from repro.network.clock import SimulatedClock


class TestFanOut:
    def test_content_reasons_reach_the_profiler(self):
        layer = InsightLayer()
        layer.record_access("f", hit=False)
        for reason in CONTENT_INVALIDATION_REASONS:
            layer.record_removal("f", reason)
        assert layer.profiler.accesses == 1
        # All three invalidations registered in place (one stale mark).
        layer.record_access("f", hit=False)
        assert layer.profiler.stale_misses == 1

    def test_capacity_eviction_is_not_a_profiler_event(self):
        layer = InsightLayer(keep_events=True)
        layer.record_access("f", hit=False)
        layer.record_removal("f", "evicted_capacity")
        assert layer.profiler.events == [("access", "f")]
        assert layer.ledger._pending["f"] == "evicted_capacity"

    def test_profile_false_disables_the_profiler(self):
        layer = InsightLayer(profile=False)
        assert layer.profiler is None
        layer.record_access("f", hit=False)
        layer.record_removal("f", "ttl_expired")
        assert layer.ledger.misses == 1

    def test_eviction_diagnostics_accumulate(self):
        layer = InsightLayer()
        layer.record_eviction("lru", idle_s=4.0, hits=2, size_bytes=100)
        layer.record_eviction("lru", idle_s=6.0, hits=0, size_bytes=50)
        assert layer.eviction_victims == 2
        assert layer.mean_eviction_idle_s() == pytest.approx(5.0)
        assert layer.eviction_bytes_total == 150

    def test_mean_idle_zero_when_no_victims(self):
        assert InsightLayer().mean_eviction_idle_s() == 0.0


class TestAttachment:
    def test_attach_returns_self_and_wires_directory(self):
        clock = SimulatedClock()
        bem = BackEndMonitor(capacity=8, clock=clock)
        layer = InsightLayer().attach(bem=bem)
        assert bem.directory.insight is layer

    def test_dpc_wipe_hook(self):
        dpc = DynamicProxyCache(capacity=8)
        layer = InsightLayer().attach(dpc=dpc)
        dpc.clear()
        dpc.clear()
        assert layer.dpc_wipes == 2

    def test_metric_rows_are_canonical_and_complete(self):
        from repro.telemetry.naming import METRIC_NAMES

        layer = InsightLayer()
        names = [name for name, _ in layer.metric_rows()]
        for name in names:
            assert name in METRIC_NAMES, name
        assert "insight.eviction.victims" in names
        assert "insight.dpc.wipes" in names
        assert "insight.mattson.accesses" in names


class TestLiveDirectoryFeed:
    """The directory hooks feed the layer without changing behavior."""

    def build(self, capacity=4):
        clock = SimulatedClock()
        bem = BackEndMonitor(capacity=capacity, clock=clock)
        layer = InsightLayer(keep_events=True).attach(bem=bem)
        return clock, bem, layer

    def frag(self, bem, index, ttl=None):
        from repro.core.fragments import FragmentID
        from repro.core.tagging import FragmentMetadata

        fid = FragmentID.create("frag", {"id": index})
        metadata = FragmentMetadata(ttl=ttl)
        bem.process_block(fid, lambda: metadata, lambda: "x" * 16)
        return fid.canonical()

    def test_cold_then_hit_then_eviction(self):
        clock, bem, layer = self.build(capacity=2)
        self.frag(bem, 1)
        self.frag(bem, 1)
        assert layer.ledger.hits == 1
        assert layer.ledger.counts["cold"] == 1
        # Two more distinct fragments force an eviction at capacity 2.
        self.frag(bem, 2)
        self.frag(bem, 3)
        assert layer.eviction_victims == 1
        self.frag(bem, 1)  # victim was LRU frag 1 -> evicted_capacity miss
        assert layer.ledger.counts["evicted_capacity"] == 1
        layer.check_invariants(bem.directory)

    def test_ttl_expiry_attributed(self):
        clock, bem, layer = self.build()
        self.frag(bem, 1, ttl=1.0)
        clock.advance(5.0)
        self.frag(bem, 1, ttl=1.0)
        assert layer.ledger.counts["ttl_expired"] == 1
        layer.check_invariants(bem.directory)


class TestObservationOnly:
    """An attached layer changes nothing the testbed measures."""

    ACCOUNTING_FIELDS = (
        "response_payload_bytes",
        "response_wire_bytes",
        "request_payload_bytes",
        "request_wire_bytes",
        "dpc_scanned_bytes",
        "firewall_bytes",
        "measured_hit_ratio",
        "fragments_invalidated",
    )

    def run(self, attached):
        from repro.harness.testbed import Testbed, TestbedConfig
        from repro.sites.synthetic import SyntheticParams

        testbed = Testbed(TestbedConfig(
            mode="dpc",
            synthetic=SyntheticParams(num_pages=20, fragments_per_page=16,
                                      fragment_size=4096, cacheability=0.8),
            target_hit_ratio=0.9,
            requests=200, warmup_requests=40, seed=7,
        ))
        layer = None
        if attached:
            layer = InsightLayer().attach(bem=testbed.monitor, dpc=testbed.dpc)
        result = testbed.run()
        return result, testbed.clock.now(), layer

    def test_attached_run_is_identical_to_detached(self):
        detached, detached_now, _ = self.run(attached=False)
        attached, attached_now, layer = self.run(attached=True)
        assert layer.ledger.hits > 0 and layer.ledger.misses > 0
        for field in self.ACCOUNTING_FIELDS:
            assert getattr(attached, field) == getattr(detached, field), field
        assert attached.response_times == detached.response_times
        assert attached_now == detached_now

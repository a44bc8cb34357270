"""Tests for the brown-out page cache and the drop ledger."""

import pytest

from repro.errors import ConfigurationError
from repro.network import Channel
from repro.overload.accounting import DROP_REASONS, DropLedger
from repro.overload.stale import StalePageCache


class TestStalePageCache:
    def test_serves_last_known_good(self):
        cache = StalePageCache(capacity=4)
        cache.put("/a", "<page A v1>", now=0.0)
        cache.put("/a", "<page A v2>", now=1.0)
        assert cache.serve_stale("/a", now=5.0) == "<page A v2>"
        assert cache.stats.stale_serves == 1
        assert cache.stats.stale_bytes == len("<page A v2>")

    def test_miss_is_counted(self):
        cache = StalePageCache()
        assert cache.serve_stale("/nope", now=0.0) is None
        assert cache.stats.misses == 1

    def test_max_age_expires_entries(self):
        cache = StalePageCache(max_age_s=10.0)
        cache.put("/a", "html", now=0.0)
        assert cache.has("/a", now=5.0)
        assert not cache.has("/a", now=20.0)
        assert cache.serve_stale("/a", now=20.0) is None
        assert cache.stats.expired_skips == 1

    def test_lru_eviction_spares_leaned_on_pages(self):
        cache = StalePageCache(capacity=2)
        cache.put("/a", "A", now=0.0)
        cache.put("/b", "B", now=0.0)
        cache.serve_stale("/a", now=1.0)     # /a is being leaned on
        cache.put("/c", "C", now=2.0)        # evicts /b, not /a
        assert cache.serve_stale("/a", now=3.0) == "A"
        assert cache.serve_stale("/b", now=3.0) is None

    def test_clear_and_len(self):
        cache = StalePageCache()
        cache.put("/a", "A", now=0.0)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            StalePageCache(capacity=0)
        with pytest.raises(ConfigurationError):
            StalePageCache(max_age_s=0)


class TestDropLedger:
    def test_every_reason_pre_registered_at_zero(self):
        ledger = DropLedger()
        assert [reason for reason, _ in ledger.rows()] == list(DROP_REASONS)
        assert all(count == 0 for _, count in ledger.rows())
        assert ledger.total == 0

    def test_record_and_count(self):
        ledger = DropLedger()
        ledger.record("queue_full")
        ledger.record("queue_full", 2)
        ledger.record("breaker_open")
        assert ledger.count("queue_full") == 3
        assert ledger.total == 4

    def test_unknown_reason_rejected(self):
        ledger = DropLedger()
        with pytest.raises(ConfigurationError):
            ledger.record("gremlins")
        with pytest.raises(ConfigurationError):
            ledger.count("gremlins")
        with pytest.raises(ConfigurationError):
            ledger.record("queue_full", -1)

    def test_sync_channel_is_idempotent(self):
        ledger = DropLedger()
        channel = Channel("link", endpoint_a="a", endpoint_b="b")
        channel.messages_dropped = 3
        ledger.sync_channel(channel)
        ledger.sync_channel(channel)
        assert ledger.count("messages_dropped") == 3

    def test_snapshot_rows_cover_every_reason(self):
        ledger = DropLedger()
        ledger.record("policy_shed", 5)
        rows = dict(ledger.metric_rows())
        for reason in DROP_REASONS:
            assert "overload.drops.%s" % reason in rows
        assert rows["overload.drops.policy_shed"] == 5
        assert rows["overload.drops.total"] == 5
